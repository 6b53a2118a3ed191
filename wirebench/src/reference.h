// The in-process reference: the decision core the server runs (a
// Controller or a DomainRouter with the same configuration and
// cluster), fed the inputs the generator actually sent, in send order.
// Lanes own disjoint optimization domains, so this order reproduces the
// server's decisions exactly. The reference answers three questions:
// what each reply should have been, which UPDATE frames each app should
// have received (and which request caused each), and the app state at
// the end. Timing its calls is the benchmark's in-process replay.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/domain.h"
#include "workload.h"

namespace wirebench {

class Reference {
 public:
  explicit Reference(const Workload& workload);

  Reference(const Reference&) = delete;
  Reference& operator=(const Reference&) = delete;

  bool ok() const { return init_error_.empty(); }
  const std::string& init_error() const { return init_error_; }

  struct Outcome {
    bool ok = false;
    std::string value;  // GET result
    double call_us = 0;  // time spent in the core's public functions
  };
  // Applies one sent op; `seq` is its position in the send order and
  // tags the UPDATE frames it causes.
  Outcome apply(const Op& op, size_t seq);

  struct Frame {
    size_t seq = 0;     // op that caused the frame
    std::string value;  // the bundle's new option
  };
  // Bundle-option UPDATE frames each app received, in delivery order.
  const std::vector<std::vector<Frame>>& frames() const { return frames_; }

  struct Counters {
    uint64_t candidates = 0;
    uint64_t predictor_calls = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t bundles_evaluated = 0;
    uint64_t bundles_skipped = 0;
    uint64_t reconfigurations = 0;
    size_t domains = 0;
  };
  // Public Optimizer counters summed over the live cores.
  Counters counters() const;
  std::vector<std::string> fingerprint() const;

 private:
  std::vector<const harmony::core::Controller*> cores() const;
  harmony::core::Controller::UpdateHandler handler(int app);
  harmony::core::InstanceId id(int app) const;

  const Workload& workload_;
  std::string init_error_;
  std::unique_ptr<harmony::core::Controller> controller_;
  std::unique_ptr<harmony::core::DomainRouter> router_;
  std::vector<harmony::core::InstanceId> ids_;
  // Churn sessions: the instances a session holds (registration order)
  // and the session each lane's connection currently carries.
  std::map<int, std::vector<int>> sessions_;
  std::map<int, int> lane_session_;
  // Handlers run on domain worker threads in routed mode.
  std::atomic<size_t> seq_{0};
  std::mutex frames_mutex_;
  std::vector<std::vector<Frame>> frames_;  // guarded by frames_mutex_
};

}  // namespace wirebench
