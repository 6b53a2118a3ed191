// Workload definitions for the wire-level benchmark: the cluster, the
// application population and the timed request stream of each
// workload, all generated deterministically from a seed. The server
// only ever receives frames built from these.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/controller.h"

namespace wirebench {

using Clock = std::chrono::steady_clock;

inline int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

enum class Verb : uint8_t {
  kRegister,
  kGet,
  kSet,
  kLoad,
  kResize,
  kEnd,
  kResume,
  kStatus,   // sent on every fresh connection: times the accept handoff
  kConnect,  // local: open a fresh connection for the lane
  kClose,    // local: drop the lane's connection without END
};
const char* verb_name(Verb verb);
// REGISTER, SET, LOAD, RESIZE, END and RESUME.
bool is_write(Verb verb);

struct App {
  std::string name;    // unique application name (the script's app name)
  std::string bundle;  // unique bundle name: UPDATE frames carry only this
  std::string var;     // parallelism variable, empty when the app has none
  std::string script;  // harmonyBundle RSL text sent with REGISTER
  int lane = 0;        // lane whose connection registers the app
};

// Stream phases. Setup ops register the resident population before the
// clock starts; warm-up ops run the fixed rate before the window opens;
// rung k of the rate ladder is phase kRung0 + k; readback GETs close
// the run.
enum Phase : int {
  kSetupPhase = 0,
  kWarmup = 1,
  kFixed = 2,
  kRung0 = 3,
  kReadback = 100
};

struct Op {
  int64_t t_ns = 0;  // scheduled send time, offset from stream start
  Verb verb = Verb::kGet;
  int lane = 0;
  int app = -1;       // index into Workload::apps
  int phase = kSetupPhase;
  std::string arg;    // SET option | LOAD host | RESIZE degree | GET name
  int value = 0;      // LOAD task count
  int session = -1;   // churn: session a REGISTER joins / a RESUME reattaches
  bool verify = false;  // GET whose reply is checked against the reference
};

// The server wiring of a workload. Everything here is applied by the one
// setup function in server_stack.cc.
struct Wiring {
  bool routed = false;      // DomainRouter core instead of one Controller
  int io_shards = 2;
  int domain_workers = 2;   // routed only
  bool compaction = false;  // snapshot + journal truncation every 64 epochs
  bool standby = false;     // one semi-sync standby in a second process
  // Optimizer policy knobs (see core::OptimizerConfig / ControllerConfig).
  bool first_feasible = false;
  bool reevaluate_on_arrival = true;
  bool record_objective_metric = true;

  harmony::core::ControllerConfig controller_config() const;
  std::string describe() const;
};

struct Workload {
  std::string name;
  uint64_t seed = 0;
  bool tiny = false;
  Wiring wiring;
  std::string cluster;          // harmonyNode script
  std::vector<App> apps;        // every app the run may register
  std::vector<Op> setup;        // resident-population REGISTERs
  std::vector<Op> stream;       // timed ops, sorted by t_ns
  int lanes = 0;
  std::vector<bool> fresh_lane;  // lane opens a fresh connection per session
  double fixed_rate = 0;         // offered ops/s in warm-up and the window
  std::vector<double> rung_rates;
  double limit_ms = 0;           // write p99 limit for the rate ladder
  int64_t warmup_ns = 0;
  int64_t fixed_ns = 0;
  int64_t rung_ns = 0;

  int64_t window_start_ns() const { return warmup_ns; }
  int64_t window_end_ns() const { return warmup_ns + fixed_ns; }
  int64_t rung_start_ns(size_t k) const {
    return window_end_ns() + static_cast<int64_t>(k) * rung_ns;
  }
};

struct WorkloadOptions {
  std::string name;
  uint64_t seed = 1;
  double seconds = 10;   // window plus ladder
  bool tiny = false;     // self-test scale
  bool ladder = true;    // false: the stream ends with the fixed window
};

// Builds a workload; returns false for an unknown name.
bool make_workload(const WorkloadOptions& options, Workload* out);
const std::vector<std::string>& workload_names();

// Canonical text of everything the generator will send (scripts, verbs,
// arguments, schedule), for the determinism self-test.
std::string dump_stream(const Workload& workload);

}  // namespace wirebench
