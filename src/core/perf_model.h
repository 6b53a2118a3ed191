// Performance prediction (paper §4.2). Four models, in precedence
// order per bundle option:
//   1. application-supplied TCL script (`performance script {...}`),
//   2. application-supplied expression (`performance expr {...}`) —
//      §3's "either an expression or a function",
//   3. piecewise-linear interpolation over supplied data points
//      (`performance {{x y} ...}`),
//   4. Harmony's default model: CPU seconds scaled by node speed and
//      processor-sharing contention, plus network transfer time —
//      "simple combinations of CPU and network requirements, suitably
//      scaled to reflect resource contention."
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/matcher.h"
#include "cluster/pool.h"
#include "cluster/topology.h"
#include "common/result.h"
#include "core/state.h"
#include "rsl/expr.h"
#include "rsl/spec.h"

namespace harmony::core {

// Read-only per-node planned-task counts for prediction, with two
// backings: a live ResourceView — pool or plan overlay, whose
// effective_load at an allocated node *is* the planned contention once
// the candidate allocation is installed, so the decision path reads it
// in place and allocates nothing — or an explicit map (tests, tools,
// offline what-if probes). Models only consult the nodes of the
// allocation under prediction and clamp absent/zero to 1, which is why
// the two backings are interchangeable.
class LoadView {
 public:
  LoadView() = default;
  LoadView(const cluster::ResourceView* view) : view_(view) {}
  LoadView(const std::map<cluster::NodeId, int>* map) : map_(map) {}

  // Planned tasks on `node`; 0 when unknown (models clamp to >= 1).
  int at(cluster::NodeId node) const {
    if (view_ != nullptr) return view_->effective_load(node);
    if (map_ != nullptr) {
      auto it = map_->find(node);
      return it == map_->end() ? 0 : it->second;
    }
    return 0;
  }
  bool valid() const { return view_ != nullptr || map_ != nullptr; }

 private:
  const cluster::ResourceView* view_ = nullptr;
  const std::map<cluster::NodeId, int>* map_ = nullptr;
};

struct PredictionInput {
  const rsl::OptionSpec* option = nullptr;
  const OptionChoice* choice = nullptr;
  const cluster::Allocation* allocation = nullptr;
  const cluster::Topology* topology = nullptr;
  // Planned tasks per node across every instance, including the
  // candidate allocation itself.
  LoadView node_load;
  // Namespace-backed resolver for names like "client.memory"
  // (allocation-derived names are layered on top automatically).
  rsl::ExprContext names;
};

class Predictor {
 public:
  // LogP-style send/receive occupancy (§3.4: "a better way of modeling
  // communication costs is by CPU occupancy on either end (for protocol
  // processing, copying), plus wire time"). When nonzero, the default
  // model charges this many reference CPU seconds per megabyte to each
  // endpoint of every transfer, on top of the wire time. Off by
  // default, as in the paper's model.
  void set_comm_occupancy(double seconds_per_mb) {
    comm_occupancy_s_per_mb_ = seconds_per_mb;
  }
  double comm_occupancy() const { return comm_occupancy_s_per_mb_; }

  // Predicted response time in seconds; lower is better.
  Result<double> predict(const PredictionInput& input) const;

  // Which model predict() would use (diagnostics / ablation bench).
  enum class Model { kScript, kExpr, kDag, kPoints, kDefault };
  static Model model_for(const rsl::OptionSpec& option);
  static const char* model_name(Model model);

  // The default model in isolation (ablation A3 compares it against the
  // points model on the same input).
  Result<double> predict_default(const PredictionInput& input) const;

 private:
  Result<double> predict_script(const PredictionInput& input) const;
  Result<double> predict_expr(const PredictionInput& input) const;
  Result<double> predict_dag(const PredictionInput& input) const;
  Result<double> predict_points(const PredictionInput& input) const;

  // Expression context: choice variables + role-derived names
  // (role.memory, role.count) + namespace fallback.
  rsl::ExprContext full_context(const PredictionInput& input) const;

  // Local (same-node) transfer rate used when communicating roles share
  // a host; matches NetworkModel's default.
  static constexpr double kLocalMbps = 8000.0;

  double comm_occupancy_s_per_mb_ = 0.0;
};

// The shape of what a bundle option's performance model observes beyond
// (choice, allocation, topology): whether it feeds per-node contention
// into the prediction, and whether its namespace read set is knowable.
// The expressions whose compiled read sets name what it pulls from the
// controller namespace are walked by for_each_model_expr(). Computed
// from the option spec by model_reads() without allocating.
struct ModelReads {
  // True when the model consults the planned per-node load (default,
  // critical-path and points models); the expression model never does.
  bool uses_load = true;
  // False when some read set is unknowable: TCL script models, or an
  // expression the bytecode compiler rejected ([script] substitution).
  // Such predictions must not be memoized.
  bool known = true;
};

// Calls fn(const rsl::Expr&) for every expression the model predict()
// would choose for `option` evaluates at prediction time, in a fixed
// order. Their compiled programs (rsl::Expr::program()) report the
// namespace names / interpreter variables read; empty and literal
// expressions contribute nothing. Script models evaluate none.
template <typename Fn>
void for_each_model_expr(const rsl::OptionSpec& option, Fn&& fn) {
  switch (Predictor::model_for(option)) {
    case Predictor::Model::kScript:
    case Predictor::Model::kPoints:
      return;
    case Predictor::Model::kExpr:
      fn(option.performance_expr);
      return;
    case Predictor::Model::kDag:
      for (const auto& task : option.performance_dag) fn(task.seconds);
      return;
    case Predictor::Model::kDefault:
      for (const auto& node : option.nodes) fn(node.seconds);
      for (const auto& link : option.links) fn(link.megabytes);
      if (!option.communication.empty()) fn(option.communication);
      return;
  }
}

// Read set of the model predict() would choose for `option`.
ModelReads model_reads(const rsl::OptionSpec& option);

// Memoized predictions for the decision path. A prediction is a pure
// function of (option choice, allocation, per-node contention on the
// allocated nodes when the model reads it) — plus the values of the
// namespace names the option's expressions read, which the key embeds
// directly (see PredictionKeyBuilder). Namespace churn therefore
// misses stale entries instead of requiring wholesale invalidation.
// Models with unknown read sets (scripts, uncompilable expressions)
// bypass the cache. Entries are identified by their full key bytes;
// the hash only picks a slot.
//
// Storage is two generations, each a flat open-addressing table whose
// slots point into one byte arena holding the keys. Inserts go to the
// young generation; once it holds kGenerationEntries entries (or
// kGenerationBytes key bytes) it becomes the old one and the previous
// old generation is dropped. A hit in the old generation is copied
// into the young one, so an entry stays as long as it keeps being hit.
class PredictionCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    double hit_rate() const {
      return hits + misses == 0
                 ? 0.0
                 : static_cast<double>(hits) / static_cast<double>(hits + misses);
    }
  };

  // Key bytes plus their hash, computed once by key() so that the
  // insert() following a missed lookup() does not hash again. The bytes
  // are borrowed: only insert() copies them.
  struct Key {
    std::string_view bytes;
    size_t hash = 0;
  };
  static Key key(std::string_view bytes) {
    return Key{bytes, std::hash<std::string_view>{}(bytes)};
  }

  static constexpr size_t kGenerationEntries = size_t{1} << 16;
  static constexpr size_t kGenerationBytes = size_t{1} << 26;

  std::optional<double> lookup(const Key& key);
  // Stores into the young generation, rotating it out first when full.
  void insert(const Key& key, double value);
  // Drops every entry (predictor or optimizer reconfigured).
  void invalidate();

  const Stats& stats() const { return stats_; }
  // Entries held across both generations (a promoted key counts twice).
  size_t size() const { return young_.count + old_.count; }

 private:
  struct Slot {
    size_t hash = 0;
    uint32_t offset = kEmpty;  // into the arena; kEmpty marks a free slot
    uint32_t length = 0;
    double value = 0.0;
  };
  static constexpr uint32_t kEmpty = UINT32_MAX;

  // Linear probing over a power-of-two table kept at most half full.
  struct Generation {
    std::vector<Slot> slots;
    std::string arena;
    size_t count = 0;

    Slot* find(const Key& key);
    Slot& free_slot(size_t hash);  // requires a free slot to exist
    bool full(const Key& key) const {
      return count >= kGenerationEntries ||
             arena.size() + key.bytes.size() > kGenerationBytes;
    }
    void put(const Key& key, double value);
    void clear();
  };

  Generation young_;
  Generation old_;
  Stats stats_;
};

// Builds prediction-cache keys into one reused buffer. A key holds the
// identity of the (instance, bundle) pair, the candidate choice
// (option, variables, memory grant), the allocation placement (each
// entry's role, index, node and memory), the clamped contention each
// allocated node would see (only when the model reads load), and the
// current value of every namespace name / interpreter variable in the
// model's read set, resolved through `names` — the complete input set
// of the model. Choice variables and allocation-derived names
// (role.memory, role.count, ...) shadow the namespace at eval time, but
// both are functions of inputs already in the key.
//
// The encoding is binary and injective: strings and counts carry
// varint length prefixes, a double that is a non-negative integer
// below 2^64 is a tag plus a varint, and any other double is a tag plus
// its raw 8 bytes (so 0.0 and -0.0, or 1.0 and its successor, stay
// distinct).
class PredictionKeyBuilder {
 public:
  // Rebuilds the key; the view stays valid until the next build().
  // Requires reads.known.
  std::string_view build(InstanceId instance, const std::string& bundle,
                         const OptionChoice& choice,
                         const cluster::Allocation& allocation,
                         const LoadView& load, const rsl::OptionSpec& option,
                         const ModelReads& reads,
                         const rsl::ExprContext& names);

 private:
  void append_name(const std::string& name, const rsl::ExprContext& names);
  void append_var(const std::string& name, const rsl::ExprContext& names);

  std::string key_;
  std::string text_;  // string-valued read, resolved before encoding
  // Read sets are tiny; linear dedup beats hashing here.
  std::vector<const std::string*> seen_names_;
  std::vector<const std::string*> seen_vars_;
};

}  // namespace harmony::core
