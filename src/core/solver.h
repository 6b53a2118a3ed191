// Anytime plan-improvement solver (ROADMAP item 1): a bounded local
// search that starts from the greedy pass's plan and tries to improve
// the joint (option, memory-grant, placement) assignment under a
// wall-clock budget.
//
// Shape of the problem: each configured bundle is one "slot" of a
// multiple-choice knapsack — exactly one (option, grant) candidate per
// slot, candidates priced by the system objective with frictional
// switching cost charged exactly as Optimizer::plan_objective does.
// Placements come from multi-capacity vector bin-packing heuristics
// (cluster::MatchPolicy::kVectorBestFit / kVectorWorstFit) alongside
// the optimizer's own policy.
//
// Anytime contract:
//   - The greedy plan is always the starting point; the solver only
//     ever *replaces* it with a strictly better plan, so the worst case
//     degrades gracefully to today's greedy decision.
//   - All exploration happens on a PoolOverlay copy-on-write view;
//     live state is mutated only when the final best plan commits.
//   - budget_ms = 0 disables the solver entirely: decisions are
//     bit-identical to greedy by construction.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "cluster/matcher.h"
#include "common/result.h"
#include "core/state.h"

namespace harmony::core {

class Optimizer;
struct Decision;

struct SolverConfig {
  // Wall-clock budget per improvement pass, in milliseconds. 0 (the
  // default) disables the solver: the optimizer commits the pure greedy
  // plan, bit-identical to a build without a solver.
  double budget_ms = 0;
  // Hard cap on local-search rounds; 0 = unlimited (budget-bound only).
  // Tests use a large budget plus max_rounds for wall-clock-free
  // determinism.
  int max_rounds = 0;
  // Pair-swap trials attempted per round.
  int swap_pairs_per_round = 64;
  // Seed for the deterministic move-ordering RNG.
  uint64_t seed = 0x5eed5eedULL;

  bool enabled() const { return budget_ms > 0; }
};

struct SolverStats {
  uint64_t passes = 0;            // improve() invocations
  uint64_t improved_passes = 0;   // passes that beat the greedy plan
  uint64_t rounds = 0;            // local-search rounds across passes
  uint64_t candidates = 0;        // candidate plans scored
  uint64_t moves_accepted = 0;    // accepted improving moves
  uint64_t budget_exhausted = 0;  // passes stopped by the deadline
  double last_improvement = 0;    // greedy_objective - best_objective
  double total_improvement = 0;
  double last_budget_used_ms = 0;
};

// One solver instance per Optimizer (hence per DomainRouter domain —
// each domain's Controller owns a private Optimizer). Not thread-safe;
// serialized by the thread that drives its controller, like the
// optimizer itself.
class Solver {
 public:
  Solver(Optimizer& optimizer, const SolverConfig& config);
  ~Solver();

  // Pre-pass snapshot of one bundle's configuration, used to price
  // friction against the state *before* this epoch's greedy pass (so
  // reverting a greedy switch costs nothing extra, and keeping it costs
  // exactly what greedy already paid).
  struct Previous {
    bool configured = false;
    OptionChoice choice;
  };

  // Improves the committed plan in `state` in place. `previous` is
  // indexed [instance index][bundle index] as of entry into the greedy
  // pass. Updates `decisions` for every bundle the improved plan
  // changes. Never worsens the objective; on any internal failure the
  // greedy plan stands.
  Status improve(SystemState& state, double now,
                 std::chrono::steady_clock::time_point deadline,
                 const std::vector<std::vector<Previous>>& previous,
                 std::vector<Decision>& decisions);

  const SolverStats& stats() const { return stats_; }
  const SolverConfig& config() const { return config_; }

 private:
  Optimizer& opt_;
  SolverConfig config_;
  SolverStats stats_;
};

}  // namespace harmony::core
