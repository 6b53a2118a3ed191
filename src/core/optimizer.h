// Option selection (paper §4.3): "we optimize one bundle at a time when
// adding new applications to the system. Bundles are evaluated in the
// same lexical order as they were defined... After defining the initial
// options for a new application, we re-evaluate the options for
// existing applications." Greedy by default; an exhaustive search over
// the joint choice space is provided as the ablation baseline.
//
// The greedy path is an *incremental planning engine*: candidates are
// evaluated against a PlanOverlay (copy-on-write view of the pool) so
// live state is only mutated when a winning plan commits; dirty-set
// tracking on SystemState lets re-evaluation passes skip bundles whose
// inputs are untouched; and a PredictionCache memoizes predictor calls
// across candidates and passes. Greedy decisions are identical to a
// full mutate-and-rollback pass — only the work done to reach them
// shrinks.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "cluster/matcher.h"
#include "common/result.h"
#include "core/objective.h"
#include "core/perf_model.h"
#include "core/solver.h"
#include "core/state.h"

namespace harmony::core {

struct OptimizerConfig {
  enum class Mode { kGreedy, kExhaustive };
  Mode mode = Mode::kGreedy;
  // How a newly arrived application is configured: kOptimize evaluates
  // every option against the objective; kFirstFeasible takes the first
  // option (definition order) that matches resources — the
  // application's declared default, as in the paper's §6 experiment
  // where clients start in query shipping and a later adaptation pass
  // reconfigures them.
  enum class InitialPolicy { kOptimize, kFirstFeasible };
  InitialPolicy initial_policy = InitialPolicy::kOptimize;
  // Re-evaluate existing applications when a new one arrives (§4.3).
  // Off, adaptation happens only at explicit/periodic reevaluate()
  // calls, reproducing the delayed trigger visible in Figure 7.
  bool reevaluate_on_arrival = true;
  cluster::MatchPolicy match_policy = cluster::MatchPolicy::kFirstFit;
  // Joint-combination cap for exhaustive mode.
  size_t exhaustive_limit = 100000;
  // When the joint space exceeds exhaustive_limit: fail with kCapacity
  // (default, the historical behavior) or evaluate a deterministic
  // prefix of exhaustive_limit combinations and count the truncation
  // (exhaustive_truncations() + optimizer.exhaustive_truncated_total).
  bool exhaustive_truncate = false;
  // Anytime plan-improvement pass run after greedy on_arrival /
  // reevaluate passes. Disabled by default (budget_ms = 0): decisions
  // are bit-identical to greedy.
  SolverConfig solver;
  // Memory grant multipliers tried for options with open-ended (">=")
  // memory constraints. {1.0} reproduces minimum-only grants; adding
  // levels lets the optimizer trade memory for bandwidth as §3.5
  // describes ("Harmony can then decide to allocate additional memory
  // resources at the client").
  std::vector<double> memory_grant_levels = {1.0};
  // Incremental re-evaluation: skip bundles whose feasible set and
  // contention inputs are untouched since their last evaluation
  // (dirty-set tracking). Decisions are provably identical to a full
  // pass for separable objectives; non-separable objectives only skip
  // when the whole system is unchanged. Off = re-walk everything
  // (the differential-test baseline).
  bool incremental = true;
  // Memoize predictor calls keyed on their full input fingerprint. Off
  // = recompute every prediction (the differential-test baseline; a
  // stale or colliding cache entry would otherwise corrupt both sides
  // of the comparison identically).
  bool memoize_predictions = true;
};

struct Decision {
  InstanceId instance = 0;
  std::string bundle;
  OptionChoice choice;
  bool changed = false;  // differs from the previous configuration
};

class Optimizer {
 public:
  Optimizer(const Predictor* predictor, const Objective* objective,
            OptimizerConfig config = {});

  // Namespace-backed expression context for RSL amounts. The context is
  // a live view; memoized predictions survive installs because cache
  // keys embed the value of every name a model's expressions read (see
  // PredictionKeyBuilder), so entries built against content that since
  // changed simply stop hitting.
  void set_names(rsl::ExprContext names);
  const OptimizerConfig& config() const { return config_; }
  // Reconfiguring forces the next pass to re-evaluate everything.
  void set_config(OptimizerConfig config);

  // Configures a newly arrived instance's bundles (definition order),
  // then re-evaluates every other application. Returns all applied
  // decisions. Fails with kNoMatch when no option of some new bundle
  // fits the remaining resources.
  Result<std::vector<Decision>> on_arrival(SystemState& state, InstanceId id,
                                           double now);

  // One re-evaluation pass over every instance and bundle (used on
  // departures and periodic timers). Under incremental mode, bundles
  // whose dirty inputs are untouched are skipped and report an
  // unchanged decision.
  Result<std::vector<Decision>> reevaluate(SystemState& state, double now);

  // Manual steering: installs a specific choice for one bundle,
  // bypassing the objective (but not resource matching). On an
  // infeasible request the previous configuration is restored and an
  // error returned.
  Result<Decision> apply_choice(SystemState& state, InstanceId id,
                                const std::string& bundle,
                                const OptionChoice& choice, double now);

  // Predicted response time per configured instance, state order.
  Result<std::vector<std::pair<InstanceId, double>>> predict_all(
      const SystemState& state) const;
  // Objective under the current configuration.
  Result<double> objective_value(const SystemState& state) const;

  // --- decision-path counters (ablation / metrics) ------------------------
  // Candidate configurations evaluated since construction.
  uint64_t candidates_evaluated() const { return candidates_evaluated_; }
  // Actual predictor invocations (prediction-cache misses + uncached).
  uint64_t predictor_calls() const { return predictor_calls_; }
  // Bundle optimizations run vs skipped by dirty-set tracking.
  uint64_t bundles_evaluated() const { return bundles_evaluated_; }
  uint64_t bundles_skipped() const { return bundles_skipped_; }
  const PredictionCache::Stats& cache_stats() const { return cache_.stats(); }
  // Exhaustive searches that hit exhaustive_limit with
  // exhaustive_truncate set (capped "exhaustive" rows are not truly
  // exhaustive).
  uint64_t exhaustive_truncations() const { return exhaustive_truncations_; }
  // Solver statistics, or nullptr when the solver is disabled.
  const SolverStats* solver_stats() const {
    return solver_ ? &solver_->stats() : nullptr;
  }

 private:
  friend class Solver;
  friend class SolverPass;  // the solver's per-pass working set (solver.cc)
  Result<Decision> optimize_bundle(SystemState& state, InstanceState& instance,
                                   BundleState& bundle, double now,
                                   bool require_feasible);
  Result<Decision> configure_first_feasible(SystemState& state,
                                            InstanceState& instance,
                                            BundleState& bundle, double now);
  Result<std::vector<Decision>> exhaustive(SystemState& state, double now);
  // The shared re-evaluation sweep: every bundle of every instance
  // except `exclude`, with dirty-set skipping when allowed.
  Result<std::vector<Decision>> reevaluate_pass(SystemState& state, double now,
                                                InstanceId exclude);
  // True when re-optimizing `bundle` provably reproduces its current
  // configuration (nothing it depends on changed since its last
  // evaluation).
  bool can_skip(const SystemState& state, const BundleState& bundle) const;

  // Installs a candidate (matching + reserving) against a resource
  // view; returns the allocation.
  Result<cluster::Allocation> try_install_on(cluster::ResourceView& view,
                                             BundleState& bundle,
                                             const OptionChoice& choice) const;
  Result<cluster::Allocation> try_install(SystemState& state,
                                          BundleState& bundle,
                                          const OptionChoice& choice) const;

  // Objective of the whole system with `candidate` (placed as
  // `allocation`) speculatively standing in for `bundle`, evaluated
  // under the plan's contention view. Friction is charged against
  // `instance` when the candidate differs from `previous` (non-null).
  Result<double> plan_objective(const SystemState& state,
                                const InstanceState& instance,
                                const BundleState& bundle,
                                const OptionChoice& candidate,
                                const cluster::Allocation& allocation,
                                const PlanOverlay& plan,
                                const OptionChoice* previous) const;
  // Memoized predictor invocation for one (instance, bundle) under the
  // given contention view (live pool, plan overlay, or explicit map).
  Result<double> predict_cached(InstanceId instance,
                                const BundleState& bundle,
                                const rsl::OptionSpec& option,
                                const OptionChoice& choice,
                                const cluster::Allocation& allocation,
                                const LoadView& load,
                                const cluster::Topology& topology) const;

  // Snapshot of every bundle's configuration (indexed [instance idx]
  // [bundle idx]) for friction pricing in the solver, taken before the
  // greedy pass mutates state.
  std::vector<std::vector<Solver::Previous>> snapshot_previous(
      const SystemState& state) const;
  // Runs the solver (when enabled) after a greedy pass. Failures are
  // swallowed: the greedy plan stands.
  void run_solver(SystemState& state, double now,
                  std::chrono::steady_clock::time_point deadline,
                  const std::vector<std::vector<Solver::Previous>>& previous,
                  std::vector<Decision>& decisions);

  const Predictor* predictor_;
  const Objective* objective_;
  OptimizerConfig config_;
  rsl::ExprContext names_;
  mutable PredictionCache cache_;
  mutable PredictionKeyBuilder key_builder_;  // reused key buffer
  std::unique_ptr<Solver> solver_;
  mutable uint64_t candidates_evaluated_ = 0;
  mutable uint64_t predictor_calls_ = 0;
  uint64_t bundles_evaluated_ = 0;
  uint64_t bundles_skipped_ = 0;
  uint64_t exhaustive_truncations_ = 0;
  // Set by set_config / exhaustive runs: the next pass must not skip.
  bool force_full_pass_ = false;
};

// Enumerates every (option, memory-grant) candidate for a bundle spec:
// each option's variable-binding choices crossed with the grant levels
// (only options with an open-ended ">=" memory constraint get more
// than the first level). Shared by the greedy pass and the solver so
// both search the same candidate space.
std::vector<OptionChoice> expand_option_choices(
    const rsl::BundleSpec& spec, const std::vector<double>& grant_levels);

// Tightest effective deadline declared across an instance's configured
// options (with that option's tardiness weight); false when no option
// declares one. Shared by the optimizer's evaluation sites, the
// controller's tardiness metric, and the domain router's merged
// objective.
bool instance_deadline(const InstanceState& instance, double* deadline_s,
                       double* weight);

}  // namespace harmony::core
