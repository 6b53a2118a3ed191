#include "core/optimizer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.h"
#include "common/strings.h"
#include "core/binding.h"
#include "metric/telemetry.h"

namespace harmony::core {

// Tightest effective deadline declared across an instance's configured
// options, with that option's tardiness weight. False when no option
// declares one — the common case, which keeps the decision path on the
// plain evaluate() and therefore bit-identical to a deadline-free
// build.
bool instance_deadline(const InstanceState& instance, double* deadline_s,
                       double* weight) {
  bool found = false;
  for (const auto& bundle : instance.bundles) {
    if (!bundle.configured) continue;
    const rsl::OptionSpec* option =
        bundle.spec.find_option(bundle.choice.option);
    if (option == nullptr) continue;
    const double d = option->effective_deadline_s();
    if (d <= 0) continue;
    if (!found || d < *deadline_s) {
      *deadline_s = d;
      *weight = option->tardiness_weight;
    }
    found = true;
  }
  return found;
}

Optimizer::Optimizer(const Predictor* predictor, const Objective* objective,
                     OptimizerConfig config)
    : predictor_(predictor), objective_(objective), config_(config) {
  HARMONY_ASSERT(predictor != nullptr && objective != nullptr);
  if (config_.solver.enabled()) {
    solver_ = std::make_unique<Solver>(*this, config_.solver);
  }
}

void Optimizer::set_names(rsl::ExprContext names) {
  names_ = std::move(names);
  // No invalidation: cache keys embed the value of every name a model
  // reads through this context (PredictionKeyBuilder), so entries
  // built against content that since changed can no longer be hit.
}

void Optimizer::set_config(OptimizerConfig config) {
  config_ = config;
  cache_.invalidate();
  force_full_pass_ = true;
  solver_ = config_.solver.enabled()
                ? std::make_unique<Solver>(*this, config_.solver)
                : nullptr;
}

Result<double> Optimizer::predict_cached(
    InstanceId instance, const BundleState& bundle,
    const rsl::OptionSpec& option, const OptionChoice& choice,
    const cluster::Allocation& allocation, const LoadView& load,
    const cluster::Topology& topology) const {
  auto predict = [&] {
    ++predictor_calls_;
    PredictionInput input;
    input.option = &option;
    input.choice = &choice;
    input.allocation = &allocation;
    input.topology = &topology;
    input.node_load = load;
    input.names = names_;
    return predictor_->predict(input);
  };
  if (!config_.memoize_predictions) return predict();
  // Unknown read sets — script models (which may also shell out through
  // cmd_eval) and expressions the compiler rejected — could observe
  // anything; never memoize them.
  const ModelReads reads = model_reads(option);
  if (!reads.known) return predict();
  const PredictionCache::Key key = PredictionCache::key(
      key_builder_.build(instance, bundle.spec.bundle, choice, allocation,
                         load, option, reads, names_));
  if (auto hit = cache_.lookup(key)) return *hit;
  auto predicted = predict();
  if (predicted.ok()) cache_.insert(key, predicted.value());
  return predicted;
}

Result<std::vector<std::pair<InstanceId, double>>> Optimizer::predict_all(
    const SystemState& state) const {
  std::vector<std::pair<InstanceId, double>> out;
  // Contention is read straight off the live pool (effective_load ==
  // planned processes + external load, exactly node_load()'s value at
  // every allocated node) — no O(cluster) map materialization.
  std::map<cluster::NodeId, int> fallback;
  LoadView load(static_cast<const cluster::ResourceView*>(state.pool.get()));
  if (state.pool == nullptr) {
    fallback = state.node_load();
    load = LoadView(&fallback);
  }
  for (const auto& instance : state.instances) {
    double total = 0.0;
    bool any = false;
    for (const auto& bundle : instance.bundles) {
      if (!bundle.configured) continue;
      const rsl::OptionSpec* option =
          bundle.spec.find_option(bundle.choice.option);
      if (option == nullptr) {
        return Err<std::vector<std::pair<InstanceId, double>>>(
            ErrorCode::kNotFound,
            "configured option vanished: " + bundle.choice.option);
      }
      auto predicted =
          predict_cached(instance.id, bundle, *option, bundle.choice,
                         bundle.allocation, load, state.topology());
      if (!predicted.ok()) {
        return Err<std::vector<std::pair<InstanceId, double>>>(
            predicted.error().code, predicted.error().message);
      }
      total += predicted.value();
      any = true;
    }
    if (any) out.emplace_back(instance.id, total);
  }
  return out;
}

Result<double> Optimizer::objective_value(const SystemState& state) const {
  auto predictions = predict_all(state);
  if (!predictions.ok()) {
    return Err<double>(predictions.error().code, predictions.error().message);
  }
  std::vector<double> times;
  std::vector<DeadlineTerm> terms;
  times.reserve(predictions.value().size());
  for (const auto& [id, t] : predictions.value()) {
    times.push_back(t);
    const InstanceState* inst = state.find_instance(id);
    double deadline = 0, weight = 1;
    if (inst != nullptr && instance_deadline(*inst, &deadline, &weight)) {
      terms.push_back({t, deadline, weight});
    }
  }
  return objective_->evaluate_with_deadlines(times, terms);
}

Result<cluster::Allocation> Optimizer::try_install_on(
    cluster::ResourceView& view, BundleState& bundle,
    const OptionChoice& choice) const {
  const rsl::OptionSpec* option = bundle.spec.find_option(choice.option);
  if (option == nullptr) {
    return Err<cluster::Allocation>(ErrorCode::kNotFound,
                                    "no such option: " + choice.option);
  }
  auto bound = bind_option(*option, choice, names_);
  if (!bound.ok()) {
    return Err<cluster::Allocation>(bound.error().code, bound.error().message);
  }
  cluster::Matcher matcher(config_.match_policy);
  return matcher.match(bound.value().node_requirements,
                       bound.value().link_requirements, view);
}

Result<cluster::Allocation> Optimizer::try_install(
    SystemState& state, BundleState& bundle,
    const OptionChoice& choice) const {
  return try_install_on(*state.pool, bundle, choice);
}

Result<double> Optimizer::plan_objective(
    const SystemState& state, const InstanceState& instance,
    const BundleState& bundle, const OptionChoice& candidate,
    const cluster::Allocation& allocation, const PlanOverlay& plan,
    const OptionChoice* previous) const {
  // The candidate is installed on the plan overlay at this point
  // (between mark() and rewind() in optimize_bundle), so the overlay's
  // effective_load at every node equals load_with(allocation) — read it
  // in place instead of copying a base map per candidate.
  LoadView load(static_cast<const cluster::ResourceView*>(&plan.pool()));
  std::vector<double> times;
  std::vector<DeadlineTerm> terms;
  times.reserve(state.instances.size());
  for (const auto& other : state.instances) {
    double total = 0.0;
    bool any = false;
    double inst_deadline = 0, inst_weight = 1;
    bool has_deadline = false;
    for (const auto& ob : other.bundles) {
      const bool is_target = &ob == &bundle;
      if (!is_target && !ob.configured) continue;
      const OptionChoice& choice = is_target ? candidate : ob.choice;
      const cluster::Allocation& alloc = is_target ? allocation : ob.allocation;
      const rsl::OptionSpec* option = ob.spec.find_option(choice.option);
      if (option == nullptr) {
        return Err<double>(ErrorCode::kNotFound,
                           "configured option vanished: " + choice.option);
      }
      auto predicted = predict_cached(other.id, ob, *option, choice, alloc,
                                      load, state.topology());
      if (!predicted.ok()) {
        return Err<double>(predicted.error().code, predicted.error().message);
      }
      total += predicted.value();
      any = true;
      // The candidate's option stands in for the target bundle, so its
      // deadline (not the incumbent's) is the one being priced.
      const double d = option->effective_deadline_s();
      if (d > 0 && (!has_deadline || d < inst_deadline)) {
        inst_deadline = d;
        inst_weight = option->tardiness_weight;
        has_deadline = true;
      }
    }
    if (!any) continue;
    // Frictional cost of switching away from the current option (paper
    // §3, requirement five).
    if (previous != nullptr && other.id == instance.id &&
        !(candidate == *previous)) {
      const rsl::OptionSpec* opt = bundle.spec.find_option(candidate.option);
      if (opt != nullptr) total += opt->friction_s;
    }
    times.push_back(total);
    if (has_deadline) terms.push_back({total, inst_deadline, inst_weight});
  }
  return objective_->evaluate_with_deadlines(times, terms);
}

std::vector<OptionChoice> expand_option_choices(
    const rsl::BundleSpec& spec, const std::vector<double>& grant_levels) {
  std::vector<double> levels = grant_levels;
  if (levels.empty()) levels = {1.0};
  std::vector<OptionChoice> candidates;
  for (const OptionChoice& base : enumerate_choices(spec)) {
    bool open_ended = false;
    if (const rsl::OptionSpec* option = spec.find_option(base.option)) {
      for (const auto& node : option->nodes) {
        if (node.memory.op == rsl::Constraint::Op::kGe) open_ended = true;
      }
    }
    for (double level : levels) {
      OptionChoice candidate = base;
      candidate.memory_grant = level;
      candidates.push_back(std::move(candidate));
      if (!open_ended) break;  // further levels would be identical
    }
  }
  return candidates;
}

Result<Decision> Optimizer::optimize_bundle(SystemState& state,
                                            InstanceState& instance,
                                            BundleState& bundle, double now,
                                            bool require_feasible) {
  // Granularity gate (paper §3, requirement four): hold the current
  // option until its window elapses. The gate leaves evaluated_version
  // alone — a gated bundle stays dirty, so the pass after the window
  // expires re-evaluates it.
  if (bundle.configured) {
    const rsl::OptionSpec* current =
        bundle.spec.find_option(bundle.choice.option);
    if (current != nullptr && current->granularity_s > 0 &&
        now - bundle.last_switch_time < current->granularity_s) {
      return Decision{instance.id, bundle.spec.bundle, bundle.choice, false};
    }
  }

  const bool had_config = bundle.configured;
  const OptionChoice previous_choice = bundle.choice;
  const cluster::Allocation previous_allocation = bundle.allocation;

  // Candidates are matched and predicted against a speculative plan:
  // the live pool is never mutated during the search, so an aborted or
  // losing evaluation has nothing to roll back.
  PlanOverlay plan(state, &bundle);

  struct Best {
    OptionChoice choice;
    double objective;
  };
  std::optional<Best> best;

  // Expand option choices with the configured memory grant levels (only
  // meaningful for options that declare >= memory constraints; a
  // too-generous grant simply fails to match and is skipped). Shared
  // with the solver so both search the same candidate space.
  std::vector<OptionChoice> candidates =
      expand_option_choices(bundle.spec, config_.memory_grant_levels);

  for (const OptionChoice& candidate : candidates) {
    auto mark = plan.pool().mark();
    auto allocation = try_install_on(plan.pool(), bundle, candidate);
    if (!allocation.ok()) continue;  // infeasible; matcher left no residue
    ++candidates_evaluated_;
    auto evaluated =
        plan_objective(state, instance, bundle, candidate, allocation.value(),
                       plan, had_config ? &previous_choice : nullptr);
    plan.pool().rewind(mark);
    double objective = evaluated.ok()
                           ? evaluated.value()
                           : std::numeric_limits<double>::infinity();
    if (std::isfinite(objective) && (!best || objective < best->objective)) {
      best = Best{candidate, objective};
    }
  }

  if (!best) {
    if (had_config) {
      // Nothing feasible (or every candidate predicted non-finite):
      // keep the previous configuration. Re-match it on the live pool —
      // the matcher is deterministic, so this reproduces the historical
      // restore path bit-for-bit, including the silent migration it can
      // produce when a candidate trial succeeded but predictions
      // errored.
      auto released =
          cluster::Matcher::release(bundle.allocation, *state.pool);
      HARMONY_ASSERT_MSG(released.ok(), "releasing current allocation failed");
      auto restored = try_install(state, bundle, previous_choice);
      HARMONY_ASSERT_MSG(restored.ok(), "restoring previous allocation failed");
      bundle.choice = previous_choice;
      bundle.allocation = std::move(restored).value();
      bundle.configured = true;
      if (!bundle.allocation.same_placement(previous_allocation)) {
        state.touch_allocation(previous_allocation);
        state.touch_allocation(bundle.allocation);
      }
      bundle.evaluated_version = state.version;
      return Decision{instance.id, bundle.spec.bundle, bundle.choice, false};
    }
    if (require_feasible) {
      return Err<Decision>(ErrorCode::kNoMatch,
                           str_format("no feasible option for %s.%s",
                                      instance.path().c_str(),
                                      bundle.spec.bundle.c_str()));
    }
    bundle.evaluated_version = state.version;
    return Decision{instance.id, bundle.spec.bundle, OptionChoice{}, false};
  }

  // Commit the winner to live state: release the previous allocation
  // and re-match the winning choice on the real pool. The matcher is
  // deterministic and the pool-minus-this-bundle it sees is exactly the
  // overlay state the winner was evaluated under, so the committed
  // allocation equals the planned one.
  if (had_config) {
    auto released = cluster::Matcher::release(bundle.allocation, *state.pool);
    HARMONY_ASSERT_MSG(released.ok(), "releasing current allocation failed");
    bundle.configured = false;
    bundle.allocation = {};
  }
  auto allocation = try_install(state, bundle, best->choice);
  HARMONY_ASSERT_MSG(allocation.ok(), "re-matching the winner failed");
  bundle.choice = best->choice;
  bundle.allocation = std::move(allocation).value();
  bundle.configured = true;
  // A migration (same option, different nodes) is a reconfiguration
  // too: the application must learn its new node assignment.
  bool changed = !had_config || !(best->choice == previous_choice) ||
                 !bundle.allocation.same_placement(previous_allocation);
  if (changed) {
    bundle.last_switch_time = now;
    state.touch_allocation(previous_allocation);
    state.touch_allocation(bundle.allocation);
  }
  bundle.evaluated_version = state.version;
  HLOG_DEBUG("optimizer") << instance.path() << "." << bundle.spec.bundle
                          << " -> " << bundle.choice.to_string()
                          << (changed ? " (changed)" : " (kept)");
  return Decision{instance.id, bundle.spec.bundle, bundle.choice, changed};
}

namespace {

// Whether any candidate option of the bundle feeds per-node contention
// into its performance model.
bool any_candidate_reads_load(const rsl::BundleSpec& spec) {
  for (const auto& option : spec.options) {
    if (model_reads(option).uses_load) return true;
  }
  return false;
}

// Whether the bundle's *configured* option's model reads contention
// (the model plan_objective uses for non-target bundles).
bool configured_model_reads_load(const BundleState& bundle) {
  const rsl::OptionSpec* option = bundle.spec.find_option(bundle.choice.option);
  return option == nullptr || model_reads(*option).uses_load;
}

}  // namespace

bool Optimizer::can_skip(const SystemState& state,
                         const BundleState& bundle) const {
  if (bundle.evaluated_version == 0) return false;
  const uint64_t threshold = bundle.evaluated_version;
  if (!objective_->separable()) {
    // Non-separable objectives (makespan) couple every bundle's choice
    // to every instance's absolute time: any change anywhere can flip
    // the argmin. Skip only when the whole system is untouched.
    return state.version <= threshold;
  }
  // Separable objectives: untouched instances contribute a constant to
  // every candidate's score, so the argmin is unchanged unless
  //   (a) a node this bundle could be placed on changed (feasibility or
  //       contention on its own candidates), or
  //   (b) an instance sharing those nodes changed elsewhere — its time
  //       varies across this bundle's candidates, so a shift in its
  //       other inputs is not constant across them.
  // External-load reports are tracked separately (node_load_version):
  // they move no allocations and shift only contention-dependent
  // predictions, so they dirty a bundle only through models whose read
  // sets actually include the per-node load.
  const auto& admissible = bundle.admissible(state.topology());
  if (state.max_node_version(admissible) > threshold) return false;
  if (any_candidate_reads_load(bundle.spec) &&
      state.max_node_load_version(admissible) > threshold) {
    return false;
  }
  std::unordered_set<cluster::NodeId> admissible_set(admissible.begin(),
                                                     admissible.end());
  for (const auto& other : state.instances) {
    bool colocated = false;
    for (const auto& ob : other.bundles) {
      if (!ob.configured) continue;
      for (const auto& entry : ob.allocation.entries) {
        if (admissible_set.count(entry.node)) {
          colocated = true;
          break;
        }
      }
      if (colocated) break;
    }
    if (!colocated) continue;
    for (const auto& ob : other.bundles) {
      if (!ob.configured) continue;
      const bool ob_reads_load = configured_model_reads_load(ob);
      for (const auto& entry : ob.allocation.entries) {
        const size_t slot = state.pool ? state.pool->slot_of(entry.node)
                                       : cluster::NodeScope::kNoSlot;
        if (slot < state.node_version.size() &&
            state.node_version[slot] > threshold) {
          return false;
        }
        if (ob_reads_load && slot < state.node_load_version.size() &&
            state.node_load_version[slot] > threshold) {
          return false;
        }
      }
    }
  }
  return true;
}

Result<std::vector<Decision>> Optimizer::reevaluate_pass(SystemState& state,
                                                         double now,
                                                         InstanceId exclude) {
  const bool allow_skip = config_.incremental && !force_full_pass_;
  std::vector<Decision> decisions;
  for (auto& instance : state.instances) {
    if (instance.id == exclude) continue;
    for (auto& bundle : instance.bundles) {
      if (allow_skip && can_skip(state, bundle)) {
        ++bundles_skipped_;
        // Report the held decision so callers see the same decision
        // list a full pass would produce.
        decisions.push_back(Decision{
            instance.id, bundle.spec.bundle,
            bundle.configured ? bundle.choice : OptionChoice{}, false});
        continue;
      }
      ++bundles_evaluated_;
      auto decision = optimize_bundle(state, instance, bundle, now,
                                      /*require_feasible=*/false);
      if (!decision.ok()) {
        return Err<std::vector<Decision>>(decision.error().code,
                                          decision.error().message);
      }
      decisions.push_back(std::move(decision).value());
    }
  }
  force_full_pass_ = false;
  return decisions;
}

std::vector<std::vector<Solver::Previous>> Optimizer::snapshot_previous(
    const SystemState& state) const {
  std::vector<std::vector<Solver::Previous>> previous;
  previous.reserve(state.instances.size());
  for (const auto& instance : state.instances) {
    std::vector<Solver::Previous> bundles;
    bundles.reserve(instance.bundles.size());
    for (const auto& bundle : instance.bundles) {
      bundles.push_back(Solver::Previous{bundle.configured, bundle.choice});
    }
    previous.push_back(std::move(bundles));
  }
  return previous;
}

void Optimizer::run_solver(
    SystemState& state, double now,
    std::chrono::steady_clock::time_point deadline,
    const std::vector<std::vector<Solver::Previous>>& previous,
    std::vector<Decision>& decisions) {
  auto status = solver_->improve(state, now, deadline, previous, decisions);
  if (!status.ok()) {
    // Anytime contract: any solver failure leaves the greedy plan
    // standing; never propagate.
    HLOG_WARN("optimizer") << "solver pass failed (greedy plan stands): "
                           << status.error().message;
  }
}

Result<std::vector<Decision>> Optimizer::on_arrival(SystemState& state,
                                                    InstanceId id,
                                                    double now) {
  if (config_.mode == OptimizerConfig::Mode::kExhaustive) {
    return exhaustive(state, now);
  }
  InstanceState* arrived = state.find_instance(id);
  if (arrived == nullptr) {
    return Err<std::vector<Decision>>(ErrorCode::kNotFound,
                                      "no such instance");
  }
  // The solver budget covers the whole decision (greedy pass included),
  // so decision latency stays bounded by budget_ms. Friction baselines
  // are snapshotted before greedy mutates anything.
  const bool solve = solver_ != nullptr && config_.reevaluate_on_arrival;
  std::chrono::steady_clock::time_point deadline{};
  std::vector<std::vector<Solver::Previous>> previous;
  if (solve) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(static_cast<int64_t>(
                   config_.solver.budget_ms * 1000.0));
    previous = snapshot_previous(state);
  }
  std::vector<Decision> decisions;
  // 1. Configure the new application's bundles, definition order.
  for (auto& bundle : arrived->bundles) {
    ++bundles_evaluated_;
    auto decision =
        config_.initial_policy == OptimizerConfig::InitialPolicy::kFirstFeasible
            ? configure_first_feasible(state, *arrived, bundle, now)
            : optimize_bundle(state, *arrived, bundle, now,
                              /*require_feasible=*/true);
    if (!decision.ok()) {
      return Err<std::vector<Decision>>(decision.error().code,
                                        decision.error().message);
    }
    decisions.push_back(std::move(decision).value());
  }
  if (!config_.reevaluate_on_arrival) return decisions;
  // 2. Re-evaluate existing applications.
  auto rest = reevaluate_pass(state, now, id);
  if (!rest.ok()) {
    return Err<std::vector<Decision>>(rest.error().code, rest.error().message);
  }
  decisions.insert(decisions.end(), rest.value().begin(), rest.value().end());
  // 3. Anytime improvement over the greedy plan (when enabled).
  if (solve) run_solver(state, now, deadline, previous, decisions);
  return decisions;
}

Result<std::vector<Decision>> Optimizer::reevaluate(SystemState& state,
                                                    double now) {
  if (config_.mode == OptimizerConfig::Mode::kExhaustive) {
    return exhaustive(state, now);
  }
  const bool solve = solver_ != nullptr;
  std::chrono::steady_clock::time_point deadline{};
  std::vector<std::vector<Solver::Previous>> previous;
  if (solve) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(static_cast<int64_t>(
                   config_.solver.budget_ms * 1000.0));
    previous = snapshot_previous(state);
  }
  auto decisions = reevaluate_pass(state, now, /*exclude=*/0);
  if (!decisions.ok()) return decisions;
  if (solve) run_solver(state, now, deadline, previous, decisions.value());
  return decisions;
}

Result<Decision> Optimizer::apply_choice(SystemState& state, InstanceId id,
                                         const std::string& bundle_name,
                                         const OptionChoice& choice,
                                         double now) {
  InstanceState* instance = state.find_instance(id);
  if (instance == nullptr) {
    return Err<Decision>(ErrorCode::kNotFound, "no such instance");
  }
  BundleState* bundle = instance->find_bundle(bundle_name);
  if (bundle == nullptr) {
    return Err<Decision>(ErrorCode::kNotFound,
                         "no such bundle: " + bundle_name);
  }
  if (bundle->spec.find_option(choice.option) == nullptr) {
    return Err<Decision>(ErrorCode::kNotFound,
                         "no such option: " + choice.option);
  }
  const bool had_config = bundle->configured;
  const OptionChoice previous = bundle->choice;
  const cluster::Allocation previous_allocation = bundle->allocation;
  if (had_config) {
    if (choice == previous) {
      return Decision{id, bundle_name, previous, false};
    }
    auto released = cluster::Matcher::release(bundle->allocation, *state.pool);
    HARMONY_ASSERT(released.ok());
    bundle->configured = false;
    bundle->allocation = {};
  }
  auto allocation = try_install(state, *bundle, choice);
  if (!allocation.ok()) {
    if (had_config) {
      auto restored = try_install(state, *bundle, previous);
      HARMONY_ASSERT_MSG(restored.ok(), "restoring previous allocation failed");
      bundle->choice = previous;
      bundle->allocation = std::move(restored).value();
      bundle->configured = true;
      if (!bundle->allocation.same_placement(previous_allocation)) {
        state.touch_allocation(previous_allocation);
        state.touch_allocation(bundle->allocation);
      }
    }
    return Err<Decision>(allocation.error().code, allocation.error().message);
  }
  bundle->choice = choice;
  bundle->allocation = std::move(allocation).value();
  bundle->configured = true;
  bundle->last_switch_time = now;
  state.touch_allocation(previous_allocation);
  state.touch_allocation(bundle->allocation);
  // A steered choice is not an argmin; force re-evaluation next pass.
  bundle->evaluated_version = 0;
  return Decision{id, bundle_name, choice, true};
}

Result<Decision> Optimizer::configure_first_feasible(SystemState& state,
                                                     InstanceState& instance,
                                                     BundleState& bundle,
                                                     double now) {
  HARMONY_ASSERT(!bundle.configured);
  for (const OptionChoice& candidate : enumerate_choices(bundle.spec)) {
    auto allocation = try_install(state, bundle, candidate);
    if (!allocation.ok()) continue;
    ++candidates_evaluated_;
    bundle.choice = candidate;
    bundle.allocation = std::move(allocation).value();
    bundle.configured = true;
    bundle.last_switch_time = now;
    state.touch_allocation(bundle.allocation);
    // First-feasible is not an argmin; stay dirty so the next
    // re-evaluation pass optimizes it properly.
    bundle.evaluated_version = 0;
    return Decision{instance.id, bundle.spec.bundle, bundle.choice, true};
  }
  return Err<Decision>(ErrorCode::kNoMatch,
                       str_format("no feasible option for %s.%s",
                                  instance.path().c_str(),
                                  bundle.spec.bundle.c_str()));
}

// Joint search over the full cartesian space of (instance, bundle)
// choices. Exponential; exists as the quality baseline for ablation A1.
// Memory grant levels are not expanded here — the joint space is large
// enough already, and the greedy pass is the production path.
Result<std::vector<Decision>> Optimizer::exhaustive(SystemState& state,
                                                    double now) {
  struct Slot {
    InstanceState* instance;
    BundleState* bundle;
    std::vector<OptionChoice> choices;
    OptionChoice previous;
    bool had_config;
  };
  std::vector<Slot> slots;
  size_t combinations = 1;
  for (auto& instance : state.instances) {
    for (auto& bundle : instance.bundles) {
      Slot slot;
      slot.instance = &instance;
      slot.bundle = &bundle;
      slot.choices = enumerate_choices(bundle.spec);
      slot.previous = bundle.choice;
      slot.had_config = bundle.configured;
      if (slot.choices.empty()) continue;
      // Saturating multiply: combinations stays at limit + 1 once the
      // space is known to exceed the cap, so choices^slots cannot
      // overflow size_t.
      const size_t n = slot.choices.size();
      combinations = combinations <= config_.exhaustive_limit / n
                         ? combinations * n
                         : config_.exhaustive_limit + 1;
      if (combinations > config_.exhaustive_limit &&
          !config_.exhaustive_truncate) {
        return Err<std::vector<Decision>>(
            ErrorCode::kCapacity,
            str_format("exhaustive search space exceeds limit (%zu)",
                       config_.exhaustive_limit));
      }
      slots.push_back(std::move(slot));
    }
  }
  // With exhaustive_truncate set, a capped space is searched as a
  // deterministic prefix of exhaustive_limit combinations and the
  // truncation is counted — the row is no longer truly exhaustive.
  const bool capped = combinations > config_.exhaustive_limit;

  // Release everything; try each combination from scratch.
  for (auto& slot : slots) {
    if (slot.bundle->configured) {
      auto released =
          cluster::Matcher::release(slot.bundle->allocation, *state.pool);
      HARMONY_ASSERT(released.ok());
      slot.bundle->configured = false;
      slot.bundle->allocation = {};
    }
  }

  std::vector<size_t> index(slots.size(), 0);
  std::optional<std::vector<size_t>> best_index;
  double best_objective = std::numeric_limits<double>::infinity();

  auto try_combination = [&]() -> bool {
    size_t installed = 0;
    bool feasible = true;
    for (size_t i = 0; i < slots.size(); ++i) {
      auto allocation =
          try_install(state, *slots[i].bundle, slots[i].choices[index[i]]);
      if (!allocation.ok()) {
        feasible = false;
        break;
      }
      slots[i].bundle->choice = slots[i].choices[index[i]];
      slots[i].bundle->allocation = std::move(allocation).value();
      slots[i].bundle->configured = true;
      ++installed;
    }
    double objective = std::numeric_limits<double>::infinity();
    if (feasible) {
      ++candidates_evaluated_;
      auto predictions = predict_all(state);
      if (predictions.ok()) {
        std::vector<double> times;
        std::vector<DeadlineTerm> terms;
        for (auto& [id, t] : predictions.value()) {
          times.push_back(t);
          const InstanceState* inst = state.find_instance(id);
          double deadline = 0, weight = 1;
          if (inst != nullptr &&
              instance_deadline(*inst, &deadline, &weight)) {
            terms.push_back({t, deadline, weight});
          }
        }
        objective = objective_->evaluate_with_deadlines(times, terms);
      }
    }
    for (size_t i = installed; i-- > 0;) {
      auto released =
          cluster::Matcher::release(slots[i].bundle->allocation, *state.pool);
      HARMONY_ASSERT(released.ok());
      slots[i].bundle->configured = false;
      slots[i].bundle->allocation = {};
    }
    if (std::isfinite(objective) && objective < best_objective) {
      best_objective = objective;
      best_index = index;
    }
    // Advance the odometer.
    for (size_t i = 0; i < slots.size(); ++i) {
      if (++index[i] < slots[i].choices.size()) return true;
      index[i] = 0;
    }
    return false;
  };
  if (!slots.empty()) {
    size_t evaluated = 0;
    while (try_combination()) {
      if (capped && ++evaluated >= config_.exhaustive_limit) break;
    }
    if (capped) {
      ++exhaustive_truncations_;
      metric::telemetry_counter("optimizer.exhaustive_truncated_total")
          .increment();
    }
  }

  if (!best_index) {
    return Err<std::vector<Decision>>(ErrorCode::kNoMatch,
                                      "no feasible joint configuration");
  }
  std::vector<Decision> decisions;
  for (size_t i = 0; i < slots.size(); ++i) {
    const OptionChoice& winner = slots[i].choices[(*best_index)[i]];
    auto allocation = try_install(state, *slots[i].bundle, winner);
    HARMONY_ASSERT_MSG(allocation.ok(), "re-matching joint winner failed");
    slots[i].bundle->choice = winner;
    slots[i].bundle->allocation = std::move(allocation).value();
    slots[i].bundle->configured = true;
    bool changed = !slots[i].had_config || !(winner == slots[i].previous);
    if (changed) slots[i].bundle->last_switch_time = now;
    // A joint search invalidates the greedy bookkeeping wholesale: the
    // configurations were not produced by per-bundle argmins.
    slots[i].bundle->evaluated_version = 0;
    decisions.push_back(Decision{slots[i].instance->id,
                                 slots[i].bundle->spec.bundle, winner,
                                 changed});
  }
  state.touch_all();
  force_full_pass_ = true;
  return decisions;
}

}  // namespace harmony::core
