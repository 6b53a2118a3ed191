#include "core/solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/binding.h"
#include "core/optimizer.h"
#include "core/perf_model.h"
#include "metric/telemetry.h"

namespace harmony::core {

namespace {

// Relative acceptance epsilon: a move must beat the incumbent by more
// than accumulated float noise, or local search could cycle forever on
// ties.
double accept_margin(double objective) {
  return std::max(1e-12, std::fabs(objective) * 1e-12);
}

// Vector bin-packing policies tried for each move, in order, after the
// optimizer's own match policy.
constexpr cluster::MatchPolicy kPlacementPolicies[] = {
    cluster::MatchPolicy::kVectorBestFit,
    cluster::MatchPolicy::kVectorWorstFit,
};

// Candidate (option, grant) choices considered per slot in a swap: the
// current choice plus the first kSwapChoices - 1 others.
constexpr size_t kSwapChoices = 3;

}  // namespace

// Working set for one improvement pass. Holds the candidate plan as a
// delta over live state: a PoolOverlay (capacity *and* contention view
// — trial allocations are installed on it before scoring, so its
// effective_load is the trial's planned contention) and per-entry
// (choice, allocation, prediction) mirrors. Live SystemState is only
// written by commit_live(), and only when at least one strictly
// improving move was accepted.
class SolverPass {
 public:
  SolverPass(Optimizer& opt, const SolverConfig& config, SolverStats& stats,
             SystemState& state, double now, uint64_t seed,
             std::chrono::steady_clock::time_point deadline)
      : opt_(opt),
        config_(config),
        stats_(stats),
        state_(state),
        now_(now),
        overlay_(state.pool.get()),
        rng_(seed) {
    // Reserve a slice of the budget for commit + bookkeeping so the
    // whole decision (solver included) lands within budget_ms.
    auto reserve = std::chrono::microseconds(static_cast<int64_t>(
        std::max(config_.budget_ms * 100.0, 1000.0)));
    deadline_ = deadline - reserve;
  }

  Status run(const std::vector<std::vector<Solver::Previous>>& previous,
             std::vector<Decision>& decisions, double* improvement,
             double* improvement_bp, bool* budget_exhausted, uint64_t* rounds);

 private:
  // One bundle of the plan. Starts as a mirror of the live (greedy)
  // configuration and drifts as moves are accepted.
  struct Entry {
    InstanceState* instance = nullptr;
    BundleState* bundle = nullptr;
    size_t inst_idx = 0;
    bool movable = false;    // eligible for moves (not granularity-held)
    bool uses_load = false;  // current option's model reads contention
    bool prev_configured = false;
    OptionChoice prev_choice;  // pre-pass config, prices friction
    OptionChoice choice;
    cluster::Allocation allocation;
    double pred = 0.0;      // predicted time under the plan
    double friction = 0.0;  // friction vs prev_choice under the plan
    std::vector<OptionChoice> candidates;
  };

  // A proposed reconfiguration of one entry within a trial.
  struct Change {
    size_t entry = 0;
    const OptionChoice* choice = nullptr;
    const cluster::Allocation* alloc = nullptr;
  };

  Status init(const std::vector<std::vector<Solver::Previous>>& previous);
  bool deadline_passed() const {
    return std::chrono::steady_clock::now() >= deadline_;
  }
  double friction_for(const Entry& entry, const OptionChoice& choice) const;
  Result<double> predict_entry(const Entry& entry, const OptionChoice& choice,
                               const cluster::Allocation& alloc) const;
  Result<cluster::Allocation> match_entry(const Entry& entry,
                                          const OptionChoice& choice,
                                          cluster::MatchPolicy policy);
  // Scores the plan with `changes` applied; nullopt when any prediction
  // fails (the trial is infeasible). With commit, the plan absorbs the
  // changes.
  std::optional<double> score(const std::vector<Change>& changes, bool commit);
  // Objective of times_ with the deadline terms implied by the plan's
  // (or the trial's) option choices. When no spec in the pass declares
  // a deadline this is exactly objective->evaluate(times_) — the
  // deadline-free decision path stays bit-identical.
  double evaluate_times(const std::vector<Change>& changes) const;
  // Overlay bookkeeping for an accepted move. Callers must release
  // every outgoing allocation before reserving any incoming one — a
  // pairwise swap can otherwise transiently exceed a full node.
  void release_on_overlay(const cluster::Allocation& alloc);
  void reserve_on_overlay(const cluster::Allocation& alloc);
  bool try_reassign(size_t slot);
  bool try_swap(size_t slot_a, size_t slot_b);
  // Picks a swap partner for `slot`, biased toward entries sharing its
  // allocation's nodes (where the packing interaction lives).
  std::optional<size_t> pick_partner(size_t slot);
  void rebuild_node_entries();
  void commit_live(std::vector<Decision>& decisions);

  Optimizer& opt_;
  const SolverConfig& config_;
  SolverStats& stats_;
  SystemState& state_;
  double now_;
  std::chrono::steady_clock::time_point deadline_;
  cluster::PoolOverlay overlay_;
  Rng rng_;

  std::vector<Entry> entries_;
  std::vector<size_t> slots_;  // indices of movable entries
  std::vector<cluster::MatchPolicy> policies_;
  std::unordered_map<cluster::NodeId, std::vector<size_t>> node_entries_;
  // One time per participating instance, state order — the exact vector
  // shape Optimizer::plan_objective feeds the objective.
  std::vector<double> times_;
  std::vector<size_t> time_index_;  // inst_idx -> slot in times_, or npos
  // Any bundle spec in the pass declares a deadline/period; false keeps
  // every evaluation on the plain (bit-identical) objective.
  bool has_deadlines_ = false;
  double current_objective_ = 0.0;
  size_t accepted_moves_ = 0;

  // Trial scratch, reused across candidates.
  struct TrialPred {
    size_t entry;
    double pred;
    double friction;
  };
  std::vector<TrialPred> trial_preds_;
  // Nonzero contention deltas of the trial (marking only; the overlay
  // itself carries the trial's load).
  std::vector<std::pair<cluster::NodeId, int>> applied_load_;
  std::vector<std::pair<size_t, double>> saved_times_;
  std::vector<size_t> affected_;
  std::vector<uint32_t> affected_stamp_;
  uint32_t stamp_ = 0;

  static constexpr size_t kNpos = static_cast<size_t>(-1);
};

double SolverPass::friction_for(const Entry& entry,
                                const OptionChoice& choice) const {
  if (!entry.prev_configured) return 0.0;
  if (choice == entry.prev_choice) return 0.0;
  const rsl::OptionSpec* option =
      entry.bundle->spec.find_option(choice.option);
  return option != nullptr ? option->friction_s : 0.0;
}

Result<double> SolverPass::predict_entry(
    const Entry& entry, const OptionChoice& choice,
    const cluster::Allocation& alloc) const {
  const rsl::OptionSpec* option =
      entry.bundle->spec.find_option(choice.option);
  if (option == nullptr) {
    return Err<double>(ErrorCode::kNotFound,
                       "no such option: " + choice.option);
  }
  // The overlay holds the trial plan at every call site (candidates are
  // installed on it before scoring; accepted moves are absorbed before
  // the commit re-score), so its effective_load *is* the plan's
  // contention — no materialized load map.
  return opt_.predict_cached(
      entry.instance->id, *entry.bundle, *option, choice, alloc,
      LoadView(static_cast<const cluster::ResourceView*>(&overlay_)),
      state_.topology());
}

Result<cluster::Allocation> SolverPass::match_entry(
    const Entry& entry, const OptionChoice& choice,
    cluster::MatchPolicy policy) {
  const rsl::OptionSpec* option =
      entry.bundle->spec.find_option(choice.option);
  if (option == nullptr) {
    return Err<cluster::Allocation>(ErrorCode::kNotFound,
                                    "no such option: " + choice.option);
  }
  auto bound = bind_option(*option, choice, opt_.names_);
  if (!bound.ok()) {
    return Err<cluster::Allocation>(bound.error().code, bound.error().message);
  }
  cluster::Matcher matcher(policy);
  return matcher.match(bound.value().node_requirements,
                       bound.value().link_requirements, overlay_);
}

Status SolverPass::init(
    const std::vector<std::vector<Solver::Previous>>& previous) {
  // Placement policies: the optimizer's own first, then the vector
  // heuristics, deduplicated preserving order.
  policies_.push_back(opt_.config_.match_policy);
  for (cluster::MatchPolicy policy : kPlacementPolicies) {
    if (std::find(policies_.begin(), policies_.end(), policy) ==
        policies_.end()) {
      policies_.push_back(policy);
    }
  }

  for (size_t i = 0; i < state_.instances.size(); ++i) {
    InstanceState& instance = state_.instances[i];
    for (size_t b = 0; b < instance.bundles.size(); ++b) {
      BundleState& bundle = instance.bundles[b];
      if (!bundle.configured) continue;  // greedy found nothing feasible
      Entry entry;
      entry.instance = &instance;
      entry.bundle = &bundle;
      entry.inst_idx = i;
      entry.choice = bundle.choice;
      entry.allocation = bundle.allocation;
      if (i < previous.size() && b < previous[i].size()) {
        entry.prev_configured = previous[i][b].configured;
        entry.prev_choice = previous[i][b].choice;
      }
      const rsl::OptionSpec* option =
          bundle.spec.find_option(bundle.choice.option);
      if (option == nullptr) {
        return Status(ErrorCode::kNotFound,
                      "configured option vanished: " + bundle.choice.option);
      }
      entry.uses_load = model_reads(*option).uses_load;
      for (const auto& opt_spec : bundle.spec.options) {
        if (opt_spec.effective_deadline_s() > 0) has_deadlines_ = true;
      }
      // Granularity: a bundle switched in an *earlier* epoch whose
      // window has not elapsed is held exactly as the greedy gate holds
      // it. A bundle greedy switched this very epoch stays movable —
      // the application only ever sees the epoch's final decision, so
      // refining it is not a second reconfiguration.
      entry.movable = true;
      if (option->granularity_s > 0 && bundle.last_switch_time != now_ &&
          now_ - bundle.last_switch_time < option->granularity_s) {
        entry.movable = false;
      }
      if (entry.movable) {
        entry.candidates = expand_option_choices(
            bundle.spec, opt_.config_.memory_grant_levels);
        if (entry.candidates.empty()) entry.movable = false;
      }
      entries_.push_back(std::move(entry));
    }
  }
  for (size_t e = 0; e < entries_.size(); ++e) {
    if (entries_[e].movable) slots_.push_back(e);
  }

  // Per-entry predictions for the greedy plan (the clean overlay reads
  // through to the live pool, whose effective_load is the plan's
  // contention).
  time_index_.assign(state_.instances.size(), kNpos);
  std::vector<double> inst_time(state_.instances.size(), 0.0);
  std::vector<bool> participates(state_.instances.size(), false);
  for (Entry& entry : entries_) {
    auto predicted = predict_entry(entry, entry.choice, entry.allocation);
    if (!predicted.ok()) {
      return Status(predicted.error().code, predicted.error().message);
    }
    entry.pred = predicted.value();
    entry.friction = friction_for(entry, entry.choice);
    inst_time[entry.inst_idx] += entry.pred + entry.friction;
    participates[entry.inst_idx] = true;
  }
  for (size_t i = 0; i < state_.instances.size(); ++i) {
    if (!participates[i]) continue;
    time_index_[i] = times_.size();
    times_.push_back(inst_time[i]);
  }
  current_objective_ = evaluate_times({});
  if (!std::isfinite(current_objective_)) {
    return Status(ErrorCode::kEvalError, "greedy plan objective not finite");
  }
  rebuild_node_entries();
  affected_stamp_.assign(entries_.size(), 0);
  return Status::Ok();
}

double SolverPass::evaluate_times(const std::vector<Change>& changes) const {
  if (!has_deadlines_) return opt_.objective_->evaluate(times_);
  // Tightest effective deadline per instance under the trial's choices
  // (a Change can swap an entry onto — or off of — a deadline-carrying
  // option). O(entries), only paid in deadline scenarios.
  std::vector<double> inst_deadline(state_.instances.size(), 0.0);
  std::vector<double> inst_weight(state_.instances.size(), 1.0);
  for (size_t e = 0; e < entries_.size(); ++e) {
    const Entry& entry = entries_[e];
    const OptionChoice* choice = &entry.choice;
    for (const Change& change : changes) {
      if (change.entry == e) {
        choice = change.choice;
        break;
      }
    }
    const rsl::OptionSpec* option =
        entry.bundle->spec.find_option(choice->option);
    if (option == nullptr) continue;
    const double d = option->effective_deadline_s();
    if (d <= 0) continue;
    if (inst_deadline[entry.inst_idx] == 0 ||
        d < inst_deadline[entry.inst_idx]) {
      inst_deadline[entry.inst_idx] = d;
      inst_weight[entry.inst_idx] = option->tardiness_weight;
    }
  }
  std::vector<DeadlineTerm> terms;
  for (size_t i = 0; i < inst_deadline.size(); ++i) {
    if (inst_deadline[i] <= 0 || time_index_[i] == kNpos) continue;
    terms.push_back({times_[time_index_[i]], inst_deadline[i], inst_weight[i]});
  }
  return opt_.objective_->evaluate_with_deadlines(times_, terms);
}

void SolverPass::rebuild_node_entries() {
  node_entries_.clear();
  for (size_t e = 0; e < entries_.size(); ++e) {
    for (const auto& ae : entries_[e].allocation.entries) {
      node_entries_[ae.node].push_back(e);
    }
  }
}

std::optional<double> SolverPass::score(const std::vector<Change>& changes,
                                        bool commit) {
  // 1. Net contention delta of the proposed moves — marking input only;
  // the overlay already carries the trial's actual load.
  std::map<cluster::NodeId, int> delta;
  for (const Change& change : changes) {
    for (const auto& ae : entries_[change.entry].allocation.entries) {
      --delta[ae.node];
    }
    for (const auto& ae : change.alloc->entries) ++delta[ae.node];
  }
  applied_load_.clear();
  for (const auto& [node, d] : delta) {
    if (d != 0) applied_load_.emplace_back(node, d);
  }

  // 2. Entries whose predictions can shift: the moved ones, plus every
  // load-reading entry allocated on a node whose contention changed.
  ++stamp_;
  affected_.clear();
  auto mark = [&](size_t e) {
    if (affected_stamp_[e] == stamp_) return;
    affected_stamp_[e] = stamp_;
    affected_.push_back(e);
  };
  for (const Change& change : changes) mark(change.entry);
  for (const auto& [node, d] : applied_load_) {
    auto it = node_entries_.find(node);
    if (it == node_entries_.end()) continue;
    for (size_t e : it->second) {
      if (entries_[e].uses_load) mark(e);
    }
  }

  // 3. Re-predict the affected entries under the trial contention.
  auto change_for = [&](size_t e) -> const Change* {
    for (const Change& change : changes) {
      if (change.entry == e) return &change;
    }
    return nullptr;
  };
  trial_preds_.clear();
  for (size_t e : affected_) {
    const Entry& entry = entries_[e];
    const Change* change = change_for(e);
    const OptionChoice& choice = change ? *change->choice : entry.choice;
    const cluster::Allocation& alloc =
        change ? *change->alloc : entry.allocation;
    auto predicted = predict_entry(entry, choice, alloc);
    if (!predicted.ok() || !std::isfinite(predicted.value())) {
      return std::nullopt;  // e.g. prediction diverged: infeasible trial
    }
    double friction = change ? friction_for(entry, choice) : entry.friction;
    trial_preds_.push_back(TrialPred{e, predicted.value(), friction});
  }

  // 4. Fold the per-entry deltas into the instance times and evaluate.
  saved_times_.clear();
  for (const TrialPred& tp : trial_preds_) {
    const Entry& entry = entries_[tp.entry];
    size_t ti = time_index_[entry.inst_idx];
    bool seen = false;
    for (auto& [idx, old] : saved_times_) {
      if (idx == ti) seen = true;
    }
    if (!seen) saved_times_.emplace_back(ti, times_[ti]);
    times_[ti] += (tp.pred + tp.friction) - (entry.pred + entry.friction);
  }
  double objective = evaluate_times(changes);

  if (!commit) {
    for (const auto& [ti, old] : saved_times_) times_[ti] = old;
    return objective;
  }

  // 5. Commit: the plan absorbs predictions, choices, allocations.
  for (const TrialPred& tp : trial_preds_) {
    entries_[tp.entry].pred = tp.pred;
    entries_[tp.entry].friction = tp.friction;
  }
  for (const Change& change : changes) {
    Entry& entry = entries_[change.entry];
    entry.choice = *change.choice;
    entry.allocation = *change.alloc;
    const rsl::OptionSpec* option =
        entry.bundle->spec.find_option(entry.choice.option);
    entry.uses_load = option == nullptr || model_reads(*option).uses_load;
  }
  rebuild_node_entries();
  current_objective_ = objective;
  return objective;
}

void SolverPass::release_on_overlay(const cluster::Allocation& alloc) {
  auto released = cluster::Matcher::release(alloc, overlay_);
  HARMONY_ASSERT_MSG(released.ok(), "solver overlay release failed");
}

void SolverPass::reserve_on_overlay(const cluster::Allocation& alloc) {
  for (const auto& ae : alloc.entries) {
    auto reserved =
        overlay_.reserve_memory(ae.node, ae.requirement.memory_mb);
    HARMONY_ASSERT_MSG(reserved.ok(), "solver overlay reserve failed");
    overlay_.add_process(ae.node);
  }
}

bool SolverPass::try_reassign(size_t slot) {
  Entry& entry = entries_[slot];
  const double threshold =
      current_objective_ - accept_margin(current_objective_);

  struct Best {
    OptionChoice choice;
    cluster::Allocation alloc;
    double objective;
  };
  std::optional<Best> best;

  auto outer = overlay_.mark();
  auto released = cluster::Matcher::release(entry.allocation, overlay_);
  HARMONY_ASSERT_MSG(released.ok(), "solver overlay release failed");
  for (const OptionChoice& candidate : entry.candidates) {
    if (deadline_passed()) break;
    for (cluster::MatchPolicy policy : policies_) {
      auto inner = overlay_.mark();
      auto alloc = match_entry(entry, candidate, policy);
      if (alloc.ok()) {
        const bool noop = candidate == entry.choice &&
                          alloc.value().same_placement(entry.allocation);
        if (!noop) {
          ++stats_.candidates;
          auto objective = score({Change{slot, &candidate, &alloc.value()}},
                                 /*commit=*/false);
          if (objective && *objective < threshold &&
              (!best || *objective < best->objective)) {
            best = Best{candidate, std::move(alloc).value(), *objective};
          }
        }
      }
      overlay_.rewind(inner);
    }
  }
  overlay_.rewind(outer);
  if (!best) return false;

  release_on_overlay(entry.allocation);
  reserve_on_overlay(best->alloc);
  auto committed =
      score({Change{slot, &best->choice, &best->alloc}}, /*commit=*/true);
  HARMONY_ASSERT_MSG(committed.has_value(), "re-scoring accepted move failed");
  ++stats_.moves_accepted;
  ++accepted_moves_;
  return true;
}

std::optional<size_t> SolverPass::pick_partner(size_t slot) {
  if (slots_.size() < 2) return std::nullopt;
  const Entry& entry = entries_[slot];
  // Prefer a partner colocated with this entry — swaps only beat two
  // independent reassigns when the pair contends for the same bins.
  std::vector<size_t> shared;
  for (const auto& ae : entry.allocation.entries) {
    auto it = node_entries_.find(ae.node);
    if (it == node_entries_.end()) continue;
    for (size_t e : it->second) {
      if (e != slot && entries_[e].movable &&
          std::find(shared.begin(), shared.end(), e) == shared.end()) {
        shared.push_back(e);
      }
    }
  }
  if (!shared.empty()) return shared[rng_.next_below(shared.size())];
  size_t other = slots_[rng_.next_below(slots_.size())];
  if (other == slot) return std::nullopt;
  return other;
}

bool SolverPass::try_swap(size_t slot_a, size_t slot_b) {
  Entry& a = entries_[slot_a];
  Entry& b = entries_[slot_b];
  const double threshold =
      current_objective_ - accept_margin(current_objective_);

  auto shortlist = [&](const Entry& entry) {
    std::vector<const OptionChoice*> list = {&entry.choice};
    for (const OptionChoice& candidate : entry.candidates) {
      if (list.size() >= kSwapChoices) break;
      if (candidate == entry.choice) continue;
      list.push_back(&candidate);
    }
    return list;
  };
  std::vector<const OptionChoice*> list_a = shortlist(a);
  std::vector<const OptionChoice*> list_b = shortlist(b);

  struct Best {
    OptionChoice choice_a, choice_b;
    cluster::Allocation alloc_a, alloc_b;
    double objective;
  };
  std::optional<Best> best;

  auto outer = overlay_.mark();
  auto released_a = cluster::Matcher::release(a.allocation, overlay_);
  auto released_b = cluster::Matcher::release(b.allocation, overlay_);
  HARMONY_ASSERT_MSG(released_a.ok() && released_b.ok(),
                     "solver overlay release failed");
  for (const OptionChoice* ca : list_a) {
    if (deadline_passed()) break;
    for (const OptionChoice* cb : list_b) {
      for (cluster::MatchPolicy policy : policies_) {
        auto inner = overlay_.mark();
        auto alloc_a = match_entry(a, *ca, policy);
        if (!alloc_a.ok()) {
          overlay_.rewind(inner);
          continue;
        }
        auto alloc_b = match_entry(b, *cb, policy);
        if (!alloc_b.ok()) {
          overlay_.rewind(inner);
          continue;
        }
        const bool noop = *ca == a.choice && *cb == b.choice &&
                          alloc_a.value().same_placement(a.allocation) &&
                          alloc_b.value().same_placement(b.allocation);
        if (!noop) {
          ++stats_.candidates;
          auto objective =
              score({Change{slot_a, ca, &alloc_a.value()},
                     Change{slot_b, cb, &alloc_b.value()}},
                    /*commit=*/false);
          if (objective && *objective < threshold &&
              (!best || *objective < best->objective)) {
            best = Best{*ca, *cb, std::move(alloc_a).value(),
                        std::move(alloc_b).value(), *objective};
          }
        }
        overlay_.rewind(inner);
      }
    }
  }
  overlay_.rewind(outer);
  if (!best) return false;

  release_on_overlay(a.allocation);
  release_on_overlay(b.allocation);
  reserve_on_overlay(best->alloc_a);
  reserve_on_overlay(best->alloc_b);
  auto committed = score({Change{slot_a, &best->choice_a, &best->alloc_a},
                          Change{slot_b, &best->choice_b, &best->alloc_b}},
                         /*commit=*/true);
  HARMONY_ASSERT_MSG(committed.has_value(), "re-scoring accepted swap failed");
  ++stats_.moves_accepted;
  ++accepted_moves_;
  return true;
}

void SolverPass::commit_live(std::vector<Decision>& decisions) {
  std::vector<size_t> changed;
  for (size_t e = 0; e < entries_.size(); ++e) {
    const Entry& entry = entries_[e];
    if (entry.choice == entry.bundle->choice &&
        entry.allocation.same_placement(entry.bundle->allocation)) {
      continue;
    }
    changed.push_back(e);
  }
  if (changed.empty()) return;
  // Release every changed live allocation first, then install the
  // planned ones directly (no re-matching — the committed placement is
  // exactly the planned one, which a partial re-match could not
  // guarantee under a different intermediate pool state).
  for (size_t e : changed) {
    auto released =
        cluster::Matcher::release(entries_[e].bundle->allocation, *state_.pool);
    HARMONY_ASSERT_MSG(released.ok(), "solver live release failed");
  }
  for (size_t e : changed) {
    Entry& entry = entries_[e];
    for (const auto& ae : entry.allocation.entries) {
      auto reserved =
          state_.pool->reserve_memory(ae.node, ae.requirement.memory_mb);
      HARMONY_ASSERT_MSG(reserved.ok(), "solver live reserve failed");
      state_.pool->add_process(ae.node);
    }
    cluster::Allocation old_allocation = entry.bundle->allocation;
    entry.bundle->choice = entry.choice;
    entry.bundle->allocation = entry.allocation;
    entry.bundle->configured = true;
    entry.bundle->last_switch_time = now_;
    state_.touch_allocation(old_allocation);
    state_.touch_allocation(entry.bundle->allocation);
  }
  // Stamp after every touch: the solver's joint plan is the epoch's
  // argmin as far as the next incremental pass is concerned — leaving
  // these dirty would let the next greedy pass immediately unwind the
  // improvement (thrash).
  for (size_t e : changed) {
    entries_[e].bundle->evaluated_version = state_.version;
  }
  for (size_t e : changed) {
    const Entry& entry = entries_[e];
    bool found = false;
    for (Decision& decision : decisions) {
      if (decision.instance == entry.instance->id &&
          decision.bundle == entry.bundle->spec.bundle) {
        decision.choice = entry.choice;
        decision.changed = true;
        found = true;
      }
    }
    if (!found) {
      decisions.push_back(
          Decision{entry.instance->id, entry.bundle->spec.bundle, entry.choice,
                   true});
    }
  }
}

Status SolverPass::run(
    const std::vector<std::vector<Solver::Previous>>& previous,
    std::vector<Decision>& decisions, double* improvement,
    double* improvement_bp, bool* budget_exhausted, uint64_t* rounds) {
  *improvement = 0.0;
  *improvement_bp = 0.0;
  *budget_exhausted = false;
  *rounds = 0;
  if (deadline_passed()) {
    // Greedy consumed the whole budget; degrade gracefully.
    *budget_exhausted = true;
    return Status::Ok();
  }
  auto status = init(previous);
  if (!status.ok()) return status;
  if (slots_.empty()) return Status::Ok();
  const double greedy_objective = current_objective_;

  std::vector<size_t> order = slots_;
  while (true) {
    if (config_.max_rounds > 0 &&
        *rounds >= static_cast<uint64_t>(config_.max_rounds)) {
      break;
    }
    bool improved = false;
    // Deterministic Fisher-Yates round order: seeded, so a fixed
    // max_rounds run is reproducible regardless of wall clock.
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng_.next_below(i)]);
    }
    // Swap attempts are interleaved through the reassign sweep: on a
    // tightly packed domain the sweep alone can exhaust the budget,
    // and single reassigns can never fix a pairwise packing wedge —
    // running swaps only after the sweep would starve the one
    // neighborhood that can. Interleaving keeps the budget split
    // between both neighborhoods no matter where it runs out.
    int swaps_left = std::max(config_.swap_pairs_per_round, 0);
    const size_t swap_cadence =
        swaps_left > 0 ? std::max<size_t>(1, order.size() / swaps_left)
                       : order.size() + 1;
    auto attempt_swap = [&] {
      --swaps_left;
      size_t slot = slots_[rng_.next_below(slots_.size())];
      auto partner = pick_partner(slot);
      if (partner && try_swap(slot, *partner)) improved = true;
    };
    for (size_t i = 0; i < order.size(); ++i) {
      if (deadline_passed()) {
        *budget_exhausted = true;
        break;
      }
      if (try_reassign(order[i])) improved = true;
      if (swaps_left > 0 && (i + 1) % swap_cadence == 0) {
        if (deadline_passed()) {
          *budget_exhausted = true;
          break;
        }
        attempt_swap();
      }
    }
    while (!*budget_exhausted && swaps_left > 0) {
      if (deadline_passed()) {
        *budget_exhausted = true;
        break;
      }
      attempt_swap();
    }
    ++*rounds;
    if (*budget_exhausted || !improved) break;
  }

  if (accepted_moves_ > 0) {
    commit_live(decisions);
    *improvement = greedy_objective - current_objective_;
    if (std::fabs(greedy_objective) > 0) {
      *improvement_bp = *improvement / std::fabs(greedy_objective) * 1e4;
    }
  }
  return Status::Ok();
}

Solver::Solver(Optimizer& optimizer, const SolverConfig& config)
    : opt_(optimizer), config_(config) {}

Solver::~Solver() = default;

Status Solver::improve(SystemState& state, double now,
                       std::chrono::steady_clock::time_point deadline,
                       const std::vector<std::vector<Previous>>& previous,
                       std::vector<Decision>& decisions) {
  ++stats_.passes;
  metric::telemetry_counter("solver.passes_total").increment();
  const auto start = std::chrono::steady_clock::now();
  const uint64_t candidates_before = stats_.candidates;
  const uint64_t moves_before = stats_.moves_accepted;

  double improvement = 0.0;
  double improvement_bp = 0.0;
  bool budget_exhausted = false;
  uint64_t rounds = 0;
  // Each pass explores from a different deterministic stream: reseeding
  // every pass with the bare config seed would make a short-budget pass
  // resample the exact same move candidates forever (a fixed 16-pair
  // sample that happens to contain no improving swap stays empty on
  // every later pass — the anytime property dies). Mixing the pass
  // counter in (splitmix64 finalizer) keeps runs reproducible for a
  // given event sequence while making successive passes cover fresh
  // neighborhoods.
  uint64_t mixed = config_.seed + 0x9e3779b97f4a7c15ULL * stats_.passes;
  mixed ^= mixed >> 30;
  mixed *= 0xbf58476d1ce4e5b9ULL;
  mixed ^= mixed >> 27;
  mixed *= 0x94d049bb133111ebULL;
  mixed ^= mixed >> 31;
  {
    SolverPass pass(opt_, config_, stats_, state, now, mixed, deadline);
    auto status = pass.run(previous, decisions, &improvement, &improvement_bp,
                           &budget_exhausted, &rounds);
    if (!status.ok()) return status;
  }

  stats_.rounds += rounds;
  metric::telemetry_counter("solver.rounds_total").add(rounds);
  metric::telemetry_counter("solver.candidates_total")
      .add(stats_.candidates - candidates_before);
  metric::telemetry_counter("solver.moves_accepted_total")
      .add(stats_.moves_accepted - moves_before);
  if (budget_exhausted) {
    ++stats_.budget_exhausted;
    metric::telemetry_counter("solver.budget_exhausted_total").increment();
  }
  stats_.last_improvement = improvement;
  if (improvement > 0) {
    ++stats_.improved_passes;
    stats_.total_improvement += improvement;
    metric::telemetry_counter("solver.improved_passes_total").increment();
    // Improvement over greedy, in basis points of the greedy objective.
    metric::telemetry_histogram("solver.improvement_bp")
        .record(static_cast<uint64_t>(std::max(0.0, improvement_bp)));
  }
  auto used = std::chrono::duration<double, std::milli>(
      std::chrono::steady_clock::now() - start);
  stats_.last_budget_used_ms = used.count();
  metric::telemetry_histogram("solver.budget_used_us")
      .record(static_cast<uint64_t>(std::max(0.0, used.count() * 1000.0)));
  return Status::Ok();
}

}  // namespace harmony::core
