// Ablation A1 — greedy one-bundle-at-a-time vs exhaustive joint search.
// The paper (§4.3) chooses greedy: "a simple form of greedy
// optimization that will not necessarily produce a globally optimal
// value, but it is simple and easy to implement." This bench quantifies
// the tradeoff: objective quality vs candidate evaluations and decision
// wall time, as database clients accumulate.
//
// A1b — incremental planning engine. Steady-state re-evaluation cost of
// the dirty-set + prediction-cache path against a forced full pass, for
// a quiet system and for localized perturbations. Results (decisions/s,
// candidates per decision, cache hit rate) also land in
// BENCH_optimizer.json for machine consumption.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/db_app.h"
#include "apps/scenarios.h"
#include "common/strings.h"
#include "core/controller.h"
#include "core/domain.h"
#include "metric/telemetry.h"
#include "persist/persistence.h"
#include "rsl/program.h"
#include "test_scenarios.h"

namespace {

using namespace harmony;
using namespace harmony::apps;

struct RunResult {
  double objective = 0;
  uint64_t candidates = 0;
  uint64_t truncated = 0;  // exhaustive passes capped at exhaustive_limit
  double wall_ms = 0;
  bool ok = true;
};

RunResult run_mode(core::OptimizerConfig::Mode mode, int clients) {
  core::ControllerConfig config;
  config.optimizer.mode = mode;
  // Cap, don't fail: a capped joint pass evaluates the first
  // exhaustive_limit combinations and reports itself truncated.
  config.optimizer.exhaustive_truncate = true;
  core::Controller controller(config);
  RunResult result;
  if (!controller.add_nodes_script(db_cluster_script(clients)).ok() ||
      !controller.finalize_cluster().ok()) {
    result.ok = false;
    return result;
  }
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 1; i <= clients; ++i) {
    DbClientConfig client;
    client.client_host = str_format("sp2-%02d", i - 1);
    client.instance = i;
    auto id = controller.register_script(db_client_bundle_script(client));
    if (!id.ok()) {
      result.ok = false;
      return result;
    }
  }
  auto t1 = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.candidates = controller.optimizer().candidates_evaluated();
  result.truncated = controller.optimizer().exhaustive_truncations();
  auto objective = controller.objective_value();
  result.objective = objective.ok() ? objective.value() : -1;
  return result;
}

// --- A1b: steady-state re-evaluation --------------------------------------

struct SteadyResult {
  double wall_ms = 0;
  uint64_t decisions = 0;
  uint64_t candidates = 0;
  uint64_t predictor_calls = 0;
  uint64_t bundles_skipped = 0;
  // RSL expression evaluations (rsl::expr_evaluations() delta): the
  // per-decision expression work the prediction cache and dirty-set
  // skipping avoid.
  uint64_t expr_evals = 0;
  double cache_hit_rate = 0;
  bool ok = true;

  double decisions_per_sec() const {
    return wall_ms > 0 ? decisions / (wall_ms / 1000.0) : 0;
  }
  double candidates_per_decision() const {
    return decisions > 0 ? static_cast<double>(candidates) / decisions : 0;
  }
  double expr_evals_per_decision() const {
    return decisions > 0 ? static_cast<double>(expr_evals) / decisions : 0;
  }
};

// Perturbation applied between re-evaluation rounds.
enum class Scenario { kQuiet, kSpareNodeLoad, kClientNodeLoad };

const char* scenario_name(Scenario scenario) {
  switch (scenario) {
    case Scenario::kQuiet: return "quiet";
    case Scenario::kSpareNodeLoad: return "spare_node_load";
    case Scenario::kClientNodeLoad: return "client_node_load";
  }
  return "?";
}

std::string persist_dir() {
  return str_format("/tmp/abl_optimizer_wal_%d", static_cast<int>(::getpid()));
}

void clean_persist_dir() {
  const std::string dir = persist_dir();
  std::remove((dir + "/journal.wal").c_str());
  std::remove((dir + "/snapshot.hsn").c_str());
  std::remove((dir + "/snapshot.tmp").c_str());
  ::rmdir(dir.c_str());
}

SteadyResult run_steady(bool incremental, Scenario scenario, int clients,
                        int rounds, bool journaled = false) {
  core::ControllerConfig config;
  config.optimizer.incremental = incremental;
  config.optimizer.memoize_predictions = incremental;
  core::Controller controller(config);
  SteadyResult result;
  double t = 0;
  controller.set_time_source([&t] { return t; });
  std::unique_ptr<persist::Persistence> persistence;
  if (journaled) {
    clean_persist_dir();  // a leftover journal would trigger recovery
    persist::PersistConfig persist_config;
    persist_config.dir = persist_dir();
    auto opened = persist::Persistence::open(persist_config, controller);
    if (!opened.ok()) {
      result.ok = false;
      return result;
    }
    persistence = std::move(opened).value();
  }
  // One spare worker beyond the clients, so kSpareNodeLoad can perturb
  // a node no application can ever be placed on.
  if (!controller.add_nodes_script(db_cluster_script(clients + 1)).ok() ||
      !controller.finalize_cluster().ok()) {
    result.ok = false;
    return result;
  }
  for (int i = 1; i <= clients; ++i) {
    DbClientConfig client;
    client.client_host = str_format("sp2-%02d", i - 1);
    client.instance = i;
    auto id = controller.register_script(db_client_bundle_script(client));
    if (!id.ok()) {
      result.ok = false;
      return result;
    }
    t += 10;
  }
  // Settle: one pass so every bundle holds its argmin configuration.
  t += 10;
  if (!controller.reevaluate().ok()) {
    result.ok = false;
    return result;
  }

  auto& optimizer = controller.optimizer();
  const uint64_t candidates0 = optimizer.candidates_evaluated();
  const uint64_t predictor0 = optimizer.predictor_calls();
  const uint64_t skipped0 = optimizer.bundles_skipped();
  const uint64_t exprs0 = rsl::expr_evaluations();
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    t += 10;
    Status status = Status::Ok();
    switch (scenario) {
      case Scenario::kQuiet:
        status = controller.reevaluate();
        break;
      case Scenario::kSpareNodeLoad:
        // Flip external load on the worker nobody can run on; the
        // re-evaluation it triggers finds no affected bundle.
        status = controller.report_external_load(
            str_format("sp2-%02d", clients), round % 2 ? 0 : 2);
        break;
      case Scenario::kClientNodeLoad:
        // Flip load under client 1; its bundle (and everyone coupled to
        // it through the shared server) must be re-evaluated.
        status = controller.report_external_load("sp2-00",
                                                 round % 2 ? 0 : 2);
        break;
    }
    if (!status.ok()) {
      result.ok = false;
      return result;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  // One decision per (instance, bundle) per pass, skipped or not.
  result.decisions = static_cast<uint64_t>(rounds) * clients;
  result.candidates = optimizer.candidates_evaluated() - candidates0;
  result.predictor_calls = optimizer.predictor_calls() - predictor0;
  result.bundles_skipped = optimizer.bundles_skipped() - skipped0;
  result.expr_evals = rsl::expr_evaluations() - exprs0;
  result.cache_hit_rate = optimizer.cache_stats().hit_rate();
  return result;
}

// Work reduction full/incremental. nullopt means the incremental
// engine did zero work where the full engine did some — an infinite
// reduction, not a number: the table prints "inf" and the JSON emits
// null rather than a fake sentinel magnitude.
std::optional<double> ratio(uint64_t full, uint64_t incremental) {
  if (incremental == 0) {
    if (full == 0) return 1.0;
    return std::nullopt;
  }
  return static_cast<double>(full) / static_cast<double>(incremental);
}

std::string ratio_text(const std::optional<double>& r) {
  return r ? str_format("%.1fx", *r) : std::string("inf");
}

std::string ratio_json(const std::optional<double>& r) {
  return r ? str_format("%.1f", *r) : std::string("null");
}

// An absent ratio is an infinite reduction, so any threshold is met.
bool ratio_at_least(const std::optional<double>& r, double threshold) {
  return !r || *r >= threshold;
}

// --- Partitioned decision core: multi-tenant scaling ----------------------
// kTenantGroups isolated app groups (hostname-pinned bundles, so the
// bundle/node sharing graph has one connected component per group)
// behind one decision core. Each round flips external load under one
// group, round-robin. The single-domain reference re-establishes the
// system argmin by re-deciding every bundle; the partitioned core
// routes the event to the owning domain and proves every out-of-domain
// bundle unchanged without touching it — per-event cost O(domain)
// instead of O(system). Decision identity is asserted on the final
// configuration fingerprint.

constexpr int kTenantGroups = 8;
constexpr int kTenantNodesPerGroup = 3;
constexpr int kTenantAppsPerGroup = 3;
constexpr int kTenantRounds = 200;

struct PartitionRun {
  double wall_ms = 0;
  std::string fingerprint;
  bool ok = true;
};

PartitionRun run_partition_mode(bool single_domain) {
  core::DomainRouterConfig config;
  config.single_domain = single_domain;
  // Full decision pass per event on BOTH sides. The dirty-set engine is
  // ablated separately (A1b above) and composes multiplicatively; this
  // section isolates what the domain decomposition alone saves.
  config.controller.optimizer.incremental = false;
  config.controller.optimizer.memoize_predictions = false;
  core::DomainRouter router(config);
  PartitionRun result;
  double t = 0;
  router.set_time_source([&t] { return t; });
  std::vector<std::string> groups;
  for (int g = 0; g < kTenantGroups; ++g) {
    groups.push_back(str_format("g%02d", g));
  }
  if (!router
           .add_nodes_script(harmony::testing::grouped_cluster_script(
               groups, kTenantNodesPerGroup))
           .ok() ||
      !router.finalize_cluster().ok()) {
    result.ok = false;
    return result;
  }
  int tag = 1;
  for (const auto& group : groups) {
    for (int i = 0; i < kTenantAppsPerGroup; ++i) {
      t += 10;
      if (!router.register_script(
                    harmony::testing::pinned_group_bundle(group, tag++))
               .ok()) {
        result.ok = false;
        return result;
      }
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int round = 0; round < kTenantRounds; ++round) {
    t += 10;
    const std::string host = str_format("g%02d-00", round % kTenantGroups);
    if (!router.report_external_load(host, round % 2 ? 0 : 2).ok()) {
      result.ok = false;
      return result;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.fingerprint = harmony::testing::fingerprint(router);
  return result;
}

// --- Anytime swarm-scale allocator ----------------------------------------
// 10k bundles (250 hostname-pinned groups x 40 apps) on 2250 nodes
// behind the partitioned decision core, grant levels {1, 2, 3}. The
// packing-stress variant wedges greedy (per-bundle argmin cannot trade
// two grants on a full node); the uniform variant is greedy-optimal.
// Three gates:
//   1. solver objective <= greedy everywhere, strictly better on
//      packing-stress;
//   2. p99 per-event decision latency within the wall-clock budget;
//   3. budget_ms = 0 is bit-identical to pure greedy (fingerprint).

enum class SwarmMode { kGreedy, kBudgetZero, kSolver };

struct SwarmRun {
  double objective = 0;
  double register_ms = 0;
  double p50_ms = 0, p99_ms = 0, max_ms = 0;
  uint64_t solver_passes = 0;
  uint64_t solver_moves = 0;
  double solver_improvement = 0;
  size_t domains = 0;
  std::string fingerprint;
  bool ok = true;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t index = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

SwarmRun run_swarm(const harmony::testing::SwarmConfig& swarm, SwarmMode mode,
                   double budget_ms, int rounds, bool want_fingerprint) {
  core::DomainRouterConfig config;
  config.controller.optimizer.incremental = true;
  config.controller.optimizer.memoize_predictions = true;
  config.controller.optimizer.memory_grant_levels = {1.0, 2.0, 3.0};
  config.controller.record_objective_metric = false;
  // Place-only on arrival (identical in all three modes, so the
  // budget_ms = 0 identity gate still compares like with like): the
  // quantity gated is decision latency on *load events*, and with
  // arrival reevaluation on, every one of the 10k registrations would
  // pay a full solver pass just to conclude the fresh domain has
  // nothing to improve yet.
  config.controller.optimizer.reevaluate_on_arrival = false;
  if (mode != SwarmMode::kGreedy) {
    // kBudgetZero sets every solver knob but leaves budget_ms at 0: the
    // identity gate proves enabled() hinges on the budget alone.
    core::SolverConfig& solver = config.controller.optimizer.solver;
    solver.budget_ms = mode == SwarmMode::kSolver ? budget_ms : 0;
    solver.seed = 0x5eed5eedULL;
    // Trimmed pair sampling: at 40 bundles per domain a converged pass
    // must still finish one full no-improvement round well inside the
    // budget. The solver's swap shortlist holds 3 choices — the packing
    // wedge (grant 3 + grant 1 -> grant 2 + grant 2) needs the middle
    // grant in BOTH shortlists, and a 2-choice shortlist can never
    // reach it.
    solver.swap_pairs_per_round = 16;
  }
  core::DomainRouter router(config);
  SwarmRun result;
  double t = 0;
  router.set_time_source([&t] { return t; });
  if (!router.add_nodes_script(harmony::testing::swarm_cluster_script(swarm))
           .ok() ||
      !router.finalize_cluster().ok()) {
    result.ok = false;
    return result;
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& script : harmony::testing::swarm_app_scripts(swarm)) {
    t += 1;
    if (!router.register_script(script).ok()) {
      result.ok = false;
      return result;
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.register_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  // Measurement: load/unload pairs rotating across groups, one blocking
  // decision per event.
  std::vector<double> latencies;
  latencies.reserve(rounds);
  for (int round = 0; round < rounds; ++round) {
    t += 10;
    const int group = (round / 2) % swarm.groups;
    const std::string host =
        harmony::testing::swarm_group_name(group) + "-c00";
    const auto e0 = std::chrono::steady_clock::now();
    if (!router.report_external_load(host, round % 2 == 0 ? 2 : 0).ok()) {
      result.ok = false;
      return result;
    }
    const auto e1 = std::chrono::steady_clock::now();
    latencies.push_back(
        std::chrono::duration<double, std::milli>(e1 - e0).count());
  }
  std::sort(latencies.begin(), latencies.end());
  result.p50_ms = percentile(latencies, 0.50);
  result.p99_ms = percentile(latencies, 0.99);
  result.max_ms = latencies.empty() ? 0 : latencies.back();

  auto objective = router.objective_value();
  if (!objective.ok()) {
    result.ok = false;
    return result;
  }
  result.objective = objective.value();
  result.domains = router.domain_count();
  for (const auto& info : router.snapshot()) {
    result.solver_passes += info.solver_passes;
    result.solver_moves += info.solver_moves;
    result.solver_improvement += info.solver_improvement;
  }
  if (want_fingerprint) {
    result.fingerprint = harmony::testing::fingerprint(router);
  }
  return result;
}

int run(bool smoke) {
  std::printf("=== Ablation A1: greedy vs exhaustive option search ===\n");
  std::printf("scenario: N database clients arriving on an N-client cluster; "
              "objective = mean predicted completion time\n\n");
  std::printf("clients   greedy_obj  exhaust_obj  gap%%   greedy_cands  "
              "exhaust_cands  truncated   greedy_ms  exhaust_ms\n");
  bool greedy_ever_worse = false;
  bool ok = true;
  std::string json_a1;
  const std::vector<int> a1_clients =
      smoke ? std::vector<int>{1, 2, 3} : std::vector<int>{1, 2, 3, 4, 5, 6};
  for (int clients : a1_clients) {
    auto greedy = run_mode(core::OptimizerConfig::Mode::kGreedy, clients);
    auto exhaustive =
        run_mode(core::OptimizerConfig::Mode::kExhaustive, clients);
    ok = ok && greedy.ok && exhaustive.ok;
    double gap = exhaustive.objective > 0
                     ? 100.0 * (greedy.objective - exhaustive.objective) /
                           exhaustive.objective
                     : 0;
    if (gap > 1e-6) greedy_ever_worse = true;
    std::printf(
        "%7d   %10.3f  %11.3f  %5.1f  %12llu  %13llu  %9llu  %10.2f  %10.2f\n",
        clients, greedy.objective, exhaustive.objective, gap,
        static_cast<unsigned long long>(greedy.candidates),
        static_cast<unsigned long long>(exhaustive.candidates),
        static_cast<unsigned long long>(exhaustive.truncated),
        greedy.wall_ms, exhaustive.wall_ms);
    if (!json_a1.empty()) json_a1 += ",";
    json_a1 += str_format(
        "\n    {\"clients\": %d, \"greedy_objective\": %.6g, "
        "\"exhaustive_objective\": %.6g, \"gap_percent\": %.3g, "
        "\"greedy_candidates\": %llu, \"exhaustive_candidates\": %llu, "
        "\"exhaustive_truncated_passes\": %llu, "
        "\"greedy_ms\": %.3f, \"exhaustive_ms\": %.3f}",
        clients, greedy.objective, exhaustive.objective, gap,
        static_cast<unsigned long long>(greedy.candidates),
        static_cast<unsigned long long>(exhaustive.candidates),
        static_cast<unsigned long long>(exhaustive.truncated),
        greedy.wall_ms, exhaustive.wall_ms);
  }
  std::printf("\nsummary: greedy matches the exhaustive optimum on this "
              "workload: %s\n", greedy_ever_worse ? "no (gap above)" : "yes");
  std::printf("exhaustive candidate count grows as 2^N (joint space); greedy "
              "grows linearly per pass.\n");

  const int clients = 6;
  const int rounds = smoke ? 50 : 200;
  std::printf("\n=== Ablation A1b: incremental planning engine ===\n");
  std::printf("scenario: %d settled clients, %d steady-state re-evaluation "
              "rounds per perturbation pattern\n\n", clients, rounds);
  std::printf("%-17s %-12s %10s %12s %12s %10s %12s %10s %10s\n", "scenario",
              "engine", "wall_ms", "decisions/s", "cands/dec", "cands",
              "pred_calls", "exprs/dec", "hit_rate");
  std::string json_steady;
  bool reduction_met = true;
  for (Scenario scenario : {Scenario::kQuiet, Scenario::kSpareNodeLoad,
                            Scenario::kClientNodeLoad}) {
    auto incremental = run_steady(true, scenario, clients, rounds);
    auto full = run_steady(false, scenario, clients, rounds);
    ok = ok && incremental.ok && full.ok;
    for (const auto* row : {&incremental, &full}) {
      std::printf(
          "%-17s %-12s %10.2f %12.0f %12.2f %10llu %12llu %10.2f %10.3f\n",
          scenario_name(scenario),
          row == &incremental ? "incremental" : "full",
          row->wall_ms, row->decisions_per_sec(),
          row->candidates_per_decision(),
          static_cast<unsigned long long>(row->candidates),
          static_cast<unsigned long long>(row->predictor_calls),
          row->expr_evals_per_decision(), row->cache_hit_rate);
    }
    const std::optional<double> candidate_ratio =
        ratio(full.candidates, incremental.candidates);
    const std::optional<double> predictor_ratio =
        ratio(full.predictor_calls, incremental.predictor_calls);
    std::printf("%-17s reduction: %s candidates, %s predictor calls\n", "",
                ratio_text(candidate_ratio).c_str(),
                ratio_text(predictor_ratio).c_str());
    // Acceptance: >=2x less steady-state work on candidates or
    // predictor calls.
    if (!ratio_at_least(candidate_ratio, 2.0) &&
        !ratio_at_least(predictor_ratio, 2.0)) {
      reduction_met = false;
    }
    if (!json_steady.empty()) json_steady += ",";
    auto engine_json = [](const SteadyResult& r) {
      return str_format(
          "{\"wall_ms\": %.3f, \"decisions\": %llu, "
          "\"decisions_per_sec\": %.1f, \"candidates\": %llu, "
          "\"candidates_per_decision\": %.4f, \"predictor_calls\": %llu, "
          "\"bundles_skipped\": %llu, \"expr_evaluations\": %llu, "
          "\"expr_evaluations_per_decision\": %.4f, "
          "\"cache_hit_rate\": %.4f}",
          r.wall_ms, static_cast<unsigned long long>(r.decisions),
          r.decisions_per_sec(),
          static_cast<unsigned long long>(r.candidates),
          r.candidates_per_decision(),
          static_cast<unsigned long long>(r.predictor_calls),
          static_cast<unsigned long long>(r.bundles_skipped),
          static_cast<unsigned long long>(r.expr_evals),
          r.expr_evals_per_decision(), r.cache_hit_rate);
    };
    json_steady += str_format(
        "\n    {\"scenario\": \"%s\", \"clients\": %d, \"rounds\": %d,\n"
        "     \"incremental\": %s,\n"
        "     \"full\": %s,\n"
        "     \"candidate_reduction\": %s, \"predictor_reduction\": %s}",
        scenario_name(scenario), clients, rounds,
        engine_json(incremental).c_str(), engine_json(full).c_str(),
        ratio_json(candidate_ratio).c_str(),
        ratio_json(predictor_ratio).c_str());
  }
  std::printf("\nsteady-state >=2x work reduction: %s\n",
              reduction_met ? "yes" : "NO");

  // --- Durability: journaling overhead on the decision path ---------------
  // Same steady-state loop, incremental engine, with the write-ahead
  // journal attached (default policy: one write(2) per epoch, fsync
  // every 32 epochs, snapshot every 64). Acceptance: <10% wall-time
  // regression on the steady-state decision path.
  std::string json_journal;
  double journal_regression = 0;
  bool journal_gate_met = true;
  if (!smoke) {
  std::printf("\n=== Durability: journaling overhead on the decision path "
              "===\n");
  std::printf("%-17s %12s %12s %12s\n", "scenario", "plain_ms",
              "journaled_ms", "regression");
  double plain_total = 0, journaled_total = 0;
  for (Scenario scenario : {Scenario::kQuiet, Scenario::kClientNodeLoad}) {
    // Interleaved best-of-10: multi-tenant machines throttle and steal
    // in bursts lasting several runs, so both variants need many shots
    // at a quiet window. The journal's cost is systematic and survives
    // the min; the noise is not and doesn't.
    double plain_ms = 1e18, journaled_ms = 1e18;
    for (int repeat = 0; repeat < 10; ++repeat) {
      auto plain = run_steady(true, scenario, clients, rounds);
      auto journaled = run_steady(true, scenario, clients, rounds,
                                  /*journaled=*/true);
      ok = ok && plain.ok && journaled.ok;
      plain_ms = std::min(plain_ms, plain.wall_ms);
      journaled_ms = std::min(journaled_ms, journaled.wall_ms);
    }
    const double regression =
        plain_ms > 0 ? 100.0 * (journaled_ms - plain_ms) / plain_ms : 0;
    plain_total += plain_ms;
    journaled_total += journaled_ms;
    std::printf("%-17s %12.3f %12.3f %11.1f%%\n", scenario_name(scenario),
                plain_ms, journaled_ms, regression);
    if (!json_journal.empty()) json_journal += ",";
    json_journal += str_format(
        "\n    {\"scenario\": \"%s\", \"clients\": %d, \"rounds\": %d, "
        "\"plain_ms\": %.3f, \"journaled_ms\": %.3f, "
        "\"regression_percent\": %.2f}",
        scenario_name(scenario), clients, rounds, plain_ms, journaled_ms,
        regression);
  }
  clean_persist_dir();
  journal_regression =
      plain_total > 0 ? 100.0 * (journaled_total - plain_total) / plain_total
                      : 0;
  journal_gate_met = journal_regression < 10.0;
  std::printf("aggregate steady-state regression with journaling: %.1f%% "
              "(<10%% required): %s\n",
              journal_regression, journal_gate_met ? "yes" : "NO");
  }  // !smoke

  // --- Telemetry: instrument overhead on the decision path ----------------
  // The same steady-state loop with the process-global telemetry flag on
  // vs off. Recording is a relaxed load plus (when on) relaxed atomic
  // adds into padded cells, so the systematic cost must stay under 2%.
  // Interleaved best-of-10 minima for the same noise reasons as above.
  std::string json_telemetry;
  double telemetry_overhead = 0;
  bool telemetry_gate_met = true;
  if (!smoke) {
  std::printf("\n=== Telemetry: instrument overhead on the decision path "
              "===\n");
  std::printf("%-17s %12s %12s %12s\n", "scenario", "off_ms", "on_ms",
              "overhead");
  double telemetry_off_total = 0, telemetry_on_total = 0;
  for (Scenario scenario : {Scenario::kQuiet, Scenario::kClientNodeLoad}) {
    double off_ms = 1e18, on_ms = 1e18;
    for (int repeat = 0; repeat < 10; ++repeat) {
      metric::set_telemetry_enabled(false);
      auto off = run_steady(true, scenario, clients, rounds);
      metric::set_telemetry_enabled(true);
      auto on = run_steady(true, scenario, clients, rounds);
      ok = ok && off.ok && on.ok;
      off_ms = std::min(off_ms, off.wall_ms);
      on_ms = std::min(on_ms, on.wall_ms);
    }
    const double overhead =
        off_ms > 0 ? 100.0 * (on_ms - off_ms) / off_ms : 0;
    telemetry_off_total += off_ms;
    telemetry_on_total += on_ms;
    std::printf("%-17s %12.3f %12.3f %11.1f%%\n", scenario_name(scenario),
                off_ms, on_ms, overhead);
    if (!json_telemetry.empty()) json_telemetry += ",";
    json_telemetry += str_format(
        "\n    {\"scenario\": \"%s\", \"clients\": %d, \"rounds\": %d, "
        "\"telemetry_off_ms\": %.3f, \"telemetry_on_ms\": %.3f, "
        "\"overhead_percent\": %.2f}",
        scenario_name(scenario), clients, rounds, off_ms, on_ms, overhead);
  }
  metric::set_telemetry_enabled(true);
  telemetry_overhead =
      telemetry_off_total > 0
          ? 100.0 * (telemetry_on_total - telemetry_off_total) /
                telemetry_off_total
          : 0;
  telemetry_gate_met = telemetry_overhead < 2.0;
  std::printf("aggregate decision-path overhead with telemetry on: %.2f%% "
              "(<2%% required): %s\n",
              telemetry_overhead, telemetry_gate_met ? "yes" : "NO");
  }  // !smoke

  // --- Partitioned decision core: multi-tenant scaling --------------------
  // Acceptance: >=4x equivalent decisions/s over the --single-domain
  // reference on >=8 independent app groups, with a bit-equal final
  // configuration fingerprint.
  const uint64_t tenant_instances =
      static_cast<uint64_t>(kTenantGroups) * kTenantAppsPerGroup;
  const uint64_t tenant_decisions =
      static_cast<uint64_t>(kTenantRounds) * tenant_instances;
  std::printf("\n=== Partitioned decision core: multi-tenant scaling ===\n");
  std::printf("scenario: %d hostname-pinned app groups (%d apps each, %d "
              "nodes each), %d load-flip rounds round-robin across groups\n\n",
              kTenantGroups, kTenantAppsPerGroup, kTenantNodesPerGroup,
              kTenantRounds);
  double reference_ms = 1e18, partitioned_ms = 1e18;
  bool identity_match = true;
  for (int repeat = 0; repeat < (smoke ? 1 : 5); ++repeat) {
    auto reference = run_partition_mode(/*single_domain=*/true);
    auto partitioned = run_partition_mode(/*single_domain=*/false);
    ok = ok && reference.ok && partitioned.ok;
    identity_match = identity_match && reference.ok && partitioned.ok &&
                     reference.fingerprint == partitioned.fingerprint;
    reference_ms = std::min(reference_ms, reference.wall_ms);
    partitioned_ms = std::min(partitioned_ms, partitioned.wall_ms);
  }
  const double partition_speedup =
      partitioned_ms > 0 ? reference_ms / partitioned_ms : 0;
  const double reference_dps =
      reference_ms > 0 ? tenant_decisions / (reference_ms / 1000.0) : 0;
  const double partitioned_dps =
      partitioned_ms > 0 ? tenant_decisions / (partitioned_ms / 1000.0) : 0;
  // In smoke mode only the (deterministic) identity half of the gate is
  // enforced: a single-repeat wall-clock ratio is too noisy to fail CI.
  const bool partition_gate_met =
      identity_match && (smoke || partition_speedup >= 4.0);
  std::printf("%-17s %12s %12s %12s %10s\n", "mode", "wall_ms",
              "decisions/s", "speedup", "identity");
  std::printf("%-17s %12.3f %12.0f %12s %10s\n", "single_domain",
              reference_ms, reference_dps, "1.0x", "-");
  std::printf("%-17s %12.3f %12.0f %11.1fx %10s\n", "partitioned",
              partitioned_ms, partitioned_dps, partition_speedup,
              identity_match ? "bit-equal" : "DIVERGED");
  std::printf("partitioned >=4x decisions/s with bit-equal decisions: %s\n",
              partition_gate_met ? "yes" : "NO");

  // Telemetry overhead gate re-run with domains enabled: per-domain
  // epoch counters/histograms and the domain.reevaluate span must stay
  // inside the same <2% envelope as the single-controller instruments.
  double domains_off_ms = 0, domains_on_ms = 0;
  double domains_telemetry_overhead = 0;
  bool domains_telemetry_gate_met = true;
  if (!smoke) {
  domains_off_ms = 1e18;
  domains_on_ms = 1e18;
  for (int repeat = 0; repeat < 5; ++repeat) {
    metric::set_telemetry_enabled(false);
    auto off = run_partition_mode(/*single_domain=*/false);
    metric::set_telemetry_enabled(true);
    auto on = run_partition_mode(/*single_domain=*/false);
    ok = ok && off.ok && on.ok;
    domains_off_ms = std::min(domains_off_ms, off.wall_ms);
    domains_on_ms = std::min(domains_on_ms, on.wall_ms);
  }
  metric::set_telemetry_enabled(true);
  domains_telemetry_overhead =
      domains_off_ms > 0
          ? 100.0 * (domains_on_ms - domains_off_ms) / domains_off_ms
          : 0;
  domains_telemetry_gate_met = domains_telemetry_overhead < 2.0;
  std::printf("telemetry overhead with domains enabled: %.2f%% "
              "(<2%% required): %s\n",
              domains_telemetry_overhead,
              domains_telemetry_gate_met ? "yes" : "NO");
  }  // !smoke

  // --- Anytime swarm-scale allocator --------------------------------------
  harmony::testing::SwarmConfig swarm_base;
  swarm_base.groups = smoke ? 16 : 250;
  const int swarm_rounds = smoke ? 40 : 200;
  const double swarm_budget_ms = 50;
  const int swarm_apps = swarm_base.groups * swarm_base.apps_per_group;
  const int swarm_nodes =
      swarm_base.groups * (swarm_base.clients_per_group + 1);
  std::printf("\n=== Anytime swarm-scale allocator ===\n");
  std::printf("scenario: %d bundles on %d nodes (%d groups), grant levels "
              "{1,2,3}, %d load-flip rounds, %.0f ms budget\n\n",
              swarm_apps, swarm_nodes, swarm_base.groups, swarm_rounds,
              swarm_budget_ms);
  std::printf("%-15s %-11s %12s %11s %9s %9s %9s %8s %8s\n", "scenario",
              "mode", "objective", "register_ms", "p50_ms", "p99_ms",
              "max_ms", "passes", "moves");
  bool swarm_ok = true;
  bool swarm_identity_met = true;
  bool swarm_objective_met = true;
  bool swarm_strict_met = true;
  bool swarm_latency_met = true;
  std::string json_swarm;
  for (bool packing : {true, false}) {
    harmony::testing::SwarmConfig swarm = swarm_base;
    swarm.packing_stress = packing;
    const char* scenario = packing ? "packing_stress" : "uniform";
    auto greedy = run_swarm(swarm, SwarmMode::kGreedy, 0, swarm_rounds,
                            /*want_fingerprint=*/true);
    auto budget0 = run_swarm(swarm, SwarmMode::kBudgetZero, 0, swarm_rounds,
                             /*want_fingerprint=*/true);
    auto solver = run_swarm(swarm, SwarmMode::kSolver, swarm_budget_ms,
                            swarm_rounds, /*want_fingerprint=*/false);
    swarm_ok = swarm_ok && greedy.ok && budget0.ok && solver.ok;
    const bool identity =
        greedy.ok && budget0.ok && greedy.fingerprint == budget0.fingerprint;
    swarm_identity_met = swarm_identity_met && identity;
    // Gate 1: never worse than greedy; strictly better where greedy is
    // provably wedged.
    if (solver.objective > greedy.objective + 1e-9) {
      swarm_objective_met = false;
    }
    if (packing && solver.objective >= greedy.objective - 1e-9) {
      swarm_strict_met = false;
    }
    // Gate 2: the anytime budget bounds the solver's share of a
    // decision, not the machine. A decision is greedy pass + solver;
    // greedy spends what it spends (at 250 full-cluster domains its
    // own tail is above 50 ms before any solver exists — budget_zero
    // proves it), and the solver adds at most one budget on top. So:
    // the *median* solver-mode decision lands within the budget, and
    // the solver-mode p99 stays within the worst solver-free baseline
    // tail plus one budget. Enforced on the full-size run only; a
    // smoke run's 40 samples make p99 one scheduler stall.
    if (!smoke) {
      if (solver.p50_ms > swarm_budget_ms) swarm_latency_met = false;
      const double baseline_tail_ms =
          std::max({swarm_budget_ms, greedy.p99_ms, budget0.p99_ms});
      if (solver.p99_ms > baseline_tail_ms + swarm_budget_ms) {
        swarm_latency_met = false;
      }
    }
    for (const auto* row : {&greedy, &budget0, &solver}) {
      const char* mode = row == &greedy    ? "greedy"
                         : row == &budget0 ? "budget_zero"
                                           : "solver";
      std::printf("%-15s %-11s %12.4f %11.0f %9.3f %9.3f %9.3f %8llu %8llu\n",
                  scenario, mode, row->objective, row->register_ms,
                  row->p50_ms, row->p99_ms, row->max_ms,
                  static_cast<unsigned long long>(row->solver_passes),
                  static_cast<unsigned long long>(row->solver_moves));
    }
    const double swarm_gain =
        greedy.objective > 0
            ? 100.0 * (greedy.objective - solver.objective) / greedy.objective
            : 0;
    std::printf("%-15s budget_zero identity: %s; solver vs greedy: %+.3f%% "
                "(%llu moves across %zu domains)\n",
                "", identity ? "bit-equal" : "DIVERGED", -swarm_gain,
                static_cast<unsigned long long>(solver.solver_moves),
                solver.domains);
    auto mode_json = [](const SwarmRun& r) {
      return str_format(
          "{\"objective\": %.6f, \"register_ms\": %.1f, "
          "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f, "
          "\"solver_passes\": %llu, \"solver_moves\": %llu, "
          "\"solver_improvement\": %.6f}",
          r.objective, r.register_ms, r.p50_ms, r.p99_ms, r.max_ms,
          static_cast<unsigned long long>(r.solver_passes),
          static_cast<unsigned long long>(r.solver_moves),
          r.solver_improvement);
    };
    if (!json_swarm.empty()) json_swarm += ",";
    json_swarm += str_format(
        "\n    {\"scenario\": \"%s\", \"bundles\": %d, \"nodes\": %d, "
        "\"domains\": %zu, \"rounds\": %d,\n"
        "     \"greedy\": %s,\n"
        "     \"budget_zero\": %s,\n"
        "     \"solver\": %s,\n"
        "     \"budget_zero_identity\": %s, "
        "\"solver_gain_percent\": %.3f}",
        scenario, swarm_apps, swarm_nodes, solver.domains, swarm_rounds,
        mode_json(greedy).c_str(), mode_json(budget0).c_str(),
        mode_json(solver).c_str(), identity ? "true" : "false", swarm_gain);
  }
  ok = ok && swarm_ok;
  const bool swarm_gate_met = swarm_identity_met && swarm_objective_met &&
                              swarm_strict_met && swarm_latency_met;
  std::printf("\nsolver <= greedy everywhere: %s; strictly better on "
              "packing-stress: %s\n",
              swarm_objective_met ? "yes" : "NO",
              swarm_strict_met ? "yes" : "NO");
  std::printf("median decision within %.0f ms budget, p99 within solver-free "
              "tail + budget: %s\n",
              swarm_budget_ms,
              !smoke ? (swarm_latency_met ? "yes" : "NO") : "(not gated in "
              "smoke)");
  std::printf("budget_ms = 0 bit-identical to greedy: %s\n",
              swarm_identity_met ? "yes" : "NO");

  if (smoke) {
    // Smoke validates gates at reduced scale without clobbering the
    // committed full-size numbers.
    std::printf("\nsmoke mode: BENCH_optimizer.json not rewritten\n");
    return ok && reduction_met && partition_gate_met && swarm_gate_met ? 0 : 1;
  }

  FILE* out = std::fopen("BENCH_optimizer.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n  \"bench\": \"abl_optimizer\",\n"
                 "  \"greedy_vs_exhaustive\": [%s\n  ],\n"
                 "  \"steady_state\": [%s\n  ],\n"
                 "  \"steady_state_reduction_met\": %s,\n"
                 "  \"journaling\": [%s\n  ],\n"
                 "  \"journaling_regression_percent\": %.2f,\n"
                 "  \"journaling_gate_met\": %s,\n"
                 "  \"telemetry\": [%s\n  ],\n"
                 "  \"telemetry_overhead_percent\": %.2f,\n"
                 "  \"telemetry_gate_met\": %s,\n"
                 "  \"partitioned\": {\n"
                 "    \"groups\": %d, \"nodes_per_group\": %d, "
                 "\"apps_per_group\": %d, \"rounds\": %d,\n"
                 "    \"decisions\": %llu,\n"
                 "    \"single_domain_ms\": %.3f, \"partitioned_ms\": %.3f,\n"
                 "    \"single_domain_decisions_per_sec\": %.1f,\n"
                 "    \"partitioned_decisions_per_sec\": %.1f,\n"
                 "    \"speedup\": %.2f, \"identity_match\": %s,\n"
                 "    \"speedup_gate_met\": %s,\n"
                 "    \"telemetry_off_ms\": %.3f, \"telemetry_on_ms\": %.3f,\n"
                 "    \"telemetry_overhead_percent\": %.2f,\n"
                 "    \"telemetry_gate_met\": %s\n  },\n"
                 "  \"swarm\": [%s\n  ],\n"
                 "  \"swarm_budget_ms\": %.0f,\n"
                 "  \"swarm_gates\": {\n"
                 "    \"objective_met\": %s, \"strict_improvement_met\": %s,\n"
                 "    \"latency_met\": %s, \"budget_zero_identity_met\": %s\n"
                 "  }\n}\n",
                 json_a1.c_str(), json_steady.c_str(),
                 reduction_met ? "true" : "false", json_journal.c_str(),
                 journal_regression, journal_gate_met ? "true" : "false",
                 json_telemetry.c_str(), telemetry_overhead,
                 telemetry_gate_met ? "true" : "false", kTenantGroups,
                 kTenantNodesPerGroup, kTenantAppsPerGroup, kTenantRounds,
                 static_cast<unsigned long long>(tenant_decisions),
                 reference_ms, partitioned_ms, reference_dps, partitioned_dps,
                 partition_speedup, identity_match ? "true" : "false",
                 partition_gate_met ? "true" : "false", domains_off_ms,
                 domains_on_ms, domains_telemetry_overhead,
                 domains_telemetry_gate_met ? "true" : "false",
                 json_swarm.c_str(), swarm_budget_ms,
                 swarm_objective_met ? "true" : "false",
                 swarm_strict_met ? "true" : "false",
                 swarm_latency_met ? "true" : "false",
                 swarm_identity_met ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_optimizer.json\n");
  }
  return ok && reduction_met && journal_gate_met && telemetry_gate_met &&
                 partition_gate_met && domains_telemetry_gate_met &&
                 swarm_gate_met
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return run(smoke);
}
