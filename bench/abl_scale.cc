// Scale ablation — does per-decision cost track the domain footprint
// or the cluster?
//
// The scoped-domain core shares one immutable topology across all
// domain controllers and allocates pool/version state per domain over
// its footprint only, so domain create, steady-state decisions and
// merge/split should all be O(|domain|). This bench holds the workload
// fixed — 16 active groups of 9 nodes, 4 applications each — and grows
// the cluster around it from ~250 to ~10k nodes. Per size it measures:
//
//   create_ms    median time of a registration that creates a domain
//   decision_ms  median steady-state decision (external-load report
//                routed into an existing domain)
//   merge_ms     median registration that merges two 9-node domains
//   split_ms     median departure that splits them again
//
// Every size also drives the identical event sequence into a
// --single-domain reference router and requires the full decision
// fingerprint to match bit-for-bit: the speed must come from scoping,
// never from deciding differently.
//
// The sizes run round-robin over several rounds, so every round
// measures the smallest and the largest cluster a few seconds apart,
// under the same host conditions. Gate (full mode): the median over
// rounds of the per-round decision_ms ratio, largest size over
// smallest, <= 1.3x — flat, not O(cluster). The ratios' interquartile
// range is printed beside it, and so is the first round's ratio alone
// (one pass per size, the estimator this bench used to gate on), which
// a single noisy window can push to either side of the threshold.
// Smoke mode (CI) runs the two small sizes and gates only the
// fingerprints. Results go to BENCH_scale.json; exits nonzero when a
// gate fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/controller.h"
#include "core/domain.h"
#include "test_scenarios.h"

namespace {

using namespace harmony;
using Clock = std::chrono::steady_clock;

struct Options {
  bool smoke = false;
  int rounds = 5;
  int decision_reps = 240;
  int merge_cycles = 6;
};

struct SizeResult {
  int groups = 0;
  int nodes = 0;
  size_t domains = 0;
  double create_ms = 0;
  double decision_ms = 0;
  double merge_ms = 0;
  double split_ms = 0;
  bool fingerprint_ok = false;
  bool ok = true;
  std::string error;
};

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t below = static_cast<size_t>(pos);
  const size_t above = std::min(below + 1, samples.size() - 1);
  return samples[below] +
         (samples[above] - samples[below]) * (pos - static_cast<double>(below));
}

// The per-size medians over rounds of one metric.
double median_over(const std::vector<SizeResult>& runs,
                   double SizeResult::*metric) {
  std::vector<double> values;
  for (const SizeResult& run : runs) values.push_back(run.*metric);
  return median(values);
}

// Spans two groups with no link requirement (swarm groups share no
// wires); registering it merges their domains, departure splits them.
std::string span_bundle(int group_a, int group_b, int tag) {
  return str_format(
      "harmonyBundle Span:%d where {\n"
      "  {pair\n"
      "    {node left {hostname %s-c*} {seconds 30} {memory 8}}\n"
      "    {node right {hostname %s-c*} {seconds 30} {memory 8}}}\n"
      "}\n",
      tag, testing::swarm_group_name(group_a).c_str(),
      testing::swarm_group_name(group_b).c_str());
}

SizeResult run_size(int groups, const Options& options) {
  using testing::swarm_db_bundle;
  using testing::swarm_group_name;
  using testing::swarm_par_bundle;

  SizeResult result;
  result.groups = groups;
  result.nodes = groups * 9;  // 1 server + 8 clients per group
  const int active_groups = 16;
  const int apps_per_group = 4;

  testing::SwarmConfig config;
  config.groups = groups;
  const std::string cluster = testing::swarm_cluster_script(config);

  core::DomainRouter router;
  core::DomainRouterConfig reference_config;
  reference_config.single_domain = true;
  core::DomainRouter reference(reference_config);
  double now = 0;
  auto source = [&now] { return now; };
  router.set_time_source(source);
  reference.set_time_source(source);
  if (!router.add_nodes_script(cluster).ok() ||
      !router.finalize_cluster().ok() ||
      !reference.add_nodes_script(cluster).ok() ||
      !reference.finalize_cluster().ok()) {
    result.ok = false;
    result.error = "cluster setup failed";
    return result;
  }

  auto drive_both = [&](const std::string& script) {
    auto a = router.register_script(script);
    auto b = reference.register_script(script);
    if (!a.ok() || !b.ok() || a.value() != b.value()) {
      result.ok = false;
      result.error = "registration diverged: " +
                     (a.ok() ? std::string("reference failed")
                             : a.error().message);
      return core::InstanceId(0);
    }
    return a.value();
  };

  // Fixed workload: the first registration per group creates a domain
  // (timed), the rest land in it.
  std::vector<double> create_samples;
  for (int g = 0; g < active_groups && result.ok; ++g) {
    for (int a = 0; a < apps_per_group && result.ok; ++a) {
      const int tag = g * apps_per_group + a + 1;
      const std::string script = a % 2 == 0 ? swarm_db_bundle(g, tag)
                                            : swarm_par_bundle(g, tag);
      now += 5;
      if (a == 0) {
        // Time the router alone, then replay into the reference.
        const auto t0 = Clock::now();
        auto id = router.register_script(script);
        create_samples.push_back(ms_since(t0));
        auto ref = reference.register_script(script);
        if (!id.ok() || !ref.ok() || id.value() != ref.value()) {
          result.ok = false;
          result.error = "create registration diverged";
        }
      } else {
        drive_both(script);
      }
    }
  }
  if (!result.ok) return result;
  result.create_ms = median(create_samples);

  // Steady-state decisions: owner-routed external-load reports, the
  // per-epoch workhorse event. Values alternate so every report moves
  // contention and forces a real decision pass.
  std::vector<double> decision_samples;
  for (int i = 0; i < options.decision_reps; ++i) {
    const int g = i % active_groups;
    const std::string host =
        str_format("%s-c%02d", swarm_group_name(g).c_str(), i % 8);
    const int tasks = 1 + i % 3;
    now += 1;
    const auto t0 = Clock::now();
    if (!router.report_external_load(host, tasks).ok()) {
      result.ok = false;
      result.error = "load report failed";
      return result;
    }
    decision_samples.push_back(ms_since(t0));
    if (!reference.report_external_load(host, tasks).ok()) {
      result.ok = false;
      result.error = "reference load report failed";
      return result;
    }
  }
  result.decision_ms = median(decision_samples);

  // Merge/split cycles between two fixed active groups.
  std::vector<double> merge_samples, split_samples;
  int span_tag = 1000;
  for (int cycle = 0; cycle < options.merge_cycles; ++cycle) {
    now += 5;
    const std::string script = span_bundle(1, 9, span_tag++);
    const auto t0 = Clock::now();
    auto id = router.register_script(script);
    merge_samples.push_back(ms_since(t0));
    auto ref = reference.register_script(script);
    if (!id.ok() || !ref.ok() || id.value() != ref.value()) {
      result.ok = false;
      result.error = "merge registration diverged";
      return result;
    }
    now += 5;
    const auto t1 = Clock::now();
    if (!router.unregister(id.value()).ok()) {
      result.ok = false;
      result.error = "split departure failed";
      return result;
    }
    split_samples.push_back(ms_since(t1));
    if (!reference.unregister(ref.value()).ok()) {
      result.ok = false;
      result.error = "reference departure failed";
      return result;
    }
  }
  result.merge_ms = median(merge_samples);
  result.split_ms = median(split_samples);

  result.domains = router.domain_count();
  result.fingerprint_ok =
      testing::fingerprint(router) == testing::fingerprint(reference);
  if (!result.fingerprint_ok) {
    result.ok = false;
    result.error = "decision fingerprint diverged from --single-domain";
  }
  return result;
}

int run(const Options& options) {
  const std::vector<int> group_counts =
      options.smoke ? std::vector<int>{28, 112}
                    : std::vector<int>{28, 112, 445, 1112};

  std::printf(
      "=== Scoped domains: fixed 16x9-node workload, growing cluster ===\n");
  std::printf("%6s %8s %8s %8s %11s %13s %10s %10s %6s\n", "round", "groups",
              "nodes", "domains", "create_ms", "decision_ms", "merge_ms",
              "split_ms", "ident");

  // runs[size][round], filled round-robin: every round visits every
  // size once, in order.
  std::vector<std::vector<SizeResult>> runs(group_counts.size());
  bool ok = true;
  for (int round = 1; round <= options.rounds && ok; ++round) {
    for (size_t i = 0; i < group_counts.size(); ++i) {
      SizeResult result = run_size(group_counts[i], options);
      std::printf("%6d %8d %8d %8zu %11.3f %13.4f %10.3f %10.3f %6s\n", round,
                  result.groups, result.nodes, result.domains,
                  result.create_ms, result.decision_ms, result.merge_ms,
                  result.split_ms, result.fingerprint_ok ? "yes" : "NO");
      if (!result.ok) {
        std::printf("  !! %d groups: %s\n", group_counts[i],
                    result.error.c_str());
        ok = false;
      }
      runs[i].push_back(result);
    }
  }

  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::vector<double> decision_ratios;
  double decision_ratio = 0, ratio_iqr = 0, single_pass_ratio = 0,
         create_ratio = 0, merge_ratio = 0, split_ratio = 0;
  bool gate_met = true;
  if (ok && runs.size() > 1) {
    const std::vector<SizeResult>& small = runs.front();
    const std::vector<SizeResult>& large = runs.back();
    for (size_t r = 0; r < small.size(); ++r) {
      decision_ratios.push_back(
          ratio(large[r].decision_ms, small[r].decision_ms));
    }
    decision_ratio = quantile(decision_ratios, 0.5);
    ratio_iqr = quantile(decision_ratios, 0.75) -
                quantile(decision_ratios, 0.25);
    single_pass_ratio = decision_ratios.front();
    create_ratio = ratio(median_over(large, &SizeResult::create_ms),
                         median_over(small, &SizeResult::create_ms));
    merge_ratio = ratio(median_over(large, &SizeResult::merge_ms),
                        median_over(small, &SizeResult::merge_ms));
    split_ratio = ratio(median_over(large, &SizeResult::split_ms),
                        median_over(small, &SizeResult::split_ms));
    std::printf("\nper-round decision ratios %d -> %d nodes:",
                small.front().nodes, large.front().nodes);
    for (double r : decision_ratios) std::printf(" %.2f", r);
    std::printf("\n");
    if (!options.smoke) {
      // Smoke spans only 250->1k nodes; too little lever arm (and too
      // much CI noise) for a latency-ratio gate, so it gates identity
      // only. The full sweep holds the decision path flat across 40x.
      gate_met = decision_ratio <= 1.3;
      std::printf(
          "decision latency %dx nodes: median of %zu rounds %.2fx "
          "(IQR %.2f; <=1.30x required): %s\n",
          large.front().nodes / small.front().nodes, decision_ratios.size(),
          decision_ratio, ratio_iqr, gate_met ? "PASS" : "FAIL");
      std::printf("single-pass ratio (round 1 alone, ungated): %.2fx\n",
                  single_pass_ratio);
      std::printf("create %.2fx  merge %.2fx  split %.2fx (medians over "
                  "rounds, ungated)\n",
                  create_ratio, merge_ratio, split_ratio);
    }
  }
  ok = ok && gate_met;

  if (options.smoke) {
    // Smoke validates identity at reduced scale without clobbering the
    // full-size numbers.
    std::printf("\nsmoke mode: BENCH_scale.json not rewritten\n");
    return ok ? 0 : 1;
  }
  // Per size: medians over rounds.
  std::string sizes_json;
  for (const auto& size_runs : runs) {
    const SizeResult& first = size_runs.front();
    bool identical = true;
    for (const SizeResult& run : size_runs) {
      identical = identical && run.fingerprint_ok;
    }
    if (!sizes_json.empty()) sizes_json += ",";
    sizes_json += str_format(
        "\n    {\"groups\": %d, \"nodes\": %d, \"domains\": %zu, "
        "\"create_ms\": %.4f, \"decision_ms\": %.4f, \"merge_ms\": %.4f, "
        "\"split_ms\": %.4f, \"fingerprint_ok\": %s}",
        first.groups, first.nodes, first.domains,
        median_over(size_runs, &SizeResult::create_ms),
        median_over(size_runs, &SizeResult::decision_ms),
        median_over(size_runs, &SizeResult::merge_ms),
        median_over(size_runs, &SizeResult::split_ms),
        identical ? "true" : "false");
  }
  std::string ratios_json;
  for (double r : decision_ratios) {
    if (!ratios_json.empty()) ratios_json += ", ";
    ratios_json += str_format("%.3f", r);
  }
  FILE* out = std::fopen("BENCH_scale.json", "w");
  if (out != nullptr) {
    std::fprintf(out,
                 "{\n  \"bench\": \"abl_scale\",\n"
                 "  \"rounds\": %d,\n"
                 "  \"sizes\": [%s\n  ],\n"
                 "  \"decision_ratios\": [%s],\n"
                 "  \"decision_ratio\": %.3f,\n"
                 "  \"decision_ratio_iqr\": %.3f,\n"
                 "  \"single_pass_decision_ratio\": %.3f,\n"
                 "  \"create_ratio\": %.3f,\n"
                 "  \"merge_ratio\": %.3f,\n  \"split_ratio\": %.3f,\n"
                 "  \"decision_gate_met\": %s\n}\n",
                 options.rounds, sizes_json.c_str(), ratios_json.c_str(),
                 decision_ratio, ratio_iqr, single_pass_ratio, create_ratio,
                 merge_ratio, split_ratio, gate_met ? "true" : "false");
    std::fclose(out);
    std::printf("wrote BENCH_scale.json\n");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      options.rounds = 2;
      options.decision_reps = 60;
      options.merge_cycles = 2;
    } else {
      std::fprintf(stderr, "usage: abl_scale [--smoke]\n");
      return 2;
    }
  }
  return run(options);
}
