// wirebench: the wire-level benchmark of the Harmony server.
//
//   wirebench --workload steer|adapt|churn --seed N --seconds S --trace 0|1
//
// starts a primary (and, for steer, a standby) as child processes of
// this binary, drives the workload's generated request stream over at
// most four loopback connections, checks every reply and the final
// state against an in-process reference, and prints a metric table
// followed by one JSON result line. --trace 1 runs the window untraced
// and then traced and prints the per-layer metrics instead.
//
// Self-test helpers: --dump-stream prints the generated request stream;
// --tiny 1 shrinks every workload; --perturb-reference get|update|
// fingerprint corrupts one reference expectation so that one correctness
// check must fail.
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>

#include "common/strings.h"
#include "generator.h"
#include "report.h"
#include "server_stack.h"
#include "workload.h"

namespace {

using namespace wirebench;
using harmony::str_format;

struct Args {
  std::map<std::string, std::string> values;
  bool has(const std::string& key) const { return values.count(key) != 0; }
  std::string get(const std::string& key, const std::string& fallback) const {
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") return false;
    const std::string key(arg.substr(2));
    if (key == "dump-stream") {
      args->values[key] = "1";
      continue;
    }
    if (i + 1 >= argc) return false;
    args->values[key] = argv[++i];
  }
  return true;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int usage() {
  std::fprintf(stderr,
               "usage: wirebench --workload steer|adapt|churn [--seed N] "
               "[--seconds S] [--trace 0|1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  Args args;
  if (!parse_args(argc, argv, &args) || !args.has("workload")) return usage();

  WorkloadOptions wopts;
  wopts.name = args.get("workload", "");
  wopts.seed = std::strtoull(args.get("seed", "1").c_str(), nullptr, 10);
  wopts.seconds = std::atof(args.get("seconds", "10").c_str());
  wopts.tiny = args.get("tiny", "0") == "1";
  const bool trace = args.get("trace", "0") == "1";
  wopts.ladder = !trace;
  Workload workload;
  if (!make_workload(wopts, &workload)) {
    std::fprintf(stderr, "unknown workload: %s\n", wopts.name.c_str());
    return 2;
  }

  const std::string role = args.get("role", "");
  if (!role.empty()) {
    StackOptions stack;
    stack.wiring = workload.wiring;
    stack.cluster = workload.cluster;
    stack.dir = args.get("dir", ".");
    stack.trace = trace;
    stack.primary_port = std::atoi(args.get("port", "0").c_str());
    if (role == "primary") return primary_main(stack);
    if (role == "standby") return standby_main(stack);
    return usage();
  }

  if (args.has("dump-stream")) {
    const std::string text = dump_stream(workload);
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }

  RunOptions options;
  options.exe = std::filesystem::read_symlink("/proc/self/exe").string();
  options.work_dir = args.get("work-dir", ".bench_build/wirebench-runs");
  options.out_dir = args.get("out-dir", ".bench_build/wirebench-results");
  options.trace = trace;
  options.perturb = args.get("perturb-reference", "");
  if (!options.perturb.empty() && options.perturb != "get" &&
      options.perturb != "update" && options.perturb != "fingerprint") {
    return usage();
  }
  RunResult result = run_benchmark(workload, options);

  const std::string commit = args.get("commit", "unknown");
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  const std::string fs_type = filesystem_type(options.work_dir);
  std::printf("wirebench workload=%s seed=%llu seconds=%g trace=%d\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(workload.seed), wopts.seconds,
              trace ? 1 : 0);
  std::printf("  machine: nproc=%ld cpu=\"%s\" persistence_fs=%s commit=%s\n",
              nproc, cpu_model().c_str(), fs_type.c_str(), commit.c_str());
  std::printf("  wiring: %s\n", workload.wiring.describe().c_str());
  for (const auto& [key, value] : result.notes) {
    std::printf("  %s: %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& mismatch : result.mismatches) {
    std::printf("  MISMATCH: %s\n", mismatch.c_str());
  }
  if (!result.valid) {
    std::printf("  INVALID RUN: %s\n", result.invalid_reason.c_str());
    std::fflush(stdout);
    std::fprintf(stderr, "wirebench: invalid run: %s\n",
                 result.invalid_reason.c_str());
    return 3;
  }
  const std::vector<Metric>& metrics =
      trace ? result.per_layer : result.end_to_end;
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %14.4f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const Metric& metric : result.extra) {
    std::printf("  %-36s %14.4f %s (not gated)\n", metric.name.c_str(),
                metric.value, metric.unit.c_str());
  }

  // One record per run for the compare tool: the result plus every input
  // it depends on.
  std::string record = str_format(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"seconds\": %g, "
      "\"commit\": \"%s\", \"nproc\": %ld, \"cpu_model\": \"%s\", "
      "\"persistence_fs\": \"%s\", \"io_shards\": \"%s\", "
      "\"domain_workers\": \"%s\", \"wiring\": \"%s\", \"correct\": %s, "
      "\"metrics\": {",
      workload.name.c_str(), static_cast<unsigned long long>(workload.seed),
      trace ? 1 : 0, wopts.seconds, json_escape(commit).c_str(), nproc,
      json_escape(cpu_model()).c_str(), fs_type.c_str(),
      result.notes["io_shards"].c_str(), result.notes["domain_workers"].c_str(),
      json_escape(workload.wiring.describe()).c_str(),
      result.correct ? "true" : "false");
  for (size_t i = 0; i < metrics.size(); ++i) {
    record += str_format("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                         metrics[i].name.c_str(), metrics[i].value);
  }
  record += "}, \"extra\": {";
  for (size_t i = 0; i < result.extra.size(); ++i) {
    record += str_format("%s\"%s\": %.17g", i == 0 ? "" : ", ",
                         result.extra[i].name.c_str(), result.extra[i].value);
  }
  record += "}}\n";
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  if (std::FILE* out =
          std::fopen((options.out_dir + "/results.jsonl").c_str(), "a")) {
    std::fwrite(record.data(), 1, record.size(), out);
    std::fclose(out);
  }

  std::printf("%s\n", result_json(result.correct, result.attempted,
                                   result.failed, metrics)
                          .c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
