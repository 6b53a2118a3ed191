// The open-loop generator: starts the server processes (through the
// setup function's child roles), drives a workload's request stream over
// at most four client connections from one thread, and turns what came
// back into the benchmark's metrics. Every request is timed from its
// scheduled send time, so a stall charges every request it delays.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "workload.h"

namespace wirebench {

struct RunOptions {
  std::string exe;       // this binary, re-executed for the server roles
  std::string work_dir;  // scratch directory inside the checkout
  std::string out_dir;   // where traces are kept
  bool trace = false;    // the traced per-layer run
  // Self-test: corrupt one reference expectation so that exactly one
  // check must fail: "get" (a verified GET value), "update" (an option
  // UPDATE frame) or "fingerprint" (the final state). Empty: none.
  std::string perturb;
};

struct RunResult {
  bool valid = true;
  std::string invalid_reason;
  bool correct = true;
  std::vector<std::string> mismatches;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> extra;  // printed in the table, not in the result line
  // Diagnostics printed beside the metrics.
  std::map<std::string, std::string> notes;
};

// Runs one workload end to end. With options.trace it runs the window
// twice — untraced, then traced — and fills per_layer; otherwise it runs
// the window plus the rate ladder and fills end_to_end.
RunResult run_benchmark(const Workload& workload, const RunOptions& options);

}  // namespace wirebench
