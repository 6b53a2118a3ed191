#!/usr/bin/env python3
"""Compare two sets of wirebench results against the recorded bounds.

Usage:

    python3 wirebench/compare.py BASE CANDIDATE [--bench BENCHMARK.json]

BASE and CANDIDATE are results.jsonl files (one record per run, as the
benchmark appends them under <build root>/wirebench-results/) or
directories holding one. Only untraced records of correct runs are
compared (the tool says how many incorrect ones it dropped). For every
workload and end-to-end metric the tool reports the two medians and each
side's run-to-run spread (interquartile range over the median) and
flags only moves beyond the metric's bound from BENCHMARK.json:

  regressed   the candidate's median is worse by more than the bound
  improved    the candidate's median is better by more than the bound
  unresolved  a side's spread exceeds the bound, so a move that size
              cannot be told from noise (unless every candidate run beats
              every base run, or the reverse)
  held        otherwise

It also warns when the two sets were measured on different inputs
(machine, persistence filesystem, resolved shard or worker counts).
Exit status 1 when any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

INPUT_KEYS = ("nproc", "cpu_model", "persistence_fs", "io_shards",
              "domain_workers", "wiring", "seconds")


def load(path):
    if os.path.isdir(path):
        path = os.path.join(path, "results.jsonl")
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    untraced = [r for r in records if r.get("trace", 0) == 0]
    correct = [r for r in untraced if r.get("correct") is True]
    if len(correct) != len(untraced):
        print(f"warning: {path}: dropped {len(untraced) - len(correct)} "
              f"incorrect run(s)")
    return correct


def spread(values):
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(base, cand, bound, better):
    base_med = statistics.median(base)
    cand_med = statistics.median(cand)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (cand_med - base_med) / base_med if base_med else 0.0
    if better == "lower":
        always_better = max(cand) < min(base)
        always_worse = min(cand) > max(base)
    else:
        always_better = min(cand) > max(base)
        always_worse = max(cand) < min(base)
    noisy = spread(base) > bound or spread(cand) > bound
    if noisy and not (always_better or always_worse):
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "held", worse


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("candidate")
    parser.add_argument("--bench", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.bench, encoding="utf-8") as handle:
        bench = json.load(handle)
    base = load(args.base)
    cand = load(args.candidate)

    for key in INPUT_KEYS:
        base_values = {str(r.get(key)) for r in base}
        cand_values = {str(r.get(key)) for r in cand}
        if base_values != cand_values:
            print(f"warning: inputs differ in {key}: "
                  f"{sorted(base_values)} vs {sorted(cand_values)}")

    regressed = False
    print(f"{'workload':8} {'metric':24} {'base':>11} {'cand':>11} "
          f"{'move':>7} {'spread b/c':>13} {'bound':>6}  verdict")
    for workload in bench["workloads"]:
        name = workload["name"]
        for metric in bench["end_to_end"]:
            key = metric["name"]
            b = [r["metrics"][key] for r in base
                 if r["workload"] == name and key in r["metrics"]]
            c = [r["metrics"][key] for r in cand
                 if r["workload"] == name and key in r["metrics"]]
            if not b or not c:
                continue
            result, worse = verdict(b, c, metric["bound"], metric["better"])
            regressed = regressed or result == "regressed"
            print(f"{name:8} {key:24} {statistics.median(b):11.4f} "
                  f"{statistics.median(c):11.4f} {100 * worse:+6.1f}% "
                  f"{spread(b):6.3f}/{spread(c):6.3f} {metric['bound']:6.2f}"
                  f"  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
