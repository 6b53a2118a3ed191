#!/usr/bin/env python3
"""Interleaved parent/change pairs of the wire-level benchmark.

Usage (from anywhere):

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        [--workloads churn,adapt,steer] [--pairs 10] [--seed 1000] \\
        [--seconds 30] [--records FILE]
    python3 scripts/bench_pairs.py --report FILE [--bench BENCHMARK.json]

DIR is a checkout of each side (a `git clone` or an unpacked
`git archive` of the two commits). Pair i runs
`python3 wirebench/run.py --workload W --seed SEED+i --seconds S
--trace 0` once in each checkout, one run at a time, and alternates
which side runs first, so slow drift on the host lands on both sides
equally. Each side builds into its own `<DIR>/.bench_build`. Every
run's result line is appended to the records file (JSON lines) as it
finishes; `--report` prints the table again from such a file.

For each workload and end-to-end metric of BENCHMARK.json the table
gives each side's median with its quartiles, how many pairs the change
won, and the verdict:

  gain      the change won at least 90% of the pairs (9 of 10) and its
            median beats the parent's by more than the parent's
            interquartile range
  worse     the change's median is worse than the parent's by more
            than the metric's bound
  -         neither

Runs that were invalid or incorrect (a failed request makes a run
incorrect) are listed and left out of their pair; each side's failed
requests are totalled. Below the table every valid run's attempted
request count is printed, and runs that attempted under half the
workload's median are marked: such a run stopped early and its
metrics describe a lighter load. Exit status 1 when any metric is
worse.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCH = os.path.join(HERE, "..", "BENCHMARK.json")


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(checkout, ".bench_build")
    proc = subprocess.run(
        [sys.executable, "wirebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True, check=False)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        return {"exit": proc.returncode, "valid": False,
                "stderr_tail": proc.stderr[-400:]}
    result["exit"] = proc.returncode
    result["valid"] = True
    return result


def usable(record):
    return (record.get("valid") and record.get("correct") is True
            and record.get("failed", 0) == 0)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def report(records, bench_path):
    with open(bench_path, encoding="utf-8") as handle:
        bench = json.load(handle)
    worse_any = False
    workloads = []
    for record in records:
        if record["workload"] not in workloads:
            workloads.append(record["workload"])
    for workload in workloads:
        runs = [r for r in records if r["workload"] == workload]
        dropped = [r for r in runs if not usable(r)]
        for r in dropped:
            print(f"{workload}: dropped {r['side']} run, pair {r['pair']} "
                  f"(seed {r['seed']}): exit {r.get('exit')}, "
                  f"correct {r.get('correct')}, failed {r.get('failed')}")
        pairs = {}
        for r in runs:
            if usable(r):
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        print(f"\n{workload}: {len(pairs)} complete pairs")
        for side in ("parent", "change"):
            mine = [r for r in runs if r["side"] == side and r.get("valid")]
            failed = sum(r.get("failed", 0) for r in mine)
            attempted = sum(r.get("attempted", 0) for r in mine)
            print(f"  {side}: {failed} of {attempted} requests failed")
        if not pairs:
            continue
        print(f"  {'metric':24s} {'parent p50 [q1, q3]':>28s} "
              f"{'change p50 [q1, q3]':>28s} {'won':>7s}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            lower = metric["better"] == "lower"
            try:
                base = [p["parent"]["metrics"][name]["value"] for p in pairs]
                cand = [p["change"]["metrics"][name]["value"] for p in pairs]
            except KeyError:
                continue
            wins = sum(1 for b, c in zip(base, cand)
                       if (c < b if lower else c > b))
            base_med, cand_med = statistics.median(base), statistics.median(cand)
            b1, b3 = quartiles(base)
            c1, c3 = quartiles(cand)
            gain = (cand_med - base_med) * (-1 if lower else 1)
            worse = -gain / base_med if base_med else 0.0
            if wins >= 0.9 * len(pairs) and gain > b3 - b1:
                verdict = "gain"
            elif worse > metric["bound"]:
                verdict = "worse"
                worse_any = True
            else:
                verdict = "-"
            print(f"  {name:24s} {base_med:10.4g} [{b1:.4g}, {b3:.4g}]"
                  f"{'':>2s} {cand_med:10.4g} [{c1:.4g}, {c3:.4g}]"
                  f"{'':>2s} {wins:3d}/{len(pairs):<3d}  {verdict}")
        print_attempted(runs)
    return 1 if worse_any else 0


def print_attempted(runs):
    """Prints each valid run's attempted request count, per side, in pair
    order. A run that attempted under half the workload's median stopped
    early (say, at the first rung of a load ladder); it is marked `*`,
    since its metrics describe a different offered load."""
    valid = [r for r in runs if r.get("valid")]
    if not valid:
        return
    median = statistics.median(r.get("attempted", 0) for r in valid)
    short = 0
    for side in ("parent", "change"):
        cells = []
        for r in sorted((r for r in valid if r["side"] == side),
                        key=lambda r: r["pair"]):
            attempted = r.get("attempted", 0)
            mark = "*" if attempted < median / 2 else ""
            short += 1 if mark else 0
            cells.append(f"{r['pair']}:{attempted}{mark}")
        print(f"  attempted, {side} (pair:count): {' '.join(cells)}")
    if short:
        print(f"  * {short} run(s) attempted under half the median "
              f"({median:.0f}): they stopped early")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workloads", default="churn,adapt,steer")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--records", default="bench_pairs.jsonl")
    parser.add_argument("--report")
    parser.add_argument("--bench", default=DEFAULT_BENCH)
    args = parser.parse_args()

    if args.report:
        with open(args.report, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        return report(records, args.bench)
    if not args.parent or not args.change:
        parser.error("--parent and --change are required unless --report")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    records = []
    with open(args.records, "a", encoding="utf-8") as out:
        for pair in range(args.pairs):
            seed = args.seed + pair
            order = ["parent", "change"] if pair % 2 == 0 else ["change",
                                                                 "parent"]
            for workload in args.workloads.split(","):
                for side in order:
                    result = run_once(sides[side], workload, seed,
                                      args.seconds)
                    result.update(side=side, workload=workload, seed=seed,
                                  pair=pair)
                    records.append(result)
                    out.write(json.dumps(result) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: "
                          f"{'ok' if usable(result) else 'unusable'}",
                          file=sys.stderr, flush=True)
    return report(records, args.bench)


if __name__ == "__main__":
    sys.exit(main())
