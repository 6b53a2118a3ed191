#!/usr/bin/env python3
"""Self-test of the wire-level benchmark at tiny scale.

Run from the repository root:

    python3 wirebench/tests/selftest.py

Checks, for every workload in BENCHMARK.json:
  1. the same seed generates a byte-identical request stream and a
     different seed a different one (--dump-stream);
  2. a tiny run prints every end-to-end metric, and a tiny traced run
     every per-layer metric, each with its unit, and both are correct;
  3. the traced run prints its design check, and it passes on steer and
     adapt;
  4. each correctness check fails the run (result "correct": false, a
     nonzero exit and its own MISMATCH line) when the one reference
     expectation it compares against is deliberately perturbed: a
     verified GET value, an option UPDATE frame, the final state.
Exits nonzero on the first failed check.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
RUN = [sys.executable, os.path.join(ROOT, "wirebench", "run.py")]
BUILD_ROOT = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
# Tiny runs keep their records and traces apart from real results.
TINY = ["--tiny", "1", "--seconds", "3",
        "--out-dir", os.path.join(BUILD_ROOT, "wirebench-selftest")]
# Each perturbation and the MISMATCH line only its check prints.
PERTURBATIONS = {
    "get": r"MISMATCH: GET \S+ \S+: wire '[^']*', reference '[^']*-perturbed'",
    "update": r"MISMATCH: \S+ update 0: wire '[^']*', reference "
              r"'[^']*-perturbed'",
    "fingerprint": r"MISMATCH: primary state differs from the reference",
}


def run(args):
    return subprocess.run(RUN + args, cwd=ROOT, capture_output=True,
                          text=True, check=False)


def stream_digest(workload, seed):
    proc = run(["--workload", workload, "--seed", str(seed), "--tiny", "1",
                "--dump-stream"])
    if proc.returncode != 0 or not proc.stdout:
        raise AssertionError(f"{workload}: --dump-stream failed: {proc.stderr}")
    return hashlib.sha256(proc.stdout.encode()).hexdigest()


def result_line(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise AssertionError(f"no result line:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def check_metrics(workload, result, expected, label):
    metrics = result["metrics"]
    for metric in expected:
        got = metrics.get(metric["name"])
        if got is None:
            raise AssertionError(f"{workload} {label}: {metric['name']} missing")
        if got.get("unit") != metric["unit"]:
            raise AssertionError(
                f"{workload} {label}: {metric['name']} unit {got.get('unit')}"
                f" != {metric['unit']}")
    if set(metrics) != {m["name"] for m in expected}:
        raise AssertionError(f"{workload} {label}: unexpected metric set")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    for workload in (w["name"] for w in bench["workloads"]):
        first = stream_digest(workload, 7)
        if stream_digest(workload, 7) != first:
            raise AssertionError(f"{workload}: same seed, different stream")
        if stream_digest(workload, 8) == first:
            raise AssertionError(f"{workload}: different seed, same stream")
        print(f"{workload}: stream is a function of the seed")

        proc = run(["--workload", workload, "--seed", "7", "--trace", "0"]
                   + TINY)
        result = result_line(proc)
        if proc.returncode != 0 or not result["correct"]:
            raise AssertionError(f"{workload}: tiny run failed:\n{proc.stdout}")
        check_metrics(workload, result, bench["end_to_end"], "untraced")
        print(f"{workload}: every end-to-end metric printed with its unit")

        proc = run(["--workload", workload, "--seed", "7", "--trace", "1"]
                   + TINY)
        result = result_line(proc)
        if proc.returncode != 0 or not result["correct"]:
            raise AssertionError(f"{workload}: traced run failed:\n{proc.stdout}")
        check_metrics(workload, result, bench["per_layer"], "traced")
        print(f"{workload}: every per-layer metric printed with its unit")
        design = re.search(r"^  design_check: (PASS|FAIL|n/a)", proc.stdout,
                           re.MULTILINE)
        if design is None:
            raise AssertionError(f"{workload}: no design check printed")
        if workload in ("steer", "adapt") and design.group(1) != "PASS":
            raise AssertionError(f"{workload}: design check failed:\n"
                                 f"{proc.stdout}")
        print(f"{workload}: design check {design.group(1)}")

        for target, pattern in PERTURBATIONS.items():
            proc = run(["--workload", workload, "--seed", "7", "--trace", "0",
                        "--perturb-reference", target] + TINY)
            result = result_line(proc)
            if proc.returncode == 0 or result["correct"]:
                raise AssertionError(
                    f"{workload}: perturbed {target} was not detected")
            mismatches = re.findall(r"^  MISMATCH: .*$", proc.stdout,
                                    re.MULTILINE)
            if len(mismatches) != 1 or not re.match(pattern,
                                                    mismatches[0].strip()):
                raise AssertionError(
                    f"{workload}: perturbed {target}: expected one mismatch "
                    f"matching {pattern!r}, got {mismatches}")
            print(f"{workload}: a perturbed {target} fails only its check")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
