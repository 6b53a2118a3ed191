#!/usr/bin/env python3
"""Build and run the wire-level benchmark.

Usage (from the repository root):

    python3 wirebench/run.py --workload steer|adapt|churn --seed N \
        --seconds S --trace 0|1

The first call configures and builds wirebench/ (a standalone CMake
project over ../src) into $CARGO_TARGET_DIR/wirebench, default
.bench_build/wirebench; later calls rebuild incrementally. Build output
goes to stderr, so the benchmark's last stdout line stays its JSON
result. Scratch state and per-run records go under the same build root.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def commit_id():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True,
            text=True, check=True, timeout=10)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return os.environ.get("WIREBENCH_COMMIT", "unknown")


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "wirebench")


def main():
    sources = os.path.join(HERE, "..", "src", "net", "server.h")
    if not os.path.isfile(sources):
        print("wirebench: the Harmony sources (src/) are missing",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(os.path.join(build_root, "wirebench"))
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"wirebench: build failed: {error}", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    defaults = {
        "--commit": commit_id(),
        "--work-dir": os.path.join(build_root, "wirebench-runs"),
        "--out-dir": os.path.join(build_root, "wirebench-results"),
    }
    for flag, value in defaults.items():
        if flag not in args:
            args += [flag, value]
    sys.stdout.flush()
    return subprocess.run([binary] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
