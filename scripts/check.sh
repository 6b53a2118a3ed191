#!/usr/bin/env bash
# Full verification sweep: build + ctest in the regular config, then in
# the ASan+UBSan config, then the multi-threaded suites under
# ThreadSanitizer (I/O shards, fsync and replication threads cross
# threads). Usage: scripts/check.sh [-j N]
set -euo pipefail

jobs=$(nproc 2>/dev/null || echo 4)
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

run_config() {
  local name="$1" dir="$2"; shift 2
  echo "=== [$name] configure ==="
  cmake -B "$dir" -S . "$@"
  echo "=== [$name] build ==="
  cmake --build "$dir" -j "$jobs"
  echo "=== [$name] test ==="
  ctest --test-dir "$dir" --output-on-failure -j "$jobs"
}

run_config default build
run_config asan build-asan -DHARMONY_SANITIZE=ON

# TSan: only the multi-threaded suites — building the whole tree under
# a third config would double the sweep for tests that never leave one
# thread. tests/CMakeLists.txt defines the list (and why each suite is
# on it) once: the `tsan_tests` target and the `tsan` ctest label.
echo "=== [tsan] configure ==="
cmake -B build-tsan -S . -DHARMONY_TSAN=ON
echo "=== [tsan] build ==="
cmake --build build-tsan -j "$jobs" --target tsan_tests
echo "=== [tsan] test ==="
ctest --test-dir build-tsan --output-on-failure -j "$jobs" -L '^tsan$'

# Anytime-allocator gates at smoke scale: budget_ms = 0 bit-identity,
# solver <= greedy, strict improvement on packing-stress. Does not
# rewrite BENCH_optimizer.json.
echo "=== [bench] abl_optimizer --smoke ==="
cmake --build build -j "$jobs" --target abl_optimizer
./build/bench/abl_optimizer --smoke

# Multi-process failover (kill -9 the primary under a client swarm;
# standby promotes, sessions RESUME, fingerprints stay bit-identical)
# runs in the default ctest sweep above as replica_failover_test; the
# bench adds promotion latency, storm drain and the <2% replication
# overhead gate at smoke scale.
echo "=== [bench] abl_failover --smoke ==="
cmake --build build -j "$jobs" --target abl_failover
./build/bench/abl_failover --smoke

# Scoped-domain scaling at smoke scale: 250- and 1k-node clusters with
# the same fixed workload, decision fingerprints bit-identical to the
# --single-domain reference. Does not rewrite BENCH_scale.json (the
# README numbers come from the full sweep).
echo "=== [bench] abl_scale --smoke ==="
cmake --build build -j "$jobs" --target abl_scale
./build/bench/abl_scale --smoke

# Malleability gates at smoke scale: live grow/shrink strictly improves
# the bag+interactive mix, deadline tardiness ~0 under preemption, and
# the decision path is bit-identical with malleability off. The sim
# clock makes this deterministic and sub-second.
echo "=== [bench] abl_malleable --smoke ==="
cmake --build build -j "$jobs" --target abl_malleable
./build/bench/abl_malleable --smoke

echo "=== all configs green ==="
