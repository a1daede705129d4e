#!/usr/bin/env bash
# CI entry point. Stages, in order:
#
#   lint      scripts/lint_zkdet.py (tree + self-test, including the
#             raw-mutex rule corpus); clang-tidy when the binary exists
#             (config in .clang-tidy), skipped otherwise
#   analysis  clang++ -Wthread-safety -Werror=thread-safety compile of
#             the whole tree (-DZKDET_THREAD_SAFETY=ON, build-analysis/):
#             proves lock discipline over every zkdet::Mutex annotation
#             at compile time. Skipped with a notice when clang++ is
#             absent (the annotations are no-ops on GCC; the raw-mutex
#             lint rule still holds the annotation surface closed).
#   tier-1    default build + full ctest            (build/)
#   checked   -DZKDET_CHECKED=ON full ctest         (build-checked/)
#   chaos     extended seeded fault schedules, invariant checks armed
#             (reuses build-checked/; seeds disjoint from the in-suite
#             1..30 set, override with ZKDET_CHAOS_SEEDS)
#   asan      -DZKDET_SANITIZE=address,undefined    (build-asan/)
#   persistence  ledger crash-recovery matrix under the ASan build:
#             kill-at-every-fail-point, reopen, replay, state equality
#   replication  failover chaos matrix under the ASan build: every
#             repl.* fail-point x kill position, kill the primary,
#             promote the follower, resume byte-identically. The
#             in-suite ctest runs cover kill positions 1..10; this
#             stage replays a disjoint 11..15 slice (override with
#             ZKDET_REPL_MATRIX_HITS)
#   tsan      -DZKDET_SANITIZE=thread, FULL suite   (build-tsan/)
#   fuzz      -DZKDET_FUZZ=ON, 10s smoke per target (build-fuzz/)
#
# Usage: scripts/ci.sh [--quick] [--skip-tsan]
#   --quick      lint + analysis + tier-1 + bench smokes (MSM sweep,
#                chain pipeline, replication, RPC) + a disjoint failover
#                matrix slice + the socket-link tests under lockdep
#                (checked build) + the e2ebench smoke test + the
#                concurrent provenance-audit and 32-prover tests under TSan
#                (pre-push sanity; minutes, not hours; analysis is
#                compile-only so it stays in quick)
#   --skip-tsan  everything except the TSan stages (they are the slowest)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "=== lint: zkdet rules ==="
python3 scripts/lint_zkdet.py
python3 scripts/lint_zkdet.py --self-test
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== lint: clang-tidy ==="
  cmake -B build -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  # Narrowing/init checks on the arithmetic substrate; full-tree tidy is
  # too slow for every CI run.
  clang-tidy -p build --quiet src/ff/*.cpp src/ec/*.cpp
else
  echo "=== lint: clang-tidy not installed, skipping ==="
fi

if command -v clang++ >/dev/null 2>&1; then
  echo "=== analysis: clang -Wthread-safety build (compile-time lock proof) ==="
  # ZKDET_CHECKED=ON so the lockdep code paths are type-checked too.
  cmake -B build-analysis -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DZKDET_THREAD_SAFETY=ON -DZKDET_CHECKED=ON
  cmake --build build-analysis -j
else
  echo "=== analysis: clang++ not installed, skipping thread-safety build ==="
  echo "    (annotations are no-ops on GCC; raw-mutex lint still enforced)"
fi

echo "=== tier-1: build + full test suite ==="
cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure -j

if [[ "$QUICK" == "1" ]]; then
  echo "=== bench: MSM sweep smoke (quick, writes BENCH_msm.json) ==="
  # n = 2^8..2^12 for G1 and G2, so both bucket accumulators run; fails
  # unless every MSM equals the sum of the MSMs of its two halves.
  cmake --build build -j --target bench_primitives
  ./build/bench/bench_primitives --msm-sweep=quick
  echo "=== bench: chain pipeline smoke (quick, writes BENCH_chain.json) ==="
  # Exercises the full txpool pipeline (serial baseline + parallel worker
  # sweep + conflict injection + a pooled exchange) and fails on any
  # serial-vs-parallel block/WAL divergence.
  cmake --build build -j --target bench_chain
  ./build/bench/bench_chain --quick
  echo "=== bench: batched-settlement sweep (quick, writes BENCH_aggregate.json) ==="
  # Per-proof verification gas vs batch size N in {1,4,16,64} under the
  # claim-verdict gas split; exits nonzero unless amortization at N=16
  # is >= 1.5x.
  cmake --build build -j --target bench_table2_gas
  ./build/bench/bench_table2_gas
  echo "=== replication: disjoint failover-matrix slice (quick) ==="
  # The tier-1 ctest above already swept kill positions 1..10; replay a
  # disjoint slice so quick runs still probe kill positions the suite
  # default never visits.
  ZKDET_REPL_MATRIX_HITS="${ZKDET_REPL_MATRIX_HITS:-11-13}" \
    ./build/tests/replication_failover_matrix
  echo "=== checked: socket-link lock order under lockdep (quick) ==="
  # Lockdep runs only with ZKDET_CHECKED=ON, so tier-1 cannot see a lock
  # taken at the level of one already held; the socket link takes both
  # of its endpoint locks at one level.
  cmake -B build-checked -S . -DZKDET_CHECKED=ON
  cmake --build build-checked -j --target zkdet_replication_tests
  ./build-checked/tests/zkdet_replication_tests --gtest_filter='SocketLink.*'
  echo "=== bench: replication smoke (quick, writes BENCH_repl.json) ==="
  # Ship throughput, cold-follower catch-up lag (WAL vs snapshot) and
  # promotion time; fails on promoted-chain divergence.
  cmake --build build -j --target bench_repl
  ./build/bench/bench_repl --quick
  echo "=== bench: RPC serving-layer smoke (quick, writes BENCH_rpc.json) ==="
  # Sustained req/s + p50/p99 through the socket front end and a 2x
  # overload burst; fails if any request lacks exactly one typed
  # response, the queue depth bound is exceeded, or p99 blows its budget.
  cmake --build build -j --target bench_rpc
  ./build/bench/bench_rpc --quick
  echo "=== e2e: end-to-end benchmark smoke test ==="
  # Builds zkdet_e2e from source and runs every workload briefly,
  # including a forced gate failure that must be reported as such.
  python3 e2ebench/smoke_test.py
  if [[ "$SKIP_TSAN" == "1" ]]; then
    echo "=== tsan: concurrent provenance audits skipped (--skip-tsan) ==="
  else
    echo "=== tsan: concurrent provenance audits and provers (quick) ==="
    # Four pool threads verify provenance chains at once, the e2ebench
    # audit shape: statement rebuild, key lookup and the chain fold
    # must be race-free. 32 concurrent provers share one Srs, which they
    # read without a lock: it must be immutable after setup. The full
    # TSan stage runs the whole suite.
    cmake -B build-tsan -S . -DZKDET_SANITIZE=thread
    cmake --build build-tsan -j --target zkdet_core_tests zkdet_runtime_tests
    ./build-tsan/tests/zkdet_core_tests \
      --gtest_filter='ProtocolFixture.ConcurrentAuditorsVerifyChains'
    ./build-tsan/tests/zkdet_runtime_tests \
      --gtest_filter='RuntimeTest.StressThirtyTwoConcurrentJobs'
  fi
  echo "=== quick mode: remaining stages skipped ==="
  echo "=== CI OK (quick) ==="
  exit 0
fi

echo "=== checked: full suite under -DZKDET_CHECKED=ON ==="
cmake -B build-checked -S . -DZKDET_CHECKED=ON
cmake --build build-checked -j
ctest --test-dir build-checked --output-on-failure -j

echo "=== checked: MSM and constant-time fixed-base differential suites ==="
./build-checked/tests/zkdet_math_tests \
  --gtest_filter='MsmDifferential*:SmallMsm*:BatchNormalize*:MixedAdd*:LadderOracle*:FixedBaseCt*'

echo "=== chaos: extended seeded fault schedules under -DZKDET_CHECKED=ON ==="
# Every ctest run above already covers chaos seeds 1..30; this stage
# replays a second, fixed, disjoint seed set with ZKDET_CHECK armed. A
# failing schedule prints its seed; replay it alone with
#   ZKDET_CHAOS_SEEDS=<seed> ./build-checked/tests/zkdet_chaos_tests
ZKDET_CHAOS_SEEDS="${ZKDET_CHAOS_SEEDS:-101,102,103,104,105,106,107,108,109,110,111,112,113,114,115}" \
  ./build-checked/tests/zkdet_chaos_tests

echo "=== asan+ubsan: full suite under -DZKDET_SANITIZE=address,undefined ==="
cmake -B build-asan -S . -DZKDET_SANITIZE=address,undefined -DZKDET_CHECKED=ON
cmake --build build-asan -j
ctest --test-dir build-asan --output-on-failure -j

echo "=== persistence: crash-recovery matrix under ASan ==="
# Every ledger fail-point x hit position: kill mid-write, reopen, replay,
# require byte-identical convergence with the uninterrupted run — with
# ASan watching the truncation/replay paths for memory errors.
./build-asan/tests/ledger_crash_matrix
./build-asan/tests/zkdet_ledger_tests

echo "=== replication: failover chaos matrix under ASan ==="
# Every repl.* fail-point x kill position: stream, kill the primary,
# promote the follower, resume — the promoted chain must be
# byte-identical to the uninterrupted control (funds conserved, every
# exchange settled xor refunded). The in-suite runs cover kill
# positions 1..10; this replays a disjoint 11..15 slice with ASan
# watching the shipping/truncation/promotion paths.
./build-asan/tests/zkdet_replication_tests
ZKDET_REPL_MATRIX_HITS="${ZKDET_REPL_MATRIX_HITS:-11-15}" \
  ./build-asan/tests/replication_failover_matrix

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "=== TSan stage skipped (--skip-tsan) ==="
else
  echo "=== tsan: full suite under -DZKDET_SANITIZE=thread ==="
  cmake -B build-tsan -S . -DZKDET_SANITIZE=thread
  cmake --build build-tsan -j
  ctest --test-dir build-tsan --output-on-failure -j
  echo "=== tsan: parallel batch executor focus ==="
  # The txpool determinism suite is the densest producer of cross-thread
  # batch execution (worker sweeps x randomized submission orders); run
  # it again on its own so a race here fails loudly and attributably.
  ./build-tsan/tests/zkdet_txpool_tests \
    --gtest_filter='TxpoolDeterminism*:TxpoolScheduler*:TxpoolCall*'
fi

echo "=== fuzz: 10s smoke per target ==="
cmake -B build-fuzz -S . -DZKDET_FUZZ=ON
cmake --build build-fuzz -j --target zkdet_fuzz_u256 --target zkdet_fuzz_transcript \
  --target zkdet_fuzz_wal --target zkdet_fuzz_rpc_wire \
  --target zkdet_fuzz_repl_frame
# ZKDET_FUZZ_SECONDS drives the GCC standalone driver; -max_total_time
# drives Clang/libFuzzer builds (the standalone driver ignores dash-args).
FUZZ_SECS="${ZKDET_FUZZ_SECONDS:-10}"
ZKDET_FUZZ_SECONDS="$FUZZ_SECS" ./build-fuzz/fuzz/zkdet_fuzz_u256 "-max_total_time=$FUZZ_SECS"
ZKDET_FUZZ_SECONDS="$FUZZ_SECS" ./build-fuzz/fuzz/zkdet_fuzz_transcript "-max_total_time=$FUZZ_SECS"
ZKDET_FUZZ_SECONDS="$FUZZ_SECS" ./build-fuzz/fuzz/zkdet_fuzz_wal "-max_total_time=$FUZZ_SECS"
ZKDET_FUZZ_SECONDS="$FUZZ_SECS" ./build-fuzz/fuzz/zkdet_fuzz_rpc_wire "-max_total_time=$FUZZ_SECS"
ZKDET_FUZZ_SECONDS="$FUZZ_SECS" ./build-fuzz/fuzz/zkdet_fuzz_repl_frame "-max_total_time=$FUZZ_SECS"

echo "=== CI OK ==="
