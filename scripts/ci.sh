#!/usr/bin/env bash
# Tier-1 gate: warnings-as-errors build + full test suite.
#
#   scripts/ci.sh                        # plain gate
#   GRAF_SANITIZE=1 scripts/ci.sh        # same gate under ASan/UBSan
#   GRAF_SANITIZE=thread scripts/ci.sh   # same gate under TSan (parallel layer)
#
# Uses a dedicated build dir so it never disturbs an existing ./build.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-ci}
case "${GRAF_SANITIZE:-0}" in
  0) SANITIZE_FLAG=OFF ;;
  1) SANITIZE_FLAG=address ;;
  *) SANITIZE_FLAG=${GRAF_SANITIZE} ;;
esac

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_CXX_FLAGS=-Werror \
  -DGRAF_SANITIZE="$SANITIZE_FLAG"
cmake --build "$BUILD_DIR" -j "$(nproc)"

# The thread pool's two exception cases, repeated: the caller rethrows an
# exception that pool workers also held, and a race on it shows only in some
# runs (under TSan, about one in 30 before the caller took ownership of it).
"$BUILD_DIR"/tests/graf_tests --gtest_repeat=50 \
  --gtest_filter='ThreadPool.ParallelForRethrowsFirstExceptionByIndex:ThreadPool.NestedParallelForPropagatesInnerExceptionByIndex'

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# The chaos group (fault injection + degraded-mode integration), the fleet
# group (multi-tenant control plane, including the §3.13 batched-vs-
# per-tenant bitwise-identity tests), the forecast group (workload
# forecasting + pre-warmed planning), the fuzz group (seeded byte mutation
# of the .grafck checkpoint decoder), the surrogate group (distilled
# fast-path planning, §3.14 — solver-in-the-loop distillation and tiered
# solves carry the same bit-identity contract), and the solver group
# (golden descent digests on the four paper topologies, and the descent's
# dead-backward skip against a descent that runs every backward) and the
# training pins (the three models' short fits through the one sharded loop)
# again at pinned thread counts: these runs must replay bit-identically
# whether the pool has 1 worker or 8 (DESIGN.md §3.7/§3.8/§3.10/§3.11/§3.13/§3.14
# determinism contract). Under the sanitizer legs this doubles as the
# ASan/TSan pass over the fleet's ingest ring, subscriber registry,
# registry hot-swap paths, the checkpoint decoder and the training shards.
for threads in 1 8; do
  GRAF_THREADS=$threads \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -L 'chaos|fleet|forecast|fuzz|surrogate|solver'
  GRAF_THREADS=$threads \
    ctest --test-dir "$BUILD_DIR" --output-on-failure -R '^TrainPin\.'
done

# The frozen end-to-end benchmark (bench/e2e), built from this checkout into
# a directory beside the CI build dirs under the leg's sanitizer. Its smoke
# runs every workload at tiny sizes, traced and untraced, and exits non-zero
# when a plan invariant, the warm-up digest, the layer replay, the pool-size
# replay or a BENCHMARK.json metric fails. Without it a library change that
# breaks the benchmark's build or its checks would surface only in the
# benchmark's own runs. A sanitizer build reports correctness only
# (run.py's two presets, mapped as the root CMakeLists maps GRAF_SANITIZE).
E2E_ARGS=(--smoke)
case "$SANITIZE_FLAG" in
  OFF) ;;
  thread) E2E_ARGS+=(--sanitize thread) ;;
  *) E2E_ARGS+=(--sanitize address) ;;
esac
CARGO_TARGET_DIR="$BUILD_DIR-e2e" python3 bench/e2e/run.py "${E2E_ARGS[@]}"

# Portable build (plain leg only): the tensor kernels compiled without the
# host ISA must reproduce the native build's bits, so the golden solver
# digests, the kernel/serve cases that compare exact values, the frozen
# pass's bit-for-bit cases against the tape and the training pins (short
# fits at dropout 0.25; the solver label's teachers train at dropout 0 only)
# run again in a second build directory at GRAF_NATIVE=OFF.
# The full suite is not rerun there: without hardware FMA every std::fma is
# a library call, and the training-heavy suites take tens of minutes.
if [ "$SANITIZE_FLAG" = OFF ]; then
  PORTABLE_DIR="$BUILD_DIR-portable"
  cmake -B "$PORTABLE_DIR" -S . \
    -DCMAKE_CXX_FLAGS=-Werror \
    -DGRAF_NATIVE=OFF
  cmake --build "$PORTABLE_DIR" -j "$(nproc)" --target graf_tests graf_solver_golden_tests
  ctest --test-dir "$PORTABLE_DIR" --output-on-failure -L solver
  ctest --test-dir "$PORTABLE_DIR" --output-on-failure -R '^(Tensor|ServeFixture|TrainPin|FrozenPass)\.'

  # The same cases on the AVX2 tier (two 4-wide vectors per 8-column strip):
  # the host has AVX-512, so neither build above compiles it. The explicit
  # -ffp-contract=off keeps every other file from fusing, as in the tensor
  # kernels' own options.
  AVX2_DIR="$BUILD_DIR-avx2"
  cmake -B "$AVX2_DIR" -S . \
    -DCMAKE_CXX_FLAGS='-Werror -mavx2 -mfma -ffp-contract=off' \
    -DGRAF_NATIVE=OFF
  cmake --build "$AVX2_DIR" -j "$(nproc)" --target graf_tests graf_solver_golden_tests
  ctest --test-dir "$AVX2_DIR" --output-on-failure -L solver
  ctest --test-dir "$AVX2_DIR" --output-on-failure -R '^(Tensor|ServeFixture|TrainPin|FrozenPass)\.'
fi

# Perf smoke gate (plain leg only: sanitizer overhead would trip any time
# threshold): >25% regression on the hot-path benchmarks vs BENCH_perf.json.
if [ "$SANITIZE_FLAG" = OFF ]; then
  python3 scripts/bench_check.py --build-dir "$BUILD_DIR"
fi
