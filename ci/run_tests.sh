#!/usr/bin/env bash
# Tier-1 gate. Stages, in order:
#   1. warning-clean release build (-Werror on top of -Wall -Wextra);
#   2. the full ctest suite;
#   3. GEMM ISA-dispatch sweep: test_kernels rerun under each FEXIOT_ISA
#      tier (unsupported tiers degrade to the widest available one, so
#      the sweep is safe on any host);
#   4. corpus thread-count parity: golden statistics + content
#      fingerprints byte-identical between FEXIOT_THREADS=1 and 4;
#   5. federated-runtime parity: discrete-event trace + result digest of
#      a faulty run byte-identical across thread counts;
#   6. wire codecs: the fp64 default reproduces the committed seed trace
#      byte for byte, and each lossy codec (fp32/bf16/int8) is
#      bit-identical across thread counts while differing from fp64;
#   7. async-policy parity: the same invariant for the FedAsync-style and
#      semi-async server policies, whose staleness-weighted application
#      order is part of the trace;
#   8. tree-aggregation parity: the same invariant for hierarchical
#      edge, regional and root aggregation with aggregator faults;
#   9. 100k-client lazy-state scale smoke with an RSS ceiling;
#  10. serving smoke: the streaming engine's result digest byte-identical
#      between max_batch=1 and max_batch=8, plus a seeded Poisson soak
#      against a p99 latency bound;
#  11. explain parity: explanation subgraphs + fidelity/sparsity digests
#      of all three explainers byte-identical between FEXIOT_THREADS=1
#      and 4;
#  12. benchmark smoke: perfbench/smoke_test.py runs every BENCHMARK.json
#      workload at a tiny size, untraced and traced, so an API change the
#      benchmark harness depends on (e.g. FederatedRuntime::ExecuteRound /
#      RoundOutcome) fails here rather than in the benchmark;
#  13. ThreadSanitizer pass over the concurrency-bearing binaries (thread
#      pool / parallel facade / blocked GEMM incl. parallel PackB / SpMM
#      row fan-out / corpus fan-out / runtime-driven federated rounds /
#      lazy-state scale simulator / batched serving inference / parallel
#      explanation search with its shared score memo);
#  14. AddressSanitizer + UndefinedBehaviorSanitizer pass (undefined
#      behaviour fatal) over the runtime, codecs, GNN and model files, rule
#      parser, scale simulator and the seeded decoder fuzzer.
#
# Usage: ci/run_tests.sh [build-dir] [tsan-build-dir] [asan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
TSAN_DIR="${2:-build-tsan}"
ASAN_DIR="${3:-build-asan}"
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "==> [1/14] configure + warning-clean build (${BUILD_DIR}, -Werror)"
cmake -B "${BUILD_DIR}" -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "==> [2/14] full test suite"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "==> [3/14] GEMM ISA dispatch sweep (FEXIOT_ISA=scalar/avx2/avx512)"
for isa in scalar avx2 avx512; do
  echo "    FEXIOT_ISA=${isa}"
  FEXIOT_ISA="${isa}" "${BUILD_DIR}/tests/test_kernels" \
    --gtest_brief=1 >/dev/null
done
echo "    kernel parity holds under every FEXIOT_ISA tier"

echo "==> [4/14] corpus thread-count parity (FEXIOT_THREADS=1 vs 4)"
STATS_DIR="${BUILD_DIR}/corpus-parity"
mkdir -p "${STATS_DIR}"
FEXIOT_THREADS=1 FEXIOT_STATS_OUT="${STATS_DIR}/stats_t1.json" \
  "${BUILD_DIR}/tests/test_corpus_determinism" \
  --gtest_filter='GoldenStats.*' >/dev/null
FEXIOT_THREADS=4 FEXIOT_STATS_OUT="${STATS_DIR}/stats_t4.json" \
  "${BUILD_DIR}/tests/test_corpus_determinism" \
  --gtest_filter='GoldenStats.*' >/dev/null
if ! diff -u "${STATS_DIR}/stats_t1.json" "${STATS_DIR}/stats_t4.json"; then
  echo "FAIL: corpus statistics/fingerprints differ across thread counts"
  exit 1
fi
echo "    stats + fingerprints identical across thread counts"

echo "==> [5/14] runtime thread-count parity (event trace + result digest)"
TRACE_DIR="${BUILD_DIR}/runtime-parity"
mkdir -p "${TRACE_DIR}"
FEXIOT_THREADS=1 FEXIOT_TRACE_OUT="${TRACE_DIR}/trace_t1.txt" \
  "${BUILD_DIR}/tests/test_runtime" \
  --gtest_filter='RuntimeParity.*' >/dev/null
FEXIOT_THREADS=4 FEXIOT_TRACE_OUT="${TRACE_DIR}/trace_t4.txt" \
  "${BUILD_DIR}/tests/test_runtime" \
  --gtest_filter='RuntimeParity.*' >/dev/null
if ! diff -u "${TRACE_DIR}/trace_t1.txt" "${TRACE_DIR}/trace_t4.txt"; then
  echo "FAIL: federated runtime trace/results differ across thread counts"
  exit 1
fi
echo "    event trace + result digest identical across thread counts"

echo "==> [6/14] wire codec checks (fp64 seed golden + lossy parity)"
# The fp64 default must keep emitting byte-identical FEXMSG01 frames and
# byte-identical traces to the pre-codec seed: diff stage 5's artifact
# against the committed golden.
if ! diff -u "${TRACE_DIR}/trace_t1.txt" tests/golden/runtime_trace_seed.txt
then
  echo "FAIL: fp64 runtime trace drifted from the committed seed golden"
  exit 1
fi
# Every lossy codec must stay bit-identical across thread counts
# (quantization is a pure per-tensor function — no rng, no ordering).
for codec in fp32 bf16 int8; do
  FEXIOT_THREADS=1 FEXIOT_CODEC="${codec}" \
    FEXIOT_CODEC_TRACE_OUT="${TRACE_DIR}/codec_${codec}_t1.txt" \
    "${BUILD_DIR}/tests/test_runtime" \
    --gtest_filter='CodecParity.*' >/dev/null
  FEXIOT_THREADS=4 FEXIOT_CODEC="${codec}" \
    FEXIOT_CODEC_TRACE_OUT="${TRACE_DIR}/codec_${codec}_t4.txt" \
    "${BUILD_DIR}/tests/test_runtime" \
    --gtest_filter='CodecParity.*' >/dev/null
  if ! diff -u "${TRACE_DIR}/codec_${codec}_t1.txt" \
              "${TRACE_DIR}/codec_${codec}_t4.txt"; then
    echo "FAIL: ${codec} trace/results differ across thread counts"
    exit 1
  fi
  if diff -q "${TRACE_DIR}/codec_${codec}_t1.txt" \
             "${TRACE_DIR}/trace_t1.txt" >/dev/null; then
    echo "FAIL: ${codec} run is byte-identical to fp64 (codec inert?)"
    exit 1
  fi
done
echo "    fp64 matches the seed golden; lossy codecs are thread-parity clean"

echo "==> [7/14] async-policy thread-count parity (async + semi-async traces)"
FEXIOT_THREADS=1 FEXIOT_ASYNC_TRACE_OUT="${TRACE_DIR}/async_trace_t1.txt" \
  "${BUILD_DIR}/tests/test_runtime" \
  --gtest_filter='AsyncRuntimeParity.*' >/dev/null
FEXIOT_THREADS=4 FEXIOT_ASYNC_TRACE_OUT="${TRACE_DIR}/async_trace_t4.txt" \
  "${BUILD_DIR}/tests/test_runtime" \
  --gtest_filter='AsyncRuntimeParity.*' >/dev/null
if ! diff -u "${TRACE_DIR}/async_trace_t1.txt" \
            "${TRACE_DIR}/async_trace_t4.txt"; then
  echo "FAIL: async-policy trace/results differ across thread counts"
  exit 1
fi
echo "    async + semi-async traces/digests identical across thread counts"

echo "==> [8/14] tree-aggregation thread-count parity (hierarchical traces)"
FEXIOT_THREADS=1 FEXIOT_TREE_TRACE_OUT="${TRACE_DIR}/tree_trace_t1.txt" \
  "${BUILD_DIR}/tests/test_runtime" \
  --gtest_filter='TreeRuntimeParity.*' >/dev/null
FEXIOT_THREADS=4 FEXIOT_TREE_TRACE_OUT="${TRACE_DIR}/tree_trace_t4.txt" \
  "${BUILD_DIR}/tests/test_runtime" \
  --gtest_filter='TreeRuntimeParity.*' >/dev/null
if ! diff -u "${TRACE_DIR}/tree_trace_t1.txt" \
            "${TRACE_DIR}/tree_trace_t4.txt"; then
  echo "FAIL: tree-aggregation trace/results differ across thread counts"
  exit 1
fi
echo "    hierarchical traces/digests identical across thread counts"

echo "==> [9/14] scale smoke (100k clients, lazy state, RSS ceiling)"
FEXIOT_SLOW_TESTS=1 "${BUILD_DIR}/tests/test_scale" \
  --gtest_filter='ScaleSmoke.*' --gtest_brief=1
echo "    100k-client sampled round fits the lazy-state RSS ceiling"

echo "==> [10/14] serving smoke (batch-size digest parity + Poisson soak)"
SERVE_DIR="${BUILD_DIR}/serving-smoke"
mkdir -p "${SERVE_DIR}"
FEXIOT_SERVING_DIGEST_OUT="${SERVE_DIR}/digest_b1.txt" FEXIOT_SERVING_BATCH=1 \
  "${BUILD_DIR}/tests/test_serving" \
  --gtest_filter='ServingDigest.*' >/dev/null
FEXIOT_SERVING_DIGEST_OUT="${SERVE_DIR}/digest_b8.txt" FEXIOT_SERVING_BATCH=8 \
  "${BUILD_DIR}/tests/test_serving" \
  --gtest_filter='ServingDigest.*' >/dev/null
if ! diff -u "${SERVE_DIR}/digest_b1.txt" "${SERVE_DIR}/digest_b8.txt"; then
  echo "FAIL: serving embeddings differ between max_batch=1 and max_batch=8"
  exit 1
fi
FEXIOT_SERVING_SOAK=1 "${BUILD_DIR}/tests/test_serving" \
  --gtest_filter='ServingSoak.*' --gtest_brief=1
echo "    batched serving bit-matches sequential; soak met the latency bound"

echo "==> [11/14] explain thread-count parity (explanation digests, t=1 vs 4)"
EXPLAIN_DIR="${BUILD_DIR}/explain-parity"
mkdir -p "${EXPLAIN_DIR}"
FEXIOT_THREADS=1 FEXIOT_EXPLAIN_DIGEST_OUT="${EXPLAIN_DIR}/digest_t1.txt" \
  "${BUILD_DIR}/tests/test_explain" \
  --gtest_filter='ParallelSearch.WritesExplanationDigestArtifact' >/dev/null
FEXIOT_THREADS=4 FEXIOT_EXPLAIN_DIGEST_OUT="${EXPLAIN_DIR}/digest_t4.txt" \
  "${BUILD_DIR}/tests/test_explain" \
  --gtest_filter='ParallelSearch.WritesExplanationDigestArtifact' >/dev/null
if ! diff -u "${EXPLAIN_DIR}/digest_t1.txt" "${EXPLAIN_DIR}/digest_t4.txt"; then
  echo "FAIL: explanation subgraphs/metrics differ across thread counts"
  exit 1
fi
echo "    explanation digests identical across thread counts"

echo "==> [12/14] benchmark smoke (perfbench/smoke_test.py, every workload tiny)"
python3 perfbench/smoke_test.py
echo "    every benchmark workload builds, runs and reports its metrics"

echo "==> [13/14] TSAN pass (test_common + test_kernels + test_sparse + test_corpus_determinism + test_runtime + test_scale + test_serving + test_explain)"
cmake -B "${TSAN_DIR}" -S . \
  -DFEXIOT_SANITIZE=thread \
  -DFEXIOT_BUILD_BENCHMARKS=OFF \
  -DFEXIOT_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${TSAN_DIR}" -j "${JOBS}" \
  --target test_common test_kernels test_sparse test_corpus_determinism test_runtime test_scale test_serving test_explain
"${TSAN_DIR}/tests/test_common"
"${TSAN_DIR}/tests/test_kernels"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_sparse"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_corpus_determinism"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_runtime"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_scale"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_serving"
FEXIOT_THREADS=4 "${TSAN_DIR}/tests/test_explain"

echo "==> [14/14] ASAN+UBSAN pass (test_runtime + test_codec + test_gnn + test_rule_parser + test_scale + test_fuzz_decoders)"
cmake -B "${ASAN_DIR}" -S . \
  -DFEXIOT_SANITIZE=address \
  -DFEXIOT_BUILD_BENCHMARKS=OFF \
  -DFEXIOT_BUILD_EXAMPLES=OFF >/dev/null
cmake --build "${ASAN_DIR}" -j "${JOBS}" \
  --target test_runtime test_codec test_gnn test_rule_parser test_scale test_fuzz_decoders
for t in test_runtime test_codec test_gnn test_rule_parser test_scale \
         test_fuzz_decoders; do
  FEXIOT_THREADS=4 "${ASAN_DIR}/tests/${t}" --gtest_brief=1
done

echo "OK: tier-1 suite green, parity holds, benchmark smoke passes, TSAN + ASAN/UBSAN clean"
