#!/usr/bin/env bash
# tools/check.sh — the one statement of the verification gate:
# configure + build with warnings-as-errors, run the model linter, run
# the whole test suite, prove the cold/warm store, memory-centric,
# repro --all, observability and serve contracts end to end, and
# (where the clang tools are installed) clang-tidy and a
# non-destructive clang-format conformance pass.  CI runs this script
# in its release, ASan and UBSan legs instead of restating any stage.
#
# Usage:
#   tools/check.sh [options]
#
# Options:
#   --build-dir DIR    build directory           (default: build-check)
#   --sanitize WHAT    SPECLENS_SANITIZE value: thread | address |
#                      undefined                 (default: none)
#   --jobs N           parallel build/test jobs  (default: nproc)
#   --format           also verify formatting with clang-format
#                      (dry run only; never rewrites files)
#   --tidy             also run clang-tidy over src/
#   --help             this text
#
# clang-tidy and clang-format stages are skipped with a notice when
# the tools are not installed, so the script degrades gracefully on
# gcc-only machines (including this repo's CI fallback).

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=build-check
SANITIZE=""
JOBS="$(nproc 2>/dev/null || echo 2)"
RUN_FORMAT=0
RUN_TIDY=0

while [[ $# -gt 0 ]]; do
    case "$1" in
      --build-dir) BUILD_DIR="$2"; shift 2 ;;
      --sanitize) SANITIZE="$2"; shift 2 ;;
      --jobs) JOBS="$2"; shift 2 ;;
      --format) RUN_FORMAT=1; shift ;;
      --tidy) RUN_TIDY=1; shift ;;
      --help) sed -n '2,25p' "$0"; exit 0 ;;
      *) echo "check.sh: unknown option: $1" >&2; exit 2 ;;
    esac
done

step() { printf '\n== %s ==\n' "$*"; }

step "no test hooks in production code"
# Test-only access to private simulator state lives in
# tests/verify/test_access.h (StateAuditor::TestAccess), so src/ and
# tools/ carry no test pokes and no prewarm state digests.  The
# bracketed letters keep this script from matching itself.
if grep -rnE 'For[T]est|state[D]igest' src tools; then
    echo "test hooks found in src/ or tools/ (see above)" >&2
    exit 1
fi
echo "none"

step "configure (${BUILD_DIR}, sanitize='${SANITIZE:-none}', WERROR=ON)"
cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DSPECLENS_WERROR=ON \
    -DSPECLENS_SANITIZE="$SANITIZE" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

step "build (-j${JOBS})"
cmake --build "$BUILD_DIR" -j "$JOBS"

step "autovectorization report (stats + predictor kernels)"
# Informational, never fatal: recompile the contiguous stats kernels
# and the batched predictor/prewarm kernels with the compiler's
# vectorization report and count the loops it vectorized.  Catches
# silent regressions (a kernel rewritten in a way the autovectorizer
# no longer handles) without pinning the gate to one compiler
# version's judgement.
CXX_BIN="${CXX:-c++}"
VEC_FLAGS=""
if "$CXX_BIN" --version 2>/dev/null | grep -qi clang; then
    VEC_FLAGS="-Rpass=loop-vectorize"
elif "$CXX_BIN" --version 2>/dev/null | grep -qi 'free software'; then
    VEC_FLAGS="-fopt-info-vec-optimized"
fi
if [[ -n "$VEC_FLAGS" ]]; then
    VEC_LOG="$BUILD_DIR/vectorize-report.txt"
    : >"$VEC_LOG"
    for f in src/stats/distance.cpp src/stats/eigen.cpp \
             src/stats/normalize.cpp src/uarch/branch_predictor.cpp \
             src/uarch/prewarm.cpp; do
        "$CXX_BIN" -O3 -std=c++20 -Isrc $VEC_FLAGS -c "$f" \
            -o /dev/null 2>>"$VEC_LOG" || true
    done
    VEC_COUNT="$(grep -ci 'vectorized' "$VEC_LOG" || true)"
    echo "vectorized-loop reports: ${VEC_COUNT} (details: ${VEC_LOG})"
    if [[ "${VEC_COUNT}" -eq 0 ]]; then
        echo "warning: no stats kernel loop vectorized (non-fatal)"
    fi
else
    echo "no recognized compiler vectorization report; skipping"
fi

if [[ "$RUN_FORMAT" -eq 1 ]]; then
    step "clang-format (dry run)"
    if command -v clang-format >/dev/null 2>&1; then
        # --dry-run never touches the tree; nonzero exit on deviation.
        git ls-files '*.cpp' '*.h' | xargs clang-format --dry-run -Werror
        echo "formatting clean"
    else
        echo "clang-format not installed; skipping format check"
    fi
fi

if [[ "$RUN_TIDY" -eq 1 ]]; then
    step "clang-tidy"
    if command -v clang-tidy >/dev/null 2>&1; then
        git ls-files 'src/*.cpp' |
            xargs clang-tidy -p "$BUILD_DIR" --quiet
    else
        echo "clang-tidy not installed; skipping tidy check"
    fi
fi

step "model lint"
"$BUILD_DIR"/tools/speclens lint --instructions 30000 --warmup 8000

step "ctest (-j${JOBS})"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

step "artifact-store reuse"
# A warm repeat of a campaign over a populated store must execute zero
# simulations and print byte-identical stdout.  Short window: this
# verifies the reuse contract, not the Table I numbers.
STORE_DIR="$BUILD_DIR/check-store"
rm -rf "$STORE_DIR"
"$BUILD_DIR"/tools/speclens repro table1_characterization \
    --store "$STORE_DIR" --instructions 20000 --warmup 5000 \
    >"$BUILD_DIR/store-cold.out" 2>"$BUILD_DIR/store-cold.err"
"$BUILD_DIR"/tools/speclens repro table1_characterization \
    --store "$STORE_DIR" --instructions 20000 --warmup 5000 \
    >"$BUILD_DIR/store-warm.out" 2>"$BUILD_DIR/store-warm.err"
cmp "$BUILD_DIR/store-cold.out" "$BUILD_DIR/store-warm.out"
grep -q 'simulations=0 ' "$BUILD_DIR/store-warm.err"
# Every entry the cold run wrote must pass the load-time checks
# (checksum and counter identities): nothing rejected on the warm run.
grep -q 'rejected=0$' "$BUILD_DIR/store-warm.err" ||
    { echo "warm run rejected store entries:" >&2
      grep 'rejected=' "$BUILD_DIR/store-warm.err" >&2; exit 1; }
"$BUILD_DIR"/tools/speclens lint --no-deep --store "$STORE_DIR" \
    >"$BUILD_DIR/store-lint.out"
# Warnings fail too, not only errors.
grep -q ' 0 errors, 0 warnings$' "$BUILD_DIR/store-lint.out" ||
    { echo "store lint is not clean:" >&2
      cat "$BUILD_DIR/store-lint.out" >&2; exit 1; }
echo "warm run: zero simulations, stdout byte-identical, lint clean"

step "memory-centric model reuse"
# The memory-centric family (prefetch engines, way prediction, DRAM
# model) must round-trip the store like every other campaign: a warm
# repeat executes zero simulations and prints byte-identical stdout.
# No prefetch target may leave the address domain on the cold run.
MEM_STORE="$BUILD_DIR/memory-store"
rm -rf "$MEM_STORE"
"$BUILD_DIR"/tools/speclens repro table_memory_centric \
    --store "$MEM_STORE" --instructions 20000 --warmup 5000 \
    --metrics "$BUILD_DIR/memory-cold.prom" \
    >"$BUILD_DIR/memory-cold.out" 2>"$BUILD_DIR/memory-cold.err"
! grep -q '^speclens_uarch_prefetch_out_of_domain_total [1-9]' \
    "$BUILD_DIR/memory-cold.prom" ||
    { echo "prefetch targets left the address domain:" >&2
      grep out_of_domain "$BUILD_DIR/memory-cold.prom" >&2; exit 1; }
"$BUILD_DIR"/tools/speclens repro table_memory_centric \
    --store "$MEM_STORE" --instructions 20000 --warmup 5000 \
    >"$BUILD_DIR/memory-warm.out" 2>"$BUILD_DIR/memory-warm.err"
cmp "$BUILD_DIR/memory-cold.out" "$BUILD_DIR/memory-warm.out"
grep -q 'simulations=0 ' "$BUILD_DIR/memory-warm.err"
grep -q 'rejected=0$' "$BUILD_DIR/memory-warm.err" ||
    { echo "memory-centric warm run rejected store entries:" >&2
      grep 'rejected=' "$BUILD_DIR/memory-warm.err" >&2; exit 1; }
# SL026 range-checks the stored memory-centric metrics.
"$BUILD_DIR"/tools/speclens lint --no-deep --store "$MEM_STORE" \
    >"$BUILD_DIR/memory-lint.out"
grep -q ' 0 errors, 0 warnings$' "$BUILD_DIR/memory-lint.out" ||
    { echo "memory-centric store lint is not clean:" >&2
      cat "$BUILD_DIR/memory-lint.out" >&2; exit 1; }
rm -rf "$MEM_STORE"
echo "memory-centric: warm zero simulations, stdout byte-identical, lint clean"

step "every reproduction over one store"
# `repro --all` renders all 26 reproduced tables and figures over one
# shared context; a warm rerun over its store executes zero
# simulations, rejects nothing and prints byte-identical stdout, and
# the store lints clean (no stale, orphaned or out-of-range entries).
REPRO_STORE="$BUILD_DIR/repro-store"
rm -rf "$REPRO_STORE"
"$BUILD_DIR"/tools/speclens repro --all --store "$REPRO_STORE" \
    --instructions 5000 --warmup 1500 \
    >"$BUILD_DIR/repro-cold.out" 2>"$BUILD_DIR/repro-cold.err"
"$BUILD_DIR"/tools/speclens repro --all --store "$REPRO_STORE" \
    --instructions 5000 --warmup 1500 \
    >"$BUILD_DIR/repro-warm.out" 2>"$BUILD_DIR/repro-warm.err"
cmp "$BUILD_DIR/repro-cold.out" "$BUILD_DIR/repro-warm.out"
grep -q 'simulations=0 ' "$BUILD_DIR/repro-warm.err"
grep -q 'rejected=0$' "$BUILD_DIR/repro-warm.err" ||
    { echo "repro warm run rejected store entries:" >&2
      grep 'rejected=' "$BUILD_DIR/repro-warm.err" >&2; exit 1; }
grep '\[speclens-repro\] total' "$BUILD_DIR/repro-cold.err" \
    "$BUILD_DIR/repro-warm.err"
# scanStore() over pair and phased entries: every entry must be healthy.
"$BUILD_DIR"/tools/speclens campaign info --store "$REPRO_STORE" \
    >"$BUILD_DIR/repro-info.out" ||
    { echo "repro store has inconsistent entries:" >&2
      tail -n 3 "$BUILD_DIR/repro-info.out" >&2; exit 1; }
"$BUILD_DIR"/tools/speclens lint --no-deep --store "$REPRO_STORE" \
    >"$BUILD_DIR/repro-lint.out"
# Warnings (an SL016 stale or orphan entry) fail too, not only errors.
grep -q ' 0 errors, 0 warnings$' "$BUILD_DIR/repro-lint.out" ||
    { echo "repro store lint is not clean:" >&2
      cat "$BUILD_DIR/repro-lint.out" >&2; exit 1; }
rm -rf "$REPRO_STORE"
# Store readers never write: a missing store is a lint error and stays
# missing.
rm -rf "$BUILD_DIR/no-such-store"
"$BUILD_DIR"/tools/speclens lint --no-deep --store "$BUILD_DIR/no-such-store" \
    >/dev/null && { echo "lint over a missing store exited 0" >&2; exit 1; }
test ! -e "$BUILD_DIR/no-such-store" ||
    { echo "lint created the missing store directory" >&2; exit 1; }
echo "repro --all: warm zero simulations, byte-identical stdout, entries healthy, lint clean"

step "observability"
# `--metrics` must leave stdout untouched (byte-identical to the runs
# above), export a parseable metrics file, and the campaign must leave
# a well-formed run manifest next to the store.
"$BUILD_DIR"/tools/speclens repro table1_characterization \
    --store "$STORE_DIR" --instructions 20000 --warmup 5000 \
    --metrics "$BUILD_DIR/check-metrics.json" --metrics-format json \
    >"$BUILD_DIR/store-metrics.out" 2>/dev/null
cmp "$BUILD_DIR/store-cold.out" "$BUILD_DIR/store-metrics.out"
grep -q 'core.store.hits' "$BUILD_DIR/check-metrics.json"
"$BUILD_DIR"/tools/speclens campaign manifest --store "$STORE_DIR"
rm -rf "$STORE_DIR" "$BUILD_DIR/check-metrics.json"
echo "metrics on: stdout unchanged, metrics exported, manifest valid"

step "serve smoke"
# The daemon must answer byte-for-byte what the batch CLI prints for
# the same question, then drain cleanly on the shutdown op and leave a
# run manifest whose configuration fingerprint matches the batch
# CLI's, even though its first query pools another machine set.
# Concurrent clients, their byte parity with direct rendering and a
# clean lint of the store they fill are checked by the ctest step
# above (Serve.ConcurrentClientsGetByteIdenticalAnswers).
SERVE_STORE="$BUILD_DIR/serve-store"
BATCH_STORE="$BUILD_DIR/serve-batch-store"
rm -rf "$SERVE_STORE" "$BATCH_STORE"
"$BUILD_DIR"/tools/speclens serve --port 0 --store "$SERVE_STORE" \
    --instructions 5000 --warmup 1500 \
    >"$BUILD_DIR/serve.out" 2>"$BUILD_DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    grep -q listening "$BUILD_DIR/serve.out" 2>/dev/null && break
    sleep 0.1
done
SERVE_PORT="$(sed -n 's/.*port=\([0-9]*\).*/\1/p' "$BUILD_DIR/serve.out")"
[[ -n "$SERVE_PORT" ]]
"$BUILD_DIR"/tools/speclens query --port "$SERVE_PORT" \
    memory 519.lbm_r \
    >"$BUILD_DIR/serve-memory.out"
"$BUILD_DIR"/tools/speclens memory \
    --instructions 5000 --warmup 1500 519.lbm_r \
    >"$BUILD_DIR/memory-batch.out"
cmp "$BUILD_DIR/serve-memory.out" "$BUILD_DIR/memory-batch.out"
"$BUILD_DIR"/tools/speclens query --port "$SERVE_PORT" \
    characterize 500.perlbench_r 505.mcf_r \
    >"$BUILD_DIR/serve-query.out"
"$BUILD_DIR"/tools/speclens characterize --store "$BATCH_STORE" \
    --instructions 5000 --warmup 1500 500.perlbench_r 505.mcf_r \
    >"$BUILD_DIR/serve-batch.out" 2>/dev/null
cmp "$BUILD_DIR/serve-query.out" "$BUILD_DIR/serve-batch.out"
"$BUILD_DIR"/tools/speclens query --port "$SERVE_PORT" shutdown \
    >/dev/null
wait "$SERVE_PID"
grep -q drained "$BUILD_DIR/serve.err"
manifest_fingerprint() {
    sed -n 's/.*"config_fingerprint": *"\([0-9a-f]*\)".*/\1/p' \
        "$1/run-manifest.json"
}
SERVE_FP="$(manifest_fingerprint "$SERVE_STORE")"
BATCH_FP="$(manifest_fingerprint "$BATCH_STORE")"
[[ -n "$SERVE_FP" && "$SERVE_FP" == "$BATCH_FP" ]] ||
    { echo "daemon manifest fingerprint '$SERVE_FP' differs from" \
           "batch '$BATCH_FP'" >&2; exit 1; }
rm -rf "$SERVE_STORE" "$BATCH_STORE"
echo "serve: daemon answers byte-identical to batch, manifest" \
     "fingerprint matches batch, drain ok"

step "all checks passed"
