#!/usr/bin/env bash
# Run the perf_micro regression harness and emit machine-readable results.
# Usage: scripts/run_perf.sh [build-dir] [extra benchmark args...]
#   MMLAB_PERF_OUT   (default bench_out/perf_micro.json) JSON output path
#   MMLAB_PERF_SYNC  (default 0) when 1, also copy the JSON to
#                    BENCH_perf_micro.json at the repo root so the committed
#                    perf trajectory can be refreshed from a trusted machine.
#
# Examples:
#   scripts/run_perf.sh                           # full run
#   scripts/run_perf.sh build --benchmark_filter='AnalysisMix|StoreDirect'
#   MMLAB_PERF_SYNC=1 scripts/run_perf.sh         # refresh committed baseline
set -eu
BUILD=${1:-build}
shift $(( $# > 0 ? 1 : 0 ))
OUT=${MMLAB_PERF_OUT:-bench_out/perf_micro.json}

BIN="$BUILD/bench/perf_micro"
if [ ! -x "$BIN" ]; then
  echo "error: $BIN not found or not executable (build benches first)" >&2
  exit 1
fi

# Debug-build numbers are meaningless as a perf trajectory: refuse to sync
# them into the committed baseline, and warn loudly on ad-hoc runs.
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$BUILD/CMakeCache.txt" 2>/dev/null || true)
case "$BUILD_TYPE" in
  Release|RelWithDebInfo) ;;
  *)
    if [ "${MMLAB_PERF_SYNC:-0}" = "1" ]; then
      echo "error: MMLAB_PERF_SYNC=1 requires a Release or RelWithDebInfo" >&2
      echo "       build; $BUILD has CMAKE_BUILD_TYPE='${BUILD_TYPE:-unset}'" >&2
      echo "       (configure with -DCMAKE_BUILD_TYPE=Release)" >&2
      exit 1
    fi
    echo "warning: $BUILD has CMAKE_BUILD_TYPE='${BUILD_TYPE:-unset}' —" \
         "numbers will not be comparable to the committed baseline" >&2
    ;;
esac

mkdir -p "$(dirname "$OUT")"
# mmlab_build_type records OUR build type in the JSON context.  The stock
# library_build_type field reflects how libbenchmark itself was compiled
# (Debian ships a no-NDEBUG build that always reports "debug"), so it says
# nothing about whether mmlab's code was optimized — this field does.
# mmlab_cores records the visible core count: the threaded benches
# (BM_StoreCrossCarrierFold, the Arg(4) fold variants) scale with it, so a
# 1-core number is not comparable to a 8-core number — perf_diff.py refuses
# to diff across different core counts at strict thresholds.
CORES=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)
"$BIN" --benchmark_out="$OUT" --benchmark_out_format=json \
       --benchmark_context=mmlab_build_type="${BUILD_TYPE:-unknown}" \
       --benchmark_context=mmlab_cores="$CORES" "$@"
echo "wrote $OUT"

if [ "${MMLAB_PERF_SYNC:-0}" = "1" ]; then
  cp "$OUT" BENCH_perf_micro.json
  echo "synced BENCH_perf_micro.json"
fi
