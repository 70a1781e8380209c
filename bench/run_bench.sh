#!/usr/bin/env bash
# Runs the solver benchmarks and writes their JSON reports to the repo root:
# BENCH_lcta.json and BENCH_constraints.json (the exact Presburger core, and
# Prop. 5 through both routes), BENCH_satisfiability.json (TH1 bounded model
# search) and BENCH_xpath.json (TH3 LocalDataXPath decisions). These files
# are committed so the performance trajectory is reviewable per PR; see
# EXPERIMENTS.md for how to regenerate and compare.
#
# The lcta and constraints reports also carry per-phase breakdowns
# (phase_<name>_ms / phase_<name>_effort counters) from the observability
# layer; the raw span/metrics dump of each of those runs goes to
# <build-dir>/bench/TRACE_*.json and is not committed.
#
# Usage: bench/run_bench.sh [build-dir]    (default: ./build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

# Publish this build's compile database for the analysis tools unless the
# caller already pinned one: fo2dt_lint.py --deep and run_clang_tidy.sh both
# resolve $FO2DT_COMPILE_DB first (then build-lint, then build), so a bench
# job followed by lint/tidy analyzes exactly the configuration it measured.
if [[ -z "${FO2DT_COMPILE_DB:-}" && -f "$BUILD_DIR/compile_commands.json" ]]; then
  export FO2DT_COMPILE_DB="$BUILD_DIR"
fi

for bin in bench_lcta_emptiness bench_constraints bench_satisfiability \
           bench_xpath_containment; do
  if [[ ! -x "$BUILD_DIR/bench/$bin" ]]; then
    echo "error: $BUILD_DIR/bench/$bin not built." >&2
    echo "  cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

# min_time keeps the slow grid points bounded while still averaging the fast
# ones over many iterations (google-benchmark wants a plain double here).
MIN_TIME="${BENCH_MIN_TIME:-0.1}"

# Per-benchmark wall-clock guard: a perf regression (or a hang in the solver
# core) must fail the bench job loudly instead of wedging it. Override with
# BENCH_TIMEOUT_SECS for slow machines.
TIMEOUT_SECS="${BENCH_TIMEOUT_SECS:-600}"

# Query-log pass-through: when the caller exports FO2DT_QUERY_LOG, each bench
# binary appends its facade solves to a per-binary JSONL derived from it
# (<base>_lcta.jsonl, <base>_constraints.jsonl, ...), so fo2dt_report can compute
# per-workload cache hit rates without two binaries interleaving one file.
QUERY_LOG_BASE="${FO2DT_QUERY_LOG:-}"
query_log_for() {
  local tag="$1"
  if [[ -z "$QUERY_LOG_BASE" ]]; then
    echo ""
  else
    echo "${QUERY_LOG_BASE%.jsonl}_${tag}.jsonl"
  fi
}

# Writes to a temp file and renames on success, so a timeout/crash can never
# leave a partial or stale report behind: the target either keeps its old
# content (and the run fails) or gets the complete new one.
run_guarded() {
  local out="$1"
  shift
  local tmp
  tmp="$(mktemp "${out}.XXXXXX.tmp")"
  trap 'rm -f "$tmp"' RETURN
  local rc=0
  timeout --kill-after=10 "$TIMEOUT_SECS" "$@" > "$tmp" || rc=$?
  if [[ "$rc" -eq 124 || "$rc" -eq 137 ]]; then
    echo "TIMEOUT: benchmark '$1' exceeded ${TIMEOUT_SECS}s; $out left untouched" >&2
    rm -f "$tmp"
    exit 1
  fi
  if [[ "$rc" -ne 0 ]]; then
    echo "error: benchmark '$1' failed (exit $rc); $out left untouched" >&2
    rm -f "$tmp"
    exit 1
  fi
  mv "$tmp" "$out"
}

FO2DT_QUERY_LOG="$(query_log_for lcta)" \
run_guarded BENCH_lcta.json "$BUILD_DIR/bench/bench_lcta_emptiness" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json \
  --trace-json="$BUILD_DIR/bench/TRACE_lcta.json"

FO2DT_QUERY_LOG="$(query_log_for constraints)" \
run_guarded BENCH_constraints.json "$BUILD_DIR/bench/bench_constraints" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json \
  --trace-json="$BUILD_DIR/bench/TRACE_constraints.json"

# The TH1/TH3 binaries use the stock benchmark main: no --trace-json and no
# phase counters, so the phase and cache checks below do not apply to them.
FO2DT_QUERY_LOG="$(query_log_for satisfiability)" \
run_guarded BENCH_satisfiability.json "$BUILD_DIR/bench/bench_satisfiability" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json

FO2DT_QUERY_LOG="$(query_log_for xpath)" \
run_guarded BENCH_xpath.json "$BUILD_DIR/bench/bench_xpath_containment" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=json

# A benchmark that self-skips (state.SkipWithError) surfaces in the
# google-benchmark JSON as error_occurred / a skip message, with garbage or
# zero counters. Mark those entries with an explicit "skipped": true so
# downstream tooling (tools/report/fo2dt_report.py) can exclude them without
# knowing google-benchmark's error convention — and so a skip is visible in
# the committed diff instead of silently polluting the phase aggregates.
mark_skipped() {
  python3 - "$1" <<'EOF'
import json, sys
path = sys.argv[1]
with open(path) as f:
    data = json.load(f)
marked = 0
for entry in data.get("benchmarks", []):
    if entry.get("error_occurred") or entry.get("skipped"):
        if entry.get("skipped") is not True:
            entry["skipped"] = True
            marked += 1
with open(path, "w") as f:
    json.dump(data, f, indent=2)
    f.write("\n")
if marked:
    print("%s: marked %d self-skipped benchmark entr%s" %
          (path, marked, "y" if marked == 1 else "ies"))
EOF
}
for f in BENCH_lcta.json BENCH_constraints.json BENCH_satisfiability.json \
         BENCH_xpath.json; do
  mark_skipped "$f"
done

# The committed reports must carry the per-phase breakdown; catch a silent
# regression (e.g. a bench binary that dropped its ReportPhaseCounters call).
for f in BENCH_lcta.json BENCH_constraints.json; do
  if ! grep -q '"phase_' "$f"; then
    echo "error: $f has no per-phase counters (phase_*_ms)" >&2
    exit 1
  fi
done

# Same for the solve-cache counters, the histogram-derived solve-latency
# percentiles and the int64 exits of the exact arithmetic: the
# repeated-workload benchmarks must report cache_hits/cache_misses and
# solve_ms_p50/p95/p99, and every solver benchmark wide_results (names owned
# by the registry's bench_counters.extras), so the committed history shows
# hit rates, the latency tail and coefficient growth per grid point and
# fo2dt_report can gate on them.
for f in BENCH_lcta.json BENCH_constraints.json; do
  for counter in cache_hits cache_misses \
                 solve_ms_p50 solve_ms_p95 solve_ms_p99 wide_results; do
    if ! grep -q "\"$counter\"" "$f"; then
      echo "error: $f has no $counter counter (ReportCacheCounters," \
           "ReportSolveLatency or ReportSolverCounters missing?)" >&2
      exit 1
    fi
  done
done

echo "wrote BENCH_lcta.json, BENCH_constraints.json," \
     "BENCH_satisfiability.json and BENCH_xpath.json"
if [[ -n "$QUERY_LOG_BASE" ]]; then
  echo "query logs: $(query_log_for lcta), $(query_log_for constraints)," \
       "$(query_log_for satisfiability) and $(query_log_for xpath)"
fi
