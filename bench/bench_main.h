// Shared benchmark counter helpers: per-phase, solver-core, solve-cache and
// latency counters attached to a google-benchmark State after its timing
// loop, under the names the registry's bench counter grammar fixes.

#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>

#include "arith/arith_stats.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/solve_cache.h"
#include "solverlp/simplex.h"

namespace fo2dt {

/// Attaches per-phase self-time and effort counters accumulated over the
/// timing loop. Call PhaseStats::Reset() before the loop and this after it;
/// values are per iteration. Only phases that actually ran get counters.
inline void ReportPhaseCounters(benchmark::State& state) {
  PhaseCounters agg = PhaseStats::Aggregate();
  double iters = static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseCounters::Entry& e = agg.phases[i];
    if (e.calls == 0) continue;
    const char* name = PhaseName(static_cast<Phase>(i));
    state.counters[std::string("phase_") + name + "_ms"] =
        static_cast<double>(e.wall_ns) / 1e6 / iters;
    state.counters[std::string("phase_") + name + "_effort"] =
        static_cast<double>(e.effort) / iters;
  }
}

/// Attaches the solver-core counters accumulated over the timing loop:
/// simplex effort, warm-start hit rate, the BigInt small-int fast-path rate
/// and the results that left int64 (per iteration; the name is a registry
/// `bench_counters.extras` entry). Reset SimplexStats and ArithStats before
/// the loop.
inline void ReportSolverCounters(benchmark::State& state) {
  SimplexCounters sx = SimplexStats::Aggregate();
  ArithCounters ar = ArithStats::Aggregate();
  double iters = static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  state.counters["pivots"] = static_cast<double>(sx.pivots) / iters;
  state.counters["tableau_builds"] =
      static_cast<double>(sx.tableau_builds) / iters;
  state.counters["warm_start_hit_rate"] = sx.WarmStartHitRate();
  state.counters["arith_fast_path_rate"] = ar.FastPathRate();
  state.counters[names::kBenchExtraWideResults] =
      static_cast<double>(ar.wide_results) / iters;
}

/// Attaches the solve-cache hit/miss counters accumulated over the timing
/// loop (verdict-cache and sub-memo lookups combined), per iteration. Pass a
/// SolveCache::Instance().stats() snapshot taken before the loop — the
/// cache's counters are cumulative across the whole binary. Counter names
/// come from the generated registry (`bench_counters.extras`), so the BENCH
/// grammar check and fo2dt_report recognize them.
inline void ReportCacheCounters(benchmark::State& state,
                                const SolveCache::Stats& before) {
  SolveCache::Stats now = SolveCache::Instance().stats();
  double iters = static_cast<double>(std::max<int64_t>(state.iterations(), 1));
  state.counters[names::kBenchExtraCacheHits] =
      static_cast<double>((now.solve_hits + now.sub_hits) -
                          (before.solve_hits + before.sub_hits)) /
      iters;
  state.counters[names::kBenchExtraCacheMisses] =
      static_cast<double>((now.solve_misses + now.sub_misses) -
                          (before.solve_misses + before.sub_misses)) /
      iters;
}

/// Attaches solve-latency percentiles (solve_ms_p50/p95/p99, names owned by
/// the registry's bench_counters.extras) derived from \p latency. The
/// histogram holds per-solve *microsecond* samples — its log2 buckets then
/// resolve sub-millisecond solves — and the counters convert back to
/// milliseconds to match every other time counter in the report.
inline void ReportSolveLatency(benchmark::State& state,
                               const Histogram& latency) {
  HistogramSnapshot snap = latency.Snapshot();
  state.counters[names::kBenchExtraSolveMsP50] = snap.Percentile(50) / 1e3;
  state.counters[names::kBenchExtraSolveMsP95] = snap.Percentile(95) / 1e3;
  state.counters[names::kBenchExtraSolveMsP99] = snap.Percentile(99) / 1e3;
}

/// Microseconds elapsed since \p start (per-solve latency samples).
inline uint64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace fo2dt

