// Shared benchmark entry point. Replaces BENCHMARK_MAIN() so the bench
// binaries accept one extra flag the google-benchmark flag parser would
// otherwise reject:
//
//   --trace-json=<path>   after the run, dump the observability state
//                         (MetricsRegistry snapshot + recorded trace spans
//                         in Chrome trace-event form) as JSON to <path>.
//
// Span recording only happens when the build compiled the fine-grained
// spans in (FO2DT_TRACE); in release builds the file still carries the
// metrics snapshot and an empty traceEvents list.

#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arith/arith_stats.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/solve_cache.h"
#include "common/trace.h"
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

namespace bench_internal {

inline bool WriteObservabilityJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  std::vector<TraceEvent> events = TraceRecorder::Instance().Snapshot();
  std::fprintf(f, "{\n\"metrics\": %s,\n\"traceEvents\": [", snap.ToJson().c_str());
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(
        f,
        "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}",
        i == 0 ? "" : ",", e.name, e.thread,
        static_cast<double>(e.start_ns) / 1e3,
        static_cast<double>(e.end_ns - e.start_ns) / 1e3,
        static_cast<unsigned long long>(e.id),
        static_cast<unsigned long long>(e.parent));
  }
  std::fprintf(f, "\n],\n\"dropped\": %llu\n}\n",
               static_cast<unsigned long long>(
                   TraceRecorder::Instance().dropped()));
  std::fclose(f);
  return true;
}

inline int BenchMain(int argc, char** argv) {
  constexpr char kTraceFlag[] = "--trace-json=";
  std::string trace_path;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], kTraceFlag, sizeof(kTraceFlag) - 1) == 0) {
      trace_path = argv[i] + (sizeof(kTraceFlag) - 1);
    } else {
      args.push_back(argv[i]);
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  if (!trace_path.empty()) TraceRecorder::Instance().SetEnabled(true);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!trace_path.empty() &&
      !bench_internal::WriteObservabilityJson(trace_path)) {
    std::fprintf(stderr, "error: cannot write trace JSON to %s\n",
                 trace_path.c_str());
    return 1;
  }
  return 0;
}

}  // namespace bench_internal
}  // namespace fo2dt

#define FO2DT_BENCH_MAIN()                       \
  int main(int argc, char** argv) {              \
    return ::fo2dt::bench_internal::BenchMain(argc, argv); \
  }

