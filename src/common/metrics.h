/// \file metrics.h
/// \brief Unified metrics: pipeline phases, per-phase profiling, and the
/// federating MetricsRegistry.
///
/// Three pieces, layered bottom-up:
///
///  1. **Phase** — the closed enumeration of pipeline stages (Scott normal
///     form, DNF, puzzle construction, bounded search, LCTA emptiness,
///     simplex/ILP, VATA, constraints, XPath, frontend facade), plus
///     `PhaseForModule` mapping the governor's module strings
///     ("solverlp.ilp", "lcta.cuts", ...) onto phases so a StopReason can be
///     attributed to the phase that exhausted the budget.
///
///  2. **ScopedPhase** — always-compiled attribution of one phase's self
///     time, effort and memory high-water. Each scope writes two
///     sinks: the thread-local PhaseStats block (process-wide aggregation
///     for benchmarks, via ThreadStats) and, when given one, the
///     ExecutionContext's PhaseAccumulator (per-solve aggregation across
///     worker threads, the source of SatResult's PhaseProfile).
///
///  3. **MetricsRegistry** — one snapshot/reset API federating every counter
///     family in the process: the phase/gauge blocks defined here plus the
///     pre-existing ArithStats and SimplexStats ThreadStats families, which
///     register themselves from their home translation units (bigint.cc,
///     simplex.cc) so common/ never depends upward.

#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_stats.h"

namespace fo2dt {

class ExecutionContext;

/// \brief The pipeline stages that per-phase wall time is attributed to.
///
/// kIlp deliberately covers both "solverlp.ilp" and "solverlp.simplex":
/// simplex work happens inside B&B nodes and the two are one budget domain
/// for attribution purposes (the ISSUE's "simplex/ILP" phase).
enum class Phase : int {
  kScott = 0,     ///< Scott normal form (logic/scott)
  kDnf,           ///< data normal form (logic/dnf)
  kPuzzle,        ///< puzzle construction + counting abstraction setup
  kBoundedSearch, ///< bounded model search (puzzle/bounded_solver, enumeration)
  kLcta,          ///< LCTA emptiness: grammar, flows, cut rounds
  kIlp,           ///< simplex/ILP (solverlp)
  kVata,          ///< VATA counter-tree derivation
  kConstraints,   ///< key/foreign-key constraint facades
  kXpath,         ///< XPath translation + containment facades
  kFrontend,      ///< frontend facade glue (solver.cc outside other phases)
};

inline constexpr size_t kPhaseCount = static_cast<size_t>(Phase::kFrontend) + 1;

/// Short stable name, e.g. "scott", "ilp" (used in metric keys and JSON).
const char* PhaseName(Phase phase);

/// Maps a governor module string ("solverlp.simplex", "lcta.cuts",
/// "frontend.enumerate", ...) to the phase that owns it. Unknown modules map
/// to kFrontend.
Phase PhaseForModule(const char* module);

/// \brief Thread-local per-phase counter block (a ThreadStats family).
///
/// `effort` is the phase's own notion of work: enumeration/search steps for
/// kBoundedSearch, cut rounds for kLcta, B&B nodes for kIlp, derivation
/// candidates for kVata. The two gauges merge by max, not sum.
struct PhaseCounters {
  struct Entry {
    uint64_t calls = 0;
    uint64_t wall_ns = 0;  // self time (exclusive of nested phases)
    uint64_t effort = 0;
    uint64_t mem_peak = 0;  // accountant high-water while the phase was open
  };
  std::array<Entry, kPhaseCount> phases;
  uint64_t ilp_max_depth = 0;    // deepest B&B recursion seen
  uint64_t mem_high_water = 0;   // accountant peak, bytes

  void AddTo(PhaseCounters* out) const {
    for (size_t i = 0; i < kPhaseCount; ++i) {
      out->phases[i].calls += phases[i].calls;
      out->phases[i].wall_ns += phases[i].wall_ns;
      out->phases[i].effort += phases[i].effort;
      if (phases[i].mem_peak > out->phases[i].mem_peak) {
        out->phases[i].mem_peak = phases[i].mem_peak;  // gauge: merge by max
      }
    }
    if (ilp_max_depth > out->ilp_max_depth) out->ilp_max_depth = ilp_max_depth;
    if (mem_high_water > out->mem_high_water) {
      out->mem_high_water = mem_high_water;
    }
  }
  void Clear() { *this = PhaseCounters(); }
};

using PhaseStats = ThreadStats<PhaseCounters>;

/// \brief Per-solve phase accumulator, shared by every worker thread of one
/// ExecutionContext. All atomics; written by ScopedPhase destructors.
struct PhaseAccumulator {
  struct Slot {
    // atomic: relaxed fetch_add from each worker's scope destructor plus
    // max-CAS gauges; snapshots may tear across fields (diagnostics only).
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> wall_ns{0};
    std::atomic<uint64_t> effort{0};
    std::atomic<uint64_t> mem_peak{0};  // accountant high-water, this phase
  };
  std::array<Slot, kPhaseCount> slots;
  // atomic: max-CAS gauges (MaxInto), relaxed everywhere — see Slot.
  std::atomic<uint64_t> ilp_max_depth{0};
  std::atomic<uint64_t> mem_high_water{0};

  void Add(Phase phase, uint64_t wall_ns, uint64_t effort) {
    Slot& s = slots[static_cast<size_t>(phase)];
    s.calls.fetch_add(1, std::memory_order_relaxed);
    s.wall_ns.fetch_add(wall_ns, std::memory_order_relaxed);
    s.effort.fetch_add(effort, std::memory_order_relaxed);
  }
  void RecordDepth(uint64_t depth) { MaxInto(&ilp_max_depth, depth); }
  void RecordMemory(uint64_t bytes) { MaxInto(&mem_high_water, bytes); }
  void RecordPhaseMemory(Phase phase, uint64_t bytes) {
    MaxInto(&slots[static_cast<size_t>(phase)].mem_peak, bytes);
  }

  static void MaxInto(std::atomic<uint64_t>* slot, uint64_t value) {
    uint64_t cur = slot->load(std::memory_order_relaxed);
    while (cur < value && !slot->compare_exchange_weak(
                              cur, value, std::memory_order_relaxed)) {
    }
  }
};

/// \brief RAII attribution of one phase: self time, effort and memory
/// high-water. The overhead budget is a handful of clock reads per *phase
/// entry*, never per work unit — hot loops only flush effort counters.
///
/// Scopes nest per thread on one chain. Opening a scope pauses the enclosing
/// one's clock, so per-phase wall times are exclusive and sum to the
/// instrumented total instead of double-counting nested calls (LCTA → ILP →
/// simplex). The innermost scope owns this thread's memory charges (a charge
/// during LCTA → ILP is the ILP phase's memory); entry and exit also sample
/// the accountant's running total into the phase's gauge, so a phase that
/// merely *holds* memory charged earlier still shows its footprint. With a
/// null ExecutionContext the memory half is inert.
class ScopedPhase {
 public:
  explicit ScopedPhase(Phase phase, const ExecutionContext* exec = nullptr);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  /// Adds phase-specific effort units (steps, nodes, rounds) to be flushed
  /// with the clock.
  void AddEffort(uint64_t units) { effort_ += units; }

  /// Flushes calls, self time and effort now and resumes the enclosing
  /// clock; memory stays attributed to this phase until destruction. For an
  /// innermost scope whose thread goes on to wait on self-timing workers.
  void StopClock();

  /// The innermost open scope's phase on the calling thread; false when no
  /// scope is open (the accountant then falls back to PhaseForModule).
  static bool CurrentPhase(Phase* out);

 private:
  /// \p scope or its nearest ancestor whose clock still runs.
  static ScopedPhase* Clocked(ScopedPhase* scope);

  Phase phase_;
  const ExecutionContext* exec_;
  ScopedPhase* parent_;
  bool clock_running_ = true;
  uint64_t self_ns_ = 0;
  uint64_t effort_ = 0;
  std::chrono::steady_clock::time_point resumed_;
};

/// \brief Per-phase profile of one solve, carried on SatResult.
///
/// Wall times are self times (see ScopedPhase) summed across the
/// solve's worker threads; on a parallel solve they can exceed elapsed wall
/// clock. `stop` is the structured reason if the solve degraded or was cut
/// short (kind == kNone for a definite verdict).
struct PhaseProfile : PhaseCounters {
  StopReason stop;

  const Entry& operator[](Phase p) const {
    return phases[static_cast<size_t>(p)];
  }

  /// The phase with the largest self wall time (ties: smallest enum value).
  Phase DominantPhase() const;

  /// The phase owning the stop's module (kFrontend when not stopped).
  Phase StopPhase() const { return PhaseForModule(stop.module); }

  /// e.g. "ilp: 42.1 ms/1731 effort; lcta: 1.2 ms/3 effort (stopped: ...)".
  std::string ToString() const;

  /// One JSON object with per-phase wall_ns/calls/effort plus the gauges.
  std::string ToJson() const;
};

/// Reads \p exec's PhaseAccumulator into a value-type profile (stop reason
/// left at kNone; the facade fills it from the SatResult).
PhaseProfile SnapshotPhaseProfile(const ExecutionContext& exec);

/// \brief Ordered key → value snapshot of every registered metric source.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, double>> values;

  void Set(const std::string& key, double value) {
    values.emplace_back(key, value);
  }
  /// First value recorded under \p key, or \p fallback.
  double Get(const std::string& key, double fallback = 0.0) const;
  bool Has(const std::string& key) const;
  /// Flat JSON object {"key": value, ...}.
  std::string ToJson() const;
};

/// Fixed bucket count for every Histogram: bucket i holds values whose
/// bit-width is i, so its upper bound is 2^i - 1 (bucket 0 holds only the
/// value 0; the last bucket absorbs everything wider). 64 buckets cover the
/// whole uint64_t range, so one layout serves both millisecond latencies and
/// byte-sized memory high-waters without per-metric tuning.
inline constexpr size_t kHistogramBuckets = 64;

/// \brief Value-type copy of one Histogram, safe to merge and query off the
/// hot path. Produced by Histogram::Snapshot(); bucket counts may tear
/// relative to count/sum under concurrent Record (diagnostics only).
struct HistogramSnapshot {
  std::string name;
  std::array<uint64_t, kHistogramBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;  // largest recorded value (exact, not bucket-rounded)

  /// Inclusive upper bound of bucket \p i (2^i - 1; saturates at the top).
  static uint64_t BucketUpperBound(size_t i);

  /// Adds \p other bucket-wise (same fixed layout); max merges by max.
  void Merge(const HistogramSnapshot& other);

  /// Nearest-rank percentile (p in [0,100]) as the upper bound of the
  /// bucket containing that rank, clamped to the exact observed max so the
  /// tail is never reported coarser than reality. 0 when empty.
  double Percentile(double p) const;
};

/// \brief Lock-free fixed log2-bucket histogram for latencies and sizes.
///
/// Record() is three relaxed fetch_adds plus a CAS-max — safe from any
/// thread with no lock, cheap enough for per-request paths. The name must
/// be a registry-owned names::kMetricHist* constant (the histogram-metrics
/// lint rule enforces this), because exposition keys and bench counters are
/// derived from it. Instances are process-lifetime statics or members of
/// process-lifetime singletons; MetricsRegistry::RegisterHistogram holds a
/// raw pointer.
class Histogram {
 public:
  explicit Histogram(const char* name) : name_(name) {}
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  const char* name() const { return name_; }

  void Record(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    PhaseAccumulator::MaxInto(&max_, value);
  }

  HistogramSnapshot Snapshot() const;
  void Reset();

 private:
  /// Bit-width of \p value, clamped to the last bucket.
  static size_t BucketIndex(uint64_t value) {
    size_t i = 0;
    while (value != 0 && i < kHistogramBuckets - 1) {
      value >>= 1;
      ++i;
    }
    return i;
  }

  const char* name_;
  // atomic: relaxed fetch_add per Record from any thread; CAS-max gauge for
  // max_ (PhaseAccumulator::MaxInto). Snapshots may tear across fields.
  std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// \brief Process-wide federation point for counter families.
///
/// Sources register once (from their home translation unit) with a collect
/// callback and a reset callback; Snapshot()/Reset() fan out to all of them
/// under one lock. The phase/gauge family above is pre-registered; arith and
/// simplex register from bigint.cc / simplex.cc.
///
/// Collect callbacks typically call ThreadStats<C>::Aggregate(), so the
/// quiescence precondition applies: snapshot between solves, not during.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  using CollectFn = std::function<void(MetricsSnapshot*)>;
  using ResetFn = std::function<void()>;

  /// Registers a named source. Re-registering a name replaces the callbacks
  /// (makes static-initializer registration idempotent across re-links).
  void Register(const std::string& name, CollectFn collect, ResetFn reset);

  /// Names of all registered sources, registration order.
  std::vector<std::string> SourceNames() const;

  /// Registers a process-lifetime histogram. Snapshot() derives
  /// <name>.count/.sum/.p50/.p95/.p99 keys from it, HistogramSnapshots()
  /// exposes the full buckets (for Prometheus-style exposition), and
  /// Reset() zeroes it. Re-registering the same instance is a no-op.
  /// Short-lived histograms (e.g. the admission controller's per-tenant
  /// table) must NOT register here — they are surfaced by their owner.
  void RegisterHistogram(Histogram* histogram);

  /// Bucket-level copies of every registered histogram, registration order.
  std::vector<HistogramSnapshot> HistogramSnapshots() const;

  /// Runs every source's collect callback into one snapshot, then appends
  /// the derived keys of every registered histogram.
  MetricsSnapshot Snapshot() const;

  /// Runs every source's reset callback and zeroes registered histograms.
  void Reset();

 private:
  MetricsRegistry();

  struct Source {
    std::string name;
    CollectFn collect;
    ResetFn reset;
  };
  /// Held across every source's collect/reset callback, which take the
  /// cache/intern/stats locks — hence metrics.registry ranks before them.
  mutable Mutex mu_{names::kLockMetricsRegistry};
  std::vector<Source> sources_ FO2DT_GUARDED_BY(mu_);
  std::vector<Histogram*> histograms_ FO2DT_GUARDED_BY(mu_);
};

/// \brief Registers a metrics source from a static initializer.
///
/// Usage (file scope, in the counter family's home .cc):
///   static MetricsSourceRegistrar reg("arith", collect_fn, reset_fn);
struct MetricsSourceRegistrar {
  MetricsSourceRegistrar(const std::string& name,
                         MetricsRegistry::CollectFn collect,
                         MetricsRegistry::ResetFn reset) {
    MetricsRegistry::Instance().Register(name, std::move(collect),
                                         std::move(reset));
  }
};

}  // namespace fo2dt

