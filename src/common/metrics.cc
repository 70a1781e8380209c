#include "common/metrics.h"

#include <cstring>

#include "common/execution_context.h"
#include "common/registry_names.h"
#include "common/strings.h"

namespace fo2dt {

// The Phase enum and the generated registry must enumerate the same phases
// in the same order; the lint registry (tools/lint/registry.json) is the
// source of truth for the names.
static_assert(names::kNumPhases == kPhaseCount,
              "Phase enum and tools/lint/registry.json disagree; edit the "
              "JSON and re-run tools/lint/gen_registry.py");

const char* PhaseName(Phase phase) {
  size_t i = static_cast<size_t>(phase);
  return i < names::kNumPhases ? names::kPhaseNames[i] : "unknown";
}

Phase PhaseForModule(const char* module) {
  if (module == nullptr) return Phase::kFrontend;
  // The generated table is ordered longest-prefix-first (the generator
  // rejects a shadowed ordering), so the first hit is the most specific.
  for (const names::ModulePhasePrefix& entry : names::kPhasePrefixes) {
    if (std::strncmp(module, entry.prefix, std::strlen(entry.prefix)) == 0) {
      return static_cast<Phase>(entry.phase);
    }
  }
  return Phase::kFrontend;
}

namespace {

ScopedPhase*& ThreadCurrentPhase() {
  thread_local ScopedPhase* current = nullptr;
  return current;
}

uint64_t NanosBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

ScopedPhase* ScopedPhase::Clocked(ScopedPhase* scope) {
  while (scope != nullptr && !scope->clock_running_) scope = scope->parent_;
  return scope;
}

bool ScopedPhase::CurrentPhase(Phase* out) {
  ScopedPhase* current = ThreadCurrentPhase();
  if (current == nullptr) return false;
  *out = current->phase_;
  return true;
}

ScopedPhase::ScopedPhase(Phase phase, const ExecutionContext* exec)
    : phase_(phase), exec_(exec), parent_(ThreadCurrentPhase()) {
  auto now = std::chrono::steady_clock::now();
  if (ScopedPhase* enclosing = Clocked(parent_)) {
    // Pause the enclosing clock: bank its running stretch as self time.
    enclosing->self_ns_ += NanosBetween(enclosing->resumed_, now);
  }
  ThreadCurrentPhase() = this;
  resumed_ = now;
  if (exec_ != nullptr) {
    exec_->phases().RecordPhaseMemory(phase_, exec_->BytesCharged());
  }
}

ScopedPhase::~ScopedPhase() {
  if (exec_ != nullptr) {
    uint64_t total = exec_->BytesCharged();
    exec_->phases().RecordPhaseMemory(phase_, total);
    // Mirror into the thread-local block so the process-wide bench view
    // carries the same per-phase gauge as the per-solve accumulator.
    PhaseCounters::Entry& entry =
        PhaseStats::Local().phases[static_cast<size_t>(phase_)];
    if (total > entry.mem_peak) entry.mem_peak = total;
  }
  StopClock();
  ThreadCurrentPhase() = parent_;
}

void ScopedPhase::StopClock() {
  if (!clock_running_) return;
  auto now = std::chrono::steady_clock::now();
  self_ns_ += NanosBetween(resumed_, now);
  PhaseCounters::Entry& entry =
      PhaseStats::Local().phases[static_cast<size_t>(phase_)];
  entry.calls += 1;
  entry.wall_ns += self_ns_;
  entry.effort += effort_;
  if (exec_ != nullptr) exec_->phases().Add(phase_, self_ns_, effort_);
  clock_running_ = false;
  if (ScopedPhase* enclosing = Clocked(parent_)) {
    enclosing->resumed_ = now;  // resume its clock
  }
}

Phase PhaseProfile::DominantPhase() const {
  size_t best = 0;
  for (size_t i = 1; i < kPhaseCount; ++i) {
    if (phases[i].wall_ns > phases[best].wall_ns) best = i;
  }
  return static_cast<Phase>(best);
}

std::string PhaseProfile::ToString() const {
  std::string out;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const Entry& e = phases[i];
    if (e.calls == 0) continue;
    if (!out.empty()) out += "; ";
    out += StringFormat("%s: %.2f ms/%llu effort",
                        PhaseName(static_cast<Phase>(i)),
                        static_cast<double>(e.wall_ns) / 1e6,
                        static_cast<unsigned long long>(e.effort));
  }
  if (out.empty()) out = "(no instrumented phases ran)";
  if (stop.stopped()) {
    out += StringFormat(" (stopped: %s)", stop.ToString().c_str());
  }
  return out;
}

std::string PhaseProfile::ToJson() const {
  std::string out = "{\"phases\":{";
  bool first = true;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const Entry& e = phases[i];
    if (e.calls == 0) continue;
    out += StringFormat(
        "%s\"%s\":{\"calls\":%llu,\"wall_ns\":%llu,\"effort\":%llu,"
        "\"mem_peak\":%llu}",
        first ? "" : ",", PhaseName(static_cast<Phase>(i)),
        static_cast<unsigned long long>(e.calls),
        static_cast<unsigned long long>(e.wall_ns),
        static_cast<unsigned long long>(e.effort),
        static_cast<unsigned long long>(e.mem_peak));
    first = false;
  }
  out += StringFormat(
      "},\"ilp_max_depth\":%llu,\"mem_high_water\":%llu",
      static_cast<unsigned long long>(ilp_max_depth),
      static_cast<unsigned long long>(mem_high_water));
  if (stop.stopped()) {
    out += StringFormat(",\"stop\":{\"kind\":\"%s\",\"module\":\"%s\","
                        "\"counter\":%llu,\"limit\":%llu}",
                        StopKindToString(stop.kind), stop.module,
                        static_cast<unsigned long long>(stop.counter),
                        static_cast<unsigned long long>(stop.limit));
  }
  out += "}";
  return out;
}

PhaseProfile SnapshotPhaseProfile(const ExecutionContext& exec) {
  const PhaseAccumulator& acc = exec.phases();
  PhaseProfile out;
  for (size_t i = 0; i < kPhaseCount; ++i) {
    out.phases[i].calls = acc.slots[i].calls.load(std::memory_order_relaxed);
    out.phases[i].wall_ns =
        acc.slots[i].wall_ns.load(std::memory_order_relaxed);
    out.phases[i].effort = acc.slots[i].effort.load(std::memory_order_relaxed);
    out.phases[i].mem_peak =
        acc.slots[i].mem_peak.load(std::memory_order_relaxed);
  }
  out.ilp_max_depth = acc.ilp_max_depth.load(std::memory_order_relaxed);
  out.mem_high_water = acc.mem_high_water.load(std::memory_order_relaxed);
  return out;
}

double MetricsSnapshot::Get(const std::string& key, double fallback) const {
  for (const auto& [k, v] : values) {
    if (k == key) return v;
  }
  return fallback;
}

bool MetricsSnapshot::Has(const std::string& key) const {
  for (const auto& [k, v] : values) {
    if (k == key) return true;
  }
  return false;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < values.size(); ++i) {
    out += StringFormat("%s\"%s\":%.17g", i == 0 ? "" : ",",
                        values[i].first.c_str(), values[i].second);
  }
  out += "}";
  return out;
}

uint64_t HistogramSnapshot::BucketUpperBound(size_t i) {
  if (i >= kHistogramBuckets - 1) return ~uint64_t{0};
  return (uint64_t{1} << i) - 1;
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  for (size_t i = 0; i < kHistogramBuckets; ++i) buckets[i] += other.buckets[i];
  count += other.count;
  sum += other.sum;
  if (other.max > max) max = other.max;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  // Nearest rank: the smallest bucket whose cumulative count reaches
  // ceil(p/100 * count), reported as that bucket's upper bound.
  uint64_t rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count));
  if (rank * 100 < static_cast<uint64_t>(p * static_cast<double>(count))) {
    ++rank;
  }
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      uint64_t bound = BucketUpperBound(i);
      // The top occupied bucket's bound overstates the tail; the exact
      // observed max is a tighter truth for it.
      return static_cast<double>(bound < max ? bound : max);
    }
  }
  return static_cast<double>(max);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.name = name_;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Instance() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

MetricsRegistry::MetricsRegistry() {
  // The phase/gauge family lives in this translation unit, so register it
  // here instead of relying on a static initializer ordering.
  sources_.push_back(Source{
      "phase",
      [](MetricsSnapshot* snap) {
        PhaseCounters agg = PhaseStats::Aggregate();
        for (size_t i = 0; i < kPhaseCount; ++i) {
          const PhaseCounters::Entry& e = agg.phases[i];
          const char* name = PhaseName(static_cast<Phase>(i));
          snap->Set(StringFormat("phase.%s.calls", name),
                    static_cast<double>(e.calls));
          snap->Set(StringFormat("phase.%s.wall_ns", name),
                    static_cast<double>(e.wall_ns));
          snap->Set(StringFormat("phase.%s.effort", name),
                    static_cast<double>(e.effort));
          snap->Set(StringFormat("phase.%s.mem_peak", name),
                    static_cast<double>(e.mem_peak));
        }
        snap->Set(names::kMetricGaugeIlpMaxDepth,
                  static_cast<double>(agg.ilp_max_depth));
        snap->Set(names::kMetricGaugeMemHighWater,
                  static_cast<double>(agg.mem_high_water));
      },
      [] { PhaseStats::Reset(); }});
}

void MetricsRegistry::Register(const std::string& name, CollectFn collect,
                               ResetFn reset) {
  ScopedRankedLock lock(mu_);
  for (Source& s : sources_) {
    if (s.name == name) {
      s.collect = std::move(collect);
      s.reset = std::move(reset);
      return;
    }
  }
  sources_.push_back(Source{name, std::move(collect), std::move(reset)});
}

std::vector<std::string> MetricsRegistry::SourceNames() const {
  ScopedRankedLock lock(mu_);
  std::vector<std::string> out;
  out.reserve(sources_.size());
  for (const Source& s : sources_) out.push_back(s.name);
  return out;
}

void MetricsRegistry::RegisterHistogram(Histogram* histogram) {
  ScopedRankedLock lock(mu_);
  for (Histogram* h : histograms_) {
    if (h == histogram) return;
  }
  histograms_.push_back(histogram);
}

std::vector<HistogramSnapshot> MetricsRegistry::HistogramSnapshots() const {
  ScopedRankedLock lock(mu_);
  std::vector<HistogramSnapshot> out;
  out.reserve(histograms_.size());
  for (const Histogram* h : histograms_) out.push_back(h->Snapshot());
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  ScopedRankedLock lock(mu_);
  MetricsSnapshot snap;
  for (const Source& s : sources_) s.collect(&snap);
  for (const Histogram* h : histograms_) {
    HistogramSnapshot hs = h->Snapshot();
    snap.Set(hs.name + ".count", static_cast<double>(hs.count));
    snap.Set(hs.name + ".sum", static_cast<double>(hs.sum));
    snap.Set(hs.name + ".p50", hs.Percentile(50));
    snap.Set(hs.name + ".p95", hs.Percentile(95));
    snap.Set(hs.name + ".p99", hs.Percentile(99));
  }
  return snap;
}

void MetricsRegistry::Reset() {
  ScopedRankedLock lock(mu_);
  for (const Source& s : sources_) s.reset();
  for (Histogram* h : histograms_) h->Reset();
}

}  // namespace fo2dt
