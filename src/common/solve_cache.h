/// \file solve_cache.h
/// \brief The cross-solve cache: a persistent verdict cache plus an
/// in-memory sub-result memo, both under one LRU byte budget.
///
/// Level (b) of the caching subsystem (DESIGN.md §9): facades key solves by
/// the same canonical FNV-1a input hash the query log computes
/// (`HashToHex(Fnv1a64(facade + "\n" + canonical_body))`), so a cache key
/// printed in a JSONL record identifies the exact entry that served it. An
/// entry stores the definite verdict, the decision method, the step count,
/// the cold solve's PhaseProfile, and a facade-specific payload (e.g. the
/// witness tree in replay-alphabet text).
///
/// Soundness rules, enforced centrally in Insert():
///   * `kUnknown` is never cached — degraded solves must always be retried
///     with whatever budgets the caller has now;
///   * errors are never cached;
///   * cached verdicts are definite, so a hit reproduces the cold verdict
///     with StopReason kind == kNone, bit-for-bit.
///
/// Persistence: entries append to `FO2DT_CACHE_FILE` as single text lines
/// under `fingerprint` section headers. A loader only admits sections whose
/// fingerprint matches the running build (schema version ⊕ build stamp), so
/// stale entries from an older build self-invalidate without any file
/// rewrite — the format stays append-only.
///
/// Memory: every entry's approximate footprint is charged to the calling
/// solve's governor (ExecutionContext::ChargeMemory) before insertion — a
/// solve over its memory budget cannot grow the cache — and the cache
/// globally evicts least-recently-used entries beyond `max_bytes`.
///
/// Level (c), sub-result memoization, shares the same LRU and byte budget
/// through LookupSub/InsertSub: values are opaque serialized strings keyed
/// by canonical subterm text (LCTA emptiness verdicts, DNF branch counts,
/// simplex seed hints). Sub-results never persist: they are process-local
/// accelerators, cheap to rebuild.
///
/// Configuration: `FO2DT_CACHE=1` enables the in-memory cache,
/// `FO2DT_CACHE_FILE=<path>` enables it with persistence, and
/// `FO2DT_CACHE_BYTES=<n>` overrides the LRU budget. Defaults to disabled so
/// cold-path runs and committed baselines are byte-identical to a build
/// without the cache. Tests and benchmarks use Configure().

#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/annotations.h"
#include "common/metrics.h"
#include "common/mutex.h"

namespace fo2dt {

class ExecutionContext;

/// \brief One cached solve outcome. Only definite verdicts are stored.
struct SolveCacheEntry {
  /// "SAT" / "UNSAT" / "ACCEPT" / "REJECT" — never "UNKNOWN" or "ERROR:*".
  std::string verdict;
  /// The decision method of the cold solve.
  std::string method;
  /// The cold solve's facade-reported step count.
  uint64_t steps = 0;
  /// The cold solve's per-phase profile (stop is always kind == kNone).
  std::optional<PhaseProfile> profile;
  /// Facade-specific extra result, e.g. the witness DataTree serialized in
  /// the replay alphabet. Empty when the facade has nothing to reconstruct.
  std::string payload;
};

/// \brief Cache configuration; see the file comment for the env mapping.
struct SolveCacheConfig {
  /// Master switch; false leaves every Lookup/Insert a no-op.
  bool enabled = false;
  /// Append-only persistence file; empty keeps the cache in-memory only.
  std::string file;
  /// LRU byte budget over resident entries (verdicts + sub-results).
  uint64_t max_bytes = 64ull * 1024 * 1024;
  /// Fingerprint override for tests; 0 uses BuildFingerprint().
  uint64_t fingerprint = 0;
};

/// \brief Process-wide cross-solve cache. Thread-safe.
class SolveCache {
 public:
  static SolveCache& Instance();

  /// Replaces the configuration, drops resident entries, and (re)loads the
  /// persistence file's matching-fingerprint sections.
  void Configure(SolveCacheConfig config);

  SolveCacheConfig config() const;
  bool enabled() const;

  /// The fingerprint in effect (config override or BuildFingerprint()).
  uint64_t fingerprint() const;

  /// Schema version ⊕ build stamp: changes when the cache line format or the
  /// binary changes, so persisted entries never cross a build boundary.
  static uint64_t BuildFingerprint();

  /// Looks up a verdict entry, counts the hit or miss and notes the
  /// disposition for the query log's `cache` field. Returns nullopt when
  /// disabled or absent.
  std::optional<SolveCacheEntry> Lookup(const std::string& key);

  /// Inserts a verdict entry unless the verdict is not definite (UNKNOWN /
  /// ERROR — the kUnknown-never-cached rule) or \p exec refuses the memory
  /// charge (\p module attributes the charge; a budget-exhausted solve skips
  /// caching rather than failing). Appends to the persistence file.
  void Insert(const std::string& key, const SolveCacheEntry& entry,
              const ExecutionContext* exec, const char* module);

  /// Sub-result memo: same LRU, opaque serialized values, never persisted.
  std::optional<std::string> LookupSub(const std::string& key);
  void InsertSub(const std::string& key, std::string value,
                 const ExecutionContext* exec, const char* module);

  /// Counters mirrored into the MetricsRegistry ("solve_cache" source).
  struct Stats {
    uint64_t solve_hits = 0;
    uint64_t solve_misses = 0;
    uint64_t sub_hits = 0;
    uint64_t sub_misses = 0;
    uint64_t solve_evictions = 0;
    uint64_t sub_evictions = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
  };
  Stats stats() const;

  /// Drops resident entries and zeroes counters. Leaves the persistence
  /// file untouched (tests re-Configure to reload it).
  void Clear();

 private:
  SolveCache();  // seeds from FO2DT_CACHE / FO2DT_CACHE_FILE / _BYTES

  enum class Slot { kSolve, kSub };
  struct Stored {
    SolveCacheEntry entry;                              // kSolve payload
    std::string value;                                  // kSub payload
    uint64_t bytes = 0;
    std::list<std::pair<Slot, std::string>>::iterator lru_it;
  };

  void LoadFileLocked() FO2DT_REQUIRES(mu_);
  void AppendEntryLocked(const std::string& key, const SolveCacheEntry& entry)
      FO2DT_REQUIRES(mu_);
  void EvictLocked() FO2DT_REQUIRES(mu_);
  void InsertLocked(Slot slot, const std::string& key, Stored stored)
      FO2DT_REQUIRES(mu_);
  uint64_t FingerprintLocked() const FO2DT_REQUIRES(mu_);

  mutable Mutex mu_{names::kLockCacheSolve};
  SolveCacheConfig config_ FO2DT_GUARDED_BY(mu_);
  // front = oldest
  std::list<std::pair<Slot, std::string>> lru_ FO2DT_GUARDED_BY(mu_);
  std::unordered_map<std::string, Stored> solve_ FO2DT_GUARDED_BY(mu_);
  std::unordered_map<std::string, Stored> sub_ FO2DT_GUARDED_BY(mu_);
  uint64_t bytes_ FO2DT_GUARDED_BY(mu_) = 0;
  bool header_written_ FO2DT_GUARDED_BY(mu_) = false;
  /// Hit/miss/evict counts; stats() fills in the resident gauges.
  Stats counts_ FO2DT_GUARDED_BY(mu_);
};

/// The verdict-cache key for \p body under \p facade —
/// `HashToHex(Fnv1a64(facade + "\n" + body))`, identical to the query log's
/// input_hash, so the hash in a JSONL record names the entry that served it.
std::string SolveCacheKey(const char* facade, const std::string& body);

}  // namespace fo2dt
