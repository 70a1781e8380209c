/// \file failpoint.h
/// \brief Deterministic fault injection (RocksDB SyncPoint style).
///
/// A failpoint is a named site in production code where a test can inject a
/// fault: force the BigInt limb-spill path, make a simplex bound repair
/// report a pivot-cap overflow, fail a fan-out worker, cancel a search from
/// inside the search. The robustness tests use them to prove graceful
/// degradation — every injected fault must surface as a clean Status with an
/// intact StopReason, never a crash, hang, leak, or wrong verdict.
///
/// Cost model:
///  * builds without FO2DT_FAILPOINTS (release / RelWithDebInfo): the
///    FO2DT_FAILPOINT macro expands to nothing — zero code, zero overhead;
///  * builds with FO2DT_FAILPOINTS (Debug by default, see the top-level
///    CMakeLists option) and no failpoint armed: one relaxed atomic load;
///  * an armed site takes a mutex and runs the registered callback.
///
/// Site contract: each site passes a void* whose meaning is documented at
/// the site (usually a bool* the callback sets to force a branch, or a
/// Status* the callback overwrites to inject an error). Callbacks run on
/// the thread that hits the site.
///
/// Inventory of sites (keep in sync with DESIGN.md §5):
///   "bigint.force_slow_add"   bool*   force the limb path in operator+
///                                     and SubMul
///   "simplex.force_rebuild"   bool*   force DualStatus::kCapExceeded
///   "ilp.branch"              void    observation/cancel hook per B&B node
///   "ilp.worker_fault"        Status* inject an error into a DNF worker
///   "lcta.cut_round"          Status* inject an error into the cut loop

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace fo2dt {

/// \brief Process-wide registry of armed failpoints.
///
/// Tests arm sites via Enable() and must DisableAll() on teardown (the
/// robustness tests use a RAII guard). Thread-safe.
class Failpoints {
 public:
  static Failpoints& Instance();

  /// True when this build has failpoint sites compiled in.
  static constexpr bool CompiledIn() {
#ifdef FO2DT_FAILPOINTS
    return true;
#else
    return false;
#endif
  }

  /// Arms \p site. The callback fires on each hit after skipping the first
  /// \p skip hits, for at most \p fire hits (-1 = unlimited). Re-enabling a
  /// site replaces its previous configuration.
  void Enable(const std::string& site, std::function<void(void*)> callback,
              int64_t skip = 0, int64_t fire = -1);

  /// Disarms \p site (no-op when not armed).
  void Disable(const std::string& site);

  /// Disarms everything and clears hit counters.
  void DisableAll();

  /// Number of times \p site was reached while armed (including skipped and
  /// post-fire hits).
  uint64_t HitCount(const std::string& site) const;

  /// Names of all currently armed sites, sorted. The flight recorder writes
  /// these into post-mortem bundles so fo2dt_replay can re-arm the same
  /// injections deterministically.
  std::vector<std::string> ArmedSites() const;

  /// True when at least one site is armed (single relaxed load — the only
  /// cost an unarmed build pays per site hit).
  bool AnyActive() const {
    return active_sites_.load(std::memory_order_relaxed) != 0;
  }

  /// Slow path behind FO2DT_FAILPOINT: looks up \p site and runs its
  /// callback if armed and within its skip/fire window.
  void Hit(const char* site, void* arg);

 private:
  Failpoints() = default;

  struct Site {
    std::function<void(void*)> callback;
    int64_t skip = 0;
    int64_t fire = -1;
    uint64_t hits = 0;
  };

  // atomic: armed-site count; relaxed fast-path gate in AnyActive(). A
  // stale zero only skips a hit that raced Enable — tests arm before
  // spawning the threads they observe.
  std::atomic<int> active_sites_{0};
  mutable Mutex mu_{names::kLockFailpointRegistry};
  std::unordered_map<std::string, Site> sites_ FO2DT_GUARDED_BY(mu_);
};

}  // namespace fo2dt

#ifdef FO2DT_FAILPOINTS
/// Marks an injection site. `arg` is a site-specific void* handed to the
/// armed callback (see the inventory above); pass nullptr when the site is
/// observation-only.
#define FO2DT_FAILPOINT(site, arg)                                   \
  do {                                                               \
    if (::fo2dt::Failpoints::Instance().AnyActive()) {               \
      ::fo2dt::Failpoints::Instance().Hit((site), (arg));            \
    }                                                                \
  } while (false)
#else
#define FO2DT_FAILPOINT(site, arg) \
  do {                             \
  } while (false)
#endif

