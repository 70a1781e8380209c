/// \file flight_recorder.h
/// \brief Per-solve flight recording: query-log records and post-mortem
/// capture/replay bundles.
///
/// The recorder closes the operational loop the ROADMAP's north star needs:
/// every facade solve leaves a structured JSONL record (common/query_log.h),
/// and every *anomalous* solve — a degraded kUnknown, an error, or any solve
/// when `FO2DT_CAPTURE=always` — leaves a self-contained bundle that
/// `tools/replay/fo2dt_replay` re-executes deterministically and diffs
/// against the recorded outcome.
///
/// Bundle layout (`<capture_dir>/<facade>-<hash>-<seq>/`, names from the
/// registry's `bundle_files`):
///   manifest.json   the query-log record plus bundle metadata
///   input.fo2dt     line-based replay input: header, facade body, armed
///                   failpoints, and `expect` lines with the recorded outcome
///   metrics.json    MetricsRegistry snapshot at capture time
///
/// Configuration: `FO2DT_QUERY_LOG=<path>` enables recording;
/// `FO2DT_CAPTURE=never|degraded|always` picks the capture policy (default
/// degraded); `FO2DT_CAPTURE_DIR=<dir>` overrides the bundle root (default
/// `<query_log>.captures`). Tests use Configure() directly.
///
/// Facades do not drive the recorder themselves: each entry point hands its
/// body serializer, budgets, solve and result codec to RunFacade (below),
/// which records, consults the verdict cache and finishes in one order.
///
/// Nested facades (constraints → frontend) do not double-log: SolveRecorder
/// keeps a thread-local depth and only the outermost recorder is active.

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/query_log.h"
#include "common/solve_cache.h"
#include "common/symbol.h"

namespace fo2dt {

class ExecutionContext;

/// \brief Recorder configuration; see the file comment for the env mapping.
struct FlightRecorderConfig {
  /// JSONL sink; empty disables recording entirely.
  std::string query_log_path;
  /// One of names::kAllCaptureModes ("never" / "degraded" / "always").
  std::string capture_mode;
  /// Bundle root; empty derives `<query_log_path>.captures`.
  std::string capture_dir;
  /// Tail-sampling threshold (`FO2DT_SLOW_MS`): under capture mode
  /// `degraded`, a solve whose wall time reaches this many ms is bundled —
  /// its per-phase profile and metrics snapshot included — even when its
  /// verdict was definite, so the flight recorder explains the latency
  /// tail, not a random sample.
  /// 0 disables slow-solve sampling (degraded/ERROR solves still capture).
  uint64_t slow_ms = 0;
};

/// \brief Process-wide recorder state. Thread-safe.
class FlightRecorder {
 public:
  static FlightRecorder& Instance();

  /// Replaces the configuration (tests; production uses the environment).
  /// Also points the QueryLog singleton at the new path.
  void Configure(FlightRecorderConfig config);

  FlightRecorderConfig config() const;

  /// True when solves should be recorded at all.
  bool enabled() const;

  /// The directory bundles land in (config or derived default).
  std::string CaptureDir() const;

  /// Monotonic per-process bundle sequence number (unique bundle dirs even
  /// for identical inputs).
  uint64_t NextBundleSeq() {
    return bundle_seq_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  FlightRecorder();  // seeds from FO2DT_QUERY_LOG / FO2DT_CAPTURE[_DIR]

  mutable Mutex mu_{names::kLockRecorderConfig};
  FlightRecorderConfig config_ FO2DT_GUARDED_BY(mu_);
  // atomic: relaxed ticket counter; uniqueness is all that matters.
  std::atomic<uint64_t> bundle_seq_{0};
};

/// \brief What a facade tells RunFacade about one solve besides the solve.
/// `body` is the canonical input (hashed into the record and the cache key,
/// and the bundle's replay text when `replayable`); it is built only when
/// the solve is recorded or its verdict cache is on.
struct FacadeRequest {
  const char* facade;  ///< names::kFacade...; also namespaces the cache key
  const ExecutionContext* exec;
  std::function<std::string()> body;
  std::vector<std::pair<const char*, uint64_t>> budgets;
  uint64_t threads = 0;    ///< worker threads; 0 keeps the record's default
  bool replayable = true;  ///< false: no replay parser, never capture
};

/// \brief How RunFacade reads a facade's result type T: its record outcome,
/// an optional last step of a cold solve under the request's governor
/// (`settle`), and the verdict-cache entry it writes and reads back (unset
/// `encode`: uncached; `decode` is false on an entry it cannot rebuild, and
/// the solve then runs cold).
template <typename T>
struct FacadeCodec {
  std::function<SolveOutcome(const Result<T>&)> outcome{};
  std::function<Result<T>(Result<T>, const ExecutionContext*)> settle{};
  std::function<SolveCacheEntry(const T&)> encode{};
  std::function<bool(const SolveCacheEntry&, T*)> decode{};
  const char* cache_module = nullptr;  ///< charged for an entry's memory
};

/// \brief RAII recorder for one facade solve. Construct at facade entry,
/// call Finish() with the outcome before returning. Inactive recorders (no
/// query log configured, or nested inside another facade on this thread)
/// cost two thread-local increments and nothing else.
class SolveRecorder {
 public:
  SolveRecorder(const char* facade, const ExecutionContext* exec);
  ~SolveRecorder();
  SolveRecorder(const SolveRecorder&) = delete;
  SolveRecorder& operator=(const SolveRecorder&) = delete;

  /// True when this solve will be recorded; gate serialization work on it.
  bool active() const { return active_; }

  /// The canonical input text: hashed (with the facade name) and measured.
  void SetInput(const std::string& canonical);

  /// The replayable facade body for input.fo2dt. Without it no bundle is
  /// captured (the record still logs).
  void SetReplayInput(std::string text);

  /// Records one budget constant in effect (key must be a plain identifier).
  void AddBudget(const char* key, uint64_t value);

  /// Records \p request's body, budgets and threads when active, and returns
  /// the verdict-cache key when \p cached and the cache is on ("" when the
  /// cache is not consulted). The body is built only if either holds.
  std::string Begin(const FacadeRequest& request, bool cached);

  /// Logs the record (and captures a bundle per policy). Idempotent; only
  /// the first call records. The record's request_id is the
  /// ExecutionContext's. When \p outcome carries no profile and the facade
  /// ran under an ExecutionContext, the profile is snapshotted here.
  void Finish(SolveOutcome outcome);

 private:
  std::string WriteBundle(const QueryRecord& record,
                          const SolveOutcome& outcome) const;

  const char* facade_;
  const ExecutionContext* exec_;
  bool active_ = false;
  bool finished_ = false;
  QueryRecord record_;
  std::string replay_input_;
  std::chrono::steady_clock::time_point start_;
  uint64_t cpu_start_ms_ = 0;
};

/// \brief The pipeline of every facade entry point, in one order: record
/// the input, budgets and threads; key the verdict cache and serve a hit it
/// can decode; otherwise solve, settle, cache the result and record it.
template <typename T>
Result<T> RunFacade(const FacadeRequest& request, const FacadeCodec<T>& codec,
                    const std::function<Result<T>()>& solve) {
  SolveRecorder rec(request.facade, request.exec);
  const std::string key = rec.Begin(request, codec.encode != nullptr);
  if (!key.empty()) {
    std::optional<SolveCacheEntry> hit = SolveCache::Instance().Lookup(key);
    T served;
    if (hit.has_value() && codec.decode(*hit, &served)) {
      Result<T> result = std::move(served);
      rec.Finish(codec.outcome(result));
      return result;
    }
  }
  Result<T> result =
      codec.settle ? codec.settle(solve(), request.exec) : solve();
  if (!key.empty() && result.ok()) {
    SolveCache::Instance().Insert(key, codec.encode(*result), request.exec,
                                  codec.cache_module);
  }
  rec.Finish(codec.outcome(result));
  return result;
}

/// Notes the solve cache's disposition ("hit" / "miss") for the top-level
/// solve running on this thread. First call wins: a verdict-cache hit at the
/// inner frontend entry is not overwritten by later sub-memo lookups. The
/// outermost SolveRecorder resets the note on entry and folds it into the
/// query-log `cache` field at Finish; calls outside any solve are dropped.
void NoteSolveCacheDisposition(const char* disposition);

/// Synthetic dense alphabet "l0".."l<n-1>" — the canonical label namespace
/// bundles are serialized in. Replaying with the same n reproduces the same
/// symbol ids, making serialized formulas/trees/paths position-stable.
Alphabet MakeReplayAlphabet(size_t num_labels);

/// The canonical name of replay label \p i ("l<i>").
std::string ReplayLabelName(size_t i);

/// Re-arms \p site with the canonical deterministic replay injection used
/// by capture-time tests and fo2dt_replay: Status*-argument sites sleep a
/// fixed interval (so the owning phase dominates the profile) and inject
/// ResourceExhausted with StopKind::kInjectedFault; bool* sites force their
/// branch. \p fire bounds how many hits inject (-1 = unlimited), so a
/// server fault test can crash exactly one request. False when \p site is
/// not a registered failpoint.
bool ArmCanonicalReplayInjection(const std::string& site, int64_t fire = -1);

}  // namespace fo2dt
