/// \file execution_context.h
/// \brief The unified execution governor: deadline, cancellation, accounting.
///
/// The decision procedures in this library are non-elementary in the worst
/// case (the paper's automata route is 3NEXPTIME), so every solver entry
/// point must be interruptible. Before this subsystem each layer invented
/// its own budget plumbing — `SolverOptions::max_steps`, a raw
/// `const std::atomic<bool>*` on IlpOptions, per-module node caps, and two
/// hand-rolled first-SAT-wins `stop_at` protocols. ExecutionContext unifies
/// them:
///
///  * a monotonic wall-clock **deadline** (std::chrono::steady_clock);
///  * a hierarchical **CancellationToken** — cancelling a parent cancels all
///    children, and an adapter wraps legacy `std::atomic<bool>` flags;
///  * a **step/memory accountant** with per-layer counters, so a stopped run
///    can report exactly where the effort went;
///  * structured **StopReason** production (see common/status.h): every
///    deadline/cancellation exit says which budget died, at what counter
///    value, in which module.
///
/// Hot loops do not call ExecutionContext::Check directly — they tick an
/// ExecCheckpoint, which amortizes the steady_clock read over N work units
/// (a pivot, a node, an enumeration step) so the fast path stays at the
/// PR 1 benchmark numbers.
///
/// All methods are thread-safe; one ExecutionContext is shared by every
/// worker thread of a solve.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace fo2dt {

/// \brief Cooperative, hierarchical cancellation.
///
/// A token is a handle on shared cancellation state. `Child()` derives a
/// token that observes its parent: cancelling the parent cancels every
/// descendant, while cancelling a child leaves the parent untouched. This is
/// exactly the shape of the first-SAT-wins fan-outs (SolveDnf, the LCTA
/// accepting-root loop): the caller's token is the parent, each branch gets
/// a child, and a winning branch cancels only the losing siblings.
///
/// A default-constructed token is *inert*: IsCancelled() is false forever
/// and RequestCancel() is a no-op. Copies share state (shared_ptr).
class CancellationToken {
 public:
  /// Inert token: never cancelled, cancel requests are dropped.
  CancellationToken() = default;

  /// A fresh root token.
  static CancellationToken Create();

  /// Adapter for legacy call sites that signal through a raw atomic flag
  /// (the pre-governor IlpOptions::cancel idiom). The token reports
  /// cancelled whenever `*flag` is true; \p flag must outlive the token.
  static CancellationToken WrapFlag(const std::atomic<bool>* flag);

  /// Derives a token that is cancelled when either this token is cancelled
  /// or RequestCancel() is called on the child itself. A child of an inert
  /// token is a fresh root.
  CancellationToken Child() const;

  /// False for inert tokens (no check will ever fire).
  bool CanBeCancelled() const { return state_ != nullptr; }

  /// True once this token, any ancestor, or a wrapped flag is cancelled.
  bool IsCancelled() const {
    for (const State* s = state_.get(); s != nullptr; s = s->parent.get()) {
      if (s->cancelled.load(std::memory_order_acquire)) return true;
      if (s->external != nullptr &&
          s->external->load(std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  /// Cancels this token and (transitively) all children. Idempotent,
  /// thread-safe; a no-op on inert tokens.
  void RequestCancel() const {
    if (state_ != nullptr) {
      state_->cancelled.store(true, std::memory_order_release);
    }
  }

 private:
  struct State {
    // atomic: set with release in RequestCancel, read with acquire in
    // IsCancelled — the only cross-thread signal; parent/external are
    // immutable after construction.
    std::atomic<bool> cancelled{false};
    const std::atomic<bool>* external = nullptr;  // WrapFlag adapter
    std::shared_ptr<const State> parent;          // Child() chain
  };
  explicit CancellationToken(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;  // nullptr == inert
};

/// \brief Per-layer effort counters, aggregated across worker threads.
///
/// These are diagnostics, not budgets: budgets live in the per-module
/// options (max_nodes, max_cuts, ...) and in the ExecutionContext deadline.
struct ExecCounters {
  // atomic: relaxed fetch_add from every worker thread; read after join (or
  // torn-tolerantly for live observability). No inter-counter ordering.
  std::atomic<uint64_t> simplex_pivots{0};
  std::atomic<uint64_t> ilp_nodes{0};
  std::atomic<uint64_t> search_steps{0};
  std::atomic<uint64_t> lcta_cut_rounds{0};
  std::atomic<uint64_t> vata_candidates{0};
  /// How often the (amortized) deadline was actually consulted.
  std::atomic<uint64_t> deadline_checks{0};
};

/// \brief Shared governor for one top-level solve.
///
/// Construct one per request, set a deadline and/or a cancellation token,
/// and pass a pointer down through the layer options. All solver layers
/// treat a null ExecutionContext* as "ungoverned" (no deadline, inert
/// token), so existing call sites keep working unchanged.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// A context for one slot of a first-wins fan-out under \p parent: the
  /// same deadline, token and request id, and memory charged straight to
  /// \p parent's accountant (budgets and high-water stay live). Effort
  /// counters and the phase profile stay here until MergeSlotInto decides
  /// how much of them the parent sees, so work a fan-out abandons does not
  /// leak into the solve's effort. \p parent must outlive this context.
  explicit ExecutionContext(const ExecutionContext* parent);

  /// Adds this slot context's work to \p parent. A slot that \p counts (at
  /// or below the fan-out's terminal index, which every thread count
  /// completes) adds everything; any other slot adds only its phase wall
  /// time and deadline checks: the time was spent, the effort is what a
  /// single-threaded solve would not have done.
  void MergeSlotInto(const ExecutionContext& parent, bool counts) const;

  /// Arms the wall-clock deadline \p budget from now (steady clock).
  void SetDeadlineAfter(std::chrono::milliseconds budget) {
    start_ = std::chrono::steady_clock::now();
    deadline_ = start_ + budget;
    budget_ms_ = static_cast<uint64_t>(budget.count());
    has_deadline_ = true;
  }

  bool has_deadline() const { return has_deadline_; }

  /// Milliseconds elapsed since the deadline was armed (0 when unarmed).
  uint64_t ElapsedMs() const {
    if (!has_deadline_) return 0;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

  /// Installs the caller's cancellation token (defaults to inert).
  void set_token(CancellationToken token) { token_ = std::move(token); }
  const CancellationToken& token() const { return token_; }

  /// Caps the memory accountant at \p bytes (0 = unlimited).
  void set_max_bytes(uint64_t bytes) { max_bytes_ = bytes; }

  /// End-to-end correlation id for this solve ("" outside the daemon). Set
  /// once by the owner before the solve starts; read-only afterwards, so it
  /// needs no synchronization beyond the context handoff itself.
  void set_request_id(std::string request_id) {
    request_id_ = std::move(request_id);
  }
  const std::string& request_id() const { return request_id_; }

  /// Effort counters; writable through const refs (the context is shared as
  /// a const pointer by worker threads, and the counters are atomics).
  ExecCounters& counters() const { return counters_; }

  /// Per-phase wall-time/effort accumulator for this solve, written by
  /// ScopedPhase from every worker thread (same const-ref convention as
  /// counters()). Snapshot with SnapshotPhaseProfile(). Accumulates over the
  /// context's lifetime: reuse a context across solves and the profile spans
  /// all of them, exactly like the effort counters.
  PhaseAccumulator& phases() const { return phases_; }

  /// Peak value ever charged against the memory accountant, in bytes.
  uint64_t MemoryHighWater() const {
    if (memory_parent_ != nullptr) return memory_parent_->MemoryHighWater();
    return phases_.mem_high_water.load(std::memory_order_relaxed);
  }

  /// Running total currently charged against the accountant, in bytes.
  /// Sampled by ScopedPhase to attribute footprints to phases.
  uint64_t BytesCharged() const {
    if (memory_parent_ != nullptr) return memory_parent_->BytesCharged();
    return bytes_charged_.load(std::memory_order_relaxed);
  }

  /// Charges \p bytes against the memory budget; ResourceExhausted with
  /// StopKind::kMemoryBudget when the cap is exceeded.
  /// Const for the same reason counters() is: the accountant is an atomic
  /// and the context is shared as a const pointer by worker threads.
  Status ChargeMemory(uint64_t bytes, const char* module) const;

  /// The full (unamortized) stop check: the caller's token, then the
  /// deadline. Returns OK, or Cancelled / ResourceExhausted carrying a
  /// structured StopReason naming \p module.
  Status Check(const char* module) const;

  /// StopReason for a deadline exit detected by \p module.
  StopReason DeadlineReason(const char* module) const {
    return StopReason{StopKind::kDeadline, module, ElapsedMs(), budget_ms_};
  }

  /// StopReason for a caller-cancellation exit detected by \p module.
  static StopReason CancelReason(const char* module) {
    return StopReason{StopKind::kCancelled, module, 0, 0};
  }

 private:
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point deadline_{};
  uint64_t budget_ms_ = 0;
  bool has_deadline_ = false;
  CancellationToken token_;
  std::string request_id_;
  uint64_t max_bytes_ = 0;
  // Set on a fan-out slot's context: its memory charges go here.
  const ExecutionContext* memory_parent_ = nullptr;
  // atomic: CAS accounting loop in ChargeMemory, relaxed reads elsewhere;
  // the high-water mark lives in phases_.mem_high_water.
  mutable std::atomic<uint64_t> bytes_charged_{0};
  // mutable: Check() is logically const but counts deadline consultations,
  // and phase scopes charge the shared accumulator through const pointers.
  mutable ExecCounters counters_;
  mutable PhaseAccumulator phases_;
};

/// \brief Amortized stop checks for hot loops.
///
/// `Tick()` costs one decrement on the fast path; every `period` ticks it
/// consults the branch token (one or two relaxed loads) and the
/// ExecutionContext (token walk + steady_clock read). Both the context and
/// the token are optional; with neither, Tick() is free and always OK.
///
/// The period trades responsiveness for overhead: at ~10M simplex pivots/s
/// a period of 1024 bounds deadline overshoot to ~0.1 ms.
class ExecCheckpoint {
 public:
  static constexpr uint32_t kDefaultPeriod = 1024;

  ExecCheckpoint(const ExecutionContext* exec, const CancellationToken* token,
                 const char* module, uint32_t period = kDefaultPeriod)
      : exec_(exec),
        token_(token != nullptr && token->CanBeCancelled() ? token : nullptr),
        module_(module),
        period_(period),
        countdown_(period) {
    if (exec_ != nullptr && !exec_->has_deadline() &&
        !exec_->token().CanBeCancelled()) {
      exec_ = nullptr;  // nothing to check: keep the fast path trivial
    }
  }

  /// Accounts one unit of work; OK on the amortized fast path.
  Status Tick() {
    if (--countdown_ != 0) return Status::OK();
    countdown_ = period_;
    return Fire();
  }

  /// The unamortized check (e.g. once per coarse-grained round).
  Status Fire();

 private:
  const ExecutionContext* exec_;
  const CancellationToken* token_;
  const char* module_;
  uint32_t period_;
  uint32_t countdown_;
};

/// \brief Deterministic first-SAT-wins fan-out coordination.
///
/// Both parallel fan-outs in the pipeline (IlpSolver::SolveDnf and the LCTA
/// accepting-root loop) race branches for the first terminal answer while
/// keeping the *verdict* schedule-independent: the reported answer is the
/// one with the smallest branch index, and every branch at or below the
/// current terminal index always runs to completion. Pre-governor, each site
/// hand-rolled this with an atomic `stop_at` plus a raw flag per branch;
/// FirstWinsFanout centralizes the protocol on CancellationTokens.
///
/// Usage: construct with the branch count and the caller's token; give
/// branch i `TokenFor(i)`; when branch i reaches a terminal answer call
/// `MarkTerminal(i)` — every branch with a larger index is cancelled.
/// `Abandoned(i)` tells a scheduler whether branch i no longer matters.
class FirstWinsFanout {
 public:
  FirstWinsFanout(size_t num_branches, const CancellationToken& parent);

  size_t size() const { return tokens_.size(); }

  /// The token branch \p i must poll; a child of the caller's token.
  const CancellationToken& TokenFor(size_t i) const { return tokens_[i]; }

  /// Records that branch \p i produced a terminal answer. Lowers the
  /// terminal index monotonically (CAS) and cancels all higher branches.
  void MarkTerminal(size_t i);

  /// True when some branch with index <= \p i already produced a terminal
  /// answer strictly below \p i — branch i's outcome can no longer affect
  /// the verdict.
  bool Abandoned(size_t i) const {
    return i > stop_at_.load(std::memory_order_acquire);
  }

  /// Smallest branch index known to be terminal (size() when none).
  size_t stop_at() const { return stop_at_.load(std::memory_order_acquire); }

 private:
  std::vector<CancellationToken> tokens_;
  // atomic: min-CAS in MarkTerminal (release), acquire reads in Abandoned —
  // a branch that observes stop_at < i sees the winner's writes.
  std::atomic<size_t> stop_at_;
};

}  // namespace fo2dt

