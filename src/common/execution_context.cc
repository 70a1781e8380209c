#include "common/execution_context.h"

#include "common/strings.h"

namespace fo2dt {

CancellationToken CancellationToken::Create() {
  return CancellationToken(std::make_shared<State>());
}

CancellationToken CancellationToken::WrapFlag(const std::atomic<bool>* flag) {
  auto state = std::make_shared<State>();
  state->external = flag;
  return CancellationToken(std::move(state));
}

CancellationToken CancellationToken::Child() const {
  auto state = std::make_shared<State>();
  state->parent = state_;  // nullptr parent (inert token) -> fresh root
  return CancellationToken(std::move(state));
}

ExecutionContext::ExecutionContext(const ExecutionContext* parent)
    : start_(parent->start_),
      deadline_(parent->deadline_),
      budget_ms_(parent->budget_ms_),
      has_deadline_(parent->has_deadline_),
      token_(parent->token_),
      request_id_(parent->request_id_),
      max_bytes_(parent->max_bytes_),
      memory_parent_(parent) {}

void ExecutionContext::MergeSlotInto(const ExecutionContext& parent,
                                     bool counts) const {
  auto add = [](const std::atomic<uint64_t>& from, std::atomic<uint64_t>* to) {
    to->fetch_add(from.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
  };
  add(counters_.deadline_checks, &parent.counters_.deadline_checks);
  for (size_t i = 0; i < kPhaseCount; ++i) {
    add(phases_.slots[i].wall_ns, &parent.phases_.slots[i].wall_ns);
  }
  if (!counts) return;
  add(counters_.simplex_pivots, &parent.counters_.simplex_pivots);
  add(counters_.ilp_nodes, &parent.counters_.ilp_nodes);
  add(counters_.search_steps, &parent.counters_.search_steps);
  add(counters_.lcta_cut_rounds, &parent.counters_.lcta_cut_rounds);
  add(counters_.vata_candidates, &parent.counters_.vata_candidates);
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseAccumulator::Slot& from = phases_.slots[i];
    PhaseAccumulator::Slot& to = parent.phases_.slots[i];
    add(from.calls, &to.calls);
    add(from.effort, &to.effort);
    PhaseAccumulator::MaxInto(&to.mem_peak,
                              from.mem_peak.load(std::memory_order_relaxed));
  }
  parent.phases_.RecordDepth(
      phases_.ilp_max_depth.load(std::memory_order_relaxed));
}

Status ExecutionContext::ChargeMemory(uint64_t bytes,
                                      const char* module) const {
  if (memory_parent_ != nullptr) {
    return memory_parent_->ChargeMemory(bytes, module);
  }
  uint64_t total =
      bytes_charged_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  phases_.RecordMemory(total);  // high-water gauge, budget or not
  // Per-phase attribution: the innermost open phase scope on this thread
  // wins; a charge outside any scope falls back to the charging module's
  // phase so no byte goes unattributed.
  Phase phase;
  if (!ScopedPhase::CurrentPhase(&phase)) phase = PhaseForModule(module);
  phases_.RecordPhaseMemory(phase, total);
  if (max_bytes_ != 0 && total > max_bytes_) {
    return Status::ResourceExhausted(
        StringFormat("memory budget exhausted in %s: %llu of %llu bytes",
                     module, static_cast<unsigned long long>(total),
                     static_cast<unsigned long long>(max_bytes_)),
        StopReason{StopKind::kMemoryBudget, module, total, max_bytes_});
  }
  return Status::OK();
}

Status ExecutionContext::Check(const char* module) const {
  if (token_.IsCancelled()) {
    return Status::Cancelled(
        StringFormat("cancelled by caller in %s", module),
        CancelReason(module));
  }
  if (has_deadline_) {
    counters_.deadline_checks.fetch_add(1, std::memory_order_relaxed);
    if (std::chrono::steady_clock::now() >= deadline_) {
      return Status::ResourceExhausted(
          StringFormat("deadline exceeded in %s: %llu of %llu ms", module,
                       static_cast<unsigned long long>(ElapsedMs()),
                       static_cast<unsigned long long>(budget_ms_)),
          DeadlineReason(module));
    }
  }
  return Status::OK();
}

Status ExecCheckpoint::Fire() {
  if (token_ != nullptr && token_->IsCancelled()) {
    // The branch token chains to the caller's token, so distinguish "the
    // whole solve was cancelled" from "a first-wins sibling won".
    if (exec_ != nullptr && exec_->token().IsCancelled()) {
      return Status::Cancelled(
          StringFormat("cancelled by caller in %s", module_),
          ExecutionContext::CancelReason(module_));
    }
    return Status::Cancelled(
        StringFormat("abandoned in %s: a sibling branch already produced the "
                     "answer",
                     module_),
        ExecutionContext::CancelReason(module_));
  }
  if (exec_ != nullptr) return exec_->Check(module_);
  return Status::OK();
}

FirstWinsFanout::FirstWinsFanout(size_t num_branches,
                                 const CancellationToken& parent)
    : stop_at_(num_branches) {
  tokens_.reserve(num_branches);
  for (size_t i = 0; i < num_branches; ++i) {
    tokens_.push_back(parent.Child());
  }
}

void FirstWinsFanout::MarkTerminal(size_t i) {
  size_t cur = stop_at_.load(std::memory_order_acquire);
  while (i < cur &&
         !stop_at_.compare_exchange_weak(cur, i, std::memory_order_acq_rel)) {
  }
  // Branches above the (possibly just lowered) terminal index can no longer
  // influence the verdict; cancel them so they stop burning cycles. Cancel
  // is idempotent, so racing winners may overlap harmlessly.
  size_t stop = stop_at_.load(std::memory_order_acquire);
  for (size_t j = stop + 1; j < tokens_.size(); ++j) {
    tokens_[j].RequestCancel();
  }
}

}  // namespace fo2dt
