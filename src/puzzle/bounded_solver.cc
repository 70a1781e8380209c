#include "puzzle/bounded_solver.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/registry_names.h"
#include "lcta/lcta.h"

namespace fo2dt {

namespace {

constexpr const char* kBoundedModule = names::kModPuzzleBounded;

/// DFS state for one tree shape.
class ShapeSearch {
 public:
  ShapeSearch(const Puzzle& puzzle, const std::vector<uint32_t>& parents,
              const std::vector<ExtSymbol>& allowed_letters, uint64_t* steps,
              uint64_t max_steps, const ExecutionContext* exec)
      : puzzle_(puzzle),
        allowed_(allowed_letters),
        steps_(steps),
        max_steps_(max_steps),
        checkpoint_(exec, /*token=*/nullptr, kBoundedModule),
        n_(parents.size()) {
    (void)skeleton_.CreateRoot(0, 0);
    for (size_t v = 1; v < n_; ++v) {
      (void)skeleton_.AppendChild(parents[v], 0, 0);
    }
    letters_.assign(n_, 0);
    class_of_.assign(n_, 0);
  }

  /// Runs the DFS; returns kSat/kUnsatWithinBound/kBudgetExhausted.
  Result<BoundedVerdict> Run(BoundedSolveResult* out) {
    return Assign(0, /*num_classes=*/0, out);
  }

 private:
  /// Partial pruning: do classes named so far break a (b)/(c) condition?
  /// Only conditions that are monotone in added nodes are pruned here.
  bool PartialClassesViolate(size_t num_assigned, size_t num_classes) const {
    for (const SimpleFormula& c : puzzle_.class_conditions) {
      if (c.kind == SimpleFormula::Kind::kImpliesPresence ||
          c.kind == SimpleFormula::Kind::kProfile) {
        continue;  // not monotone / handled elsewhere
      }
      for (size_t cls = 0; cls < num_classes; ++cls) {
        size_t alpha = 0;
        size_t beta = 0;
        for (size_t v = 0; v < num_assigned; ++v) {
          if (class_of_[v] != cls) continue;
          if (TypeContains(c.alpha, letters_[v])) ++alpha;
          if (c.kind == SimpleFormula::Kind::kNoCoexist &&
              TypeContains(c.beta, letters_[v])) {
            ++beta;
          }
        }
        if (c.kind == SimpleFormula::Kind::kAtMostOne && alpha > 1) return true;
        if (c.kind == SimpleFormula::Kind::kNoCoexist && alpha > 0 && beta > 0) {
          return true;
        }
      }
    }
    return false;
  }

  Result<BoundedVerdict> Assign(size_t v, size_t num_classes,
                                BoundedSolveResult* out) {
    if (v == n_) return Complete(out);
    for (ExtSymbol letter : allowed_) {
      // Restricted growth: class ids 0..num_classes (a fresh one allowed).
      for (size_t cls = 0; cls <= num_classes && cls < n_; ++cls) {
        if (++*steps_ > max_steps_) return BoundedVerdict::kBudgetExhausted;
        // Deadline/cancellation abort the search with an error status (the
        // facade maps it to kUnknown); amortized to keep the DFS hot path.
        FO2DT_RETURN_NOT_OK(checkpoint_.Tick());
        letters_[v] = letter;
        class_of_[v] = cls;
        if (PartialClassesViolate(v + 1,
                                  std::max(num_classes, cls + 1))) {
          continue;
        }
        FO2DT_ASSIGN_OR_RETURN(
            BoundedVerdict verdict,
            Assign(v + 1, std::max(num_classes, cls + 1), out));
        if (verdict != BoundedVerdict::kUnsatWithinBound) return verdict;
      }
    }
    return BoundedVerdict::kUnsatWithinBound;
  }

  Result<BoundedVerdict> Complete(BoundedSolveResult* out) {
    // Materialize the candidate: base labels + data values + interpretation.
    DataTree t = skeleton_;
    PredInterpretation interp =
        PredInterpretation::Empty(puzzle_.ext.num_preds, n_);
    for (NodeId v = 0; v < n_; ++v) {
      t.set_label(v, puzzle_.ext.LabelOf(letters_[v]));
      t.set_data(v, class_of_[v]);
      uint32_t bits = puzzle_.ext.BitsOf(letters_[v]);
      for (PredId p = 0; p < puzzle_.ext.num_preds; ++p) {
        if ((bits >> p) & 1u) interp.membership[p][v] = 1;
      }
    }
    FO2DT_ASSIGN_OR_RETURN(bool ok, IsPuzzleSolution(puzzle_, t, interp));
    if (!ok) return BoundedVerdict::kUnsatWithinBound;
    out->witness = std::move(t);
    out->interp = std::move(interp);
    return BoundedVerdict::kSat;
  }

  const Puzzle& puzzle_;
  const std::vector<ExtSymbol>& allowed_;
  uint64_t* steps_;
  uint64_t max_steps_;
  ExecCheckpoint checkpoint_;
  size_t n_;
  DataTree skeleton_;
  std::vector<ExtSymbol> letters_;
  std::vector<size_t> class_of_;
};

}  // namespace

Result<BoundedSolveResult> SolvePuzzleBounded(
    const Puzzle& puzzle, const BoundedSolveOptions& options) {
  ScopedPhase phase(Phase::kBoundedSearch, options.exec);
  BoundedSolveResult out;
  // Flushes the step count as phase effort on every exit path, including
  // error propagation (destroyed before phase by construction order).
  struct EffortFlush {
    ScopedPhase* phase;
    const uint64_t* steps;
    ~EffortFlush() { phase->AddEffort(*steps); }
  } effort_flush{&phase, &out.steps};
  // Letters that can appear at all: non-root symbols are read by their
  // outgoing transition, roots by F; a letter some profiled variant of which
  // occurs nowhere can be skipped entirely.
  std::vector<char> symbol_used(puzzle.ext.profiled_size(), 0);
  for (const auto& [f, sym, to] : puzzle.language.horizontal()) {
    (void)f;
    (void)to;
    symbol_used[sym] = 1;
  }
  for (const auto& [f, sym, to] : puzzle.language.vertical()) {
    (void)f;
    (void)to;
    symbol_used[sym] = 1;
  }
  for (const auto& [q, sym] : puzzle.language.accepting()) {
    (void)q;
    symbol_used[sym] = 1;
  }
  std::vector<ExtSymbol> allowed;
  for (ExtSymbol l = 0; l < puzzle.ext.size(); ++l) {
    for (uint32_t p = 0; p < kNumProfiles; ++p) {
      if (symbol_used[puzzle.ext.Profiled(l, p)]) {
        allowed.push_back(l);
        break;
      }
    }
  }
  if (allowed.empty()) {
    out.verdict = BoundedVerdict::kUnsatWithinBound;
    return out;
  }
  bool budget_hit = false;
  for (size_t n = 1; n <= options.max_nodes; ++n) {
    for (const auto& parents : EnumerateTreeShapes(n)) {
      ShapeSearch search(puzzle, parents, allowed, &out.steps,
                         options.max_steps, options.exec);
      auto run = search.Run(&out);
      if (options.exec != nullptr) {
        // Flushed per shape so governed callers see effort even on errors.
        options.exec->counters().search_steps.store(
            out.steps, std::memory_order_relaxed);
      }
      FO2DT_ASSIGN_OR_RETURN(BoundedVerdict verdict, std::move(run));
      if (verdict == BoundedVerdict::kSat) {
        out.verdict = verdict;
        return out;
      }
      if (verdict == BoundedVerdict::kBudgetExhausted) budget_hit = true;
    }
    if (budget_hit) break;
  }
  if (budget_hit) {
    out.verdict = BoundedVerdict::kBudgetExhausted;
    out.stop_reason = StopReason{StopKind::kStepBudget, kBoundedModule,
                                 out.steps, options.max_steps};
  } else {
    out.verdict = BoundedVerdict::kUnsatWithinBound;
  }
  return out;
}

}  // namespace fo2dt
