#include "solverlp/ilp.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/strings.h"
#include "common/thread_stats.h"

namespace fo2dt {

BigInt IlpSolver::SmallSolutionBound(const LinearSystem& system,
                                     VarId num_vars) {
  // Papadimitriou ("On the complexity of integer programming", JACM 1981):
  // a feasible system Ax = b over N with m rows, n columns, and entries of
  // magnitude at most a has a solution with entries at most
  // n * (m * a + max|b| + 1)^(2m+1) -- inequalities reduce to equalities by
  // adding m slack columns, which the n in front absorbs below.
  BigInt a_max(1);
  BigInt b_max(0);
  for (const auto& atom : system) {
    for (const auto& [v, c] : atom.expr.terms()) {
      (void)v;
      a_max = std::max(a_max, c.Abs());
    }
    b_max = std::max(b_max, atom.expr.constant().Abs());
  }
  BigInt m(static_cast<int64_t>(system.size()));
  BigInt n(static_cast<int64_t>(num_vars) + static_cast<int64_t>(system.size()));
  BigInt base = m * a_max + b_max + BigInt(1);
  BigInt result = n.IsZero() ? BigInt(1) : n;
  int64_t exp = 2 * static_cast<int64_t>(system.size()) + 1;
  for (int64_t i = 0; i < exp; ++i) result *= base;
  return result;
}

namespace {

/// The gcd of \p expr's coefficients (early exit at 1).
BigInt CoefficientGcd(const LinearExpr& expr) {
  BigInt g(0);
  for (const auto& term : expr.terms()) {
    g = BigInt::Gcd(g, term.second);
    if (g.IsOne()) break;
  }
  return g;
}

/// GCD normalization (exact for equalities, Chvátal-Gomory tightening for
/// inequalities): divides every atom by the gcd of its coefficients and
/// drops trivially true atoms. Returns null when the system is
/// integer-infeasible outright (a false constant atom, or an equality whose
/// constant the gcd does not divide). When no atom changes, which is the
/// common case (flow systems have unit coefficients), the result aliases
/// \p in without owning it and must not outlive it.
std::shared_ptr<const LinearSystem> Preprocess(const LinearSystem& in) {
  bool unchanged = true;
  for (const LinearAtom& atom : in) {
    if (atom.expr.terms().empty() || !CoefficientGcd(atom.expr).IsOne()) {
      unchanged = false;
      break;
    }
  }
  if (unchanged) {
    return std::shared_ptr<const LinearSystem>(
        std::shared_ptr<const LinearSystem>(), &in);
  }
  auto out = std::make_shared<LinearSystem>();
  out->reserve(in.size());
  for (const LinearAtom& atom : in) {
    const BigInt& c = atom.expr.constant();
    if (atom.expr.terms().empty()) {
      bool holds = atom.rel == LinearRel::kGe ? c >= BigInt(0) : c.IsZero();
      if (!holds) return nullptr;
      continue;  // trivially true; drop
    }
    const BigInt g = CoefficientGcd(atom.expr);
    if (g.IsOne()) {
      out->push_back(atom);
      continue;
    }
    LinearExpr e;
    for (const auto& [v, coeff] : atom.expr.terms()) e.AddTerm(v, coeff / g);
    if (atom.rel == LinearRel::kEq) {
      if (!(c % g).IsZero()) return nullptr;
      e.AddConstant(c / g);
      out->push_back(LinearAtom::Eq(std::move(e)));
    } else {
      // sum a x + c >= 0  <=>  sum (a/g) x >= ceil(-c/g); rewritten back the
      // tightened constant is floor(c/g).
      e.AddConstant(c.FloorDiv(g));
      out->push_back(LinearAtom::Ge(std::move(e)));
    }
  }
  return out;
}

constexpr const char* kIlpModule = names::kModSolverlpIlp;

// Amortization period for deadline reads between branch-and-bound nodes; a
// node costs at least one dual-simplex repair, so 16 keeps the overshoot
// tiny without a clock read per node.
constexpr uint32_t kNodeCheckPeriod = 16;

struct SearchState {
  VarId num_vars = 0;
  size_t nodes = 0;
  size_t max_nodes = 0;
  size_t depth = 0;      // current B&B recursion depth
  size_t max_depth = 0;  // deepest node seen (the PhaseProfile gauge)
  // Cancellation (caller token chained with first-SAT-wins abandonment: the
  // branch token is cancelled once a sibling DNF branch with a smaller index
  // has terminated) plus the optional execution governor (deadline).
  CancellationToken token;
  const ExecutionContext* exec = nullptr;
  ExecCheckpoint deadline_check{nullptr, nullptr, kIlpModule};

  void ArmGovernor() {
    deadline_check =
        ExecCheckpoint(exec, /*token=*/nullptr, kIlpModule, kNodeCheckPeriod);
  }

  /// Per-node stop check: the branch token every node, the deadline
  /// amortized. Returns Cancelled / ResourceExhausted with a StopReason.
  Status CheckStop() {
    if (token.IsCancelled()) {
      if (exec != nullptr && exec->token().IsCancelled()) {
        return Status::Cancelled("ILP search cancelled by caller",
                                 ExecutionContext::CancelReason(kIlpModule));
      }
      return Status::Cancelled(
          "ILP search abandoned: a sibling DNF branch already terminated",
          ExecutionContext::CancelReason(kIlpModule));
    }
    return deadline_check.Tick();
  }
};

/// Tracks B&B recursion depth across Branch's early returns.
struct DepthGuard {
  explicit DepthGuard(SearchState* st) : st_(st) {
    if (++st_->depth > st_->max_depth) st_->max_depth = st_->depth;
  }
  ~DepthGuard() { --st_->depth; }
  DepthGuard(const DepthGuard&) = delete;
  DepthGuard& operator=(const DepthGuard&) = delete;
  SearchState* st_;
};

/// One branch-and-bound node. The tableau arrives already repaired for this
/// node's bounds; branching copies it once for the down child and mutates it
/// in place for the up child (one dual-simplex warm start each, never a
/// from-scratch rebuild).
Result<std::optional<IntAssignment>> Branch(IncrementalSimplex tab,
                                            SearchState* st) {
  DepthGuard depth_guard(st);
  // Failpoint: per-node observation/cancellation hook (tests use it to
  // request cancellation from inside a running search).
  FO2DT_FAILPOINT(names::kFpIlpBranch, nullptr);
  if (++st->nodes > st->max_nodes) {
    return Status::ResourceExhausted(
        StringFormat("ILP branch-and-bound node budget exceeded in %s: "
                     "%zu of %zu nodes",
                     kIlpModule, st->nodes, st->max_nodes),
        StopReason{StopKind::kNodeBudget, kIlpModule, st->nodes,
                   st->max_nodes});
  }
  FO2DT_RETURN_NOT_OK(st->CheckStop());
  if (!tab.feasible()) {
    return std::optional<IntAssignment>();
  }
  std::vector<Rational> x = tab.Assignment();
  // Pick the most fractional coordinate.
  VarId frac_var = st->num_vars;
  Rational best_dist(0);
  for (VarId v = 0; v < st->num_vars; ++v) {
    if (x[v].IsInteger()) continue;
    Rational frac = x[v] - Rational(x[v].Floor());
    Rational dist = std::min(frac, Rational(1) - frac,
                             [](const Rational& a, const Rational& b) {
                               return a < b;
                             });
    if (frac_var == st->num_vars || dist > best_dist) {
      frac_var = v;
      best_dist = dist;
    }
  }
  if (frac_var == st->num_vars) {
    IntAssignment out(st->num_vars);
    for (VarId v = 0; v < st->num_vars; ++v) out[v] = x[v].Floor();
    return std::optional<IntAssignment>(std::move(out));
  }
  const BigInt floor = x[frac_var].Floor();
  // Down branch: x <= floor (strictly tighter, since floor < x <= old hi).
  {
    IncrementalSimplex down = tab;
    FO2DT_RETURN_NOT_OK(down.SetUpperBound(frac_var, floor));
    FO2DT_ASSIGN_OR_RETURN(std::optional<IntAssignment> hit,
                           Branch(std::move(down), st));
    if (hit.has_value()) return hit;
  }
  // Up branch: x >= floor + 1 (strictly tighter, since old lo <= floor).
  FO2DT_RETURN_NOT_OK(tab.SetLowerBound(frac_var, floor + BigInt(1)));
  return Branch(std::move(tab), st);
}

/// Builds the root tableau (one phase-1 solve for the whole search) and runs
/// branch-and-bound.
Result<std::optional<IntAssignment>> RunSearch(
    const std::shared_ptr<const LinearSystem>& base,
    const std::optional<BigInt>& upper_bound, SearchState* st) {
  st->ArmGovernor();
  FO2DT_ASSIGN_OR_RETURN(
      IncrementalSimplex root,
      IncrementalSimplex::Create(base, st->num_vars, st->exec));
  root.SetGovernor(st->exec, st->token);
  if (upper_bound.has_value()) {
    for (VarId v = 0; v < st->num_vars && root.feasible(); ++v) {
      FO2DT_RETURN_NOT_OK(root.SetUpperBound(v, *upper_bound));
    }
  }
  return Branch(std::move(root), st);
}

/// Accumulates per-search node totals into \p nodes_used and the governor's
/// effort counters on every path (verdicts, errors, cancellation).
void FlushNodes(const SearchState& st, const IlpOptions& options,
                size_t* nodes_used) {
  *nodes_used += st.nodes;
  if (options.exec != nullptr) {
    options.exec->counters().ilp_nodes.fetch_add(st.nodes,
                                                 std::memory_order_relaxed);
    options.exec->phases().RecordDepth(st.max_depth);
  }
  PhaseCounters& local = PhaseStats::Local();
  if (st.max_depth > local.ilp_max_depth) local.ilp_max_depth = st.max_depth;
}

/// True when a non-OK search status may fall through from the slim unbounded
/// phase to the guaranteed-terminating bounded phase: only genuine node-
/// budget exhaustion qualifies; deadline/cancellation stops must propagate.
bool MayFallThrough(const Status& status) {
  if (!status.IsResourceExhausted()) return false;
  const StopReason* reason = status.stop_reason();
  return reason == nullptr || reason->kind == StopKind::kNodeBudget;
}

/// FindIntegerPoint with the fan-out plumbing exposed. \p nodes_used is
/// accumulated on every path, including errors and cancellation, so callers
/// can aggregate exact node totals. \p token is the branch's cancellation
/// token (caller token, possibly chained with first-SAT-wins abandonment).
Result<IlpSolution> FindIntegerPointImpl(const LinearSystem& system,
                                         VarId num_vars,
                                         const IlpOptions& options,
                                         const CancellationToken& token,
                                         size_t* nodes_used) {
  // One phase scope per DNF-branch solve; covers the nested simplex work too
  // (simplex and B&B are one attribution phase). Effort = B&B nodes.
  ScopedPhase phase(names::kModSolverlpIlp, Phase::kIlp, options.exec);
  IlpSolution out;
  // Both search phases' tableaux share the normalized system for their
  // rebuild safety net; none outlives this call.
  const std::shared_ptr<const LinearSystem> base = Preprocess(system);
  if (base == nullptr) {
    out.feasible = false;
    return out;
  }
  // Phase 1: unbounded search with a slim budget. Flow-style systems almost
  // always resolve here; the branch bounds stay small so the exact simplex
  // works with narrow numbers.
  if (options.two_phase && options.add_small_solution_bound) {
    SearchState st;
    st.num_vars = num_vars;
    st.max_nodes = std::max<size_t>(
        1, options.max_nodes / std::max<size_t>(1, options.unbounded_fraction));
    st.token = token;
    st.exec = options.exec;
    auto attempt = RunSearch(base, std::nullopt, &st);
    FlushNodes(st, options, nodes_used);
    phase.AddEffort(st.nodes);
    if (attempt.ok()) {
      out.nodes_explored = st.nodes;
      out.feasible = attempt->has_value();
      if (attempt->has_value()) out.assignment = std::move(**attempt);
      return out;
    }
    if (!MayFallThrough(attempt.status())) return attempt.status();
    out.nodes_explored += st.nodes;  // fall through to the bounded phase
  }
  std::optional<BigInt> bound;
  if (options.add_small_solution_bound && num_vars > 0) {
    bound = IlpSolver::SmallSolutionBound(*base, num_vars);
  }
  SearchState st;
  st.num_vars = num_vars;
  st.max_nodes = options.max_nodes;
  st.token = token;
  st.exec = options.exec;
  auto hit = RunSearch(base, bound, &st);
  FlushNodes(st, options, nodes_used);
  phase.AddEffort(st.nodes);
  if (!hit.ok()) return hit.status();
  out.nodes_explored += st.nodes;
  out.feasible = hit->has_value();
  if (hit->has_value()) out.assignment = std::move(**hit);
  return out;
}

/// The overall stop state of a solve: the caller's token, then the governor
/// (which also covers its own token and the deadline).
Status OverallStop(const IlpOptions& options) {
  if (options.cancel_token.IsCancelled()) {
    return Status::Cancelled("ILP DNF solve cancelled by caller",
                             ExecutionContext::CancelReason(kIlpModule));
  }
  if (options.exec != nullptr) return options.exec->Check(kIlpModule);
  return Status::OK();
}

}  // namespace

Result<IlpSolution> IlpSolver::FindIntegerPoint(const LinearSystem& system,
                                                VarId num_vars,
                                                const IlpOptions& options) {
  size_t nodes = 0;
  return FindIntegerPointImpl(system, num_vars, options, options.cancel_token,
                              &nodes);
}

Result<DnfSolveResult> IlpSolver::SolveDnf(
    const std::vector<LinearSystem>& branches, VarId num_vars,
    const IlpOptions& options) {
  DnfSolveResult out;
  out.outcomes.assign(branches.size(), BranchOutcome::kSkipped);
  if (branches.empty()) {
    out.solution.feasible = false;
    return out;
  }
  size_t num_threads =
      options.num_threads == 0
          ? std::max<size_t>(1, std::thread::hardware_concurrency())
          : options.num_threads;
  num_threads = std::min(num_threads, branches.size());

  if (num_threads <= 1) {
    for (size_t i = 0; i < branches.size(); ++i) {
      FO2DT_RETURN_NOT_OK(OverallStop(options));
      size_t nodes = 0;
      Result<IlpSolution> sol = FindIntegerPointImpl(
          branches[i], num_vars, options, options.cancel_token, &nodes);
      out.solution.nodes_explored += nodes;
      if (!sol.ok()) return sol.status();
      if (sol->feasible) {
        out.outcomes[i] = BranchOutcome::kFeasible;
        out.solution.feasible = true;
        out.solution.assignment = std::move(sol.value().assignment);
        return out;
      }
      out.outcomes[i] = BranchOutcome::kInfeasible;
    }
    out.solution.feasible = false;
    return out;
  }

  // Parallel fan-out with deterministic first-SAT-wins selection, driven by
  // FirstWinsFanout: its terminal index is the smallest branch index known
  // to be terminal (feasible or error); branches above it are abandoned
  // (their tokens get cancelled), branches below it always complete, so the
  // ascending scan after the join is independent of scheduling.
  struct Slot {
    enum Kind { kPending, kInfeasible, kFeasible, kAbandoned, kError };
    Kind kind = kPending;
    Status error;
    IntAssignment assignment;
    size_t nodes = 0;
    // The branch's governor: effort is held here until the scan below knows
    // whether the slot counts.
    std::unique_ptr<ExecutionContext> exec;
  };
  std::vector<Slot> slots(branches.size());
  // atomic: work-stealing ticket; relaxed fetch_add hands each branch index
  // to exactly one worker, slot writes are ordered by the thread join.
  std::atomic<size_t> next{0};
  FirstWinsFanout fanout(branches.size(), options.cancel_token);
  auto worker = [&]() {
    // Workers write thread-local solver counters; declare so that
    // ThreadStats aggregation can assert quiescence (the join below orders
    // this destructor before any post-solve Aggregate()).
    ScopedStatsWorker stats_worker;
    for (;;) {
      if (!OverallStop(options).ok()) return;
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= branches.size()) return;
      Slot& slot = slots[i];
      if (fanout.Abandoned(i)) {
        slot.kind = Slot::kAbandoned;
        continue;
      }
      IlpOptions slot_options = options;
      if (options.exec != nullptr) {
        slot.exec = std::make_unique<ExecutionContext>(options.exec);
        slot_options.exec = slot.exec.get();
      }
      Result<IlpSolution> sol = FindIntegerPointImpl(
          branches[i], num_vars, slot_options, fanout.TokenFor(i),
          &slot.nodes);
      // Failpoint: inject a worker fault after the branch solve (tests
      // prove a failing fan-out task surfaces as a clean error, joined and
      // leak-free, never a hang or a wrong verdict).
      if (Failpoints::CompiledIn() && sol.ok()) {
        Status injected;
        FO2DT_FAILPOINT(names::kFpIlpWorkerFault, &injected);
        if (!injected.ok()) sol = injected;
      }
      if (!sol.ok()) {
        if (sol.status().IsCancelled()) {
          slot.kind = Slot::kAbandoned;
          continue;
        }
        slot.error = sol.status();
        slot.kind = Slot::kError;
        fanout.MarkTerminal(i);
        continue;
      }
      if (sol->feasible) {
        slot.assignment = std::move(sol.value().assignment);
        slot.kind = Slot::kFeasible;
        fanout.MarkTerminal(i);
      } else {
        slot.kind = Slot::kInfeasible;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(num_threads - 1);
  for (size_t t = 1; t < num_threads; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();

  // All workers are joined: safe to aggregate stats and scan slots.
  // Effort (node counts here, the governor's counters and phase profile
  // through MergeSlotInto) sums only the slots up to the terminal index:
  // those always complete, so the totals equal what a sequential run
  // computes. Slots past it ran or not depending on scheduling and must not
  // count. A stopped solve keeps all the effort it spent.
  const Status stop = OverallStop(options);
  const size_t counted =
      stop.ok() ? std::min(fanout.stop_at() + 1, slots.size()) : slots.size();
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].exec != nullptr) {
      slots[i].exec->MergeSlotInto(*options.exec, i < counted);
    }
  }
  FO2DT_RETURN_NOT_OK(stop);

  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    out.solution.nodes_explored += slot.nodes;
    switch (slot.kind) {
      case Slot::kError:
        return slot.error;
      case Slot::kFeasible:
        out.outcomes[i] = BranchOutcome::kFeasible;
        out.solution.feasible = true;
        out.solution.assignment = std::move(slot.assignment);
        return out;
      case Slot::kInfeasible:
        out.outcomes[i] = BranchOutcome::kInfeasible;
        break;
      case Slot::kPending:
      case Slot::kAbandoned:
        // Every branch below the smallest terminal index completes; reaching
        // an unsolved slot here means that invariant broke.
        return Status::Internal("unsolved DNF branch below the terminal index");
    }
  }
  out.solution.feasible = false;
  return out;
}

Result<IlpSolution> IlpSolver::Solve(const LinearConstraint& constraint,
                                     VarId num_vars,
                                     const IlpOptions& options) {
  FO2DT_ASSIGN_OR_RETURN(std::vector<LinearSystem> dnf,
                         constraint.ToDnf(options.max_dnf_branches));
  FO2DT_ASSIGN_OR_RETURN(DnfSolveResult result,
                         SolveDnf(dnf, num_vars, options));
  return std::move(result.solution);
}

}  // namespace fo2dt
