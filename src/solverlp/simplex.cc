#include "solverlp/simplex.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/trace.h"

namespace fo2dt {

namespace {

// Federates the simplex counter family into the unified MetricsRegistry
// (common/metrics.h); keys mirror the bench counter names.
const MetricsSourceRegistrar kSimplexMetricsSource(
    "simplex",
    [](MetricsSnapshot* snap) {
      SimplexCounters c = SimplexStats::Aggregate();
      snap->Set(names::kMetricSimplexPivots, static_cast<double>(c.pivots));
      snap->Set(names::kMetricSimplexTableauBuilds,
                static_cast<double>(c.tableau_builds));
      snap->Set(names::kMetricSimplexWarmStarts, static_cast<double>(c.warm_starts));
      snap->Set(names::kMetricSimplexWarmStartHits,
                static_cast<double>(c.warm_start_hits));
      snap->Set(names::kMetricSimplexWarmStartHitRate, c.WarmStartHitRate());
    },
    [] { SimplexStats::Reset(); });

// Safety-net pivot budget for the from-scratch Rebuild path. Bland's rule
// guarantees termination, so this is only insurance against a bug turning
// into a hang.
constexpr size_t kRebuildPivotCap = 10'000'000;

// Amortization period for governor (deadline/cancellation) checks inside
// the pivot loops; exact-rational pivots are slow enough that 256 bounds
// the deadline overshoot to well under a millisecond.
constexpr uint32_t kPivotCheckPeriod = 256;

// Flushes a pivot-loop's local count into the shared ExecCounters exactly
// once per loop invocation (atomics per pivot would contend across the
// fan-out workers).
struct PivotTally {
  const ExecutionContext* exec;
  uint64_t count = 0;
  ~PivotTally() {
    if (exec != nullptr && count != 0) {
      exec->counters().simplex_pivots.fetch_add(count,
                                                std::memory_order_relaxed);
    }
  }
};

}  // namespace

const Rational& IncrementalSimplex::At(const SparseRow& row, size_t col) {
  return std::find_if(row.begin(), row.end(), [col](const Cell& cell) {
           return cell.col == col;
         })->value;
}

void IncrementalSimplex::Scatter(size_t src) {
  const SparseRow& row = rows_[src];
  for (size_t k = 0; k < row.size(); ++k) {
    pos_[row[k].col] = static_cast<uint32_t>(k);
  }
}

void IncrementalSimplex::Unscatter(size_t src) {
  for (const Cell& cell : rows_[src]) pos_[cell.col] = kNoPos;
}

Rational IncrementalSimplex::SubtractScaled(size_t i, size_t src,
                                            size_t cancel_col) {
  SparseRow& row = rows_[i];
  const SparseRow& prow = rows_[src];
  // One pass over row i finds the cells src also holds, cancel_col's among
  // them (it supplies f).
  hits_.clear();
  matched_.assign(prow.size(), 0);
  size_t fpos = 0;
  for (size_t j = 0; j < row.size(); ++j) {
    const uint32_t k = pos_[row[j].col];
    if (k == kNoPos) continue;
    if (row[j].col == cancel_col) fpos = j;
    hits_.push_back({static_cast<uint32_t>(j), k});
    matched_[k] = 1;
  }
  const Rational f = row[fpos].value;
  // Update the hits from the back: a cell that cancels is swapped with the
  // last cell, which is never a hit still to visit.
  for (auto hit = hits_.rbegin(); hit != hits_.rend(); ++hit) {
    const size_t j = hit->first;
    const size_t col = row[j].col;
    if (col != cancel_col) {
      Rational& a = row[j].value;
      a.SubMul(f, prow[hit->second].value);
      if (!a.IsZero()) continue;
      // Cancelled: drop row i from the column's index list.
      std::vector<size_t>& rows = col_rows_[col];
      *std::find(rows.begin(), rows.end(), i) = rows.back();
      rows.pop_back();
    }
    if (j + 1 != row.size()) row[j] = std::move(row.back());
    row.pop_back();
  }
  for (size_t k = 0; k < prow.size(); ++k) {
    if (matched_[k]) continue;
    col_rows_[prow[k].col].push_back(i);
    row.push_back({prow[k].col, Rational()});
    row.back().value.SubMul(f, prow[k].value);
  }
  return f;
}

void IncrementalSimplex::RebuildColumnIndex() {
  col_rows_.assign(num_cols_, {});
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (const Cell& cell : rows_[i]) col_rows_[cell.col].push_back(i);
  }
}

void IncrementalSimplex::RebuildNegCost() {
  neg_cost_.Clear();
  for (size_t j = 0; j < cost_.size(); ++j) UpdateNegCost(j);
}

size_t IncrementalSimplex::AddColumn() {
  cost_.emplace_back(0);
  pos_.push_back(kNoPos);
  col_to_row_.push_back(kNoRow);
  col_rows_.emplace_back();
  return num_cols_++;
}

void IncrementalSimplex::EraseRow(size_t i) {
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(i));
  rhs_.erase(rhs_.begin() + static_cast<ptrdiff_t>(i));
  basis_.erase(basis_.begin() + static_cast<ptrdiff_t>(i));
  RebuildColumnIndex();
}

void IncrementalSimplex::Pivot(size_t row, size_t col) {
  ++SimplexStats::Local().pivots;
  SparseRow& prow = rows_[row];
  const Rational p = At(prow, col);
  if (!p.IsOne()) {
    for (Cell& cell : prow) cell.value /= p;
    rhs_[row] /= p;
  }
  // Eliminate col from every other row holding it (each row independently,
  // so the index order is irrelevant). The pivot cell is now 1, so the
  // target's col cell cancels to exact zero; it is dropped unevaluated and
  // col's index list is reset wholesale afterwards.
  Scatter(row);
  std::vector<size_t>& col_rows = col_rows_[col];
  for (size_t i : col_rows) {
    if (i == row) continue;
    const Rational f = SubtractScaled(i, row, col);
    rhs_[i].SubMul(f, rhs_[row]);
  }
  Unscatter(row);
  col_rows.assign(1, row);
  if (!cost_.empty() && !cost_[col].IsZero()) {
    const Rational f = cost_[col];
    for (const Cell& cell : prow) {
      cost_[cell.col].SubMul(f, cell.value);
      UpdateNegCost(cell.col);
    }
  }
  col_to_row_[basis_[row]] = kNoRow;
  col_to_row_[col] = row;
  basis_[row] = col;
}

Result<bool> IncrementalSimplex::RunPrimal() {
  ExecCheckpoint checkpoint(exec_, &token_, names::kModSolverlpSimplex,
                            kPivotCheckPeriod);
  PivotTally tally{exec_};
  for (;;) {
    FO2DT_RETURN_NOT_OK(checkpoint.Tick());
    // Bland: first column with negative maintained reduced cost.
    if (neg_cost_.empty()) return true;
    const size_t entering = *neg_cost_.begin();

    // Ratio test with Bland tie-break (smallest basis column index). Basis
    // indices are distinct, so the choice does not depend on row order.
    size_t leaving = kNoRow;
    Rational best_ratio;
    for (size_t i : col_rows_[entering]) {
      const Rational& a = At(rows_[i], entering);
      if (!a.IsPositive()) continue;
      Rational ratio = rhs_[i] / a;
      if (leaving == kNoRow || ratio < best_ratio ||
          (ratio == best_ratio && basis_[i] < basis_[leaving])) {
        leaving = i;
        best_ratio = std::move(ratio);
      }
    }
    if (leaving == kNoRow) return false;
    ++tally.count;
    Pivot(leaving, entering);
  }
}

IncrementalSimplex::DualStatus IncrementalSimplex::RunDualRepair(
    size_t max_pivots, Status* stop) {
  ExecCheckpoint checkpoint(exec_, &token_, names::kModSolverlpSimplex,
                            kPivotCheckPeriod);
  PivotTally tally{exec_};
  size_t used = 0;
  for (;;) {
    if (Status st = checkpoint.Tick(); !st.ok()) {
      if (stop != nullptr) *stop = std::move(st);
      return DualStatus::kStopped;
    }
    // Leaving row: negative rhs with the smallest basic column index (Bland).
    size_t r = kNoRow;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (rhs_[i].IsNegative() && (r == kNoRow || basis_[i] < basis_[r])) {
        r = i;
      }
    }
    if (r == kNoRow) return DualStatus::kFeasible;

    // Entering column: smallest index with a negative coefficient. With the
    // feasibility objective all reduced costs are zero, so every such column
    // ties the dual ratio test and Bland's smallest-index choice applies.
    size_t entering = num_cols_;
    for (const Cell& cell : rows_[r]) {
      if (cell.value.IsNegative() && cell.col < entering) entering = cell.col;
    }
    if (entering == num_cols_) {
      // basic = rhs - sum(a_j x_j) with all a_j >= 0 and rhs < 0: no x >= 0
      // can make the basic variable non-negative.
      return DualStatus::kInfeasible;
    }
    if (++used > max_pivots) return DualStatus::kCapExceeded;
    ++tally.count;
    Pivot(r, entering);
  }
}

void IncrementalSimplex::InitObjective(const LinearExpr& objective) {
  // Original costs per column, then reduce against the current basis:
  // d_j = c_j - sum_i c_{basis[i]} * T[i][j].
  std::vector<Rational> orig(num_cols_, Rational(0));
  for (const auto& [v, c] : objective.terms()) orig[v] = Rational(c);
  cost_ = orig;
  for (size_t i = 0; i < rows_.size(); ++i) {
    const Rational& cb = orig[basis_[i]];
    if (cb.IsZero()) continue;
    for (const Cell& cell : rows_[i]) cost_[cell.col].SubMul(cb, cell.value);
  }
  RebuildNegCost();
}

void IncrementalSimplex::RebuildColToRow() {
  col_to_row_.assign(num_cols_, kNoRow);
  for (size_t i = 0; i < rows_.size(); ++i) col_to_row_[basis_[i]] = i;
}

Result<IncrementalSimplex> IncrementalSimplex::Create(
    const LinearSystem& base, VarId num_vars, const ExecutionContext* exec) {
  for (const auto& atom : base) {
    if (atom.expr.NumVarsSpanned() > num_vars) {
      return Status::InvalidArgument(
          "constraint mentions variable >= num_vars: " + atom.ToString());
    }
  }
  return CreateInternal(base, num_vars, exec, CancellationToken());
}

Result<IncrementalSimplex> IncrementalSimplex::CreateInternal(
    const LinearSystem& base, VarId num_vars, const ExecutionContext* exec,
    CancellationToken token) {
  FO2DT_TRACE_SPAN(names::kSpanSolverlpTableauBuild);
  ++SimplexStats::Local().tableau_builds;

  IncrementalSimplex t;
  t.exec_ = exec;
  t.token_ = std::move(token);
  t.num_vars_ = num_vars;
  t.base_ = std::make_shared<const LinearSystem>(base);
  t.lower_.assign(num_vars, BoundRow());
  t.upper_.assign(num_vars, BoundRow());

  const size_t n = num_vars;
  const size_t m = base.size();
  size_t num_surplus = 0;
  for (const auto& atom : base) {
    if (atom.rel == LinearRel::kGe) ++num_surplus;
  }

  t.num_cols_ = n + num_surplus;  // structural | surplus
  t.rows_.resize(m);
  t.rhs_.assign(m, Rational(0));
  t.basis_.assign(m, 0);
  // Ids n+num_surplus .. n+num_surplus+m-1 are the phase-1 artificials. Their
  // columns are never stored: an artificial starts basic (implicitly a unit
  // column) and once it leaves the basis it is dropped outright (Chvatal's
  // rule — a nonbasic artificial may be deleted without changing the phase-1
  // verdict), so no entering scan ever needs its column. The tableau stays
  // m x (n+s) instead of m x (n+s+m), which spares every pivot from
  // maintaining an m x m row-operation image.
  t.col_to_row_.assign(t.num_cols_ + m, kNoRow);

  size_t surplus_at = n;
  for (size_t i = 0; i < m; ++i) {
    const LinearAtom& atom = base[i];
    SparseRow& row = t.rows_[i];
    // expr >= 0 means  sum a_j x_j >= -constant; rhs = -constant.
    row.reserve(atom.expr.terms().size() + 1);
    for (const auto& [v, c] : atom.expr.terms()) {
      row.push_back({v, Rational(c)});
    }
    Rational rhs = Rational(-atom.expr.constant());
    if (atom.rel == LinearRel::kGe) row.push_back({surplus_at++, Rational(-1)});
    // Make rhs non-negative for phase 1.
    if (rhs.IsNegative()) {
      for (Cell& cell : row) cell.value = -cell.value;
      rhs = -rhs;
    }
    t.rhs_[i] = rhs;
    // Artificial variable for this row: basic by id only, no stored column.
    const size_t art = n + num_surplus + i;
    t.basis_[i] = art;
    t.col_to_row_[art] = i;
  }

  t.RebuildColumnIndex();
  t.pos_.assign(t.num_cols_, kNoPos);
  // Phase 1: minimize the sum of artificials. Maintained reduced costs with
  // every artificial basic at cost 1: d_art = 0 and d_j = -sum_i T[i][j] for
  // the real columns.
  t.cost_.assign(t.num_cols_, Rational(0));
  for (const SparseRow& row : t.rows_) {
    for (const Cell& cell : row) t.cost_[cell.col] -= cell.value;
  }
  t.RebuildNegCost();
  FO2DT_ASSIGN_OR_RETURN(bool phase1_bounded, t.RunPrimal());
  if (!phase1_bounded) {
    return Status::Internal("phase-1 simplex reported unbounded");
  }
  Rational art_sum(0);
  for (size_t i = 0; i < m; ++i) {
    if (t.basis_[i] >= n + num_surplus) art_sum += t.rhs_[i];
  }
  if (!art_sum.IsZero()) {
    t.feasible_ = false;
    return t;
  }

  // Drive any zero-level artificials out of the basis; drop redundant rows.
  for (size_t i = 0; i < t.rows_.size();) {
    if (t.basis_[i] < n + num_surplus) {
      ++i;
      continue;
    }
    if (t.rows_[i].empty()) {
      // Row is 0 == 0 over real columns: redundant.
      t.EraseRow(i);
      continue;
    }
    // Bland: the smallest column of the row enters.
    size_t entering = t.num_cols_;
    for (const Cell& cell : t.rows_[i]) entering = std::min(entering, cell.col);
    t.Pivot(i, entering);
    ++i;
  }

  // No artificial is basic now; forget their ids (RebuildColToRow shrinks
  // col_to_row_ back to the stored columns).
  t.cost_.assign(t.num_cols_, Rational(0));  // feasibility objective
  t.neg_cost_.Clear();
  t.RebuildColToRow();
  t.feasible_ = true;
  return t;
}

void IncrementalSimplex::InsertBoundRow(VarId v, const BigInt& value,
                                        bool is_upper) {
  const size_t scol = AddColumn();

  // Lower bound enters the system as  x_v - s = lo  (s >= 0), upper as
  // x_v + s = hi. If x_v is basic its row is subtracted to keep basic columns
  // unit; a final negation (lower bounds only) makes s basic with +1.
  const size_t nrow = rows_.size();
  rows_.push_back({{v, Rational(1)},
                   {scol, is_upper ? Rational(1) : Rational(-1)}});
  col_rows_[scol].push_back(nrow);
  Rational nrhs = Rational(BigInt(value));
  const size_t vrow = col_to_row_[v];
  if (vrow != kNoRow) {
    // x_v's unit column cancels: the new row holds no x_v cell.
    Scatter(vrow);
    SubtractScaled(nrow, vrow, v);
    Unscatter(vrow);
    nrhs -= rhs_[vrow];
  } else {
    col_rows_[v].push_back(nrow);
  }
  if (!is_upper) {
    for (Cell& cell : rows_[nrow]) cell.value = -cell.value;
    nrhs = -nrhs;
  }
  col_to_row_[scol] = nrow;
  basis_.push_back(scol);
  rhs_.push_back(std::move(nrhs));

  BoundRow& b = is_upper ? upper_[v] : lower_[v];
  b.set = true;
  b.col = scol;
  b.value = value;
}

void IncrementalSimplex::TightenBoundRow(VarId v, const BigInt& value,
                                         bool is_upper) {
  BoundRow& b = is_upper ? upper_[v] : lower_[v];
  const BigInt delta = value - b.value;
  // The bound row's surplus column s appears in exactly one original row, so
  // in the current tableau (a row-operation image of the original system) a
  // bound-constant change of delta shifts every rhs by +-delta times the
  // current column of s. No pivot, no rebuild.
  const Rational db = is_upper ? Rational(delta) : Rational(-delta);
  const size_t col = b.col;
  for (size_t i : col_rows_[col]) rhs_[i] += db * At(rows_[i], col);
  b.value = value;
}

size_t IncrementalSimplex::DualPivotCap() const {
  return 100 + 10 * (rows_.size() + num_cols_);
}

Status IncrementalSimplex::ApplyBound(VarId v, const BigInt& value,
                                      bool is_upper) {
  if (v >= num_vars_) {
    return Status::InvalidArgument("bound on variable >= num_vars");
  }
  if (!feasible_) {
    return Status::Internal("bound change applied to an infeasible tableau");
  }
  SimplexCounters& counters = SimplexStats::Local();
  ++counters.warm_starts;

  BoundRow& b = is_upper ? upper_[v] : lower_[v];
  if (!b.set) {
    if (!is_upper && !value.IsPositive()) {
      // x >= 0 already holds implicitly; nothing to add.
      ++counters.warm_start_hits;
      return Status::OK();
    }
    InsertBoundRow(v, value, is_upper);
  } else {
    const int cmp = value.Compare(b.value);
    if (cmp == 0) {
      ++counters.warm_start_hits;
      return Status::OK();
    }
    if (is_upper ? cmp > 0 : cmp < 0) {
      return Status::InvalidArgument("bounds may only be tightened");
    }
    TightenBoundRow(v, value, is_upper);
  }

  // Failpoint: pretend the dual repair blew its pivot cap so tests can
  // drive the Rebuild safety net deterministically.
  bool force_rebuild = false;
  FO2DT_FAILPOINT(names::kFpSimplexForceRebuild, &force_rebuild);

  Status stop;
  switch (force_rebuild ? DualStatus::kCapExceeded
                        : RunDualRepair(DualPivotCap(), &stop)) {
    case DualStatus::kFeasible:
      ++counters.warm_start_hits;
      return Status::OK();
    case DualStatus::kInfeasible:
      ++counters.warm_start_hits;
      feasible_ = false;
      return Status::OK();
    case DualStatus::kCapExceeded:
      return Rebuild();
    case DualStatus::kStopped:
      // Mid-repair stop: the tableau may be primal-infeasible; the caller
      // is unwinding the whole search, so it must not reuse it.
      return stop;
  }
  return Status::Internal("unreachable dual status");
}

Status IncrementalSimplex::SetLowerBound(VarId v, const BigInt& lo) {
  return ApplyBound(v, lo, /*is_upper=*/false);
}

Status IncrementalSimplex::SetUpperBound(VarId v, const BigInt& hi) {
  return ApplyBound(v, hi, /*is_upper=*/true);
}

Status IncrementalSimplex::Rebuild() {
  const std::vector<BoundRow> lo = std::move(lower_);
  const std::vector<BoundRow> hi = std::move(upper_);
  FO2DT_ASSIGN_OR_RETURN(IncrementalSimplex fresh,
                         CreateInternal(*base_, num_vars_, exec_, token_));
  if (!fresh.feasible_) {
    return Status::Internal("rebuild: previously feasible base is infeasible");
  }
  for (VarId v = 0; v < num_vars_ && fresh.feasible_; ++v) {
    for (int pass = 0; pass < 2 && fresh.feasible_; ++pass) {
      const bool is_upper = pass == 1;
      const BoundRow& b = is_upper ? hi[v] : lo[v];
      if (!b.set) continue;
      fresh.InsertBoundRow(v, b.value, is_upper);
      Status stop;
      switch (fresh.RunDualRepair(kRebuildPivotCap, &stop)) {
        case DualStatus::kFeasible:
          break;
        case DualStatus::kInfeasible:
          fresh.feasible_ = false;
          break;
        case DualStatus::kCapExceeded:
          return Status::Internal(
                     "rebuild exceeded its pivot budget")
              .WithStopReason(StopReason{StopKind::kPivotBudget,
                                         names::kModSolverlpSimplex, kRebuildPivotCap,
                                         kRebuildPivotCap});
        case DualStatus::kStopped:
          return stop;
      }
    }
  }
  *this = std::move(fresh);
  return Status::OK();
}

std::vector<Rational> IncrementalSimplex::Assignment() const {
  std::vector<Rational> out(num_vars_, Rational(0));
  for (size_t i = 0; i < rows_.size(); ++i) {
    if (basis_[i] < num_vars_) out[basis_[i]] = rhs_[i];
  }
  return out;
}

Result<LpSolution> SimplexSolver::Minimize(const LinearExpr& objective,
                                           const LinearSystem& system,
                                           VarId num_vars,
                                           const ExecutionContext* exec) {
  if (objective.NumVarsSpanned() > num_vars) {
    return Status::InvalidArgument("objective mentions variable >= num_vars");
  }
  FO2DT_ASSIGN_OR_RETURN(IncrementalSimplex t,
                         IncrementalSimplex::Create(system, num_vars, exec));
  LpSolution out;
  if (!t.feasible()) {
    out.status = LpStatus::kInfeasible;
    return out;
  }

  // Phase 2: install the real objective and re-optimize.
  t.InitObjective(objective);
  FO2DT_ASSIGN_OR_RETURN(bool phase2_bounded, t.RunPrimal());
  if (!phase2_bounded) {
    out.status = LpStatus::kUnbounded;
    return out;
  }
  out.status = LpStatus::kOptimal;
  out.assignment = t.Assignment();
  out.objective = Rational(objective.constant());
  for (const auto& [v, c] : objective.terms()) {
    out.objective += Rational(c) * out.assignment[v];
  }
  return out;
}

Result<LpSolution> SimplexSolver::FindFeasible(const LinearSystem& system,
                                               VarId num_vars,
                                               const ExecutionContext* exec) {
  return Minimize(LinearExpr(), system, num_vars, exec);
}

}  // namespace fo2dt
