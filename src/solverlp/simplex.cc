#include "solverlp/simplex.h"

#include <algorithm>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/registry_names.h"

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
// the pivot loops; exact pivots are slow enough that 256 bounds
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

// Three-way comparison of the ratios a / b and c / d, for b, d > 0 (the
// ratio test's rhs / cell over rows with different denominators: each row's
// denominator cancels out of its own ratio).
int CompareRatios(const BigInt& a, const BigInt& b, const BigInt& c,
                  const BigInt& d) {
  if (a.FitsInt64() && b.FitsInt64() && c.FitsInt64() && d.FitsInt64()) {
    const __int128 l = static_cast<__int128>(a.Small()) * d.Small();
    const __int128 r = static_cast<__int128>(c.Small()) * b.Small();
    return l < r ? -1 : (l > r ? 1 : 0);
  }
  return (a * d).Compare(c * b);
}

}  // namespace

IncrementalSimplex::Entry& IncrementalSimplex::FindEntry(size_t col,
                                                        size_t row) {
  return *std::find_if(
      col_rows_[col].begin(), col_rows_[col].end(),
      [row](const Entry& e) { return e.row == row; });
}

void IncrementalSimplex::DropCell(size_t i, uint32_t pos) {
  SparseRow& row = rows_[i];
  const uint32_t last = static_cast<uint32_t>(row.size() - 1);
  if (pos != last) {
    row[pos] = std::move(row[last]);
    FindEntry(row[pos].col, i).pos = pos;
  }
  row.pop_back();
}

void IncrementalSimplex::SubtractScaled(size_t i, size_t src,
                                        size_t cancel_col,
                                        const uint32_t* hit) {
  SparseRow& row = rows_[i];
  const SparseRow& prow = rows_[src];
  const BigInt& d = den_[src];
  // The hits in descending position order, cancel_col's among them (it
  // supplies f): a cell that cancels is swapped with the last cell, which
  // is then never a hit still to visit.
  hits_.clear();
  size_t fpos = 0;
  for (uint32_t k = 0; k < prow.size(); ++k) {
    if (hit[k] == kNoPos) continue;
    if (prow[k].col == cancel_col) fpos = hit[k];
    // Insertion sort: a row shares only a few cells with the pivot row.
    hits_.push_back({hit[k], k});
    for (size_t h = hits_.size() - 1; h > 0 && hits_[h - 1].first < hit[k];
         --h) {
      std::swap(hits_[h - 1], hits_[h]);
    }
  }
  const BigInt f = row[fpos].value;
  const bool scaled = !d.IsOne();
  if (scaled) {
    for (Cell& cell : row) cell.value *= d;
    rhs_[i] *= d;
    den_[i] *= d;
  }
  bool wide = false;
  for (const auto& [j, k] : hits_) {
    const size_t col = prow[k].col;
    if (col != cancel_col) {
      BigInt& a = row[j].value;
      a.SubMul(f, prow[k].value);
      if (!a.IsZero()) {
        wide |= !a.FitsInt64();
        continue;
      }
      // Cancelled: drop row i from the column's index list.
      FindEntry(col, i) = col_rows_[col].back();
      col_rows_[col].pop_back();
    }
    DropCell(i, j);
  }
  for (uint32_t k = 0; k < prow.size(); ++k) {
    if (hit[k] != kNoPos) continue;
    col_rows_[prow[k].col].push_back(
        {static_cast<uint32_t>(i), static_cast<uint32_t>(row.size())});
    row.push_back({prow[k].col, BigInt()});
    wide |= !row.back().value.SubMul(f, prow[k].value).FitsInt64();
  }
  wide |= !rhs_[i].SubMul(f, rhs_[src]).FitsInt64();
  if (scaled || wide) ReduceRow(i);
}

void IncrementalSimplex::ReduceRow(size_t i) {
  // A row over denominator 1 is already in lowest terms.
  if (den_[i].IsOne()) return;
  BigInt g = BigInt::Gcd(den_[i], rhs_[i]);
  for (const Cell& cell : rows_[i]) {
    if (g.IsOne()) return;
    g = BigInt::Gcd(g, cell.value);
  }
  if (g.IsOne()) return;
  for (Cell& cell : rows_[i]) cell.value /= g;
  rhs_[i] /= g;
  den_[i] /= g;
}

void IncrementalSimplex::ReduceCost() {
  BigInt g(0);
  for (const BigInt& c : cost_) {
    g = BigInt::Gcd(g, c);
    if (g.IsOne()) return;
  }
  if (g.IsZero()) return;
  for (BigInt& c : cost_) c /= g;
}

void IncrementalSimplex::RebuildColumnIndex() {
  col_rows_.assign(num_cols_, {});
  for (size_t i = 0; i < rows_.size(); ++i) {
    for (size_t k = 0; k < rows_[i].size(); ++k) {
      col_rows_[rows_[i][k].col].push_back(
          {static_cast<uint32_t>(i), static_cast<uint32_t>(k)});
    }
  }
}

void IncrementalSimplex::RebuildNegCost() {
  neg_cost_.Clear();
  for (size_t j = 0; j < cost_.size(); ++j) UpdateNegCost(j);
}

size_t IncrementalSimplex::AddColumn() {
  cost_.emplace_back(0);
  col_to_row_.push_back(kNoRow);
  col_rows_.emplace_back();
  return num_cols_++;
}

void IncrementalSimplex::EraseRow(size_t i) {
  rows_.erase(rows_.begin() + static_cast<ptrdiff_t>(i));
  rhs_.erase(rhs_.begin() + static_cast<ptrdiff_t>(i));
  den_.erase(den_.begin() + static_cast<ptrdiff_t>(i));
  basis_.erase(basis_.begin() + static_cast<ptrdiff_t>(i));
  RebuildColumnIndex();
}

void IncrementalSimplex::Pivot(size_t row, size_t col) {
  ++SimplexStats::Local().pivots;
  SparseRow& prow = rows_[row];
  const uint32_t ppos = FindEntry(col, row).pos;
  // Dividing the row by its col cell p/den leaves the cells over
  // denominator p: the pivot cell becomes the row's denominator, which must
  // be positive.
  BigInt p = prow[ppos].value;
  if (p.IsNegative()) {
    for (Cell& cell : prow) cell.value = -cell.value;
    rhs_[row] = -rhs_[row];
    p = -p;
  }
  den_[row] = std::move(p);
  ReduceRow(row);
  const BigInt& d = den_[row];
  // Eliminate col from every other row holding it (each row independently,
  // so the index order is irrelevant). The index lists of the pivot row's
  // columns say where each target holds them, so no target row is scanned.
  // The target's col cell cancels to exact zero; it is dropped unevaluated
  // and col's index list is reset wholesale afterwards.
  targets_.clear();
  for (const Entry& e : col_rows_[col]) {
    if (e.row != row) targets_.push_back(e.row);
  }
  if (slot_.size() < rows_.size()) slot_.resize(rows_.size(), kNoPos);
  for (uint32_t t = 0; t < targets_.size(); ++t) slot_[targets_[t]] = t;
  const size_t width = prow.size();
  hit_pos_.assign(targets_.size() * width, kNoPos);
  for (size_t k = 0; k < width; ++k) {
    for (const Entry& e : col_rows_[prow[k].col]) {
      const uint32_t t = slot_[e.row];
      if (t != kNoPos) hit_pos_[t * width + k] = e.pos;
    }
  }
  for (uint32_t t = 0; t < targets_.size(); ++t) {
    slot_[targets_[t]] = kNoPos;
    SubtractScaled(targets_[t], row, col, &hit_pos_[t * width]);
  }
  col_rows_[col].assign(1, {static_cast<uint32_t>(row), ppos});
  if (!cost_.empty() && !cost_[col].IsZero()) {
    // cost <- d * cost - f * row: a positive multiple of the reduced costs.
    const BigInt f = cost_[col];
    if (!d.IsOne()) {
      for (BigInt& c : cost_) c *= d;
    }
    for (const Cell& cell : prow) {
      cost_[cell.col].SubMul(f, cell.value);
      UpdateNegCost(cell.col);
    }
    if (!d.IsOne()) ReduceCost();
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
    const BigInt* leaving_cell = nullptr;
    for (const Entry& e : col_rows_[entering]) {
      const size_t i = e.row;
      const BigInt& a = rows_[i][e.pos].value;
      if (!a.IsPositive()) continue;
      const int cmp = leaving == kNoRow
                          ? -1
                          : CompareRatios(rhs_[i], a, rhs_[leaving],
                                          *leaving_cell);
      if (cmp < 0 || (cmp == 0 && basis_[i] < basis_[leaving])) {
        leaving = i;
        leaving_cell = &a;
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
  // d_j = c_j - sum_i c_{basis[i]} * T[i][j], exactly, then scaled to
  // integers by the lcm of the denominators.
  std::vector<BigInt> orig(num_cols_, BigInt(0));
  for (const auto& [v, c] : objective.terms()) orig[v] = c;
  std::vector<Rational> reduced(orig.begin(), orig.end());
  for (size_t i = 0; i < rows_.size(); ++i) {
    const BigInt& cb = orig[basis_[i]];
    if (cb.IsZero()) continue;
    for (const Cell& cell : rows_[i]) {
      reduced[cell.col] -= Rational(cb * cell.value, den_[i]);
    }
  }
  BigInt lcm(1);
  for (const Rational& r : reduced) {
    lcm = lcm / BigInt::Gcd(lcm, r.den()) * r.den();
  }
  cost_.resize(num_cols_);
  for (size_t j = 0; j < num_cols_; ++j) {
    cost_[j] = reduced[j].num() * (lcm / reduced[j].den());
  }
  RebuildNegCost();
}

void IncrementalSimplex::RebuildColToRow() {
  col_to_row_.assign(num_cols_, kNoRow);
  for (size_t i = 0; i < rows_.size(); ++i) col_to_row_[basis_[i]] = i;
}

Result<IncrementalSimplex> IncrementalSimplex::Create(
    std::shared_ptr<const LinearSystem> base, VarId num_vars,
    const ExecutionContext* exec) {
  for (const auto& atom : *base) {
    if (atom.expr.NumVarsSpanned() > num_vars) {
      return Status::InvalidArgument(
          "constraint mentions variable >= num_vars: " + atom.ToString());
    }
  }
  return CreateInternal(std::move(base), num_vars, exec, CancellationToken());
}

Result<IncrementalSimplex> IncrementalSimplex::CreateInternal(
    std::shared_ptr<const LinearSystem> base, VarId num_vars,
    const ExecutionContext* exec, CancellationToken token) {
  ++SimplexStats::Local().tableau_builds;

  IncrementalSimplex t;
  t.exec_ = exec;
  t.token_ = std::move(token);
  t.num_vars_ = num_vars;
  t.base_ = base;
  t.lower_.assign(num_vars, BoundRow());
  t.upper_.assign(num_vars, BoundRow());

  const size_t n = num_vars;
  const LinearSystem& atoms = *base;
  const size_t m = atoms.size();
  size_t num_surplus = 0;
  for (const auto& atom : atoms) {
    if (atom.rel == LinearRel::kGe) ++num_surplus;
  }

  t.num_cols_ = n + num_surplus;  // structural | surplus
  t.rows_.resize(m);
  t.rhs_.resize(m);
  t.den_.assign(m, BigInt(1));
  t.basis_.assign(m, 0);
  // Ids n+num_surplus .. n+num_surplus+m-1 are the phase-1 artificials. Their
  // columns are never stored: an artificial starts basic (implicitly a unit
  // column) and once it leaves the basis it is dropped outright (Chvatal's
  // rule — a nonbasic artificial may be deleted without changing the phase-1
  // verdict), so no entering scan ever needs its column. The tableau stays
  // m x (n+s) instead of m x (n+s+m), which spares every pivot from
  // maintaining an m x m row-operation image.
  t.col_to_row_.assign(t.num_cols_ + m, kNoRow);
  // Phase 1 minimizes the sum of artificials. Maintained reduced costs with
  // every artificial basic at cost 1: d_art = 0 and d_j = -sum_i T[i][j]
  // for the real columns, accumulated as the rows load.
  t.cost_.assign(t.num_cols_, BigInt(0));
  t.col_rows_.resize(t.num_cols_);
  {
    // Size every column's index list up front (one allocation each).
    std::vector<uint32_t> counts(t.num_cols_, 0);
    size_t surplus = n;
    for (const auto& atom : atoms) {
      for (const auto& term : atom.expr.terms()) ++counts[term.first];
      if (atom.rel == LinearRel::kGe) ++counts[surplus++];
    }
    for (size_t j = 0; j < t.num_cols_; ++j) t.col_rows_[j].reserve(counts[j]);
  }

  size_t surplus_at = n;
  for (size_t i = 0; i < m; ++i) {
    const LinearAtom& atom = atoms[i];
    SparseRow& row = t.rows_[i];
    // expr >= 0 means  sum a_j x_j >= -constant; rhs = -constant, made
    // non-negative for phase 1 by negating the row.
    const bool negate = atom.expr.constant().IsPositive();
    row.reserve(atom.expr.terms().size() + 1);
    for (const auto& [v, c] : atom.expr.terms()) {
      row.push_back({v, negate ? -c : c});
    }
    if (atom.rel == LinearRel::kGe) {
      row.push_back({static_cast<uint32_t>(surplus_at++),
                     BigInt(negate ? 1 : -1)});
    }
    t.rhs_[i] = negate ? atom.expr.constant() : -atom.expr.constant();
    for (uint32_t k = 0; k < row.size(); ++k) {
      t.cost_[row[k].col] -= row[k].value;
      t.col_rows_[row[k].col].push_back({static_cast<uint32_t>(i), k});
    }
    // Artificial variable for this row: basic by id only, no stored column.
    const size_t art = n + num_surplus + i;
    t.basis_[i] = art;
    t.col_to_row_[art] = i;
  }

  t.RebuildNegCost();
  FO2DT_ASSIGN_OR_RETURN(bool phase1_bounded, t.RunPrimal());
  if (!phase1_bounded) {
    return Status::Internal("phase-1 simplex reported unbounded");
  }
  // Phase 1 keeps every rhs non-negative, so the artificials sum to zero
  // exactly when each basic one sits at zero.
  for (size_t i = 0; i < m; ++i) {
    if (t.basis_[i] >= n + num_surplus && !t.rhs_[i].IsZero()) {
      t.feasible_ = false;
      return t;
    }
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
    for (const Cell& cell : t.rows_[i]) {
      entering = std::min<size_t>(entering, cell.col);
    }
    t.Pivot(i, entering);
    ++i;
  }

  // No artificial is basic now; forget their ids (RebuildColToRow shrinks
  // col_to_row_ back to the stored columns).
  t.cost_.assign(t.num_cols_, BigInt(0));  // feasibility objective
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
  // unit; a final negation (lower bounds only) makes s basic with a positive
  // cell.
  const size_t nrow = rows_.size();
  rows_.push_back({{v, BigInt(1)}, {static_cast<uint32_t>(scol),
                                    BigInt(is_upper ? 1 : -1)}});
  rhs_.push_back(value);
  den_.emplace_back(1);
  col_rows_[scol].push_back({static_cast<uint32_t>(nrow), 1});
  const size_t vrow = col_to_row_[v];
  if (vrow != kNoRow) {
    // x_v's unit column cancels: the new row holds no x_v cell. Of vrow's
    // columns the new row holds only v, at position 0.
    hit_pos_.assign(rows_[vrow].size(), kNoPos);
    hit_pos_[FindEntry(v, vrow).pos] = 0;
    SubtractScaled(nrow, vrow, v, hit_pos_.data());
  } else {
    col_rows_[v].push_back({static_cast<uint32_t>(nrow), 0});
  }
  if (!is_upper) {
    for (Cell& cell : rows_[nrow]) cell.value = -cell.value;
    rhs_[nrow] = -rhs_[nrow];
  }
  col_to_row_[scol] = nrow;
  basis_.push_back(scol);

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
  // current column of s (rhs and cell share the row's denominator). No
  // pivot, no rebuild.
  const BigInt minus_shift = is_upper ? -delta : delta;
  const size_t col = b.col;
  for (const Entry& e : col_rows_[col]) {
    if (!rhs_[e.row].SubMul(minus_shift, rows_[e.row][e.pos].value)
             .FitsInt64()) {
      ReduceRow(e.row);
    }
  }
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
                         CreateInternal(base_, num_vars_, exec_, token_));
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
    if (basis_[i] < num_vars_) out[basis_[i]] = Rational(rhs_[i], den_[i]);
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
