/// \file simplex.h
/// \brief Exact-rational simplex for linear programs over Q>=0, with an
/// incremental warm-started variant for branch-and-bound.
///
/// Solves min c.x subject to a LinearSystem (atoms expr >= 0 / expr == 0)
/// with the implicit domain x >= 0 for every variable. All arithmetic is
/// exact and pivoting uses Bland's rule, so the solver terminates on every
/// input and never suffers numeric drift — a requirement for the decision
/// procedures built on top (Theorem 2 emptiness checks must be exact, not
/// approximate). Tableau rows are integers over one positive denominator
/// per row (fraction-free, see IncrementalSimplex); vertices come back as
/// exact Rationals.
///
/// Two entry points:
///  * SimplexSolver — one-shot two-phase primal solve (phase 1 drives
///    artificials out, phase 2 minimizes the objective with maintained
///    row-zero pricing).
///  * IncrementalSimplex — a feasibility tableau that persists across a
///    branch-and-bound search path. Phase 1 runs once; integer bound changes
///    (x_v >= lo, x_v <= hi) are applied in place and repaired with a dual
///    simplex warm start instead of re-running the primal from scratch.

#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "arith/rational.h"
#include "common/bitset.h"
#include "common/execution_context.h"
#include "common/thread_stats.h"
#include "solverlp/linear.h"

namespace fo2dt {

/// \brief Verdict of an LP solve.
enum class LpStatus {
  kOptimal,     ///< feasible; `assignment` holds an optimal vertex
  kInfeasible,  ///< the constraint system has no rational solution with x >= 0
  kUnbounded,   ///< feasible but the objective decreases without bound
};

/// \brief Outcome of an LP solve.
struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  /// Optimal vertex (size == num_vars); meaningful iff status == kOptimal.
  std::vector<Rational> assignment;
  /// Objective value at the vertex; meaningful iff status == kOptimal.
  Rational objective;
};

/// \brief Counters for the solver performance benchmarks (thread-local,
/// aggregated via SimplexStats::Aggregate()).
struct SimplexCounters {
  /// Total simplex pivots (primal and dual).
  uint64_t pivots = 0;
  /// From-scratch phase-1 tableau constructions.
  uint64_t tableau_builds = 0;
  /// Incremental bound updates attempted on a warm tableau.
  uint64_t warm_starts = 0;
  /// Bound updates resolved by dual-simplex repair (no rebuild needed).
  uint64_t warm_start_hits = 0;

  void AddTo(SimplexCounters* out) const {
    out->pivots += pivots;
    out->tableau_builds += tableau_builds;
    out->warm_starts += warm_starts;
    out->warm_start_hits += warm_start_hits;
  }
  void Clear() { *this = SimplexCounters(); }

  double WarmStartHitRate() const {
    return warm_starts == 0
               ? 1.0
               : static_cast<double>(warm_start_hits) /
                     static_cast<double>(warm_starts);
  }
};

using SimplexStats = ThreadStats<SimplexCounters>;

/// \brief A feasibility tableau that survives across bound changes.
///
/// Built once per conjunctive system (one exact phase-1 solve); afterwards
/// integer variable bounds can only be *tightened*. Each tightening updates
/// the tableau in place — the first bound on a variable appends one row and
/// one surplus column, later tightenings only shift the right-hand side —
/// and restores primal feasibility with dual-simplex pivots (Bland's rule on
/// both the leaving and the entering index, so repair always terminates).
/// When the dual repair exceeds its pivot cap, the tableau is rebuilt from
/// scratch as a safety net (counted as a warm-start miss).
///
/// Copies are deep and independent: branch-and-bound copies the tableau for
/// the down-branch and keeps mutating the original for the up-branch.
///
/// Contract: once feasible() is false the tableau is dead — no further bound
/// changes may be applied (branch-and-bound prunes such nodes immediately).
class IncrementalSimplex {
 public:
  /// Runs phase 1 on \p base (implicit x >= 0), which the tableau keeps
  /// shared for its rebuild safety net. The result may be infeasible; check
  /// feasible(). Statuses are reserved for contract violations and
  /// governor stops (deadline/cancellation during phase 1). A non-null
  /// \p exec governs phase 1 and is inherited by the tableau (SetGovernor
  /// can additionally install a per-branch token).
  static Result<IncrementalSimplex> Create(
      std::shared_ptr<const LinearSystem> base, VarId num_vars,
      const ExecutionContext* exec = nullptr);
  /// Create over a private copy of \p base.
  static Result<IncrementalSimplex> Create(
      const LinearSystem& base, VarId num_vars,
      const ExecutionContext* exec = nullptr) {
    return Create(std::make_shared<const LinearSystem>(base), num_vars, exec);
  }

  bool feasible() const { return feasible_; }
  VarId num_vars() const { return num_vars_; }

  /// Installs the execution governor: pivot loops poll \p token and the
  /// \p exec deadline (amortized). Copies of the tableau inherit the
  /// governor, so a branch-and-bound search arms it once. Either may be
  /// null/inert; \p exec must outlive the tableau and its copies.
  void SetGovernor(const ExecutionContext* exec, CancellationToken token) {
    exec_ = exec;
    token_ = std::move(token);
  }

  /// Tightens x_v >= lo (lo must not decrease) and repairs feasibility.
  Status SetLowerBound(VarId v, const BigInt& lo);
  /// Tightens x_v <= hi (hi must not increase) and repairs feasibility.
  Status SetUpperBound(VarId v, const BigInt& hi);

  /// Current vertex for the structural variables; meaningful iff feasible().
  std::vector<Rational> Assignment() const;

 private:
  friend class SimplexSolver;

  static constexpr size_t kNoRow = static_cast<size_t>(-1);

  enum class DualStatus { kFeasible, kInfeasible, kCapExceeded, kStopped };

  struct BoundRow {
    bool set = false;
    size_t col = 0;  // the bound row's surplus/slack column
    BigInt value;    // current bound constant
  };

  IncrementalSimplex() = default;

  static Result<IncrementalSimplex> CreateInternal(
      std::shared_ptr<const LinearSystem> base, VarId num_vars,
      const ExecutionContext* exec, CancellationToken token);

  /// One nonzero tableau cell: an integer over its row's denominator.
  struct Cell {
    uint32_t col;
    BigInt value;
  };
  /// A tableau row: its nonzero cells in no particular order, no explicit
  /// zeros. Exact arithmetic makes every visit order give the same values;
  /// the two Bland choices that pick a cell of a row (dual-repair entering
  /// column, artificial drive-out) scan for the smallest column instead.
  using SparseRow = std::vector<Cell>;
  static constexpr uint32_t kNoPos = static_cast<uint32_t>(-1);

  /// Where column j has a nonzero: the row, and the cell's position in it.
  struct Entry {
    uint32_t row;
    uint32_t pos;
  };

  /// Row \p row's entry in col_rows_[\p col], which must exist.
  Entry& FindEntry(size_t col, size_t row);
  /// Removes row \p i's cell at position \p pos: the last cell moves into
  /// its place and that cell's index entry follows. The removed cell's own
  /// index entry is left to the caller.
  void DropCell(size_t i, uint32_t pos);
  /// Eliminates \p cancel_col from row \p i with row src, whose cell there
  /// equals its denominator d: row_i <- d * row_i - f * src (rhs included)
  /// over denominator d * den_i, where f is row i's cell at cancel_col.
  /// With d == 1 (unit pivots) nothing is scaled and the update is
  /// row_i - f * src. \p hit[k] is the position in row i of src's k-th
  /// cell's column, or kNoPos: matched cells update in place, the others are
  /// appended as fill-in, and cells that cancel (cancel_col always does) are
  /// dropped. The column index follows every change except for cancel_col,
  /// whose index list is left to the caller. The row is gcd-reduced when it
  /// was scaled or a value left int64.
  void SubtractScaled(size_t i, size_t src, size_t cancel_col,
                      const uint32_t* hit);
  /// Divides row \p i's cells, rhs and denominator by their gcd.
  void ReduceRow(size_t i);
  /// Recomputes col_rows_ from the rows.
  void RebuildColumnIndex();

  /// Records whether cost_[col] is negative in neg_cost_.
  void UpdateNegCost(size_t col) {
    if (cost_[col].IsNegative()) {
      neg_cost_.Insert(static_cast<uint32_t>(col));
    } else {
      neg_cost_.Erase(static_cast<uint32_t>(col));
    }
  }
  /// Recomputes neg_cost_ from cost_.
  void RebuildNegCost();
  /// Divides cost_ by the gcd of its entries (signs unchanged).
  void ReduceCost();

  /// Appends an all-zero column; returns its index.
  size_t AddColumn();
  /// Removes row \p i (the trailing rows shift up one index).
  void EraseRow(size_t i);

  /// Makes \p col basic in \p row: the row's cell there becomes its
  /// denominator (gcd-reduced after a non-unit pivot), and col is eliminated
  /// from every other row and from the cost row.
  void Pivot(size_t row, size_t col);
  /// Primal simplex on the maintained reduced-cost row (Bland). Returns
  /// false when unbounded; the error state is a governor stop (deadline or
  /// cancellation) with a structured StopReason.
  Result<bool> RunPrimal();
  /// Dual-simplex feasibility repair; never exceeds \p max_pivots. On
  /// kStopped the governor's status is written to \p stop.
  DualStatus RunDualRepair(size_t max_pivots, Status* stop);
  /// Installs \p objective as the maintained reduced-cost row.
  void InitObjective(const LinearExpr& objective);
  void InsertBoundRow(VarId v, const BigInt& value, bool is_upper);
  void TightenBoundRow(VarId v, const BigInt& value, bool is_upper);
  Status ApplyBound(VarId v, const BigInt& value, bool is_upper);
  /// From-scratch safety net used when dual repair exceeds its cap.
  Status Rebuild();
  void RebuildColToRow();
  size_t DualPivotCap() const;

  // Sparse fraction-free tableau: rows_[i] holds the nonzero integer cells
  // of row i in no particular order, over logical width num_cols_. Row i is
  // the constraint sum_j rows_[i][j] x_j == rhs_[i], every term over the
  // positive denominator den_[i]; the basic column basis_[i] holds den_[i]
  // (a unit column). Positive row scaling preserves every sign and every
  // ratio rhs_[i] / T[i][j] that Bland's rule reads, so the pivots are
  // those of the exact rational tableau. Unit pivots on den 1 rows (nearly
  // all of them on the flow systems) update rows with plain integer
  // multiply-subtracts on int64 values; a non-unit pivot scales its target
  // rows and gcd-reduces them. col_rows_[j] lists (unordered) the rows with
  // a nonzero in column j and where the cell sits in each, so a pivot, the
  // ratio test and a bound tightening visit only those rows and cells, and a
  // pivot finds each target's partner cells without scanning the target
  // row. The flow systems this solves are about 1% dense
  // or less, so the tableau costs O(nonzeros) to build, copy and destroy
  // instead of O(m * n). Phase-1 artificial variables exist as basis ids
  // only — their columns are never stored (dropped at birth per Chvatal's
  // rule), so the tableau is m x (n+s) rather than m x (n+s+m).
  size_t num_cols_ = 0;
  std::vector<SparseRow> rows_;
  std::vector<std::vector<Entry>> col_rows_;
  std::vector<BigInt> rhs_;
  std::vector<BigInt> den_;
  std::vector<size_t> basis_;
  std::vector<size_t> col_to_row_;  // col -> basic row, or kNoRow
  // Maintained reduced-cost row (dense), up to one positive common factor:
  // only its signs are read, and a pivot scales it as a whole.
  std::vector<BigInt> cost_;
  // The columns whose cost_ entry is negative: Bland's entering column is
  // its first member, so the primal loop never scans cost_.
  Bitset neg_cost_;
  // Per-pivot scratch: the target rows, slot_[i] = row i's index among
  // them (kNoPos for every other row between pivots), hit_pos_[t * P + k] =
  // where target t holds the pivot row's k-th cell's column (kNoPos if it
  // does not), and one target's hits as (position, k) pairs.
  std::vector<uint32_t> targets_;
  std::vector<uint32_t> slot_;
  std::vector<uint32_t> hit_pos_;
  std::vector<std::pair<uint32_t, uint32_t>> hits_;

  VarId num_vars_ = 0;
  bool feasible_ = false;
  std::shared_ptr<const LinearSystem> base_;  // for the rebuild safety net
  std::vector<BoundRow> lower_;
  std::vector<BoundRow> upper_;

  // Execution governor (optional): polled by the pivot loops. Copied with
  // the tableau so every branch-and-bound node stays governed.
  const ExecutionContext* exec_ = nullptr;
  CancellationToken token_;
};

/// \brief Exact one-shot LP solver.
class SimplexSolver {
 public:
  /// Minimizes \p objective over { x in Q^num_vars : x >= 0, system holds }.
  ///
  /// \p num_vars must cover every variable mentioned by the system and the
  /// objective. Returns InvalidArgument otherwise. A non-null \p exec
  /// governs the pivot loops (deadline + cancellation).
  static Result<LpSolution> Minimize(const LinearExpr& objective,
                                     const LinearSystem& system,
                                     VarId num_vars,
                                     const ExecutionContext* exec = nullptr);

  /// Feasibility-only entry point (objective 0).
  static Result<LpSolution> FindFeasible(const LinearSystem& system,
                                         VarId num_vars,
                                         const ExecutionContext* exec = nullptr);
};

}  // namespace fo2dt

