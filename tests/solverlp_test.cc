#include <gtest/gtest.h>

#include "arith/arith_stats.h"
#include "common/execution_context.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/strings.h"
#include "solverlp/ilp.h"
#include "solverlp/linear.h"
#include "solverlp/simplex.h"

namespace fo2dt {
namespace {

// Helper: expr = sum coeffs[i] * v_i + c.
LinearExpr MakeExpr(std::vector<int64_t> coeffs, int64_t c) {
  LinearExpr e{BigInt(c)};
  for (size_t i = 0; i < coeffs.size(); ++i) {
    e.AddTerm(static_cast<VarId>(i), BigInt(coeffs[i]));
  }
  return e;
}

TEST(LinearExprTest, TermMergingAndZeroErasure) {
  LinearExpr e;
  e.AddTerm(0, BigInt(2));
  e.AddTerm(0, BigInt(3));
  EXPECT_EQ(e.CoefficientOf(0).ToString(), "5");
  e.AddTerm(0, BigInt(-5));
  EXPECT_TRUE(e.CoefficientOf(0).IsZero());
  EXPECT_TRUE(e.terms().empty());
}

TEST(LinearExprTest, Evaluate) {
  LinearExpr e = MakeExpr({2, -1}, 7);
  IntAssignment a = {BigInt(3), BigInt(4)};
  EXPECT_EQ(e.Evaluate(a)->ToString(), "9");
  IntAssignment short_a = {BigInt(3)};
  EXPECT_FALSE(e.Evaluate(short_a).ok());
}

TEST(LinearExprTest, ToStringRendering) {
  EXPECT_EQ(MakeExpr({1, -2}, 3).ToString(), "v0 - 2*v1 + 3");
  EXPECT_EQ(MakeExpr({}, -4).ToString(), "-4");
  EXPECT_EQ(MakeExpr({-1}, 0).ToString(), "-v0");
}

TEST(LinearConstraintTest, EvaluateBooleanStructure) {
  // (v0 >= 1) && !(v1 == 2)
  LinearConstraint c = LinearConstraint::And(
      {LinearConstraint::Ge(MakeExpr({1}, -1)),
       LinearConstraint::Not(LinearConstraint::Eq(MakeExpr({0, 1}, -2)))});
  EXPECT_TRUE(*c.Evaluate({BigInt(1), BigInt(0)}));
  EXPECT_FALSE(*c.Evaluate({BigInt(0), BigInt(0)}));
  EXPECT_FALSE(*c.Evaluate({BigInt(5), BigInt(2)}));
}

TEST(LinearConstraintTest, DnfMatchesDirectEvaluation) {
  // Randomized: DNF expansion is equivalent to the original constraint on
  // small integer points.
  RandomSource rng(3);
  for (int iter = 0; iter < 100; ++iter) {
    // Random constraint over 2 vars, depth 2.
    std::function<LinearConstraint(int)> gen = [&](int depth) {
      if (depth == 0 || rng.Bernoulli(0.4)) {
        LinearExpr e = MakeExpr({rng.UniformInt(-2, 2), rng.UniformInt(-2, 2)},
                                rng.UniformInt(-3, 3));
        return rng.Bernoulli(0.5) ? LinearConstraint::Ge(e)
                                  : LinearConstraint::Eq(e);
      }
      double pick = rng.UniformDouble();
      if (pick < 0.33) {
        return LinearConstraint::Not(gen(depth - 1));
      }
      std::vector<LinearConstraint> parts = {gen(depth - 1), gen(depth - 1)};
      return pick < 0.66 ? LinearConstraint::And(parts)
                         : LinearConstraint::Or(parts);
    };
    LinearConstraint c = gen(2);
    auto dnf = c.ToDnf();
    ASSERT_TRUE(dnf.ok());
    for (int64_t x = 0; x <= 3; ++x) {
      for (int64_t y = 0; y <= 3; ++y) {
        IntAssignment a = {BigInt(x), BigInt(y)};
        bool direct = *c.Evaluate(a);
        bool via_dnf = false;
        for (const auto& branch : *dnf) {
          bool all = true;
          for (const auto& atom : branch) {
            if (!*atom.Evaluate(a)) {
              all = false;
              break;
            }
          }
          if (all) {
            via_dnf = true;
            break;
          }
        }
        EXPECT_EQ(direct, via_dnf) << c.ToString() << " at " << x << "," << y;
      }
    }
  }
}

TEST(LinearConstraintTest, DnfOfLongConjunctionIsCrossProduct) {
  // 600 atoms with one two-way disjunction in the middle: the DNF is the
  // two-element cross product, atoms in conjunct order.
  std::vector<LinearConstraint> parts;
  std::vector<LinearAtom> atoms;
  for (int64_t k = 0; k < 600; ++k) {
    atoms.push_back(LinearAtom::Ge(MakeExpr({1, k % 5}, -k)));
    parts.push_back(LinearConstraint::Ge(atoms.back().expr));
  }
  const LinearAtom left = LinearAtom::Eq(MakeExpr({1, -1}, 0));
  const LinearAtom right = LinearAtom::Ge(MakeExpr({0, 1}, -9));
  parts.insert(parts.begin() + 300,
               LinearConstraint::Or({LinearConstraint::Eq(left.expr),
                                     LinearConstraint::Ge(right.expr)}));
  const LinearConstraint c = LinearConstraint::And(parts);

  auto dnf = c.ToDnf();
  ASSERT_TRUE(dnf.ok()) << dnf.status().ToString();
  ASSERT_EQ(dnf->size(), 2u);
  for (size_t b = 0; b < 2; ++b) {
    LinearSystem expected(atoms.begin(), atoms.begin() + 300);
    expected.push_back(b == 0 ? left : right);
    expected.insert(expected.end(), atoms.begin() + 300, atoms.end());
    const LinearSystem& got = (*dnf)[b];
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].ToString(), expected[i].ToString()) << b << " " << i;
    }
  }

  // The branch cap trips at the same sizes as the plain cross product: the
  // disjunction's second branch at cap 1, the very first conjunct at cap 0.
  EXPECT_TRUE(c.ToDnf(2).ok());
  for (size_t cap : {size_t{1}, size_t{0}}) {
    auto capped = c.ToDnf(cap);
    ASSERT_FALSE(capped.ok());
    EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(capped.status().message(),
              StringFormat("DNF expansion exceeded its branch cap in "
                           "solverlp.linear: %zu of %zu branches",
                           cap + 1, cap));
    ASSERT_NE(capped.status().stop_reason(), nullptr);
    EXPECT_EQ(capped.status().stop_reason()->kind, StopKind::kBranchBudget);
    EXPECT_EQ(capped.status().stop_reason()->counter, cap + 1);
    EXPECT_EQ(capped.status().stop_reason()->limit, cap);
  }
}

TEST(SimplexTest, SimpleFeasible) {
  // v0 + v1 >= 2, v0 <= 5 (i.e. 5 - v0 >= 0)
  LinearSystem sys = {LinearAtom::Ge(MakeExpr({1, 1}, -2)),
                      LinearAtom::Ge(MakeExpr({-1, 0}, 5))};
  auto sol = SimplexSolver::FindFeasible(sys, 2);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, LpStatus::kOptimal);
  // Check the point actually satisfies the constraints.
  for (const auto& atom : sys) {
    Rational v = *atom.expr.EvaluateRational(sol->assignment);
    EXPECT_GE(v, Rational(0));
  }
}

TEST(SimplexTest, Infeasible) {
  // v0 >= 3 and v0 <= 1.
  LinearSystem sys = {LinearAtom::Ge(MakeExpr({1}, -3)),
                      LinearAtom::Ge(MakeExpr({-1}, 1))};
  auto sol = SimplexSolver::FindFeasible(sys, 1);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, LpStatus::kInfeasible);
}

TEST(SimplexTest, EqualityConstraints) {
  // v0 + v1 == 4, v0 - v1 == 2 -> v0 = 3, v1 = 1.
  LinearSystem sys = {LinearAtom::Eq(MakeExpr({1, 1}, -4)),
                      LinearAtom::Eq(MakeExpr({1, -1}, -2))};
  auto sol = SimplexSolver::FindFeasible(sys, 2);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, LpStatus::kOptimal);
  EXPECT_EQ(sol->assignment[0], Rational(3));
  EXPECT_EQ(sol->assignment[1], Rational(1));
}

TEST(SimplexTest, MinimizeObjective) {
  // min v0 + v1 s.t. v0 + 2*v1 >= 4, 2*v0 + v1 >= 4. Optimum at (4/3, 4/3).
  LinearSystem sys = {LinearAtom::Ge(MakeExpr({1, 2}, -4)),
                      LinearAtom::Ge(MakeExpr({2, 1}, -4))};
  auto sol = SimplexSolver::Minimize(MakeExpr({1, 1}, 0), sys, 2);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, LpStatus::kOptimal);
  EXPECT_EQ(sol->objective, Rational(BigInt(8), BigInt(3)));
}

TEST(SimplexTest, Unbounded) {
  // min -v0 with only v0 >= 0: unbounded below.
  LinearSystem sys;
  auto sol = SimplexSolver::Minimize(MakeExpr({-1}, 0), sys, 1);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, LpStatus::kUnbounded);
}

TEST(SimplexTest, RedundantRowsHandled) {
  // Same constraint three times plus an equality that makes one row
  // redundant after elimination.
  LinearSystem sys = {LinearAtom::Ge(MakeExpr({1, 1}, -2)),
                      LinearAtom::Ge(MakeExpr({1, 1}, -2)),
                      LinearAtom::Ge(MakeExpr({2, 2}, -4)),
                      LinearAtom::Eq(MakeExpr({1, -1}, 0))};
  auto sol = SimplexSolver::FindFeasible(sys, 2);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, LpStatus::kOptimal);
  EXPECT_EQ(sol->assignment[0], sol->assignment[1]);
}

TEST(SimplexTest, DegenerateCyclingGuard) {
  // A classically degenerate LP; Bland's rule must terminate.
  // min -0.75 v0 + 150 v1 - 0.02 v2 + 6 v3 scaled to integers (x4, x50):
  // Use the Beale example scaled: min -3v0+600v1-... we just check
  // termination + a valid verdict.
  LinearSystem sys = {
      LinearAtom::Ge(MakeExpr({-1, 240, 4, -36}, 0)),    // row1 <= 0 form
      LinearAtom::Ge(MakeExpr({-1, 120, 2, -6}, 0)),
      LinearAtom::Ge(MakeExpr({0, 0, -1, 0}, 1)),
  };
  auto sol = SimplexSolver::Minimize(MakeExpr({-3, 600, -2, 24}, 0), sys, 4);
  ASSERT_TRUE(sol.ok());
  // Any of the three outcomes is structurally acceptable; the point of the
  // test is termination with exact arithmetic. Verify feasibility if optimal.
  if (sol->status == LpStatus::kOptimal) {
    for (const auto& atom : sys) {
      EXPECT_GE(*atom.expr.EvaluateRational(sol->assignment), Rational(0));
    }
  }
}

TEST(IlpTest, FindsIntegerPointWhenLpVertexFractional) {
  // 2*v0 == v1, v1 >= 3 -> minimal integer point v0=2, v1=4.
  LinearSystem sys = {LinearAtom::Eq(MakeExpr({2, -1}, 0)),
                      LinearAtom::Ge(MakeExpr({0, 1}, -3))};
  auto sol = IlpSolver::FindIntegerPoint(sys, 2);
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->feasible);
  for (const auto& atom : sys) {
    EXPECT_TRUE(*atom.Evaluate(sol->assignment)) << atom.ToString();
  }
}

TEST(IlpTest, IntegerInfeasibleThoughLpFeasible) {
  // 2*v0 - 2*v1 == 1 has rational solutions but no integer ones.
  LinearSystem sys = {LinearAtom::Eq(MakeExpr({2, -2}, -1))};
  auto sol = IlpSolver::FindIntegerPoint(sys, 2);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_FALSE(sol->feasible);
}

TEST(IlpTest, EqualitySystemWithUniqueSolution) {
  // v0 + v1 + v2 == 6, v0 - v1 == 1, v1 - v2 == 1 -> (3, 2, 1).
  LinearSystem sys = {LinearAtom::Eq(MakeExpr({1, 1, 1}, -6)),
                      LinearAtom::Eq(MakeExpr({1, -1, 0}, -1)),
                      LinearAtom::Eq(MakeExpr({0, 1, -1}, -1))};
  auto sol = IlpSolver::FindIntegerPoint(sys, 3);
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->feasible);
  EXPECT_EQ(sol->assignment[0].ToString(), "3");
  EXPECT_EQ(sol->assignment[1].ToString(), "2");
  EXPECT_EQ(sol->assignment[2].ToString(), "1");
}

TEST(IlpTest, SolveBooleanCombination) {
  // (v0 >= 5) || (v0 == 1 && v1 >= 2), with v0 <= 3 conjoined: forces branch 2.
  LinearConstraint c = LinearConstraint::And(
      {LinearConstraint::Or({LinearConstraint::Ge(MakeExpr({1}, -5)),
                             LinearConstraint::And(
                                 {LinearConstraint::Eq(MakeExpr({1, 0}, -1)),
                                  LinearConstraint::Ge(MakeExpr({0, 1}, -2))})}),
       LinearConstraint::Ge(MakeExpr({-1, 0}, 3))});
  auto sol = IlpSolver::Solve(c, 2);
  ASSERT_TRUE(sol.ok());
  ASSERT_TRUE(sol->feasible);
  EXPECT_EQ(sol->assignment[0].ToString(), "1");
  EXPECT_TRUE(*c.Evaluate(sol->assignment));
}

TEST(IlpTest, UnsatBooleanCombination) {
  // v0 == 1 && v0 == 2.
  LinearConstraint c =
      LinearConstraint::And({LinearConstraint::Eq(MakeExpr({1}, -1)),
                             LinearConstraint::Eq(MakeExpr({1}, -2))});
  auto sol = IlpSolver::Solve(c, 1);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->feasible);
}

TEST(IlpTest, RandomizedAgainstBruteForce) {
  RandomSource rng(19);
  for (int iter = 0; iter < 60; ++iter) {
    // Random small system over 3 vars; brute force over [0, 6]^3.
    LinearSystem sys;
    int rows = 1 + static_cast<int>(rng.UniformIndex(3));
    for (int r = 0; r < rows; ++r) {
      LinearExpr e = MakeExpr({rng.UniformInt(-3, 3), rng.UniformInt(-3, 3),
                               rng.UniformInt(-3, 3)},
                              rng.UniformInt(-5, 5));
      sys.push_back(rng.Bernoulli(0.6) ? LinearAtom::Ge(e) : LinearAtom::Eq(e));
    }
    // Bound the domain so brute force is exact and ILP agrees within it.
    for (VarId v = 0; v < 3; ++v) {
      sys.push_back(LinearAtom::Ge(MakeExpr(
          {v == 0 ? -1 : 0, v == 1 ? -1 : 0, v == 2 ? -1 : 0}, 6)));
    }
    bool brute = false;
    for (int64_t a = 0; a <= 6 && !brute; ++a) {
      for (int64_t b = 0; b <= 6 && !brute; ++b) {
        for (int64_t c = 0; c <= 6 && !brute; ++c) {
          IntAssignment pt = {BigInt(a), BigInt(b), BigInt(c)};
          bool all = true;
          for (const auto& atom : sys) {
            if (!*atom.Evaluate(pt)) {
              all = false;
              break;
            }
          }
          brute = all;
        }
      }
    }
    auto sol = IlpSolver::FindIntegerPoint(sys, 3);
    ASSERT_TRUE(sol.ok());
    EXPECT_EQ(sol->feasible, brute) << "iter " << iter;
    if (sol->feasible) {
      for (const auto& atom : sys) {
        EXPECT_TRUE(*atom.Evaluate(sol->assignment));
      }
    }
  }
}

TEST(IlpTest, SmallSolutionBoundIsPositive) {
  LinearSystem sys = {LinearAtom::Ge(MakeExpr({3, -2}, -7))};
  BigInt bound = IlpSolver::SmallSolutionBound(sys, 2);
  EXPECT_TRUE(bound.IsPositive());
}

TEST(IncrementalSimplexTest, BoundTighteningMatchesFreshSolve) {
  // x0 + x1 <= 10, x0 - x1 >= -3. Tighten bounds step by step and compare
  // feasibility with a from-scratch solve of the equivalent explicit system.
  LinearSystem base = {LinearAtom::Ge(MakeExpr({-1, -1}, 10)),
                       LinearAtom::Ge(MakeExpr({1, -1}, 3))};
  auto inc = IncrementalSimplex::Create(base, 2);
  ASSERT_TRUE(inc.ok());
  ASSERT_TRUE(inc->feasible());

  struct Step {
    VarId v;
    bool upper;
    int64_t value;
  };
  const std::vector<Step> steps = {
      {0, false, 2}, {1, false, 4}, {0, true, 6}, {1, true, 5}, {0, false, 5},
  };
  LinearSystem explicit_sys = base;
  for (const Step& s : steps) {
    Status st = s.upper ? inc->SetUpperBound(s.v, BigInt(s.value))
                        : inc->SetLowerBound(s.v, BigInt(s.value));
    ASSERT_TRUE(st.ok()) << st.ToString();
    LinearExpr e;
    if (s.upper) {
      e.AddTerm(s.v, BigInt(-1));
      e.AddConstant(BigInt(s.value));
    } else {
      e.AddTerm(s.v, BigInt(1));
      e.AddConstant(BigInt(-s.value));
    }
    explicit_sys.push_back(LinearAtom::Ge(std::move(e)));
    auto fresh = SimplexSolver::FindFeasible(explicit_sys, 2);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(inc->feasible(), fresh->status == LpStatus::kOptimal);
    if (inc->feasible()) {
      // The warm vertex satisfies every constraint of the explicit system.
      std::vector<Rational> x = inc->Assignment();
      for (const auto& atom : explicit_sys) {
        Rational val = *atom.expr.EvaluateRational(x);
        if (atom.rel == LinearRel::kGe) {
          EXPECT_FALSE(val.IsNegative()) << atom.ToString();
        } else {
          EXPECT_TRUE(val.IsZero()) << atom.ToString();
        }
      }
    }
  }
  // x1 in [4,5] and x0 >= 5 with x0 - x1 >= -3 is still satisfiable
  // (e.g. x0=5, x1=4); pushing x1's lower bound to 6 contradicts x1 <= 5.
  ASSERT_TRUE(inc->feasible());
  ASSERT_TRUE(inc->SetLowerBound(1, BigInt(6)).ok());
  EXPECT_FALSE(inc->feasible());
}

TEST(IncrementalSimplexTest, CopiesAreIndependent) {
  LinearSystem base = {LinearAtom::Ge(MakeExpr({-1, -1}, 8))};
  auto inc = IncrementalSimplex::Create(base, 2);
  ASSERT_TRUE(inc.ok() && inc->feasible());
  IncrementalSimplex down = *inc;
  ASSERT_TRUE(down.SetUpperBound(0, BigInt(3)).ok());
  ASSERT_TRUE(down.SetLowerBound(0, BigInt(4)).ok());  // 4 <= x0 <= 3
  EXPECT_FALSE(down.feasible());
  EXPECT_TRUE(inc->feasible());  // the original is untouched
  ASSERT_TRUE(inc->SetLowerBound(0, BigInt(7)).ok());
  EXPECT_TRUE(inc->feasible());
}

// Checks feasibility of \p inc against a from-scratch solve of \p sys.
void ExpectMatchesFreshSolve(const IncrementalSimplex& inc,
                             const LinearSystem& sys, VarId n) {
  auto fresh = SimplexSolver::FindFeasible(sys, n);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(inc.feasible(), fresh->status == LpStatus::kOptimal);
}

// The explicit-system atom for x_v >= value (lower) or x_v <= value (upper).
LinearAtom BoundAtom(VarId v, bool upper, int64_t value) {
  LinearExpr e;
  e.AddTerm(v, BigInt(upper ? -1 : 1));
  e.AddConstant(BigInt(upper ? value : -value));
  return LinearAtom::Ge(std::move(e));
}

// Builds \p iters seeded random systems over 3 variables, applies a random
// monotone bound sequence to each incremental tableau, and checks every step
// against a fresh solve of the equivalent explicit system. With
// \p cancelling, every system also carries rows that are exact combinations
// of its random rows, so eliminations cancel cells to exact zero (and phase 1
// meets redundant 0 == 0 rows); midway through each walk the tableau is
// copied after fill-in and the copy is driven down a different branch.
void RunIncrementalWalks(uint64_t seed, int iters, bool cancelling) {
  RandomSource rng(seed);
  for (int iter = 0; iter < iters; ++iter) {
    const VarId n = 3;
    LinearSystem base;
    const size_t rows = 1 + rng.UniformIndex(3);
    for (size_t i = 0; i < rows; ++i) {
      LinearExpr e;
      for (VarId v = 0; v < n; ++v) {
        e.AddTerm(v, BigInt(rng.UniformInt(-3, 3)));
      }
      e.AddConstant(BigInt(rng.UniformInt(-5, 10)));
      base.push_back(rng.Bernoulli(0.3) ? LinearAtom::Eq(std::move(e))
                                        : LinearAtom::Ge(std::move(e)));
    }
    if (cancelling) {
      // Positive combinations of consecutive rows (implied, so the verdict
      // is unchanged) and a negated (equality) or doubled copy of row 0.
      for (size_t i = 0; i + 1 < rows; ++i) {
        const BigInt k1(rng.UniformInt(1, 3));
        const BigInt k2(rng.UniformInt(1, 3));
        LinearExpr e = base[i].expr * k1 + base[i + 1].expr * k2;
        const bool eq = base[i].rel == LinearRel::kEq &&
                        base[i + 1].rel == LinearRel::kEq;
        base.push_back(eq ? LinearAtom::Eq(std::move(e))
                          : LinearAtom::Ge(std::move(e)));
      }
      if (base[0].rel == LinearRel::kEq) {
        base.push_back(LinearAtom::Eq(-base[0].expr));
      } else {
        base.push_back(LinearAtom::Ge(base[0].expr * BigInt(2)));
      }
    }
    auto inc = IncrementalSimplex::Create(base, n);
    ASSERT_TRUE(inc.ok());
    ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshSolve(*inc, base, n));
    if (!inc->feasible()) continue;

    // Apply a random monotone bound sequence, mirroring into an explicit
    // system solved from scratch at every step.
    LinearSystem explicit_sys = base;
    std::vector<int64_t> lo(n, 0);
    std::vector<int64_t> hi(n, 8);
    for (int step = 0; step < 6 && inc->feasible(); ++step) {
      const VarId v = static_cast<VarId>(rng.UniformIndex(n));
      const bool upper = rng.Bernoulli(0.5);
      if (upper) {
        hi[v] = std::max<int64_t>(0, hi[v] - static_cast<int64_t>(
                                                 rng.UniformIndex(3)) - 1);
      } else {
        lo[v] += static_cast<int64_t>(rng.UniformIndex(3)) + 1;
      }
      const int64_t value = upper ? hi[v] : lo[v];
      Status st = upper ? inc->SetUpperBound(v, BigInt(value))
                        : inc->SetLowerBound(v, BigInt(value));
      ASSERT_TRUE(st.ok()) << st.ToString();
      explicit_sys.push_back(BoundAtom(v, upper, value));
      SCOPED_TRACE(testing::Message() << "iter " << iter << " step " << step);
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshSolve(*inc, explicit_sys, n));
      if (cancelling && step == 2 && inc->feasible()) {
        // Down-branch copy: x_w <= lo_w pins w, the original keeps going.
        const VarId w = static_cast<VarId>(rng.UniformIndex(n));
        IncrementalSimplex down = *inc;
        ASSERT_TRUE(down.SetUpperBound(w, BigInt(lo[w])).ok());
        LinearSystem down_sys = explicit_sys;
        down_sys.push_back(BoundAtom(w, /*upper=*/true, lo[w]));
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshSolve(down, down_sys, n));
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesFreshSolve(*inc, explicit_sys, n));
      }
    }
  }
}

// Also pins the exact pivot sequence of the walks and their fresh solves:
// any change to a Bland choice (entering column, ratio-test tie-break, dual
// repair, artificial drive-out) moves at least one of these counts, so a
// change to the tableau's layout or bookkeeping must reproduce them exactly.
TEST(IncrementalSimplexTest, RandomizedAgainstFreshSolves) {
  SimplexStats::Reset();
  ASSERT_NO_FATAL_FAILURE(RunIncrementalWalks(31337, 60, false));
  ASSERT_NO_FATAL_FAILURE(RunIncrementalWalks(4242, 120, true));
  SimplexCounters walks = SimplexStats::Aggregate();
  EXPECT_EQ(walks.pivots, 6399u);
  EXPECT_EQ(walks.tableau_builds, 1100u);
  EXPECT_EQ(walks.warm_starts, 679u);
  EXPECT_EQ(walks.warm_start_hits, 679u);
}

// Tableau rows keep their cells unordered: fill-in is appended, so a row
// can store a column after a larger one. Bland's rule still needs the
// smallest column in the two places that pick a cell of one row: the
// dual-repair entering column and the phase-1 drive-out of a zero-level
// artificial. These two systems reach both with fill-in below an existing
// cell (picking the first stored cell instead changes the vertex of the
// first and the pivot count of the second); the pins are the sorted-row
// solver's.
TEST(IncrementalSimplexTest, BlandChoicesUseSmallestColumnNotStorageOrder) {
  {
    SimplexStats::Reset();
    LinearSystem base = {LinearAtom::Eq(MakeExpr({3, -3, -1, 2}, 0)),
                         LinearAtom::Ge(MakeExpr({-1, 3, -3, -3}, 2)),
                         LinearAtom::Ge(MakeExpr({-1, 1, -1, -3}, 5))};
    auto inc = IncrementalSimplex::Create(base, 4);
    ASSERT_TRUE(inc.ok() && inc->feasible());
    ASSERT_TRUE(inc->SetUpperBound(0, BigInt(4)).ok());
    ASSERT_TRUE(inc->SetUpperBound(2, BigInt(0)).ok());
    ASSERT_TRUE(inc->feasible());
    std::vector<std::string> x;
    for (const Rational& r : inc->Assignment()) x.push_back(r.ToString());
    EXPECT_EQ(x, (std::vector<std::string>{"4", "38/7", "0", "15/7"}));
    EXPECT_EQ(SimplexStats::Aggregate().pivots, 5u);
  }
  {
    SimplexStats::Reset();
    LinearSystem base = {LinearAtom::Ge(MakeExpr({2, 3, -3, -1}, -3)),
                         LinearAtom::Eq(MakeExpr({3, 3, -3, 0}, -3))};
    auto inc = IncrementalSimplex::Create(base, 4);
    ASSERT_TRUE(inc.ok() && inc->feasible());
    ASSERT_TRUE(inc->SetUpperBound(1, BigInt(4)).ok());
    ASSERT_TRUE(inc->SetUpperBound(3, BigInt(2)).ok());
    ASSERT_TRUE(inc->SetUpperBound(0, BigInt(1)).ok());
    ASSERT_TRUE(inc->SetUpperBound(1, BigInt(1)).ok());
    ASSERT_TRUE(inc->feasible());
    ASSERT_TRUE(inc->SetLowerBound(0, BigInt(4)).ok());
    EXPECT_FALSE(inc->feasible());
    EXPECT_EQ(SimplexStats::Aggregate().pivots, 3u);
  }
}

// Seeded systems whose coefficients sit near +-2^62 next to small non-unit
// ones, so pivots are non-unit and products leave int64 in the first few
// pivots: the tableau runs on its wide path mid-phase. Each walk builds the
// tableau, then tightens three bounds; every step reports its pivot count and
// exact vertex.
std::vector<std::string> WideCoefficientWalks(uint64_t seed, int iters) {
  constexpr int64_t kNear62 = int64_t{1} << 62;
  RandomSource rng(seed);
  auto draw = [&rng](bool allow_zero) -> int64_t {
    switch (rng.UniformIndex(allow_zero ? 5 : 4)) {
      case 0:
        return kNear62 - rng.UniformInt(0, 999);
      case 1:
        return -(kNear62 - rng.UniformInt(0, 999));
      case 2:
        return rng.UniformInt(2, 7);
      case 3:
        return -rng.UniformInt(2, 7);
      default:
        return 0;
    }
  };
  std::vector<std::string> out;
  for (int iter = 0; iter < iters; ++iter) {
    const VarId n = 4;
    LinearSystem base;
    for (size_t i = 0; i < 4; ++i) {
      LinearExpr e;
      for (VarId v = 0; v < n; ++v) e.AddTerm(v, BigInt(draw(true)));
      e.AddConstant(BigInt(draw(false)));
      base.push_back(i == 0 ? LinearAtom::Eq(std::move(e))
                            : LinearAtom::Ge(std::move(e)));
    }
    auto describe = [&out](const IncrementalSimplex& inc) {
      std::string line =
          StringFormat("%llu", static_cast<unsigned long long>(
                                   SimplexStats::Aggregate().pivots));
      if (!inc.feasible()) {
        line += " infeasible";
      } else {
        for (const Rational& r : inc.Assignment()) line += " " + r.ToString();
      }
      out.push_back(std::move(line));
    };
    SimplexStats::Reset();
    auto inc = IncrementalSimplex::Create(base, n);
    EXPECT_TRUE(inc.ok());
    if (!inc.ok()) return out;
    describe(*inc);
    for (int step = 0; step < 3 && inc->feasible(); ++step) {
      const VarId v = static_cast<VarId>(rng.UniformIndex(n));
      const bool upper = rng.Bernoulli(0.7);
      const BigInt value(upper ? rng.UniformInt(0, 1) : rng.UniformInt(1, 3));
      Status st = upper ? inc->SetUpperBound(v, value)
                        : inc->SetLowerBound(v, value);
      EXPECT_TRUE(st.ok()) << st.ToString();
      describe(*inc);
    }
  }
  return out;
}

// The pins were recorded with the former Rational-cell tableau: the integer
// rows must reproduce every pivot count and every exact vertex, and the
// walks must really leave int64.
TEST(IncrementalSimplexTest, WideCoefficientsKeepPivotsAndVertices) {
  ArithStats::Reset();
  const std::vector<std::string> want = {
      "4 21267647932558649471604273670591624227/64563604257983419898 0"
      " 63802943797675948507046541380322304273/96845406386975129847"
      " 63802943797675950609975365783211149213/96845406386975129847",
      "4 21267647932558649471604273670591624227/64563604257983419898 0"
      " 63802943797675948507046541380322304273/96845406386975129847"
      " 63802943797675950609975365783211149213/96845406386975129847",
      "5 infeasible",
      "5 4611686018427387369/2305843009213693876 0 0 2",
      "6 21267647932558648229523506040815339765/6917529027641081628 0 2"
      " 9223372036854774388/3",
      "6 21267647932558648229523506040815339765/6917529027641081628 0 2"
      " 9223372036854774388/3",
      "6 infeasible",
      "6 59951918239556032167/55340232221128644988"
      " 127605887595351878120015465263639977871/110680464442257289976 0"
      " 53169119831396616693074980595392039279/27670116110564322494",
      "9 0 0 4611686018427387214/4611686018427387439 0",
      "9 infeasible",
      "4 0"
      " 5316911983139662466668010645634450495/122599643269271065973864537"
      "56053142076038240954750521764"
      " 3987683987354746846254013094253587107/612998216346355329869322687"
      "8026571038019120477375260882"
      " 1329227995784915307972269802925380683/612998216346355329869322687"
      "8026571038019120477375260882",
      "4 0"
      " 5316911983139662466668010645634450495/122599643269271065973864537"
      "56053142076038240954750521764"
      " 3987683987354746846254013094253587107/612998216346355329869322687"
      "8026571038019120477375260882"
      " 1329227995784915307972269802925380683/612998216346355329869322687"
      "8026571038019120477375260882",
      "4 0"
      " 5316911983139662466668010645634450495/122599643269271065973864537"
      "56053142076038240954750521764"
      " 3987683987354746846254013094253587107/612998216346355329869322687"
      "8026571038019120477375260882"
      " 1329227995784915307972269802925380683/612998216346355329869322687"
      "8026571038019120477375260882",
      "6 infeasible",
      "4"
      " 490398573077084224295097699817922836733563805791778538233/8827174"
      "31538751660103203469712212516486203323233732986886"
      " 16910295623347732909959293944427875860194492012028521509/30438532"
      "122025919313903567921110776430558735283921827134"
      " 233944127258145133886677673882533840714/4413587157693758300516017"
      "34856106258243101661616866493443"
      " 882717431538751625245528508248587334162879648881786204499/8827174"
      "31538751660103203469712212516486203323233732986886",
      "4"
      " 490398573077084224295097699817922836733563805791778538233/8827174"
      "31538751660103203469712212516486203323233732986886"
      " 16910295623347732909959293944427875860194492012028521509/30438532"
      "122025919313903567921110776430558735283921827134"
      " 233944127258145133886677673882533840714/4413587157693758300516017"
      "34856106258243101661616866493443"
      " 882717431538751625245528508248587334162879648881786204499/8827174"
      "31538751660103203469712212516486203323233732986886",
      "5"
      " 106338239662793230725207128558181712385/1914088313930278320642398"
      "22369851390843"
      " 106338239662793244809296228835421570929/1914088313930278320642398"
      "22369851390843"
      " 101457092405402515502/191408831393027832064239822369851390843 1",
      "5 infeasible",
      "4"
      " 7544593431955142047036440738955148562277664290165303926/114518104"
      "25223887838117887647936704967"
      " 85070591730234586609307550954595628836/14887353552791054189553253"
      "9423177164571"
      " 98079714615416849269929721176248113652202652837755354551/14887353"
      "5527910541895532539423177164571 0",
      "4"
      " 7544593431955142047036440738955148562277664290165303926/114518104"
      "25223887838117887647936704967"
      " 85070591730234586609307550954595628836/14887353552791054189553253"
      "9423177164571"
      " 98079714615416849269929721176248113652202652837755354551/14887353"
      "5527910541895532539423177164571 0",
      "4"
      " 7544593431955142047036440738955148562277664290165303926/114518104"
      "25223887838117887647936704967"
      " 85070591730234586609307550954595628836/14887353552791054189553253"
      "9423177164571"
      " 98079714615416849269929721176248113652202652837755354551/14887353"
      "5527910541895532539423177164571 0",
      "5 infeasible",
      "5 2305843009213693758/5 0 1/2 0",
      "6 0 0 1/2 0",
      "7 0 3 2 0",
      "7 infeasible",
      "4 infeasible",
      "4"
      " 41119349871206017563153825046419330144272274826126214834809340260"
      "991754361/41119349871206020429756393124284312775598385545033099393"
      "503083872465065506"
      " 45231284858326621977429473628858030157808093666257864812171628344"
      "8600878615/4523128485832662247273203243671274405315822409953640933"
      "28533922597115720566"
      " 90462569716653235314036089639490971116069698829507366314714542008"
      "6676520583/9046256971665324494546406487342548810631644819907281866"
      "57067845194231441132"
      " 26506042874816403035740652156278920162417124222835571004619/22615"
      "642429163311236366016218356372026579112049768204666426696129855786"
      "0283",
      "4"
      " 41119349871206017563153825046419330144272274826126214834809340260"
      "991754361/41119349871206020429756393124284312775598385545033099393"
      "503083872465065506"
      " 45231284858326621977429473628858030157808093666257864812171628344"
      "8600878615/4523128485832662247273203243671274405315822409953640933"
      "28533922597115720566"
      " 90462569716653235314036089639490971116069698829507366314714542008"
      "6676520583/9046256971665324494546406487342548810631644819907281866"
      "57067845194231441132"
      " 26506042874816403035740652156278920162417124222835571004619/22615"
      "642429163311236366016218356372026579112049768204666426696129855786"
      "0283",
      "4"
      " 41119349871206017563153825046419330144272274826126214834809340260"
      "991754361/41119349871206020429756393124284312775598385545033099393"
      "503083872465065506"
      " 45231284858326621977429473628858030157808093666257864812171628344"
      "8600878615/4523128485832662247273203243671274405315822409953640933"
      "28533922597115720566"
      " 90462569716653235314036089639490971116069698829507366314714542008"
      "6676520583/9046256971665324494546406487342548810631644819907281866"
      "57067845194231441132"
      " 26506042874816403035740652156278920162417124222835571004619/22615"
      "642429163311236366016218356372026579112049768204666426696129855786"
      "0283",
      "5 infeasible",
      "4 0 0 32281802128991715131/23058430092136938345 7/5",
      "4 infeasible",
  };
  EXPECT_EQ(WideCoefficientWalks(6262, 10), want);
  EXPECT_GT(ArithStats::Aggregate().wide_results, 0u);
}

// A Parikh-image flow system shaped like the LCTA emptiness checks: a
// layered graph (width 12, 24 layers, every node feeding two successors)
// with one conservation equality per node, a unit of throughput, and parity
// and lower-bound side constraints on seeded edges that make the LP vertex
// fractional. 303 rows over 583 variables.
LinearSystem FlowShapedSystem(VarId* num_vars) {
  constexpr VarId kWidth = 12;
  constexpr VarId kLayers = 24;
  VarId next = 0;
  const VarId flow = next++;
  // in[l][j] / out[l][j]: edge variables entering / leaving node (l, j).
  std::vector<std::vector<std::vector<VarId>>> in(
      kLayers, std::vector<std::vector<VarId>>(kWidth));
  std::vector<std::vector<std::vector<VarId>>> out = in;
  std::vector<VarId> source_edges;
  std::vector<VarId> sink_edges;
  for (VarId j = 0; j < kWidth; ++j) {
    source_edges.push_back(next);
    in[0][j].push_back(next++);
  }
  for (VarId l = 0; l + 1 < kLayers; ++l) {
    for (VarId j = 0; j < kWidth; ++j) {
      for (VarId k : {j, (j + 1) % kWidth}) {
        out[l][j].push_back(next);
        in[l + 1][k].push_back(next++);
      }
    }
  }
  for (VarId j = 0; j < kWidth; ++j) {
    sink_edges.push_back(next);
    out[kLayers - 1][j].push_back(next++);
  }
  LinearSystem sys;
  for (VarId l = 0; l < kLayers; ++l) {
    for (VarId j = 0; j < kWidth; ++j) {
      LinearExpr e;
      for (VarId v : in[l][j]) e.AddTerm(v, BigInt(1));
      for (VarId v : out[l][j]) e.AddTerm(v, BigInt(-1));
      sys.push_back(LinearAtom::Eq(std::move(e)));
    }
  }
  LinearExpr src = LinearExpr::Variable(flow) * BigInt(-1);
  for (VarId v : source_edges) src.AddTerm(v, BigInt(1));
  sys.push_back(LinearAtom::Eq(std::move(src)));
  LinearExpr snk = LinearExpr::Variable(flow) * BigInt(-1);
  for (VarId v : sink_edges) snk.AddTerm(v, BigInt(1));
  sys.push_back(LinearAtom::Eq(std::move(snk)));
  sys.push_back(
      LinearAtom::Ge(LinearExpr::Variable(flow) - LinearExpr(BigInt(1))));
  // Side constraints on seeded edges: x_e >= 1 routes flow through e, and
  // 2*y == x_e makes that flow even, which the LP vertex x_e = 1 violates.
  RandomSource rng(7);
  const VarId num_edges = next - 1;
  for (int k = 0; k < 6; ++k) {
    const VarId e = 1 + static_cast<VarId>(rng.UniformIndex(num_edges));
    const VarId y = next++;
    LinearExpr parity = LinearExpr::Variable(y) * BigInt(2);
    parity.AddTerm(e, BigInt(-1));
    sys.push_back(LinearAtom::Eq(std::move(parity)));
    sys.push_back(
        LinearAtom::Ge(LinearExpr::Variable(e) - LinearExpr(BigInt(1))));
  }
  *num_vars = next;
  return sys;
}

// Pins the exact pivot sequence and branch-and-bound tree of one
// several-hundred-row ILP, as RandomizedAgainstFreshSolves does for the
// small seeded systems.
TEST(SimplexStatsTest, PivotSequenceIsPinned) {
  VarId n = 0;
  const LinearSystem flow = FlowShapedSystem(&n);
  SimplexStats::Reset();
  auto r = IlpSolver::FindIntegerPoint(flow, n);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->feasible);
  for (const auto& atom : flow) EXPECT_TRUE(*atom.Evaluate(r->assignment));
  SimplexCounters ilp = SimplexStats::Aggregate();
  EXPECT_EQ(r->nodes_explored, 13u);
  EXPECT_EQ(ilp.pivots, 490u);
  EXPECT_EQ(ilp.tableau_builds, 1u);
  EXPECT_EQ(ilp.warm_starts, 12u);
  EXPECT_EQ(ilp.warm_start_hits, 12u);
}

// The flow system of PivotSequenceIsPinned never leaves int64: every pivot
// runs on the inline fast path of the integer rows.
TEST(SimplexStatsTest, FlowSystemStaysInInt64) {
  VarId n = 0;
  const LinearSystem flow = FlowShapedSystem(&n);
  ArithStats::Reset();
  auto r = IlpSolver::FindIntegerPoint(flow, n);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(r->feasible);
  const ArithCounters arith = ArithStats::Aggregate();
  EXPECT_EQ(arith.wide_results, 0u);
  EXPECT_EQ(arith.big_ops, 0u);
  EXPECT_GT(arith.small_ops, 0u);
}

TEST(IlpTest, SolveDnfDeterministicAcrossThreadCounts) {
  // A disjunction whose branches have distinct witnesses: the selected
  // branch (and thus the witness) and the node count must not depend on the
  // thread count. Every branch past the winner is feasible too, so a count
  // that included abandoned work would change with scheduling.
  std::vector<LinearSystem> branches;
  for (int64_t k = 5; k >= 1; --k) {
    // Branch: x0 == k && x1 == 10 - k.
    branches.push_back({LinearAtom::Eq(MakeExpr({1, 0}, -k)),
                        LinearAtom::Eq(MakeExpr({0, 1}, k - 10))});
  }
  // Prepend two infeasible branches so the first feasible index is 2.
  branches.insert(branches.begin(),
                  {LinearAtom::Ge(MakeExpr({-1, 0}, -1)),
                   LinearAtom::Ge(MakeExpr({1, 0}, -2))});  // x0<=-1 && x0>=2
  branches.insert(branches.begin(), {LinearAtom::Eq(MakeExpr({0, 0}, 1))});

  // The governor's effort: pivots, nodes, the ILP phase's calls and effort
  // and the deepest node.
  auto governor_effort = [](const ExecutionContext& exec) {
    const PhaseProfile profile = SnapshotPhaseProfile(exec);
    return std::vector<uint64_t>{exec.counters().simplex_pivots.load(),
                                 exec.counters().ilp_nodes.load(),
                                 profile[Phase::kIlp].calls,
                                 profile[Phase::kIlp].effort,
                                 profile.ilp_max_depth};
  };
  IntAssignment expected;
  std::vector<BranchOutcome> expected_outcomes;
  size_t expected_nodes = 0;
  std::vector<uint64_t> expected_effort;
  for (size_t threads : {1u, 2u, 8u}) {
    ExecutionContext exec;
    IlpOptions opt;
    opt.num_threads = threads;
    opt.exec = &exec;
    auto r = IlpSolver::SolveDnf(branches, 2, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->solution.feasible);
    if (threads == 1) {
      expected = r->solution.assignment;
      expected_outcomes = r->outcomes;
      expected_nodes = r->solution.nodes_explored;
      expected_effort = governor_effort(exec);
      // Branches 0-2 each open one ILP phase; 1 and 2 pivot.
      EXPECT_EQ(expected_effort[2], 3u);
      EXPECT_GT(expected_effort[0], 0u);
      // Branch 0 fails preprocessing; branches 1 and 2 take one node each.
      EXPECT_EQ(expected_nodes, 2u);
      EXPECT_EQ(expected[0].ToString(), "5");  // first feasible branch: k=5
      EXPECT_EQ(expected[1].ToString(), "5");
      EXPECT_EQ(r->outcomes[0], BranchOutcome::kInfeasible);
      EXPECT_EQ(r->outcomes[1], BranchOutcome::kInfeasible);
      EXPECT_EQ(r->outcomes[2], BranchOutcome::kFeasible);
    } else {
      ASSERT_EQ(r->solution.assignment.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(r->solution.assignment[i].Compare(expected[i]), 0)
            << "threads " << threads << " var " << i;
      }
      EXPECT_EQ(r->outcomes, expected_outcomes) << "threads " << threads;
      EXPECT_EQ(r->solution.nodes_explored, expected_nodes)
          << "threads " << threads;
      EXPECT_EQ(governor_effort(exec), expected_effort)
          << "threads " << threads;
    }
  }
}

TEST(IlpTest, CancellationAbortsBetweenNodes) {
  // A pre-set cancellation flag (adapted through the legacy WrapFlag shim)
  // must abort the solve with kCancelled before any verdict is produced.
  std::atomic<bool> cancel{true};
  IlpOptions opt;
  opt.cancel_token = CancellationToken::WrapFlag(&cancel);
  LinearSystem sys = {LinearAtom::Ge(MakeExpr({1}, -1))};
  auto r = IlpSolver::FindIntegerPoint(sys, 1, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
  auto dnf = IlpSolver::SolveDnf({sys}, 1, opt);
  ASSERT_FALSE(dnf.ok());
  EXPECT_TRUE(dnf.status().IsCancelled());
}

TEST(IlpTest, CancellationTokenAbortsBetweenNodes) {
  // Same through a native token, plus hierarchy: cancelling the parent
  // aborts a solve polling the child.
  CancellationToken parent = CancellationToken::Create();
  IlpOptions opt;
  opt.cancel_token = parent.Child();
  parent.RequestCancel();
  LinearSystem sys = {LinearAtom::Ge(MakeExpr({1}, -1))};
  auto r = IlpSolver::FindIntegerPoint(sys, 1, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
  ASSERT_NE(r.status().stop_reason(), nullptr);
  EXPECT_EQ(r.status().stop_reason()->kind, StopKind::kCancelled);
}

TEST(SimplexStatsTest, WarmStartCountersMove) {
  SimplexStats::Reset();
  LinearSystem base = {LinearAtom::Ge(MakeExpr({-1, -1}, 10))};
  auto inc = IncrementalSimplex::Create(base, 2);
  ASSERT_TRUE(inc.ok() && inc->feasible());
  ASSERT_TRUE(inc->SetUpperBound(0, BigInt(4)).ok());
  ASSERT_TRUE(inc->SetLowerBound(0, BigInt(2)).ok());
  SimplexCounters agg = SimplexStats::Aggregate();
  EXPECT_GE(agg.tableau_builds, 1u);
  EXPECT_GE(agg.warm_starts, 2u);
  EXPECT_EQ(agg.warm_starts, agg.warm_start_hits);  // no rebuild needed here
}

}  // namespace
}  // namespace fo2dt
