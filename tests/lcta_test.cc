#include "lcta/lcta.h"

#include <gtest/gtest.h>

#include "common/execution_context.h"
#include "common/metrics.h"
#include "common/random.h"

namespace fo2dt {
namespace {

// Automaton over one symbol accepting all "flat" trees: a root whose children
// (any number >= 0) are leaves. States: 0 = leaf child (initial), 1 = root.
TreeAutomaton FlatTrees() {
  TreeAutomaton a(1, 2);
  a.SetInitial(0);
  a.AddHorizontal(0, 0, 0);  // leaf chain
  a.AddVertical(0, 0, 1);    // last leaf hands to root
  a.SetAccepting(1, 0);
  a.SetAccepting(0, 0);  // single node tree
  return a;
}

LinearExpr StateCount(TreeState q, int64_t coeff = 1) {
  LinearExpr e;
  e.AddTerm(q, BigInt(coeff));
  return e;
}

TEST(ShapeEnumerationTest, CatalanCounts) {
  // Ordered unranked trees with n nodes are counted by Catalan(n-1).
  size_t expect[] = {0, 1, 1, 2, 5, 14, 42};
  for (size_t n = 1; n <= 6; ++n) {
    EXPECT_EQ(EnumerateTreeShapes(n).size(), expect[n]) << "n=" << n;
  }
  // Every shape is a valid parent array.
  for (const auto& parents : EnumerateTreeShapes(5)) {
    DataTree t;
    ASSERT_TRUE(t.CreateRoot(0, 0).ok());
    for (size_t v = 1; v < parents.size(); ++v) {
      ASSERT_LT(parents[v], v);  // parents precede children
      ASSERT_TRUE(t.AppendChild(parents[v], 0, 0).ok());
    }
    EXPECT_TRUE(t.Validate().ok());
  }
}

TEST(LctaTest, UnconstrainedMatchesAutomatonEmptiness) {
  Lcta lcta{FlatTrees(), LinearConstraint::True()};
  auto r = CheckLctaEmptiness(lcta);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->empty);
}

TEST(LctaTest, CountEqualityConstraint) {
  // Flat trees with exactly 4 leaf-children: n_0 == 4.
  LinearExpr e = StateCount(0);
  e.AddConstant(BigInt(-4));
  Lcta lcta{FlatTrees(), LinearConstraint::Eq(e)};
  auto r = CheckLctaEmptiness(lcta);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty);
  EXPECT_EQ(r->state_counts[0].ToString(), "4");
  EXPECT_EQ(r->state_counts[1].ToString(), "1");
  // And a witness of that size exists.
  auto w = FindLctaWitnessBounded(lcta, 6);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->size(), 5u);
}

TEST(LctaTest, InfeasibleCountConstraint) {
  // Flat trees need exactly one root: n_1 == 3 is impossible.
  LinearExpr e = StateCount(1);
  e.AddConstant(BigInt(-3));
  Lcta lcta{FlatTrees(), LinearConstraint::Eq(e)};
  auto r = CheckLctaEmptiness(lcta);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty);
  EXPECT_TRUE(FindLctaWitnessBounded(lcta, 5).status().IsNotFound());
}

TEST(LctaTest, EqualCountsOfTwoStates) {
  // Two kinds of leaves under a root (labels a=0, b=1), constraint: equally
  // many of each. States: 0 = a-leaf, 1 = b-leaf, 2 = root.
  TreeAutomaton a(2, 3);
  a.SetInitial(0);
  a.SetInitial(1);
  a.AddHorizontal(0, 0, 0);
  a.AddHorizontal(0, 0, 1);
  a.AddHorizontal(1, 1, 0);
  a.AddHorizontal(1, 1, 1);
  a.AddVertical(0, 0, 2);
  a.AddVertical(1, 1, 2);
  a.SetAccepting(2, 0);
  LinearExpr diff = StateCount(0);
  diff.AddTerm(1, BigInt(-1));
  // n_0 == n_1 and n_0 >= 2.
  LinearExpr at_least = StateCount(0);
  at_least.AddConstant(BigInt(-2));
  Lcta lcta{a, LinearConstraint::And(LinearConstraint::Eq(diff),
                                     LinearConstraint::Ge(at_least))};
  auto r = CheckLctaEmptiness(lcta);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty);
  EXPECT_EQ(r->state_counts[0], r->state_counts[1]);
  auto w = FindLctaWitnessBounded(lcta, 6);
  ASSERT_TRUE(w.ok());
  // Witness: root + 2 a-leaves + 2 b-leaves.
  EXPECT_EQ(w->size(), 5u);
}

TEST(LctaTest, PaperRemarkStateVsLetterCounting) {
  // Section III-C notes constraints speak of STATES, not letters: over words
  // (vertical chains here), an automaton can recognize { b^m a^n b^n } by
  // giving the two b-blocks different states and constraining those states —
  // letter counting alone could not. Chain automaton, root at top:
  // states: 3 = bottom-b block, 2 = middle-a block, 1 = top-b block.
  // Build as vertical chain: leaf at bottom, root at top.
  TreeAutomaton a(2, 4);  // labels: a=0, b=1; states 0..3
  // state 3: bottom b's (initial at the leaf), climbing through b's:
  a.SetInitial(3);
  a.AddVertical(3, 1, 3);  // b below, still in bottom block
  a.AddVertical(3, 1, 2);  // switch to a-block
  a.AddVertical(2, 0, 2);  // climb a's
  a.AddVertical(2, 0, 1);  // switch to top b-block
  a.AddVertical(1, 1, 1);  // climb b's
  a.SetAccepting(1, 1);    // root is a b in the top block
  // Constraint: |a-block| == |bottom-b block| i.e. n_2 == n_3, and n_2 >= 1.
  LinearExpr diff = StateCount(2);
  diff.AddTerm(3, BigInt(-1));
  LinearExpr pos = StateCount(2);
  pos.AddConstant(BigInt(-1));
  Lcta lcta{a, LinearConstraint::And(LinearConstraint::Eq(diff),
                                     LinearConstraint::Ge(pos))};
  auto r = CheckLctaEmptiness(lcta);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->empty);
  auto w = FindLctaWitnessBounded(lcta, 5);
  ASSERT_TRUE(w.ok());
  // Smallest member: b a b chain read top-down as b (top), a, b (bottom):
  // m = 1 top-b? Count: top block >= 1 (root b), a-block n, bottom-b n.
  EXPECT_EQ(w->size(), 3u);
}

TEST(LctaTest, DifferentialAgainstBruteForce) {
  // Random small automata + random constraints: whenever brute force finds a
  // witness of size <= 5, the Parikh solver must say nonempty; whenever the
  // Parikh solver says empty, brute force must find nothing.
  RandomSource rng(99);
  size_t checked_nonempty = 0;
  for (int iter = 0; iter < 40; ++iter) {
    size_t states = 2 + rng.UniformIndex(2);
    TreeAutomaton a(2, states);
    a.SetInitial(static_cast<TreeState>(rng.UniformIndex(states)));
    size_t edges = 3 + rng.UniformIndex(5);
    for (size_t e = 0; e < edges; ++e) {
      TreeState f = static_cast<TreeState>(rng.UniformIndex(states));
      TreeState t = static_cast<TreeState>(rng.UniformIndex(states));
      Symbol s = static_cast<Symbol>(rng.UniformIndex(2));
      if (rng.Bernoulli(0.5)) {
        a.AddHorizontal(f, s, t);
      } else {
        a.AddVertical(f, s, t);
      }
    }
    a.SetAccepting(static_cast<TreeState>(rng.UniformIndex(states)),
                   static_cast<Symbol>(rng.UniformIndex(2)));
    // Constraint: n_{q0} <= k for random q0, k.
    LinearExpr e;
    e.AddTerm(static_cast<VarId>(rng.UniformIndex(states)), BigInt(-1));
    e.AddConstant(BigInt(static_cast<int64_t>(rng.UniformIndex(3))));
    Lcta lcta{a, LinearConstraint::Ge(e)};
    auto parikh = CheckLctaEmptiness(lcta);
    ASSERT_TRUE(parikh.ok()) << parikh.status().ToString();
    auto brute = FindLctaWitnessBounded(lcta, 5);
    if (brute.ok()) {
      EXPECT_FALSE(parikh->empty) << "iter " << iter;
      ++checked_nonempty;
    }
    if (parikh->empty) {
      EXPECT_FALSE(brute.ok()) << "iter " << iter;
    }
  }
  EXPECT_GT(checked_nonempty, 5u);  // the test exercised real agreements
}

TEST(LctaTest, ConstraintBeyondStatesRejected) {
  LinearExpr e;
  e.AddTerm(10, BigInt(1));
  Lcta lcta{FlatTrees(), LinearConstraint::Ge(e)};
  EXPECT_FALSE(CheckLctaEmptiness(lcta).ok());
}

TEST(LctaTest, DifferentialRandomized200) {
  // ~200 random LCTAs: the Parikh solver and bounded brute force must agree
  // in both directions within the brute-force bound — a brute witness forces
  // nonempty, and an empty verdict forbids any bounded witness. Nonempty
  // verdicts additionally ship state counts that must be internally sane.
  RandomSource rng(20260805);
  size_t agreements_nonempty = 0;
  size_t agreements_empty = 0;
  for (int iter = 0; iter < 200; ++iter) {
    size_t states = 2 + rng.UniformIndex(2);
    TreeAutomaton a(2, states);
    a.SetInitial(static_cast<TreeState>(rng.UniformIndex(states)));
    if (rng.Bernoulli(0.3)) {
      a.SetInitial(static_cast<TreeState>(rng.UniformIndex(states)));
    }
    size_t edges = 2 + rng.UniformIndex(6);
    for (size_t e = 0; e < edges; ++e) {
      TreeState f = static_cast<TreeState>(rng.UniformIndex(states));
      TreeState t = static_cast<TreeState>(rng.UniformIndex(states));
      Symbol s = static_cast<Symbol>(rng.UniformIndex(2));
      if (rng.Bernoulli(0.5)) {
        a.AddHorizontal(f, s, t);
      } else {
        a.AddVertical(f, s, t);
      }
    }
    a.SetAccepting(static_cast<TreeState>(rng.UniformIndex(states)),
                   static_cast<Symbol>(rng.UniformIndex(2)));
    if (rng.Bernoulli(0.4)) {
      a.SetAccepting(static_cast<TreeState>(rng.UniformIndex(states)),
                     static_cast<Symbol>(rng.UniformIndex(2)));
    }
    // Constraint: random atom or a disjunction, to exercise the DNF fan-out.
    auto random_atom = [&]() {
      LinearExpr e;
      e.AddTerm(static_cast<VarId>(rng.UniformIndex(states)),
                BigInt(rng.Bernoulli(0.5) ? -1 : 1));
      e.AddConstant(BigInt(static_cast<int64_t>(rng.UniformIndex(4)) - 1));
      return rng.Bernoulli(0.25) ? LinearConstraint::Eq(std::move(e))
                                 : LinearConstraint::Ge(std::move(e));
    };
    LinearConstraint c = random_atom();
    if (rng.Bernoulli(0.5)) c = LinearConstraint::Or(c, random_atom());
    if (rng.Bernoulli(0.3)) c = LinearConstraint::And(c, random_atom());
    Lcta lcta{a, c};
    auto parikh = CheckLctaEmptiness(lcta);
    ASSERT_TRUE(parikh.ok()) << "iter " << iter << ": "
                             << parikh.status().ToString();
    auto brute = FindLctaWitnessBounded(lcta, 4);
    if (brute.ok()) {
      EXPECT_FALSE(parikh->empty) << "iter " << iter;
      ++agreements_nonempty;
    } else {
      ASSERT_TRUE(brute.status().IsNotFound()) << brute.status().ToString();
    }
    if (parikh->empty) {
      EXPECT_FALSE(brute.ok()) << "iter " << iter;
      ++agreements_empty;
    } else {
      // The witness counts describe a nonempty run: some state is used and
      // no count is negative.
      ASSERT_EQ(parikh->state_counts.size(), states);
      bool any_used = false;
      for (const BigInt& n : parikh->state_counts) {
        EXPECT_FALSE(n.IsNegative());
        if (n.IsPositive()) any_used = true;
      }
      EXPECT_TRUE(any_used) << "iter " << iter;
    }
  }
  // The generator must exercise both verdicts for the test to mean anything.
  EXPECT_GT(agreements_nonempty, 20u);
  EXPECT_GT(agreements_empty, 20u);
}

// The governor's effort under one solve: counters, then per phase the
// calls and effort, then the deepest branch-and-bound node.
std::vector<uint64_t> GovernorEffort(const ExecutionContext& exec) {
  std::vector<uint64_t> out = {
      exec.counters().simplex_pivots.load(),
      exec.counters().ilp_nodes.load(),
      exec.counters().lcta_cut_rounds.load(),
  };
  const PhaseProfile profile = SnapshotPhaseProfile(exec);
  for (const PhaseProfile::Entry& e : profile.phases) {
    out.push_back(e.calls);
    out.push_back(e.effort);
  }
  out.push_back(profile.ilp_max_depth);
  return out;
}

TEST(LctaTest, DeterministicAcrossThreadCounts) {
  // Verdict, witness state counts and the effort counters must be identical
  // with 1, 2, and 8 threads (first-qualifying-root / first-SAT-branch
  // selection; effort sums only the roots up to the winning one), both in
  // the result and in the governor's counters and phase profile. The
  // thread counts are explicit, so a 1-CPU host still runs the race.
  RandomSource rng(424242);
  size_t nonempty_checked = 0;
  for (int iter = 0; iter < 25; ++iter) {
    size_t states = 2 + rng.UniformIndex(3);
    TreeAutomaton a(2, states);
    a.SetInitial(static_cast<TreeState>(rng.UniformIndex(states)));
    size_t edges = 3 + rng.UniformIndex(5);
    for (size_t e = 0; e < edges; ++e) {
      TreeState f = static_cast<TreeState>(rng.UniformIndex(states));
      TreeState t = static_cast<TreeState>(rng.UniformIndex(states));
      Symbol s = static_cast<Symbol>(rng.UniformIndex(2));
      if (rng.Bernoulli(0.5)) {
        a.AddHorizontal(f, s, t);
      } else {
        a.AddVertical(f, s, t);
      }
    }
    // Several accepting roots so the root fan-out has real work to race on.
    for (int k = 0; k < 3; ++k) {
      a.SetAccepting(static_cast<TreeState>(rng.UniformIndex(states)),
                     static_cast<Symbol>(rng.UniformIndex(2)));
    }
    LinearExpr e;
    e.AddTerm(static_cast<VarId>(rng.UniformIndex(states)), BigInt(-1));
    e.AddConstant(BigInt(static_cast<int64_t>(rng.UniformIndex(3)) + 1));
    LinearExpr f2;
    f2.AddTerm(static_cast<VarId>(rng.UniformIndex(states)), BigInt(1));
    f2.AddConstant(BigInt(-1));
    Lcta lcta{a, LinearConstraint::Or(LinearConstraint::Ge(e),
                                      LinearConstraint::Ge(f2))};

    bool ref_empty = true;
    IntAssignment ref_counts;
    size_t ref_ilp_nodes = 0;
    size_t ref_cuts = 0;
    std::vector<uint64_t> ref_effort;
    for (size_t threads : {1u, 2u, 8u}) {
      ExecutionContext exec;
      LctaOptions opt;
      opt.num_threads = threads;
      opt.exec = &exec;
      auto r = CheckLctaEmptiness(lcta, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      if (threads == 1) {
        ref_empty = r->empty;
        ref_counts = r->state_counts;
        ref_ilp_nodes = r->ilp_nodes;
        ref_cuts = r->connectivity_cuts;
        ref_effort = GovernorEffort(exec);
        EXPECT_EQ(exec.counters().ilp_nodes.load(), ref_ilp_nodes);
        if (!ref_empty) ++nonempty_checked;
      } else {
        EXPECT_EQ(GovernorEffort(exec), ref_effort)
            << "iter " << iter << " threads " << threads;
        EXPECT_EQ(r->ilp_nodes, ref_ilp_nodes)
            << "iter " << iter << " threads " << threads;
        EXPECT_EQ(r->connectivity_cuts, ref_cuts)
            << "iter " << iter << " threads " << threads;
        EXPECT_EQ(r->empty, ref_empty) << "iter " << iter << " threads "
                                       << threads;
        ASSERT_EQ(r->state_counts.size(), ref_counts.size());
        for (size_t i = 0; i < ref_counts.size(); ++i) {
          EXPECT_EQ(r->state_counts[i].Compare(ref_counts[i]), 0)
              << "iter " << iter << " threads " << threads << " state " << i;
        }
      }
    }
  }
  EXPECT_GT(nonempty_checked, 5u);  // witnesses were actually compared
}

TEST(LctaTest, ConnectivityCutsFire) {
  // An automaton with a disconnected "phantom" cycle that pure flow happily
  // uses: a δv self-loop on state 2 satisfies every local degree equation
  // (n_2 = out = in_v, no leaves) while being attached to nothing.
  // Constraint demands n_2 >= 1, which only the phantom could satisfy ->
  // must come back EMPTY, via at least one connectivity cut.
  TreeAutomaton a(1, 3);
  a.SetInitial(0);
  a.AddVertical(0, 0, 1);
  a.SetAccepting(1, 0);
  a.AddVertical(2, 0, 2);
  LinearExpr e = StateCount(2);
  e.AddConstant(BigInt(-1));
  Lcta lcta{a, LinearConstraint::Ge(e)};
  auto r = CheckLctaEmptiness(lcta);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->empty);
  EXPECT_GE(r->connectivity_cuts, 1u);
}

}  // namespace
}  // namespace fo2dt
