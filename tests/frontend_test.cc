#include "frontend/solver.h"

#include <gtest/gtest.h>

#include "common/flight_recorder.h"
#include "constraints/constraints.h"
#include "datatree/text_io.h"
#include "logic/parser.h"
#include "xmlenc/dtd.h"
#include "xpath/xpath.h"

namespace fo2dt {
namespace {

Result<SatResult> Solve(const std::string& text, Alphabet* labels,
                        size_t max_nodes = 5) {
  auto f = ParseFormula(text, labels);
  if (!f.ok()) return f.status();
  SolverOptions opt;
  opt.max_model_nodes = max_nodes;
  return CheckFo2SatisfiabilityBounded(*f, opt);
}

TEST(SolverTest, TriviallySatisfiable) {
  Alphabet labels;
  auto r = Solve("exists x. a(x)", &labels);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->verdict, SatVerdict::kSat);
  ASSERT_TRUE(r->witness.has_value());
  EXPECT_EQ(r->witness->size(), 1u);
}

TEST(SolverTest, PropositionalContradiction) {
  Alphabet labels;
  // A node cannot have two labels.
  auto r = Solve("exists x. (a(x) & b(x))", &labels);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, SatVerdict::kUnknown);  // bound exhausted, no model
}

TEST(SolverTest, DataConstraintsShapeWitness) {
  Alphabet labels;
  // Some two siblings share a data value while parent differs from both.
  auto r = Solve(
      "exists x. exists y. (next(x,y) & x ~ y & a(x)) & "
      "forall x. forall y. (child(x,y) -> !(x ~ y))",
      &labels);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->verdict, SatVerdict::kSat);
  const DataTree& w = *r->witness;
  EXPECT_GE(w.size(), 3u);
  // Verify no parent-child pair shares a value.
  for (NodeId v = 0; v < w.size(); ++v) {
    if (w.parent(v) != kNoNode) {
      EXPECT_FALSE(w.SameData(w.parent(v), v));
    }
  }
}

TEST(SolverTest, KeyLikeFormulaSat) {
  Alphabet labels;
  // Every a is unique in its class, and there exist two a's.
  auto r = Solve(
      "forall x. forall y. ((a(x) & a(y) & x ~ y) -> x = y) & "
      "exists x. exists y. (a(x) & a(y) & x != y)",
      &labels);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->verdict, SatVerdict::kSat);
}

TEST(SolverTest, OrderAxesSupported) {
  Alphabet labels;
  // Some node has a same-valued proper descendant at depth >= 2 (not a
  // child) — requires the E⇓ axis of FO²(∼,<,+1).
  auto r = Solve(
      "exists x. exists y. (desc(x,y) & !child(x,y) & x ~ y)", &labels, 4);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->verdict, SatVerdict::kSat);
  EXPECT_GE(r->witness->size(), 3u);
}

TEST(SolverTest, RejectsOpenFormulas) {
  Alphabet labels;
  auto f = ParseFormula("a(x)", &labels);
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(CheckFo2SatisfiabilityBounded(*f).ok());
}

TEST(SolverTest, SchemaFilterRestrictsModels) {
  Alphabet labels;
  Formula f = *ParseFormula("exists x. b(x)", &labels);  // b interned at 1?
  // Alphabet: formula interned "b" as 0. Build a schema over 2 labels that
  // only accepts single-node trees labeled 0.
  TreeAutomaton schema(2, 1);
  schema.SetInitial(0);
  schema.SetAccepting(0, 0);
  SolverOptions opt;
  opt.structural_filter = &schema;
  auto r = CheckFo2SatisfiabilityBounded(f, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, SatVerdict::kSat);  // single b-node is accepted
  // Now a schema accepting only label-1 roots: "exists b(=0)" unsatisfiable.
  TreeAutomaton schema2(2, 1);
  schema2.SetInitial(0);
  schema2.SetAccepting(0, 1);
  opt.structural_filter = &schema2;
  auto r2 = CheckFo2SatisfiabilityBounded(f, opt);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->verdict, SatVerdict::kUnknown);
}

TEST(SolverTest, WitnessIsMinimal) {
  Alphabet labels;
  // Needs 3 distinct classes pairwise different: minimal model has 3 nodes.
  auto r = Solve(
      "exists x. exists y. (a(x) & b(y) & !(x ~ y)) & "
      "exists x. exists y. (b(x) & c(y) & !(x ~ y)) & "
      "exists x. exists y. (a(x) & c(y) & !(x ~ y))",
      &labels);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->verdict, SatVerdict::kSat);
  EXPECT_EQ(r->witness->size(), 3u);
}

// ---------------------------------------------------------------------------
// Pinned effort: one small instance per family of the bounded_search
// benchmark workload (perfbench/workloads.cc). The enumeration order, the
// step accounting (one step per candidate, one per labeling the schema
// rejects) and therefore the witness found first are part of the solver's
// observable contract — the verdict cache, the query log and replay store
// them — so any change to the search must reproduce these exactly.

/// "<verdict> steps=<n> stop=<reason> witness=<tree>" over labels l0..l3.
std::string Summary(const Result<SatResult>& r) {
  if (!r.ok()) return "ERROR " + r.status().ToString();
  std::string out = std::string(SatVerdictToString(r->verdict)) +
                    " steps=" + std::to_string(r->steps) + " stop=" +
                    (r->stop_reason.has_value() ? r->stop_reason->ToString()
                                                : std::string("none"));
  if (r->witness.has_value()) {
    out += " witness=" + DataTreeToText(*r->witness, MakeReplayAlphabet(4));
  }
  return out;
}

Result<SatResult> SolveOverLabels(const std::string& text, size_t num_labels,
                                  size_t bound) {
  Alphabet alphabet = MakeReplayAlphabet(num_labels);
  Result<Formula> f = ParseFormula(text, &alphabet);
  if (!f.ok()) return f.status();
  SolverOptions opt;
  opt.num_labels = num_labels;
  opt.max_model_nodes = bound;
  return CheckFo2SatisfiabilityBounded(*f, opt);
}

Result<SatResult> Containment(size_t bound, bool holds) {
  Alphabet alphabet = MakeReplayAlphabet(3);
  const std::string chain = "/Child::l2/Child::l0";
  const std::string with_pred = chain + "[Child::l2 and not Child::l0]";
  Result<XpPath> p = ParseXPath(holds ? with_pred : chain, &alphabet);
  Result<XpPath> q = ParseXPath(holds ? chain : with_pred, &alphabet);
  if (!p.ok() || !q.ok()) return Status::Internal("xpath parse");
  SolverOptions opt;
  opt.max_model_nodes = bound;
  return CheckXPathContainment(*p, *q, nullptr, opt);
}

/// The key/foreign-key schema of the workload's constraint families over
/// r=l0, src=l1, ref=l2, k=l3: the root holds \p sources src elements and
/// one optional ref, each carrying attribute k.
TreeAutomaton SourcesAndRef(size_t sources) {
  Dtd dtd;
  dtd.root = 0;
  std::vector<Regex> content(sources, Regex::Sym(1));
  content.push_back(Regex::Opt(Regex::Sym(2)));
  dtd.elements = {DtdElement{0, Regex::Concat(std::move(content)), {}},
                  DtdElement{1, Regex::Epsilon(), {3}},
                  DtdElement{2, Regex::Epsilon(), {3}}};
  return *DtdToTreeAutomaton(dtd, 4);
}

ConstraintSet RefKeyedInclusion(bool keyed_sources) {
  ConstraintSet set;
  set.keys.push_back({2, 3});
  set.inclusions.push_back({1, 3, 2, 3});
  if (keyed_sources) set.keys.push_back({1, 3});
  return set;
}

Result<SatResult> Consistency(size_t sources, bool keyed_sources, size_t bound,
                              uint64_t max_steps = 20000000) {
  SolverOptions opt;
  opt.max_model_nodes = bound;
  opt.max_steps = max_steps;
  return CheckConsistencyBounded(SourcesAndRef(sources),
                                 RefKeyedInclusion(keyed_sources), opt);
}

TEST(BoundedSearchPinTest, TheoremOneFamilies) {
  const std::string distinct3 =
      "(exists x. exists y. (l1(x) & l0(y) & !(x ~ y))) & "
      "(exists x. exists y. (l1(x) & l2(y) & !(x ~ y))) & "
      "(exists x. exists y. (l0(x) & l2(y) & !(x ~ y)))";
  EXPECT_EQ(Summary(SolveOverLabels(distinct3, 3, 4)),
            "SAT steps=51 stop=none witness=l2:0 (l1:1 l0:2)");
  const std::string exhaust =
      "(exists x. l0(x)) & (forall x. (l0(x) -> exists y. (child(x,y) & "
      "x ~ y))) & (forall x. forall y. (x ~ y -> x = y))";
  EXPECT_EQ(Summary(SolveOverLabels(exhaust, 1, 4)),
            "UNKNOWN steps=88 stop=none");
}

TEST(BoundedSearchPinTest, TheoremThreeContainment) {
  EXPECT_EQ(Summary(Containment(3, /*holds=*/false)),
            "SAT steps=397 stop=none witness=l0:0 (l2:0 (l0:0))");
  EXPECT_EQ(Summary(Containment(3, /*holds=*/true)),
            "UNKNOWN steps=676 stop=none");
}

TEST(BoundedSearchPinTest, GenericConstraintRoute) {
  // Two keyed sources need two refs where at most one exists.
  EXPECT_EQ(Summary(Consistency(2, true, 5)), "UNKNOWN steps=15815 stop=none");
  EXPECT_EQ(Summary(Consistency(1, false, 5)),
            "SAT steps=8525 stop=none witness=l0:0 (l1:0 (l3:0) l2:0 (l3:0))");
  // One source: "src.k is a key" follows, so no counterexample exists.
  SolverOptions opt;
  opt.max_model_nodes = 5;
  Result<SatResult> implied = CheckImplicationBounded(
      SourcesAndRef(1), RefKeyedInclusion(false), KeyToFo2({1, 3}), opt);
  EXPECT_EQ(Summary(implied), "UNKNOWN steps=15819 stop=none");
}

TEST(BoundedSearchPinTest, StepBudgetDiesAmongRejectedLabelings) {
  // Steps 4501..4564 are 64 consecutive labelings of a 5-node shape that
  // the schema rejects (every labeling of nodes 0-2 under one labeling of
  // nodes 3-4), one step each. A budget of 4530 dies 31 labelings into that
  // run; a search that skips such a run must still stop exactly here.
  const uint64_t max_steps = 4530;
  Result<SatResult> r = Consistency(2, true, 5, max_steps);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->steps, max_steps + 1);
  EXPECT_EQ(Summary(r),
            "UNKNOWN steps=4531 stop=step budget in frontend.enumerate "
            "(4531 of 4530)");
}

}  // namespace
}  // namespace fo2dt
