#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/random.h"
#include "datatree/generator.h"
#include "datatree/text_io.h"
#include "logic/eval.h"
#include "logic/formula.h"
#include "logic/parser.h"
#include "logic/scott.h"

namespace fo2dt {
namespace {

struct Ctx {
  Alphabet labels;
  Alphabet preds;
  DataTree tree;
};

Ctx MakeCtx(const std::string& tree_text) {
  Ctx c;
  auto t = ParseDataTree(tree_text, &c.labels);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  c.tree = *t;
  return c;
}

Result<bool> Holds(Ctx* c, const std::string& formula_text) {
  auto f = ParseFormula(formula_text, &c->labels, &c->preds);
  if (!f.ok()) return f.status();
  return Evaluator::EvaluateSentence(*f, c->tree, nullptr);
}

TEST(FormulaTest, ParseRenderRoundTrip) {
  Alphabet labels;
  Alphabet preds;
  auto f = ParseFormula("forall x. (a(x) -> exists y. (child(x,y) & x ~ y))",
                        &labels, &preds);
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ(f->ToString(labels),
            "forall x. (!a(x) | exists y. (child(x,y) & x ~ y))");
  EXPECT_TRUE(f->IsSentence());
  EXPECT_TRUE(f->UsesData());
  EXPECT_FALSE(f->UsesOrderAxes());
}

TEST(FormulaTest, ParseErrors) {
  Alphabet labels;
  EXPECT_FALSE(ParseFormula("", &labels).ok());
  EXPECT_FALSE(ParseFormula("a(z)", &labels).ok());
  EXPECT_FALSE(ParseFormula("exists x a(x)", &labels).ok());
  EXPECT_FALSE(ParseFormula("a(x) &", &labels).ok());
  EXPECT_FALSE(ParseFormula("next(x)", &labels).ok());
  EXPECT_FALSE(ParseFormula("$R(x)", &labels).ok());  // no pred catalog
  EXPECT_FALSE(ParseFormula("x ~ y extra", &labels).ok());
}

TEST(FormulaTest, FreeVarsAndSentences) {
  Alphabet labels;
  Alphabet preds;
  Formula open = *ParseFormula("a(x) & exists y. x ~ y", &labels, &preds);
  EXPECT_EQ(open.FreeVars(), 1u);
  EXPECT_FALSE(open.IsSentence());
  Formula closed = Formula::Forall(Var::kX, open);
  EXPECT_TRUE(closed.IsSentence());
}

TEST(FormulaTest, NnfPushesNegations) {
  Alphabet labels;
  Formula f = *ParseFormula("!(a(x) & exists y. next(x,y))", &labels);
  Formula nnf = f.ToNnf();
  EXPECT_EQ(nnf.ToString(labels), "(!a(x) | forall y. !next(x,y))");
  // Double negation collapses.
  Formula dn = Formula::Not(Formula::Not(f)).ToNnf();
  EXPECT_TRUE(dn.EqualsFormula(nnf));
}

TEST(FormulaTest, UsesOrderAxes) {
  Alphabet labels;
  EXPECT_TRUE(ParseFormula("exists x. exists y. desc(x,y)", &labels)->UsesOrderAxes());
  EXPECT_TRUE(ParseFormula("exists x. exists y. foll(x,y)", &labels)->UsesOrderAxes());
  EXPECT_FALSE(ParseFormula("exists x. exists y. child(x,y)", &labels)->UsesOrderAxes());
}

TEST(EvalTest, LabelAndStructure) {
  Ctx c = MakeCtx("a:1 (b:1 c:2 (d:2) b:1)");
  EXPECT_TRUE(*Holds(&c, "exists x. a(x)"));
  EXPECT_FALSE(*Holds(&c, "exists x. e(x)"));
  EXPECT_TRUE(*Holds(&c, "exists x. exists y. next(x,y) & b(x) & c(y)"));
  EXPECT_FALSE(*Holds(&c, "exists x. exists y. next(x,y) & c(x) & b(x)"));
  EXPECT_TRUE(*Holds(&c, "exists x. (c(x) & exists y. (child(x,y) & d(y)))"));
  EXPECT_TRUE(*Holds(&c, "forall x. (d(x) -> exists y. (child(y,x) & c(y)))"));
}

TEST(EvalTest, DataEquality) {
  Ctx c = MakeCtx("a:1 (b:1 c:2 (d:2) b:1)");
  // Root shares its value with both b's.
  EXPECT_TRUE(*Holds(&c, "forall x. (b(x) -> exists y. (a(y) & x ~ y))"));
  // c and d share value 2; no b shares with c.
  EXPECT_TRUE(*Holds(&c, "exists x. (c(x) & exists y. (d(y) & x ~ y))"));
  EXPECT_FALSE(*Holds(&c, "exists x. (b(x) & exists y. (c(y) & x ~ y))"));
  // Every class has at most 3 members — sanity via at-most-one failing.
  EXPECT_FALSE(
      *Holds(&c, "forall x. forall y. ((b(x) & b(y) & x ~ y) -> x = y)"));
}

TEST(EvalTest, TransitiveAxes) {
  Ctx c = MakeCtx("a:1 (b:2 (c:3 (d:4)) e:5)");
  EXPECT_TRUE(*Holds(&c, "exists x. exists y. (a(x) & d(y) & desc(x,y))"));
  EXPECT_TRUE(*Holds(&c, "exists x. exists y. (b(x) & d(y) & desc(x,y))"));
  EXPECT_FALSE(*Holds(&c, "exists x. exists y. (e(x) & d(y) & desc(x,y))"));
  EXPECT_TRUE(*Holds(&c, "exists x. exists y. (b(x) & e(y) & foll(x,y))"));
  EXPECT_FALSE(*Holds(&c, "exists x. exists y. (e(x) & b(y) & foll(x,y))"));
  // desc is irreflexive and next/foll need a shared parent.
  EXPECT_FALSE(*Holds(&c, "exists x. desc(x,x)"));
  EXPECT_FALSE(*Holds(&c, "exists x. exists y. (a(x) & foll(x,y))"));
}

TEST(EvalTest, EqualityAtom) {
  Ctx c = MakeCtx("a:1 (b:2)");
  EXPECT_TRUE(*Holds(&c, "forall x. exists y. x = y"));
  EXPECT_TRUE(*Holds(&c, "exists x. exists y. x != y"));
  EXPECT_TRUE(*Holds(&c, "forall x. x ~ x"));
}

TEST(EvalTest, QuantifierAlternation) {
  // "Every node has a child" is false; "some node has every node as
  // child-or-self" nonsense checks quantifier nesting.
  Ctx c = MakeCtx("a:1 (b:2 b:3)");
  EXPECT_FALSE(*Holds(&c, "forall x. exists y. child(x,y)"));
  EXPECT_TRUE(*Holds(&c, "exists x. forall y. (x = y | child(x,y))"));
  EXPECT_FALSE(*Holds(&c, "exists x. forall y. child(x,y)"));
}

TEST(EvalTest, PredInterpretation) {
  Ctx c = MakeCtx("a:1 (b:2 b:3)");
  Formula f = *ParseFormula("exists x. ($M(x) & b(x))", &c.labels, &c.preds);
  PredInterpretation interp = PredInterpretation::Empty(1, c.tree.size());
  EXPECT_FALSE(*Evaluator::EvaluateSentence(f, c.tree, &interp));
  interp.membership[0][1] = 1;  // mark the first b
  EXPECT_TRUE(*Evaluator::EvaluateSentence(f, c.tree, &interp));
  // Without any interpretation, predicates read as empty.
  EXPECT_FALSE(*Evaluator::EvaluateSentence(f, c.tree, nullptr));
}

TEST(EvalTest, EvaluateUnary) {
  Ctx c = MakeCtx("a:1 (b:1 c:2 (d:2) b:1)");
  Formula f = *ParseFormula("exists y. (child(y,x) & y ~ x)", &c.labels, &c.preds);
  auto sat = Evaluator::EvaluateUnary(f, c.tree, Var::kX);
  ASSERT_TRUE(sat.ok());
  // Nodes whose parent shares their value: both b's and d.
  std::vector<char> expect = {0, 1, 0, 1, 1};
  EXPECT_EQ(*sat, expect);
  // Wrong free variable is an error.
  EXPECT_FALSE(Evaluator::EvaluateUnary(f, c.tree, Var::kY).ok());
}

TEST(EvalTest, EmptyTreeIsError) {
  DataTree t;
  Formula f = Formula::True();
  EXPECT_FALSE(Evaluator::EvaluateSentence(f, t, nullptr).ok());
}

TEST(ScottTest, ShapeOfResult) {
  Alphabet labels;
  Formula f = *ParseFormula(
      "forall x. (a(x) -> exists y. (child(x,y) & x ~ y))", &labels);
  auto snf = ToScottNormalForm(f, 0);
  ASSERT_TRUE(snf.ok()) << snf.status().ToString();
  EXPECT_TRUE(snf->universal.IsQuantifierFree());
  for (const Formula& w : snf->witnesses) {
    EXPECT_TRUE(w.IsQuantifierFree());
    // Witness clauses are over (x free, y quantified): no stray vars needed.
  }
  EXPECT_GT(snf->num_preds, 0u);
}

TEST(ScottTest, EquisatisfiableOnModels) {
  // For every model t of φ there is a predicate interpretation making the
  // Scott form true, and vice versa (checked by brute force over small
  // trees and interpretations).
  Alphabet labels;
  const char* formulas[] = {
      "exists x. a(x)",
      "forall x. (a(x) -> exists y. (child(x,y) & x ~ y))",
      "exists x. (a(x) & forall y. (child(x,y) -> b(y)))",
      "forall x. forall y. ((a(x) & a(y)) -> x = y)",
      "exists x. exists y. (next(x,y) & x ~ y)",
  };
  const char* trees[] = {
      "a:1",           "b:1",           "a:1 (a:1)",      "a:1 (b:1)",
      "a:1 (b:2 b:1)", "b:1 (a:2 a:2)", "a:1 (a:2 (b:2))", "b:3 (b:3)",
  };
  for (const char* ftext : formulas) {
    Formula f = *ParseFormula(ftext, &labels);
    auto snf = ToScottNormalForm(f, 0);
    ASSERT_TRUE(snf.ok());
    Emso2Formula emso;
    emso.num_preds = snf->num_preds;
    emso.core = ScottToFormula(*snf);
    for (const char* ttext : trees) {
      Alphabet tree_labels = labels;  // share ids
      DataTree t = *ParseDataTree(ttext, &tree_labels);
      bool direct = *Evaluator::EvaluateSentence(f, t, nullptr);
      auto via_snf = Evaluator::EvaluateEmsoBruteForce(emso, t, 22);
      ASSERT_TRUE(via_snf.ok()) << via_snf.status().ToString();
      EXPECT_EQ(direct, *via_snf) << ftext << " on " << ttext;
    }
  }
}

TEST(ScottTest, SwapVarsInvolution) {
  Alphabet labels;
  Formula f = *ParseFormula("a(x) & next(x,y) & x ~ y", &labels);
  Formula swapped = *SwapVars(f);
  EXPECT_EQ(swapped.ToString(labels), "(a(y) & next(y,x) & y ~ x)");
  EXPECT_TRUE(SwapVars(swapped)->EqualsFormula(f));
  Formula quantified = Formula::Exists(Var::kX, f);
  EXPECT_FALSE(SwapVars(quantified).ok());
}

TEST(EvalTest, RandomizedSemanticsSpotChecks) {
  // On random trees: "every node with a same-data parent" count matches a
  // direct computation.
  Alphabet labels;
  Alphabet preds;
  Formula f =
      *ParseFormula("exists y. (child(y,x) & y ~ x)", &labels, &preds);
  RandomSource rng(123);
  RandomTreeOptions opt;
  opt.num_nodes = 30;
  opt.num_labels = 2;
  for (int iter = 0; iter < 25; ++iter) {
    // Reuse label ids: generator interns l0, l1 which differ from parse-time
    // labels; the formula above uses no labels so this is safe.
    DataTree t = RandomDataTree(opt, &rng, &labels);
    auto sat = Evaluator::EvaluateUnary(f, t, Var::kX);
    ASSERT_TRUE(sat.ok());
    for (NodeId v = 0; v < t.size(); ++v) {
      bool expect = t.parent(v) != kNoNode && t.SameData(t.parent(v), v);
      EXPECT_EQ((*sat)[v] != 0, expect);
    }
  }
}

// ---------------------------------------------------------------------------
// Differential test of the compiled evaluator against the definition: a
// recursion over variable assignments that shares no code with it.

bool AxisHolds(const DataTree& t, Axis axis, NodeId a, NodeId b) {
  switch (axis) {
    case Axis::kNextSibling:
      return t.next_sibling(a) == b;
    case Axis::kChild:
      return t.parent(b) == a;
    case Axis::kFollowingSibling:
      for (NodeId w = t.next_sibling(a); w != kNoNode; w = t.next_sibling(w)) {
        if (w == b) return true;
      }
      return false;
    case Axis::kDescendant:
      for (NodeId u = t.parent(b); u != kNoNode; u = t.parent(u)) {
        if (u == a) return true;
      }
      return false;
  }
  return false;
}

bool Definitional(const Formula& f, const DataTree& t,
                  const PredInterpretation* preds, NodeId x, NodeId y) {
  using Kind = Formula::Kind;
  auto at = [&](Var v) { return v == Var::kX ? x : y; };
  switch (f.kind()) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kLabel:
      return t.label(at(f.var())) == f.symbol();
    case Kind::kPred:
      return preds != nullptr && preds->membership[f.pred()][at(f.var())] != 0;
    case Kind::kSameData:
      return t.data(at(f.var())) == t.data(at(f.var2()));
    case Kind::kEqual:
      return at(f.var()) == at(f.var2());
    case Kind::kEdge:
      return AxisHolds(t, f.axis(), at(f.var()), at(f.var2()));
    case Kind::kNot:
      return !Definitional(f.child(0), t, preds, x, y);
    case Kind::kAnd:
      for (const Formula& c : f.children()) {
        if (!Definitional(c, t, preds, x, y)) return false;
      }
      return true;
    case Kind::kOr:
      for (const Formula& c : f.children()) {
        if (Definitional(c, t, preds, x, y)) return true;
      }
      return false;
    case Kind::kExists:
    case Kind::kForall: {
      const bool exists = f.kind() == Kind::kExists;
      for (NodeId v = 0; v < t.size(); ++v) {
        const bool holds =
            f.var() == Var::kX ? Definitional(f.child(0), t, preds, v, y)
                               : Definitional(f.child(0), t, preds, x, v);
        if (holds == exists) return exists;
      }
      return !exists;
    }
  }
  return false;
}

Var RandomVar(RandomSource* rng) {
  return rng->Bernoulli(0.5) ? Var::kX : Var::kY;
}

/// A random formula over labels 0..2 and predicates 0..1 with at most
/// \p quantifiers nested quantifiers; records every Kind it emits.
Formula RandomFormula(RandomSource* rng, int depth, int quantifiers,
                      std::set<Formula::Kind>* seen) {
  const int64_t pick = depth <= 0 ? rng->UniformInt(0, 6)
                                  : rng->UniformInt(0, 11);
  Formula f = Formula::True();
  switch (pick) {
    case 0:
      f = rng->Bernoulli(0.5) ? Formula::True() : Formula::False();
      break;
    case 1:
    case 2:
      f = Formula::Label(static_cast<Symbol>(rng->UniformInt(0, 2)),
                         RandomVar(rng));
      break;
    case 3:
      f = Formula::Pred(static_cast<PredId>(rng->UniformInt(0, 1)),
                        RandomVar(rng));
      break;
    case 4:
      f = Formula::SameData(RandomVar(rng), RandomVar(rng));
      break;
    case 5:
      f = Formula::Equal(RandomVar(rng), RandomVar(rng));
      break;
    case 6:
      f = Formula::Edge(static_cast<Axis>(rng->UniformInt(0, 3)),
                        RandomVar(rng), RandomVar(rng));
      break;
    case 7:
      f = Formula::Not(RandomFormula(rng, depth - 1, quantifiers, seen));
      break;
    case 8:
    case 9: {
      std::vector<Formula> parts;
      const int64_t k = rng->UniformInt(2, 3);
      for (int64_t i = 0; i < k; ++i) {
        parts.push_back(RandomFormula(rng, depth - 1, quantifiers, seen));
      }
      f = pick == 8 ? Formula::And(std::move(parts))
                    : Formula::Or(std::move(parts));
      break;
    }
    default: {
      if (quantifiers == 0) {
        return RandomFormula(rng, depth - 1, quantifiers, seen);
      }
      Formula body = RandomFormula(rng, depth - 1, quantifiers - 1, seen);
      f = rng->Bernoulli(0.5) ? Formula::Exists(RandomVar(rng), body)
                              : Formula::Forall(RandomVar(rng), body);
      break;
    }
  }
  seen->insert(f.kind());
  return f;
}

bool MatrixBit(const uint64_t* m, size_t words, NodeId x, NodeId y) {
  return ((m[x * words + y / 64] >> (y % 64)) & 1) != 0;
}

TEST(EvalTest, CompiledMatchesDefinitionalSemantics) {
  RandomSource rng(20261017);
  Alphabet labels;
  std::set<Formula::Kind> seen;
  std::set<std::tuple<Axis, Var, Var>> edges_seen;
  size_t two_word_trees = 0;
  for (int iter = 0; iter < 600; ++iter) {
    RandomTreeOptions opt;
    opt.num_nodes = static_cast<size_t>(
        iter % 3 == 0 ? rng.UniformInt(65, 70) : rng.UniformInt(1, 12));
    // Few labels and values make rows that are full in every word common,
    // which is what ∀ and ¬ must get right across the word boundary.
    opt.num_labels = static_cast<size_t>(rng.UniformInt(1, 3));
    opt.num_data_values = static_cast<size_t>(rng.UniformInt(1, 4));
    DataTree t = RandomDataTree(opt, &rng, &labels);
    const size_t n = t.size();
    two_word_trees += n > 64 ? 1 : 0;
    PredInterpretation interp = PredInterpretation::Empty(2, n);
    for (auto& row : interp.membership) {
      for (char& c : row) c = rng.Bernoulli(0.4) ? 1 : 0;
    }
    const PredInterpretation* preds = iter % 2 == 0 ? &interp : nullptr;
    Formula f = RandomFormula(&rng, 4, n > 12 ? 1 : 2, &seen);
    std::vector<Formula> stack = {f};
    while (!stack.empty()) {
      Formula g = stack.back();
      stack.pop_back();
      if (g.kind() == Formula::Kind::kEdge) {
        edges_seen.insert({g.axis(), g.var(), g.var2()});
      }
      for (const Formula& c : g.children()) stack.push_back(c);
    }

    Evaluator ev(f);
    ASSERT_TRUE(ev.Validate(preds).ok());
    ev.Bind(t, preds);
    ASSERT_EQ(ev.words(), (n + 63) / 64);
    // Every pair on small trees, a sample on large ones.
    auto expect_matrix = [&](const char* when) {
      const uint64_t* m = ev.Run();
      const size_t pairs = n <= 12 ? n * n : 60;
      const int64_t last = static_cast<int64_t>(n) - 1;
      for (size_t k = 0; k < pairs; ++k) {
        const NodeId x = static_cast<NodeId>(
            n <= 12 ? k / n : static_cast<size_t>(rng.UniformInt(0, last)));
        const NodeId y = static_cast<NodeId>(
            n <= 12 ? k % n : static_cast<size_t>(rng.UniformInt(0, last)));
        ASSERT_EQ(MatrixBit(m, ev.words(), x, y),
                  Definitional(f, t, preds, x, y))
            << when << ": " << f.ToString(labels) << " at (" << x << ","
            << y << ") on " << DataTreeToText(t, labels);
      }
    };
    expect_matrix("bound");

    // The static entry points agree with the definition too.
    Formula sentence = Formula::Exists(
        Var::kX,
        Formula::Forall(Var::kY,
                        Formula::Or(f, Formula::Equal(Var::kX, Var::kY))));
    if (n <= 12) {
      bool expect = false;
      for (NodeId x = 0; x < n && !expect; ++x) {
        bool all = true;
        for (NodeId y = 0; y < n && all; ++y) {
          all = x == y || Definitional(f, t, preds, x, y);
        }
        expect = all;
      }
      Result<bool> got = Evaluator::EvaluateSentence(sentence, t, preds);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, expect) << sentence.ToString(labels);
    }
    for (Var free : {Var::kX, Var::kY}) {
      Formula unary = Formula::Exists(OtherVar(free), f);
      Result<std::vector<char>> got =
          Evaluator::EvaluateUnary(unary, t, free, preds);
      ASSERT_TRUE(got.ok());
      for (NodeId v = 0; v < std::min<size_t>(n, 12); ++v) {
        const bool expect = free == Var::kX
                                ? Definitional(unary, t, preds, v, 0)
                                : Definitional(unary, t, preds, 0, v);
        EXPECT_EQ((*got)[v] != 0, expect) << unary.ToString(labels);
      }
    }

    // Rebinding only labels and data (the enumerator's path) tracks the
    // mutated tree.
    for (NodeId v = 0; v < n; ++v) {
      t.set_label(v, static_cast<Symbol>(rng.UniformInt(0, 2)));
      t.set_data(v, static_cast<DataValue>(rng.UniformInt(0, 2)));
    }
    ev.BindLabels(t);
    ev.BindData(t);
    expect_matrix("rebound");
  }
  // Coverage: every Kind, every axis in both variable orders and with one
  // variable twice, and rows of one and of two words.
  EXPECT_EQ(seen.size(), 12u);
  EXPECT_EQ(edges_seen.size(), 16u);
  EXPECT_GT(two_word_trees, 0u);
}

TEST(EvalTest, RowsSpanningTwoWords) {
  // 70 nodes: the root and 63 children labeled a with value 1, then six b
  // children with value 2, so every row is full in its first word only.
  Alphabet labels;
  std::string text = "a:1 (";
  for (int i = 1; i < 70; ++i) text += i < 64 ? "a:1 " : "b:2 ";
  text += ")";
  DataTree t = *ParseDataTree(text, &labels);
  ASSERT_EQ(t.size(), 70u);
  Alphabet preds;
  const char* formulas[] = {
      "forall y. a(y)",
      "forall x. a(x)",
      "exists y. b(y)",
      "!(exists y. b(y))",
      "forall y. (a(y) | y = x)",
      "forall y. x ~ y",
      "exists y. !(x ~ y)",
      "forall x. forall y. (a(x) | b(y))",
      "!a(x) & !a(y)",
  };
  for (const char* ftext : formulas) {
    Formula f = *ParseFormula(ftext, &labels, &preds);
    Evaluator ev(f);
    ev.Bind(t, nullptr);
    const uint64_t* m = ev.Run();
    ASSERT_EQ(ev.words(), 2u);
    for (NodeId x = 0; x < t.size(); ++x) {
      for (NodeId y = 0; y < t.size(); ++y) {
        ASSERT_EQ(MatrixBit(m, ev.words(), x, y),
                  Definitional(f, t, nullptr, x, y))
            << ftext << " at (" << x << "," << y << ")";
      }
    }
  }
}

TEST(EvalTest, ErrorPaths) {
  Ctx c = MakeCtx("a:1 (b:2)");
  // Open formula.
  Formula open = Formula::Label(0, Var::kX);
  Result<bool> r = Evaluator::EvaluateSentence(open, c.tree, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Empty tree, for both entry points.
  DataTree empty;
  Formula closed = Formula::Exists(Var::kX, open);
  EXPECT_EQ(Evaluator::EvaluateSentence(closed, empty).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Evaluator::EvaluateUnary(open, empty, Var::kX).status().code(),
            StatusCode::kInvalidArgument);
  // A label atom with no symbol.
  Formula no_symbol =
      Formula::Exists(Var::kX, Formula::Label(kNoSymbol, Var::kX));
  r = Evaluator::EvaluateSentence(no_symbol, c.tree, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().ToString().find("no symbol"), std::string::npos);
  // A predicate beyond the interpretation; a null one reads it as empty.
  Formula pred = Formula::Exists(Var::kX, Formula::Pred(3, Var::kX));
  PredInterpretation interp = PredInterpretation::Empty(2, c.tree.size());
  r = Evaluator::EvaluateSentence(pred, c.tree, &interp);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("$3"), std::string::npos);
  r = Evaluator::EvaluateSentence(pred, c.tree, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  // The first offending atom in evaluation order is the one reported.
  Formula both = Formula::Exists(
      Var::kX, Formula::And(Formula::Pred(3, Var::kX),
                            Formula::Label(kNoSymbol, Var::kX)));
  r = Evaluator::EvaluateSentence(both, c.tree, &interp);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("$3"), std::string::npos);
  // EMSO brute force: the bit cap, then the same checks.
  Emso2Formula emso;
  emso.num_preds = 1;
  emso.core = pred;
  EXPECT_EQ(Evaluator::EvaluateEmsoBruteForce(emso, c.tree, 1).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Evaluator::EvaluateEmsoBruteForce(emso, c.tree).status().code(),
            StatusCode::kInvalidArgument);
  emso.core = Formula::Exists(Var::kX, Formula::Pred(0, Var::kX));
  EXPECT_TRUE(*Evaluator::EvaluateEmsoBruteForce(emso, c.tree));
}

}  // namespace
}  // namespace fo2dt
