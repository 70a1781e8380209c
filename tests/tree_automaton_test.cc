#include "automata/tree_automaton.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "automata/automaton_io.h"
#include "common/random.h"
#include "datatree/generator.h"
#include "datatree/text_io.h"

namespace fo2dt {
namespace {

// Automaton over {a=0, b=1} accepting trees where all leaves are 'b' and all
// internal nodes are 'a'. States: 0 = "leaf b" (initial), 1 = "internal a".
TreeAutomaton LeavesAreB() {
  TreeAutomaton aut(2, 2);
  aut.SetInitial(0);
  // Horizontal: any mix of leaf/internal siblings; δh reads the label of the
  // left node, which must match its role.
  aut.AddHorizontal(0, 1, 0);
  aut.AddHorizontal(0, 1, 1);
  aut.AddHorizontal(1, 0, 0);
  aut.AddHorizontal(1, 0, 1);
  // Vertical: last child hands off to its parent, which is internal (1).
  aut.AddVertical(0, 1, 1);
  aut.AddVertical(1, 0, 1);
  aut.SetAccepting(1, 0);  // internal root labeled a
  aut.SetAccepting(0, 1);  // single-leaf tree labeled b
  return aut;
}

DataTree T(const std::string& text, Alphabet* alpha) {
  auto t = ParseDataTree(text, alpha);
  EXPECT_TRUE(t.ok()) << t.status().ToString();
  return *t;
}

class LeafAutomatonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    alpha_.Intern("a");
    alpha_.Intern("b");
  }
  Alphabet alpha_;
  TreeAutomaton aut_ = LeavesAreB();
};

TEST_F(LeafAutomatonTest, AcceptsGoodTrees) {
  EXPECT_TRUE(aut_.Accepts(T("b:0", &alpha_)));
  EXPECT_TRUE(aut_.Accepts(T("a:0 (b:0)", &alpha_)));
  EXPECT_TRUE(aut_.Accepts(T("a:0 (b:0 b:0 b:0)", &alpha_)));
  EXPECT_TRUE(aut_.Accepts(T("a:0 (b:0 a:0 (b:0) b:0)", &alpha_)));
}

TEST_F(LeafAutomatonTest, RejectsBadTrees) {
  EXPECT_FALSE(aut_.Accepts(T("a:0", &alpha_)));               // leaf a
  EXPECT_FALSE(aut_.Accepts(T("b:0 (b:0)", &alpha_)));         // internal b
  EXPECT_FALSE(aut_.Accepts(T("a:0 (b:0 a:0 b:0)", &alpha_))); // leaf a inside
}

TEST_F(LeafAutomatonTest, FindRunIsAcceptingRun) {
  DataTree t = T("a:0 (b:0 a:0 (b:0) b:0)", &alpha_);
  auto run = aut_.FindAcceptingRun(t);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(aut_.IsAcceptingRun(t, *run));
  // The run is unique for this automaton: leaves 0, internal 1.
  for (NodeId v = 0; v < t.size(); ++v) {
    EXPECT_EQ((*run)[v], t.first_child(v) == kNoNode ? 0u : 1u);
  }
}

TEST_F(LeafAutomatonTest, IsAcceptingRunRejectsBadRuns) {
  DataTree t = T("a:0 (b:0)", &alpha_);
  TreeRun bad = {0, 0};  // root must be state 1
  EXPECT_FALSE(aut_.IsAcceptingRun(t, bad));
  TreeRun wrong_size = {1};
  EXPECT_FALSE(aut_.IsAcceptingRun(t, wrong_size));
}

TEST_F(LeafAutomatonTest, WitnessTreeIsAccepted) {
  auto w = aut_.FindWitnessTree();
  ASSERT_TRUE(w.ok());
  EXPECT_TRUE(aut_.Accepts(*w));
  EXPECT_FALSE(aut_.IsEmpty());
}

TEST(TreeAutomatonTest, EmptyWhenNoAcceptingReachable) {
  TreeAutomaton aut(1, 2);
  aut.SetInitial(0);
  aut.AddVertical(0, 0, 1);
  // No accepting pairs at all.
  EXPECT_TRUE(aut.IsEmpty());
  aut.SetAccepting(1, 0);
  EXPECT_FALSE(aut.IsEmpty());
  auto w = aut.FindWitnessTree();
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->size(), 2u);  // chain: root with one leaf child
  EXPECT_TRUE(aut.Accepts(*w));
}

TEST(TreeAutomatonTest, UniversalAcceptsEverything) {
  TreeAutomaton u = TreeAutomaton::Universal(3);
  Alphabet alpha;
  RandomSource rng(9);
  RandomTreeOptions opt;
  opt.num_nodes = 40;
  opt.num_labels = 3;
  for (int i = 0; i < 10; ++i) {
    DataTree t = RandomDataTree(opt, &rng, &alpha);
    EXPECT_TRUE(u.Accepts(t));
  }
}

TEST(TreeAutomatonTest, LabelFilter) {
  TreeAutomaton f = TreeAutomaton::LabelFilter(3, {true, false, true});
  Alphabet alpha;
  DataTree ok = T("a:0 (c:0)", &alpha);   // a=0, c interned later
  // Intern order: a=0, c=1 — careful: build labels explicitly instead.
  Alphabet a2;
  Symbol s0 = a2.Intern("s0");
  Symbol s1 = a2.Intern("s1");
  Symbol s2 = a2.Intern("s2");
  (void)s0; (void)s1; (void)s2;
  DataTree good;
  (void)good.CreateRoot(0, 0);
  (void)good.AppendChild(good.root(), 2, 0);
  EXPECT_TRUE(f.Accepts(good));
  DataTree bad;
  (void)bad.CreateRoot(0, 0);
  (void)bad.AppendChild(bad.root(), 1, 0);
  EXPECT_FALSE(f.Accepts(bad));
  (void)ok;
}

TEST(TreeAutomatonTest, IntersectionSemantics) {
  // A1: all leaves b; A2: label filter allowing only labels {a, b} with at
  // most... use: trees whose root is 'a'. Build root-label automaton.
  TreeAutomaton a1 = LeavesAreB();
  TreeAutomaton root_a(2, 1);
  root_a.SetInitial(0);
  root_a.AddHorizontal(0, 0, 0);
  root_a.AddHorizontal(0, 1, 0);
  root_a.AddVertical(0, 0, 0);
  root_a.AddVertical(0, 1, 0);
  root_a.SetAccepting(0, 0);  // root must be labeled a
  auto inter = TreeAutomaton::Intersect(a1, root_a);
  ASSERT_TRUE(inter.ok());
  Alphabet alpha;
  alpha.Intern("a");
  alpha.Intern("b");
  EXPECT_TRUE(inter->Accepts(T("a:0 (b:0 b:0)", &alpha)));
  EXPECT_FALSE(inter->Accepts(T("b:0", &alpha)));          // root not a
  EXPECT_FALSE(inter->Accepts(T("a:0 (a:0 b:0)", &alpha)));  // leaf a
}

TEST(TreeAutomatonTest, UnionSemantics) {
  TreeAutomaton a1 = LeavesAreB();
  // A2: single-node tree labeled a.
  TreeAutomaton single(2, 1);
  single.SetInitial(0);
  single.SetAccepting(0, 0);
  auto uni = TreeAutomaton::Union(a1, single);
  ASSERT_TRUE(uni.ok());
  Alphabet alpha;
  alpha.Intern("a");
  alpha.Intern("b");
  EXPECT_TRUE(uni->Accepts(T("a:0", &alpha)));
  EXPECT_TRUE(uni->Accepts(T("a:0 (b:0)", &alpha)));
  EXPECT_FALSE(uni->Accepts(T("a:0 (a:0)", &alpha)));
}

TEST(TreeAutomatonTest, AlphabetMismatchErrors) {
  TreeAutomaton a(2, 1);
  TreeAutomaton b(3, 1);
  EXPECT_FALSE(TreeAutomaton::Intersect(a, b).ok());
  EXPECT_FALSE(TreeAutomaton::Union(a, b).ok());
}

TEST(TreeAutomatonTest, RandomizedProductAgreesWithConjunction) {
  // Product membership == both memberships, on random trees.
  TreeAutomaton a1 = LeavesAreB();
  TreeAutomaton parity(2, 2);
  // parity automaton: counts nothing meaningful but is nontrivial: state
  // flips along horizontal steps; accepts when root has state 0.
  parity.SetInitial(0);
  parity.SetInitial(1);
  for (Symbol s = 0; s < 2; ++s) {
    parity.AddHorizontal(0, s, 1);
    parity.AddHorizontal(1, s, 0);
    parity.AddVertical(0, s, 0);
    parity.AddVertical(0, s, 1);
    parity.AddVertical(1, s, 0);
    parity.AddVertical(1, s, 1);
    parity.SetAccepting(0, s);
  }
  auto prod = TreeAutomaton::Intersect(a1, parity);
  ASSERT_TRUE(prod.ok());
  Alphabet alpha;
  RandomSource rng(77);
  RandomTreeOptions opt;
  opt.num_nodes = 12;
  opt.num_labels = 2;
  for (int i = 0; i < 50; ++i) {
    DataTree t = RandomDataTree(opt, &rng, &alpha);
    EXPECT_EQ(prod->Accepts(t), a1.Accepts(t) && parity.Accepts(t));
  }
}

// The singleton language {a(b, c(d))} requires anchoring "c is the second
// child" — exactly what the non-first state set provides (see the header
// note in tree_automaton.h).
TreeAutomaton SingletonAbCd() {
  // Σ: a=0, b=1, c=2, d=3. States: 0 = b-leaf, 1 = c-node (non-first),
  // 2 = d-leaf, 3 = root.
  TreeAutomaton aut(4, 4);
  aut.SetInitial(0);
  aut.SetInitial(2);
  aut.SetNonFirst(1);
  aut.AddHorizontal(0, 1, 1);  // b then c
  aut.AddVertical(2, 3, 1);    // d's parent is the c-node
  aut.AddVertical(1, 2, 3);    // c closes the chain into the root
  aut.SetAccepting(3, 0);
  return aut;
}

TEST(TreeAutomatonTest, NonFirstStatesPinSiblingPositions) {
  TreeAutomaton aut = SingletonAbCd();
  Alphabet alpha;
  for (const char* name : {"a", "b", "c", "d"}) alpha.Intern(name);
  EXPECT_TRUE(aut.Accepts(*ParseDataTree("a:0 (b:0 c:0 (d:0))", &alpha)));
  // Pruning c's subtree must now be rejected (c would be a non-I leaf).
  EXPECT_FALSE(aut.Accepts(*ParseDataTree("a:0 (b:0 c:0)", &alpha)));
  // Dropping b must be rejected (c's state is non-first).
  EXPECT_FALSE(aut.Accepts(*ParseDataTree("a:0 (c:0 (d:0))", &alpha)));
  // Reordering or duplication fails too.
  EXPECT_FALSE(aut.Accepts(*ParseDataTree("a:0 (c:0 (d:0) b:0)", &alpha)));
  EXPECT_FALSE(aut.Accepts(*ParseDataTree("a:0 (b:0 c:0 (d:0 d:0))", &alpha)));
  EXPECT_FALSE(aut.Accepts(*ParseDataTree("a:0 (b:0 c:0 (d:0) b:0)", &alpha)));
  // The witness generator must produce the single member.
  auto w = aut.FindWitnessTree();
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w->size(), 4u);
  EXPECT_TRUE(aut.Accepts(*w));
}

// Property: for random automata, canonical text -> parse -> canonical text is
// bit-identical, and the parsed copy (whose bitsets and CSR index are rebuilt
// from scratch) agrees with the original both structurally and on membership.
// This is the compatibility contract the flat representation owes the solve
// cache: FNV-1a keys are derived from this text.
TEST(TreeAutomatonTest, RandomizedTextRoundTripIsBitIdentical) {
  RandomSource rng(2026);
  for (int iter = 0; iter < 40; ++iter) {
    const size_t ns = static_cast<size_t>(rng.UniformInt(1, 9));
    const size_t na = static_cast<size_t>(rng.UniformInt(1, 5));
    TreeAutomaton aut(na, ns);
    const int edges = static_cast<int>(rng.UniformInt(0, 24));
    for (int e = 0; e < edges; ++e) {
      const auto from = static_cast<TreeState>(
          rng.UniformInt(0, static_cast<int64_t>(ns) - 1));
      const auto sym = static_cast<Symbol>(
          rng.UniformInt(0, static_cast<int64_t>(na) - 1));
      const auto to = static_cast<TreeState>(
          rng.UniformInt(0, static_cast<int64_t>(ns) - 1));
      if (rng.UniformInt(0, 1) == 0) {
        aut.AddHorizontal(from, sym, to);
      } else {
        aut.AddVertical(from, sym, to);
      }
    }
    for (TreeState q = 0; q < ns; ++q) {
      if (rng.UniformInt(0, 2) == 0) aut.SetInitial(q);
      if (rng.UniformInt(0, 3) == 0) aut.SetNonFirst(q);
      for (Symbol a = 0; a < na; ++a) {
        if (rng.UniformInt(0, 3) == 0) aut.SetAccepting(q, a);
      }
    }

    const std::string text = TreeAutomatonToText(aut);
    auto parsed = ParseTreeAutomaton(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(TreeAutomatonToText(*parsed), text);

    EXPECT_TRUE(parsed->initial() == aut.initial());
    EXPECT_TRUE(parsed->non_first() == aut.non_first());
    for (TreeState q = 0; q < ns; ++q) {
      for (Symbol a = 0; a < na; ++a) {
        EXPECT_EQ(parsed->IsAccepting(q, a), aut.IsAccepting(q, a));
      }
    }
    // Membership goes through the freshly rebuilt successor index.
    Alphabet alpha;
    RandomTreeOptions opt;
    opt.num_nodes = 8;
    opt.num_labels = na;
    for (int i = 0; i < 3; ++i) {
      DataTree t = RandomDataTree(opt, &rng, &alpha);
      EXPECT_EQ(parsed->Accepts(t), aut.Accepts(t));
    }
  }
}

// Regression: RestrictStates must carry non-first and accepting membership
// through the renumbering even when the surviving NF state's only in-edges
// change — here its δh predecessor (state 0) is dropped, so the NF mark is
// the only thing still pinning it to second-sibling positions.
TEST(TreeAutomatonTest, RestrictStatesKeepsNonFirstWhenPredecessorDropped) {
  // Σ = {a=0, b=1}. States: 0 (dropped), 1 initial, 2 non-first + accepting,
  // 3 initial.
  TreeAutomaton aut(2, 4);
  aut.SetInitial(1);
  aut.SetInitial(3);
  aut.SetNonFirst(2);
  aut.SetAccepting(2, 1);
  aut.AddHorizontal(0, 0, 2);  // predecessor from the dropped state
  aut.AddHorizontal(1, 0, 2);  // surviving predecessor
  aut.AddVertical(2, 1, 3);

  TreeAutomaton r = aut.RestrictStates({false, true, true, true});
  ASSERT_EQ(r.num_states(), 3u);
  ASSERT_EQ(r.num_symbols(), 2u);
  // Renumbering: old 1 -> 0, old 2 -> 1, old 3 -> 2.
  EXPECT_TRUE(r.IsInitial(0));
  EXPECT_FALSE(r.IsInitial(1));
  EXPECT_TRUE(r.IsInitial(2));
  EXPECT_TRUE(r.IsNonFirst(1));
  EXPECT_FALSE(r.IsNonFirst(0));
  EXPECT_FALSE(r.IsNonFirst(2));
  EXPECT_TRUE(r.IsAccepting(1, 1));
  EXPECT_FALSE(r.IsAccepting(1, 0));
  // Only the transition whose endpoints both survive remains.
  ASSERT_EQ(r.horizontal().size(), 1u);
  EXPECT_TRUE(r.HasHorizontal(0, 0, 1));
  ASSERT_EQ(r.vertical().size(), 1u);
  EXPECT_TRUE(r.HasVertical(1, 1, 2));
}

// Trim renumbers through RestrictStates; the NF anchoring (and hence the
// language) must survive even when trimming discards states around it.
TEST(TreeAutomatonTest, TrimPreservesNonFirstSemantics) {
  TreeAutomaton aut = SingletonAbCd();
  // A useless extra state with transitions into the live part: never
  // bottom-up realizable, so Trim drops it and renumbers the rest.
  TreeState junk = aut.AddState();
  aut.AddHorizontal(junk, 0, 1);
  aut.AddVertical(junk, 1, 3);
  aut.SetNonFirst(junk);

  TreeAutomaton trimmed = aut.Trim();
  EXPECT_LT(trimmed.num_states(), aut.num_states());
  Alphabet alpha;
  for (const char* name : {"a", "b", "c", "d"}) alpha.Intern(name);
  EXPECT_TRUE(
      trimmed.Accepts(*ParseDataTree("a:0 (b:0 c:0 (d:0))", &alpha)));
  // Without the NF mark on c's state these would be accepted.
  EXPECT_FALSE(trimmed.Accepts(*ParseDataTree("a:0 (c:0 (d:0))", &alpha)));
  EXPECT_FALSE(trimmed.Accepts(*ParseDataTree("a:0 (b:0 c:0)", &alpha)));
}

TEST(TreeAutomatonTest, ConcurrentFirstLookupBuildsIndexOnce) {
  // Regression hammer for the lazy CSR build's publication seam
  // (tree_automaton.h LazyIndex): many threads race the *first* const
  // successor lookup, exactly one builds under the index mutex with a
  // release-store publish, and every reader's acquire fast path must
  // observe a fully built CSR. Run under the tsan preset this drives the
  // double-checked protocol's only interesting interleaving; in any build
  // it verifies all threads read identical successor sets.
  constexpr int kThreads = 8;
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    // A fresh automaton each round so every round races a cold index.
    TreeAutomaton aut = LeavesAreB();
    std::atomic<bool> go{false};  // atomic: start barrier; release/acquire
    std::atomic<int> sum_mismatch{0};  // atomic: relaxed error tally
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        // LeavesAreB: δh(0, b) = {0, 1}, δh(1, a) = {0, 1} (insertion
        // order), δv(0, b) = {1}.
        auto h0 = aut.HorizontalSuccessors(0, 1);
        auto h1 = aut.HorizontalSuccessors(1, 0);
        auto v = aut.VerticalSuccessors(0, 1);
        if (h0.size() != 2 || h0[0] != 0u || h0[1] != 1u ||
            h1.size() != 2 || h1[0] != 0u || h1[1] != 1u ||
            v.size() != 1 || v[0] != 1u) {
          sum_mismatch.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();
    ASSERT_EQ(sum_mismatch.load(std::memory_order_relaxed), 0)
        << "round " << round;
  }
}

TEST(TreeAutomatonTest, AcceptingRunStatesRootRestricted) {
  TreeAutomaton aut = LeavesAreB();
  Alphabet alpha;
  alpha.Intern("a");
  alpha.Intern("b");
  DataTree t = T("a:0 (b:0 b:0)", &alpha);
  auto sets = aut.AcceptingRunStates(t);
  ASSERT_TRUE(sets.ok());
  ASSERT_EQ((*sets)[t.root()].size(), 1u);
  EXPECT_EQ((*sets)[t.root()].front(), 1u);
}

// Accepts() and AcceptingRunStates() share one propagation; check both
// against the definition — some run passes IsAcceptingRun — by trying every
// run on small random trees of random automata with non-first states.
TEST(TreeAutomatonTest, AcceptsMatchesExhaustiveRunSearch) {
  RandomSource rng(1304);
  Alphabet alpha;
  size_t accepted = 0;
  size_t rejected = 0;
  for (int iter = 0; iter < 25; ++iter) {
    const size_t ns = static_cast<size_t>(rng.UniformInt(1, 4));
    const size_t na = static_cast<size_t>(rng.UniformInt(1, 3));
    TreeAutomaton aut(na, ns);
    const int64_t edges =
        rng.UniformInt(0, static_cast<int64_t>(2 * ns * ns * na));
    for (int64_t e = 0; e < edges; ++e) {
      const auto from = static_cast<TreeState>(
          rng.UniformInt(0, static_cast<int64_t>(ns) - 1));
      const auto sym = static_cast<Symbol>(
          rng.UniformInt(0, static_cast<int64_t>(na) - 1));
      const auto to = static_cast<TreeState>(
          rng.UniformInt(0, static_cast<int64_t>(ns) - 1));
      if (rng.Bernoulli(0.5)) {
        aut.AddHorizontal(from, sym, to);
      } else {
        aut.AddVertical(from, sym, to);
      }
    }
    for (TreeState q = 0; q < ns; ++q) {
      if (rng.Bernoulli(0.5)) aut.SetInitial(q);
      if (rng.Bernoulli(0.3)) aut.SetNonFirst(q);
      for (Symbol a = 0; a < na; ++a) {
        if (rng.Bernoulli(0.4)) aut.SetAccepting(q, a);
      }
    }
    RandomTreeOptions opt;
    opt.num_labels = na;
    opt.max_children = 3;
    for (int i = 0; i < 20; ++i) {
      opt.num_nodes = static_cast<size_t>(rng.UniformInt(1, 5));
      DataTree t = RandomDataTree(opt, &rng, &alpha);
      bool some_run = false;
      TreeRun run(t.size(), 0);
      for (;;) {  // odometer over every run
        if (aut.IsAcceptingRun(t, run)) {
          some_run = true;
          break;
        }
        size_t v = 0;
        while (v < run.size() && ++run[v] == ns) run[v++] = 0;
        if (v == run.size()) break;
      }
      EXPECT_EQ(aut.Accepts(t), some_run) << DataTreeToText(t, alpha);
      EXPECT_EQ(aut.AcceptingRunStates(t).ok(), some_run);
      (some_run ? accepted : rejected) += 1;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace fo2dt
