/// \file tree_automaton.h
/// \brief Nondeterministic automata over unranked trees, in the paper's
/// hedge style (Section III; also [7], [17]).
///
/// An automaton has states Q and two transition relations
///   δh, δv ⊆ Q × Σ × Q.
/// A run labels every node with a state such that for a node v with label a:
///   * if v has a horizontal successor w, then (ρ(v), a, ρ(w)) ∈ δh;
///   * if v has no horizontal successor and parent w, then (ρ(v), a, ρ(w)) ∈ δv.
/// A run accepts when every leaf carries an initial state from I and the
/// root's (state, label) pair is in F ⊆ Q × Σ.
///
/// Note on the acceptance conditions: the conference paper's wording
/// restricts the initial-state requirement to leaves "without horizontal
/// predecessors". Under that literal reading the model is closed under
/// deleting the subtree below any non-first sibling (such a node's
/// from-below constraint simply disappears), so it could not even express
/// "every leaf is labeled c" — contradicting Fact 1 (equivalence with
/// regular tree languages). We therefore implement two strengthened — and
/// still strictly local, hence EMSO²(+1)-definable — conditions:
///   * every leaf carries an initial state from I, and
///   * a node whose state lies in the designated *non-first* set NF must
///     have a horizontal predecessor.
/// The NF set lets constructions anchor per-siblinghood start conditions
/// (e.g. the start state of a DTD content-model DFA); with both conditions
/// the model recognizes exactly the regular unranked tree languages, like
/// the standard automata of [7], [17] that the paper cites.
///
/// State thus threads left-to-right through each siblinghood and up from the
/// last child into its parent — the shape that makes the translation to
/// EMSO2(+1) (Fact 1) immediate, and that the LCTA layer (Theorem 2) counts
/// over.
///
/// Representation: the state sets are bitsets (I and NF over Q, F as a
/// Q × Σ bit-matrix) and successor lookup goes through a CSR-style
/// offset+payload index rebuilt lazily after mutation — membership tests and
/// successor-range fetches are O(1), with no node-based containers on the
/// solve path. Iteration over every set and view below visits elements in
/// ascending order, exactly the order the previous `std::set` members
/// produced, so the canonical `automaton_io` text (and the FNV-1a solve-cache
/// keys derived from it) is byte-identical across the representation change.

#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/annotations.h"
#include "common/bitset.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/symbol.h"
#include "datatree/data_tree.h"

namespace fo2dt {

/// \brief State id in a tree automaton.
using TreeState = uint32_t;

/// \brief A run of a tree automaton: state per node, indexed by NodeId.
using TreeRun = std::vector<TreeState>;

/// \brief Contiguous successor range of one (state, symbol) key.
struct StateSpan {
  const TreeState* ptr = nullptr;
  size_t len = 0;

  const TreeState* begin() const { return ptr; }
  const TreeState* end() const { return ptr + len; }
  size_t size() const { return len; }
  bool empty() const { return len == 0; }
  TreeState operator[](size_t i) const { return ptr[i]; }
};

/// \brief Read view over the accepting bit-matrix as sorted (state, symbol)
/// pairs — the iteration shape the old `std::set<std::pair<...>>` exposed.
class AcceptingView {
 public:
  AcceptingView(const Bitset* bits, size_t num_symbols)
      : bits_(bits), num_symbols_(num_symbols) {}

  size_t size() const { return bits_->size(); }
  bool empty() const { return bits_->empty(); }

  class const_iterator {
   public:
    const_iterator(Bitset::const_iterator it, size_t num_symbols)
        : it_(it), num_symbols_(num_symbols) {}

    std::pair<TreeState, Symbol> operator*() const {
      const uint32_t cell = *it_;
      return {static_cast<TreeState>(cell / num_symbols_),
              static_cast<Symbol>(cell % num_symbols_)};
    }
    const_iterator& operator++() {
      ++it_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.it_ == b.it_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return !(a == b);
    }

   private:
    Bitset::const_iterator it_;
    size_t num_symbols_;
  };

  const_iterator begin() const {
    return const_iterator(bits_->begin(), num_symbols_);
  }
  const_iterator end() const {
    return const_iterator(bits_->end(), num_symbols_);
  }

 private:
  const Bitset* bits_;
  size_t num_symbols_;
};

/// \brief Nondeterministic unranked tree automaton (hedge style).
class TreeAutomaton {
 public:
  /// An automaton over \p num_symbols labels with \p num_states states.
  TreeAutomaton(size_t num_symbols, size_t num_states);
  /// Empty automaton (no symbols, no states; empty language).
  TreeAutomaton() : TreeAutomaton(0, 0) {}

  size_t num_states() const { return num_states_; }
  size_t num_symbols() const { return num_symbols_; }

  /// Adds a fresh state and returns its id.
  TreeState AddState();

  void AddHorizontal(TreeState from, Symbol a, TreeState to);
  void AddVertical(TreeState from, Symbol a, TreeState to);
  void SetInitial(TreeState q);
  void SetAccepting(TreeState q, Symbol a);
  /// Marks \p q as non-first: nodes carrying it must have a horizontal
  /// predecessor (see the header note).
  void SetNonFirst(TreeState q);

  bool HasHorizontal(TreeState from, Symbol a, TreeState to) const;
  bool HasVertical(TreeState from, Symbol a, TreeState to) const;
  bool IsInitial(TreeState q) const { return initial_.Contains(q); }
  bool IsNonFirst(TreeState q) const { return non_first_.Contains(q); }
  bool IsAccepting(TreeState q, Symbol a) const;

  const Bitset& initial() const { return initial_; }
  const Bitset& non_first() const { return non_first_; }
  AcceptingView accepting() const {
    return AcceptingView(&accepting_, num_symbols_);
  }
  /// All horizontal transitions as (from, symbol, to) triples.
  const std::vector<std::tuple<TreeState, Symbol, TreeState>>& horizontal()
      const {
    return horizontal_list_;
  }
  const std::vector<std::tuple<TreeState, Symbol, TreeState>>& vertical()
      const {
    return vertical_list_;
  }

  /// Horizontal successors of (q, a), in insertion order. The returned span
  /// points into the CSR index: valid until the next mutation.
  StateSpan HorizontalSuccessors(TreeState q, Symbol a) const;
  /// Vertical successors of (q, a); same contract.
  StateSpan VerticalSuccessors(TreeState q, Symbol a) const;

  /// Whether \p run is an accepting run on \p t (labels read from t).
  bool IsAcceptingRun(const DataTree& t, const TreeRun& run) const;

  /// Whether the automaton accepts (the data erasure of) \p t. Runs the
  /// AcceptingRunStates propagation without building its result.
  bool Accepts(const DataTree& t) const;

  /// An accepting run on \p t, or NotFound if none exists.
  Result<TreeRun> FindAcceptingRun(const DataTree& t) const;

  /// All states each node can take in *some* accepting run ("run sets"),
  /// ascending per node, or NotFound if the tree is rejected. Used by
  /// type-annotation layers.
  Result<std::vector<std::vector<TreeState>>> AcceptingRunStates(
      const DataTree& t) const;

  /// True when L(A) = ∅.
  bool IsEmpty() const;

  /// A member of L(A) (labels only; data values are all zero), or NotFound
  /// when empty. The witness is minimal in derivation depth, not necessarily
  /// in node count.
  Result<DataTree> FindWitnessTree() const;

  /// Product automaton: accepts L(a) ∩ L(b). Both must share the alphabet.
  static Result<TreeAutomaton> Intersect(const TreeAutomaton& a,
                                         const TreeAutomaton& b);

  /// Disjoint union: accepts L(a) ∪ L(b). Both must share the alphabet.
  static Result<TreeAutomaton> Union(const TreeAutomaton& a,
                                     const TreeAutomaton& b);

  /// The sub-automaton induced by the states with keep[q] true, with ids
  /// renumbered consecutively in ascending order of the surviving states.
  /// Transitions touching a dropped state are dropped; initial, non-first
  /// and accepting membership of every surviving state is preserved under
  /// the renumbering. \p keep must have size num_states().
  TreeAutomaton RestrictStates(const std::vector<bool>& keep) const;

  /// Removes states that cannot occur in any accepting run (not bottom-up
  /// realizable, or not co-reachable from an accepting root) and remaps ids.
  /// The language is unchanged; constructions like DtdToTreeAutomaton shed
  /// most of their states here.
  TreeAutomaton Trim() const;

  /// The automaton accepting every tree over the alphabet (one state).
  static TreeAutomaton Universal(size_t num_symbols);

  /// The automaton accepting exactly the trees all of whose labels come from
  /// \p allowed.
  static TreeAutomaton LabelFilter(size_t num_symbols,
                                   const std::vector<bool>& allowed);

  std::string ToString(const Alphabet& alphabet) const;

 private:
  // Dense key for (state, symbol).
  size_t Key(TreeState q, Symbol a) const { return q * num_symbols_ + a; }

  // CSR successor index over one transition list: targets for key k live at
  // targets[offsets[k] .. offsets[k+1]), in list insertion order.
  struct Csr {
    std::vector<uint32_t> offsets;
    std::vector<TreeState> targets;
  };

  // Lazily (re)built successor index. Copies and moves deliberately drop the
  // built index instead of cloning it — the copy rebuilds on first query —
  // which keeps TreeAutomaton cheaply copyable and the mutex per instance.
  // Concurrent *queries* on a built index are safe (double-checked atomic);
  // mutation is single-threaded, as it always was.
  //
  // Publication protocol (the seam the thread-safety annotations cannot
  // express, hence the FO2DT_NO_THREAD_SAFETY_ANALYSIS on EnsureIndex):
  //   1. fast path: acquire-load of fresh; true pairs with the builder's
  //      release-store, so the CSR vectors built before it are visible;
  //   2. slow path: lock mu, relaxed re-check (the lock orders us after any
  //      concurrent builder), build both CSRs under mu, then release-store
  //      fresh = true — the only store of fresh while readers are allowed.
  // Readers then access horizontal/vertical WITHOUT mu: safe because the
  // data is immutable from publication until the next single-threaded
  // mutation (InvalidateIndex), and tree_automaton_test hammers exactly
  // this first-build race under tsan.
  struct LazyIndex {
    LazyIndex() = default;
    LazyIndex(const LazyIndex&) {}
    LazyIndex(LazyIndex&&) noexcept {}
    LazyIndex& operator=(const LazyIndex&) {
      fresh.store(false, std::memory_order_relaxed);
      return *this;
    }
    LazyIndex& operator=(LazyIndex&&) noexcept {
      fresh.store(false, std::memory_order_relaxed);
      return *this;
    }

    Mutex mu{names::kLockAutomataCsr};
    // atomic: freshness flag — release-store after build under mu,
    // acquire-load on the reader fast path (see the protocol above).
    std::atomic<bool> fresh{false};
    Csr horizontal;  // written under mu, read lock-free after publication
    Csr vertical;
  };

  void EnsureIndex() const FO2DT_NO_THREAD_SAFETY_ANALYSIS;
  void BuildCsr(
      const std::vector<std::tuple<TreeState, Symbol, TreeState>>& list,
      Csr* csr) const;
  void InvalidateIndex() {
    index_.fresh.store(false, std::memory_order_relaxed);
  }

  size_t num_symbols_;
  size_t num_states_;
  std::vector<std::tuple<TreeState, Symbol, TreeState>> horizontal_list_;
  std::vector<std::tuple<TreeState, Symbol, TreeState>> vertical_list_;
  std::unordered_set<uint64_t> horizontal_set_;
  std::unordered_set<uint64_t> vertical_set_;
  Bitset initial_;
  Bitset non_first_;
  Bitset accepting_;  // bit-matrix, cell = Key(q, a)
  mutable LazyIndex index_;
};

}  // namespace fo2dt
