#include "automata/tree_automaton.h"

#include <algorithm>
#include <cassert>

#include "common/arena.h"
#include "common/strings.h"

namespace fo2dt {

namespace {
// 64-bit key for (from, symbol, to) triples used by the has-transition sets.
uint64_t TripleKey(TreeState from, Symbol a, TreeState to) {
  return (static_cast<uint64_t>(from) << 42) ^
         (static_cast<uint64_t>(a) << 21) ^ static_cast<uint64_t>(to);
}
}  // namespace

TreeAutomaton::TreeAutomaton(size_t num_symbols, size_t num_states)
    : num_symbols_(num_symbols), num_states_(num_states) {}

TreeState TreeAutomaton::AddState() {
  ++num_states_;
  InvalidateIndex();  // the CSR offset table is sized by |Q|·|Σ| cells
  return static_cast<TreeState>(num_states_ - 1);
}

void TreeAutomaton::AddHorizontal(TreeState from, Symbol a, TreeState to) {
  if (!horizontal_set_.insert(TripleKey(from, a, to)).second) return;
  horizontal_list_.emplace_back(from, a, to);
  InvalidateIndex();
}

void TreeAutomaton::AddVertical(TreeState from, Symbol a, TreeState to) {
  if (!vertical_set_.insert(TripleKey(from, a, to)).second) return;
  vertical_list_.emplace_back(from, a, to);
  InvalidateIndex();
}

void TreeAutomaton::SetInitial(TreeState q) { initial_.Insert(q); }

void TreeAutomaton::SetNonFirst(TreeState q) { non_first_.Insert(q); }

void TreeAutomaton::SetAccepting(TreeState q, Symbol a) {
  accepting_.Insert(static_cast<uint32_t>(Key(q, a)));
}

bool TreeAutomaton::HasHorizontal(TreeState from, Symbol a, TreeState to) const {
  return horizontal_set_.count(TripleKey(from, a, to)) > 0;
}

bool TreeAutomaton::HasVertical(TreeState from, Symbol a, TreeState to) const {
  return vertical_set_.count(TripleKey(from, a, to)) > 0;
}

bool TreeAutomaton::IsAccepting(TreeState q, Symbol a) const {
  return accepting_.Contains(static_cast<uint32_t>(Key(q, a)));
}

void TreeAutomaton::BuildCsr(
    const std::vector<std::tuple<TreeState, Symbol, TreeState>>& list,
    Csr* csr) const {
  const size_t cells = num_states_ * num_symbols_;
  csr->offsets.assign(cells + 1, 0);
  for (const auto& [f, a, to] : list) {
    (void)to;
    ++csr->offsets[Key(f, a) + 1];
  }
  for (size_t k = 0; k < cells; ++k) csr->offsets[k + 1] += csr->offsets[k];
  csr->targets.resize(list.size());
  // Stable counting sort: per-key insertion order is preserved, so witness
  // extraction walks successors in exactly the order AddHorizontal saw them.
  std::vector<uint32_t> cursor(csr->offsets.begin(), csr->offsets.end() - 1);
  for (const auto& [f, a, to] : list) csr->targets[cursor[Key(f, a)]++] = to;
}

// Double-checked publication; see the LazyIndex protocol comment in the
// header. Analysis is opted out because the reader side legitimately
// accesses the CSR vectors without holding mu once fresh is published.
void TreeAutomaton::EnsureIndex() const {
  // Fast path: acquire pairs with the release-store below, publishing the
  // built vectors to this thread.
  if (index_.fresh.load(std::memory_order_acquire)) return;
  ScopedRankedLock lock(index_.mu);
  // Relaxed is sufficient under mu: the lock's own ordering makes a
  // concurrent builder's writes (data AND flag) visible here.
  if (index_.fresh.load(std::memory_order_relaxed)) return;
  BuildCsr(horizontal_list_, &index_.horizontal);
  BuildCsr(vertical_list_, &index_.vertical);
  // Release: every CSR write above happens-before any reader's acquire.
  index_.fresh.store(true, std::memory_order_release);
  assert(index_.fresh.load(std::memory_order_relaxed));
}

StateSpan TreeAutomaton::HorizontalSuccessors(TreeState q, Symbol a) const {
  EnsureIndex();
  const Csr& c = index_.horizontal;
  const size_t k = Key(q, a);
  return {c.targets.data() + c.offsets[k], c.offsets[k + 1] - c.offsets[k]};
}

StateSpan TreeAutomaton::VerticalSuccessors(TreeState q, Symbol a) const {
  EnsureIndex();
  const Csr& c = index_.vertical;
  const size_t k = Key(q, a);
  return {c.targets.data() + c.offsets[k], c.offsets[k + 1] - c.offsets[k]};
}

bool TreeAutomaton::IsAcceptingRun(const DataTree& t, const TreeRun& run) const {
  if (t.empty()) return false;
  if (run.size() != t.size()) return false;
  for (NodeId v = 0; v < t.size(); ++v) {
    if (run[v] >= num_states_) return false;
    NodeId next = t.next_sibling(v);
    if (next != kNoNode) {
      if (!HasHorizontal(run[v], t.label(v), run[next])) return false;
    } else if (t.parent(v) != kNoNode) {
      if (!HasVertical(run[v], t.label(v), run[t.parent(v)])) return false;
    }
    // Every leaf must carry an initial state (see header note).
    if (t.first_child(v) == kNoNode && !IsInitial(run[v])) return false;
    // Non-first states require a horizontal predecessor.
    if (t.prev_sibling(v) == kNoNode && IsNonFirst(run[v])) return false;
  }
  return IsAccepting(run[t.root()], t.label(t.root()));
}

namespace {

/// Copies a Bitset into a \p ws-word arena row (padding with zeros).
void CopyMask(const Bitset& set, uint64_t* row, size_t ws) {
  const std::vector<uint64_t>& words = set.words();
  const size_t n = words.size() < ws ? words.size() : ws;
  for (size_t w = 0; w < n; ++w) row[w] = words[w];
}

/// How the run-state propagation ended.
enum class RunCheck { kNodeWithoutState, kRootRejected, kAccepted };

// Computes, for each node v, the set P(v) of states consistent with v's
// subtree and with v's left siblings (and their subtrees), into \p p: one
// zeroed \p ws-word row per node. Nodes are visited in post-order over the
// first_child / next_sibling links; the scratch rows come from the caller's
// arena frame, so nothing is allocated per node. On success the root's row
// is restricted to accepting states. (Callers wanting exact per-node
// accepting-run state sets should use a downward pass; for type assignment
// under unambiguous schemas P(v) is already exact.)
RunCheck PropagateRunStates(const TreeAutomaton& a, const DataTree& t,
                            uint64_t* p, size_t ws, SolveArena& arena) {
  uint64_t* base = arena.AllocateArray<uint64_t>(ws);
  uint64_t* step = arena.AllocateArray<uint64_t>(ws);
  uint64_t* init_mask = arena.AllocateArray<uint64_t>(ws);
  uint64_t* nf_mask = arena.AllocateArray<uint64_t>(ws);
  CopyMask(a.initial(), init_mask, ws);
  CopyMask(a.non_first(), nf_mask, ws);

  auto propagate = [&](NodeId v) {
    // Base constraint: leaves take initial states; internal nodes take
    // δv-successors of their last child.
    if (t.first_child(v) == kNoNode) {
      std::copy(init_mask, init_mask + ws, base);
    } else {
      std::fill(base, base + ws, uint64_t{0});
      const NodeId lc = t.last_child(v);
      const Symbol la = t.label(lc);
      ForEachSetBit(p + size_t{lc} * ws, ws, [&](uint32_t q) {
        for (TreeState r : a.VerticalSuccessors(q, la)) {
          base[r / 64] |= uint64_t{1} << (r % 64);
        }
      });
    }
    uint64_t* row = p + size_t{v} * ws;
    const NodeId prev = t.prev_sibling(v);
    uint64_t any = 0;
    if (prev == kNoNode) {
      // First siblings cannot use non-first states.
      for (size_t w = 0; w < ws; ++w) {
        row[w] = base[w] & ~nf_mask[w];
        any |= row[w];
      }
    } else {
      std::fill(step, step + ws, uint64_t{0});
      const Symbol pa = t.label(prev);
      ForEachSetBit(p + size_t{prev} * ws, ws, [&](uint32_t q) {
        for (TreeState r : a.HorizontalSuccessors(q, pa)) {
          step[r / 64] |= uint64_t{1} << (r % 64);
        }
      });
      for (size_t w = 0; w < ws; ++w) {
        row[w] = step[w] & base[w];
        any |= row[w];
      }
    }
    return any != 0;
  };

  // Post-order: children before parent, siblings left to right.
  NodeId v = t.root();
  while (t.first_child(v) != kNoNode) v = t.first_child(v);
  for (;;) {
    if (!propagate(v)) return RunCheck::kNodeWithoutState;
    if (v == t.root()) break;
    if (t.next_sibling(v) == kNoNode) {
      v = t.parent(v);
      continue;
    }
    v = t.next_sibling(v);
    while (t.first_child(v) != kNoNode) v = t.first_child(v);
  }

  uint64_t* root_row = p + size_t{t.root()} * ws;
  const Symbol root_label = t.label(t.root());
  ForEachSetBit(root_row, ws, [&](uint32_t q) {
    if (!a.IsAccepting(q, root_label)) {
      root_row[q / 64] &= ~(uint64_t{1} << (q % 64));
    }
  });
  uint64_t root_any = 0;
  for (size_t w = 0; w < ws; ++w) root_any |= root_row[w];
  return root_any != 0 ? RunCheck::kAccepted : RunCheck::kRootRejected;
}

}  // namespace

Result<std::vector<std::vector<TreeState>>> TreeAutomaton::AcceptingRunStates(
    const DataTree& t) const {
  if (t.empty()) return Status::InvalidArgument("empty tree has no runs");
  EnsureIndex();
  const size_t ws = (num_states_ + 63) / 64;
  SolveArena& arena = SolveArena::ThreadLocal();
  SolveArena::Frame frame(arena);
  uint64_t* p = arena.AllocateArray<uint64_t>(t.size() * ws);
  switch (PropagateRunStates(*this, t, p, ws, arena)) {
    case RunCheck::kNodeWithoutState:
      return Status::NotFound("tree admits no run");
    case RunCheck::kRootRejected:
      return Status::NotFound("no accepting run");
    case RunCheck::kAccepted:
      break;
  }
  std::vector<std::vector<TreeState>> out(t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    ForEachSetBit(p + size_t{v} * ws, ws,
                  [&](uint32_t q) { out[v].push_back(q); });
  }
  return out;
}

bool TreeAutomaton::Accepts(const DataTree& t) const {
  if (t.empty()) return false;
  EnsureIndex();
  const size_t ws = (num_states_ + 63) / 64;
  SolveArena& arena = SolveArena::ThreadLocal();
  SolveArena::Frame frame(arena);
  uint64_t* p = arena.AllocateArray<uint64_t>(t.size() * ws);
  return PropagateRunStates(*this, t, p, ws, arena) == RunCheck::kAccepted;
}

Result<TreeRun> TreeAutomaton::FindAcceptingRun(const DataTree& t) const {
  FO2DT_ASSIGN_OR_RETURN(std::vector<std::vector<TreeState>> p,
                         AcceptingRunStates(t));
  TreeRun run(t.size(), 0);
  // Assign the root, then per siblinghood choose states right-to-left; the
  // construction of P guarantees every choice extends leftward.
  run[t.root()] = p[t.root()].front();
  std::vector<NodeId> work = {t.root()};
  while (!work.empty()) {
    NodeId v = work.back();
    work.pop_back();
    if (t.first_child(v) == kNoNode) continue;
    std::vector<NodeId> kids = t.Children(v);
    // Choose the last child: must δv-step into run[v].
    TreeState target = run[v];
    NodeId lc = kids.back();
    TreeState chosen = static_cast<TreeState>(num_states_);
    for (TreeState q : p[lc]) {
      if (HasVertical(q, t.label(lc), target)) {
        chosen = q;
        break;
      }
    }
    if (chosen == num_states_) {
      return Status::Internal("run extraction failed at vertical step");
    }
    run[lc] = chosen;
    // Walk left through the siblinghood.
    for (size_t i = kids.size() - 1; i-- > 0;) {
      NodeId cur = kids[i];
      TreeState next_state = run[kids[i + 1]];
      TreeState pick = static_cast<TreeState>(num_states_);
      for (TreeState q : p[cur]) {
        if (HasHorizontal(q, t.label(cur), next_state)) {
          pick = q;
          break;
        }
      }
      if (pick == num_states_) {
        return Status::Internal("run extraction failed at horizontal step");
      }
      run[cur] = pick;
    }
    for (NodeId c : kids) work.push_back(c);
  }
  return run;
}

Result<DataTree> TreeAutomaton::FindWitnessTree() const {
  // Least-fixpoint reachability with explicit derivations.
  //   S(q, a): a node with state q and label a is realizable at some chain
  //            position (with a fully consistent subtree and left context);
  //   U(q):    q is realizable as the state of a node with children (some
  //            realizable last child δv-steps into q).
  // Rules:
  //   (q, a) ∈ S for all a,  if q ∈ (I ∪ U) \ NF          (first position)
  //   (q',a') ∈ S for all a', if (q,a) ∈ S, (q,a,q') ∈ δh, q' ∈ I ∪ U
  //   q' ∈ U                  if (q,a) ∈ S, (q,a,q') ∈ δv
  // Nonempty iff some (q, a) ∈ F has q ∈ (I ∪ U) \ NF.
  const size_t ns = num_states_;
  const size_t na = num_symbols_;
  if (ns == 0 || na == 0) return Status::NotFound("tree automaton is empty");
  EnsureIndex();

  struct SPairInfo {
    enum Kind { kFirstLeaf, kFirstUp, kStepLeaf, kStepUp } kind = kFirstLeaf;
    TreeState prev_q = 0;  // for kStep*: predecessor pair in the chain
    Symbol prev_a = 0;
  };
  struct UpInfo {
    TreeState last_q = 0;  // last child pair producing this state
    Symbol last_a = 0;
  };
  SolveArena& arena = SolveArena::ThreadLocal();
  SolveArena::Frame frame(arena);
  char* in_s = arena.AllocateArray<char>(ns * na);
  SPairInfo* s_info = arena.AllocateArray<SPairInfo>(ns * na);
  char* in_u = arena.AllocateArray<char>(ns);
  UpInfo* u_info = arena.AllocateArray<UpInfo>(ns);
  auto key = [na](TreeState q, Symbol a) { return q * na + a; };

  auto add_s = [&](TreeState q, Symbol a, SPairInfo info) {
    size_t k = key(q, a);
    if (in_s[k]) return false;
    in_s[k] = 1;
    s_info[k] = info;
    return true;
  };

  // Naive saturation sweeps; the sets only grow and are small (|Q|·|Σ|).
  for (TreeState q : initial_) {
    if (!IsNonFirst(q)) {
      for (Symbol a = 0; a < na; ++a) {
        add_s(q, a, SPairInfo{SPairInfo::kFirstLeaf, 0, 0});
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (TreeState q = 0; q < ns; ++q) {
      for (Symbol a = 0; a < na; ++a) {
        if (!in_s[key(q, a)]) continue;
        // δv: parent becomes realizable-with-children.
        for (TreeState r : VerticalSuccessors(q, a)) {
          if (!in_u[r]) {
            in_u[r] = 1;
            u_info[r] = UpInfo{q, a};
            changed = true;
            if (!IsNonFirst(r)) {
              for (Symbol b = 0; b < na; ++b) {
                changed |= add_s(r, b, SPairInfo{SPairInfo::kFirstUp, 0, 0});
              }
            }
          }
        }
        // δh: extend the chain; the successor is a leaf (I) or has
        // children (U).
        for (TreeState r : HorizontalSuccessors(q, a)) {
          if (IsInitial(r)) {
            for (Symbol b = 0; b < na; ++b) {
              changed |= add_s(r, b, SPairInfo{SPairInfo::kStepLeaf, q, a});
            }
          }
          if (in_u[r]) {
            for (Symbol b = 0; b < na; ++b) {
              changed |= add_s(r, b, SPairInfo{SPairInfo::kStepUp, q, a});
            }
          }
        }
      }
    }
  }

  // Root choice: leaf roots give smaller witnesses; prefer them. The pick is
  // stored by value — accepting() yields proxy pairs, not set references.
  std::pair<TreeState, Symbol> pick{0, 0};
  bool have_pick = false;
  bool pick_leaf = false;
  for (const auto& [q, a] : accepting()) {
    if (IsNonFirst(q)) continue;
    if (IsInitial(q)) {
      pick = {q, a};
      have_pick = true;
      pick_leaf = true;
      break;
    }
    if (in_u[q] && !have_pick) {
      pick = {q, a};
      have_pick = true;
    }
  }
  if (!have_pick) {
    return Status::NotFound("tree automaton language is empty");
  }

  DataTree t;
  (void)t.CreateRoot(pick.second, 0);
  // Expand internal nodes by unrolling chain derivations. Task: realize the
  // children of `parent` so the last child is the pair (last_q, last_a).
  struct Task {
    NodeId parent;
    TreeState last_q;
    Symbol last_a;
  };
  std::vector<Task> tasks;
  if (!pick_leaf) {
    tasks.push_back(
        {t.root(), u_info[pick.first].last_q, u_info[pick.first].last_a});
  }
  while (!tasks.empty()) {
    Task task = tasks.back();
    tasks.pop_back();
    // Walk the chain derivation backwards to its first element.
    std::vector<std::pair<TreeState, Symbol>> chain;
    TreeState q = task.last_q;
    Symbol a = task.last_a;
    for (;;) {
      chain.emplace_back(q, a);
      const SPairInfo& info = s_info[key(q, a)];
      if (info.kind == SPairInfo::kFirstLeaf ||
          info.kind == SPairInfo::kFirstUp) {
        break;
      }
      q = info.prev_q;
      a = info.prev_a;
    }
    std::reverse(chain.begin(), chain.end());
    for (const auto& [cq, ca] : chain) {
      NodeId child = t.AppendChild(task.parent, ca, 0).value();
      const SPairInfo& info = s_info[key(cq, ca)];
      if (info.kind == SPairInfo::kFirstUp || info.kind == SPairInfo::kStepUp) {
        tasks.push_back({child, u_info[cq].last_q, u_info[cq].last_a});
      }
    }
  }
  return t;
}

bool TreeAutomaton::IsEmpty() const { return !FindWitnessTree().ok(); }

Result<TreeAutomaton> TreeAutomaton::Intersect(const TreeAutomaton& a,
                                               const TreeAutomaton& b) {
  if (a.num_symbols() != b.num_symbols()) {
    return Status::InvalidArgument("product requires matching alphabets");
  }
  b.EnsureIndex();
  const size_t nb = b.num_states();
  TreeAutomaton out(a.num_symbols(), a.num_states() * nb);
  auto pair_id = [nb](TreeState qa, TreeState qb) {
    return static_cast<TreeState>(qa * nb + qb);
  };
  for (const auto& [fa, sym, ta] : a.horizontal_list_) {
    for (TreeState fb = 0; fb < nb; ++fb) {
      for (TreeState tb : b.HorizontalSuccessors(fb, sym)) {
        out.AddHorizontal(pair_id(fa, fb), sym, pair_id(ta, tb));
      }
    }
  }
  for (const auto& [fa, sym, ta] : a.vertical_list_) {
    for (TreeState fb = 0; fb < nb; ++fb) {
      for (TreeState tb : b.VerticalSuccessors(fb, sym)) {
        out.AddVertical(pair_id(fa, fb), sym, pair_id(ta, tb));
      }
    }
  }
  for (TreeState qa : a.initial_) {
    for (TreeState qb : b.initial_) out.SetInitial(pair_id(qa, qb));
  }
  for (const auto& [qa, sym] : a.accepting()) {
    for (const auto& [qb, sym2] : b.accepting()) {
      if (sym == sym2) out.SetAccepting(pair_id(qa, qb), sym);
    }
  }
  // A pair state demands a horizontal predecessor when either component does.
  for (TreeState qa = 0; qa < a.num_states(); ++qa) {
    for (TreeState qb = 0; qb < nb; ++qb) {
      if (a.IsNonFirst(qa) || b.IsNonFirst(qb)) {
        out.SetNonFirst(pair_id(qa, qb));
      }
    }
  }
  return out;
}

Result<TreeAutomaton> TreeAutomaton::Union(const TreeAutomaton& a,
                                           const TreeAutomaton& b) {
  if (a.num_symbols() != b.num_symbols()) {
    return Status::InvalidArgument("union requires matching alphabets");
  }
  const TreeState off = static_cast<TreeState>(a.num_states());
  TreeAutomaton out(a.num_symbols(), a.num_states() + b.num_states());
  for (const auto& [f, sym, to] : a.horizontal_list_) {
    out.AddHorizontal(f, sym, to);
  }
  for (const auto& [f, sym, to] : a.vertical_list_) out.AddVertical(f, sym, to);
  for (const auto& [f, sym, to] : b.horizontal_list_) {
    out.AddHorizontal(f + off, sym, to + off);
  }
  for (const auto& [f, sym, to] : b.vertical_list_) {
    out.AddVertical(f + off, sym, to + off);
  }
  for (TreeState q : a.initial_) out.SetInitial(q);
  for (TreeState q : b.initial_) out.SetInitial(q + off);
  for (TreeState q : a.non_first_) out.SetNonFirst(q);
  for (TreeState q : b.non_first_) out.SetNonFirst(q + off);
  for (const auto& [q, sym] : a.accepting()) out.SetAccepting(q, sym);
  for (const auto& [q, sym] : b.accepting()) out.SetAccepting(q + off, sym);
  return out;
}

TreeAutomaton TreeAutomaton::RestrictStates(const std::vector<bool>& keep) const {
  const size_t ns = num_states_;
  std::vector<TreeState> remap(ns, 0);
  TreeState next = 0;
  for (TreeState q = 0; q < ns; ++q) {
    if (keep[q]) remap[q] = next++;
  }
  TreeAutomaton out(num_symbols_, next);
  for (const auto& [f, a, to] : horizontal_list_) {
    if (keep[f] && keep[to]) out.AddHorizontal(remap[f], a, remap[to]);
  }
  for (const auto& [f, a, to] : vertical_list_) {
    if (keep[f] && keep[to]) out.AddVertical(remap[f], a, remap[to]);
  }
  // Membership of every surviving state travels with it under the
  // renumbering — in particular a surviving NF state stays NF even when the
  // δh-predecessor that used to reach it was dropped (it then simply has no
  // legal position, which Trim's next round or emptiness checking surfaces).
  for (TreeState q : initial_) {
    if (keep[q]) out.SetInitial(remap[q]);
  }
  for (TreeState q : non_first_) {
    if (keep[q]) out.SetNonFirst(remap[q]);
  }
  for (const auto& [q, a] : accepting()) {
    if (keep[q]) out.SetAccepting(remap[q], a);
  }
  return out;
}

TreeAutomaton TreeAutomaton::Trim() const {
  // Bottom-up realizability: the S/U fixpoint of FindWitnessTree. A state is
  // occupiable when it can sit on an actual node (leaf via I, or via δv from
  // a realizable last child, possibly after δh steps).
  const size_t ns = num_states_;
  const size_t na = num_symbols_;
  EnsureIndex();
  std::vector<char> in_s(ns, 0);  // occupiable at some position (any label)
  std::vector<char> in_u(ns, 0);  // occupiable with children
  for (TreeState q : initial_) in_s[q] = 1;  // leaves fit anywhere w.r.t. NF?
  // Note: NF only restricts first positions; for occupiability we track the
  // weaker "fits at some position", which needs either ¬NF (first) or a δh
  // predecessor. We approximate from above (keep possibly-useless states
  // rather than drop needed ones): every I or U state counts as occupiable.
  bool changed = true;
  while (changed) {
    changed = false;
    for (TreeState q = 0; q < ns; ++q) {
      if (!in_s[q]) continue;
      for (Symbol a = 0; a < na; ++a) {
        for (TreeState r : VerticalSuccessors(q, a)) {
          if (!in_u[r]) {
            in_u[r] = 1;
            changed = true;
          }
          if (!in_s[r]) {
            in_s[r] = 1;
            changed = true;
          }
        }
        for (TreeState r : HorizontalSuccessors(q, a)) {
          if ((IsInitial(r) || in_u[r]) && !in_s[r]) {
            in_s[r] = 1;
            changed = true;
          }
        }
      }
    }
  }
  // Co-reachability from accepting roots over reversed edges, via a CSR
  // reverse-adjacency built once — each state's predecessor list is scanned
  // exactly once when the state pops, instead of rescanning every edge list
  // per popped state.
  std::vector<uint32_t> roff(ns + 1, 0);
  for (const auto& [f, a, to] : vertical_list_) {
    (void)f;
    (void)a;
    ++roff[to + 1];
  }
  for (const auto& [f, a, to] : horizontal_list_) {
    (void)a;
    // δh edges relax in both directions: predecessors stay useful, and so do
    // right siblings of useful states.
    ++roff[to + 1];
    ++roff[f + 1];
  }
  for (size_t q = 0; q < ns; ++q) roff[q + 1] += roff[q];
  std::vector<TreeState> radj(vertical_list_.size() +
                              2 * horizontal_list_.size());
  {
    std::vector<uint32_t> cursor(roff.begin(), roff.end() - 1);
    for (const auto& [f, a, to] : vertical_list_) {
      (void)a;
      radj[cursor[to]++] = f;
    }
    for (const auto& [f, a, to] : horizontal_list_) {
      (void)a;
      radj[cursor[to]++] = f;
      radj[cursor[f]++] = to;
    }
  }
  std::vector<char> useful(ns, 0);
  std::vector<TreeState> work;
  for (const auto& [q, a] : accepting()) {
    (void)a;
    if (!useful[q] && in_s[q] && !IsNonFirst(q)) {
      useful[q] = 1;
      work.push_back(q);
    }
  }
  while (!work.empty()) {
    TreeState q = work.back();
    work.pop_back();
    for (uint32_t i = roff[q]; i < roff[q + 1]; ++i) {
      const TreeState p = radj[i];
      if (!useful[p] && in_s[p]) {
        useful[p] = 1;
        work.push_back(p);
      }
    }
  }
  std::vector<bool> keep(ns, false);
  for (TreeState q = 0; q < ns; ++q) keep[q] = useful[q] != 0;
  return RestrictStates(keep);
}

TreeAutomaton TreeAutomaton::Universal(size_t num_symbols) {
  TreeAutomaton out(num_symbols, 1);
  out.SetInitial(0);
  for (Symbol a = 0; a < num_symbols; ++a) {
    out.AddHorizontal(0, a, 0);
    out.AddVertical(0, a, 0);
    out.SetAccepting(0, a);
  }
  return out;
}

TreeAutomaton TreeAutomaton::LabelFilter(size_t num_symbols,
                                         const std::vector<bool>& allowed) {
  TreeAutomaton out(num_symbols, 1);
  out.SetInitial(0);
  for (Symbol a = 0; a < num_symbols; ++a) {
    if (!allowed[a]) continue;
    out.AddHorizontal(0, a, 0);
    out.AddVertical(0, a, 0);
    out.SetAccepting(0, a);
  }
  return out;
}

std::string TreeAutomaton::ToString(const Alphabet& alphabet) const {
  std::string out = StringFormat("TreeAutomaton{states=%zu, symbols=%zu\n",
                                 num_states_, num_symbols_);
  out += "  initial:";
  for (TreeState q : initial_) out += StringFormat(" q%u", q);
  out += "\n  non-first:";
  for (TreeState q : non_first_) out += StringFormat(" q%u", q);
  out += "\n  accepting:";
  for (const auto& [q, a] : accepting()) {
    out += StringFormat(" (q%u,%s)", q, alphabet.Name(a).c_str());
  }
  out += "\n  horizontal:\n";
  for (const auto& [f, a, to] : horizontal_list_) {
    out += StringFormat("    q%u --%s--> q%u\n", f, alphabet.Name(a).c_str(), to);
  }
  out += "  vertical:\n";
  for (const auto& [f, a, to] : vertical_list_) {
    out += StringFormat("    q%u ==%s==> q%u\n", f, alphabet.Name(a).c_str(), to);
  }
  out += "}";
  return out;
}

}  // namespace fo2dt
