#include "lcta/lcta.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "automata/automaton_io.h"
#include "common/arena.h"
#include "common/bitset.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/solve_cache.h"
#include "common/strings.h"
#include "common/thread_stats.h"
#include "solverlp/ilp.h"

namespace fo2dt {

namespace {

constexpr const char* kLctaModule = names::kModLctaEmptiness;
constexpr const char* kCutModule = names::kModLctaCuts;

/// Accepting runs of a hedge automaton are exactly the derivation trees of an
/// ordinary context-free grammar with nonterminals
///   N_q      — a node carrying state q (with its whole subtree),
///   C_q      — the children chain of a node carrying state q,
///   T_{p,q}  — the rest of a chain after a node with state p, in a chain
///              that must close with a δv transition into q,
/// and productions
///   PLeaf[q]      : N_q → ε                  (q initial; the node is a leaf)
///   PInner[q]     : N_q → C_q                (the node has children)
///   PStart[q,p]   : C_q → N_p T_{p,q}        (first child has state p; p ∉ NF)
///   PEnd[i]       : T_{p,q} → ε              (δv transition i = (p,a,q))
///   PStep[i,q]    : T_{p,q} → N_{p'} T_{p',q} (δh transition i = (p,a,p'))
/// The start symbol is N_{root state}; the root's label is chosen from F.
///
/// By the classical characterization of context-free Parikh images
/// (Esparza; Verma–Seidl–Schwentick [21]), a vector of production counts
/// extends to a derivation tree iff it satisfies the flow equations and the
/// used-production graph is connected to the start symbol. We enforce flow
/// directly and connectivity by lazy cuts.
///
/// Tails are instantiated *sparsely*: T_{p,q} exists only when p can still
/// reach, along δh edges, some state with a δv transition into q. Without
/// this the grammar is Θ(|Q|²)-dense and intractable for schema automata.
struct Production {
  VarId var;
  size_t lhs;
  size_t rhs[2];
  int num_rhs;
  /// Symbol this production reads (PEnd/PStep carry the label of the node
  /// whose outgoing transition they encode); kNoSymbol otherwise.
  Symbol reads = kNoSymbol;
  /// For PLeaf/PInner: the state whose node count this production feeds.
  TreeState node_state = 0;
  bool counts_node = false;
};

constexpr size_t kNoTail = static_cast<size_t>(-1);

struct Grammar {
  size_t q = 0;
  VarId base = 0;       // first production variable id
  size_t num_nonterminals = 0;
  std::vector<Production> productions;

  // Nonterminal ids: N_q = q | C_q = q + s | tails mapped sparsely through a
  // flat p * q + parent index (kNoTail when T_{p,parent} is not instantiated).
  size_t NT_Node(TreeState s) const { return s; }
  size_t NT_Chain(TreeState s) const { return q + s; }
  std::vector<size_t> tail_ids;

  VarId TotalVars() const {
    return base + static_cast<VarId>(productions.size());
  }
};

Grammar BuildGrammar(const TreeAutomaton& a, VarId base) {
  Grammar g;
  g.q = a.num_states();
  g.base = base;
  g.num_nonterminals = 2 * g.q;

  const auto& hor = a.horizontal();
  const auto& ver = a.vertical();

  // Sparse tail support: for each parent state q, the set of chain states p
  // from which a δv into q is still reachable along δh edges. Backward
  // closure from δv-sources of q over pre-indexed reverse δh adjacency, so
  // each closure visits only incident edges instead of scanning all of δh
  // per work item.
  std::vector<std::vector<TreeState>> rev_hor(g.q);
  for (const auto& [p, sym, pp] : hor) {
    (void)sym;
    rev_hor[pp].push_back(p);
  }
  std::vector<std::vector<TreeState>> ver_sources(g.q);
  for (const auto& [p, sym, tgt] : ver) {
    (void)sym;
    ver_sources[tgt].push_back(p);
  }
  // The support matrix is |Q|² bits of pure scratch: bit rows out of the
  // solve arena (one |Q|-bit row per parent) instead of a vector-of-vectors
  // of bytes.
  const size_t srow = (g.q + 63) / 64;
  SolveArena& arena = SolveArena::ThreadLocal();
  SolveArena::Frame arena_frame(arena);
  uint64_t* support = arena.AllocateArray<uint64_t>(g.q * srow);
  auto support_test = [&](TreeState parent, TreeState p) {
    return (support[parent * srow + p / 64] >> (p % 64)) & 1;
  };
  auto support_set = [&](TreeState parent, TreeState p) {
    support[parent * srow + p / 64] |= uint64_t{1} << (p % 64);
  };
  for (TreeState parent = 0; parent < g.q; ++parent) {
    std::vector<TreeState> work;
    for (TreeState p : ver_sources[parent]) {
      if (!support_test(parent, p)) {
        support_set(parent, p);
        work.push_back(p);
      }
    }
    while (!work.empty()) {
      TreeState cur = work.back();
      work.pop_back();
      for (TreeState p : rev_hor[cur]) {
        if (!support_test(parent, p)) {
          support_set(parent, p);
          work.push_back(p);
        }
      }
    }
  }

  g.tail_ids.assign(g.q * g.q, kNoTail);
  auto tail_id = [&g](TreeState p, TreeState parent) {
    size_t& slot = g.tail_ids[static_cast<size_t>(p) * g.q + parent];
    if (slot == kNoTail) slot = g.num_nonterminals++;
    return slot;
  };

  VarId next = base;
  for (TreeState s = 0; s < g.q; ++s) {
    if (a.IsInitial(s)) {
      Production p{next++, g.NT_Node(s), {0, 0}, 0};
      p.node_state = s;
      p.counts_node = true;
      g.productions.push_back(p);
    }
    {
      Production p{next++, g.NT_Node(s), {g.NT_Chain(s), 0}, 1};
      p.node_state = s;
      p.counts_node = true;
      g.productions.push_back(p);
    }
    for (TreeState first = 0; first < g.q; ++first) {
      if (a.IsNonFirst(first) || !support_test(s, first)) continue;
      Production p{next++,
                   g.NT_Chain(s),
                   {g.NT_Node(first), tail_id(first, s)},
                   2};
      g.productions.push_back(p);
    }
  }
  for (const auto& [p, sym, tgt] : ver) {
    Production prod{next++, tail_id(p, tgt), {0, 0}, 0};
    prod.reads = sym;
    g.productions.push_back(prod);
  }
  for (const auto& [p, sym, pp] : hor) {
    for (TreeState parent = 0; parent < g.q; ++parent) {
      if (!support_test(parent, p) || !support_test(parent, pp)) continue;
      Production prod{next++,
                      tail_id(p, parent),
                      {g.NT_Node(pp), tail_id(pp, parent)},
                      2};
      prod.reads = sym;
      g.productions.push_back(prod);
    }
  }
  return g;
}

/// Flow equations, node-count and optional symbol-count definitions for a
/// root with state `root` and label `root_label`.
LinearConstraint BuildFlowConstraints(const TreeAutomaton& a, const Grammar& g,
                                      TreeState root, Symbol root_label,
                                      bool use_symbol_counts) {
  std::vector<LinearExpr> flow(g.num_nonterminals);
  for (const Production& p : g.productions) {
    flow[p.lhs].AddTerm(p.var, BigInt(1));
    for (int i = 0; i < p.num_rhs; ++i) {
      flow[p.rhs[i]].AddTerm(p.var, BigInt(-1));
    }
  }
  flow[g.NT_Node(root)].AddConstant(BigInt(-1));

  std::vector<LinearConstraint> parts;
  parts.reserve(g.num_nonterminals + g.q + a.num_symbols());
  for (auto& e : flow) parts.push_back(LinearConstraint::Eq(std::move(e)));

  // n_s == expansions of N_s.
  for (TreeState s = 0; s < g.q; ++s) {
    LinearExpr def = LinearExpr::Variable(static_cast<VarId>(s));
    for (const Production& p : g.productions) {
      if (p.counts_node && p.node_state == s) def.AddTerm(p.var, BigInt(-1));
    }
    parts.push_back(LinearConstraint::Eq(std::move(def)));
  }
  if (use_symbol_counts) {
    // Every non-root node's label is read by exactly one PEnd/PStep usage.
    for (Symbol sym = 0; sym < a.num_symbols(); ++sym) {
      LinearExpr def = LinearExpr::Variable(static_cast<VarId>(g.q + sym));
      for (const Production& p : g.productions) {
        if (p.reads == sym) def.AddTerm(p.var, BigInt(-1));
      }
      if (sym == root_label) def.AddConstant(BigInt(-1));
      parts.push_back(LinearConstraint::Eq(std::move(def)));
    }
  }
  return LinearConstraint::And(std::move(parts));
}

/// Used nonterminals that the used-production graph cannot reach from the
/// start symbol; empty means the solution is realizable.
std::vector<size_t> UnreachableUsedNonterminals(const Grammar& g,
                                                const IntAssignment& sol,
                                                TreeState root) {
  SolveArena& arena = SolveArena::ThreadLocal();
  SolveArena::Frame arena_frame(arena);
  char* used = arena.AllocateArray<char>(g.num_nonterminals);
  for (const Production& p : g.productions) {
    if (!sol[p.var].IsZero()) used[p.lhs] = 1;
  }
  char* reach = arena.AllocateArray<char>(g.num_nonterminals);
  reach[g.NT_Node(root)] = 1;
  bool changed = true;
  // fo2dt-lint: allow(no-checkpoint, monotone fixpoint with at most one pass per nonterminal)
  while (changed) {
    changed = false;
    for (const Production& p : g.productions) {
      if (sol[p.var].IsZero() || !reach[p.lhs]) continue;
      for (int i = 0; i < p.num_rhs; ++i) {
        if (!reach[p.rhs[i]]) {
          reach[p.rhs[i]] = 1;
          changed = true;
        }
      }
    }
  }
  std::vector<size_t> bad;
  for (size_t x = 0; x < g.num_nonterminals; ++x) {
    if (used[x] && !reach[x]) bad.push_back(x);
  }
  return bad;
}

/// The overall stop state of an emptiness check: the caller's token, then
/// the governor (which also covers its own token and the deadline).
Status OverallStop(const LctaOptions& options) {
  if (options.cancel_token.IsCancelled()) {
    return Status::Cancelled("LCTA emptiness cancelled by caller",
                             ExecutionContext::CancelReason(kLctaModule));
  }
  if (options.exec != nullptr) return options.exec->Check(kLctaModule);
  return Status::OK();
}

/// Cut: either no U-nonterminal is expanded, or some used production outside
/// U produces into U.
LinearConstraint ConnectivityCut(const Grammar& g,
                                 const std::vector<size_t>& u) {
  SolveArena& arena = SolveArena::ThreadLocal();
  SolveArena::Frame arena_frame(arena);
  char* in_u = arena.AllocateArray<char>(g.num_nonterminals);
  for (size_t x : u) in_u[x] = 1;
  LinearExpr expansions;
  LinearExpr crossing;
  for (const Production& p : g.productions) {
    if (in_u[p.lhs]) expansions.AddTerm(p.var, BigInt(1));
    if (!in_u[p.lhs]) {
      for (int i = 0; i < p.num_rhs; ++i) {
        if (in_u[p.rhs[i]]) {
          crossing.AddTerm(p.var, BigInt(1));
          break;
        }
      }
    }
  }
  crossing.AddConstant(BigInt(-1));  // crossing >= 1
  return LinearConstraint::Or(LinearConstraint::Eq(std::move(expansions)),
                              LinearConstraint::Ge(std::move(crossing)));
}

/// Per-root outcome of the cut loop (one slot per accepting root choice).
struct RootOutcome {
  enum Kind { kPending, kEmpty, kNonEmpty, kAbandoned };
  Kind kind = kPending;
  IntAssignment state_counts;
  size_t ilp_nodes = 0;
  size_t connectivity_cuts = 0;
};

/// Runs the lazy-cut loop for one accepting root choice. The conjunction is
/// converted to DNF exactly once; each cut round multiplies the *surviving*
/// branch set by the cut's two DNF branches (a branch proven infeasible stays
/// infeasible when atoms are added, so it is pruned instead of re-solved).
Status SolveRoot(const Lcta& lcta, const Grammar& g, TreeState root,
                 Symbol root_label, const LctaOptions& options,
                 const IlpOptions& ilp_options, RootOutcome* out) {
  // Self time = flow building + cut machinery (the nested ILP solves carry
  // their own kIlp scopes); effort = cut rounds.
  ScopedPhase phase(Phase::kLcta, options.exec);
  // This worker thread's arena scratch (DNF cut scratch, connectivity
  // fixpoints, run-set rows) is billed to this solve's governor while the
  // root is being worked.
  ScopedArenaAccounting arena_accounting(options.exec, kLctaModule);
  const TreeAutomaton& a = lcta.automaton;
  LinearConstraint flow =
      BuildFlowConstraints(a, g, root, root_label, lcta.use_symbol_counts);
  FO2DT_ASSIGN_OR_RETURN(
      std::vector<LinearSystem> branches,
      LinearConstraint::And(flow, lcta.constraint)
          .ToDnf(options.max_dnf_branches));
  for (size_t cut_round = 0;; ++cut_round) {
    phase.AddEffort(1);
    if (cut_round > options.max_cuts) {
      return Status::ResourceExhausted(
          StringFormat("LCTA emptiness: connectivity cut budget exceeded in "
                       "%s: %zu of %zu cut rounds",
                       kCutModule, cut_round, options.max_cuts),
          StopReason{StopKind::kCutBudget, kCutModule, cut_round,
                     options.max_cuts});
    }
    if (options.exec != nullptr) {
      options.exec->counters().lcta_cut_rounds.fetch_add(
          1, std::memory_order_relaxed);
    }
    // Failpoint: inject an error into the cut loop (tests prove a failing
    // cut round unwinds as a clean Status through the root fan-out).
    if (Failpoints::CompiledIn()) {
      Status injected;
      FO2DT_FAILPOINT(names::kFpLctaCutRound, &injected);
      if (!injected.ok()) return injected;
    }
    // Unamortized per-round governor check: a deadline that dies between
    // cut rounds is attributed to the cut loop ("lcta.cuts"), not to
    // whichever ILP stumbled on it hundreds of pivots later.
    if (options.exec != nullptr) {
      FO2DT_RETURN_NOT_OK(options.exec->Check(kCutModule));
    }
    FO2DT_ASSIGN_OR_RETURN(
        DnfSolveResult r,
        IlpSolver::SolveDnf(branches, g.TotalVars(), ilp_options));
    out->ilp_nodes += r.solution.nodes_explored;
    if (!r.solution.feasible) {
      out->kind = RootOutcome::kEmpty;  // this root choice yields nothing
      return Status::OK();
    }
    std::vector<size_t> u =
        UnreachableUsedNonterminals(g, r.solution.assignment, root);
    if (u.empty()) {
      out->kind = RootOutcome::kNonEmpty;
      out->state_counts.assign(r.solution.assignment.begin(),
                               r.solution.assignment.begin() +
                                   static_cast<std::ptrdiff_t>(a.num_states()));
      return Status::OK();
    }
    FO2DT_ASSIGN_OR_RETURN(std::vector<LinearSystem> cut_dnf,
                           ConnectivityCut(g, u).ToDnf(2));
    std::vector<LinearSystem> next;
    for (size_t i = 0; i < branches.size(); ++i) {
      if (r.outcomes[i] == BranchOutcome::kInfeasible) continue;
      for (const LinearSystem& cut : cut_dnf) {
        LinearSystem extended = branches[i];
        extended.insert(extended.end(), cut.begin(), cut.end());
        next.push_back(std::move(extended));
      }
    }
    if (next.size() > options.max_dnf_branches) {
      return Status::ResourceExhausted(
          StringFormat("LCTA emptiness: DNF branch budget exceeded in %s: "
                       "%zu of %zu branches after cut %zu",
                       kCutModule, next.size(), options.max_dnf_branches,
                       cut_round),
          StopReason{StopKind::kBranchBudget, kCutModule, next.size(),
                     options.max_dnf_branches});
    }
    branches = std::move(next);
    ++out->connectivity_cuts;
  }
}

/// Sub-memo key for a whole emptiness check: the canonical automaton text
/// (transition-sorted), the constraint, the count-variable layout, and every
/// option that can change the reported effort counters (budgets, threads) —
/// so a memo hit is bit-for-bit the result the cold check would compute.
std::string LctaEmptinessMemoKey(const Lcta& lcta, const LctaOptions& options) {
  std::string key = StringFormat(
      "lcta.emptiness:%d:%u:%llu:%llu:%llu:%llu\n",
      lcta.use_symbol_counts ? 1 : 0, lcta.num_aux,
      static_cast<unsigned long long>(options.max_ilp_nodes),
      static_cast<unsigned long long>(options.max_cuts),
      static_cast<unsigned long long>(options.max_dnf_branches),
      static_cast<unsigned long long>(options.num_threads));
  lcta.constraint.AppendTo(&key);
  key += '\n';
  key += TreeAutomatonToText(lcta.automaton);
  return key;
}

bool ParseMemoU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Memo value: "<empty 0|1> <ilp_nodes> <cuts>" then one signed decimal per
/// state count. The inverse returns false on malformation, which sends the
/// caller down the cold path instead of failing.
std::string SerializeEmptinessResult(const LctaEmptinessResult& r) {
  std::string out = StringFormat(
      "%d %llu %llu", r.empty ? 1 : 0,
      static_cast<unsigned long long>(r.ilp_nodes),
      static_cast<unsigned long long>(r.connectivity_cuts));
  for (const BigInt& v : r.state_counts) out += " " + v.ToString();
  return out;
}

bool ParseEmptinessResult(const std::string& text, LctaEmptinessResult* out) {
  std::vector<std::string> tokens = SplitString(text, ' ');
  if (tokens.size() < 3) return false;
  if (tokens[0] != "0" && tokens[0] != "1") return false;
  out->empty = tokens[0] == "1";
  uint64_t nodes = 0;
  uint64_t cuts = 0;
  if (!ParseMemoU64(tokens[1], &nodes) || !ParseMemoU64(tokens[2], &cuts)) {
    return false;
  }
  out->ilp_nodes = static_cast<size_t>(nodes);
  out->connectivity_cuts = static_cast<size_t>(cuts);
  out->state_counts.clear();
  for (size_t i = 3; i < tokens.size(); ++i) {
    Result<BigInt> v = BigInt::FromString(tokens[i]);
    if (!v.ok()) return false;
    out->state_counts.push_back(std::move(*v));
  }
  return true;
}

/// The cold emptiness check; CheckLctaEmptiness below may serve the whole
/// result from the sub-result memo instead of running this.
Result<LctaEmptinessResult> CheckLctaEmptinessImpl(const Lcta& lcta,
                                                   const LctaOptions& options) {
  // Self time = validation + shared grammar construction. The clock stops
  // before the parallel fan-out below — each worker's SolveRoot runs its own
  // kLcta scope, and a running main-thread clock would bill the join wait to
  // kLcta, double-counting the workers' time. Memory stays attributed to
  // kLcta until return.
  ScopedPhase phase(Phase::kLcta, options.exec);
  // Main-thread arena accounting for the shared grammar build; each fan-out
  // worker's SolveRoot installs its own attachment for its thread's arena.
  ScopedArenaAccounting arena_accounting(options.exec, kLctaModule);
  const TreeAutomaton& a = lcta.automaton;
  FO2DT_ASSIGN_OR_RETURN(const VarId num_user_vars, lcta.CheckedNumUserVars());
  if (lcta.constraint.NumVarsSpanned() > num_user_vars) {
    return Status::InvalidArgument(
        "LCTA constraint mentions a variable beyond the user block");
  }
  // Grammar and flow structure are built once for the whole check and shared
  // (read-only) by every root worker.
  Grammar g = BuildGrammar(a, num_user_vars);
  LctaEmptinessResult out;
  out.empty = true;

  // Without symbol counting the flow system depends only on the root state,
  // so accepting pairs sharing a state are handled once; with symbol
  // counting the root's label contributes to a count and every pair matters.
  std::vector<std::pair<TreeState, Symbol>> roots;
  for (const auto& [s, sym] : a.accepting()) {
    if (a.IsNonFirst(s)) continue;  // the root has no siblings
    roots.emplace_back(s, lcta.use_symbol_counts ? sym : Symbol{0});
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  if (roots.empty()) return out;

  const size_t num_threads =
      options.num_threads == 0
          ? std::max<size_t>(1, std::thread::hardware_concurrency())
          : options.num_threads;
  const size_t root_workers = std::min(num_threads, roots.size());

  IlpOptions ilp_options;
  ilp_options.max_nodes = options.max_ilp_nodes;
  ilp_options.max_dnf_branches = options.max_dnf_branches;
  ilp_options.num_threads = std::max<size_t>(1, num_threads / root_workers);
  ilp_options.cancel_token = options.cancel_token;
  ilp_options.exec = options.exec;

  if (root_workers <= 1) {
    for (const auto& [root, root_label] : roots) {
      FO2DT_RETURN_NOT_OK(OverallStop(options));
      RootOutcome o;
      FO2DT_RETURN_NOT_OK(
          SolveRoot(lcta, g, root, root_label, options, ilp_options, &o));
      out.ilp_nodes += o.ilp_nodes;
      out.connectivity_cuts += o.connectivity_cuts;
      if (o.kind == RootOutcome::kNonEmpty) {
        out.empty = false;
        out.state_counts = std::move(o.state_counts);
        return out;
      }
    }
    return out;
  }

  phase.StopClock();  // workers time their own SolveRoot calls

  // Parallel root fan-out, first-nonempty-wins with deterministic selection,
  // coordinated by FirstWinsFanout: its terminal index is the smallest root
  // index known terminal (nonempty or error); roots above it are abandoned
  // via their branch tokens, roots below it always complete, so the
  // ascending scan below is schedule-independent.
  struct Slot {
    RootOutcome outcome;
    Status error;  // non-OK turns the slot into an error terminal
    // The root's governor: effort (cut rounds, nodes, pivots, phases) is
    // held here until the scan below knows whether the slot counts.
    std::unique_ptr<ExecutionContext> exec;
  };
  std::vector<Slot> slots(roots.size());
  // atomic: work-stealing ticket; relaxed fetch_add hands each root index
  // to exactly one worker, slot writes are ordered by the thread join.
  std::atomic<size_t> next{0};
  FirstWinsFanout fanout(roots.size(), options.cancel_token);
  auto worker = [&]() {
    // Workers write thread-local solver counters; declare so that
    // ThreadStats aggregation can assert quiescence (the join below orders
    // this destructor before any post-solve Aggregate()).
    ScopedStatsWorker stats_worker;
    for (;;) {
      if (!OverallStop(options).ok()) return;
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= roots.size()) return;
      Slot& slot = slots[i];
      if (fanout.Abandoned(i)) {
        slot.outcome.kind = RootOutcome::kAbandoned;
        continue;
      }
      LctaOptions slot_options = options;
      IlpOptions my_ilp = ilp_options;
      if (options.exec != nullptr) {
        slot.exec = std::make_unique<ExecutionContext>(options.exec);
        slot_options.exec = slot.exec.get();
        my_ilp.exec = slot.exec.get();
      }
      my_ilp.cancel_token = fanout.TokenFor(i);
      Status st = SolveRoot(lcta, g, roots[i].first, roots[i].second,
                            slot_options, my_ilp, &slot.outcome);
      if (!st.ok()) {
        if (st.IsCancelled()) {
          slot.outcome.kind = RootOutcome::kAbandoned;
          continue;
        }
        slot.error = st;
        fanout.MarkTerminal(i);
        continue;
      }
      if (slot.outcome.kind == RootOutcome::kNonEmpty) fanout.MarkTerminal(i);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(root_workers - 1);
  for (size_t t = 1; t < root_workers; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& th : pool) th.join();

  // All workers are joined: safe to aggregate stats and scan slots.
  // Effort (the result's counters here, the governor's counters and phase
  // profile through MergeSlotInto) sums only the slots up to the terminal
  // index: those always complete, so the totals equal what a sequential run
  // computes. Slots past it ran or not depending on scheduling and must not
  // count. A stopped check keeps all the effort it spent.
  const Status stop = OverallStop(options);
  const size_t counted =
      stop.ok() ? std::min(fanout.stop_at() + 1, slots.size()) : slots.size();
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].exec != nullptr) {
      slots[i].exec->MergeSlotInto(*options.exec, i < counted);
    }
  }
  FO2DT_RETURN_NOT_OK(stop);

  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    if (!slot.error.ok()) return slot.error;
    out.ilp_nodes += slot.outcome.ilp_nodes;
    out.connectivity_cuts += slot.outcome.connectivity_cuts;
    switch (slot.outcome.kind) {
      case RootOutcome::kNonEmpty:
        out.empty = false;
        out.state_counts = std::move(slot.outcome.state_counts);
        return out;
      case RootOutcome::kEmpty:
        break;
      case RootOutcome::kPending:
      case RootOutcome::kAbandoned:
        // Every root below the smallest terminal index completes; reaching an
        // unsolved slot here means that invariant broke.
        return Status::Internal("unsolved root below the terminal index");
    }
  }
  return out;
}

}  // namespace

Result<LctaEmptinessResult> CheckLctaEmptiness(const Lcta& lcta,
                                               const LctaOptions& options) {
  SolveCache& cache = SolveCache::Instance();
  if (!cache.enabled()) return CheckLctaEmptinessImpl(lcta, options);
  // Whole-check memo: the dominant cost of repeated traffic (xpath and
  // constraint workloads re-derive identical product automata) is the
  // ILP/cut loop, so one memo hit here skips the entire emptiness pipeline.
  const std::string memo_key = LctaEmptinessMemoKey(lcta, options);
  std::optional<std::string> memo =
      cache.LookupSub(memo_key, options.exec, kLctaModule);
  if (memo.has_value()) {
    LctaEmptinessResult served;
    if (ParseEmptinessResult(*memo, &served)) return served;
  }
  Result<LctaEmptinessResult> result = CheckLctaEmptinessImpl(lcta, options);
  if (result.ok()) {
    // Only completed checks are memoized; ResourceExhausted must be retried
    // with whatever budgets the next caller holds (mirrors kUnknown-never-
    // cached at the verdict level).
    cache.InsertSub(memo_key, SerializeEmptinessResult(*result), options.exec,
                    kLctaModule);
  }
  return result;
}

std::vector<std::vector<uint32_t>> EnumerateTreeShapes(size_t num_nodes) {
  // shapes[n] = parent arrays of n-node trees; forests built recursively.
  // A forest with k nodes is a first subtree of size s plus a forest of
  // size k - s; parent arrays use creation order (parents precede children).
  struct Builder {
    std::vector<std::vector<std::vector<uint32_t>>> tree_memo;  // by size

    const std::vector<std::vector<uint32_t>>& Trees(size_t n) {
      // fo2dt-lint: allow(no-checkpoint, memo resize bounded by requested size n)
      while (tree_memo.size() <= n) tree_memo.emplace_back();
      if (n == 0 || !tree_memo[n].empty()) return tree_memo[n];
      if (n == 1) {
        tree_memo[1] = {{kNoNode}};
        return tree_memo[1];
      }
      std::vector<std::vector<uint32_t>> out;
      std::vector<std::vector<uint32_t>> forests = Forests(n - 1);
      for (auto& f : forests) {
        std::vector<uint32_t> parents = {kNoNode};
        for (uint32_t p : f) {
          // Forest arrays mark component roots with kNoNode; shift by one
          // and attach component roots under the new root 0.
          parents.push_back(p == kNoNode ? 0 : p + 1);
        }
        out.push_back(std::move(parents));
      }
      tree_memo[n] = std::move(out);
      return tree_memo[n];
    }

    std::vector<std::vector<uint32_t>> Forests(size_t k) {
      if (k == 0) return {{}};
      std::vector<std::vector<uint32_t>> out;
      for (size_t s = 1; s <= k; ++s) {
        for (const auto& first : Trees(s)) {
          for (const auto& rest : Forests(k - s)) {
            std::vector<uint32_t> combined = first;  // root at index 0
            for (uint32_t p : rest) {
              combined.push_back(p == kNoNode ? kNoNode
                                              : p + static_cast<uint32_t>(s));
            }
            out.push_back(std::move(combined));
          }
        }
      }
      return out;
    }
  };
  Builder b;
  return b.Trees(num_nodes);
}

Result<DataTree> FindLctaWitnessBounded(const Lcta& lcta, size_t max_nodes,
                                        const ExecutionContext* exec) {
  ScopedPhase phase(Phase::kLcta, exec);
  ExecCheckpoint checkpoint(exec, nullptr, kLctaModule);
  const TreeAutomaton& a = lcta.automaton;
  const size_t num_symbols = a.num_symbols();
  if (lcta.num_aux > 0) {
    return Status::NotImplemented(
        "brute-force witness search does not support auxiliary variables");
  }
  for (size_t n = 1; n <= max_nodes; ++n) {
    for (const auto& parents : EnumerateTreeShapes(n)) {
      DataTree t;
      (void)t.CreateRoot(0, 0);
      for (size_t v = 1; v < n; ++v) {
        (void)t.AppendChild(parents[v], 0, 0);
      }
      // Enumerate labelings (odometer over symbols).
      std::vector<Symbol> labels(n, 0);
      for (;;) {
        for (NodeId v = 0; v < n; ++v) t.set_label(v, labels[v]);
        auto runs_ok = [&]() -> Result<bool> {
          // Odometer over per-node states; n and |Q| are tiny in the
          // intended (test / witness) use of this function.
          std::vector<TreeState> run(n, 0);
          for (;;) {
            FO2DT_RETURN_NOT_OK(checkpoint.Tick());
            TreeRun r(run.begin(), run.end());
            if (a.IsAcceptingRun(t, r)) {
              IntAssignment counts(lcta.NumUserVars(), BigInt(0));
              for (TreeState s : run) counts[s] += BigInt(1);
              if (lcta.use_symbol_counts) {
                for (NodeId v = 0; v < n; ++v) {
                  counts[a.num_states() + t.label(v)] += BigInt(1);
                }
              }
              FO2DT_ASSIGN_OR_RETURN(bool ok, lcta.constraint.Evaluate(counts));
              if (ok) return true;
            }
            size_t i = 0;
            // fo2dt-lint: allow(no-checkpoint, odometer carry bounded by n digits)
            while (i < n) {
              if (++run[i] < a.num_states()) break;
              run[i] = 0;
              ++i;
            }
            if (i == n) return false;
          }
        }();
        FO2DT_RETURN_NOT_OK(runs_ok.status());
        if (*runs_ok) return t;
        size_t i = 0;
        // fo2dt-lint: allow(no-checkpoint, odometer carry bounded by n digits)
        while (i < n) {
          if (++labels[i] < num_symbols) break;
          labels[i] = 0;
          ++i;
        }
        if (i == n) break;
      }
    }
  }
  return Status::NotFound("no LCTA witness within the size bound");
}

}  // namespace fo2dt
