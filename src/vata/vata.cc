#include "vata/vata.h"

#include <algorithm>
#include <map>

#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/strings.h"
#include "datatree/text_io.h"
#include "lcta/lcta.h"

namespace fo2dt {

bool IsBinaryTree(const DataTree& t) {
  for (NodeId v = 0; v < t.size(); ++v) {
    size_t kids = t.NumChildren(v);
    if (kids != 0 && kids != 2) return false;
  }
  return true;
}

namespace {

constexpr const char* kVataModule = names::kModVataDerive;

bool VecGe(const CounterVec& a, const CounterVec& b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) return false;
  }
  return true;
}

CounterVec VecCombine(const CounterVec& x, const CounterVec& a,
                      const CounterVec& y, const CounterVec& b,
                      const CounterVec& c) {
  CounterVec out(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = (x[i] - a[i]) + (y[i] - b[i]) + c[i];
  }
  return out;
}

/// Per node: derivable (state, vector) pairs with back-pointers for run
/// extraction.
struct Candidate {
  VataState state;
  CounterVec vector;
  size_t rule;        // leaf rule or transition index
  size_t left_cand;   // indices into the children's candidate lists
  size_t right_cand;
};

Result<std::vector<std::vector<Candidate>>> DeriveAll(
    const VataAutomaton& a, const DataTree& t, size_t max_candidates,
    const ExecutionContext* exec) {
  ScopedPhase phase(Phase::kVata, exec);
  if (!IsBinaryTree(t)) {
    return Status::InvalidArgument("VATA runs require a binary tree");
  }
  ExecCheckpoint checkpoint(exec, /*token=*/nullptr, kVataModule);
  std::vector<std::vector<Candidate>> cands(t.size());
  size_t total = 0;
  // Flush the effort counter on every exit path (success, budget, deadline).
  struct CandidateTally {
    const ExecutionContext* exec;
    const size_t* total;
    ScopedPhase* phase;
    ~CandidateTally() {
      if (exec != nullptr) {
        exec->counters().vata_candidates.fetch_add(*total,
                                                   std::memory_order_relaxed);
      }
      phase->AddEffort(*total);
    }
  } tally{exec, &total, &phase};
  // Children have larger NodeIds only in creation order... process in
  // post-order to be safe.
  std::vector<NodeId> order;
  {
    std::vector<std::pair<NodeId, bool>> stack = {{t.root(), false}};
    // fo2dt-lint: allow(no-checkpoint, post-order walk visits each node exactly twice)
    while (!stack.empty()) {
      auto [v, expanded] = stack.back();
      stack.pop_back();
      if (expanded) {
        order.push_back(v);
        continue;
      }
      stack.push_back({v, true});
      for (NodeId c = t.first_child(v); c != kNoNode; c = t.next_sibling(c)) {
        stack.push_back({c, false});
      }
    }
  }
  for (NodeId v : order) {
    if (t.first_child(v) == kNoNode) {
      for (size_t r = 0; r < a.leaf_rules.size(); ++r) {
        if (a.leaf_rules[r].label != t.label(v)) continue;
        cands[v].push_back(Candidate{a.leaf_rules[r].state,
                                     a.leaf_rules[r].vector, r, 0, 0});
      }
    } else {
      NodeId left = t.first_child(v);
      NodeId right = t.next_sibling(left);
      for (size_t r = 0; r < a.transitions.size(); ++r) {
        const VataTransition& tr = a.transitions[r];
        if (tr.label != t.label(v)) continue;
        for (size_t li = 0; li < cands[left].size(); ++li) {
          const Candidate& lc = cands[left][li];
          if (lc.state != tr.left_state || !VecGe(lc.vector, tr.take_left)) {
            continue;
          }
          for (size_t ri = 0; ri < cands[right].size(); ++ri) {
            const Candidate& rc = cands[right][ri];
            if (rc.state != tr.right_state ||
                !VecGe(rc.vector, tr.take_right)) {
              continue;
            }
            cands[v].push_back(Candidate{
                tr.result_state,
                VecCombine(lc.vector, tr.take_left, rc.vector, tr.take_right,
                           tr.add),
                r, li, ri});
            if (++total > max_candidates) {
              return Status::ResourceExhausted(
                         StringFormat("VATA derivation candidate budget "
                                      "exceeded in %s: %zu of %zu candidates",
                                      kVataModule, total, max_candidates))
                  .WithStopReason(StopReason{StopKind::kCandidateBudget,
                                             kVataModule, total,
                                             max_candidates});
            }
            FO2DT_RETURN_NOT_OK(checkpoint.Tick());
          }
        }
      }
    }
    // Deduplicate identical (state, vector) pairs to curb blow-up.
    std::sort(cands[v].begin(), cands[v].end(),
              [](const Candidate& lhs, const Candidate& rhs) {
                if (lhs.state != rhs.state) return lhs.state < rhs.state;
                return lhs.vector < rhs.vector;
              });
    cands[v].erase(std::unique(cands[v].begin(), cands[v].end(),
                               [](const Candidate& lhs, const Candidate& rhs) {
                                 return lhs.state == rhs.state &&
                                        lhs.vector == rhs.vector;
                               }),
                   cands[v].end());
  }
  return cands;
}

bool IsZero(const CounterVec& v) {
  for (int64_t x : v) {
    if (x != 0) return false;
  }
  return true;
}

void AppendVec(std::string* out, const CounterVec& v) {
  for (int64_t x : v) {
    *out += StringFormat(" %lld", static_cast<long long>(x));
  }
}

// Replay body: the full automaton (counts first, vectors inline as signed
// decimals), the subject tree in text_io syntax over the canonical replay
// alphabet, and the candidate budget.
std::string SerializeVataProblem(const VataAutomaton& a, const DataTree& t,
                                 size_t max_candidates) {
  std::string body = StringFormat(
      "vata %llu %llu %llu\n", static_cast<unsigned long long>(a.num_counters),
      static_cast<unsigned long long>(a.num_states),
      static_cast<unsigned long long>(a.num_labels));
  body += StringFormat("accepting %llu",
                       static_cast<unsigned long long>(a.accepting.size()));
  for (VataState q : a.accepting) body += StringFormat(" %u", q);
  body += "\n";
  body += StringFormat("leafrules %llu\n",
                       static_cast<unsigned long long>(a.leaf_rules.size()));
  for (const VataLeafRule& r : a.leaf_rules) {
    body += StringFormat("%u %u", r.label, r.state);
    AppendVec(&body, r.vector);
    body += "\n";
  }
  body += StringFormat("transitions %llu\n",
                       static_cast<unsigned long long>(a.transitions.size()));
  for (const VataTransition& tr : a.transitions) {
    body += StringFormat("%u %u", tr.label, tr.left_state);
    AppendVec(&body, tr.take_left);
    body += StringFormat(" %u", tr.right_state);
    AppendVec(&body, tr.take_right);
    body += StringFormat(" %u", tr.result_state);
    AppendVec(&body, tr.add);
    body += "\n";
  }
  size_t alpha = a.num_labels;
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.label(v) + 1 > alpha) alpha = t.label(v) + 1;
  }
  Alphabet replay_alphabet = MakeReplayAlphabet(alpha);
  body += StringFormat("tree %s\n",
                       DataTreeToText(t, replay_alphabet).c_str());
  body += StringFormat("budget max_candidates %llu\n",
                       static_cast<unsigned long long>(max_candidates));
  return body;
}

}  // namespace

Result<bool> VataAccepts(const VataAutomaton& a, const DataTree& t,
                         size_t max_candidates, const ExecutionContext* exec) {
  FacadeCodec<bool> codec;
  codec.outcome = [](const Result<bool>& result) {
    SolveOutcome outcome;
    if (result.ok()) {
      outcome.verdict = *result ? "ACCEPT" : "REJECT";
      return outcome;
    }
    outcome.verdict =
        std::string("ERROR:") + StatusCodeToString(result.status().code());
    if (const StopReason* reason = result.status().stop_reason()) {
      outcome.stop = *reason;
    }
    return outcome;
  };
  // Membership verdicts are always definite on success, so every OK result
  // is cacheable; errors never reach the cache.
  codec.encode = [](const bool& accepted) {
    SolveCacheEntry entry;
    entry.verdict = accepted ? "ACCEPT" : "REJECT";
    return entry;
  };
  codec.decode = [](const SolveCacheEntry& entry, bool* accepted) {
    *accepted = entry.verdict == "ACCEPT";
    return *accepted || entry.verdict == "REJECT";
  };
  codec.cache_module = kVataModule;
  return RunFacade<bool>(
      {.facade = names::kFacadeVataAccepts,
       .exec = exec,
       .body = [&] { return SerializeVataProblem(a, t, max_candidates); },
       .budgets = {{"max_candidates", max_candidates}}},
      codec, [&]() -> Result<bool> {
        FO2DT_ASSIGN_OR_RETURN(std::vector<std::vector<Candidate>> cands,
                               DeriveAll(a, t, max_candidates, exec));
        for (const Candidate& c : cands[t.root()]) {
          if (IsZero(c.vector) &&
              std::find(a.accepting.begin(), a.accepting.end(), c.state) !=
                  a.accepting.end()) {
            return true;
          }
        }
        return false;
      });
}

Result<std::pair<DataTree, VataRun>> FindVataWitnessBounded(
    const VataAutomaton& a, size_t max_nodes, size_t max_candidates,
    const ExecutionContext* exec) {
  for (size_t n = 1; n <= max_nodes; n += 2) {  // binary trees have odd size
    for (const auto& parents : EnumerateTreeShapes(n)) {
      DataTree t;
      (void)t.CreateRoot(0, 0);
      for (size_t v = 1; v < n; ++v) (void)t.AppendChild(parents[v], 0, 0);
      if (!IsBinaryTree(t)) continue;
      // Odometer over labelings.
      std::vector<Symbol> labels(n, 0);
      // No allow() needed: deep lint proves every iteration reaches the
      // governor through DeriveAll.
      for (;;) {
        for (NodeId v = 0; v < n; ++v) t.set_label(v, labels[v]);
        auto cands_or = DeriveAll(a, t, max_candidates, exec);
        if (!cands_or.ok()) {
          const Status& st = cands_or.status();
          // A per-tree candidate cap just skips this labeling; a governor
          // stop (deadline/cancellation) aborts the whole search.
          const StopReason* reason = st.stop_reason();
          bool per_tree_cap =
              st.IsResourceExhausted() &&
              (reason == nullptr ||
               reason->kind == StopKind::kCandidateBudget);
          if (!per_tree_cap) return st;
        }
        if (cands_or.ok()) {
          const auto& cands = *cands_or;
          for (size_t ci = 0; ci < cands[t.root()].size(); ++ci) {
            const Candidate& c = cands[t.root()][ci];
            if (!IsZero(c.vector) ||
                std::find(a.accepting.begin(), a.accepting.end(), c.state) ==
                    a.accepting.end()) {
              continue;
            }
            // Extract the run by following back-pointers top-down.
            VataRun run;
            run.rule.assign(t.size(), 0);
            run.vector.assign(t.size(), CounterVec(a.num_counters, 0));
            std::vector<std::pair<NodeId, size_t>> stack = {{t.root(), ci}};
            // fo2dt-lint: allow(no-checkpoint, run extraction visits each node once)
            while (!stack.empty()) {
              auto [v, idx] = stack.back();
              stack.pop_back();
              const Candidate& cand = cands[v][idx];
              run.rule[v] = cand.rule;
              run.vector[v] = cand.vector;
              if (t.first_child(v) != kNoNode) {
                NodeId left = t.first_child(v);
                NodeId right = t.next_sibling(left);
                stack.push_back({left, cand.left_cand});
                stack.push_back({right, cand.right_cand});
              }
            }
            return std::make_pair(t, run);
          }
        }
        size_t i = 0;
        // fo2dt-lint: allow(no-checkpoint, odometer carry bounded by n digits)
        while (i < n) {
          if (++labels[i] < a.num_labels) break;
          labels[i] = 0;
          ++i;
        }
        if (i == n) break;
      }
    }
  }
  return Status::NotFound("no accepted VATA tree within the bound");
}

namespace {

/// Builder state for the counter-tree construction: per counter, the pool of
/// unconsumed increment values produced in the subtree.
struct CounterPools {
  std::vector<std::vector<DataValue>> pool;

  void Merge(CounterPools&& other) {
    for (size_t i = 0; i < pool.size(); ++i) {
      pool[i].insert(pool[i].end(), other.pool[i].begin(),
                     other.pool[i].end());
    }
  }
};

struct CounterTreeBuilder {
  const VataAutomaton& a;
  const DataTree& t;
  const VataRun& run;
  const CounterTreeAlphabet& alpha;
  DataTree out;
  DataValue next_value = 1;

  /// Emits a chain of I_i nodes (counts per counter) below `attach`,
  /// returning the new attachment point and recording fresh values.
  Result<NodeId> EmitIncrements(NodeId attach, const CounterVec& counts,
                                CounterPools* pools) {
    for (size_t i = 0; i < counts.size(); ++i) {
      for (int64_t k = 0; k < counts[i]; ++k) {
        DataValue v = next_value++;
        pools->pool[i].push_back(v);
        FO2DT_ASSIGN_OR_RETURN(attach,
                               out.AppendChild(attach, alpha.Inc(i), v));
      }
    }
    return attach;
  }

  /// Builds the gadget for tree node v under `attach` (which may be kNoNode
  /// for the root). Returns the pools of unconsumed increments of the whole
  /// gadget.
  Result<CounterPools> BuildUnder(NodeId attach, NodeId v) {
    const size_t k = a.num_counters;
    CounterPools pools{std::vector<std::vector<DataValue>>(k)};
    if (t.first_child(v) == kNoNode) {
      const VataLeafRule& rule = a.leaf_rules[run.rule[v]];
      FO2DT_ASSIGN_OR_RETURN(NodeId chain,
                             EmitChainTop(attach, rule.vector, &pools));
      FO2DT_RETURN_NOT_OK(
          Append(chain, alpha.BaseLabel(rule.label), 0).status());
      return pools;
    }
    const VataTransition& tr = a.transitions[run.rule[v]];
    NodeId left = t.first_child(v);
    NodeId right = t.next_sibling(left);
    // Top chain: c̄ increments, then the label node.
    FO2DT_ASSIGN_OR_RETURN(NodeId chain, EmitChainTop(attach, tr.add, &pools));
    FO2DT_ASSIGN_OR_RETURN(NodeId label_node,
                           Append(chain, alpha.BaseLabel(tr.label), 0));
    // Left branch: ā decrements, then the left gadget.
    FO2DT_ASSIGN_OR_RETURN(
        CounterPools left_pools,
        BuildBranch(label_node, tr.take_left, left));
    // Right branch: b̄ decrements, then the right gadget.
    FO2DT_ASSIGN_OR_RETURN(
        CounterPools right_pools,
        BuildBranch(label_node, tr.take_right, right));
    pools.Merge(std::move(left_pools));
    pools.Merge(std::move(right_pools));
    return pools;
  }

  /// A branch: a chain of D_i nodes (counts) whose values come from the
  /// child gadget's pools, then the child gadget itself.
  Result<CounterPools> BuildBranch(NodeId attach, const CounterVec& takes,
                                   NodeId child) {
    // Build the decrement chain with placeholder values, then the child
    // gadget, then patch the decrements from the child's pools.
    std::vector<NodeId> dec_nodes;
    NodeId cur = attach;
    for (size_t i = 0; i < takes.size(); ++i) {
      for (int64_t n = 0; n < takes[i]; ++n) {
        FO2DT_ASSIGN_OR_RETURN(cur, Append(cur, alpha.Dec(i), 0));
        dec_nodes.push_back(cur);
      }
    }
    FO2DT_ASSIGN_OR_RETURN(CounterPools pools, BuildUnder(cur, child));
    size_t di = 0;
    for (size_t i = 0; i < takes.size(); ++i) {
      for (int64_t n = 0; n < takes[i]; ++n) {
        if (pools.pool[i].empty()) {
          return Status::Internal(
              "counter discipline violated: decrement without increment");
        }
        out.set_data(dec_nodes[di++], pools.pool[i].back());
        pools.pool[i].pop_back();
      }
    }
    return pools;
  }

  Result<NodeId> EmitChainTop(NodeId attach, const CounterVec& counts,
                              CounterPools* pools) {
    NodeId cur = attach;
    for (size_t i = 0; i < counts.size(); ++i) {
      for (int64_t n = 0; n < counts[i]; ++n) {
        DataValue val = next_value++;
        pools->pool[i].push_back(val);
        FO2DT_ASSIGN_OR_RETURN(cur, Append(cur, alpha.Inc(i), val));
      }
    }
    return cur;
  }

  Result<NodeId> Append(NodeId parent, Symbol label, DataValue value) {
    if (parent == kNoNode && out.empty()) {
      return out.CreateRoot(label, value);
    }
    return out.AppendChild(parent, label, value);
  }
};

}  // namespace

Result<DataTree> BuildCounterTree(const VataAutomaton& a, const DataTree& t,
                                  const VataRun& run,
                                  const CounterTreeAlphabet& alpha) {
  if (run.rule.size() != t.size()) {
    return Status::InvalidArgument("run does not match the tree");
  }
  CounterTreeBuilder builder{a, t, run, alpha, DataTree{}, 1};
  FO2DT_ASSIGN_OR_RETURN(CounterPools pools,
                         builder.BuildUnder(kNoNode, t.root()));
  // An accepting run ends with the zero vector: all increments consumed.
  for (const auto& pool : pools.pool) {
    if (!pool.empty()) {
      return Status::InvalidArgument(
          "run does not end with the zero vector; counter tree would leave "
          "unmatched increments");
    }
  }
  return builder.out;
}

Formula CounterDisciplineFormula(const CounterTreeAlphabet& alpha) {
  std::vector<Formula> parts;
  for (size_t i = 0; i < alpha.num_counters; ++i) {
    Formula inc_x = Formula::Label(alpha.Inc(i), Var::kX);
    Formula inc_y = Formula::Label(alpha.Inc(i), Var::kY);
    Formula dec_x = Formula::Label(alpha.Dec(i), Var::kX);
    Formula dec_y = Formula::Label(alpha.Dec(i), Var::kY);
    // (1) increments pairwise different.
    parts.push_back(Formula::Forall(
        Var::kX,
        Formula::Forall(
            Var::kY, Formula::Implies(
                         Formula::And({inc_x, inc_y,
                                       Formula::Not(Formula::Equal(
                                           Var::kX, Var::kY))}),
                         Formula::Not(Formula::SameData(Var::kX, Var::kY))))));
    // (2) decrements pairwise different.
    parts.push_back(Formula::Forall(
        Var::kX,
        Formula::Forall(
            Var::kY, Formula::Implies(
                         Formula::And({dec_x, dec_y,
                                       Formula::Not(Formula::Equal(
                                           Var::kX, Var::kY))}),
                         Formula::Not(Formula::SameData(Var::kX, Var::kY))))));
    // (3) every increment has a same-valued decrement ancestor.
    parts.push_back(Formula::Forall(
        Var::kX,
        Formula::Implies(
            Formula::Label(alpha.Inc(i), Var::kX),
            Formula::Exists(
                Var::kY,
                Formula::And({Formula::Label(alpha.Dec(i), Var::kY),
                              Formula::Edge(Axis::kDescendant, Var::kY,
                                            Var::kX),
                              Formula::SameData(Var::kX, Var::kY)})))));
    // (4) every decrement has a same-valued increment descendant.
    parts.push_back(Formula::Forall(
        Var::kX,
        Formula::Implies(
            Formula::Label(alpha.Dec(i), Var::kX),
            Formula::Exists(
                Var::kY,
                Formula::And({Formula::Label(alpha.Inc(i), Var::kY),
                              Formula::Edge(Axis::kDescendant, Var::kX,
                                            Var::kY),
                              Formula::SameData(Var::kX, Var::kY)})))));
  }
  return Formula::And(std::move(parts));
}

Formula CounterTreeStructureFormula(const CounterTreeAlphabet& alpha) {
  std::vector<Formula> parts;
  // No node has three children: no three consecutive siblings anywhere.
  parts.push_back(Formula::Not(Formula::Exists(
      Var::kX,
      Formula::Exists(
          Var::kY,
          Formula::And(Formula::Edge(Axis::kNextSibling, Var::kX, Var::kY),
                       Formula::Exists(
                           Var::kX, Formula::Edge(Axis::kNextSibling, Var::kY,
                                                  Var::kX)))))));
  // Increment/decrement nodes are unary: they have a child but no second
  // child (their child has no sibling).
  for (size_t i = 0; i < alpha.num_counters; ++i) {
    for (Symbol s : {alpha.Inc(i), alpha.Dec(i)}) {
      parts.push_back(Formula::Forall(
          Var::kX,
          Formula::Implies(Formula::Label(s, Var::kX),
                           Formula::Exists(Var::kY,
                                           Formula::Edge(Axis::kChild, Var::kX,
                                                         Var::kY)))));
      parts.push_back(Formula::Forall(
          Var::kX,
          Formula::Forall(
              Var::kY,
              Formula::Implies(
                  Formula::And(Formula::Label(s, Var::kX),
                               Formula::Edge(Axis::kChild, Var::kX, Var::kY)),
                  Formula::Not(Formula::Exists(
                      Var::kX,
                      Formula::Edge(Axis::kNextSibling, Var::kY, Var::kX)))))));
    }
  }
  return Formula::And(std::move(parts));
}

Formula EncodeVataToFo2(const VataAutomaton& a,
                        const CounterTreeAlphabet& alpha) {
  (void)a;
  return Formula::And(CounterDisciplineFormula(alpha),
                      CounterTreeStructureFormula(alpha));
}

}  // namespace fo2dt
