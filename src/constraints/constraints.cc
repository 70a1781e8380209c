#include "constraints/constraints.h"

#include <algorithm>
#include <map>
#include <thread>

#include "automata/automaton_io.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/strings.h"
#include "lcta/lcta.h"

namespace fo2dt {

namespace {

// Replay body shared by the three constraint facades: the schema automaton
// followed by one line per constraint (dense symbol ids; the canonical
// replay alphabet restores them positionally).
std::string SerializeConstraintProblem(const TreeAutomaton& schema,
                                       const ConstraintSet& set) {
  std::string body = "schema\n" + TreeAutomatonToText(schema);
  for (const UnaryKey& k : set.keys) {
    body += StringFormat("key %u %u\n", k.element, k.attribute);
  }
  for (const UnaryInclusion& inc : set.inclusions) {
    body += StringFormat("inclusion %u %u %u %u\n", inc.from_element,
                         inc.from_attribute, inc.to_element, inc.to_attribute);
  }
  return body;
}

// The bounded-search budgets of the consistency and implication facades, as
// their bodies end and as their records list them.
std::string SearchBudgetText(const SolverOptions& options) {
  return StringFormat("budget max_model_nodes %llu\nbudget max_steps %llu\n",
                      static_cast<unsigned long long>(options.max_model_nodes),
                      static_cast<unsigned long long>(options.max_steps));
}

std::vector<std::pair<const char*, uint64_t>> SearchBudgets(
    const SolverOptions& options) {
  return {{"max_model_nodes", options.max_model_nodes},
          {"max_steps", options.max_steps}};
}

}  // namespace

bool ConstraintSet::IsForeignKey(const UnaryInclusion& inc) const {
  for (const UnaryKey& k : keys) {
    if (k.element == inc.to_element && k.attribute == inc.to_attribute) {
      return true;
    }
  }
  return false;
}

std::optional<DataValue> AttributeValue(const DataTree& t, NodeId v,
                                        Symbol attribute) {
  for (NodeId c = t.first_child(v); c != kNoNode; c = t.next_sibling(c)) {
    if (t.label(c) == attribute) return t.data(c);
  }
  return std::nullopt;
}

bool DocumentSatisfiesKey(const DataTree& t, const UnaryKey& key) {
  std::map<DataValue, size_t> seen;
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.label(v) != key.element) continue;
    std::optional<DataValue> val = AttributeValue(t, v, key.attribute);
    if (!val.has_value()) continue;
    if (++seen[*val] > 1) return false;
  }
  return true;
}

bool DocumentSatisfiesInclusion(const DataTree& t, const UnaryInclusion& inc) {
  std::map<DataValue, bool> targets;
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.label(v) != inc.to_element) continue;
    std::optional<DataValue> val = AttributeValue(t, v, inc.to_attribute);
    if (val.has_value()) targets[*val] = true;
  }
  for (NodeId v = 0; v < t.size(); ++v) {
    if (t.label(v) != inc.from_element) continue;
    std::optional<DataValue> val = AttributeValue(t, v, inc.from_attribute);
    if (val.has_value() && !targets.count(*val)) return false;
  }
  return true;
}

bool DocumentSatisfies(const DataTree& t, const ConstraintSet& set) {
  for (const UnaryKey& k : set.keys) {
    if (!DocumentSatisfiesKey(t, k)) return false;
  }
  for (const UnaryInclusion& i : set.inclusions) {
    if (!DocumentSatisfiesInclusion(t, i)) return false;
  }
  return true;
}

Formula KeyToFo2(const UnaryKey& key) {
  // ∀x∀y: x,y are A-attribute nodes under τ-elements with x ~ y  →  x = y.
  auto attr_under = [&](Var v) {
    Var other = OtherVar(v);
    return Formula::And(
        Formula::Label(key.attribute, v),
        Formula::Exists(other,
                        Formula::And(Formula::Label(key.element, other),
                                     Formula::Edge(Axis::kChild, other, v))));
  };
  Formula body = Formula::Implies(
      Formula::And({attr_under(Var::kX), attr_under(Var::kY),
                    Formula::SameData(Var::kX, Var::kY)}),
      Formula::Equal(Var::kX, Var::kY));
  return Formula::Forall(Var::kX, Formula::Forall(Var::kY, body));
}

Formula InclusionToFo2(const UnaryInclusion& inc) {
  // ∀x (A(x) ∧ ∃y(τ1(y) ∧ child(y,x)))
  //   → ∃y (x ~ y ∧ B(y) ∧ ∃x(τ2(x) ∧ child(x,y))).
  Formula source = Formula::And(
      Formula::Label(inc.from_attribute, Var::kX),
      Formula::Exists(
          Var::kY, Formula::And(Formula::Label(inc.from_element, Var::kY),
                                Formula::Edge(Axis::kChild, Var::kY, Var::kX))));
  Formula target = Formula::Exists(
      Var::kY,
      Formula::And(
          {Formula::SameData(Var::kX, Var::kY),
           Formula::Label(inc.to_attribute, Var::kY),
           Formula::Exists(
               Var::kX,
               Formula::And(Formula::Label(inc.to_element, Var::kX),
                            Formula::Edge(Axis::kChild, Var::kX, Var::kY)))}));
  return Formula::Forall(Var::kX,
                         Formula::Implies(std::move(source), std::move(target)));
}

Formula ConstraintSetToFo2(const ConstraintSet& set) {
  std::vector<Formula> parts;
  for (const UnaryKey& k : set.keys) parts.push_back(KeyToFo2(k));
  for (const UnaryInclusion& i : set.inclusions) {
    parts.push_back(InclusionToFo2(i));
  }
  return Formula::And(std::move(parts));
}

Result<SatResult> CheckConsistencyBounded(const TreeAutomaton& schema,
                                          const ConstraintSet& set,
                                          const SolverOptions& options) {
  SolverOptions opt = options;
  opt.structural_filter = &schema;
  auto body = [&] {
    return SerializeConstraintProblem(schema, set) + SearchBudgetText(options);
  };
  return RunFacade<SatResult>(
      {.facade = names::kFacadeConstraintsConsistency,
       .exec = options.exec,
       .body = body,
       .budgets = SearchBudgets(options)},
      {.outcome = SolveOutcomeFromSat}, [&] {
        // Translation is charged to kConstraints; the bounded search inside
        // the frontend call times itself (and attaches the PhaseProfile).
        Formula query = [&] {
          ScopedPhase phase(Phase::kConstraints, options.exec);
          return ConstraintSetToFo2(set);
        }();
        return CheckFo2SatisfiabilityBounded(query, opt);
      });
}

Result<SatResult> CheckImplicationBounded(const TreeAutomaton& schema,
                                          const ConstraintSet& premises,
                                          const Formula& conclusion,
                                          const SolverOptions& options) {
  SolverOptions opt = options;
  opt.structural_filter = &schema;
  auto body = [&] {
    std::string b = SerializeConstraintProblem(schema, premises);
    Alphabet replay_alphabet = MakeReplayAlphabet(
        std::max(schema.num_symbols(),
                 static_cast<size_t>(conclusion.NumSymbolsSpanned())));
    b += StringFormat("conclusion %s\n",
                      conclusion.ToString(replay_alphabet).c_str());
    return b + SearchBudgetText(options);
  };
  return RunFacade<SatResult>(
      {.facade = names::kFacadeConstraintsImplication,
       .exec = options.exec,
       .body = body,
       .budgets = SearchBudgets(options)},
      {.outcome = SolveOutcomeFromSat}, [&] {
        Formula query = [&] {
          ScopedPhase phase(Phase::kConstraints, options.exec);
          return Formula::And(ConstraintSetToFo2(premises),
                              Formula::Not(conclusion));
        }();
        return CheckFo2SatisfiabilityBounded(query, opt);
      });
}

namespace {

Result<SatResult> CheckKeyForeignKeyConsistencyIlpImpl(
    const TreeAutomaton& schema, const ConstraintSet& set,
    const LctaOptions& options) {
  // Self time = cardinality-constraint construction; the LCTA emptiness call
  // below runs its own kLcta/kIlp scopes.
  ScopedPhase phase(Phase::kConstraints, options.exec);
  // Cardinality conditions over label counts: variable Q + l counts label l.
  const VarId q = static_cast<VarId>(schema.num_states());
  std::vector<LinearConstraint> parts;
  for (const UnaryInclusion& inc : set.inclusions) {
    bool source_keyed = false;
    for (const UnaryKey& k : set.keys) {
      if (k.element == inc.from_element && k.attribute == inc.from_attribute) {
        source_keyed = true;
        break;
      }
    }
    LinearExpr n_from = LinearExpr::Variable(q + inc.from_element);
    LinearExpr n_to = LinearExpr::Variable(q + inc.to_element);
    if (source_keyed) {
      // Distinct source values each need a distinct carrier: n_from <= n_to.
      parts.push_back(LinearConstraint::Ge(n_to - n_from));
    } else {
      // Presence only: n_from == 0 or n_to >= 1.
      LinearExpr n_to_pos = n_to;
      n_to_pos.AddConstant(BigInt(-1));
      parts.push_back(LinearConstraint::Or(
          LinearConstraint::Eq(n_from), LinearConstraint::Ge(n_to_pos)));
    }
  }
  Lcta lcta;
  lcta.automaton = schema;
  lcta.constraint = LinearConstraint::And(std::move(parts));
  lcta.use_symbol_counts = true;
  // A dead budget (deadline, node/cut cap) propagates as ResourceExhausted;
  // the facade's codec degrades it to an honest kUnknown.
  FO2DT_ASSIGN_OR_RETURN(LctaEmptinessResult r,
                         CheckLctaEmptiness(lcta, options));
  SatResult out;
  out.method = SatMethod::kCountingAbstraction;
  out.steps = r.ilp_nodes;
  out.verdict = r.empty ? SatVerdict::kUnsat : SatVerdict::kSat;
  return out;
}

}  // namespace

Result<SatResult> CheckKeyForeignKeyConsistencyIlp(const TreeAutomaton& schema,
                                                   const ConstraintSet& set,
                                                   const LctaOptions& options) {
  auto body = [&] {
    std::string b = SerializeConstraintProblem(schema, set);
    b += StringFormat("budget max_ilp_nodes %llu\n",
                      static_cast<unsigned long long>(options.max_ilp_nodes));
    b += StringFormat("budget max_cuts %llu\n",
                      static_cast<unsigned long long>(options.max_cuts));
    b += StringFormat(
        "budget max_dnf_branches %llu\n",
        static_cast<unsigned long long>(options.max_dnf_branches));
    return b;
  };
  // This facade runs the LCTA/ILP pipeline directly (no inner frontend solve
  // to piggyback on), so it keys its own verdict-cache entries. Its verdicts
  // are witness-free counting results.
  SatPayloadCodec counting_only;
  counting_only.read = [](const std::string& payload, SatResult* out) {
    return payload.empty() && out->method == SatMethod::kCountingAbstraction;
  };
  return RunFacade<SatResult>(
      {.facade = names::kFacadeConstraintsKeyfk,
       .exec = options.exec,
       .body = body,
       .budgets = {{"max_ilp_nodes", options.max_ilp_nodes},
                   {"max_cuts", options.max_cuts},
                   {"max_dnf_branches", options.max_dnf_branches}},
       .threads = options.num_threads != 0
                      ? options.num_threads
                      : std::max(1u, std::thread::hardware_concurrency())},
      CachedSatCodec(SatMethod::kCountingAbstraction,
                     names::kModConstraintsKeyfkIlp, std::move(counting_only)),
      [&] {
        return CheckKeyForeignKeyConsistencyIlpImpl(schema, set, options);
      });
}

}  // namespace fo2dt
