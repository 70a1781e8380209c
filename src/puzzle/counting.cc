#include "puzzle/counting.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/execution_context.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/strings.h"

namespace fo2dt {

TreeAutomaton ProfileCoherenceAutomaton(const ExtAlphabet& ext) {
  // State = the profile code the node claims (and which must match the
  // profile component of its own letter, checked by its outgoing
  // transition).
  const size_t num_symbols = ext.profiled_size();
  TreeAutomaton a(num_symbols, kNumProfiles);
  for (uint32_t code = 0; code < kNumProfiles; ++code) {
    a.SetInitial(code);
    if (DecodeProfile(code).left_same) {
      a.SetNonFirst(code);  // claiming a same-data left neighbor needs one
    }
  }
  auto triangle_ok = [](bool v_parent_same, bool w_parent_same,
                        bool v_w_same) {
    int falses = (!v_parent_same) + (!w_parent_same) + (!v_w_same);
    return falses != 1;
  };
  for (Symbol s = 0; s < num_symbols; ++s) {
    NodeProfile p = DecodeProfile(ext.ProfileOf(s));
    uint32_t own = EncodeProfile(p);
    // Horizontal: v (profile p) followed by w; w's left_same must equal
    // v's right_same, and the (v, w, parent) data-equality triangle must be
    // consistent. Siblings always have a parent (the root has no siblings).
    for (uint32_t next_code = 0; next_code < kNumProfiles; ++next_code) {
      NodeProfile np = DecodeProfile(next_code);
      if (np.left_same != p.right_same) continue;
      if (!triangle_ok(p.parent_same, np.parent_same, p.right_same)) continue;
      a.AddHorizontal(own, s, next_code);
    }
    // Vertical: v is a last child, so it must not claim a right neighbor.
    if (!p.right_same) {
      for (uint32_t parent_code = 0; parent_code < kNumProfiles;
           ++parent_code) {
        a.AddVertical(own, s, parent_code);
      }
    }
    // Root: no parent, no siblings.
    if (!p.parent_same && !p.left_same && !p.right_same) {
      a.SetAccepting(own, s);
    }
  }
  return a;
}

namespace {

/// Region decomposition: letters grouped by their membership pattern across
/// the condition types.
struct Regions {
  /// region index per extended letter.
  std::vector<size_t> of_letter;
  /// membership[r][k]: region r lies inside type k.
  std::vector<std::vector<char>> membership;

  size_t count() const { return membership.size(); }
};

Regions ComputeRegions(const Puzzle& puzzle,
                       const std::vector<const TypeSet*>& types) {
  Regions out;
  out.of_letter.assign(puzzle.ext.size(), 0);
  std::map<std::vector<char>, size_t> index;
  for (ExtSymbol l = 0; l < puzzle.ext.size(); ++l) {
    std::vector<char> pattern(types.size());
    for (size_t k = 0; k < types.size(); ++k) {
      pattern[k] = TypeContains(*types[k], l);
    }
    auto [it, fresh] = index.emplace(pattern, index.size());
    if (fresh) out.membership.push_back(pattern);
    out.of_letter[l] = it->second;
  }
  return out;
}

/// Count bucket of a region within an abstract class type.
enum Bucket : int { kZero = 0, kOne = 1, kMany = 2 };

/// Whether the abstract class type satisfies every class condition. `types`
/// aligns with the condition list flattened as (alpha, beta?) entries via
/// `type_index`.
bool ClassTypeValid(const std::vector<int>& tau, const Regions& regions,
                    const std::vector<SimpleFormula>& conditions,
                    const std::vector<std::pair<size_t, size_t>>& type_index) {
  bool any_nonzero = false;
  for (int b : tau) any_nonzero |= b != kZero;
  if (!any_nonzero) return false;  // classes are nonempty
  for (size_t c = 0; c < conditions.size(); ++c) {
    const SimpleFormula& cond = conditions[c];
    auto count_in = [&](size_t type_k, bool* unbounded) {
      size_t total = 0;
      *unbounded = false;
      for (size_t r = 0; r < regions.count(); ++r) {
        if (!regions.membership[r][type_k]) continue;
        if (tau[r] == kOne) ++total;
        if (tau[r] == kMany) {
          total += 2;
          *unbounded = true;
        }
      }
      return total;
    };
    bool unbounded_a = false;
    size_t count_a = count_in(type_index[c].first, &unbounded_a);
    switch (cond.kind) {
      case SimpleFormula::Kind::kAtMostOne:
        if (count_a > 1 || unbounded_a) return false;
        break;
      case SimpleFormula::Kind::kNoCoexist: {
        bool unbounded_b = false;
        size_t count_b = count_in(type_index[c].second, &unbounded_b);
        if (count_a > 0 && count_b > 0) return false;
        break;
      }
      case SimpleFormula::Kind::kImpliesPresence: {
        bool unbounded_b = false;
        size_t count_b = count_in(type_index[c].second, &unbounded_b);
        if (count_a > 0 && count_b == 0) return false;
        break;
      }
      case SimpleFormula::Kind::kProfile:
        break;
    }
  }
  return true;
}

}  // namespace

Result<CountingResult> CheckPuzzleUnsatByCounting(
    const Puzzle& puzzle, const CountingOptions& options) {
  // Self time = region/class-type abstraction building; the LCTA emptiness
  // call below carries its own kLcta scope.
  ScopedPhase phase(Phase::kPuzzle, options.lcta.exec);
  CountingResult out;
  // Collect condition types (alpha, beta) with indices.
  std::vector<const TypeSet*> types;
  std::vector<std::pair<size_t, size_t>> type_index;  // per condition
  for (const SimpleFormula& c : puzzle.class_conditions) {
    size_t ai = types.size();
    types.push_back(&c.alpha);
    size_t bi = ai;
    if (c.kind == SimpleFormula::Kind::kNoCoexist ||
        c.kind == SimpleFormula::Kind::kImpliesPresence) {
      bi = types.size();
      types.push_back(&c.beta);
    }
    type_index.emplace_back(ai, bi);
  }
  Regions regions = ComputeRegions(puzzle, types);
  out.num_regions = regions.count();

  // Enumerate abstract class types tau : regions -> {0, 1, many}.
  std::vector<std::vector<int>> valid_types;
  {
    double total = std::pow(3.0, static_cast<double>(regions.count()));
    if (total > 4e6) {
      out.verdict = CountingVerdict::kInconclusive;
      return out;  // abstraction too large to enumerate
    }
    std::vector<int> tau(regions.count(), kZero);
    // Up to 4e6 combinations (guarded above): poll the governor so a
    // deadline or cancellation can cut the enumeration short.
    ExecCheckpoint checkpoint(options.lcta.exec, nullptr,
                              names::kModPuzzleCounting);
    for (;;) {
      FO2DT_RETURN_NOT_OK(checkpoint.Tick());
      if (ClassTypeValid(tau, regions, puzzle.class_conditions, type_index)) {
        valid_types.push_back(tau);
        if (valid_types.size() > options.max_class_types) {
          out.verdict = CountingVerdict::kInconclusive;
          out.num_class_types = valid_types.size();
          return out;
        }
      }
      size_t i = 0;
      // fo2dt-lint: allow(no-checkpoint, odometer carry bounded by the region count)
      while (i < tau.size()) {
        if (++tau[i] <= kMany) break;
        tau[i] = kZero;
        ++i;
      }
      if (i == tau.size()) break;
    }
  }
  out.num_class_types = valid_types.size();

  // Restrict the language to realizable profiled trees.
  FO2DT_ASSIGN_OR_RETURN(
      TreeAutomaton realizable,
      TreeAutomaton::Intersect(puzzle.language,
                               ProfileCoherenceAutomaton(puzzle.ext)));

  // LCTA variable blocks: states | symbol counts | aux.
  // Aux layout: m_tau per valid type, then one slack per (tau, many-region).
  const VarId q = static_cast<VarId>(realizable.num_states());
  const VarId num_symbols = static_cast<VarId>(realizable.num_symbols());
  const VarId aux_base = q + num_symbols;
  std::vector<VarId> m_var(valid_types.size());
  std::vector<std::map<size_t, VarId>> slack_var(valid_types.size());
  VarId next_aux = aux_base;
  for (size_t ti = 0; ti < valid_types.size(); ++ti) {
    m_var[ti] = next_aux++;
    for (size_t r = 0; r < regions.count(); ++r) {
      if (valid_types[ti][r] == kMany) slack_var[ti][r] = next_aux++;
    }
  }

  std::vector<LinearConstraint> parts;
  // Region balance: total letters in region r == contributions of classes.
  for (size_t r = 0; r < regions.count(); ++r) {
    LinearExpr e;
    for (ExtSymbol l = 0; l < puzzle.ext.size(); ++l) {
      if (regions.of_letter[l] != r) continue;
      for (uint32_t p = 0; p < kNumProfiles; ++p) {
        e.AddTerm(q + static_cast<VarId>(puzzle.ext.Profiled(l, p)), BigInt(1));
      }
    }
    for (size_t ti = 0; ti < valid_types.size(); ++ti) {
      int b = valid_types[ti][r];
      if (b == kOne) e.AddTerm(m_var[ti], BigInt(-1));
      if (b == kMany) {
        e.AddTerm(m_var[ti], BigInt(-2));
        e.AddTerm(slack_var[ti].at(r), BigInt(-1));
      }
    }
    parts.push_back(LinearConstraint::Eq(std::move(e)));
  }
  // Singleton refinement: nodes whose profile claims any same-data neighbor
  // live in classes of size >= 2, so the nodes with an all-different profile
  // must suffice to populate every singleton class.
  {
    LinearExpr e;
    for (ExtSymbol l = 0; l < puzzle.ext.size(); ++l) {
      e.AddTerm(q + static_cast<VarId>(puzzle.ext.Profiled(l, 0)), BigInt(1));
    }
    for (size_t ti = 0; ti < valid_types.size(); ++ti) {
      size_t ones = 0;
      size_t manys = 0;
      for (size_t r = 0; r < regions.count(); ++r) {
        if (valid_types[ti][r] == kOne) ++ones;
        if (valid_types[ti][r] == kMany) ++manys;
      }
      if (ones == 1 && manys == 0) e.AddTerm(m_var[ti], BigInt(-1));
    }
    parts.push_back(LinearConstraint::Ge(std::move(e)));
  }

  Lcta lcta;
  lcta.automaton = std::move(realizable);
  lcta.constraint = LinearConstraint::And(std::move(parts));
  lcta.use_symbol_counts = true;
  lcta.num_aux = next_aux - aux_base;
  FO2DT_ASSIGN_OR_RETURN(LctaEmptinessResult r,
                         CheckLctaEmptiness(lcta, options.lcta));
  out.ilp_nodes = r.ilp_nodes;
  out.verdict =
      r.empty ? CountingVerdict::kUnsat : CountingVerdict::kInconclusive;
  return out;
}

}  // namespace fo2dt
