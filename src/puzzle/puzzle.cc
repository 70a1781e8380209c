#include "puzzle/puzzle.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/metrics.h"
#include "common/strings.h"
#include "datatree/zones.h"

namespace fo2dt {

Result<Puzzle> PuzzleFromBlock(const DnfBlock& block, const ExtAlphabet& ext) {
  ScopedPhase phase(Phase::kPuzzle);
  Puzzle out;
  out.ext = ext;
  const size_t num_profiled = ext.profiled_size();
  out.language = TreeAutomaton::Universal(num_profiled);
  for (const TreeAutomaton& a : block.regular) {
    if (a.num_symbols() != num_profiled) {
      return Status::InvalidArgument(
          "regular constraint alphabet does not match the profiled extended "
          "alphabet");
    }
    FO2DT_ASSIGN_OR_RETURN(out.language,
                           TreeAutomaton::Intersect(out.language, a));
  }
  for (const SimpleFormula& s : block.simples) {
    if (s.kind == SimpleFormula::Kind::kProfile) {
      // (e): positions of type alpha only take profiles in the mask; a
      // letter-filter automaton over the profiled alphabet.
      std::vector<bool> allowed(num_profiled, true);
      for (ExtSymbol l = 0; l < ext.size(); ++l) {
        if (!TypeContains(s.alpha, l)) continue;
        for (uint32_t p = 0; p < kNumProfiles; ++p) {
          if (!(s.profile_mask & (1u << p))) {
            allowed[ext.Profiled(l, p)] = false;
          }
        }
      }
      TreeAutomaton filter = TreeAutomaton::LabelFilter(num_profiled, allowed);
      FO2DT_ASSIGN_OR_RETURN(out.language,
                             TreeAutomaton::Intersect(out.language, filter));
    } else {
      out.class_conditions.push_back(s);
    }
  }
  return out;
}

Result<bool> IsPuzzleSolution(const Puzzle& puzzle, const DataTree& t,
                              const PredInterpretation& interp) {
  FO2DT_ASSIGN_OR_RETURN(DataTree profiled,
                         BuildExtProfiledTree(t, puzzle.ext, interp));
  if (!puzzle.language.Accepts(profiled)) return false;
  for (const SimpleFormula& s : puzzle.class_conditions) {
    FO2DT_ASSIGN_OR_RETURN(bool ok, EvaluateSimple(s, t, puzzle.ext, interp));
    if (!ok) return false;
  }
  return true;
}

namespace {

bool AnyIn(const TypeSet& type, const TypeSet& set) {
  for (size_t i = 0; i < type.size(); ++i) {
    if (type[i] && set[i]) return true;
  }
  return false;
}

size_t CountIn(const TypeSet& type, const TypeSet& set) {
  size_t n = 0;
  for (size_t i = 0; i < type.size(); ++i) {
    if (type[i] && set[i]) ++n;
  }
  return n;
}

}  // namespace

bool PairSatisfiesConditions(const AcceptingPair& pair,
                             const std::vector<SimpleFormula>& conditions) {
  for (const SimpleFormula& c : conditions) {
    switch (c.kind) {
      case SimpleFormula::Kind::kAtMostOne:
        if (AnyIn(c.alpha, pair.sheep)) return false;
        if (CountIn(c.alpha, pair.dogs) > 1) return false;
        break;
      case SimpleFormula::Kind::kNoCoexist: {
        bool possible_a = AnyIn(c.alpha, pair.dogs) || AnyIn(c.alpha, pair.sheep);
        bool possible_b = AnyIn(c.beta, pair.dogs) || AnyIn(c.beta, pair.sheep);
        if (possible_a && possible_b) return false;
        break;
      }
      case SimpleFormula::Kind::kImpliesPresence: {
        bool possible_a = AnyIn(c.alpha, pair.dogs) || AnyIn(c.alpha, pair.sheep);
        bool guaranteed_b = AnyIn(c.beta, pair.dogs);
        if (possible_a && !guaranteed_b) return false;
        break;
      }
      case SimpleFormula::Kind::kProfile:
        break;  // folded into L, not part of F
    }
  }
  return true;
}

bool ClassConformsToPair(const std::vector<size_t>& letter_counts,
                         const AcceptingPair& pair) {
  for (size_t l = 0; l < letter_counts.size(); ++l) {
    bool dog = l < pair.dogs.size() && pair.dogs[l];
    bool sheep = l < pair.sheep.size() && pair.sheep[l];
    if (dog) {
      if (letter_counts[l] != 1) return false;  // dogs occur exactly once
    } else if (!sheep && letter_counts[l] != 0) {
      return false;  // letters outside D ∪ S are forbidden
    }
  }
  return true;
}

Result<DnfBlock> NormalizeImpliesPresence(const DnfBlock& block,
                                          ExtAlphabet* ext) {
  size_t num_markers = 0;
  for (const SimpleFormula& s : block.simples) {
    if (s.kind == SimpleFormula::Kind::kImpliesPresence) ++num_markers;
  }
  if (num_markers == 0) return block;
  ExtAlphabet old = *ext;
  ExtAlphabet grown = old;
  grown.num_preds += static_cast<PredId>(num_markers);
  if (grown.num_preds > 20) {
    return Status::ResourceExhausted(StringFormat(
        "marker normalization in puzzle.normalize would exceed the predicate "
        "budget: %u of 20 predicates",
        static_cast<unsigned>(grown.num_preds)));
  }

  // Embedding: a grown letter maps to the old letter by dropping marker bits.
  auto embed_type = [&](const TypeSet& t) {
    TypeSet out(grown.size(), 0);
    for (ExtSymbol s = 0; s < grown.size(); ++s) {
      ExtSymbol base = old.Make(grown.LabelOf(s),
                                grown.BitsOf(s) & ((1u << old.num_preds) - 1));
      out[s] = t[base];
    }
    return out;
  };
  auto marker_type = [&](PredId marker) {
    TypeSet out(grown.size(), 0);
    for (ExtSymbol s = 0; s < grown.size(); ++s) {
      out[s] = (grown.BitsOf(s) >> marker) & 1u;
    }
    return out;
  };

  DnfBlock out;
  // Re-embed automata: each automaton over the old profiled alphabet becomes
  // one over the grown profiled alphabet by duplicating transitions over all
  // marker-bit patterns.
  for (const TreeAutomaton& a : block.regular) {
    TreeAutomaton b(grown.profiled_size(), a.num_states());
    const uint32_t marker_patterns = 1u << num_markers;
    auto lift = [&](Symbol old_profiled) {
      // old profiled symbol = old ext letter * 8 + profile.
      ExtSymbol old_letter = old.ExtOf(old_profiled);
      uint32_t profile = old.ProfileOf(old_profiled);
      std::vector<Symbol> lifted;
      for (uint32_t m = 0; m < marker_patterns; ++m) {
        ExtSymbol grown_letter =
            grown.Make(old.LabelOf(old_letter),
                       old.BitsOf(old_letter) | (m << old.num_preds));
        lifted.push_back(grown.Profiled(grown_letter, profile));
      }
      return lifted;
    };
    for (const auto& [f, sym, to] : a.horizontal()) {
      for (Symbol s : lift(sym)) b.AddHorizontal(f, s, to);
    }
    for (const auto& [f, sym, to] : a.vertical()) {
      for (Symbol s : lift(sym)) b.AddVertical(f, s, to);
    }
    for (TreeState q : a.initial()) b.SetInitial(q);
    for (TreeState q : a.non_first()) b.SetNonFirst(q);
    for (const auto& [q, sym] : a.accepting()) {
      for (Symbol s : lift(sym)) b.SetAccepting(q, s);
    }
    out.regular.push_back(std::move(b));
  }

  PredId next_marker = old.num_preds;
  for (const SimpleFormula& s : block.simples) {
    if (s.kind != SimpleFormula::Kind::kImpliesPresence) {
      SimpleFormula lifted = s;
      lifted.alpha = embed_type(s.alpha);
      if (!s.beta.empty()) lifted.beta = embed_type(s.beta);
      out.simples.push_back(std::move(lifted));
      continue;
    }
    TypeSet beta_marked =
        TypeIntersect(embed_type(s.beta), marker_type(next_marker));
    SimpleFormula at_most_one;
    at_most_one.kind = SimpleFormula::Kind::kAtMostOne;
    at_most_one.alpha = beta_marked;
    out.simples.push_back(std::move(at_most_one));
    SimpleFormula implies;
    implies.kind = SimpleFormula::Kind::kImpliesPresence;
    implies.alpha = embed_type(s.alpha);
    implies.beta = beta_marked;
    out.simples.push_back(std::move(implies));
    ++next_marker;
  }
  *ext = grown;
  return out;
}

namespace {

/// Per-condition tracker automaton for the accepting-pair DP. States are
/// small ints; kDead rejects.
struct Tracker {
  static constexpr int kDead = -1;
  const SimpleFormula* condition;

  int num_states() const {
    switch (condition->kind) {
      case SimpleFormula::Kind::kAtMostOne:
        return 2;  // 0/1 dog letters of type alpha seen
      default:
        return 4;  // two presence bits
    }
  }
  int initial() const { return 0; }

  /// choice: 0 = absent, 1 = dog, 2 = sheep.
  int Step(int state, ExtSymbol letter, int choice) const {
    if (choice == 0) return state;
    bool in_a = TypeContains(condition->alpha, letter);
    bool in_b = condition->kind != SimpleFormula::Kind::kAtMostOne &&
                TypeContains(condition->beta, letter);
    switch (condition->kind) {
      case SimpleFormula::Kind::kAtMostOne:
        if (!in_a) return state;
        if (choice == 2) return kDead;  // alpha letters may not be sheep
        return state == 0 ? 1 : kDead;
      case SimpleFormula::Kind::kNoCoexist: {
        int s = state;
        if (in_a) s |= 1;  // alpha possible
        if (in_b) s |= 2;  // beta possible
        return s;
      }
      case SimpleFormula::Kind::kImpliesPresence: {
        int s = state;
        if (in_a) s |= 1;                  // alpha possible
        if (in_b && choice == 1) s |= 2;   // beta guaranteed via a dog
        return s;
      }
      case SimpleFormula::Kind::kProfile:
        return state;
    }
    return state;
  }

  bool Accepts(int state) const {
    switch (condition->kind) {
      case SimpleFormula::Kind::kAtMostOne:
        return true;  // death handled in Step
      case SimpleFormula::Kind::kNoCoexist:
        return state != 3;
      case SimpleFormula::Kind::kImpliesPresence:
        return (state & 1) == 0 || (state & 2) != 0;
      case SimpleFormula::Kind::kProfile:
        return true;
    }
    return true;
  }
};

}  // namespace

BigInt CountAcceptingPairs(const Puzzle& puzzle) {
  std::vector<Tracker> trackers;
  for (const SimpleFormula& c : puzzle.class_conditions) {
    if (c.kind != SimpleFormula::Kind::kProfile) trackers.push_back({&c});
  }
  // DP over letters; composite state = vector of tracker states.
  std::map<std::vector<int>, BigInt> dp;
  std::vector<int> init(trackers.size());
  for (size_t i = 0; i < trackers.size(); ++i) init[i] = trackers[i].initial();
  dp[init] = BigInt(1);
  for (ExtSymbol l = 0; l < puzzle.ext.size(); ++l) {
    std::map<std::vector<int>, BigInt> next;
    for (const auto& [state, count] : dp) {
      for (int choice = 0; choice < 3; ++choice) {
        std::vector<int> ns = state;
        bool dead = false;
        for (size_t i = 0; i < trackers.size(); ++i) {
          ns[i] = trackers[i].Step(state[i], l, choice);
          if (ns[i] == Tracker::kDead) {
            dead = true;
            break;
          }
        }
        if (dead) continue;
        next[ns] += count;
      }
    }
    dp = std::move(next);
  }
  BigInt total(0);
  for (const auto& [state, count] : dp) {
    bool ok = true;
    for (size_t i = 0; i < trackers.size(); ++i) {
      if (!trackers[i].Accepts(state[i])) {
        ok = false;
        break;
      }
    }
    if (ok) total += count;
  }
  return total;
}

namespace {

BigInt BigIntPow(const BigInt& base, uint64_t exp) {
  BigInt result(1);
  BigInt b = base;
  // fo2dt-lint: allow(no-checkpoint, square-and-multiply runs at most 64 iterations)
  while (exp > 0) {
    if (exp & 1) result *= b;
    b *= b;
    exp >>= 1;
  }
  return result;
}

}  // namespace

TableIConstants ComputeTableIConstants(const Puzzle& puzzle) {
  TableIConstants out;
  const uint64_t q = puzzle.language.num_states();
  const uint64_t sigma = puzzle.ext.profiled_size();
  out.f_size = CountAcceptingPairs(puzzle);
  BigInt q_pow_q = BigIntPow(BigInt(static_cast<int64_t>(q)), q);
  out.m1 = out.f_size * q_pow_q;
  out.m2 = out.m1;
  out.m3 = out.m1;
  out.n1 = BigInt(static_cast<int64_t>(q * q * sigma));
  out.n2 = BigInt(static_cast<int64_t>(sigma * q * q * q));
  out.n3 = BigInt(static_cast<int64_t>(sigma * q * q));
  out.m = out.m1 + out.m2 + out.m3;
  // N = (N1 * N2)^(N3 + 1); only materialized when it stays manageable.
  BigInt base = out.n1 * out.n2;
  double log10_base = std::log10(std::max(1.0, base.ToDouble()));
  uint64_t exp = static_cast<uint64_t>(sigma * q * q + 1);
  double digits = log10_base * static_cast<double>(exp);
  out.n_digits = static_cast<size_t>(digits) + 1;
  if (digits < 20000 && !base.IsZero()) {
    out.n = BigIntPow(base, exp);
    out.n_digits = out.n.ToString().size();
  } else {
    out.n = BigInt(0);  // too large to materialize; see n_digits
  }
  return out;
}

}  // namespace fo2dt
