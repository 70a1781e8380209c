#include "logic/dnf.h"

#include <map>

#include "common/metrics.h"
#include "common/strings.h"
#include "datatree/zones.h"

namespace fo2dt {

std::string ExtAlphabet::Name(ExtSymbol s, const Alphabet& labels) const {
  Symbol l = LabelOf(s);
  std::string out =
      l < labels.size() ? labels.Name(l) : StringFormat("sym%u", l);
  uint32_t bits = BitsOf(s);
  if (bits) {
    out += "{";
    bool first = true;
    for (PredId p = 0; p < num_preds; ++p) {
      if (bits & (1u << p)) {
        if (!first) out += ",";
        first = false;
        out += StringFormat("R%u", p);
      }
    }
    out += "}";
  }
  return out;
}

TypeSet FullType(const ExtAlphabet& ext) { return TypeSet(ext.size(), 1); }

TypeSet TypeIntersect(const TypeSet& a, const TypeSet& b) {
  TypeSet out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] && b[i];
  return out;
}

TypeSet TypeUnion(const TypeSet& a, const TypeSet& b) {
  TypeSet out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] || b[i];
  return out;
}

TypeSet TypeComplement(const TypeSet& a) {
  TypeSet out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = !a[i];
  return out;
}

namespace {

Result<TypeSet> TypeFromFormulaImpl(const Formula& f, const ExtAlphabet& ext) {
  using Kind = Formula::Kind;
  switch (f.kind()) {
    case Kind::kTrue:
      return FullType(ext);
    case Kind::kFalse:
      return TypeSet(ext.size(), 0);
    case Kind::kLabel: {
      TypeSet out(ext.size(), 0);
      for (ExtSymbol s = 0; s < ext.size(); ++s) {
        out[s] = ext.LabelOf(s) == f.symbol();
      }
      return out;
    }
    case Kind::kPred: {
      if (f.pred() >= ext.num_preds) {
        return Status::InvalidArgument(
            StringFormat("type uses predicate $%u beyond alphabet", f.pred()));
      }
      TypeSet out(ext.size(), 0);
      for (ExtSymbol s = 0; s < ext.size(); ++s) {
        out[s] = (ext.BitsOf(s) >> f.pred()) & 1u;
      }
      return out;
    }
    case Kind::kNot: {
      FO2DT_ASSIGN_OR_RETURN(TypeSet sub, TypeFromFormulaImpl(f.child(0), ext));
      return TypeComplement(sub);
    }
    case Kind::kAnd:
    case Kind::kOr: {
      FO2DT_ASSIGN_OR_RETURN(TypeSet acc, TypeFromFormulaImpl(f.child(0), ext));
      for (size_t i = 1; i < f.children().size(); ++i) {
        FO2DT_ASSIGN_OR_RETURN(TypeSet next,
                               TypeFromFormulaImpl(f.child(i), ext));
        acc = f.kind() == Kind::kAnd ? TypeIntersect(acc, next)
                                     : TypeUnion(acc, next);
      }
      return acc;
    }
    default:
      return Status::InvalidArgument(
          "type formulas may only use unary atoms and boolean connectives");
  }
}

}  // namespace

Result<TypeSet> TypeFromFormula(const Formula& f, const ExtAlphabet& ext) {
  ScopedPhase phase(Phase::kDnf);
  return TypeFromFormulaImpl(f, ext);
}

bool TypeEmpty(const TypeSet& a) {
  for (char c : a) {
    if (c) return false;
  }
  return true;
}

bool TypeContains(const TypeSet& a, ExtSymbol s) {
  return s < a.size() && a[s] != 0;
}

std::string SimpleFormula::ToString(const ExtAlphabet& ext,
                                    const Alphabet& labels) const {
  auto render = [&](const TypeSet& t) {
    std::vector<std::string> names;
    for (ExtSymbol s = 0; s < t.size(); ++s) {
      if (t[s]) names.push_back(ext.Name(s, labels));
    }
    return "{" + JoinToString(names, ",") + "}";
  };
  switch (kind) {
    case Kind::kAtMostOne:
      return "at-most-one" + render(alpha);
    case Kind::kNoCoexist:
      return "no-coexist(" + render(alpha) + ", " + render(beta) + ")";
    case Kind::kImpliesPresence:
      return "implies-presence(" + render(alpha) + ", " + render(beta) + ")";
    case Kind::kProfile:
      return StringFormat("profile(%s, mask=%02x)", render(alpha).c_str(),
                          profile_mask);
  }
  return "?";
}

namespace {

/// The extended letter of node v under interp.
Result<ExtSymbol> LetterOf(const DataTree& t, NodeId v, const ExtAlphabet& ext,
                           const PredInterpretation& interp) {
  if (t.label(v) >= ext.num_labels) {
    return Status::InvalidArgument(
        StringFormat("node %u has label beyond the extended alphabet", v));
  }
  uint32_t bits = 0;
  if (interp.membership.size() < ext.num_preds) {
    return Status::InvalidArgument("interpretation has too few predicates");
  }
  for (PredId p = 0; p < ext.num_preds; ++p) {
    if (interp.membership[p][v]) bits |= 1u << p;
  }
  return ext.Make(t.label(v), bits);
}

}  // namespace

Result<DataTree> BuildExtProfiledTree(const DataTree& t, const ExtAlphabet& ext,
                                      const PredInterpretation& interp) {
  DataTree out;
  for (NodeId v = 0; v < t.size(); ++v) {
    FO2DT_ASSIGN_OR_RETURN(ExtSymbol letter, LetterOf(t, v, ext, interp));
    Symbol sym = ext.Profiled(letter, EncodeProfile(t.ProfileOf(v)));
    if (t.parent(v) == kNoNode) {
      FO2DT_RETURN_NOT_OK(out.CreateRoot(sym, t.data(v)).status());
    } else {
      FO2DT_RETURN_NOT_OK(out.AppendChild(t.parent(v), sym, t.data(v)).status());
    }
  }
  return out;
}

Result<bool> EvaluateSimple(const SimpleFormula& simple, const DataTree& t,
                            const ExtAlphabet& ext,
                            const PredInterpretation& interp) {
  std::vector<ExtSymbol> letters(t.size());
  for (NodeId v = 0; v < t.size(); ++v) {
    FO2DT_ASSIGN_OR_RETURN(letters[v], LetterOf(t, v, ext, interp));
  }
  if (simple.kind == SimpleFormula::Kind::kProfile) {
    for (NodeId v = 0; v < t.size(); ++v) {
      if (!TypeContains(simple.alpha, letters[v])) continue;
      uint32_t code = EncodeProfile(t.ProfileOf(v));
      if (!(simple.profile_mask & (1u << code))) return false;
    }
    return true;
  }
  ClassPartition classes = ComputeClasses(t);
  for (const auto& [value, members] : classes.classes) {
    (void)value;
    size_t count_alpha = 0;
    size_t count_beta = 0;
    for (NodeId v : members) {
      if (TypeContains(simple.alpha, letters[v])) ++count_alpha;
      if (simple.kind != SimpleFormula::Kind::kAtMostOne &&
          TypeContains(simple.beta, letters[v])) {
        ++count_beta;
      }
    }
    switch (simple.kind) {
      case SimpleFormula::Kind::kAtMostOne:
        if (count_alpha > 1) return false;
        break;
      case SimpleFormula::Kind::kNoCoexist:
        if (count_alpha > 0 && count_beta > 0) return false;
        break;
      case SimpleFormula::Kind::kImpliesPresence:
        if (count_alpha > 0 && count_beta == 0) return false;
        break;
      case SimpleFormula::Kind::kProfile:
        break;
    }
  }
  return true;
}

Result<bool> EvaluateBlock(const DnfBlock& block, const DataTree& t,
                           const ExtAlphabet& ext,
                           const PredInterpretation& interp) {
  FO2DT_ASSIGN_OR_RETURN(DataTree profiled,
                         BuildExtProfiledTree(t, ext, interp));
  for (const TreeAutomaton& a : block.regular) {
    if (!a.Accepts(profiled)) return false;
  }
  for (const SimpleFormula& s : block.simples) {
    FO2DT_ASSIGN_OR_RETURN(bool ok, EvaluateSimple(s, t, ext, interp));
    if (!ok) return false;
  }
  return true;
}

Result<bool> EvaluateDnfBruteForce(const DataNormalForm& dnf, const DataTree& t,
                                   size_t max_bits) {
  const size_t n = t.size();
  const size_t bits = dnf.ext.num_preds * n;
  if (bits > max_bits) {
    return Status::ResourceExhausted(
        StringFormat("DNF brute force needs %zu bits > cap %zu", bits,
                     max_bits));
  }
  const uint64_t limit = 1ULL << bits;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    PredInterpretation interp =
        PredInterpretation::Empty(dnf.ext.num_preds, n);
    for (size_t b = 0; b < bits; ++b) {
      if (mask & (1ULL << b)) interp.membership[b / n][b % n] = 1;
    }
    for (const DnfBlock& block : dnf.blocks) {
      FO2DT_ASSIGN_OR_RETURN(bool ok, EvaluateBlock(block, t, dnf.ext, interp));
      if (ok) return true;
    }
  }
  return false;
}

namespace {

/// FO² formula "the letter of v is in the type set".
Formula TypeAtom(const TypeSet& type, const ExtAlphabet& ext, Var v) {
  std::vector<Formula> options;
  for (ExtSymbol s = 0; s < type.size(); ++s) {
    if (!type[s]) continue;
    std::vector<Formula> conj;
    conj.push_back(Formula::Label(ext.LabelOf(s), v));
    for (PredId p = 0; p < ext.num_preds; ++p) {
      Formula atom = Formula::Pred(p, v);
      conj.push_back((ext.BitsOf(s) >> p) & 1u ? atom : Formula::Not(atom));
    }
    options.push_back(Formula::And(std::move(conj)));
  }
  return Formula::Or(std::move(options));
}

/// FO² formula expressing that x has profile `code`.
Formula ProfileAtom(uint32_t code) {
  NodeProfile p = DecodeProfile(code);
  auto has = [](Axis axis, bool forward) {
    // forward: edge from x to y (right neighbor/child-of-x); here we need
    // parent and left/right neighbors of x:
    //   parent_same: ∃y child(y,x) ∧ x~y
    //   left_same:   ∃y next(y,x) ∧ x~y
    //   right_same:  ∃y next(x,y) ∧ x~y
    Formula edge = forward ? Formula::Edge(axis, Var::kX, Var::kY)
                           : Formula::Edge(axis, Var::kY, Var::kX);
    return Formula::Exists(
        Var::kY, Formula::And(edge, Formula::SameData(Var::kX, Var::kY)));
  };
  std::vector<Formula> conj;
  Formula parent_same = has(Axis::kChild, false);
  Formula left_same = has(Axis::kNextSibling, false);
  Formula right_same = has(Axis::kNextSibling, true);
  conj.push_back(p.parent_same ? parent_same : Formula::Not(parent_same));
  conj.push_back(p.left_same ? left_same : Formula::Not(left_same));
  conj.push_back(p.right_same ? right_same : Formula::Not(right_same));
  return Formula::And(std::move(conj));
}

}  // namespace

Formula SimpleToFormula(const SimpleFormula& simple, const ExtAlphabet& ext) {
  Formula ax = TypeAtom(simple.alpha, ext, Var::kX);
  switch (simple.kind) {
    case SimpleFormula::Kind::kAtMostOne: {
      Formula ay = TypeAtom(simple.alpha, ext, Var::kY);
      Formula bad = Formula::And(
          {ax, ay, Formula::SameData(Var::kX, Var::kY),
           Formula::Not(Formula::Equal(Var::kX, Var::kY))});
      return Formula::Forall(
          Var::kX, Formula::Forall(Var::kY, Formula::Not(std::move(bad))));
    }
    case SimpleFormula::Kind::kNoCoexist: {
      Formula by = TypeAtom(simple.beta, ext, Var::kY);
      Formula bad =
          Formula::And({ax, by, Formula::SameData(Var::kX, Var::kY)});
      return Formula::Forall(
          Var::kX, Formula::Forall(Var::kY, Formula::Not(std::move(bad))));
    }
    case SimpleFormula::Kind::kImpliesPresence: {
      Formula by = TypeAtom(simple.beta, ext, Var::kY);
      Formula witness = Formula::Exists(
          Var::kY, Formula::And(Formula::SameData(Var::kX, Var::kY), by));
      return Formula::Forall(Var::kX,
                             Formula::Implies(std::move(ax), std::move(witness)));
    }
    case SimpleFormula::Kind::kProfile: {
      std::vector<Formula> allowed;
      for (uint32_t code = 0; code < kNumProfiles; ++code) {
        if (simple.profile_mask & (1u << code)) allowed.push_back(ProfileAtom(code));
      }
      return Formula::Forall(
          Var::kX, Formula::Implies(std::move(ax), Formula::Or(std::move(allowed))));
    }
  }
  return Formula::True();
}

}  // namespace fo2dt
