#include "logic/scott.h"

#include "common/metrics.h"
#include "common/strings.h"

namespace fo2dt {

Result<Formula> SwapVars(const Formula& f) {
  using Kind = Formula::Kind;
  switch (f.kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
      return f;
    case Kind::kLabel:
      return Formula::Label(f.symbol(), OtherVar(f.var()));
    case Kind::kPred:
      return Formula::Pred(f.pred(), OtherVar(f.var()));
    case Kind::kSameData:
      return Formula::SameData(OtherVar(f.var()), OtherVar(f.var2()));
    case Kind::kEqual:
      return Formula::Equal(OtherVar(f.var()), OtherVar(f.var2()));
    case Kind::kEdge:
      return Formula::Edge(f.axis(), OtherVar(f.var()), OtherVar(f.var2()));
    case Kind::kNot: {
      FO2DT_ASSIGN_OR_RETURN(Formula c, SwapVars(f.child(0)));
      return Formula::Not(std::move(c));
    }
    case Kind::kAnd:
    case Kind::kOr: {
      std::vector<Formula> parts;
      parts.reserve(f.children().size());
      for (const Formula& c : f.children()) {
        FO2DT_ASSIGN_OR_RETURN(Formula s, SwapVars(c));
        parts.push_back(std::move(s));
      }
      return f.kind() == Kind::kAnd ? Formula::And(std::move(parts))
                                    : Formula::Or(std::move(parts));
    }
    case Kind::kExists:
    case Kind::kForall:
      return Status::InvalidArgument("SwapVars requires a quantifier-free formula");
  }
  return Status::Internal("unreachable in SwapVars");
}

namespace {

/// Rewriting state shared across the recursion.
struct ScottBuilder {
  PredId next_pred;
  std::vector<Formula> universal_clauses;  // each quantifier-free over {x,y}
  std::vector<Formula> witness_clauses;    // each asserts ∀x∃y clause

  /// Normalizes a quantifier-free clause with free variables ⊆ {v} into one
  /// over {x}: used before wrapping into ∀x∃y form.
  Result<Formula> NormalizeToX(const Formula& f) {
    uint8_t fv = f.FreeVars();
    if (fv & (1u << static_cast<uint8_t>(Var::kY))) {
      // Uses y (and not x, by caller contract): swap.
      return SwapVars(f);
    }
    return f;
  }

  /// Replaces the innermost quantified subformulas of \p f (in NNF) by fresh
  /// predicate atoms, collecting defining clauses. Returns the rewritten,
  /// quantifier-free formula.
  Result<Formula> Rewrite(const Formula& f) {
    using Kind = Formula::Kind;
    switch (f.kind()) {
      case Kind::kTrue:
      case Kind::kFalse:
      case Kind::kLabel:
      case Kind::kPred:
      case Kind::kSameData:
      case Kind::kEqual:
      case Kind::kEdge:
        return f;
      case Kind::kNot: {
        FO2DT_ASSIGN_OR_RETURN(Formula c, Rewrite(f.child(0)));
        return Formula::Not(std::move(c));
      }
      case Kind::kAnd:
      case Kind::kOr: {
        std::vector<Formula> parts;
        parts.reserve(f.children().size());
        for (const Formula& c : f.children()) {
          FO2DT_ASSIGN_OR_RETURN(Formula r, Rewrite(c));
          parts.push_back(std::move(r));
        }
        return f.kind() == Kind::kAnd ? Formula::And(std::move(parts))
                                      : Formula::Or(std::move(parts));
      }
      case Kind::kExists:
      case Kind::kForall: {
        // First make the body quantifier-free.
        FO2DT_ASSIGN_OR_RETURN(Formula body, Rewrite(f.child(0)));
        const Var bound = f.var();
        const Var other = OtherVar(bound);
        // θ = Q bound . body, free vars ⊆ {other}. Introduce R(other) with
        // R(other) <-> θ.
        PredId r = next_pred++;
        Formula r_other = Formula::Pred(r, other);
        if (f.kind() == Kind::kExists) {
          // ¬R(other) → ¬body  for all bound:   ∀∀ (R(other) ∨ ¬body)
          universal_clauses.push_back(
              Formula::Or(r_other, Formula::Not(body)));
          // R(other) → ∃bound body:   ∀other ∃bound (¬R(other) ∨ body)
          Formula clause = Formula::Or(Formula::Not(r_other), body);
          if (bound == Var::kY) {
            // Already ∀x∃y shaped if other==x.
            FO2DT_ASSIGN_OR_RETURN(Formula c, NormalizeWitness(clause, other));
            witness_clauses.push_back(std::move(c));
          } else {
            // ∀y∃x clause: swap variables to get ∀x∃y.
            FO2DT_ASSIGN_OR_RETURN(Formula swapped, SwapVars(clause));
            witness_clauses.push_back(std::move(swapped));
          }
        } else {
          // θ = ∀bound body.
          // R(other) → body for all bound:   ∀∀ (¬R(other) ∨ body)
          universal_clauses.push_back(
              Formula::Or(Formula::Not(r_other), body));
          // ¬R(other) → ∃bound ¬body:  witness clause (R(other) ∨ ¬body)
          Formula clause = Formula::Or(r_other, Formula::Not(body));
          if (bound == Var::kY) {
            FO2DT_ASSIGN_OR_RETURN(Formula c, NormalizeWitness(clause, other));
            witness_clauses.push_back(std::move(c));
          } else {
            FO2DT_ASSIGN_OR_RETURN(Formula swapped, SwapVars(clause));
            witness_clauses.push_back(std::move(swapped));
          }
        }
        return r_other;
      }
    }
    return Status::Internal("unreachable in Scott rewrite");
  }

  /// For a witness clause whose universally quantified variable is `other`
  /// (must be x here) ensure shape over (x free, y bound).
  Result<Formula> NormalizeWitness(const Formula& clause, Var other) {
    if (other == Var::kX) return clause;
    return SwapVars(clause);
  }
};

}  // namespace

Result<ScottNormalForm> ToScottNormalForm(const Formula& sentence,
                                          PredId num_existing_preds) {
  ScopedPhase phase(Phase::kScott);
  if (!sentence.IsSentence()) {
    return Status::InvalidArgument("Scott normal form requires a sentence");
  }
  ScottBuilder builder;
  builder.next_pred = std::max(num_existing_preds, sentence.NumPredsSpanned());
  PredId first_fresh = builder.next_pred;
  FO2DT_ASSIGN_OR_RETURN(Formula top, builder.Rewrite(sentence.ToNnf()));
  // `top` is quantifier-free; as the original was a sentence, its free
  // variables stem from predicate atoms replacing closed subformulas. Assert
  // it universally.
  builder.universal_clauses.push_back(top);
  // Closed subformulas were replaced by R(v) for whichever variable was
  // bound; the R's truth must not depend on the node. Enforce uniformity for
  // every fresh predicate that replaced a closed formula — cheap and harmless
  // to enforce for all fresh predicates? No: for open replacements,
  // uniformity would be wrong. Track instead: a replacement R(other) for
  // θ(other) with `other` genuinely free in θ needs no uniformity; for closed
  // θ the defining clauses above quantify over `other` anyway, making R
  // automatically uniform-equivalent: R(v) ↔ θ with θ closed forces R to be
  // the same on every v. So no extra clause is needed.
  ScottNormalForm out;
  out.num_preds = builder.next_pred;
  out.first_fresh = first_fresh;
  out.universal = Formula::And(std::move(builder.universal_clauses));
  out.witnesses = std::move(builder.witness_clauses);
  return out;
}

Formula ScottToFormula(const ScottNormalForm& snf) {
  std::vector<Formula> parts;
  parts.push_back(
      Formula::Forall(Var::kX, Formula::Forall(Var::kY, snf.universal)));
  for (const Formula& w : snf.witnesses) {
    parts.push_back(Formula::Forall(Var::kX, Formula::Exists(Var::kY, w)));
  }
  return Formula::And(std::move(parts));
}

}  // namespace fo2dt
