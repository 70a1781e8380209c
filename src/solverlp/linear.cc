#include "solverlp/linear.h"

#include <algorithm>
#include <charconv>

#include "common/registry_names.h"
#include "common/strings.h"

namespace fo2dt {

LinearExpr LinearExpr::Variable(VarId v) {
  LinearExpr e;
  e.AddTerm(v, BigInt(1));
  return e;
}

void LinearExpr::AddTerm(VarId v, const BigInt& coeff) {
  if (coeff.IsZero()) return;
  // Fast path: appending past the largest id so far (how flow-equation and
  // usage-vector builders emit terms) costs one push_back.
  if (terms_.empty() || terms_.back().first < v) {
    terms_.emplace_back(v, coeff);
    return;
  }
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), v,
      [](const Term& t, VarId key) { return t.first < key; });
  if (it == terms_.end() || it->first != v) {
    terms_.insert(it, Term(v, coeff));
    return;
  }
  it->second += coeff;
  if (it->second.IsZero()) terms_.erase(it);
}

BigInt LinearExpr::CoefficientOf(VarId v) const {
  auto it = std::lower_bound(
      terms_.begin(), terms_.end(), v,
      [](const Term& t, VarId key) { return t.first < key; });
  return it == terms_.end() || it->first != v ? BigInt(0) : it->second;
}

VarId LinearExpr::NumVarsSpanned() const {
  if (terms_.empty()) return 0;
  return terms_.back().first + 1;
}

LinearExpr LinearExpr::operator+(const LinearExpr& o) const {
  // Linear merge of the two sorted term lists (the map version re-inserted
  // every right-hand term at O(log n) apiece).
  LinearExpr out;
  out.terms_.reserve(terms_.size() + o.terms_.size());
  auto a = terms_.begin();
  auto b = o.terms_.begin();
  // fo2dt-lint: allow(no-checkpoint, merge is bounded by the two term lists)
  while (a != terms_.end() && b != o.terms_.end()) {
    if (a->first < b->first) {
      out.terms_.push_back(*a++);
    } else if (b->first < a->first) {
      out.terms_.push_back(*b++);
    } else {
      BigInt sum = a->second + b->second;
      if (!sum.IsZero()) out.terms_.emplace_back(a->first, std::move(sum));
      ++a;
      ++b;
    }
  }
  out.terms_.insert(out.terms_.end(), a, terms_.end());
  out.terms_.insert(out.terms_.end(), b, o.terms_.end());
  out.constant_ = constant_ + o.constant_;
  return out;
}

LinearExpr LinearExpr::operator-(const LinearExpr& o) const {
  return *this + (o * BigInt(-1));
}

LinearExpr LinearExpr::operator*(const BigInt& k) const {
  LinearExpr out;
  if (k.IsZero()) return out;
  out.terms_.reserve(terms_.size());
  for (const auto& [v, c] : terms_) out.terms_.emplace_back(v, c * k);
  out.constant_ = constant_ * k;
  return out;
}

Result<BigInt> LinearExpr::Evaluate(const IntAssignment& assignment) const {
  BigInt out = constant_;
  for (const auto& [v, c] : terms_) {
    if (v >= assignment.size()) {
      return Status::InvalidArgument(
          StringFormat("assignment missing variable v%u", v));
    }
    out += c * assignment[v];
  }
  return out;
}

Result<Rational> LinearExpr::EvaluateRational(
    const std::vector<Rational>& assignment) const {
  Rational out{constant_};
  for (const auto& [v, c] : terms_) {
    if (v >= assignment.size()) {
      return Status::InvalidArgument(
          StringFormat("assignment missing variable v%u", v));
    }
    out += Rational(c) * assignment[v];
  }
  return out;
}

namespace {

void AppendInt64(std::string* out, int64_t v) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 20 characters always fit
  out->append(buf, static_cast<size_t>(end - buf));
}

// Decimal rendering appended in place: std::to_chars for values that fit
// int64 (all but the rare wide coefficient).
void AppendBigInt(std::string* out, const BigInt& v) {
  if (v.FitsInt64()) {
    AppendInt64(out, v.Small());
  } else {
    *out += v.ToString();
  }
}

void AppendVar(std::string* out, VarId v,
               const std::vector<std::string>* names) {
  if (names != nullptr && v < names->size()) {
    *out += (*names)[v];
  } else {
    *out += 'v';
    AppendInt64(out, v);
  }
}

}  // namespace

void LinearExpr::AppendTo(std::string* out,
                          const std::vector<std::string>* names) const {
  bool first = true;
  for (const auto& [v, c] : terms_) {
    if (first) {
      if (c == BigInt(-1)) {
        *out += '-';
      } else if (!c.IsOne()) {
        AppendBigInt(out, c);
        *out += '*';
      }
      AppendVar(out, v, names);
      first = false;
      continue;
    }
    *out += c.IsNegative() ? " - " : " + ";
    const BigInt a = c.Abs();
    if (!a.IsOne()) {
      AppendBigInt(out, a);
      *out += '*';
    }
    AppendVar(out, v, names);
  }
  if (first) {
    AppendBigInt(out, constant_);
    return;
  }
  if (!constant_.IsZero()) {
    *out += constant_.IsNegative() ? " - " : " + ";
    AppendBigInt(out, constant_.Abs());
  }
}

std::string LinearExpr::ToString(const std::vector<std::string>* names) const {
  std::string out;
  AppendTo(&out, names);
  return out;
}

Result<bool> LinearAtom::Evaluate(const IntAssignment& assignment) const {
  FO2DT_ASSIGN_OR_RETURN(BigInt v, expr.Evaluate(assignment));
  return rel == LinearRel::kGe ? v >= BigInt(0) : v.IsZero();
}

void LinearAtom::AppendTo(std::string* out,
                          const std::vector<std::string>* names) const {
  expr.AppendTo(out, names);
  *out += rel == LinearRel::kGe ? " >= 0" : " == 0";
}

std::string LinearAtom::ToString(const std::vector<std::string>* names) const {
  std::string out;
  AppendTo(&out, names);
  return out;
}

LinearConstraint LinearConstraint::True() {
  return LinearConstraint(std::make_shared<Node>(Node{Kind::kTrue, {}, {}}));
}

LinearConstraint LinearConstraint::False() {
  return LinearConstraint(std::make_shared<Node>(Node{Kind::kFalse, {}, {}}));
}

LinearConstraint LinearConstraint::Atom(LinearAtom atom) {
  return LinearConstraint(
      std::make_shared<Node>(Node{Kind::kAtom, std::move(atom), {}}));
}

LinearConstraint LinearConstraint::And(std::vector<LinearConstraint> parts) {
  if (parts.empty()) return True();
  if (parts.size() == 1) return parts[0];
  return LinearConstraint(
      std::make_shared<Node>(Node{Kind::kAnd, {}, std::move(parts)}));
}

LinearConstraint LinearConstraint::Or(std::vector<LinearConstraint> parts) {
  if (parts.empty()) return False();
  if (parts.size() == 1) return parts[0];
  return LinearConstraint(
      std::make_shared<Node>(Node{Kind::kOr, {}, std::move(parts)}));
}

LinearConstraint LinearConstraint::Not(LinearConstraint part) {
  return LinearConstraint(
      std::make_shared<Node>(Node{Kind::kNot, {}, {std::move(part)}}));
}

Result<bool> LinearConstraint::Evaluate(const IntAssignment& assignment) const {
  switch (kind()) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kAtom:
      return atom().Evaluate(assignment);
    case Kind::kNot: {
      FO2DT_ASSIGN_OR_RETURN(bool v, children()[0].Evaluate(assignment));
      return !v;
    }
    case Kind::kAnd:
      for (const auto& c : children()) {
        FO2DT_ASSIGN_OR_RETURN(bool v, c.Evaluate(assignment));
        if (!v) return false;
      }
      return true;
    case Kind::kOr:
      for (const auto& c : children()) {
        FO2DT_ASSIGN_OR_RETURN(bool v, c.Evaluate(assignment));
        if (v) return true;
      }
      return false;
  }
  return Status::Internal("unreachable LinearConstraint kind");
}

namespace {

Status BranchCapExceeded(size_t branches, size_t max_branches) {
  return Status::ResourceExhausted(
             StringFormat("DNF expansion exceeded its branch cap in "
                          "solverlp.linear: %zu of %zu branches",
                          branches, max_branches))
      .WithStopReason(StopReason{StopKind::kBranchBudget,
                                 names::kModSolverlpLinear, branches,
                                 max_branches});
}

// Recursive DNF expansion with polarity tracking (negations pushed to atoms).
Status ToDnfImpl(const LinearConstraint& c, bool positive, size_t max_branches,
                 std::vector<LinearSystem>* out) {
  using Kind = LinearConstraint::Kind;
  switch (c.kind()) {
    case Kind::kTrue:
      if (positive) out->push_back({});
      return Status::OK();
    case Kind::kFalse:
      if (!positive) out->push_back({});
      return Status::OK();
    case Kind::kNot:
      return ToDnfImpl(c.children()[0], !positive, max_branches, out);
    case Kind::kAtom: {
      const LinearAtom& a = c.atom();
      if (positive) {
        out->push_back({a});
      } else if (a.rel == LinearRel::kGe) {
        // not(e >= 0)  <=>  e <= -1  <=>  -e - 1 >= 0   (integer semantics)
        LinearExpr neg = -a.expr;
        neg.AddConstant(BigInt(-1));
        out->push_back({LinearAtom::Ge(std::move(neg))});
      } else {
        // not(e == 0)  <=>  e >= 1 or e <= -1
        LinearExpr up = a.expr;
        up.AddConstant(BigInt(-1));
        LinearExpr down = -a.expr;
        down.AddConstant(BigInt(-1));
        out->push_back({LinearAtom::Ge(std::move(up))});
        out->push_back({LinearAtom::Ge(std::move(down))});
      }
      return Status::OK();
    }
    case Kind::kAnd:
    case Kind::kOr: {
      // Under negation, And behaves as Or and vice versa.
      bool is_or = (c.kind() == Kind::kOr) == positive;
      if (is_or) {
        for (const auto& ch : c.children()) {
          FO2DT_RETURN_NOT_OK(ToDnfImpl(ch, positive, max_branches, out));
          if (out->size() > max_branches) {
            return BranchCapExceeded(out->size(), max_branches);
          }
        }
        return Status::OK();
      }
      // Conjunction: cross product of children's DNFs.
      std::vector<LinearSystem> acc = {{}};
      for (const auto& ch : c.children()) {
        std::vector<LinearSystem> child_dnf;
        FO2DT_RETURN_NOT_OK(ToDnfImpl(ch, positive, max_branches, &child_dnf));
        std::vector<LinearSystem> next;
        next.reserve(acc.size() * child_dnf.size());
        for (auto& left : acc) {
          for (const auto& right : child_dnf) {
            // The last branch takes `left` itself, so a single-branch child
            // extends each accumulated system without copying it.
            LinearSystem merged;
            if (&right == &child_dnf.back()) {
              merged.swap(left);
            } else {
              merged = left;
            }
            merged.insert(merged.end(), right.begin(), right.end());
            next.push_back(std::move(merged));
            if (next.size() > max_branches) {
              return BranchCapExceeded(next.size(), max_branches);
            }
          }
        }
        acc = std::move(next);
        if (acc.empty()) return Status::OK();  // one child was unsatisfiable
      }
      for (auto& sys : acc) out->push_back(std::move(sys));
      return Status::OK();
    }
  }
  return Status::Internal("unreachable LinearConstraint kind");
}

}  // namespace

Result<std::vector<LinearSystem>> LinearConstraint::ToDnf(
    size_t max_branches) const {
  std::vector<LinearSystem> out;
  FO2DT_RETURN_NOT_OK(ToDnfImpl(*this, /*positive=*/true, max_branches, &out));
  return out;
}

VarId LinearConstraint::NumVarsSpanned() const {
  switch (kind()) {
    case Kind::kTrue:
    case Kind::kFalse:
      return 0;
    case Kind::kAtom:
      return atom().expr.NumVarsSpanned();
    default: {
      VarId n = 0;
      for (const auto& c : children()) n = std::max(n, c.NumVarsSpanned());
      return n;
    }
  }
}

void LinearConstraint::AppendTo(std::string* out,
                                const std::vector<std::string>* names) const {
  switch (kind()) {
    case Kind::kTrue:
      *out += "true";
      return;
    case Kind::kFalse:
      *out += "false";
      return;
    case Kind::kAtom:
      *out += '(';
      atom().AppendTo(out, names);
      *out += ')';
      return;
    case Kind::kNot:
      *out += '!';
      children()[0].AppendTo(out, names);
      return;
    case Kind::kAnd:
    case Kind::kOr: {
      const char* op = kind() == Kind::kAnd ? " && " : " || ";
      *out += '(';
      for (size_t i = 0; i < children().size(); ++i) {
        if (i != 0) *out += op;
        children()[i].AppendTo(out, names);
      }
      *out += ')';
      return;
    }
  }
  *out += '?';
}

std::string LinearConstraint::ToString(
    const std::vector<std::string>* names) const {
  std::string out;
  AppendTo(&out, names);
  return out;
}

}  // namespace fo2dt
