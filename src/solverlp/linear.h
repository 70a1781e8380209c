/// \file linear.h
/// \brief Linear expressions and constraints over integer variables.
///
/// Section III-C of the paper defines a *linear constraint* as a boolean
/// combination of linear inequalities sum(k_x * x) >= 0 over variables X,
/// interpreted over valuations X -> N. This module provides that AST plus
/// conversion to disjunctive normal form (a disjunction of conjunctive
/// inequality systems), which is what the simplex/ILP backends consume.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arith/bigint.h"
#include "arith/rational.h"
#include "common/status.h"

namespace fo2dt {

/// \brief Dense id of a solver variable.
using VarId = uint32_t;

/// \brief Integer assignment to variables; index == VarId.
using IntAssignment = std::vector<BigInt>;

/// \brief A linear expression sum(coeff_i * var_i) + constant over BigInt.
///
/// Terms live in a flat vector sorted by variable id; zero coefficients are
/// erased eagerly so that iteration visits only live terms. The dominant
/// construction pattern (flow equations appending terms in ascending VarId
/// order) hits the O(1) append fast path of AddTerm; DNF branch copies and
/// tableau loads are contiguous memcpy-like traversals instead of
/// node-by-node map walks.
class LinearExpr {
 public:
  using Term = std::pair<VarId, BigInt>;
  using Terms = std::vector<Term>;

  LinearExpr() = default;
  /// The constant expression \p c.
  explicit LinearExpr(BigInt c) : constant_(std::move(c)) {}

  /// The expression consisting of the single term 1 * \p v.
  static LinearExpr Variable(VarId v);

  /// Adds \p coeff * \p v to this expression.
  void AddTerm(VarId v, const BigInt& coeff);
  /// Adds \p c to the constant.
  void AddConstant(const BigInt& c) { constant_ += c; }

  const BigInt& constant() const { return constant_; }
  /// Live terms sorted by variable id, no zero coefficients.
  const Terms& terms() const { return terms_; }

  /// Coefficient of \p v (zero when absent).
  BigInt CoefficientOf(VarId v) const;

  /// Largest variable id mentioned plus one; 0 when constant.
  VarId NumVarsSpanned() const;

  LinearExpr operator+(const LinearExpr& o) const;
  LinearExpr operator-(const LinearExpr& o) const;
  LinearExpr operator*(const BigInt& k) const;
  LinearExpr operator-() const { return *this * BigInt(-1); }

  /// Value under \p assignment. Variables beyond the assignment are an error.
  Result<BigInt> Evaluate(const IntAssignment& assignment) const;
  /// Value under a rational assignment.
  Result<Rational> EvaluateRational(const std::vector<Rational>& assignment) const;

  /// Rendering such as "2*x3 - x1 + 5" using v<N> names or \p names.
  std::string ToString(const std::vector<std::string>* names = nullptr) const;
  /// ToString appended to \p out.
  void AppendTo(std::string* out,
                const std::vector<std::string>* names = nullptr) const;

 private:
  Terms terms_;  // sorted by VarId, invariant: no zero coefficients
  BigInt constant_;
};

/// \brief Relation of a linear atom.
enum class LinearRel {
  kGe,  ///< expr >= 0
  kEq,  ///< expr == 0
};

/// \brief An atomic linear constraint: expr >= 0 or expr == 0.
struct LinearAtom {
  LinearExpr expr;
  LinearRel rel = LinearRel::kGe;

  static LinearAtom Ge(LinearExpr e) { return {std::move(e), LinearRel::kGe}; }
  static LinearAtom Eq(LinearExpr e) { return {std::move(e), LinearRel::kEq}; }

  /// Truth value under an integer assignment.
  Result<bool> Evaluate(const IntAssignment& assignment) const;
  std::string ToString(const std::vector<std::string>* names = nullptr) const;
  void AppendTo(std::string* out,
                const std::vector<std::string>* names = nullptr) const;
};

/// \brief A conjunction of atoms (one branch of a DNF).
using LinearSystem = std::vector<LinearAtom>;

/// \brief Boolean combination of linear inequalities (the paper's "linear
/// constraint").
///
/// Immutable tree shared via shared_ptr; built with the static factories.
class LinearConstraint {
 public:
  enum class Kind { kAtom, kAnd, kOr, kNot, kTrue, kFalse };

  static LinearConstraint True();
  static LinearConstraint False();
  static LinearConstraint Atom(LinearAtom atom);
  /// Convenience: expr >= 0.
  static LinearConstraint Ge(LinearExpr e) { return Atom(LinearAtom::Ge(std::move(e))); }
  /// Convenience: expr == 0.
  static LinearConstraint Eq(LinearExpr e) { return Atom(LinearAtom::Eq(std::move(e))); }
  static LinearConstraint And(std::vector<LinearConstraint> parts);
  static LinearConstraint And(LinearConstraint a, LinearConstraint b) {
    return And(std::vector<LinearConstraint>{std::move(a), std::move(b)});
  }
  static LinearConstraint Or(std::vector<LinearConstraint> parts);
  static LinearConstraint Or(LinearConstraint a, LinearConstraint b) {
    return Or(std::vector<LinearConstraint>{std::move(a), std::move(b)});
  }
  static LinearConstraint Not(LinearConstraint part);

  Kind kind() const { return node_->kind; }
  const LinearAtom& atom() const { return node_->atom; }
  const std::vector<LinearConstraint>& children() const { return node_->children; }

  /// Truth value under an integer assignment.
  Result<bool> Evaluate(const IntAssignment& assignment) const;

  /// Expands to disjunctive normal form over integer semantics.
  ///
  /// Negations are eliminated exactly: not(e >= 0) becomes -e - 1 >= 0 and
  /// not(e == 0) becomes (e - 1 >= 0) or (-e - 1 >= 0). The result can be
  /// exponentially larger; \p max_branches caps the expansion
  /// (ResourceExhausted beyond it).
  Result<std::vector<LinearSystem>> ToDnf(size_t max_branches = 100000) const;

  /// Largest variable id mentioned plus one.
  VarId NumVarsSpanned() const;

  /// e.g. "((v0 >= 0) && !(v1 - 1 == 0))"; built in one string.
  std::string ToString(const std::vector<std::string>* names = nullptr) const;
  void AppendTo(std::string* out,
                const std::vector<std::string>* names = nullptr) const;

 private:
  struct Node {
    Kind kind;
    LinearAtom atom;                        // kAtom
    std::vector<LinearConstraint> children; // kAnd/kOr/kNot
  };
  explicit LinearConstraint(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<const Node> node_;
};

}  // namespace fo2dt

