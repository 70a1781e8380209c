/// \file eval.h
/// \brief Model checking FO²(∼,<,+1) on concrete data trees.
///
/// The evaluator is the classic O(|φ|·n²) FO² algorithm: every subformula
/// has at most the two free variables x and y, so its meaning on a tree is
/// an n×n truth matrix. An Evaluator compiles the formula once into a flat
/// post-order program over bit matrices (one row per node x, ⌈n/64⌉ words
/// per row, bit y of row x = the subformula at (x, y)); ¬, ∧ and ∨ are word
/// operations and a quantifier folds rows or tests them. The tree enters at
/// three binding levels — shape, labels, data — so an enumerator that varies
/// only the data re-binds only the ∼ matrix.
///
/// It serves as the semantic ground truth for the whole library: the puzzle
/// compiler, the XPath translation and the constraint compilers are all
/// differential-tested against it, and tests/logic_test.cc checks it against
/// a definitional evaluator.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "datatree/data_tree.h"
#include "logic/formula.h"

namespace fo2dt {

/// \brief Interpretation of the unary predicates R_0..R_{m-1} over a tree:
/// membership[p][v] != 0 iff node v is in R_p.
struct PredInterpretation {
  std::vector<std::vector<char>> membership;

  /// All-empty interpretation for \p num_preds predicates over \p num_nodes.
  static PredInterpretation Empty(PredId num_preds, size_t num_nodes);
};

/// \brief Compiled FO² model checker.
///
/// Usage: construct from a formula, Validate() against the predicate
/// interpretation, bind a nonempty tree (BindShape first, then BindLabels,
/// BindData and, for a formula with predicates, BindPreds, in any order),
/// then Run(). After binding, a change to the tree's labels needs only
/// BindLabels, a change to its data only BindData. Run() allocates nothing.
class Evaluator {
 public:
  explicit Evaluator(const Formula& f);

  /// The first atom, in evaluation order, that cannot be evaluated under
  /// \p preds: a label atom with no symbol, or a predicate id beyond a
  /// non-null interpretation (with a null one every R-atom reads false).
  Status Validate(const PredInterpretation* preds) const;

  /// Structure of the nonempty tree \p t: its size and the relation
  /// matrices of the axes and of = the program uses. Empties the label and
  /// predicate rows and the ∼ matrix until they are bound again.
  void BindShape(const DataTree& t);
  /// Label rows of the symbols the program mentions.
  void BindLabels(const DataTree& t);
  /// Predicate rows; null reads every predicate as empty.
  void BindPreds(const PredInterpretation* preds);
  /// The ∼ matrix, when the program uses it.
  void BindData(const DataTree& t);
  /// All four bindings at once.
  void Bind(const DataTree& t, const PredInterpretation* preds);

  /// Evaluates the program on the bound tree. The result has one row of
  /// words() words per node: bit y of row x is the formula at (x, y). It
  /// points into scratch storage, valid until the next Run or Bind.
  const uint64_t* Run();
  /// Run() for a sentence, whose matrix is constant.
  bool RunSentence() { return (Run()[0] & 1) != 0; }
  /// Words per matrix row of the bound tree.
  size_t words() const { return words_; }

  /// Truth value of a sentence on \p t. InvalidArgument for open formulas,
  /// for empty trees (the paper's structures are nonempty), and for the
  /// atoms Validate() rejects. When \p preds is null, every R-atom
  /// evaluates to false.
  static Result<bool> EvaluateSentence(const Formula& f, const DataTree& t,
                                       const PredInterpretation* preds = nullptr);

  /// The set of nodes v such that f(v) holds, for a formula with exactly one
  /// free variable \p free_var.
  static Result<std::vector<char>> EvaluateUnary(
      const Formula& f, const DataTree& t, Var free_var,
      const PredInterpretation* preds = nullptr);

  /// Model-checks the EMSO² sentence by exhaustive search over the 2^(m·n)
  /// predicate interpretations. Exponential — test/cross-check use only.
  /// ResourceExhausted when m·n exceeds \p max_bits.
  static Result<bool> EvaluateEmsoBruteForce(const Emso2Formula& f,
                                             const DataTree& t,
                                             size_t max_bits = 24);

 private:
  enum class Op : uint8_t {
    kTrue,
    kFalse,
    kUnaryX,    ///< node mask `arg` read at x: whole rows
    kUnaryY,    ///< node mask `arg` read at y: the mask broadcast to rows
    kRelation,  ///< relation matrix slot `arg`
    kNot,
    kAnd,  ///< pops two, pushes their conjunction
    kOr,
    kExistsX,  ///< fold the rows, broadcast the fold
    kForallX,
    kExistsY,  ///< test each row
    kForallY,
  };
  struct Instr {
    Op op;
    uint32_t arg;
  };
  /// Relation matrices: ∼, =, then each axis as written and transposed.
  enum Relation : uint32_t {
    kSameDataRel = 0,
    kIdentityRel = 1,
    kFirstAxisRel = 2,  // + 2·axis + (transposed ? 1 : 0)
    kNumRelations = 10,
  };
  static constexpr uint32_t kUnusedSlot = UINT32_MAX;

  /// Appends the post-order program of \p f; \p depth is the stack height
  /// before it runs.
  void Compile(const Formula& f, size_t depth);
  void Emit(Op op, uint32_t arg, size_t depth_after);
  uint32_t MaskFor(bool is_label, uint32_t id);
  uint32_t RelationSlot(uint32_t rel);

  uint64_t* Mask(uint32_t i) { return masks_.data() + i * words_; }
  uint64_t* Matrix(uint32_t slot) {
    return matrices_.data() + slot * n_ * words_;
  }
  void SetBit(uint64_t* matrix, NodeId x, NodeId y) {
    matrix[x * words_ + y / 64] |= uint64_t{1} << (y % 64);
  }

  // Compiled program (independent of any tree).
  std::vector<Instr> program_;
  size_t max_depth_ = 0;
  /// Node masks in first-use order: (is_label, symbol or predicate id).
  std::vector<std::pair<bool, uint32_t>> mask_atoms_;
  /// Relation → matrix slot, kUnusedSlot when the program never reads it.
  uint32_t relation_slot_[kNumRelations];
  uint32_t num_relation_slots_ = 0;

  // Bound tree.
  size_t n_ = 0;
  size_t words_ = 0;
  std::vector<uint64_t> full_;      // one row with bits [0, n) set
  std::vector<uint64_t> masks_;     // mask_atoms_.size() rows
  std::vector<uint64_t> matrices_;  // num_relation_slots_ matrices
  std::vector<uint64_t> stack_;     // max_depth_ matrices
};

}  // namespace fo2dt
