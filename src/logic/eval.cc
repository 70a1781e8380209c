#include "logic/eval.h"

#include <algorithm>
#include <iterator>

#include "common/strings.h"

namespace fo2dt {

PredInterpretation PredInterpretation::Empty(PredId num_preds,
                                             size_t num_nodes) {
  PredInterpretation out;
  out.membership.assign(num_preds, std::vector<char>(num_nodes, 0));
  return out;
}

Evaluator::Evaluator(const Formula& f) {
  std::fill(std::begin(relation_slot_), std::end(relation_slot_), kUnusedSlot);
  Compile(f, 0);
}

void Evaluator::Emit(Op op, uint32_t arg, size_t depth_after) {
  program_.push_back(Instr{op, arg});
  max_depth_ = std::max(max_depth_, depth_after);
}

uint32_t Evaluator::MaskFor(bool is_label, uint32_t id) {
  const std::pair<bool, uint32_t> atom{is_label, id};
  auto it = std::find(mask_atoms_.begin(), mask_atoms_.end(), atom);
  if (it != mask_atoms_.end()) {
    return static_cast<uint32_t>(it - mask_atoms_.begin());
  }
  mask_atoms_.push_back(atom);
  return static_cast<uint32_t>(mask_atoms_.size() - 1);
}

uint32_t Evaluator::RelationSlot(uint32_t rel) {
  if (relation_slot_[rel] == kUnusedSlot) {
    relation_slot_[rel] = num_relation_slots_++;
  }
  return relation_slot_[rel];
}

void Evaluator::Compile(const Formula& f, size_t depth) {
  using Kind = Formula::Kind;
  const bool at_x = f.var() == Var::kX;
  switch (f.kind()) {
    case Kind::kTrue:
      Emit(Op::kTrue, 0, depth + 1);
      return;
    case Kind::kFalse:
      Emit(Op::kFalse, 0, depth + 1);
      return;
    case Kind::kLabel:
    case Kind::kPred: {
      const bool is_label = f.kind() == Kind::kLabel;
      Emit(at_x ? Op::kUnaryX : Op::kUnaryY,
           MaskFor(is_label, is_label ? f.symbol() : f.pred()), depth + 1);
      return;
    }
    case Kind::kSameData:
    case Kind::kEqual:
      // Both relations are reflexive (v ~ v, v = v) and symmetric.
      if (f.var() == f.var2()) {
        Emit(Op::kTrue, 0, depth + 1);
      } else {
        Emit(Op::kRelation,
             RelationSlot(f.kind() == Kind::kSameData ? kSameDataRel
                                                      : kIdentityRel),
             depth + 1);
      }
      return;
    case Kind::kEdge:
      if (f.var() == f.var2()) {
        Emit(Op::kFalse, 0, depth + 1);  // every axis is irreflexive
      } else {
        // E(x,y) reads the axis matrix as built; E(y,x) its transpose.
        Emit(Op::kRelation,
             RelationSlot(kFirstAxisRel + 2 * static_cast<uint32_t>(f.axis()) +
                          (at_x ? 0 : 1)),
             depth + 1);
      }
      return;
    case Kind::kNot:
      Compile(f.child(0), depth);
      Emit(Op::kNot, 0, depth + 1);
      return;
    case Kind::kAnd:
    case Kind::kOr: {
      // Left fold: the stack never holds more than two operands here.
      const Op op = f.kind() == Kind::kAnd ? Op::kAnd : Op::kOr;
      Compile(f.child(0), depth);
      for (size_t i = 1; i < f.children().size(); ++i) {
        Compile(f.child(i), depth + 1);
        Emit(op, 0, depth + 1);
      }
      return;
    }
    case Kind::kExists:
    case Kind::kForall: {
      const bool exists = f.kind() == Kind::kExists;
      Compile(f.child(0), depth);
      Emit(at_x ? (exists ? Op::kExistsX : Op::kForallX)
                : (exists ? Op::kExistsY : Op::kForallY),
           0, depth + 1);
      return;
    }
  }
}

Status Evaluator::Validate(const PredInterpretation* preds) const {
  for (const Instr& in : program_) {
    if (in.op != Op::kUnaryX && in.op != Op::kUnaryY) continue;
    const auto [is_label, id] = mask_atoms_[in.arg];
    if (is_label && id == kNoSymbol) {
      return Status::InvalidArgument("label atom with no symbol");
    }
    if (!is_label && preds != nullptr && id >= preds->membership.size()) {
      return Status::InvalidArgument(
          StringFormat("predicate $%u has no interpretation", id));
    }
  }
  return Status::OK();
}

void Evaluator::BindShape(const DataTree& t) {
  n_ = t.size();
  words_ = (n_ + 63) / 64;
  full_.assign(words_, ~uint64_t{0});
  if (n_ % 64 != 0) full_.back() = (uint64_t{1} << (n_ % 64)) - 1;
  masks_.assign(mask_atoms_.size() * words_, 0);
  matrices_.assign(num_relation_slots_ * n_ * words_, 0);
  stack_.assign(max_depth_ * n_ * words_, 0);
  for (uint32_t rel = kIdentityRel; rel < kNumRelations; ++rel) {
    if (relation_slot_[rel] == kUnusedSlot) continue;
    uint64_t* m = Matrix(relation_slot_[rel]);
    if (rel == kIdentityRel) {
      for (NodeId v = 0; v < n_; ++v) SetBit(m, v, v);
      continue;
    }
    const Axis axis = static_cast<Axis>((rel - kFirstAxisRel) / 2);
    const bool transposed = (rel - kFirstAxisRel) % 2 != 0;
    auto add = [&](NodeId x, NodeId y) {
      if (transposed) std::swap(x, y);
      SetBit(m, x, y);
    };
    for (NodeId v = 0; v < n_; ++v) {
      switch (axis) {
        case Axis::kNextSibling:
          if (t.next_sibling(v) != kNoNode) add(v, t.next_sibling(v));
          break;
        case Axis::kChild:
          if (t.parent(v) != kNoNode) add(t.parent(v), v);
          break;
        case Axis::kFollowingSibling:
          for (NodeId w = t.next_sibling(v); w != kNoNode;
               w = t.next_sibling(w)) {
            add(v, w);
          }
          break;
        case Axis::kDescendant:
          for (NodeId u = t.parent(v); u != kNoNode; u = t.parent(u)) {
            add(u, v);
          }
          break;
      }
    }
  }
}

void Evaluator::BindLabels(const DataTree& t) {
  for (uint32_t i = 0; i < mask_atoms_.size(); ++i) {
    const auto [is_label, symbol] = mask_atoms_[i];
    if (!is_label) continue;
    uint64_t* mask = Mask(i);
    std::fill(mask, mask + words_, uint64_t{0});
    for (NodeId v = 0; v < n_; ++v) {
      if (t.label(v) == symbol) mask[v / 64] |= uint64_t{1} << (v % 64);
    }
  }
}

void Evaluator::BindPreds(const PredInterpretation* preds) {
  for (uint32_t i = 0; i < mask_atoms_.size(); ++i) {
    const auto [is_label, pred] = mask_atoms_[i];
    if (is_label) continue;
    uint64_t* mask = Mask(i);
    std::fill(mask, mask + words_, uint64_t{0});
    if (preds == nullptr || pred >= preds->membership.size()) continue;
    const std::vector<char>& member = preds->membership[pred];
    for (NodeId v = 0; v < n_; ++v) {
      if (member[v] != 0) mask[v / 64] |= uint64_t{1} << (v % 64);
    }
  }
}

void Evaluator::BindData(const DataTree& t) {
  if (relation_slot_[kSameDataRel] == kUnusedSlot) return;
  uint64_t* m = Matrix(relation_slot_[kSameDataRel]);
  std::fill(m, m + n_ * words_, uint64_t{0});
  for (NodeId x = 0; x < n_; ++x) {
    SetBit(m, x, x);
    for (NodeId y = 0; y < x; ++y) {
      if (t.SameData(x, y)) {
        SetBit(m, x, y);
        SetBit(m, y, x);
      }
    }
  }
}

void Evaluator::Bind(const DataTree& t, const PredInterpretation* preds) {
  BindShape(t);
  BindLabels(t);
  BindPreds(preds);
  BindData(t);
}

const uint64_t* Evaluator::Run() {
  const size_t ws = words_;
  const size_t stride = n_ * ws;
  size_t sp = 0;  // matrices on the stack
  auto slot = [&](size_t i) { return stack_.data() + i * stride; };
  for (const Instr& in : program_) {
    switch (in.op) {
      case Op::kTrue:
      case Op::kFalse: {
        uint64_t* dst = slot(sp++);
        for (size_t x = 0; x < n_; ++x) {
          for (size_t w = 0; w < ws; ++w) {
            dst[x * ws + w] = in.op == Op::kTrue ? full_[w] : 0;
          }
        }
        break;
      }
      case Op::kUnaryX: {
        uint64_t* dst = slot(sp++);
        const uint64_t* mask = Mask(in.arg);
        for (size_t x = 0; x < n_; ++x) {
          const uint64_t all = 0 - ((mask[x / 64] >> (x % 64)) & 1);
          for (size_t w = 0; w < ws; ++w) dst[x * ws + w] = full_[w] & all;
        }
        break;
      }
      case Op::kUnaryY: {
        uint64_t* dst = slot(sp++);
        const uint64_t* mask = Mask(in.arg);
        for (size_t x = 0; x < n_; ++x) {
          std::copy(mask, mask + ws, dst + x * ws);
        }
        break;
      }
      case Op::kRelation: {
        const uint64_t* m = Matrix(in.arg);
        std::copy(m, m + stride, slot(sp++));
        break;
      }
      case Op::kNot: {
        uint64_t* top = slot(sp - 1);
        for (size_t x = 0; x < n_; ++x) {
          for (size_t w = 0; w < ws; ++w) {
            top[x * ws + w] = ~top[x * ws + w] & full_[w];
          }
        }
        break;
      }
      case Op::kAnd:
      case Op::kOr: {
        const uint64_t* rhs = slot(--sp);
        uint64_t* lhs = slot(sp - 1);
        if (in.op == Op::kAnd) {
          for (size_t i = 0; i < stride; ++i) lhs[i] &= rhs[i];
        } else {
          for (size_t i = 0; i < stride; ++i) lhs[i] |= rhs[i];
        }
        break;
      }
      case Op::kExistsX:
      case Op::kForallX: {
        // Fold every row into row 0, then broadcast it: the result no
        // longer depends on x.
        uint64_t* top = slot(sp - 1);
        for (size_t x = 1; x < n_; ++x) {
          for (size_t w = 0; w < ws; ++w) {
            if (in.op == Op::kExistsX) {
              top[w] |= top[x * ws + w];
            } else {
              top[w] &= top[x * ws + w];
            }
          }
        }
        for (size_t x = 1; x < n_; ++x) std::copy(top, top + ws, top + x * ws);
        break;
      }
      case Op::kExistsY:
      case Op::kForallY: {
        // Each row collapses to all-true or all-false: the result no longer
        // depends on y.
        uint64_t* top = slot(sp - 1);
        for (size_t x = 0; x < n_; ++x) {
          uint64_t* row = top + x * ws;
          bool holds = in.op == Op::kForallY;
          for (size_t w = 0; w < ws; ++w) {
            if (in.op == Op::kExistsY) {
              holds = holds || row[w] != 0;
            } else {
              holds = holds && row[w] == full_[w];
            }
          }
          for (size_t w = 0; w < ws; ++w) row[w] = holds ? full_[w] : 0;
        }
        break;
      }
    }
  }
  return stack_.data();
}

Result<bool> Evaluator::EvaluateSentence(const Formula& f, const DataTree& t,
                                         const PredInterpretation* preds) {
  if (!f.IsSentence()) {
    return Status::InvalidArgument("EvaluateSentence requires a sentence");
  }
  if (t.empty()) {
    return Status::InvalidArgument("evaluation requires a nonempty tree");
  }
  Evaluator ev(f);
  FO2DT_RETURN_NOT_OK(ev.Validate(preds));
  ev.Bind(t, preds);
  return ev.RunSentence();
}

Result<std::vector<char>> Evaluator::EvaluateUnary(
    const Formula& f, const DataTree& t, Var free_var,
    const PredInterpretation* preds) {
  uint8_t fv = f.FreeVars();
  uint8_t want = static_cast<uint8_t>(1u << static_cast<uint8_t>(free_var));
  if ((fv | want) != want) {
    return Status::InvalidArgument(
        "EvaluateUnary: formula has other free variables");
  }
  if (t.empty()) {
    return Status::InvalidArgument("evaluation requires a nonempty tree");
  }
  Evaluator ev(f);
  FO2DT_RETURN_NOT_OK(ev.Validate(preds));
  ev.Bind(t, preds);
  const uint64_t* m = ev.Run();
  const size_t n = t.size();
  const size_t ws = ev.words();
  std::vector<char> out(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    // A formula free in x is constant along each row; one free in y is
    // the same in every row.
    const uint64_t word = free_var == Var::kX ? m[v * ws] : m[v / 64];
    const size_t bit = free_var == Var::kX ? 0 : v % 64;
    out[v] = static_cast<char>((word >> bit) & 1);
  }
  return out;
}

Result<bool> Evaluator::EvaluateEmsoBruteForce(const Emso2Formula& f,
                                               const DataTree& t,
                                               size_t max_bits) {
  const size_t n = t.size();
  const size_t bits = f.num_preds * n;
  if (bits > max_bits) {
    return Status::ResourceExhausted(
        StringFormat("EMSO brute force needs %zu bits > cap %zu", bits,
                     max_bits));
  }
  if (!f.core.IsSentence()) {
    return Status::InvalidArgument("EvaluateSentence requires a sentence");
  }
  if (t.empty()) {
    return Status::InvalidArgument("evaluation requires a nonempty tree");
  }
  PredInterpretation interp = PredInterpretation::Empty(f.num_preds, n);
  Evaluator ev(f.core);
  FO2DT_RETURN_NOT_OK(ev.Validate(&interp));
  ev.Bind(t, &interp);
  const uint64_t limit = 1ULL << bits;
  for (uint64_t mask = 0; mask < limit; ++mask) {
    for (size_t b = 0; b < bits; ++b) {
      interp.membership[b / n][b % n] = (mask >> b) & 1 ? 1 : 0;
    }
    ev.BindPreds(&interp);
    if (ev.RunSentence()) return true;
  }
  return false;
}

}  // namespace fo2dt
