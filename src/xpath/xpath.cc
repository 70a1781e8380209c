#include "xpath/xpath.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <set>

#include "automata/automaton_io.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/strings.h"

namespace fo2dt {

namespace {

const char* AxisName(XpAxis axis) {
  switch (axis) {
    case XpAxis::kChild:
      return "Child";
    case XpAxis::kParent:
      return "Parent";
    case XpAxis::kNextSibling:
      return "NextSibling";
    case XpAxis::kPreviousSibling:
      return "PreviousSibling";
    case XpAxis::kSelf:
      return "Self";
    case XpAxis::kElsewhere:
      return "ElseWhere";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Parser

/// Recursive-descent depth ceiling. XPath text reaches this parser from the
/// network (fo2dtd request bodies), so hostile "not(not(not(..." or nested
/// "[.[.[..." predicates must produce a ParseError, not a stack overflow.
constexpr size_t kMaxXPathDepth = 256;

/// Tracks live recursion frames; paired with an entry check in every
/// production that can self-recurse.
struct XpDepthGuard {
  explicit XpDepthGuard(size_t* depth) : depth_(depth) { ++*depth_; }
  ~XpDepthGuard() { --*depth_; }
  size_t* depth_;
};

class XPathParser {
 public:
  XPathParser(const std::string& text, Alphabet* labels)
      : text_(text), labels_(labels) {}

  Result<XpPath> Parse() {
    FO2DT_ASSIGN_OR_RETURN(XpPath p, ParsePath());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::ParseError(
          StringFormat("trailing XPath input at offset %zu", pos_));
    }
    return p;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool PeekChar(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Match(const std::string& token) {
    SkipSpace();
    if (text_.compare(pos_, token.size(), token) != 0) return false;
    if (std::isalpha(static_cast<unsigned char>(token[0]))) {
      size_t end = pos_ + token.size();
      if (end < text_.size() &&
          (std::isalnum(static_cast<unsigned char>(text_[end])) ||
           text_[end] == '_')) {
        return false;
      }
    }
    pos_ += token.size();
    return true;
  }

  /// True when the input continues with "/@" (an attribute selection): the
  /// path being parsed ends here.
  bool AtAttributeBreak() {
    SkipSpace();
    size_t save = pos_;
    if (pos_ < text_.size() && text_[pos_] == '/') {
      ++pos_;
      SkipSpace();
      bool at = pos_ < text_.size() && text_[pos_] == '@';
      pos_ = save;
      return at;
    }
    pos_ = save;
    return false;
  }

  Result<std::string> ParseName() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::ParseError(
          StringFormat("expected name at offset %zu", start));
    }
    return text_.substr(start, pos_ - start);
  }

  Result<XpAxis> ParseAxis() {
    if (Match("Child")) return XpAxis::kChild;
    if (Match("Parent")) return XpAxis::kParent;
    if (Match("NextSibling")) return XpAxis::kNextSibling;
    if (Match("PreviousSibling")) return XpAxis::kPreviousSibling;
    if (Match("Self")) return XpAxis::kSelf;
    if (Match("ElseWhere")) return XpAxis::kElsewhere;
    return Status::ParseError(
        StringFormat("expected axis at offset %zu", pos_));
  }

  Result<NameTest> ParseNameTest() {
    if (PeekChar('*')) {
      ++pos_;
      return NameTest{true, kNoSymbol};
    }
    FO2DT_ASSIGN_OR_RETURN(std::string name, ParseName());
    return NameTest{false, labels_->Intern(name)};
  }

  Result<XpStep> ParseStep() {
    if (depth_ >= kMaxXPathDepth) {
      return Status::ParseError(
          StringFormat("XPath nested too deeply at offset %zu", pos_));
    }
    XpDepthGuard guard(&depth_);
    XpStep step;
    FO2DT_ASSIGN_OR_RETURN(step.axis, ParseAxis());
    if (!Match("::")) return Status::ParseError("expected '::' after axis");
    FO2DT_ASSIGN_OR_RETURN(step.test, ParseNameTest());
    while (PeekChar('[')) {
      ++pos_;
      FO2DT_ASSIGN_OR_RETURN(XpPredicate pred, ParsePredExpr());
      if (!PeekChar(']')) return Status::ParseError("expected ']'");
      ++pos_;
      step.predicates.push_back(std::move(pred));
    }
    return step;
  }

  Result<XpPath> ParsePath() {
    XpPath path;
    if (PeekChar('/')) {
      path.absolute = true;
      ++pos_;
      SkipSpace();
      if (pos_ == text_.size() || text_[pos_] == ']') return path;  // "/"
    }
    FO2DT_ASSIGN_OR_RETURN(XpStep first, ParseStep());
    path.steps.push_back(std::move(first));
    while (!AtAttributeBreak() && PeekChar('/')) {
      ++pos_;
      FO2DT_ASSIGN_OR_RETURN(XpStep next, ParseStep());
      path.steps.push_back(std::move(next));
    }
    return path;
  }

  Result<Symbol> ParseAttribute() {
    if (!PeekChar('/')) return Status::ParseError("expected '/@attr'");
    ++pos_;
    SkipSpace();
    if (!PeekChar('@')) return Status::ParseError("expected '@'");
    ++pos_;
    FO2DT_ASSIGN_OR_RETURN(std::string name, ParseName());
    return labels_->Intern(name);
  }

  Result<XpPredicate> ParsePredExpr() { return ParseOr(); }

  Result<XpPredicate> ParseOr() {
    FO2DT_ASSIGN_OR_RETURN(XpPredicate left, ParseAnd());
    while (Match("or")) {
      FO2DT_ASSIGN_OR_RETURN(XpPredicate right, ParseAnd());
      XpPredicate node;
      node.kind = XpPredicate::Kind::kOr;
      node.children = {std::move(left), std::move(right)};
      left = std::move(node);
    }
    return left;
  }

  Result<XpPredicate> ParseAnd() {
    FO2DT_ASSIGN_OR_RETURN(XpPredicate left, ParseUnary());
    while (Match("and")) {
      FO2DT_ASSIGN_OR_RETURN(XpPredicate right, ParseUnary());
      XpPredicate node;
      node.kind = XpPredicate::Kind::kAnd;
      node.children = {std::move(left), std::move(right)};
      left = std::move(node);
    }
    return left;
  }

  Result<XpPredicate> ParseUnary() {
    if (depth_ >= kMaxXPathDepth) {
      return Status::ParseError(
          StringFormat("XPath nested too deeply at offset %zu", pos_));
    }
    XpDepthGuard guard(&depth_);
    if (Match("not")) {
      FO2DT_ASSIGN_OR_RETURN(XpPredicate inner, ParseUnary());
      XpPredicate node;
      node.kind = XpPredicate::Kind::kNot;
      node.children = {std::move(inner)};
      return node;
    }
    if (PeekChar('(')) {
      ++pos_;
      FO2DT_ASSIGN_OR_RETURN(XpPredicate inner, ParsePredExpr());
      if (!PeekChar(')')) return Status::ParseError("expected ')'");
      ++pos_;
      return inner;
    }
    // Path-led form.
    FO2DT_ASSIGN_OR_RETURN(XpPath path, ParsePath());
    if (!AtAttributeBreak()) {
      XpPredicate node;
      node.kind = XpPredicate::Kind::kPathExists;
      node.path = std::make_shared<XpPath>(std::move(path));
      return node;
    }
    FO2DT_ASSIGN_OR_RETURN(Symbol left_attr, ParseAttribute());
    bool equal;
    if (Match("!=")) {
      equal = false;
    } else if (Match("=")) {
      equal = true;
    } else {
      return Status::ParseError("expected '=' or '!=' after attribute");
    }
    // Right-hand side: absolute path or a single step.
    SkipSpace();
    if (PeekChar('/')) {
      FO2DT_ASSIGN_OR_RETURN(XpPath rhs, ParsePath());
      if (!rhs.absolute) {
        return Status::Internal("absolute RHS expected after '/'");
      }
      FO2DT_ASSIGN_OR_RETURN(Symbol right_attr, ParseAttribute());
      XpPredicate node;
      node.kind = XpPredicate::Kind::kPathCompare;
      node.path = std::make_shared<XpPath>(std::move(path));
      node.left_attribute = left_attr;
      node.equal = equal;
      node.abs_path = std::make_shared<XpPath>(std::move(rhs));
      node.right_attribute = right_attr;
      return node;
    }
    // Relative equality: LHS must be a single Self step without predicates.
    if (path.absolute || path.steps.size() != 1 ||
        path.steps[0].axis != XpAxis::kSelf ||
        !path.steps[0].predicates.empty()) {
      return Status::InvalidArgument(
          "relative (in-)equality requires the form Self::t/@A EqOp Step/@B");
    }
    FO2DT_ASSIGN_OR_RETURN(XpStep rhs_step, ParseStep());
    FO2DT_ASSIGN_OR_RETURN(Symbol right_attr, ParseAttribute());
    XpPredicate node;
    node.kind = XpPredicate::Kind::kRelCompare;
    node.self_test = path.steps[0].test;
    node.left_attribute = left_attr;
    node.equal = equal;
    node.rel_step = std::make_shared<XpStep>(std::move(rhs_step));
    node.right_attribute = right_attr;
    return node;
  }

  const std::string& text_;
  Alphabet* labels_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

// ---------------------------------------------------------------------------
// Printer

std::string NameTestToString(const NameTest& t, const Alphabet& labels) {
  return t.wildcard ? "*" : labels.Name(t.name);
}

std::string PredicateToString(const XpPredicate& p, const Alphabet& labels);

std::string StepToString(const XpStep& s, const Alphabet& labels) {
  std::string out = std::string(AxisName(s.axis)) + "::" +
                    NameTestToString(s.test, labels);
  for (const XpPredicate& p : s.predicates) {
    out += "[" + PredicateToString(p, labels) + "]";
  }
  return out;
}

std::string PathToString(const XpPath& p, const Alphabet& labels) {
  std::string out = p.absolute ? "/" : "";
  for (size_t i = 0; i < p.steps.size(); ++i) {
    if (i) out += "/";
    out += StepToString(p.steps[i], labels);
  }
  return out;
}

std::string PredicateToString(const XpPredicate& p, const Alphabet& labels) {
  switch (p.kind) {
    case XpPredicate::Kind::kPathExists:
      return PathToString(*p.path, labels);
    case XpPredicate::Kind::kPathCompare:
      return PathToString(*p.path, labels) + "/@" +
             labels.Name(p.left_attribute) + (p.equal ? " = " : " != ") +
             PathToString(*p.abs_path, labels) + "/@" +
             labels.Name(p.right_attribute);
    case XpPredicate::Kind::kRelCompare:
      return "Self::" + NameTestToString(p.self_test, labels) + "/@" +
             labels.Name(p.left_attribute) + (p.equal ? " = " : " != ") +
             StepToString(*p.rel_step, labels) + "/@" +
             labels.Name(p.right_attribute);
    case XpPredicate::Kind::kAnd:
      return "(" + PredicateToString(p.children[0], labels) + " and " +
             PredicateToString(p.children[1], labels) + ")";
    case XpPredicate::Kind::kOr:
      return "(" + PredicateToString(p.children[0], labels) + " or " +
             PredicateToString(p.children[1], labels) + ")";
    case XpPredicate::Kind::kNot:
      return "not " + PredicateToString(p.children[0], labels);
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Safety

Status CollectAssociations(const XpPredicate& p, SafetyAssociations* out);

Status CollectFromStep(const XpStep& s, SafetyAssociations* out) {
  for (const XpPredicate& p : s.predicates) {
    FO2DT_RETURN_NOT_OK(CollectAssociations(p, out));
  }
  return Status::OK();
}

Status CollectFromPath(const XpPath& path, SafetyAssociations* out) {
  for (const XpStep& s : path.steps) {
    FO2DT_RETURN_NOT_OK(CollectFromStep(s, out));
  }
  return Status::OK();
}

Status AddAssociation(const NameTest& test, Symbol attr,
                      SafetyAssociations* out) {
  if (test.wildcard) {
    if (out->wildcard.has_value() && *out->wildcard != attr) {
      return Status::InvalidArgument(
          "unsafe expression: wildcard associated with two attributes");
    }
    out->wildcard = attr;
    return Status::OK();
  }
  auto [it, fresh] = out->by_label.emplace(test.name, attr);
  if (!fresh && it->second != attr) {
    return Status::InvalidArgument(
        "unsafe expression: one label associated with two attributes");
  }
  return Status::OK();
}

Status CollectAssociations(const XpPredicate& p, SafetyAssociations* out) {
  switch (p.kind) {
    case XpPredicate::Kind::kPathExists:
      return CollectFromPath(*p.path, out);
    case XpPredicate::Kind::kPathCompare:
      FO2DT_RETURN_NOT_OK(CollectFromPath(*p.path, out));
      return CollectFromPath(*p.abs_path, out);
    case XpPredicate::Kind::kRelCompare:
      FO2DT_RETURN_NOT_OK(AddAssociation(p.self_test, p.left_attribute, out));
      FO2DT_RETURN_NOT_OK(
          AddAssociation(p.rel_step->test, p.right_attribute, out));
      return CollectFromStep(*p.rel_step, out);
    case XpPredicate::Kind::kAnd:
    case XpPredicate::Kind::kOr:
    case XpPredicate::Kind::kNot:
      for (const XpPredicate& c : p.children) {
        FO2DT_RETURN_NOT_OK(CollectAssociations(c, out));
      }
      return Status::OK();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Evaluator

std::vector<DataValue> AttrValues(const DataTree& t, NodeId v, Symbol attr) {
  std::vector<DataValue> out;
  for (NodeId c = t.first_child(v); c != kNoNode; c = t.next_sibling(c)) {
    if (t.label(c) == attr) out.push_back(t.data(c));
  }
  return out;
}

Result<bool> EvalPredicate(const DataTree& t, const XpPredicate& p, NodeId v);

Result<std::vector<NodeId>> EvalSteps(const DataTree& t, const XpPath& path,
                                      const std::vector<NodeId>& start) {
  std::set<NodeId> cur;
  if (path.absolute) {
    if (!t.empty()) cur.insert(t.root());
  } else {
    cur.insert(start.begin(), start.end());
  }
  for (const XpStep& step : path.steps) {
    std::set<NodeId> next;
    for (NodeId v : cur) {
      std::vector<NodeId> candidates;
      switch (step.axis) {
        case XpAxis::kChild:
          candidates = t.Children(v);
          break;
        case XpAxis::kParent:
          if (t.parent(v) != kNoNode) candidates.push_back(t.parent(v));
          break;
        case XpAxis::kNextSibling:
          if (t.next_sibling(v) != kNoNode) {
            candidates.push_back(t.next_sibling(v));
          }
          break;
        case XpAxis::kPreviousSibling:
          if (t.prev_sibling(v) != kNoNode) {
            candidates.push_back(t.prev_sibling(v));
          }
          break;
        case XpAxis::kSelf:
          candidates.push_back(v);
          break;
        case XpAxis::kElsewhere:
          for (NodeId w = 0; w < t.size(); ++w) {
            if (w != v) candidates.push_back(w);
          }
          break;
      }
      for (NodeId w : candidates) {
        if (!step.test.Matches(t.label(w))) continue;
        bool ok = true;
        for (const XpPredicate& pred : step.predicates) {
          FO2DT_ASSIGN_OR_RETURN(bool holds, EvalPredicate(t, pred, w));
          if (!holds) {
            ok = false;
            break;
          }
        }
        if (ok) next.insert(w);
      }
    }
    cur = std::move(next);
  }
  return std::vector<NodeId>(cur.begin(), cur.end());
}

Result<bool> EvalPredicate(const DataTree& t, const XpPredicate& p, NodeId v) {
  switch (p.kind) {
    case XpPredicate::Kind::kPathExists: {
      FO2DT_ASSIGN_OR_RETURN(std::vector<NodeId> hits,
                             EvalSteps(t, *p.path, {v}));
      return !hits.empty();
    }
    case XpPredicate::Kind::kPathCompare: {
      FO2DT_ASSIGN_OR_RETURN(std::vector<NodeId> lhs,
                             EvalSteps(t, *p.path, {v}));
      FO2DT_ASSIGN_OR_RETURN(std::vector<NodeId> rhs,
                             EvalSteps(t, *p.abs_path, {}));
      std::set<DataValue> left_vals;
      for (NodeId u : lhs) {
        for (DataValue d : AttrValues(t, u, p.left_attribute)) {
          left_vals.insert(d);
        }
      }
      std::set<DataValue> right_vals;
      for (NodeId u : rhs) {
        for (DataValue d : AttrValues(t, u, p.right_attribute)) {
          right_vals.insert(d);
        }
      }
      for (DataValue a : left_vals) {
        for (DataValue b : right_vals) {
          if (p.equal ? a == b : a != b) return true;
        }
      }
      return false;
    }
    case XpPredicate::Kind::kRelCompare: {
      if (!p.self_test.Matches(t.label(v))) return false;
      std::vector<DataValue> left_vals =
          AttrValues(t, v, p.left_attribute);
      if (left_vals.empty()) return false;
      XpPath step_path;
      step_path.steps.push_back(*p.rel_step);
      FO2DT_ASSIGN_OR_RETURN(std::vector<NodeId> targets,
                             EvalSteps(t, step_path, {v}));
      for (NodeId w : targets) {
        for (DataValue b : AttrValues(t, w, p.right_attribute)) {
          for (DataValue a : left_vals) {
            if (p.equal ? a == b : a != b) return true;
          }
        }
      }
      return false;
    }
    case XpPredicate::Kind::kAnd: {
      for (const XpPredicate& c : p.children) {
        FO2DT_ASSIGN_OR_RETURN(bool holds, EvalPredicate(t, c, v));
        if (!holds) return false;
      }
      return true;
    }
    case XpPredicate::Kind::kOr: {
      for (const XpPredicate& c : p.children) {
        FO2DT_ASSIGN_OR_RETURN(bool holds, EvalPredicate(t, c, v));
        if (holds) return true;
      }
      return false;
    }
    case XpPredicate::Kind::kNot: {
      FO2DT_ASSIGN_OR_RETURN(bool holds, EvalPredicate(t, p.children[0], v));
      return !holds;
    }
  }
  return Status::Internal("unreachable predicate kind");
}

// ---------------------------------------------------------------------------
// Translation to FO²(∼,+1)

using Continuation = std::function<Result<Formula>(Var)>;

Result<Formula> IsRoot(Var v) {
  return Formula::Not(Formula::Exists(
      OtherVar(v), Formula::Edge(Axis::kChild, OtherVar(v), v)));
}

/// Edge formula for a forward move from `from` to `to` along `axis`.
Result<Formula> AxisEdge(XpAxis axis, Var from, Var to) {
  switch (axis) {
    case XpAxis::kChild:
      return Formula::Edge(Axis::kChild, from, to);
    case XpAxis::kParent:
      return Formula::Edge(Axis::kChild, to, from);
    case XpAxis::kNextSibling:
      return Formula::Edge(Axis::kNextSibling, from, to);
    case XpAxis::kPreviousSibling:
      return Formula::Edge(Axis::kNextSibling, to, from);
    case XpAxis::kElsewhere:
      return Formula::Not(Formula::Equal(from, to));
    case XpAxis::kSelf:
      return Status::Internal("Self has no edge formula");
  }
  return Status::Internal("unreachable axis");
}

Result<Formula> TranslatePredicate(const XpPredicate& p, Var v,
                                   const SafetyAssociations& assoc);

Result<Formula> NodeConditions(const XpStep& step, Var v,
                               const SafetyAssociations& assoc) {
  std::vector<Formula> parts;
  if (!step.test.wildcard) {
    parts.push_back(Formula::Label(step.test.name, v));
  }
  for (const XpPredicate& pred : step.predicates) {
    FO2DT_ASSIGN_OR_RETURN(Formula f, TranslatePredicate(pred, v, assoc));
    parts.push_back(std::move(f));
  }
  return Formula::And(std::move(parts));
}

/// Forward translation: starting at `v`, steps[i..] can be traversed ending
/// in a node satisfying `k`.
Result<Formula> TranslateForward(const std::vector<XpStep>& steps, size_t i,
                                 Var v, const SafetyAssociations& assoc,
                                 const Continuation& k) {
  if (i == steps.size()) return k(v);
  const XpStep& step = steps[i];
  if (step.axis == XpAxis::kSelf) {
    FO2DT_ASSIGN_OR_RETURN(Formula here, NodeConditions(step, v, assoc));
    FO2DT_ASSIGN_OR_RETURN(Formula rest,
                           TranslateForward(steps, i + 1, v, assoc, k));
    return Formula::And(std::move(here), std::move(rest));
  }
  Var next = OtherVar(v);
  FO2DT_ASSIGN_OR_RETURN(Formula edge, AxisEdge(step.axis, v, next));
  FO2DT_ASSIGN_OR_RETURN(Formula here, NodeConditions(step, next, assoc));
  FO2DT_ASSIGN_OR_RETURN(Formula rest,
                         TranslateForward(steps, i + 1, next, assoc, k));
  return Formula::Exists(
      next, Formula::And({std::move(edge), std::move(here), std::move(rest)}));
}

/// Backward translation of an absolute path: `v` is a node selected by the
/// path (simulating the path from `v` back to the root, the paper's trick
/// for absolute sides of data comparisons).
Result<Formula> TranslateAbsoluteEnd(const XpPath& path, size_t i, Var v,
                                     const SafetyAssociations& assoc) {
  if (path.steps.empty()) return IsRoot(v);  // the path "/" selects the root
  const XpStep& step = path.steps[i];
  FO2DT_ASSIGN_OR_RETURN(Formula here, NodeConditions(step, v, assoc));
  if (step.axis == XpAxis::kSelf) {
    if (i == 0) {
      FO2DT_ASSIGN_OR_RETURN(Formula root, IsRoot(v));
      return Formula::And(std::move(here), std::move(root));
    }
    FO2DT_ASSIGN_OR_RETURN(Formula rest,
                           TranslateAbsoluteEnd(path, i - 1, v, assoc));
    return Formula::And(std::move(here), std::move(rest));
  }
  Var prev = OtherVar(v);
  FO2DT_ASSIGN_OR_RETURN(Formula edge, AxisEdge(step.axis, prev, v));
  Formula prev_cond = Formula::True();
  if (i == 0) {
    FO2DT_ASSIGN_OR_RETURN(prev_cond, IsRoot(prev));
  } else {
    FO2DT_ASSIGN_OR_RETURN(prev_cond,
                           TranslateAbsoluteEnd(path, i - 1, prev, assoc));
  }
  return Formula::And(
      std::move(here),
      Formula::Exists(prev,
                      Formula::And(std::move(edge), std::move(prev_cond))));
}

Result<Formula> TranslateAbsoluteEnd(const XpPath& path, Var v,
                                     const SafetyAssociations& assoc) {
  if (path.steps.empty()) return IsRoot(v);
  return TranslateAbsoluteEnd(path, path.steps.size() - 1, v, assoc);
}

/// The data-comparison tail of kPathCompare: at the element `e`, there is an
/// A-attribute child whose value relates (=/!=) to the B-attribute of some
/// element selected by the absolute path.
Result<Formula> CompareTail(const XpPredicate& p, Var e,
                            const SafetyAssociations& assoc) {
  Var attr = OtherVar(e);
  // From the attribute node `attr`, jump to a same/different-valued
  // B-attribute node, then simulate the absolute path backwards from its
  // parent (the paper's Section V translation).
  Var other = e;  // reuse the element variable: e is no longer needed
  Formula jump_rel = p.equal
                         ? Formula::SameData(attr, other)
                         : Formula::Not(Formula::SameData(attr, other));
  Var rhs_elem = attr;  // reuse again one level deeper
  FO2DT_ASSIGN_OR_RETURN(Formula abs_end,
                         TranslateAbsoluteEnd(*p.abs_path, rhs_elem, assoc));
  Formula b_parent = Formula::Exists(
      rhs_elem, Formula::And(Formula::Edge(Axis::kChild, rhs_elem, other),
                             std::move(abs_end)));
  Formula jump = Formula::Exists(
      other, Formula::And({std::move(jump_rel),
                           Formula::Label(p.right_attribute, other),
                           std::move(b_parent)}));
  return Formula::Exists(
      attr, Formula::And({Formula::Edge(Axis::kChild, e, attr),
                          Formula::Label(p.left_attribute, attr),
                          std::move(jump)}));
}

Result<Formula> TranslatePredicate(const XpPredicate& p, Var v,
                                   const SafetyAssociations& assoc) {
  switch (p.kind) {
    case XpPredicate::Kind::kPathExists: {
      if (p.path->absolute) {
        Var end = OtherVar(v);
        FO2DT_ASSIGN_OR_RETURN(Formula f,
                               TranslateAbsoluteEnd(*p.path, end, assoc));
        return Formula::Exists(end, std::move(f));
      }
      Continuation done = [](Var) -> Result<Formula> {
        return Formula::True();
      };
      return TranslateForward(p.path->steps, 0, v, assoc, done);
    }
    case XpPredicate::Kind::kPathCompare: {
      Continuation tail = [&](Var e) { return CompareTail(p, e, assoc); };
      if (p.path->absolute) {
        Var end = OtherVar(v);
        FO2DT_ASSIGN_OR_RETURN(Formula at_end,
                               TranslateAbsoluteEnd(*p.path, end, assoc));
        FO2DT_ASSIGN_OR_RETURN(Formula cmp, tail(end));
        return Formula::Exists(end,
                               Formula::And(std::move(at_end), std::move(cmp)));
      }
      return TranslateForward(p.path->steps, 0, v, assoc, tail);
    }
    case XpPredicate::Kind::kRelCompare: {
      // Element-value encoding: the data values of associated elements hold
      // their associated attribute's value, so the comparison is x ~ y on
      // the elements themselves; attribute-presence guards keep missing
      // attributes from matching accidentally.
      std::vector<Formula> parts;
      if (!p.self_test.wildcard) {
        parts.push_back(Formula::Label(p.self_test.name, v));
      }
      Var o = OtherVar(v);
      parts.push_back(Formula::Exists(
          o, Formula::And(Formula::Edge(Axis::kChild, v, o),
                          Formula::Label(p.left_attribute, o))));
      FO2DT_ASSIGN_OR_RETURN(Formula edge, AxisEdge(p.rel_step->axis, v, o));
      FO2DT_ASSIGN_OR_RETURN(Formula target_cond,
                             NodeConditions(*p.rel_step, o, assoc));
      Formula rel = p.equal ? Formula::SameData(v, o)
                            : Formula::Not(Formula::SameData(v, o));
      Formula b_guard = Formula::Exists(
          v, Formula::And(Formula::Edge(Axis::kChild, o, v),
                          Formula::Label(p.right_attribute, v)));
      if (p.rel_step->axis == XpAxis::kSelf) {
        return Status::NotImplemented(
            "Self-to-Self relative comparison is not part of the fragment");
      }
      parts.push_back(Formula::Exists(
          o, Formula::And({std::move(edge), std::move(target_cond),
                           std::move(rel), std::move(b_guard)})));
      return Formula::And(std::move(parts));
    }
    case XpPredicate::Kind::kAnd:
    case XpPredicate::Kind::kOr: {
      std::vector<Formula> parts;
      for (const XpPredicate& c : p.children) {
        FO2DT_ASSIGN_OR_RETURN(Formula f, TranslatePredicate(c, v, assoc));
        parts.push_back(std::move(f));
      }
      return p.kind == XpPredicate::Kind::kAnd ? Formula::And(std::move(parts))
                                               : Formula::Or(std::move(parts));
    }
    case XpPredicate::Kind::kNot: {
      FO2DT_ASSIGN_OR_RETURN(Formula f,
                             TranslatePredicate(p.children[0], v, assoc));
      return Formula::Not(std::move(f));
    }
  }
  return Status::Internal("unreachable predicate kind");
}

}  // namespace

Result<XpPath> ParseXPath(const std::string& text, Alphabet* labels) {
  return XPathParser(text, labels).Parse();
}

std::string XPathToString(const XpPath& path, const Alphabet& labels) {
  return PathToString(path, labels);
}

std::optional<Symbol> SafetyAssociations::AttributeFor(Symbol label) const {
  auto it = by_label.find(label);
  if (it != by_label.end()) return it->second;
  return wildcard;
}

Result<SafetyAssociations> CheckSafety(
    const std::vector<const XpPath*>& paths) {
  SafetyAssociations out;
  for (const XpPath* p : paths) {
    FO2DT_RETURN_NOT_OK(CollectFromPath(*p, &out));
  }
  // The wildcard must agree with every per-label association.
  if (out.wildcard.has_value()) {
    for (const auto& [label, attr] : out.by_label) {
      (void)label;
      if (attr != *out.wildcard) {
        return Status::InvalidArgument(
            "unsafe expression set: wildcard and label associations differ");
      }
    }
  }
  return out;
}

Result<std::vector<NodeId>> EvaluateXPath(const DataTree& t, const XpPath& path,
                                          const std::vector<NodeId>& start) {
  if (t.empty()) return std::vector<NodeId>{};
  return EvalSteps(t, path, start);
}

Result<std::vector<NodeId>> EvaluateXPathFromRoot(const DataTree& t,
                                                  const XpPath& path) {
  if (t.empty()) return std::vector<NodeId>{};
  return EvalSteps(t, path, {t.root()});
}

Result<Formula> TranslateXPathToFo2(const XpPath& path,
                                    const SafetyAssociations& assoc) {
  if (!path.absolute) {
    return Status::NotImplemented(
        "only absolute queries are translated as unary formulas; binary "
        "containment of relative queries needs distinguished-node markers");
  }
  return TranslateAbsoluteEnd(path, Var::kX, assoc);
}

Formula ElementValueConsistencyFormula(const SafetyAssociations& assoc,
                                       size_t num_labels) {
  std::vector<Formula> parts;
  auto tie = [](Formula label_test, Symbol attr) {
    // ∀x∀y: label(x) ∧ child(x,y) ∧ attr(y) → x ~ y.
    Formula body = Formula::Implies(
        Formula::And({std::move(label_test),
                      Formula::Edge(Axis::kChild, Var::kX, Var::kY),
                      Formula::Label(attr, Var::kY)}),
        Formula::SameData(Var::kX, Var::kY));
    return Formula::Forall(Var::kX, Formula::Forall(Var::kY, body));
  };
  if (assoc.wildcard.has_value()) {
    parts.push_back(tie(Formula::True(), *assoc.wildcard));
  }
  for (const auto& [label, attr] : assoc.by_label) {
    if (label < num_labels) {
      parts.push_back(tie(Formula::Label(label, Var::kX), attr));
    }
  }
  return Formula::And(std::move(parts));
}

DataTree ApplyElementValueEncoding(const DataTree& t,
                                   const SafetyAssociations& assoc) {
  DataTree out = t;
  for (NodeId v = 0; v < t.size(); ++v) {
    std::optional<Symbol> attr = assoc.AttributeFor(t.label(v));
    if (!attr.has_value()) continue;
    for (NodeId c = t.first_child(v); c != kNoNode; c = t.next_sibling(c)) {
      if (t.label(c) == *attr) {
        out.set_data(v, t.data(c));
        break;
      }
    }
  }
  return out;
}

namespace {

void MaxSymbolIn(const XpPath& path, Symbol* max_plus_one);

void MaxSymbolIn(const NameTest& test, Symbol* max_plus_one) {
  if (!test.wildcard && test.name != kNoSymbol && test.name + 1 > *max_plus_one) {
    *max_plus_one = test.name + 1;
  }
}

void MaxSymbolIn(const XpPredicate& pred, Symbol* max_plus_one) {
  auto attr = [&](Symbol a) {
    if (a != kNoSymbol && a + 1 > *max_plus_one) *max_plus_one = a + 1;
  };
  if (pred.path != nullptr) MaxSymbolIn(*pred.path, max_plus_one);
  if (pred.abs_path != nullptr) MaxSymbolIn(*pred.abs_path, max_plus_one);
  attr(pred.left_attribute);
  attr(pred.right_attribute);
  MaxSymbolIn(pred.self_test, max_plus_one);
  if (pred.rel_step != nullptr) {
    MaxSymbolIn(pred.rel_step->test, max_plus_one);
    for (const XpPredicate& p : pred.rel_step->predicates) {
      MaxSymbolIn(p, max_plus_one);
    }
  }
  for (const XpPredicate& p : pred.children) MaxSymbolIn(p, max_plus_one);
}

void MaxSymbolIn(const XpPath& path, Symbol* max_plus_one) {
  for (const XpStep& step : path.steps) {
    MaxSymbolIn(step.test, max_plus_one);
    for (const XpPredicate& p : step.predicates) MaxSymbolIn(p, max_plus_one);
  }
}

// Replay body for the XPath facades: alphabet size, optional schema, the
// expression(s) in concrete syntax, budgets. All symbol ids are dense, so
// re-parsing against a same-size canonical alphabet is position-stable —
// provided the replay alphabet is pre-interned before ParseXPath interns.
std::string SerializeXPathProblem(const std::vector<const XpPath*>& paths,
                                  const TreeAutomaton* schema,
                                  const SolverOptions& options) {
  Symbol alpha = 0;
  for (const XpPath* p : paths) MaxSymbolIn(*p, &alpha);
  if (schema != nullptr && schema->num_symbols() > alpha) {
    alpha = static_cast<Symbol>(schema->num_symbols());
  }
  Alphabet replay_alphabet = MakeReplayAlphabet(alpha);
  std::string body =
      StringFormat("labels %llu\n", static_cast<unsigned long long>(alpha));
  body += StringFormat("budget max_model_nodes %llu\n",
                       static_cast<unsigned long long>(options.max_model_nodes));
  body += StringFormat("budget max_steps %llu\n",
                       static_cast<unsigned long long>(options.max_steps));
  if (schema != nullptr) {
    body += "schema\n" + TreeAutomatonToText(*schema);
  }
  for (const XpPath* p : paths) {
    body += StringFormat("xpath %s\n",
                         XPathToString(*p, replay_alphabet).c_str());
  }
  return body;
}

FacadeRequest XPathFacadeRequest(const char* facade,
                                 std::vector<const XpPath*> paths,
                                 const TreeAutomaton* schema,
                                 const SolverOptions& options) {
  return {.facade = facade,
          .exec = options.exec,
          .body = [paths, schema, &options] {
            return SerializeXPathProblem(paths, schema, options);
          },
          .budgets = {{"max_model_nodes", options.max_model_nodes},
                      {"max_steps", options.max_steps}}};
}

}  // namespace

Result<SatResult> CheckXPathSatisfiability(const XpPath& path,
                                           const TreeAutomaton* schema,
                                           const SolverOptions& options) {
  return RunFacade<SatResult>(
      XPathFacadeRequest(names::kFacadeXpathSat, {&path}, schema, options),
      {.outcome = SolveOutcomeFromSat}, [&]() -> Result<SatResult> {
        // Translation is charged to kXpath; the solver call at the end times
        // itself (and attaches the PhaseProfile), so the scope closes first.
        Result<Formula> query = [&]() -> Result<Formula> {
          ScopedPhase phase(Phase::kXpath, options.exec);
          FO2DT_ASSIGN_OR_RETURN(SafetyAssociations assoc,
                                 CheckSafety({&path}));
          FO2DT_ASSIGN_OR_RETURN(Formula selected,
                                 TranslateXPathToFo2(path, assoc));
          size_t num_labels =
              schema != nullptr
                  ? schema->num_symbols()
                  : static_cast<size_t>(selected.NumSymbolsSpanned()) + 1;
          return Formula::And(
              Formula::Exists(Var::kX, std::move(selected)),
              ElementValueConsistencyFormula(assoc, num_labels));
        }();
        FO2DT_RETURN_NOT_OK(query.status());
        SolverOptions opt = options;
        opt.structural_filter = schema;
        return CheckFo2SatisfiabilityBounded(*query, opt);
      });
}

Result<SatResult> CheckXPathContainment(const XpPath& p, const XpPath& q,
                                        const TreeAutomaton* schema,
                                        const SolverOptions& options) {
  return RunFacade<SatResult>(
      XPathFacadeRequest(names::kFacadeXpathContainment, {&p, &q}, schema,
                         options),
      {.outcome = SolveOutcomeFromSat}, [&]() -> Result<SatResult> {
        Result<Formula> query = [&]() -> Result<Formula> {
          ScopedPhase phase(Phase::kXpath, options.exec);
          FO2DT_ASSIGN_OR_RETURN(SafetyAssociations assoc,
                                 CheckSafety({&p, &q}));
          FO2DT_ASSIGN_OR_RETURN(Formula in_p, TranslateXPathToFo2(p, assoc));
          FO2DT_ASSIGN_OR_RETURN(Formula in_q, TranslateXPathToFo2(q, assoc));
          Formula counterexample =
              Formula::And(std::move(in_p), Formula::Not(std::move(in_q)));
          size_t num_labels =
              schema != nullptr
                  ? schema->num_symbols()
                  : static_cast<size_t>(counterexample.NumSymbolsSpanned()) + 1;
          return Formula::And(
              Formula::Exists(Var::kX, std::move(counterexample)),
              ElementValueConsistencyFormula(assoc, num_labels));
        }();
        FO2DT_RETURN_NOT_OK(query.status());
        SolverOptions opt = options;
        opt.structural_filter = schema;
        return CheckFo2SatisfiabilityBounded(*query, opt);
      });
}

}  // namespace fo2dt
