#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "automata/automaton_io.h"
#include "automata/word_automata.h"
#include "common/flight_recorder.h"
#include "common/query_log.h"
#include "common/random.h"
#include "common/symbol.h"
#include "constraints/constraints.h"
#include "xmlenc/dtd.h"

namespace fo2dt::perfbench {

namespace {

std::string Label(size_t i) { return "l" + std::to_string(i); }

std::vector<size_t> Permutation(size_t n, RandomSource* rng) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng->UniformIndex(i)]);
  return p;
}

std::string Join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Theorem 1 families (frontend.sat), written over canonical labels. The
// `labels` line fixes the alphabet the search enumerates: the formula's own
// labels and no spare one, so a relabeling changes the cache key but not
// the search space.

/// Labels that must pairwise lie in different classes: the smallest model
/// has one node per label, so the bounded search answers SAT exactly when
/// the bound is at least the label count and exhausts the bound otherwise.
std::vector<std::string> DistinctClassConjuncts(const std::vector<size_t>& l) {
  std::vector<std::string> out;
  for (size_t i = 0; i < l.size(); ++i) {
    for (size_t j = i + 1; j < l.size(); ++j) {
      out.push_back("(exists x. exists y. (" + Label(l[i]) + "(x) & " +
                    Label(l[j]) + "(y) & !(x ~ y)))");
    }
  }
  return out;
}

/// An a-node needs a same-valued child while no two nodes share a value:
/// unsatisfiable, and refutable by no route the solver has, so every bound
/// is exhausted (UNKNOWN with no budget stop).
std::vector<std::string> ExhaustBoundConjuncts() {
  const std::string l = Label(0);
  return {"(exists x. " + l + "(x))",
          "(forall x. (" + l + "(x) -> exists y. (child(x,y) & x ~ y)))",
          "(forall x. forall y. (x ~ y -> x = y))"};
}

/// A frontend.sat instance kept as conjuncts so a repeat can reorder them.
struct SatInstance {
  size_t labels = 0;
  size_t bound = 0;
  std::vector<std::string> conjuncts;

  std::string Body() const {
    return "labels " + std::to_string(labels) + "\nbudget max_model_nodes " +
           std::to_string(bound) + "\nformula " + Join(conjuncts, " & ");
  }
};

/// DistinctClasses over l0..l(k-1) in a seeded order, plus the implied
/// conjunct "some node carries l" for a seeded subset of the labels: the
/// same models, a different cache key.
SatInstance DistinctClassInstance(size_t k, size_t bound, RandomSource* rng) {
  std::vector<size_t> labels = Permutation(k, rng);
  SatInstance inst{k, bound, DistinctClassConjuncts(labels)};
  for (size_t l : labels) {
    if (rng->Bernoulli(0.5)) {
      inst.conjuncts.push_back("(exists x. " + Label(l) + "(x))");
    }
  }
  return inst;
}

// ---------------------------------------------------------------------------
// Key / foreign-key family: bench/bench_constraints.cc's DTD family with
// multiplicities. Per entity kind i the root holds `sources` mandatory src_i
// elements, `refs` mandatory ref_i elements and (if `extra_ref`) one more
// optional ref_i; every src_i/ref_i carries attribute k_i. Constraints: ref_i.k_i
// is a key, src_i.k_i ⊆ ref_i.k_i, and src_i.k_i is a key when
// `keyed_sources`.

struct KindSpec {
  size_t sources = 1;
  size_t refs = 0;
  bool extra_ref = true;
  bool keyed_sources = false;

  size_t MaxRefs() const { return refs + (extra_ref ? 1 : 0); }
  /// Refs a conforming document needs: keyed sources need pairwise
  /// distinct values, each present at a (keyed, so distinct) ref; unkeyed
  /// sources can share one value.
  size_t RefsNeeded() const {
    return std::max(refs, keyed_sources ? sources : size_t{1});
  }
  bool Consistent() const { return RefsNeeded() <= MaxRefs(); }
  /// Nodes of the smallest document conforming to the schema alone.
  size_t SchemaMinNodes() const { return 2 * (sources + refs); }
  /// Nodes of the smallest document satisfying schema and constraints.
  size_t ConsistentMinNodes() const { return 2 * (sources + RefsNeeded()); }
};

struct ConstraintInstance {
  std::string schema_text;   // "schema\n" + automaton text
  std::vector<std::string> constraint_lines;
  std::vector<UnaryKey> source_keys;  // src_i.k_i per kind (for conclusions)
  size_t num_labels = 0;
};

/// Builds the schema and constraint lines with the labels interned in a
/// seeded order, so every relabeling keys its own cache entry.
ConstraintInstance BuildConstraintInstance(const std::vector<KindSpec>& kinds,
                                           RandomSource* rng) {
  std::vector<std::string> names = {"root"};
  for (size_t i = 0; i < kinds.size(); ++i) {
    names.push_back("src" + std::to_string(i));
    names.push_back("ref" + std::to_string(i));
    names.push_back("k" + std::to_string(i));
  }
  Alphabet labels;
  for (size_t p : Permutation(names.size(), rng)) labels.Intern(names[p]);

  Dtd dtd;
  dtd.root = labels.Find("root");
  ConstraintInstance out;
  // The element declarations and the root's content model come in a seeded
  // order too: another automaton, the same counts, the same answer.
  ConstraintSet set;
  std::vector<std::string> content;
  for (size_t i = 0; i < kinds.size(); ++i) {
    const KindSpec& k = kinds[i];
    const std::string n = std::to_string(i);
    Symbol src = labels.Find("src" + n);
    Symbol ref = labels.Find("ref" + n);
    Symbol key = labels.Find("k" + n);
    dtd.elements.push_back(DtdElement{src, Regex::Epsilon(), {key}});
    dtd.elements.push_back(DtdElement{ref, Regex::Epsilon(), {key}});
    for (size_t j = 0; j < k.sources; ++j) content.push_back("src" + n);
    for (size_t j = 0; j < k.refs; ++j) content.push_back("ref" + n);
    if (k.extra_ref) content.push_back("ref" + n + "?");
    if (k.keyed_sources) set.keys.push_back({src, key});
    set.keys.push_back({ref, key});
    set.inclusions.push_back({src, key, ref, key});
    out.source_keys.push_back({src, key});
  }
  std::vector<DtdElement> declared;
  for (size_t p : Permutation(dtd.elements.size(), rng)) {
    declared.push_back(dtd.elements[p]);
  }
  dtd.elements = std::move(declared);
  std::vector<std::string> shuffled;
  for (size_t p : Permutation(content.size(), rng)) shuffled.push_back(content[p]);
  DtdElement root_el;
  root_el.element = dtd.root;
  Alphabet regex_labels = labels;
  Result<Regex> regex = ParseRegex(Join(shuffled, ", "), &regex_labels);
  if (!regex.ok()) throw std::runtime_error(regex.status().ToString());
  root_el.content = *regex;
  dtd.elements.push_back(root_el);
  Result<TreeAutomaton> schema = DtdToTreeAutomaton(dtd, labels.size());
  if (!schema.ok()) throw std::runtime_error(schema.status().ToString());

  out.schema_text = "schema\n" + TreeAutomatonToText(*schema);
  if (!out.schema_text.empty() && out.schema_text.back() == '\n') {
    out.schema_text.pop_back();
  }
  for (const UnaryKey& k : set.keys) {
    out.constraint_lines.push_back("key " + std::to_string(k.element) + " " +
                                   std::to_string(k.attribute));
  }
  for (const UnaryInclusion& inc : set.inclusions) {
    out.constraint_lines.push_back(
        "inclusion " + std::to_string(inc.from_element) + " " +
        std::to_string(inc.from_attribute) + " " +
        std::to_string(inc.to_element) + " " + std::to_string(inc.to_attribute));
  }
  out.num_labels = labels.size();
  return out;
}

std::string ConstraintBody(const ConstraintInstance& inst,
                           const std::vector<std::string>& budget_lines,
                           bool with_constraints) {
  std::vector<std::string> lines = budget_lines;
  lines.push_back(inst.schema_text);
  if (with_constraints) {
    for (const std::string& l : inst.constraint_lines) lines.push_back(l);
  }
  return Join(lines, "\n");
}

KindSpec RandomKind(RandomSource* rng, size_t max_sources) {
  KindSpec k;
  k.sources = static_cast<size_t>(rng->UniformInt(1, static_cast<int64_t>(max_sources)));
  k.refs = static_cast<size_t>(rng->UniformInt(0, 1));
  k.extra_ref = k.refs == 0 || rng->Bernoulli(0.5);
  k.keyed_sources = rng->Bernoulli(0.5);
  return k;
}

std::string KindTag(const std::vector<KindSpec>& kinds) {
  std::string tag = "k" + std::to_string(kinds.size());
  for (const KindSpec& k : kinds) {
    tag += "." + std::to_string(k.sources) + std::to_string(k.refs) +
           (k.extra_ref ? "o" : "") + (k.keyed_sources ? "K" : "");
  }
  return tag;
}

/// constraints.keyfk: consistent exactly when every kind's sources fit its
/// refs; the LCTA + Parikh-ILP procedure is complete, so SAT or UNSAT.
BenchRequest KeyfkRequest(const std::vector<KindSpec>& kinds,
                          RandomSource* rng) {
  ConstraintInstance inst = BuildConstraintInstance(kinds, rng);
  bool consistent = true;
  for (const KindSpec& k : kinds) consistent = consistent && k.Consistent();
  BenchRequest r;
  r.facade = "constraints.keyfk";
  r.body = ConstraintBody(inst, {}, true);
  r.expect = consistent ? "SAT" : "UNSAT";
  r.family = "keyfk." + KindTag(kinds);
  return r;
}

/// constraints.consistency over one kind by bounded search: SAT when a
/// consistent document fits the bound, else the bound is exhausted.
BenchRequest ConsistencyRequest(const KindSpec& kind, size_t bound,
                                RandomSource* rng) {
  ConstraintInstance inst = BuildConstraintInstance({kind}, rng);
  BenchRequest r;
  r.facade = "constraints.consistency";
  r.body = ConstraintBody(
      inst, {"budget max_model_nodes " + std::to_string(bound)}, true);
  bool fits = kind.Consistent() && 1 + kind.ConsistentMinNodes() <= bound;
  r.expect = fits ? "SAT" : "UNKNOWN";
  r.family = "consistency." + KindTag({kind}) + ".b" + std::to_string(bound);
  return r;
}

/// constraints.implication with no premises and "src.k is a key" as the
/// conclusion: refuted (SAT) by two same-valued sources when the schema
/// forces at least two and the smallest document fits the bound;
/// otherwise no counterexample exists within the bound.
BenchRequest ImplicationRequest(const KindSpec& kind, size_t bound,
                                RandomSource* rng) {
  ConstraintInstance inst = BuildConstraintInstance({kind}, rng);
  Formula conclusion = KeyToFo2(inst.source_keys[0]);
  BenchRequest r;
  r.facade = "constraints.implication";
  r.body = ConstraintBody(
      inst, {"budget max_model_nodes " + std::to_string(bound)}, false);
  r.body += "\nconclusion " +
            conclusion.ToString(MakeReplayAlphabet(inst.num_labels));
  bool refuted = kind.sources >= 2 && 1 + kind.SchemaMinNodes() <= bound;
  r.expect = refuted ? "SAT" : "UNKNOWN";
  r.family = "implication." + KindTag({kind}) + ".b" + std::to_string(bound);
  return r;
}

// ---------------------------------------------------------------------------
// Theorem 3 families (xpath.*): bench/bench_xpath_containment.cc's chain
// queries over a seeded rotation of three labels.

std::string ChainQuery(size_t depth, const std::vector<size_t>& l,
                       bool with_pred) {
  std::string q;
  for (size_t i = 0; i < depth; ++i) q += "/Child::" + Label(l[i % 3]);
  if (with_pred) {
    q += "[Child::" + Label(l[0]) + " and not Child::" + Label(l[1]) + "]";
  }
  return q;
}

/// Containment of the chain with a predicate in the chain without one
/// holds, which bounded search can never prove (UNKNOWN); the reverse is
/// refuted by the bare chain, which has depth + 1 nodes.
BenchRequest ContainmentRequest(size_t depth, bool holds, size_t bound,
                                RandomSource* rng) {
  std::vector<size_t> l = Permutation(3, rng);
  BenchRequest r;
  r.facade = "xpath.containment";
  r.body = "labels 3\nbudget max_model_nodes " + std::to_string(bound) + "\nxpath " +
           ChainQuery(depth, l, holds) + "\nxpath " +
           ChainQuery(depth, l, !holds);
  r.expect = holds || depth + 1 > bound ? "UNKNOWN" : "SAT";
  r.family = std::string("containment.") + (holds ? "holds" : "refuted") +
             ".d" + std::to_string(depth);
  return r;
}

/// A chain whose last step needs a child: satisfiable by a path of
/// depth + 2 nodes.
BenchRequest XpathSatRequest(size_t depth, RandomSource* rng) {
  std::vector<size_t> l = Permutation(3, rng);
  std::string q;
  for (size_t i = 0; i < depth; ++i) q += "/Child::" + Label(l[i % 3]);
  q += "[Child::" + Label(l[2]) + "]";
  BenchRequest r;
  r.facade = "xpath.sat";
  r.body = "labels 3\nbudget max_model_nodes " +
           std::to_string(depth + 2) + "\nxpath " + q;
  r.expect = "SAT";
  r.family = "xpathsat.d" + std::to_string(depth);
  return r;
}

// ---------------------------------------------------------------------------
// VATA membership (vata.accepts): the one-counter automaton of
// tests/vata_test.cc. Leaves (label 1) start at [1]; an inner node (label
// 0) either keeps the total at 1 or, at the accepting state, consumes both
// children's tokens. So a binary tree with inner nodes labeled 0 and leaves
// labeled 1 is accepted, and one wrong label anywhere rejects it.

constexpr char kOneCounterVata[] =
    "vata 1 2 2\naccepting 1 1\nleafrules 1\n1 0 1\ntransitions 2\n"
    "0 0 1 0 1 0 1\n0 0 1 0 1 1 0";

/// A random binary tree with \p inner inner nodes in text_io syntax;
/// \p wrong (< 2 * inner + 1) flips that node's label.
std::string VataTree(size_t inner, size_t wrong, size_t* next,
                     RandomSource* rng) {
  const size_t id = (*next)++;
  const std::string data = std::to_string(rng->UniformInt(0, 3));
  if (inner == 0) return Label(id == wrong ? 0 : 1) + ":" + data;
  size_t left = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(inner) - 1));
  std::string l = VataTree(left, wrong, next, rng);
  std::string r = VataTree(inner - 1 - left, wrong, next, rng);
  return Label(id == wrong ? 1 : 0) + ":" + data + " (" + l + " " + r + ")";
}

BenchRequest VataRequest(RandomSource* rng) {
  size_t inner = static_cast<size_t>(rng->UniformInt(1, 6));
  bool accept = rng->Bernoulli(0.5);
  size_t nodes = 2 * inner + 1;
  size_t wrong = accept ? nodes : rng->UniformIndex(nodes);
  size_t next = 0;
  BenchRequest r;
  r.facade = "vata.accepts";
  r.body = std::string(kOneCounterVata) + "\ntree " +
           VataTree(inner, wrong, &next, rng);
  r.expect = accept ? "ACCEPT" : "REJECT";
  r.family = "vata.n" + std::to_string(nodes);
  return r;
}

// ---------------------------------------------------------------------------
// Workload streams.

BenchRequest FromSat(const SatInstance& inst, const std::string& expect,
                     const std::string& family) {
  BenchRequest r;
  r.facade = "frontend.sat";
  r.body = inst.Body();
  r.expect = expect;
  r.family = family;
  return r;
}

/// A fresh cheap instance for one of serve_mixed's seven facades; `sat`
/// gets the conjuncts of a frontend.sat instance.
BenchRequest FreshCheap(size_t facade, SatInstance* sat, RandomSource* rng) {
  switch (facade) {
    case 0:
      if (rng->Bernoulli(0.75)) {
        size_t k = static_cast<size_t>(rng->UniformInt(2, 3));
        *sat = DistinctClassInstance(k, k + 1, rng);
        return FromSat(*sat, "SAT", "frontend.distinct" + std::to_string(k));
      }
      *sat = {1, 3, ExhaustBoundConjuncts()};
      return FromSat(*sat, "UNKNOWN", "frontend.exhaust.b3");
    case 1:
      return ConsistencyRequest(KindSpec{1, 0, true, rng->Bernoulli(0.5)}, 5,
                                rng);
    case 2:
      return ImplicationRequest(KindSpec{2, 0, true, false}, 5, rng);
    case 3:
      return KeyfkRequest({RandomKind(rng, 2)}, rng);
    case 4:
      return XpathSatRequest(static_cast<size_t>(rng->UniformInt(1, 2)), rng);
    case 5: {
      size_t depth = static_cast<size_t>(rng->UniformInt(1, 2));
      return ContainmentRequest(depth, false, depth + 2, rng);
    }
    default:
      return VataRequest(rng);
  }
}

/// serve_mixed: cheap instances across all seven executable facades, in
/// rounds of fourteen requests in a seeded order: per facade one fresh
/// instance and one repeat of an earlier instance of that facade, exactly
/// or (frontend.sat) with the conjuncts reordered. Every seed sees the same
/// mix; each request goes to a random tenant.
std::vector<BenchRequest> ServeMixed(RandomSource* rng, size_t count) {
  constexpr size_t kFacades = 7;
  struct Fresh {
    BenchRequest request;
    SatInstance sat;
  };
  std::vector<std::vector<Fresh>> history(kFacades);
  std::vector<BenchRequest> out;
  while (out.size() < count) {
    for (size_t slot : Permutation(2 * kFacades, rng)) {
      const size_t facade = slot % kFacades;
      std::vector<Fresh>& past = history[facade];
      BenchRequest r;
      if (slot >= kFacades && !past.empty()) {
        const Fresh& f = past[rng->UniformIndex(past.size())];
        r = f.request;
        if (!f.sat.conjuncts.empty() && rng->Bernoulli(0.5)) {
          SatInstance re = f.sat;
          std::rotate(re.conjuncts.begin(), re.conjuncts.begin() + 1,
                      re.conjuncts.end());
          r.body = re.Body();
          r.family += "+reordered";
        } else {
          r.family += "+repeat";
        }
      } else {
        Fresh f;
        f.request = FreshCheap(facade, &f.sat, rng);
        r = f.request;
        past.push_back(std::move(f));
      }
      r.conn = rng->UniformIndex(4);
      out.push_back(std::move(r));
      if (out.size() == count) break;
    }
  }
  return out;
}

/// keyfk_cold's instance classes (sources, refs, optional extra ref,
/// keyed sources), one or two entity kinds, consistent and inconsistent.
const std::vector<std::vector<KindSpec>>& KeyfkClasses() {
  static const std::vector<std::vector<KindSpec>> classes = {
      {{1, 0, true, true}},
      {{2, 0, true, false}},
      {{2, 0, true, true}},
      {{2, 1, true, true}},
      {{1, 1, false, true}},
      {{3, 1, false, true}},
      {{1, 0, true, false}},
      {{2, 1, false, false}},
      {{1, 0, true, false}, {2, 0, true, true}},
      {{2, 0, true, false}, {1, 0, true, true}},
      {{1, 1, false, true}, {2, 0, true, false}},
      {{2, 0, true, true}, {1, 1, false, false}},
  };
  return classes;
}

/// keyfk_cold: every class once per round, in a seeded order, each as a
/// fresh relabeling never sent before in this stream, so every request
/// misses the verdict cache and the mix is the same for every seed.
std::vector<BenchRequest> KeyfkCold(RandomSource* rng, size_t count) {
  std::vector<BenchRequest> out;
  std::set<std::string> seen;
  while (out.size() < count) {
    const auto& classes = KeyfkClasses();
    for (size_t c : Permutation(classes.size(), rng)) {
      BenchRequest r = KeyfkRequest(classes[c], rng);
      // Bounded retries keep a very long stream finite; a repeat past them
      // would only show up as a cache hit.
      for (int attempt = 0; seen.count(r.body) != 0 && attempt < 100; ++attempt) {
        r = KeyfkRequest(classes[c], rng);
      }
      seen.insert(r.body);
      out.push_back(std::move(r));
      if (out.size() == count) break;
    }
  }
  return out;
}

/// bounded_search: Theorem 1 families at bounds 4-6, Theorem 3 chain
/// containment in both directions at depth 2-3, and the generic-route
/// constraint facades at bounds 5-6, as sixteen classes, each once per round
/// in a seeded order, so every seed sees the same mix. Within a class the
/// labels and schemas are relabeled.
///
/// Most classes answer UNKNOWN, which the cache never stores, so nearly every
/// request is searched again. The few SAT classes are either cheap (a cache
/// hit moves them little) or have so few variants that they turn into hits
/// within the first rounds. Otherwise the share of hits would grow with the
/// number of requests a run gets through, and the median with it.
std::vector<BenchRequest> BoundedSearch(RandomSource* rng, size_t count) {
  constexpr size_t kClasses = 16;
  std::vector<BenchRequest> out;
  while (out.size() < count) {
    for (size_t c : Permutation(kClasses, rng)) {
      BenchRequest r;
      switch (c) {
        case 0:
        case 1:
          r = FromSat(DistinctClassInstance(3, c == 0 ? 4 : 6, rng), "SAT",
                      std::string("frontend.distinct3.b") + (c == 0 ? "4" : "6"));
          break;
        case 2:
        case 3:
        case 4: {
          const size_t bound = c + 2;
          r = FromSat(SatInstance{1, bound, ExhaustBoundConjuncts()}, "UNKNOWN",
                      "frontend.exhaust.b" + std::to_string(bound));
          break;
        }
        case 5:
        case 6:
        case 7:
        case 8: {
          const size_t depth = c < 7 ? 2 : 3;
          r = ContainmentRequest(depth, c % 2 == 0, depth + 1, rng);
          break;
        }
        case 9:
        case 10:
          // Sources that need two refs where one may exist, and two unkeyed
          // sources whose smallest document has 7 nodes: both exhaust
          // bound 5, the first also bound 6.
          r = ConsistencyRequest(KindSpec{2, 0, true, c == 9}, 5, rng);
          break;
        case 11:
          r = ConsistencyRequest(KindSpec{2, 0, true, true}, 6, rng);
          break;
        case 12:
          r = ConsistencyRequest(KindSpec{1, 0, true, rng->Bernoulli(0.5)}, 6,
                                 rng);
          break;
        default:
          // One source: the key holds, so every bound is exhausted.
          r = ImplicationRequest(KindSpec{1, c == 13 ? 1u : 0u, c != 13, false},
                                 c == 15 ? 6 : 5, rng);
          break;
      }
      r.conn = out.size() % 4;
      out.push_back(std::move(r));
      if (out.size() == count) break;
    }
  }
  return out;
}

}  // namespace

std::vector<BenchRequest> GenerateWorkload(const std::string& workload,
                                           uint64_t seed, size_t count) {
  RandomSource rng(seed * 0x9e3779b97f4a7c15ULL + workload.size());
  std::vector<BenchRequest> out;
  if (workload == "serve_mixed") {
    out = ServeMixed(&rng, count);
  } else if (workload == "keyfk_cold") {
    out = KeyfkCold(&rng, count);
  } else if (workload == "bounded_search") {
    out = BoundedSearch(&rng, count);
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  for (size_t i = 0; i < out.size(); ++i) out[i].index = i;
  return out;
}

std::string RequestLine(const BenchRequest& r, uint64_t seed) {
  return "{\"op\":\"solve\",\"id\":\"" + std::to_string(r.index) +
         "\",\"request_id\":\"pb" + std::to_string(seed) + "-" +
         std::to_string(r.index) + "\",\"tenant\":\"t" +
         std::to_string(r.conn) + "\",\"facade\":\"" + r.facade +
         "\",\"body\":\"" + JsonEscape(r.body) + "\"}";
}

}  // namespace fo2dt::perfbench
