#include "constraints/constraints.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "datatree/generator.h"
#include "datatree/text_io.h"
#include "logic/eval.h"
#include "solverlp/simplex.h"
#include "xmlenc/dtd.h"

namespace fo2dt {
namespace {

// Schedule-style alphabet: course(0), ID(1), lecturer(2), faculty(3).
struct Fixture {
  Alphabet labels;
  Symbol course, id, lecturer, faculty, schedule;

  Fixture() {
    course = labels.Intern("course");
    id = labels.Intern("ID");
    lecturer = labels.Intern("lecturer");
    faculty = labels.Intern("faculty");
    schedule = labels.Intern("schedule");
  }
};

TEST(ConstraintsTest, DocumentLevelKey) {
  Fixture f;
  // schedule with two courses, distinct IDs -> key holds.
  DataTree t = *ParseDataTree(
      "schedule:0 (course:0 (ID:5) course:0 (ID:7))", &f.labels);
  UnaryKey key{f.course, f.id};
  EXPECT_TRUE(DocumentSatisfiesKey(t, key));
  DataTree bad = *ParseDataTree(
      "schedule:0 (course:0 (ID:5) course:0 (ID:5))", &f.labels);
  EXPECT_FALSE(DocumentSatisfiesKey(bad, key));
  // Missing attributes are skipped.
  DataTree partial =
      *ParseDataTree("schedule:0 (course:0 course:0 (ID:5))", &f.labels);
  EXPECT_TRUE(DocumentSatisfiesKey(partial, key));
}

TEST(ConstraintsTest, DocumentLevelInclusion) {
  Fixture f;
  UnaryInclusion inc{f.course, f.faculty, f.lecturer, f.faculty};
  DataTree good = *ParseDataTree(
      "schedule:0 (course:0 (faculty:12) lecturer:0 (faculty:12))", &f.labels);
  EXPECT_TRUE(DocumentSatisfiesInclusion(good, inc));
  DataTree bad = *ParseDataTree(
      "schedule:0 (course:0 (faculty:12) lecturer:0 (faculty:13))", &f.labels);
  EXPECT_FALSE(DocumentSatisfiesInclusion(bad, inc));
}

TEST(ConstraintsTest, Fo2FormulasAgreeWithDirectSemantics) {
  // Differential: the Proposition 5 formulas evaluated by the model checker
  // must agree with the document-level checkers on random documents.
  Fixture f;
  UnaryKey key{f.course, f.id};
  UnaryInclusion inc{f.course, f.faculty, f.lecturer, f.faculty};
  Formula key_f = KeyToFo2(key);
  Formula inc_f = InclusionToFo2(inc);
  RandomSource rng(2024);
  RandomTreeOptions opt;
  opt.num_nodes = 10;
  opt.num_labels = 5;  // generator labels l0..l4 collide with ours by id
  opt.num_data_values = 3;
  for (int iter = 0; iter < 80; ++iter) {
    Alphabet gen_labels = f.labels;
    DataTree t = RandomDataTree(opt, &rng, &gen_labels);
    EXPECT_EQ(DocumentSatisfiesKey(t, key),
              *Evaluator::EvaluateSentence(key_f, t, nullptr))
        << DataTreeToText(t, gen_labels);
    EXPECT_EQ(DocumentSatisfiesInclusion(t, inc),
              *Evaluator::EvaluateSentence(inc_f, t, nullptr))
        << DataTreeToText(t, gen_labels);
  }
}

TEST(ConstraintsTest, ConsistencyFindsWitness) {
  Fixture f;
  ConstraintSet set;
  set.keys.push_back({f.course, f.id});
  set.inclusions.push_back({f.course, f.faculty, f.lecturer, f.faculty});
  TreeAutomaton schema = TreeAutomaton::Universal(f.labels.size());
  SolverOptions opt;
  opt.max_model_nodes = 1;  // a single node satisfies everything vacuously
  auto r = CheckConsistencyBounded(schema, set, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, SatVerdict::kSat);
}

TEST(ConstraintsTest, ImplicationCounterexample) {
  Fixture f;
  // Premise: none. Conclusion: the course-ID key. A counterexample document
  // must exist (two courses sharing an ID).
  ConstraintSet premises;
  TreeAutomaton schema = TreeAutomaton::Universal(f.labels.size());
  SolverOptions opt;
  opt.max_model_nodes = 5;
  Formula key_f = KeyToFo2({f.course, f.id});
  auto r = CheckImplicationBounded(schema, premises, key_f, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->verdict, SatVerdict::kSat);  // refuted
  // The witness indeed violates the key formula. (The document-level checker
  // can disagree on degenerate documents with duplicated attribute children,
  // which the Figure-3 encoding never produces; the formulas follow the
  // XPath data model's unique-attribute assumption, like the paper's.)
  EXPECT_FALSE(*Evaluator::EvaluateSentence(key_f, *r->witness, nullptr));
}

TEST(ConstraintsTest, ImplicationHoldsTrivially) {
  Fixture f;
  // Premise: key(course, ID). Conclusion: the same key. No counterexample.
  ConstraintSet premises;
  premises.keys.push_back({f.course, f.id});
  TreeAutomaton schema = TreeAutomaton::Universal(f.labels.size());
  SolverOptions opt;
  opt.max_model_nodes = 4;
  auto r = CheckImplicationBounded(schema, premises,
                                   KeyToFo2({f.course, f.id}), opt);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->verdict, SatVerdict::kUnknown);  // no counterexample found
}

// The AFL-style ILP baseline with a DTD schema: courses reference lecturers
// by a keyed attribute, and the DTD forces cardinalities that make the
// system inconsistent.
TEST(ConstraintsTest, IlpConsistencyWithDtd) {
  Fixture f;
  Alphabet labels = f.labels;
  // DTD: schedule -> course course lecturer? ; course has attr faculty;
  // lecturer has attr faculty. Keys: lecturer.faculty AND course.faculty;
  // inclusion course.faculty ⊆ lecturer.faculty. With two courses per
  // schedule and at most one lecturer: n_course = 2 > n_lecturer <= 1 ->
  // inconsistent. Dropping the course key makes it consistent.
  // A slim alphabet keeps the schema automaton (hence the ILP) small.
  Alphabet slim;
  Symbol schedule = slim.Intern("schedule");
  Symbol course = slim.Intern("course");
  Symbol lecturer = slim.Intern("lecturer");
  Symbol faculty = slim.Intern("faculty");
  f.schedule = schedule;
  f.course = course;
  f.lecturer = lecturer;
  f.faculty = faculty;
  labels = slim;
  Dtd dtd;
  dtd.root = f.schedule;
  DtdElement course_el;
  course_el.element = f.course;
  course_el.attributes = {f.faculty};
  DtdElement lecturer_el;
  lecturer_el.element = f.lecturer;
  lecturer_el.attributes = {f.faculty};
  DtdElement schedule_el;
  schedule_el.element = f.schedule;
  Alphabet regex_labels = labels;
  schedule_el.content =
      *ParseRegex("course, course, lecturer?", &regex_labels);
  dtd.elements = {schedule_el, course_el, lecturer_el};
  auto schema = DtdToTreeAutomaton(dtd, labels.size());
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();

  ConstraintSet inconsistent;
  inconsistent.keys.push_back({f.lecturer, f.faculty});
  inconsistent.keys.push_back({f.course, f.faculty});
  inconsistent.inclusions.push_back(
      {f.course, f.faculty, f.lecturer, f.faculty});
  auto r1 = CheckKeyForeignKeyConsistencyIlp(*schema, inconsistent);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(r1->verdict, SatVerdict::kUnsat);

  ConstraintSet consistent = inconsistent;
  consistent.keys.erase(consistent.keys.begin() + 1);  // drop the course key
  auto r2 = CheckKeyForeignKeyConsistencyIlp(*schema, consistent);
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r2->verdict, SatVerdict::kSat);
}

TEST(ConstraintsTest, IlpAgreesWithBoundedSearchOnSmallSchemas) {
  // Tiny universal schema: ILP says consistent; bounded search finds a
  // witness document too.
  Fixture f;
  TreeAutomaton schema = TreeAutomaton::Universal(f.labels.size());
  ConstraintSet set;
  set.keys.push_back({f.lecturer, f.faculty});
  set.inclusions.push_back({f.course, f.faculty, f.lecturer, f.faculty});
  auto ilp = CheckKeyForeignKeyConsistencyIlp(schema, set);
  ASSERT_TRUE(ilp.ok());
  EXPECT_EQ(ilp->verdict, SatVerdict::kSat);
  SolverOptions opt;
  opt.max_model_nodes = 2;
  auto search = CheckConsistencyBounded(schema, set, opt);
  ASSERT_TRUE(search.ok());
  EXPECT_EQ(search->verdict, SatVerdict::kSat);
}

// One entity kind of the keyfk benchmark instances: the root holds
// `sources` src elements, `refs` ref elements and optionally one more ref;
// both carry a k attribute, ref.k is a key, src.k is included in ref.k, and
// src.k is a key too when `keyed_sources`.
struct KeyfkKind {
  size_t sources;
  size_t refs;
  bool extra_ref;
  bool keyed_sources;
};

struct KeyfkInstance {
  TreeAutomaton schema;
  ConstraintSet set;
};

KeyfkInstance BuildKeyfkInstance(const std::vector<KeyfkKind>& kinds) {
  Alphabet labels;
  Dtd dtd;
  dtd.root = labels.Intern("root");
  ConstraintSet set;
  std::vector<std::string> content;
  for (size_t i = 0; i < kinds.size(); ++i) {
    const std::string n = std::to_string(i);
    const Symbol src = labels.Intern("src" + n);
    const Symbol ref = labels.Intern("ref" + n);
    const Symbol key = labels.Intern("k" + n);
    dtd.elements.push_back(DtdElement{src, Regex::Epsilon(), {key}});
    dtd.elements.push_back(DtdElement{ref, Regex::Epsilon(), {key}});
    for (size_t j = 0; j < kinds[i].sources; ++j) content.push_back("src" + n);
    for (size_t j = 0; j < kinds[i].refs; ++j) content.push_back("ref" + n);
    if (kinds[i].extra_ref) content.push_back("ref" + n + "?");
    if (kinds[i].keyed_sources) set.keys.push_back({src, key});
    set.keys.push_back({ref, key});
    set.inclusions.push_back({src, key, ref, key});
  }
  DtdElement root_el;
  root_el.element = dtd.root;
  std::string regex;
  for (const std::string& c : content) regex += (regex.empty() ? "" : ", ") + c;
  Alphabet regex_labels = labels;
  root_el.content = *ParseRegex(regex, &regex_labels);
  dtd.elements.push_back(root_el);
  return {*DtdToTreeAutomaton(dtd, labels.size()), std::move(set)};
}

// Pins the simplex work of the ILP route on two keyfk benchmark classes,
// one kind consistent and two kinds inconsistent: any change to a pivot
// choice, the tableau rebuild policy or the branch-and-bound tree moves one
// of these counts. One thread, so no abandoned fan-out work is counted.
TEST(ConstraintsTest, KeyfkIlpEffortIsPinned) {
  struct Case {
    std::vector<KeyfkKind> kinds;
    SatVerdict verdict;
    uint64_t pivots;
    uint64_t tableau_builds;
    uint64_t ilp_nodes;
  };
  const std::vector<Case> cases = {
      {{{2, 1, true, true}}, SatVerdict::kSat, 241, 1, 1},
      {{{2, 0, true, true}, {1, 1, false, false}},
       SatVerdict::kUnsat, 1174, 2, 2},
  };
  for (const Case& c : cases) {
    const KeyfkInstance inst = BuildKeyfkInstance(c.kinds);
    LctaOptions opt;
    opt.num_threads = 1;
    SimplexStats::Reset();
    auto r = CheckKeyForeignKeyConsistencyIlp(inst.schema, inst.set, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const SimplexCounters simplex = SimplexStats::Aggregate();
    EXPECT_EQ(r->verdict, c.verdict);
    EXPECT_EQ(simplex.pivots, c.pivots);
    EXPECT_EQ(simplex.tableau_builds, c.tableau_builds);
    EXPECT_EQ(r->steps, c.ilp_nodes);
  }
}

}  // namespace
}  // namespace fo2dt
