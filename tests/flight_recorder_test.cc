/// \file flight_recorder_test.cc
/// \brief Flight recorder: JSONL query log across all eight facades,
/// failpoint-forced post-mortem capture, and deterministic replay through
/// the fo2dt_replay binary.

#include "common/flight_recorder.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/execution_context.h"
#include "common/failpoint.h"
#include "common/registry_names.h"
#include "common/solve_cache.h"
#include "constraints/constraints.h"
#include "datatree/text_io.h"
#include "frontend/solver.h"
#include "logic/parser.h"
#include "vata/vata.h"
#include "xpath/xpath.h"

namespace fo2dt {
namespace {

/// Restores the process-global recorder (and the query log it configures)
/// no matter how the test exits; tests in this binary serialize on it.
class RecorderGuard {
 public:
  explicit RecorderGuard(FlightRecorderConfig config)
      : saved_(FlightRecorder::Instance().config()) {
    FlightRecorder::Instance().Configure(std::move(config));
  }
  ~RecorderGuard() { FlightRecorder::Instance().Configure(saved_); }

 private:
  FlightRecorderConfig saved_;
};

class FailpointGuard {
 public:
  ~FailpointGuard() { Failpoints::Instance().DisableAll(); }
};

std::string UniquePath(const char* stem) {
  static int counter = 0;
  return ::testing::TempDir() + "fr_" + stem + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Value of a top-level string field in one JSONL record. The writer escapes
/// quotes, so scanning to the next unescaped quote is exact.
std::string JsonStringField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  std::string out;
  for (size_t i = begin; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out += line[i + 1];
      ++i;
      continue;
    }
    if (line[i] == '"') break;
    out += line[i];
  }
  return out;
}

VataAutomaton OneCounterVata() {
  VataAutomaton a;
  a.num_counters = 1;
  a.num_states = 2;
  a.num_labels = 2;
  a.accepting = {1};
  a.leaf_rules.push_back({1, 0, {1}});
  a.transitions.push_back({0, 0, {1}, 0, {1}, 1, {0}});
  return a;
}

/// Value of a top-level numeric field in one JSONL record.
std::string JsonNumberField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size();
  size_t end = line.find_first_not_of("0123456789", begin);
  return line.substr(begin, end - begin);
}

/// Text of a top-level object field, braces included.
std::string JsonObjectField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":{";
  size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  size_t begin = at + needle.size() - 1;
  int depth = 0;
  for (size_t i = begin; i < line.size(); ++i) {
    if (line[i] == '{') ++depth;
    if (line[i] == '}' && --depth == 0) {
      return line.substr(begin, i - begin + 1);
    }
  }
  return "";
}

/// Every field of a record that is a function of the input, the budgets and
/// the thread count: timing, memory and the capture path are left out. The
/// per-phase effort comes from the record; the per-phase call counts, which
/// the record does not carry, from the solve's ExecutionContext.
std::string DeterministicFields(const std::string& line,
                                const ExecutionContext& exec) {
  std::string out = JsonStringField(line, "facade");
  out += " hash=" + JsonStringField(line, "input_hash");
  out += " size=" + JsonNumberField(line, "input_size");
  out += " verdict=" + JsonStringField(line, "verdict");
  out += " method=" + JsonStringField(line, "method");
  out += " steps=" + JsonNumberField(line, "steps");
  out += " stop=" + JsonStringField(line, "stop_kind");
  out += " threads=" + JsonNumberField(line, "threads");
  out += " budgets=" + JsonObjectField(line, "budgets");
  out += " effort=";
  std::string phases = JsonObjectField(line, "phases");
  static const std::regex kPhaseEffort(
      "\"(\\w+)\":\\{\"ms\":[0-9.]+,\"effort\":([0-9]+)");
  for (std::sregex_iterator it(phases.begin(), phases.end(), kPhaseEffort);
       it != std::sregex_iterator(); ++it) {
    out += (*it)[1].str() + ":" + (*it)[2].str() + ",";
  }
  out += " calls=";
  PhaseProfile profile = SnapshotPhaseProfile(exec);
  for (size_t i = 0; i < kPhaseCount; ++i) {
    if (profile.phases[i].calls == 0) continue;
    out += std::string(PhaseName(static_cast<Phase>(i))) + ":" +
           std::to_string(profile.phases[i].calls) + ",";
  }
  out += " cache=" + JsonStringField(line, "cache");
  return out;
}

DataNormalForm LiveDnf() {
  ExtAlphabet ext{2, 0};
  DataNormalForm dnf;
  dnf.ext = ext;
  DnfBlock live;
  SimpleFormula amo;
  amo.kind = SimpleFormula::Kind::kAtMostOne;
  TypeSet alpha(ext.size(), 0);
  alpha[0] = 1;
  amo.alpha = alpha;
  live.simples.push_back(amo);
  dnf.blocks = {live};
  return dnf;
}

/// Restores the process-global solve cache no matter how the test exits.
class CacheGuard {
 public:
  explicit CacheGuard(SolveCacheConfig config)
      : saved_(SolveCache::Instance().config()) {
    SolveCache::Instance().Configure(std::move(config));
  }
  ~CacheGuard() { SolveCache::Instance().Configure(saved_); }

 private:
  SolveCacheConfig saved_;
};

using FacadeSolve = std::function<void(const ExecutionContext*)>;

/// Runs \p solve under a fresh ExecutionContext, asserts it appended exactly
/// one record to \p log, and returns that record's deterministic fields.
std::string SolveOnce(const std::string& log, const FacadeSolve& solve) {
  const size_t before = ReadLines(log).size();
  ExecutionContext exec;
  solve(&exec);
  std::vector<std::string> lines = ReadLines(log);
  EXPECT_EQ(lines.size(), before + 1) << "expected one record per solve";
  if (lines.size() != before + 1) return "";
  return DeterministicFields(lines.back(), exec);
}

/// One solve of each of the eight facades, each under its own governor and
/// on one thread. The constraint facades share one schema.
std::vector<FacadeSolve> EightFacadeSolves() {
  return {
      [](const ExecutionContext* exec) {
        Alphabet labels;
        Formula f = *ParseFormula("exists x. a(x)", &labels);
        SolverOptions opt;
        opt.max_model_nodes = 3;
        opt.exec = exec;
        auto r = CheckFo2SatisfiabilityBounded(f, opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      },
      [](const ExecutionContext* exec) {
        SolverOptions opt;
        opt.max_model_nodes = 3;
        opt.counting.lcta.num_threads = 1;
        opt.exec = exec;
        auto r = CheckDnfSatisfiability(LiveDnf(), opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      },
      [](const ExecutionContext* exec) {
        // Nested facade: consistency runs through the frontend solver
        // internally, and must still produce exactly ONE record.
        ConstraintSet set;
        set.keys.push_back(UnaryKey{0, 1});
        SolverOptions opt;
        opt.max_model_nodes = 3;
        opt.exec = exec;
        auto r = CheckConsistencyBounded(TreeAutomaton::Universal(3), set, opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      },
      [](const ExecutionContext* exec) {
        ConstraintSet premises;
        premises.keys.push_back(UnaryKey{0, 1});
        SolverOptions opt;
        opt.max_model_nodes = 3;
        opt.exec = exec;
        auto r = CheckImplicationBounded(TreeAutomaton::Universal(3), premises,
                                         KeyToFo2(UnaryKey{0, 2}), opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      },
      [](const ExecutionContext* exec) {
        ConstraintSet set;
        set.keys.push_back(UnaryKey{0, 1});
        set.inclusions.push_back(UnaryInclusion{2, 3, 0, 1});
        LctaOptions opt;
        opt.num_threads = 1;
        opt.exec = exec;
        auto r = CheckKeyForeignKeyConsistencyIlp(TreeAutomaton::Universal(4),
                                                  set, opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      },
      [](const ExecutionContext* exec) {
        Alphabet labels;
        XpPath p = *ParseXPath("/Child::a", &labels);
        SolverOptions opt;
        opt.max_model_nodes = 3;
        opt.exec = exec;
        auto r = CheckXPathSatisfiability(p, nullptr, opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      },
      [](const ExecutionContext* exec) {
        Alphabet labels;
        XpPath p = *ParseXPath("/Child::a[Child::b]", &labels);
        XpPath q = *ParseXPath("/Child::a", &labels);
        SolverOptions opt;
        opt.max_model_nodes = 3;
        opt.exec = exec;
        auto r = CheckXPathContainment(p, q, nullptr, opt);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
      },
      [](const ExecutionContext* exec) {
        Alphabet alpha;
        DataTree t = *ParseDataTree("a:0 (leaf:0 leaf:0)", &alpha);
        auto r = VataAccepts(OneCounterVata(), t, 100000, exec);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_TRUE(*r);
      },
  };
}

TEST(FlightRecorderTest, OneRecordPerSolveAcrossFacades) {
  std::string log = UniquePath("facades") + ".jsonl";
  RecorderGuard guard({log, names::kCaptureModeNever, ""});

  // Pinned on the hand-rolled facades the shared pipeline replaced: every
  // deterministic field of each facade's record is unchanged by the port.
  const std::vector<std::string> kPinned = {
      "frontend.sat hash=4634a528faa95303 size=116 verdict=SAT "
      "method=bounded_model_search steps=1 stop=none threads=1 "
      "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=bounded_search:1, calls=bounded_search:1, cache=",
      "frontend.dnf_sat hash=06fa3f37c7a9dd92 size=127 verdict=SAT "
      "method=puzzle_pipeline steps=2 stop=none threads=1 "
      "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=puzzle:0,bounded_search:1,lcta:1,ilp:1,frontend:0, "
      "calls=puzzle:1,bounded_search:1,lcta:2,ilp:1,frontend:1, cache=",
      "constraints.consistency hash=dbf43775e1cd4831 size=187 "
      "verdict=SAT method=bounded_model_search steps=1 stop=none "
      "threads=1 budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=bounded_search:1,constraints:0, "
      "calls=bounded_search:1,constraints:1, cache=",
      "constraints.implication hash=74118788a16238c9 size=323 "
      "verdict=SAT method=bounded_model_search steps=142 stop=none "
      "threads=1 budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=bounded_search:142,constraints:0, "
      "calls=bounded_search:1,constraints:1, cache=",
      "constraints.keyfk hash=1d1b2e3eda07c5a9 size=247 verdict=SAT "
      "method=counting_abstraction steps=1 stop=none threads=1 "
      "budgets={\"max_ilp_nodes\":200000,\"max_cuts\":200,"
      "\"max_dnf_branches\":4096} "
      "effort=lcta:1,ilp:1,constraints:0, "
      "calls=lcta:2,ilp:1,constraints:1, cache=",
      "xpath.sat hash=398f4029301375b1 size=77 verdict=SAT "
      "method=bounded_model_search steps=3 stop=none threads=1 "
      "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=bounded_search:3,xpath:0, calls=bounded_search:1,xpath:1, "
      "cache=",
      "xpath.containment hash=39d029d91edc7d1d size=105 verdict=UNKNOWN "
      "method=bounded_model_search steps=291 stop=none threads=1 "
      "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=bounded_search:291,xpath:0, "
      "calls=bounded_search:1,xpath:1, cache=",
      "vata.accepts hash=d9fa42a0456b8e95 size=122 verdict=ACCEPT "
      "method= steps=0 stop=none threads=1 "
      "budgets={\"max_candidates\":100000} effort=vata:1, calls=vata:1, "
      "cache=",
  };
  std::vector<std::string> got;
  for (const FacadeSolve& solve : EightFacadeSolves()) {
    got.push_back(SolveOnce(log, solve));
  }
  ASSERT_EQ(got.size(), kPinned.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], kPinned[i]);

  std::vector<std::string> lines = ReadLines(log);
  ASSERT_EQ(lines.size(), 8u) << "expected one record per facade solve";
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    EXPECT_EQ(JsonStringField(line, "facade"), names::kAllFacades[i]);
    EXPECT_EQ(line.rfind("{\"v\":1,", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(JsonStringField(line, "input_hash").size(), 16u);
    EXPECT_NE(line.find("\"phases\":{"), std::string::npos);
    EXPECT_NE(line.find("\"budgets\":{"), std::string::npos);
    EXPECT_EQ(JsonStringField(line, "capture"), "");  // mode = never
    EXPECT_EQ(JsonStringField(line, "cache"), "");    // cache disabled
  }
  EXPECT_EQ(JsonStringField(lines[0], "verdict"), "SAT");
  EXPECT_EQ(JsonStringField(lines[7], "verdict"), "ACCEPT");
  std::remove(log.c_str());
}

TEST(FlightRecorderTest, CachedFacadesRecordMissThenHit) {
  std::string log = UniquePath("cached") + ".jsonl";
  RecorderGuard guard({log, names::kCaptureModeNever, ""});
  SolveCacheConfig config;
  config.enabled = true;
  CacheGuard cache_guard(config);

  // frontend.sat, frontend.dnf_sat, constraints.keyfk and vata.accepts key
  // their own verdict-cache entries: the first solve misses and populates,
  // the second is served. A hit replays the cold solve's profile, except for
  // vata.accepts, whose results carry none.
  const std::vector<std::string> kPinned = {
      "frontend.sat hash=4634a528faa95303 size=116 verdict=SAT "
      "method=bounded_model_search steps=1 stop=none threads=1 "
      "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=bounded_search:1, calls=bounded_search:1, cache=miss",
      "frontend.sat hash=4634a528faa95303 size=116 verdict=SAT "
      "method=bounded_model_search steps=1 stop=none threads=1 "
      "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=bounded_search:1, calls= cache=hit",
      "frontend.dnf_sat hash=06fa3f37c7a9dd92 size=127 verdict=SAT "
      "method=puzzle_pipeline steps=2 stop=none threads=1 "
      "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=puzzle:0,bounded_search:1,lcta:1,ilp:1,frontend:0, "
      "calls=puzzle:1,bounded_search:1,lcta:2,ilp:1,frontend:1, "
      "cache=miss",
      "frontend.dnf_sat hash=06fa3f37c7a9dd92 size=127 verdict=SAT "
      "method=puzzle_pipeline steps=2 stop=none threads=1 "
      "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
      "effort=puzzle:0,bounded_search:1,lcta:1,ilp:1,frontend:0, calls= "
      "cache=hit",
      "constraints.keyfk hash=1d1b2e3eda07c5a9 size=247 verdict=SAT "
      "method=counting_abstraction steps=1 stop=none threads=1 "
      "budgets={\"max_ilp_nodes\":200000,\"max_cuts\":200,"
      "\"max_dnf_branches\":4096} "
      "effort=lcta:1,ilp:1,constraints:0, "
      "calls=lcta:2,ilp:1,constraints:1, cache=miss",
      "constraints.keyfk hash=1d1b2e3eda07c5a9 size=247 verdict=SAT "
      "method=counting_abstraction steps=1 stop=none threads=1 "
      "budgets={\"max_ilp_nodes\":200000,\"max_cuts\":200,"
      "\"max_dnf_branches\":4096} "
      "effort=lcta:1,ilp:1,constraints:0, calls= cache=hit",
      "vata.accepts hash=d9fa42a0456b8e95 size=122 verdict=ACCEPT "
      "method= steps=0 stop=none threads=1 "
      "budgets={\"max_candidates\":100000} effort=vata:1, calls=vata:1, "
      "cache=miss",
      "vata.accepts hash=d9fa42a0456b8e95 size=122 verdict=ACCEPT "
      "method= steps=0 stop=none threads=1 "
      "budgets={\"max_candidates\":100000} effort= calls= cache=hit",
  };
  const std::vector<FacadeSolve> solves = EightFacadeSolves();
  std::vector<std::string> got;
  const size_t kCachedFacades[] = {0, 1, 4, 7};
  for (size_t i : kCachedFacades) {
    got.push_back(SolveOnce(log, solves[i]));
    got.push_back(SolveOnce(log, solves[i]));
  }
  ASSERT_EQ(got.size(), kPinned.size());
  for (size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], kPinned[i]);
  std::remove(log.c_str());
}

// A frontend.sat body-memo hit charges the governor what the miss that
// inserted the entry charged, so a record's memory fields do not depend on
// which of two concurrent requests inserted first. An UNKNOWN verdict is
// never verdict-cached, so the second solve runs again behind a body-memo
// hit.
TEST(FlightRecorderTest, BodyMemoHitChargesTheMissBytes) {
  std::string log = UniquePath("memo_mem") + ".jsonl";
  RecorderGuard guard({log, names::kCaptureModeNever, ""});
  SolveCacheConfig config;
  config.enabled = true;
  CacheGuard cache_guard(config);
  auto solve = [] {
    ExecutionContext exec;
    Alphabet labels;
    Formula f = *ParseFormula("exists x. exists y. (a(x) & b(y))", &labels);
    SolverOptions opt;
    opt.max_model_nodes = 1;  // needs two nodes: bound exhausts, kUnknown
    opt.exec = &exec;
    auto r = CheckFo2SatisfiabilityBounded(f, opt);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->verdict, SatVerdict::kUnknown);
  };
  const SolveCache::Stats before = SolveCache::Instance().stats();
  solve();
  solve();
  const SolveCache::Stats after = SolveCache::Instance().stats();
  EXPECT_EQ(after.sub_hits, before.sub_hits + 1);
  const std::vector<std::string> lines = ReadLines(log);
  ASSERT_EQ(lines.size(), 2u);
  const std::string miss_water = JsonNumberField(lines[0], "mem_high_water");
  EXPECT_NE(miss_water, "0");
  EXPECT_EQ(JsonNumberField(lines[1], "mem_high_water"), miss_water);
  const std::string miss_phases = JsonObjectField(lines[0], "phases");
  const std::string hit_phases = JsonObjectField(lines[1], "phases");
  const std::regex mem_peak("\"mem_peak\":[0-9]+");
  std::vector<std::string> miss_peaks;
  std::vector<std::string> hit_peaks;
  for (auto it = std::sregex_iterator(miss_phases.begin(), miss_phases.end(),
                                      mem_peak);
       it != std::sregex_iterator(); ++it) {
    miss_peaks.push_back(it->str());
  }
  for (auto it = std::sregex_iterator(hit_phases.begin(), hit_phases.end(),
                                      mem_peak);
       it != std::sregex_iterator(); ++it) {
    hit_peaks.push_back(it->str());
  }
  EXPECT_FALSE(miss_peaks.empty());
  EXPECT_EQ(hit_peaks, miss_peaks);
  std::remove(log.c_str());
}

TEST(FlightRecorderTest, FacadeErrorPathsRecordAtMostOnce) {
  std::string log = UniquePath("errors") + ".jsonl";
  RecorderGuard guard({log, names::kCaptureModeNever, ""});

  // A translation error inside a facade leaves one ERROR record.
  EXPECT_EQ(SolveOnce(log, [](const ExecutionContext* exec) {
              Alphabet labels;
              XpPath clash = *ParseXPath(
                  "/Child::a[Self::a/@B1 = Child::a/@B2]", &labels);
              SolverOptions opt;
              opt.max_model_nodes = 3;
              opt.exec = exec;
              auto r = CheckXPathSatisfiability(clash, nullptr, opt);
              EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
            }),
            "xpath.sat hash=e7790932411fcb45 size=107 "
            "verdict=ERROR:Invalid argument method= steps=0 stop=none "
            "threads=1 "
            "budgets={\"max_model_nodes\":3,\"max_steps\":20000000} "
            "effort=xpath:0, calls=xpath:1, cache=");

  // Argument validation runs before the facade's pipeline: no record.
  Alphabet labels;
  Formula open = *ParseFormula("a(x)", &labels);
  auto r = CheckFo2SatisfiabilityBounded(open, SolverOptions{});
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ReadLines(log).size(), 1u);
  std::remove(log.c_str());
}

TEST(FlightRecorderTest, SlowSolveTailSamplingCapturesDefiniteVerdicts) {
  std::string log = UniquePath("slow") + ".jsonl";
  std::string caps = UniquePath("slowcaps");
  FlightRecorderConfig config;
  config.query_log_path = log;
  config.capture_mode = names::kCaptureModeDegraded;
  config.capture_dir = caps;
  config.slow_ms = 50;  // FO2DT_SLOW_MS equivalent
  RecorderGuard guard(config);

  // Two definite (SAT) solves driven through the recorder directly, so the
  // wall time either side of the threshold is under test control.
  auto run_recorded = [](const char* input, bool past_threshold) {
    SolveRecorder rec(names::kFacadeFrontendSat, nullptr);
    ASSERT_TRUE(rec.active());
    rec.SetInput(input);
    rec.SetReplayInput("labels 1\nformula exists x. l0(x)\n");
    if (past_threshold) {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
    }
    SolveOutcome outcome;
    outcome.verdict = "SAT";
    rec.Finish(std::move(outcome));
  };
  run_recorded("fast definite", false);
  run_recorded("slow definite", true);

  std::vector<std::string> lines = ReadLines(log);
  ASSERT_EQ(lines.size(), 2u);
  // Under the threshold with a definite verdict: record, no bundle.
  EXPECT_EQ(JsonStringField(lines[0], "capture"), "") << lines[0];
  // Past the threshold: tail-sampled — a bundle with the metrics snapshot
  // explains the latency even though the verdict was definite.
  std::string bundle = JsonStringField(lines[1], "capture");
  ASSERT_FALSE(bundle.empty()) << lines[1];
  EXPECT_TRUE(std::filesystem::exists(
      bundle + "/" + names::kBundleFileMetricsJson));
  EXPECT_TRUE(std::filesystem::exists(
      bundle + "/" + names::kBundleFileManifestJson));

  std::remove(log.c_str());
  std::filesystem::remove_all(caps);
}

TEST(FlightRecorderTest, DisabledRecorderWritesNothing) {
  std::string log = UniquePath("disabled") + ".jsonl";
  RecorderGuard guard(FlightRecorderConfig{});  // empty path: disabled

  Alphabet labels;
  Formula f = *ParseFormula("exists x. a(x)", &labels);
  SolverOptions opt;
  opt.max_model_nodes = 3;
  auto r = CheckFo2SatisfiabilityBounded(f, opt);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(std::filesystem::exists(log));
  EXPECT_FALSE(FlightRecorder::Instance().enabled());
}

TEST(FlightRecorderTest, ReplayAlphabetIsPositional) {
  Alphabet a = MakeReplayAlphabet(3);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.Name(0), "l0");
  EXPECT_EQ(a.Name(1), "l1");
  EXPECT_EQ(a.Name(2), "l2");
}

/// The tentpole acceptance test: a failpoint-forced degraded solve must
/// produce a self-contained bundle, and fo2dt_replay must re-execute it to
/// the identical outcome (verdict, StopReason kind + module, DominantPhase
/// — all encoded as `expect` lines the binary diffs against).
TEST(FlightRecorderTest, FailpointCaptureReplaysIdentically) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  std::string log = UniquePath("capture") + ".jsonl";
  std::string caps = UniquePath("caps");
  RecorderGuard guard({log, names::kCaptureModeDegraded, caps});
  FailpointGuard fp_guard;
  ASSERT_TRUE(ArmCanonicalReplayInjection(names::kFpLctaCutRound));

  TreeAutomaton schema = TreeAutomaton::Universal(4);
  ConstraintSet set;
  set.keys.push_back(UnaryKey{0, 1});
  set.inclusions.push_back(UnaryInclusion{2, 3, 0, 1});
  ExecutionContext exec;
  LctaOptions opt;
  opt.exec = &exec;
  opt.num_threads = 1;
  auto r = CheckKeyForeignKeyConsistencyIlp(schema, set, opt);
  Failpoints::Instance().DisableAll();

  // The injected cut-round fault degrades the solve (either a kUnknown
  // verdict or a clean ResourceExhausted, depending on where the fan-out
  // unwinds); both are "degraded" to the recorder.
  std::vector<std::string> lines = ReadLines(log);
  ASSERT_EQ(lines.size(), 1u);
  const std::string& record = lines[0];
  EXPECT_EQ(JsonStringField(record, "facade"),
            names::kFacadeConstraintsKeyfk);
  EXPECT_EQ(JsonStringField(record, "stop_kind"), "injected fault");
  EXPECT_EQ(JsonStringField(record, "stop_module"), "lcta.cuts");
  std::string bundle = JsonStringField(record, "capture");
  ASSERT_FALSE(bundle.empty()) << "degraded solve must capture a bundle";

  for (const char* file : names::kAllBundleFiles) {
    EXPECT_TRUE(std::filesystem::exists(bundle + "/" + file))
        << "bundle missing " << file;
  }
  // The bundle holds the registered files and nothing else.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(bundle),
                          std::filesystem::directory_iterator()),
            static_cast<std::ptrdiff_t>(names::kNumBundleFiles));
  std::ifstream in(bundle + "/" + names::kBundleFileInputFo2dt);
  std::stringstream input_text;
  input_text << in.rdbuf();
  EXPECT_NE(input_text.str().find("facade constraints.keyfk"),
            std::string::npos);
  EXPECT_NE(input_text.str().find("failpoint lcta.cut_round"),
            std::string::npos);
  EXPECT_NE(input_text.str().find("expect verdict "), std::string::npos);
  EXPECT_NE(input_text.str().find("expect stop_module lcta.cuts"),
            std::string::npos);

  // Re-execute the bundle; exit 0 means every recorded expectation
  // (verdict, stop kind/module, dominant phase) reproduced exactly.
  std::string cmd = std::string(FO2DT_REPLAY_BIN_PATH) + " \"" + bundle +
                    "\" > \"" + bundle + "/replay.out\" 2>&1";
  int rc = std::system(cmd.c_str());
  std::string replay_out;
  {
    std::ifstream out_file(bundle + "/replay.out");
    std::stringstream buf;
    buf << out_file.rdbuf();
    replay_out = buf.str();
  }
  ASSERT_EQ(rc, 0) << "fo2dt_replay diverged:\n" << replay_out;
  EXPECT_NE(replay_out.find("replay outcome matches the recording"),
            std::string::npos)
      << replay_out;

  std::remove(log.c_str());
  std::filesystem::remove_all(caps);
}

/// Without a bundle on disk the replay binary must fail loudly, not
/// fabricate a match.
TEST(FlightRecorderTest, ReplayRejectsMissingBundle) {
  std::string bogus = UniquePath("nonexistent");
  std::string cmd = std::string(FO2DT_REPLAY_BIN_PATH) + " \"" + bogus +
                    "\" > /dev/null 2>&1";
  int rc = std::system(cmd.c_str());
  EXPECT_NE(rc, 0);
}

}  // namespace
}  // namespace fo2dt
