/// \file solve_cache_test.cc
/// \brief Cross-solve cache: warm-vs-cold bit-equality across the facades,
/// persistence through a real process re-exec, fingerprint invalidation, the
/// kUnknown-never-cached rule, LRU byte-budget eviction — and the hash-consed
/// IR underneath it (10k structurally equal formulas intern to one node).

#include "common/solve_cache.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/flight_recorder.h"
#include "common/intern.h"
#include "common/registry_names.h"
#include "constraints/constraints.h"
#include "datatree/text_io.h"
#include "frontend/solver.h"
#include "logic/intern.h"
#include "logic/parser.h"
#include "vata/vata.h"

namespace fo2dt {
namespace {

/// Restores the process-global cache configuration (and drops the entries a
/// test inserted) no matter how the test exits; tests in this binary
/// serialize on the singleton.
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

SolveCacheConfig MemoryOnly() {
  SolveCacheConfig config;
  config.enabled = true;
  return config;
}

std::string UniquePath(const char* stem) {
  static int counter = 0;
  return ::testing::TempDir() + "sc_" + stem + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

/// The deterministic frontend.sat query every persistence test re-solves:
/// the parent and the re-exec'ed child must build the identical cache key.
Result<SatResult> SolveCanonicalQuery() {
  Alphabet labels;
  Formula f = *ParseFormula("exists x. a(x)", &labels);
  SolverOptions opt;
  opt.max_model_nodes = 3;
  return CheckFo2SatisfiabilityBounded(f, opt);
}

/// Verdict/method/steps/witness/StopReason equality — the bit-for-bit
/// contract a warm hit owes the cold solve. Witnesses compare as canonical
/// replay-alphabet text.
void ExpectSameSatResult(const SatResult& cold, const SatResult& warm,
                         size_t alpha) {
  EXPECT_EQ(cold.verdict, warm.verdict);
  EXPECT_EQ(cold.method, warm.method);
  EXPECT_EQ(cold.steps, warm.steps);
  EXPECT_EQ(cold.stop_reason.has_value(), warm.stop_reason.has_value());
  ASSERT_EQ(cold.witness.has_value(), warm.witness.has_value());
  if (cold.witness.has_value()) {
    Alphabet replay = MakeReplayAlphabet(alpha);
    EXPECT_EQ(DataTreeToText(*cold.witness, replay),
              DataTreeToText(*warm.witness, replay));
  }
  ASSERT_EQ(cold.witness_interp.has_value(), warm.witness_interp.has_value());
  if (cold.witness_interp.has_value()) {
    EXPECT_EQ(cold.witness_interp->membership, warm.witness_interp->membership);
  }
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

TEST(SolveCacheTest, WarmEqualsColdFrontendSat) {
  // Reference solve with the cache at its default (disabled): the cold path
  // of a cache-less build.
  Result<SatResult> reference = SolveCanonicalQuery();
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->verdict, SatVerdict::kSat);

  CacheGuard guard(MemoryOnly());
  SolveCache& cache = SolveCache::Instance();
  SolveCache::Stats before = cache.stats();
  Result<SatResult> cold = SolveCanonicalQuery();  // populates
  Result<SatResult> warm = SolveCanonicalQuery();  // served
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cache.stats().solve_misses, before.solve_misses + 1);
  EXPECT_EQ(cache.stats().solve_hits, before.solve_hits + 1);
  ExpectSameSatResult(*reference, *cold, 1);
  ExpectSameSatResult(*cold, *warm, 1);
}

TEST(SolveCacheTest, WarmEqualsColdDnfSat) {
  DataNormalForm dnf = LiveDnf();
  SolverOptions opt;
  opt.max_model_nodes = 3;
  Result<SatResult> reference = CheckDnfSatisfiability(dnf, opt);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->verdict, SatVerdict::kSat);

  CacheGuard guard(MemoryOnly());
  SolveCache& cache = SolveCache::Instance();
  SolveCache::Stats before = cache.stats();
  Result<SatResult> cold = CheckDnfSatisfiability(dnf, opt);
  Result<SatResult> warm = CheckDnfSatisfiability(dnf, opt);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cache.stats().solve_misses, before.solve_misses + 1);
  EXPECT_EQ(cache.stats().solve_hits, before.solve_hits + 1);
  ExpectSameSatResult(*reference, *cold, dnf.ext.size());
  ExpectSameSatResult(*cold, *warm, dnf.ext.size());
}

TEST(SolveCacheTest, WarmEqualsColdConstraintsKeyfk) {
  // Universal schema, one key + one inclusion: consistent, so the counting
  // abstraction returns a definite SAT the cache may serve.
  TreeAutomaton schema = TreeAutomaton::Universal(4);
  ConstraintSet set;
  set.keys.push_back(UnaryKey{2, 3});
  set.inclusions.push_back(UnaryInclusion{0, 1, 2, 3});
  Result<SatResult> reference = CheckKeyForeignKeyConsistencyIlp(schema, set);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_EQ(reference->verdict, SatVerdict::kSat);

  CacheGuard guard(MemoryOnly());
  SolveCache& cache = SolveCache::Instance();
  SolveCache::Stats before = cache.stats();
  Result<SatResult> cold = CheckKeyForeignKeyConsistencyIlp(schema, set);
  Result<SatResult> warm = CheckKeyForeignKeyConsistencyIlp(schema, set);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cache.stats().solve_misses, before.solve_misses + 1);
  EXPECT_EQ(cache.stats().solve_hits, before.solve_hits + 1);
  ExpectSameSatResult(*reference, *cold, 4);
  ExpectSameSatResult(*cold, *warm, 4);
}

TEST(SolveCacheTest, WarmEqualsColdVataAccepts) {
  Alphabet alpha;
  VataAutomaton a = OneCounterVata();
  DataTree t = *ParseDataTree("a:0 (leaf:0 leaf:0)", &alpha);
  Result<bool> reference = VataAccepts(a, t);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  CacheGuard guard(MemoryOnly());
  SolveCache& cache = SolveCache::Instance();
  SolveCache::Stats before = cache.stats();
  Result<bool> cold = VataAccepts(a, t);
  Result<bool> warm = VataAccepts(a, t);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cache.stats().solve_misses, before.solve_misses + 1);
  EXPECT_EQ(cache.stats().solve_hits, before.solve_hits + 1);
  EXPECT_EQ(*reference, *cold);
  EXPECT_EQ(*cold, *warm);
}

TEST(SolveCacheTest, PersistsAcrossProcessReExec) {
  std::string file = UniquePath("persist") + ".fo2dtcache";
  {
    SolveCacheConfig config;
    config.enabled = true;
    config.file = file;
    CacheGuard guard(config);
    Result<SatResult> cold = SolveCanonicalQuery();
    ASSERT_TRUE(cold.ok());
    ASSERT_EQ(cold->verdict, SatVerdict::kSat);
    ASSERT_GT(std::filesystem::file_size(file), 0u);

    // Same process, fresh resident state: Configure reloads the file and the
    // persisted entry serves.
    SolveCache::Instance().Configure(config);
    SolveCache::Stats before = SolveCache::Instance().stats();
    Result<SatResult> warm = SolveCanonicalQuery();
    ASSERT_TRUE(warm.ok());
    EXPECT_EQ(SolveCache::Instance().stats().solve_hits,
              before.solve_hits + 1);
    ExpectSameSatResult(*cold, *warm, 1);
  }

  // The real re-exec: a brand-new process (this binary, filtered to the
  // child test below) must load the file via the FO2DT_CACHE_FILE env seed
  // and serve the verdict without ever solving cold.
  std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::string out = file + ".child.out";
  std::string cmd =
      "FO2DT_SOLVE_CACHE_CHILD=1 FO2DT_CACHE_FILE=\"" + file + "\" \"" + self +
      "\" --gtest_filter=SolveCacheTest.ChildServesPersistedVerdict > \"" +
      out + "\" 2>&1";
  int rc = std::system(cmd.c_str());
  std::ifstream child_out(out);
  std::stringstream buf;
  buf << child_out.rdbuf();
  EXPECT_EQ(rc, 0) << "child run failed:\n" << buf.str();

  std::remove(file.c_str());
  std::remove(out.c_str());
}

/// The child half of PersistsAcrossProcessReExec: runs only when re-exec'ed
/// with FO2DT_SOLVE_CACHE_CHILD=1, in a process whose cache was seeded
/// entirely from the environment.
TEST(SolveCacheTest, ChildServesPersistedVerdict) {
  if (std::getenv("FO2DT_SOLVE_CACHE_CHILD") == nullptr) {
    GTEST_SKIP() << "parent-driven child test";
  }
  SolveCache& cache = SolveCache::Instance();
  ASSERT_TRUE(cache.enabled()) << "FO2DT_CACHE_FILE must enable the cache";
  SolveCache::Stats before = cache.stats();
  Result<SatResult> warm = SolveCanonicalQuery();
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->verdict, SatVerdict::kSat);
  ASSERT_TRUE(warm->witness.has_value());
  EXPECT_EQ(cache.stats().solve_hits, before.solve_hits + 1)
      << "persisted entry did not serve in the re-exec'ed process";
  EXPECT_EQ(cache.stats().solve_misses, before.solve_misses);
}

TEST(SolveCacheTest, FingerprintBumpInvalidatesPersistedEntries) {
  std::string file = UniquePath("fingerprint") + ".fo2dtcache";
  SolveCacheEntry entry;
  entry.verdict = "SAT";
  entry.method = "bounded_model_search";
  entry.steps = 7;

  SolveCacheConfig config;
  config.enabled = true;
  config.file = file;
  config.fingerprint = 1;
  CacheGuard guard(config);
  SolveCache& cache = SolveCache::Instance();
  cache.Insert("deadbeefdeadbeef", entry, nullptr, names::kModFrontendEnumerate);

  // A "new build" (bumped fingerprint) must not admit the old section...
  config.fingerprint = 2;
  cache.Configure(config);
  EXPECT_FALSE(cache
                   .Lookup("deadbeefdeadbeef")
                   .has_value());

  // ...while the matching fingerprint still does: the file is append-only
  // and old sections stay valid for the build that wrote them.
  config.fingerprint = 1;
  cache.Configure(config);
  std::optional<SolveCacheEntry> hit =
      cache.Lookup("deadbeefdeadbeef");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, "SAT");
  EXPECT_EQ(hit->steps, 7u);
  std::remove(file.c_str());
}

// A cache file whose sections were written entirely by a previous build
// (different fingerprint — e.g. a pre-flat-representation binary) must look
// empty to the current build even on a cold Configure that loads the file
// from disk, so stale verdicts keyed on the old representation can never be
// served. The file itself stays intact for the build that wrote it.
TEST(SolveCacheTest, ColdLoadIgnoresForeignBuildSections) {
  std::string file = UniquePath("old_build") + ".fo2dtcache";
  SolveCacheEntry entry;
  entry.verdict = "UNSAT";
  entry.method = "lcta_emptiness";
  entry.steps = 42;

  SolveCacheConfig config;
  config.enabled = true;
  config.file = file;
  config.fingerprint = 1;  // the "old build" writes its section...
  {
    CacheGuard guard(config);
    SolveCache::Instance().Insert("cafef00dcafef00d", entry, nullptr,
                                  names::kModFrontendEnumerate);
  }
  // ...the guard restored the previous config, dropping in-memory state; the
  // section now only exists on disk.

  config.fingerprint = 2;  // the current build cold-loads the same file
  {
    CacheGuard guard(config);
    EXPECT_FALSE(SolveCache::Instance()
                     .Lookup("cafef00dcafef00d")
                     .has_value())
        << "stale section from a foreign build fingerprint was served";
  }

  config.fingerprint = 1;  // the old build still sees its own section
  {
    CacheGuard guard(config);
    std::optional<SolveCacheEntry> hit =
        SolveCache::Instance().Lookup("cafef00dcafef00d");
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->verdict, "UNSAT");
    EXPECT_EQ(hit->method, "lcta_emptiness");
    EXPECT_EQ(hit->steps, 42u);
  }
  std::remove(file.c_str());
}

TEST(SolveCacheTest, UnknownIsNeverCachedOrServed) {
  CacheGuard guard(MemoryOnly());
  SolveCache& cache = SolveCache::Instance();

  // Unit level: Insert() drops non-definite verdicts outright.
  SolveCacheEntry unknown;
  unknown.verdict = "UNKNOWN";
  cache.Insert("k_unknown", unknown, nullptr, names::kModFrontendEnumerate);
  SolveCacheEntry error;
  error.verdict = "ERROR:deadline";
  cache.Insert("k_error", error, nullptr, names::kModFrontendEnumerate);
  for (const char* key : {"k_unknown", "k_error"}) {
    EXPECT_FALSE(cache
                     .Lookup(key)
                     .has_value());
  }

  // Facade level: a budget-starved solve degrades to kUnknown, and the
  // second identical query must run cold again (a miss, never a hit).
  Alphabet labels;
  Formula f = *ParseFormula("exists x. exists y. (a(x) & b(y))", &labels);
  SolverOptions opt;
  opt.max_model_nodes = 1;  // needs two nodes: bound exhausts, kUnknown
  SolveCache::Stats before = cache.stats();
  Result<SatResult> first = CheckFo2SatisfiabilityBounded(f, opt);
  Result<SatResult> second = CheckFo2SatisfiabilityBounded(f, opt);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first->verdict, SatVerdict::kUnknown);
  EXPECT_EQ(second->verdict, SatVerdict::kUnknown);
  EXPECT_EQ(cache.stats().solve_misses, before.solve_misses + 2);
  EXPECT_EQ(cache.stats().solve_hits, before.solve_hits);
}

TEST(SolveCacheTest, LruByteBudgetEvictsOldestEntries) {
  SolveCacheConfig config;
  config.enabled = true;
  config.max_bytes = 2048;
  CacheGuard guard(config);
  SolveCache& cache = SolveCache::Instance();

  SolveCacheEntry entry;
  entry.verdict = "UNSAT";
  entry.method = "counting_abstraction";
  entry.payload = std::string(256, 'x');
  for (int i = 0; i < 64; ++i) {
    cache.Insert("key" + std::to_string(i), entry, nullptr,
                 names::kModFrontendEnumerate);
  }
  SolveCache::Stats stats = cache.stats();
  EXPECT_LE(stats.bytes, config.max_bytes);
  EXPECT_GT(stats.solve_evictions, 0u);
  // LRU: the oldest key is gone, the newest still resident.
  EXPECT_FALSE(cache
                   .Lookup("key0")
                   .has_value());
  EXPECT_TRUE(cache
                  .Lookup("key63")
                  .has_value());
}

TEST(SolveCacheTest, KeyMatchesQueryLogInputHash) {
  // 16 lowercase hex digits, deterministic, facade-separated.
  std::string k1 = SolveCacheKey("frontend.sat", "body");
  std::string k2 = SolveCacheKey("frontend.dnf_sat", "body");
  EXPECT_EQ(k1.size(), 16u);
  EXPECT_NE(k1, k2);
  EXPECT_EQ(k1, SolveCacheKey("frontend.sat", "body"));
}

TEST(HashConsingTest, TenThousandEqualFormulasShareOneNode) {
  Alphabet labels;
  Formula base = *ParseFormula("forall x. (a(x) | b(x))", &labels);
  const InternHandle handle = InternFormula(base);
  ASSERT_NE(handle, kInvalidInternHandle);
  const size_t resident = SharedInternTable::Instance().size();

  // 10k structurally equal formulas, freshly parsed each time: every one
  // maps to the same handle (an O(1) integer compare) and the table does
  // not grow by a single record.
  for (int i = 0; i < 10000; ++i) {
    Alphabet fresh;
    Formula f = *ParseFormula("forall x. (a(x) | b(x))", &fresh);
    ASSERT_EQ(InternFormula(f), handle) << "iteration " << i;
  }
  EXPECT_EQ(SharedInternTable::Instance().size(), resident);
}

TEST(HashConsingTest, CanonicalizationMergesCommutedOperands) {
  // One shared alphabet: commuting the operands must not renumber the
  // symbols, or the comparison would be vacuous.
  Alphabet labels;
  Formula base = *ParseFormula("forall x. (a(x) | b(x))", &labels);
  Formula commuted = *ParseFormula("forall x. (b(x) | a(x))", &labels);
  Formula other = *ParseFormula("forall x. a(x)", &labels);
  EXPECT_EQ(InternFormula(base), InternFormula(commuted));
  EXPECT_EQ(CanonicalFormulaHash(base), CanonicalFormulaHash(commuted));
  EXPECT_NE(InternFormula(base), InternFormula(other));
}

}  // namespace
}  // namespace fo2dt
