/// \file trace_test.cc
/// \brief Observability layer tests: the per-phase scopes, PhaseProfile
/// snapshots, and the MetricsRegistry federation. The snapshot-vs-reset
/// tests exercise the registry's locking under concurrency and are
/// meaningful under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/execution_context.h"
#include "common/metrics.h"
#include "solverlp/ilp.h"

namespace fo2dt {
namespace {

// ---------------------------------------------------------------------------
// Phase mapping and timers
// ---------------------------------------------------------------------------

TEST(PhaseTest, ModuleStringsMapToOwningPhases) {
  EXPECT_EQ(PhaseForModule("logic.scott"), Phase::kScott);
  EXPECT_EQ(PhaseForModule("logic.dnf"), Phase::kDnf);
  EXPECT_EQ(PhaseForModule("puzzle.bounded"), Phase::kBoundedSearch);
  EXPECT_EQ(PhaseForModule("frontend.enumerate"), Phase::kBoundedSearch);
  EXPECT_EQ(PhaseForModule("puzzle.counting"), Phase::kPuzzle);
  EXPECT_EQ(PhaseForModule("lcta.emptiness"), Phase::kLcta);
  EXPECT_EQ(PhaseForModule("lcta.cuts"), Phase::kLcta);
  EXPECT_EQ(PhaseForModule("solverlp.ilp"), Phase::kIlp);
  EXPECT_EQ(PhaseForModule("solverlp.simplex"), Phase::kIlp);
  EXPECT_EQ(PhaseForModule("vata.derive"), Phase::kVata);
  EXPECT_EQ(PhaseForModule("constraints.keyfk"), Phase::kConstraints);
  EXPECT_EQ(PhaseForModule("xpath.translate"), Phase::kXpath);
  EXPECT_EQ(PhaseForModule("frontend.solver"), Phase::kFrontend);
  EXPECT_EQ(PhaseForModule("no.such.module"), Phase::kFrontend);
  EXPECT_STREQ(PhaseName(Phase::kIlp), "ilp");
  EXPECT_STREQ(PhaseName(Phase::kBoundedSearch), "bounded_search");
}

TEST(PhaseTest, ScopedTimerAttributesSelfTimeExclusively) {
  PhaseStats::Reset();
  constexpr auto kSleep = std::chrono::milliseconds(20);
  {
    ScopedPhase outer(Phase::kLcta);
    outer.AddEffort(3);
    std::this_thread::sleep_for(kSleep);
    {
      ScopedPhase inner(Phase::kIlp);
      inner.AddEffort(7);
      std::this_thread::sleep_for(kSleep);
    }
  }
  PhaseCounters agg = PhaseStats::Aggregate();
  const PhaseCounters::Entry& lcta = agg.phases[static_cast<size_t>(Phase::kLcta)];
  const PhaseCounters::Entry& ilp = agg.phases[static_cast<size_t>(Phase::kIlp)];
  EXPECT_EQ(lcta.calls, 1u);
  EXPECT_EQ(ilp.calls, 1u);
  EXPECT_EQ(lcta.effort, 3u);
  EXPECT_EQ(ilp.effort, 7u);
  // Self time: each phase owns roughly its own sleep. The outer timer paused
  // while the inner ran, so it must NOT have absorbed both sleeps.
  const uint64_t kHalfSleepNs = 10 * 1000 * 1000;
  const uint64_t kBothSleepsNs = 38 * 1000 * 1000;
  EXPECT_GE(lcta.wall_ns, kHalfSleepNs);
  EXPECT_GE(ilp.wall_ns, kHalfSleepNs);
  EXPECT_LT(lcta.wall_ns, kBothSleepsNs) << "outer timer double-counted";
  PhaseStats::Reset();
}

TEST(PhaseTest, TimerFeedsExecutionContextProfile) {
  ExecutionContext exec;
  {
    ScopedPhase phase(Phase::kIlp, &exec);
    phase.AddEffort(5);
    // Charged inside the scope: the phase, not the module, owns the bytes.
    ASSERT_TRUE(exec.ChargeMemory(4096, "test.module").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  exec.phases().RecordDepth(3);
  PhaseProfile profile = SnapshotPhaseProfile(exec);
  EXPECT_EQ(profile[Phase::kIlp].calls, 1u);
  EXPECT_EQ(profile[Phase::kIlp].effort, 5u);
  EXPECT_GT(profile[Phase::kIlp].wall_ns, 0u);
  EXPECT_GE(profile[Phase::kIlp].mem_peak, 4096u);
  EXPECT_EQ(profile.ilp_max_depth, 3u);
  EXPECT_GE(profile.mem_high_water, 4096u);
  EXPECT_EQ(profile.DominantPhase(), Phase::kIlp);
  EXPECT_FALSE(profile.stop.stopped());
  std::string json = profile.ToJson();
  EXPECT_NE(json.find("\"ilp\""), std::string::npos) << json;
  EXPECT_FALSE(profile.ToString().empty());
  PhaseStats::Reset();
}

// ---------------------------------------------------------------------------
// MetricsRegistry federation
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, FederatesPhaseArithAndSimplexSources) {
  // A tiny governed ILP solve touches BigInt arithmetic, the simplex core,
  // and a phase scope — all three families must land in one snapshot.
  MetricsRegistry::Instance().Reset();
  LinearExpr e{BigInt(-3)};
  e.AddTerm(0, BigInt(2));
  LinearSystem sys = {LinearAtom::Ge(e)};
  auto sol = IlpSolver::FindIntegerPoint(sys, 1);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  ASSERT_TRUE(sol->feasible);

  std::vector<std::string> names = MetricsRegistry::Instance().SourceNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "phase"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "arith"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "simplex"), names.end());

  MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
  EXPECT_TRUE(snap.Has("phase.ilp.calls"));
  EXPECT_TRUE(snap.Has("simplex.pivots"));
  EXPECT_TRUE(snap.Has("simplex.warm_start_hit_rate"));
  EXPECT_TRUE(snap.Has("arith.small_ops"));
  EXPECT_GT(snap.Get("phase.ilp.calls"), 0.0);
  EXPECT_GT(snap.Get("arith.small_ops"), 0.0);
  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"simplex.pivots\""), std::string::npos);

  // Reset fans out to every family.
  MetricsRegistry::Instance().Reset();
  MetricsSnapshot zero = MetricsRegistry::Instance().Snapshot();
  EXPECT_EQ(zero.Get("phase.ilp.calls"), 0.0);
  EXPECT_EQ(zero.Get("simplex.pivots"), 0.0);
  EXPECT_EQ(zero.Get("arith.small_ops"), 0.0);
}

TEST(MetricsRegistryTest, ConcurrentSnapshotAndResetAreSerialized) {
  // No counter writers are live (quiescence holds); snapshot and reset race
  // only against each other and must be mutually safe — meaningful under
  // TSan, which the sanitizer presets run this test with.
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) {
        MetricsSnapshot snap = MetricsRegistry::Instance().Snapshot();
        ASSERT_FALSE(snap.values.empty());
      }
    });
    threads.emplace_back([] {
      for (int i = 0; i < kIters; ++i) MetricsRegistry::Instance().Reset();
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_FALSE(MetricsRegistry::Instance().SourceNames().empty());
}

}  // namespace
}  // namespace fo2dt
