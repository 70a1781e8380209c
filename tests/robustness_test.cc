/// \file robustness_test.cc
/// \brief Execution governor and graceful degradation tests.
///
/// Covers the ExecutionContext subsystem (deadline, hierarchical
/// cancellation, accounting, StopReason), the FirstWinsFanout protocol, the
/// ThreadStats quiescence contract, and the failpoint framework: every
/// injected fault must surface as a clean Status with an intact StopReason —
/// never a crash, hang (guarded by a watchdog), leak, or wrong verdict.
/// Failpoint-dependent tests skip themselves in builds where the sites are
/// compiled out (release/RelWithDebInfo); the sanitizer presets build Debug
/// and run them all.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arith/bigint.h"
#include "common/execution_context.h"
#include "common/failpoint.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/thread_stats.h"
#include "constraints/constraints.h"
#include "datatree/text_io.h"
#include "frontend/solver.h"
#include "lcta/lcta.h"
#include "logic/parser.h"
#include "solverlp/ilp.h"
#include "xmlenc/dtd.h"

namespace fo2dt {
namespace {

/// Aborts the process if the guarded scope outlives `limit` — turns a hang
/// (the one failure mode a test cannot otherwise report) into a loud crash.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: test hung; aborting\n");
            std::abort();
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Disarms every failpoint when the test scope exits, pass or fail.
struct FailpointGuard {
  ~FailpointGuard() { Failpoints::Instance().DisableAll(); }
};

LinearExpr MakeExpr(std::vector<int64_t> coeffs, int64_t c) {
  LinearExpr e{BigInt(c)};
  for (size_t i = 0; i < coeffs.size(); ++i) {
    e.AddTerm(static_cast<VarId>(i), BigInt(coeffs[i]));
  }
  return e;
}

// Automaton over one symbol accepting all "flat" trees (root + leaf
// children); the standard small LCTA test instance.
TreeAutomaton FlatTrees() {
  TreeAutomaton a(1, 2);
  a.SetInitial(0);
  a.AddHorizontal(0, 0, 0);
  a.AddVertical(0, 0, 1);
  a.SetAccepting(1, 0);
  a.SetAccepting(0, 0);
  return a;
}

// ---------------------------------------------------------------------------
// StopReason plumbing
// ---------------------------------------------------------------------------

TEST(StopReasonTest, ToStringNamesBudgetModuleAndCounters) {
  StopReason r{StopKind::kNodeBudget, "solverlp.ilp", 200001, 200000};
  EXPECT_TRUE(r.stopped());
  std::string s = r.ToString();
  EXPECT_NE(s.find("solverlp.ilp"), std::string::npos) << s;
  EXPECT_NE(s.find("200001"), std::string::npos) << s;
  EXPECT_NE(s.find("200000"), std::string::npos) << s;
  EXPECT_FALSE(StopReason{}.stopped());
}

TEST(StopReasonTest, SurvivesWithContext) {
  Status st = Status::ResourceExhausted(
      "node budget", StopReason{StopKind::kNodeBudget, "solverlp.ilp", 7, 5});
  ASSERT_NE(st.stop_reason(), nullptr);
  Status wrapped = st.WithContext("while testing");
  ASSERT_NE(wrapped.stop_reason(), nullptr);
  EXPECT_EQ(wrapped.stop_reason()->kind, StopKind::kNodeBudget);
  EXPECT_EQ(wrapped.stop_reason()->counter, 7u);
  EXPECT_EQ(Status::OK().stop_reason(), nullptr);
}

// ---------------------------------------------------------------------------
// CancellationToken / FirstWinsFanout / ExecCheckpoint
// ---------------------------------------------------------------------------

TEST(CancellationTokenTest, HierarchyAndFlagAdapter) {
  CancellationToken inert;
  EXPECT_FALSE(inert.CanBeCancelled());
  EXPECT_FALSE(inert.IsCancelled());
  inert.RequestCancel();  // no-op
  EXPECT_FALSE(inert.IsCancelled());

  CancellationToken parent = CancellationToken::Create();
  CancellationToken child = parent.Child();
  CancellationToken grandchild = child.Child();
  EXPECT_FALSE(grandchild.IsCancelled());
  // Cancelling a child leaves the parent untouched.
  child.RequestCancel();
  EXPECT_TRUE(child.IsCancelled());
  EXPECT_TRUE(grandchild.IsCancelled());
  EXPECT_FALSE(parent.IsCancelled());
  // Cancelling the parent reaches every descendant.
  CancellationToken other = parent.Child();
  parent.RequestCancel();
  EXPECT_TRUE(other.IsCancelled());

  std::atomic<bool> flag{false};
  CancellationToken wrapped = CancellationToken::WrapFlag(&flag);
  CancellationToken wrapped_child = wrapped.Child();
  EXPECT_FALSE(wrapped_child.IsCancelled());
  flag.store(true);
  EXPECT_TRUE(wrapped.IsCancelled());
  EXPECT_TRUE(wrapped_child.IsCancelled());
}

TEST(FirstWinsFanoutTest, TerminalCancelsOnlyHigherBranches) {
  CancellationToken parent = CancellationToken::Create();
  FirstWinsFanout fanout(4, parent);
  EXPECT_EQ(fanout.stop_at(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(fanout.Abandoned(i));
    EXPECT_FALSE(fanout.TokenFor(i).IsCancelled());
  }
  fanout.MarkTerminal(2);
  EXPECT_EQ(fanout.stop_at(), 2u);
  EXPECT_FALSE(fanout.TokenFor(0).IsCancelled());
  EXPECT_FALSE(fanout.TokenFor(1).IsCancelled());
  EXPECT_FALSE(fanout.TokenFor(2).IsCancelled());
  EXPECT_TRUE(fanout.TokenFor(3).IsCancelled());
  EXPECT_TRUE(fanout.Abandoned(3));
  EXPECT_FALSE(fanout.Abandoned(2));
  // A later, smaller terminal index still lowers the bar.
  fanout.MarkTerminal(1);
  EXPECT_EQ(fanout.stop_at(), 1u);
  EXPECT_TRUE(fanout.TokenFor(2).IsCancelled());
  // A larger one does not raise it back.
  fanout.MarkTerminal(3);
  EXPECT_EQ(fanout.stop_at(), 1u);
  // The caller's token still cancels everything, including branch 0.
  parent.RequestCancel();
  EXPECT_TRUE(fanout.TokenFor(0).IsCancelled());
}

TEST(ExecCheckpointTest, ReportsDeadlineWithStopReason) {
  ExecutionContext exec;
  exec.SetDeadlineAfter(std::chrono::milliseconds(0));
  ExecCheckpoint checkpoint(&exec, nullptr, "test.module", /*period=*/4);
  Status st = Status::OK();
  for (int i = 0; i < 8 && st.ok(); ++i) st = checkpoint.Tick();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted());
  ASSERT_NE(st.stop_reason(), nullptr);
  EXPECT_EQ(st.stop_reason()->kind, StopKind::kDeadline);
  EXPECT_STREQ(st.stop_reason()->module, "test.module");
  EXPECT_GT(exec.counters().deadline_checks.load(), 0u);
}

TEST(ExecCheckpointTest, ReportsCallerCancellation) {
  ExecutionContext exec;
  CancellationToken token = CancellationToken::Create();
  exec.set_token(token);
  ExecCheckpoint checkpoint(&exec, nullptr, "test.module", /*period=*/2);
  EXPECT_TRUE(checkpoint.Tick().ok());
  token.RequestCancel();
  Status st = Status::OK();
  for (int i = 0; i < 4 && st.ok(); ++i) st = checkpoint.Tick();
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsCancelled());
  ASSERT_NE(st.stop_reason(), nullptr);
  EXPECT_EQ(st.stop_reason()->kind, StopKind::kCancelled);
}

TEST(ExecutionContextTest, MemoryAccountant) {
  ExecutionContext exec;
  exec.set_max_bytes(1000);
  EXPECT_TRUE(exec.ChargeMemory(600, "test.module").ok());
  Status st = exec.ChargeMemory(600, "test.module");
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourceExhausted());
  ASSERT_NE(st.stop_reason(), nullptr);
  EXPECT_EQ(st.stop_reason()->kind, StopKind::kMemoryBudget);
}

// ---------------------------------------------------------------------------
// Deadline end-to-end: every public entry point fails fast and clean
// ---------------------------------------------------------------------------

TEST(DeadlineTest, FrontendDegradesToUnknownWithin500Ms) {
  Watchdog watchdog(std::chrono::seconds(60));
  Alphabet labels;
  // Propositionally unsatisfiable, so enumeration never terminates early;
  // with 10-node trees the space is astronomically larger than any budget.
  auto f = ParseFormula("exists x. (a(x) & b(x))", &labels);
  ASSERT_TRUE(f.ok());
  SolverOptions opt;
  opt.max_model_nodes = 10;
  opt.max_steps = ~uint64_t{0};  // only the deadline can stop this
  ExecutionContext exec;
  exec.SetDeadlineAfter(std::chrono::milliseconds(50));
  opt.exec = &exec;
  auto start = std::chrono::steady_clock::now();
  auto r = CheckFo2SatisfiabilityBounded(*f, opt);
  auto wall = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, SatVerdict::kUnknown);
  ASSERT_TRUE(r->stop_reason.has_value());
  EXPECT_EQ(r->stop_reason->kind, StopKind::kDeadline);
  EXPECT_STREQ(r->stop_reason->module, "frontend.enumerate");
  EXPECT_LT(wall.count(), 500) << "deadline overshoot";
  EXPECT_GT(exec.counters().deadline_checks.load(), 0u);
}

TEST(DeadlineTest, FrontendCancellationPropagatesAsStatus) {
  Alphabet labels;
  auto f = ParseFormula("exists x. (a(x) & b(x))", &labels);
  ASSERT_TRUE(f.ok());
  SolverOptions opt;
  opt.max_model_nodes = 10;
  opt.max_steps = ~uint64_t{0};
  ExecutionContext exec;
  CancellationToken token = CancellationToken::Create();
  exec.set_token(token);
  opt.exec = &exec;
  token.RequestCancel();
  auto r = CheckFo2SatisfiabilityBounded(*f, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
  ASSERT_NE(r.status().stop_reason(), nullptr);
  EXPECT_EQ(r.status().stop_reason()->kind, StopKind::kCancelled);
}

TEST(DeadlineTest, LctaVerdictsIdenticalAcrossThreadCounts) {
  Watchdog watchdog(std::chrono::seconds(60));
  // Flat trees with n_0 == 4: nonempty, witness counts are deterministic.
  LinearExpr e;
  e.AddTerm(0, BigInt(1));
  e.AddConstant(BigInt(-4));
  for (size_t threads : {1u, 2u, 8u}) {
    Lcta lcta{FlatTrees(), LinearConstraint::Eq(e)};
    LctaOptions opt;
    opt.num_threads = threads;
    auto r = CheckLctaEmptiness(lcta, opt);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r->empty) << "threads " << threads;
    ASSERT_EQ(r->state_counts.size(), 2u);
    EXPECT_EQ(r->state_counts[0].ToString(), "4") << "threads " << threads;
  }
  // With an already-expired deadline every thread count reports the same
  // clean deadline stop — never a verdict, never a hang.
  for (size_t threads : {1u, 2u, 8u}) {
    Lcta lcta{FlatTrees(), LinearConstraint::Eq(e)};
    LctaOptions opt;
    opt.num_threads = threads;
    ExecutionContext exec;
    exec.SetDeadlineAfter(std::chrono::milliseconds(0));
    opt.exec = &exec;
    auto r = CheckLctaEmptiness(lcta, opt);
    ASSERT_FALSE(r.ok()) << "threads " << threads;
    EXPECT_TRUE(r.status().IsResourceExhausted()) << "threads " << threads;
    ASSERT_NE(r.status().stop_reason(), nullptr);
    EXPECT_EQ(r.status().stop_reason()->kind, StopKind::kDeadline);
  }
}

TEST(DeadlineTest, GovernedIlpSolveAccountsEffort) {
  ExecutionContext exec;
  exec.SetDeadlineAfter(std::chrono::seconds(30));  // generous: must finish
  IlpOptions opt;
  opt.exec = &exec;
  // Fractional LP vertex forces branching, so nodes and pivots accumulate.
  LinearSystem sys = {LinearAtom::Eq(MakeExpr({2, -1}, 0)),
                      LinearAtom::Ge(MakeExpr({0, 1}, -3))};
  auto sol = IlpSolver::FindIntegerPoint(sys, 2, opt);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  EXPECT_TRUE(sol->feasible);
  EXPECT_GT(exec.counters().ilp_nodes.load(), 0u);
  EXPECT_GT(exec.counters().simplex_pivots.load(), 0u);
}

// ---------------------------------------------------------------------------
// ThreadStats quiescence contract
// ---------------------------------------------------------------------------

TEST(ThreadStatsTest, ScopedWorkerTracksLiveWorkers) {
  ASSERT_EQ(ActiveStatsWorkerCount().load(), 0);
  {
    ScopedStatsWorker outer;
    EXPECT_EQ(ActiveStatsWorkerCount().load(), 1);
    std::thread t([] {
      ScopedStatsWorker inner;
      EXPECT_EQ(ActiveStatsWorkerCount().load(), 2);
    });
    t.join();
    EXPECT_EQ(ActiveStatsWorkerCount().load(), 1);
  }
  EXPECT_EQ(ActiveStatsWorkerCount().load(), 0);
}

TEST(ThreadStatsTest, ParallelSolveLeavesWorkersQuiescent) {
  // The DNF fan-out joins its workers before returning, so the registry is
  // quiescent and the (asserted) aggregation precondition holds.
  std::vector<LinearSystem> branches;
  for (int64_t k = 1; k <= 6; ++k) {
    branches.push_back({LinearAtom::Eq(MakeExpr({1, 0}, -k)),
                        LinearAtom::Eq(MakeExpr({0, 1}, k - 10))});
  }
  IlpOptions opt;
  opt.num_threads = 4;
  auto r = IlpSolver::SolveDnf(branches, 2, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->solution.feasible);
  EXPECT_EQ(ActiveStatsWorkerCount().load(), 0);
}

// ---------------------------------------------------------------------------
// Failpoints: graceful degradation under injected faults
// ---------------------------------------------------------------------------

TEST(FailpointTest, FrameworkSkipAndFireWindows) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  FailpointGuard guard;
  int fired = 0;
  Failpoints::Instance().Enable(
      "test.site", [&](void*) { ++fired; }, /*skip=*/2, /*fire=*/3);
  for (int i = 0; i < 10; ++i) FO2DT_FAILPOINT("test.site", nullptr);
  EXPECT_EQ(fired, 3);  // hits 3..5 of 10
  EXPECT_EQ(Failpoints::Instance().HitCount("test.site"), 10u);
  Failpoints::Instance().Disable("test.site");
  FO2DT_FAILPOINT("test.site", nullptr);
  EXPECT_EQ(fired, 3);
}

TEST(FailpointTest, BigIntSlowAddMatchesFastPath) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Watchdog watchdog(std::chrono::seconds(60));
  // Reference results on the small-int fast path.
  std::vector<std::pair<int64_t, int64_t>> cases = {
      {0, 0},     {1, -1},         {123456789, 987654321},
      {-5, 3},    {1 << 30, 1},    {-(1LL << 40), 1LL << 40},
      {7, -7000}, {999999, 999999}};
  std::vector<std::string> expected;
  for (const auto& [a, b] : cases) {
    expected.push_back((BigInt(a) + BigInt(b)).ToString());
  }
  // Forcing the limb path must produce identical canonical values.
  FailpointGuard guard;
  Failpoints::Instance().Enable("bigint.force_slow_add", [](void* arg) {
    *static_cast<bool*>(arg) = true;
  });
  for (size_t i = 0; i < cases.size(); ++i) {
    BigInt slow = BigInt(cases[i].first) + BigInt(cases[i].second);
    EXPECT_EQ(slow.ToString(), expected[i])
        << cases[i].first << " + " << cases[i].second;
  }
  EXPECT_GT(Failpoints::Instance().HitCount("bigint.force_slow_add"), 0u);
}

TEST(FailpointTest, SimplexForcedRebuildKeepsVerdict) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Watchdog watchdog(std::chrono::seconds(60));
  FailpointGuard guard;
  // Every bound application reports a pivot-cap overflow, forcing the
  // rebuild path; the verdict and witness must not change.
  Failpoints::Instance().Enable("simplex.force_rebuild", [](void* arg) {
    *static_cast<bool*>(arg) = true;
  });
  LinearSystem sys = {LinearAtom::Eq(MakeExpr({2, -1}, 0)),
                      LinearAtom::Ge(MakeExpr({0, 1}, -3))};
  auto sol = IlpSolver::FindIntegerPoint(sys, 2);
  ASSERT_TRUE(sol.ok()) << sol.status().ToString();
  ASSERT_TRUE(sol->feasible);
  for (const auto& atom : sys) {
    EXPECT_TRUE(*atom.Evaluate(sol->assignment)) << atom.ToString();
  }
  EXPECT_GT(Failpoints::Instance().HitCount("simplex.force_rebuild"), 0u);

  LinearSystem infeasible = {LinearAtom::Eq(MakeExpr({2, -2}, -1))};
  auto none = IlpSolver::FindIntegerPoint(infeasible, 2);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_FALSE(none->feasible);
}

TEST(FailpointTest, IlpWorkerFaultSurfacesCleanStatus) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Watchdog watchdog(std::chrono::seconds(60));
  FailpointGuard guard;
  Failpoints::Instance().Enable("ilp.worker_fault", [](void* arg) {
    *static_cast<Status*>(arg) = Status::Internal("injected worker fault");
  });
  std::vector<LinearSystem> branches;
  for (int64_t k = 1; k <= 6; ++k) {
    branches.push_back({LinearAtom::Eq(MakeExpr({1, 0}, -k)),
                        LinearAtom::Eq(MakeExpr({0, 1}, k - 10))});
  }
  IlpOptions opt;
  opt.num_threads = 4;
  auto r = IlpSolver::SolveDnf(branches, 2, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
  EXPECT_NE(r.status().ToString().find("injected worker fault"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(ActiveStatsWorkerCount().load(), 0);  // workers joined cleanly
}

TEST(FailpointTest, MidSearchCancellationThroughBranchHook) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Watchdog watchdog(std::chrono::seconds(60));
  FailpointGuard guard;
  CancellationToken token = CancellationToken::Create();
  // Cancel from *inside* the search, at the first branch-and-bound node.
  Failpoints::Instance().Enable(
      "ilp.branch", [&token](void*) { token.RequestCancel(); },
      /*skip=*/0, /*fire=*/1);
  IlpOptions opt;
  opt.cancel_token = token;
  LinearSystem sys = {LinearAtom::Eq(MakeExpr({2, -1}, 0)),
                      LinearAtom::Ge(MakeExpr({0, 1}, -3))};
  auto r = IlpSolver::FindIntegerPoint(sys, 2, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCancelled());
  ASSERT_NE(r.status().stop_reason(), nullptr);
  EXPECT_EQ(r.status().stop_reason()->kind, StopKind::kCancelled);
}

// ---------------------------------------------------------------------------
// Stop attribution end-to-end: when a deadline (or budget) kills a solve, the
// degraded SatResult must say not just *that* it stopped but *where* — the
// StopReason module and the PhaseProfile's dominant phase have to agree on
// the pipeline stage that was burning the clock. One test per stop site:
// the LCTA cut loop, the simplex/B&B core, the ILP node budget, and the
// connectivity-cut budget.
// ---------------------------------------------------------------------------

/// Key/foreign-key family over a DTD schema, mirroring the benchmark
/// instance: per kind i the root holds "src_i, src_i, ref_i?", each element
/// carrying attribute k_i, with keyed inclusions src_i.k_i -> ref_i.k_i.
/// The inconsistent variant also keys src_i (two sources, at most one
/// target), which drives the specialized ILP into a node-heavy search.
struct KeyFkFamily {
  Alphabet labels;
  TreeAutomaton schema;
  ConstraintSet set;
};

KeyFkFamily MakeKeyFkFamily(size_t kinds, bool consistent) {
  KeyFkFamily f;
  Symbol root = f.labels.Intern("root");
  Dtd dtd;
  dtd.root = root;
  std::string content;
  for (size_t i = 0; i < kinds; ++i) {
    Symbol src = f.labels.Intern("src" + std::to_string(i));
    Symbol ref = f.labels.Intern("ref" + std::to_string(i));
    Symbol key = f.labels.Intern("k" + std::to_string(i));
    dtd.elements.push_back(DtdElement{src, Regex::Epsilon(), {key}});
    dtd.elements.push_back(DtdElement{ref, Regex::Epsilon(), {key}});
    if (!content.empty()) content += ", ";
    content += "src" + std::to_string(i) + ", src" + std::to_string(i) +
               ", ref" + std::to_string(i) + "?";
    if (!consistent) f.set.keys.push_back({src, key});
    f.set.keys.push_back({ref, key});
    f.set.inclusions.push_back({src, key, ref, key});
  }
  DtdElement root_el;
  root_el.element = root;
  Alphabet regex_labels = f.labels;
  root_el.content = *ParseRegex(content, &regex_labels);
  dtd.elements.push_back(root_el);
  f.schema = *DtdToTreeAutomaton(dtd, f.labels.size());
  return f;
}

TEST(StopAttributionTest, CutLoopDeadlineAttributesToLcta) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Watchdog watchdog(std::chrono::seconds(120));
  FailpointGuard guard;
  // Stall the first cut round well past the deadline; the per-round
  // checkpoint right after the failpoint must then attribute the stop to
  // the cut loop (module "lcta.cuts"), and the stall itself lands in the
  // kLcta phase scope that wraps SolveRoot.
  Failpoints::Instance().Enable("lcta.cut_round", [](void*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
  });
  KeyFkFamily f = MakeKeyFkFamily(1, /*consistent=*/true);
  ExecutionContext exec;
  exec.SetDeadlineAfter(std::chrono::milliseconds(250));
  LctaOptions opt;
  opt.exec = &exec;
  opt.num_threads = 1;  // serialize the root fan-out for determinism
  auto r = CheckKeyForeignKeyConsistencyIlp(f.schema, f.set, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, SatVerdict::kUnknown);
  ASSERT_TRUE(r->stop_reason.has_value());
  EXPECT_EQ(r->stop_reason->kind, StopKind::kDeadline);
  EXPECT_STREQ(r->stop_reason->module, "lcta.cuts");
  ASSERT_TRUE(r->profile.has_value());
  EXPECT_EQ(r->profile->stop.kind, r->stop_reason->kind);
  EXPECT_STREQ(r->profile->stop.module, r->stop_reason->module);
  EXPECT_EQ(r->profile->StopPhase(), Phase::kLcta);
  EXPECT_EQ(r->profile->DominantPhase(), Phase::kLcta);
}

TEST(StopAttributionTest, MidSimplexDeadlineAttributesToSolverCore) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Watchdog watchdog(std::chrono::seconds(120));
  FailpointGuard guard;
  // The 2-kind inconsistent root LP runs ~500 exact pivots in one tableau,
  // past the amortized 256-pivot deadline checkpoint. Expire the deadline
  // from inside that pivot loop — the bigint failpoint fires on every
  // small-int add, and in a single-threaded solve the add sequence is
  // deterministic: hit ~100 lands after the cut-round-0 governor check
  // (which happens at add ~4) but before the 256th pivot (~add 430). The
  // stop must then be attributed to simplex pivoting, not the cut loop.
  // The initial deadline must be armed (nonzero) before the solve starts:
  // checkpoints constructed against a deadline-free context disarm
  // themselves for the fast path and would never observe the shortening.
  ExecutionContext exec;
  exec.SetDeadlineAfter(std::chrono::minutes(5));
  Failpoints::Instance().Enable(
      "bigint.force_slow_add",
      [&exec](void*) { exec.SetDeadlineAfter(std::chrono::milliseconds(0)); },
      /*skip=*/99, /*fire=*/1);
  KeyFkFamily f = MakeKeyFkFamily(2, /*consistent=*/false);
  LctaOptions opt;
  opt.exec = &exec;
  opt.num_threads = 1;
  auto r = CheckKeyForeignKeyConsistencyIlp(f.schema, f.set, opt);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->verdict, SatVerdict::kUnknown);
  ASSERT_TRUE(r->stop_reason.has_value());
  EXPECT_EQ(r->stop_reason->kind, StopKind::kDeadline);
  EXPECT_STREQ(r->stop_reason->module, "solverlp.simplex");
  ASSERT_TRUE(r->profile.has_value());
  EXPECT_EQ(r->profile->StopPhase(), Phase::kIlp);
  // The phase that was cut short must show up in the profile: the solver
  // core had run hundreds of pivots before the checkpoint fired.
  EXPECT_GT((*r->profile)[Phase::kIlp].calls, 0u);
  EXPECT_GT((*r->profile)[Phase::kIlp].wall_ns, 0u);
  // Distinctness against the cut-loop case above: same stop kind, different
  // module, different owning phase.
  EXPECT_NE(r->profile->StopPhase(), Phase::kLcta);
}

TEST(StopAttributionTest, IlpNodeBudgetAttributesToIlpModule) {
  // No failpoints: runs in every build. The LCTA flow systems are
  // effectively totally unimodular — their searches conclude at the root
  // node — so a genuine budget trip needs a genuinely branching system:
  // 2x + 3y == 1 has the fractional LP vertex x = 1/2 but no nonnegative
  // integer point, and its coefficient gcd is 1 so preprocessing keeps it.
  // A node budget of 0 must then trip with the ILP module's StopReason.
  Watchdog watchdog(std::chrono::seconds(120));
  LinearSystem sys = {LinearAtom::Eq(MakeExpr({2, 3}, -1)),
                      LinearAtom::Ge(MakeExpr({1, 0}, 0)),
                      LinearAtom::Ge(MakeExpr({0, 1}, 0))};
  IlpOptions opt;
  opt.max_nodes = 0;
  auto r = IlpSolver::FindIntegerPoint(sys, 2, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  ASSERT_NE(r.status().stop_reason(), nullptr);
  EXPECT_EQ(r.status().stop_reason()->kind, StopKind::kNodeBudget);
  EXPECT_STREQ(r.status().stop_reason()->module, "solverlp.ilp");
}

TEST(StopAttributionTest, CutBudgetSurfacesWithCutModule) {
  // The phantom-cycle instance (cf. lcta_test ConnectivityCutsFire) needs at
  // least one connectivity cut; with max_cuts=0 the second round trips the
  // cut budget, which must be attributed to the cut loop, not the ILP.
  Watchdog watchdog(std::chrono::seconds(120));
  TreeAutomaton a(1, 3);
  a.SetInitial(0);
  a.AddVertical(0, 0, 1);
  a.SetAccepting(1, 0);
  a.AddVertical(2, 0, 2);
  LinearExpr e = LinearExpr::Variable(2);  // n_2 >= 1: only the phantom
  e.AddConstant(BigInt(-1));
  Lcta lcta{a, LinearConstraint::Ge(e)};
  LctaOptions opt;
  opt.max_cuts = 0;
  auto r = CheckLctaEmptiness(lcta, opt);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
  ASSERT_NE(r.status().stop_reason(), nullptr);
  EXPECT_EQ(r.status().stop_reason()->kind, StopKind::kCutBudget);
  EXPECT_STREQ(r.status().stop_reason()->module, "lcta.cuts");
}

TEST(FailpointTest, LctaCutRoundFaultSurfacesCleanStatus) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  Watchdog watchdog(std::chrono::seconds(60));
  FailpointGuard guard;
  Failpoints::Instance().Enable("lcta.cut_round", [](void* arg) {
    *static_cast<Status*>(arg) = Status::Internal("injected cut-round fault");
  });
  Lcta lcta{FlatTrees(), LinearConstraint::True()};
  auto r = CheckLctaEmptiness(lcta);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInternal());
  EXPECT_NE(r.status().ToString().find("injected cut-round fault"),
            std::string::npos)
      << r.status().ToString();
}

// ---------------------------------------------------------------------------
// Facade results are a function of input + budgets + thread count
// ---------------------------------------------------------------------------

/// Every SatResult field the cache, replay and query log store, except wall
/// time and memory: verdict, method, steps, stop reason, witness (as
/// replay-alphabet text plus predicate membership) and each phase's
/// calls/effort.
std::string DeterministicFields(const SatResult& r, size_t num_labels) {
  std::string out = StringFormat("%s %s steps=%llu",
                                  SatVerdictToString(r.verdict),
                                  SatMethodToString(r.method),
                                  static_cast<unsigned long long>(r.steps));
  if (r.stop_reason.has_value()) {
    const StopReason& stop = *r.stop_reason;
    out += StringFormat(" stop=%s/%s/%llu/%llu", StopKindToString(stop.kind),
                        stop.module,
                        static_cast<unsigned long long>(stop.counter),
                        static_cast<unsigned long long>(stop.limit));
  }
  if (r.witness.has_value()) {
    out += " witness=" +
           DataTreeToText(*r.witness, MakeReplayAlphabet(num_labels));
  }
  if (r.witness_interp.has_value()) {
    for (const std::vector<char>& pred : r.witness_interp->membership) {
      out += " pred=";
      for (char member : pred) out += member != 0 ? '1' : '0';
    }
  }
  if (r.profile.has_value()) {
    for (size_t i = 0; i < kPhaseCount; ++i) {
      const PhaseProfile::Entry& e = r.profile->phases[i];
      if (e.calls == 0) continue;
      out += StringFormat(" %s=%llu/%llu", PhaseName(static_cast<Phase>(i)),
                          static_cast<unsigned long long>(e.calls),
                          static_cast<unsigned long long>(e.effort));
    }
  }
  return out;
}

/// Two DNF blocks over labels {0, 1}: the first forbids label 0 everywhere
/// yet requires a label-0 root (the counting abstraction proves it dead),
/// the second allows at most one label-0 node per class (bounded search
/// finds a model).
DataNormalForm DeadAndLiveDnf() {
  DataNormalForm dnf;
  dnf.ext = ExtAlphabet{2, 0};
  const ExtAlphabet& ext = dnf.ext;
  TypeSet label0(ext.size(), 0);
  label0[0] = 1;
  DnfBlock dead;
  SimpleFormula no0;
  no0.kind = SimpleFormula::Kind::kNoCoexist;
  no0.alpha = label0;
  no0.beta = label0;
  dead.simples.push_back(no0);
  TreeAutomaton root0(ext.profiled_size(), 1);
  root0.SetInitial(0);
  for (Symbol s = 0; s < ext.profiled_size(); ++s) {
    root0.AddHorizontal(0, s, 0);
    root0.AddVertical(0, s, 0);
    if (ext.LabelOf(ext.ExtOf(s)) == 0) root0.SetAccepting(0, s);
  }
  dead.regular.push_back(root0);
  DnfBlock live;
  SimpleFormula amo;
  amo.kind = SimpleFormula::Kind::kAtMostOne;
  amo.alpha = label0;
  live.simples.push_back(amo);
  dnf.blocks = {dead, live};
  return dnf;
}

// Each facade's LCTA root fan-out (and the ILP's DNF fan-out it sizes) runs
// at 1, 2 and 8 threads, each solve under its own ExecutionContext; every
// stored field must match the single-threaded reference, pinned here. The
// thread counts are explicit, so a 1-CPU host still runs the race.
TEST(DeterminismTest, FacadeResultsIdenticalAcrossThreadCounts) {
  Watchdog watchdog(std::chrono::seconds(120));
  struct Case {
    const char* name;
    std::function<Result<SatResult>(size_t, const ExecutionContext*)> solve;
    size_t num_labels;
    std::string pinned;
  };
  const KeyFkFamily consistent = MakeKeyFkFamily(2, /*consistent=*/true);
  const KeyFkFamily inconsistent = MakeKeyFkFamily(2, /*consistent=*/false);
  auto keyfk = [](const KeyFkFamily& f) {
    return [&f](size_t threads, const ExecutionContext* exec) {
      LctaOptions opt;
      opt.num_threads = threads;
      opt.exec = exec;
      return CheckKeyForeignKeyConsistencyIlp(f.schema, f.set, opt);
    };
  };
  // Every (state, symbol) pair of the universal schema is an accepting
  // root, so the LCTA root fan-out has several roots to race on.
  KeyFkFamily universal;
  universal.schema = TreeAutomaton::Universal(4);
  universal.set.keys.push_back(UnaryKey{2, 3});
  universal.set.inclusions.push_back(UnaryInclusion{0, 1, 2, 3});
  const DataNormalForm dnf = DeadAndLiveDnf();
  auto dnf_sat = [&dnf](uint64_t max_steps) {
    return [&dnf, max_steps](size_t threads, const ExecutionContext* exec) {
      SolverOptions opt;
      opt.max_model_nodes = 3;
      opt.puzzle_search.max_steps = max_steps;
      opt.counting.lcta.num_threads = threads;
      opt.exec = exec;
      return CheckDnfSatisfiability(dnf, opt);
    };
  };
  const std::vector<Case> cases = {
      {"keyfk consistent", keyfk(consistent), consistent.labels.size(),
       "SAT counting_abstraction steps=4 lcta=2/1 ilp=4/4 constraints=1/0"},
      {"keyfk inconsistent", keyfk(inconsistent), inconsistent.labels.size(),
       "UNSAT counting_abstraction steps=1 lcta=2/1 ilp=1/1 constraints=1/0"},
      {"keyfk universal schema", keyfk(universal), 4,
       "SAT counting_abstraction steps=2 lcta=2/1 ilp=2/2 constraints=1/0"},
      {"dnf", dnf_sat(20000000), dnf.ext.size(),
       "SAT puzzle_pipeline steps=3 witness=l0:0 puzzle=2/0 bounded_search=1/1 "
       "lcta=4/2 ilp=2/2 frontend=1/0"},
      {"dnf step budget", dnf_sat(0), dnf.ext.size(),
       "UNKNOWN puzzle_pipeline steps=3 stop=step budget/puzzle.bounded/1/0 "
       "puzzle=2/0 bounded_search=1/1 lcta=4/2 ilp=2/2 frontend=1/0"},
  };
  for (const Case& c : cases) {
    for (size_t threads : {1u, 2u, 8u}) {
      ExecutionContext exec;
      Result<SatResult> r = c.solve(threads, &exec);
      ASSERT_TRUE(r.ok()) << c.name << ": " << r.status().ToString();
      EXPECT_EQ(DeterministicFields(*r, c.num_labels), c.pinned)
          << c.name << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace fo2dt
