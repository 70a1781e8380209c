/// \file registry_names.h
/// \brief GENERATED registry of every name the pipeline registers.
///
/// Generated by tools/lint/gen_registry.py from tools/lint/registry.json
/// — DO NOT EDIT BY HAND. Edit the JSON and re-run the generator; the
/// registry_names_up_to_date ctest fails when this file drifts.
///
/// fo2dt_lint enforces that governor module strings and failpoint sites
/// in src/** reference these constants instead of inline string
/// literals, so a renamed phase or module cannot silently break
/// StopReason attribution or the bench counter contract.

#pragma once

#include <cstddef>

namespace fo2dt {
namespace names {

// ---- Governor module strings (StopReason::module, ExecCheckpoint) ----
/// top-level satisfiability facade (frontend/solver.cc) (phase: frontend)
inline constexpr char kModFrontendSolver[] = "frontend.solver";
/// bounded model enumeration driven from the facade (phase: bounded_search)
inline constexpr char kModFrontendEnumerate[] = "frontend.enumerate";
/// Lemma-3 counting abstraction setup (phase: puzzle)
inline constexpr char kModPuzzleCounting[] = "puzzle.counting";
/// puzzle bounded model search (phase: bounded_search)
inline constexpr char kModPuzzleBounded[] = "puzzle.bounded";
/// LCTA emptiness outer procedure (phase: lcta)
inline constexpr char kModLctaEmptiness[] = "lcta.emptiness";
/// LCTA connectivity-cut round loop (phase: lcta)
inline constexpr char kModLctaCuts[] = "lcta.cuts";
/// branch-and-bound ILP driver (phase: ilp)
inline constexpr char kModSolverlpIlp[] = "solverlp.ilp";
/// exact rational simplex (pivot loops) (phase: ilp)
inline constexpr char kModSolverlpSimplex[] = "solverlp.simplex";
/// linear-system preprocessing / branch expansion (phase: ilp)
inline constexpr char kModSolverlpLinear[] = "solverlp.linear";
/// VATA counter-tree derivation search (phase: vata)
inline constexpr char kModVataDerive[] = "vata.derive";
/// constraint-audit ILP round trip (phase: constraints)
inline constexpr char kModConstraintsKeyfkIlp[] = "constraints.keyfk_ilp";
/// fo2dtd admission control: queue caps, shedding ladder (phase: frontend)
inline constexpr char kModServerAdmission[] = "server.admission";
/// fo2dtd worker pool: per-request solve execution (phase: frontend)
inline constexpr char kModServerWorker[] = "server.worker";

inline constexpr const char* kAllModules[] = {
    kModFrontendSolver,
    kModFrontendEnumerate,
    kModPuzzleCounting,
    kModPuzzleBounded,
    kModLctaEmptiness,
    kModLctaCuts,
    kModSolverlpIlp,
    kModSolverlpSimplex,
    kModSolverlpLinear,
    kModVataDerive,
    kModConstraintsKeyfkIlp,
    kModServerAdmission,
    kModServerWorker,
};
inline constexpr std::size_t kNumModules =
    sizeof(kAllModules) / sizeof(kAllModules[0]);

// ---- Failpoint sites (FO2DT_FAILPOINT; keep in sync with DESIGN.md) ----
/// arg: bool* — force the limb path in BigInt operator+ and SubMul
inline constexpr char kFpBigintForceSlowAdd[] = "bigint.force_slow_add";
/// arg: bool* — force DualStatus::kCapExceeded during bound repair
inline constexpr char kFpSimplexForceRebuild[] = "simplex.force_rebuild";
/// arg: void — observation/cancel hook per B&B node
inline constexpr char kFpIlpBranch[] = "ilp.branch";
/// arg: Status* — inject an error into a DNF fan-out worker
inline constexpr char kFpIlpWorkerFault[] = "ilp.worker_fault";
/// arg: Status* — inject an error into the LCTA cut loop
inline constexpr char kFpLctaCutRound[] = "lcta.cut_round";
/// arg: Status* — inject a transient fault into the fo2dtd accept loop
inline constexpr char kFpServerAcceptFault[] = "server.accept_fault";
/// arg: Status* — crash one fo2dtd worker solve (single-request blast radius)
inline constexpr char kFpServerWorkerCrash[] = "server.worker_crash";
/// arg: bool* — stretch the fo2dtd drain sequence to widen the kill window
inline constexpr char kFpServerSlowDrain[] = "server.slow_drain";

inline constexpr const char* kAllFailpoints[] = {
    kFpBigintForceSlowAdd,
    kFpSimplexForceRebuild,
    kFpIlpBranch,
    kFpIlpWorkerFault,
    kFpLctaCutRound,
    kFpServerAcceptFault,
    kFpServerWorkerCrash,
    kFpServerSlowDrain,
};
inline constexpr std::size_t kNumFailpoints =
    sizeof(kAllFailpoints) / sizeof(kAllFailpoints[0]);

// ---- Pipeline phase names, indexed by the Phase enum's value ----
inline constexpr const char* kPhaseNames[] = {
    "scott",
    "dnf",
    "puzzle",
    "bounded_search",
    "lcta",
    "ilp",
    "vata",
    "constraints",
    "xpath",
    "frontend",
};
inline constexpr std::size_t kNumPhases =
    sizeof(kPhaseNames) / sizeof(kPhaseNames[0]);

// ---- Module-string prefix -> phase table (longest prefix first). ----
// PhaseForModule walks this in order; the int is the Phase enum value.
struct ModulePhasePrefix {
  const char* prefix;
  int phase;
};
inline constexpr ModulePhasePrefix kPhasePrefixes[] = {
    {"logic.scott", 0},  // scott
    {"logic.dnf", 1},  // dnf
    {"puzzle.bounded", 3},  // bounded_search
    {"frontend.enumerate", 3},  // bounded_search
    {"puzzle.", 2},  // puzzle
    {"lcta.", 4},  // lcta
    {"solverlp.", 5},  // ilp
    {"vata.", 6},  // vata
    {"constraints.", 7},  // constraints
    {"xpath.", 8},  // xpath
    {"server.", 9},  // frontend
};
inline constexpr std::size_t kNumPhasePrefixes =
    sizeof(kPhasePrefixes) / sizeof(kPhasePrefixes[0]);

// ---- MetricsRegistry snapshot keys ----
/// BigInt ops served by the int64 fast path
inline constexpr char kMetricArithSmallOps[] = "arith.small_ops";
/// BigInt ops that took the limb path
inline constexpr char kMetricArithBigOps[] = "arith.big_ops";
/// small_ops / (small_ops + big_ops)
inline constexpr char kMetricArithFastPathRate[] = "arith.fast_path_rate";
/// BigInt results that left int64 (heap-backed values created)
inline constexpr char kMetricArithWideResults[] = "arith.wide_results";
/// total simplex pivots
inline constexpr char kMetricSimplexPivots[] = "simplex.pivots";
/// cold tableau builds
inline constexpr char kMetricSimplexTableauBuilds[] = "simplex.tableau_builds";
/// warm-start attempts
inline constexpr char kMetricSimplexWarmStarts[] = "simplex.warm_starts";
/// warm starts repaired without rebuild
inline constexpr char kMetricSimplexWarmStartHits[] = "simplex.warm_start_hits";
/// hits / warm_starts
inline constexpr char kMetricSimplexWarmStartHitRate[] = "simplex.warm_start_hit_rate";
/// deepest B&B recursion seen
inline constexpr char kMetricGaugeIlpMaxDepth[] = "gauge.ilp_max_depth";
/// memory accountant peak, bytes
inline constexpr char kMetricGaugeMemHighWater[] = "gauge.mem_high_water";
/// verdict-cache lookups served from cache
inline constexpr char kMetricCacheSolveHits[] = "cache.solve.hits";
/// verdict-cache lookups that fell through to a cold solve
inline constexpr char kMetricCacheSolveMisses[] = "cache.solve.misses";
/// verdict-cache entries dropped by the LRU byte budget
inline constexpr char kMetricCacheSolveEvictions[] = "cache.solve.evictions";
/// verdict-cache resident entry count
inline constexpr char kMetricCacheSolveEntries[] = "cache.solve.entries";
/// verdict-cache resident bytes (approximate)
inline constexpr char kMetricCacheSolveBytes[] = "cache.solve.bytes";
/// sub-result memo lookups served from cache
inline constexpr char kMetricCacheSubHits[] = "cache.sub.hits";
/// sub-result memo lookups that recomputed
inline constexpr char kMetricCacheSubMisses[] = "cache.sub.misses";
/// sub-result memo entries dropped by the LRU byte budget
inline constexpr char kMetricCacheSubEvictions[] = "cache.sub.evictions";
/// distinct hash-consed IR nodes resident
inline constexpr char kMetricCacheInternNodes[] = "cache.intern.nodes";
/// intern requests that matched an existing node
inline constexpr char kMetricCacheInternHits[] = "cache.intern.hits";
/// intern arena bytes resident
inline constexpr char kMetricCacheInternBytes[] = "cache.intern.bytes";
/// requests admitted into the work queue
inline constexpr char kMetricServerAccepted[] = "server.accepted";
/// requests shed with an OVERLOADED response
inline constexpr char kMetricServerRejectedOverload[] = "server.rejected_overload";
/// requests admitted with shrunk budgets (shedding ladder)
inline constexpr char kMetricServerDegraded[] = "server.degraded";
/// requests that produced a response
inline constexpr char kMetricServerCompleted[] = "server.completed";
/// worker solves that failed a single request
inline constexpr char kMetricServerWorkerFaults[] = "server.worker_faults";
/// stuck solves cancelled by the watchdog
inline constexpr char kMetricServerWatchdogKills[] = "server.watchdog_kills";
/// in-flight solves cancelled by client disconnect
inline constexpr char kMetricServerDisconnectCancels[] = "server.disconnect_cancels";
/// deepest work-queue occupancy observed
inline constexpr char kMetricServerQueueDepthPeak[] = "server.queue_depth_peak";
/// current work-queue occupancy (gauge)
inline constexpr char kMetricServerQueueDepth[] = "server.queue_depth";
/// workers currently executing a solve (gauge)
inline constexpr char kMetricServerWorkersBusy[] = "server.workers_busy";
/// histogram: wire latency of solve requests, receipt to response write, ms
inline constexpr char kMetricHistWireMs[] = "hist.wire_ms";
/// histogram: admitted-solve queue wait, enqueue to worker dequeue, ms
inline constexpr char kMetricHistQueueWaitMs[] = "hist.queue_wait_ms";
/// histogram: solve execution wall time inside the worker, ms
inline constexpr char kMetricHistSolveWallMs[] = "hist.solve_wall_ms";
/// histogram: per-solve memory accountant high-water, bytes
inline constexpr char kMetricHistSolveMemBytes[] = "hist.solve_mem_bytes";
/// histogram: per-tenant wire latency of solve requests, ms (one instance per tenant-table slot)
inline constexpr char kMetricHistTenantWireMs[] = "hist.tenant_wire_ms";

// ---- Solver facade names (flight recorder / replay `kind` strings) ----
/// CheckFo2SatisfiabilityBounded (frontend/solver.h)
inline constexpr char kFacadeFrontendSat[] = "frontend.sat";
/// CheckDnfSatisfiability (frontend/solver.h)
inline constexpr char kFacadeFrontendDnfSat[] = "frontend.dnf_sat";
/// CheckConsistencyBounded (constraints/constraints.h)
inline constexpr char kFacadeConstraintsConsistency[] = "constraints.consistency";
/// CheckImplicationBounded (constraints/constraints.h)
inline constexpr char kFacadeConstraintsImplication[] = "constraints.implication";
/// CheckKeyForeignKeyConsistencyIlp (constraints/constraints.h)
inline constexpr char kFacadeConstraintsKeyfk[] = "constraints.keyfk";
/// CheckXPathSatisfiability (xpath/xpath.h)
inline constexpr char kFacadeXpathSat[] = "xpath.sat";
/// CheckXPathContainment (xpath/xpath.h)
inline constexpr char kFacadeXpathContainment[] = "xpath.containment";
/// VataAccepts (vata/vata.h)
inline constexpr char kFacadeVataAccepts[] = "vata.accepts";

inline constexpr const char* kAllFacades[] = {
    kFacadeFrontendSat,
    kFacadeFrontendDnfSat,
    kFacadeConstraintsConsistency,
    kFacadeConstraintsImplication,
    kFacadeConstraintsKeyfk,
    kFacadeXpathSat,
    kFacadeXpathContainment,
    kFacadeVataAccepts,
};
inline constexpr std::size_t kNumFacades =
    sizeof(kAllFacades) / sizeof(kAllFacades[0]);

// ---- Query-log JSONL record fields (flight recorder schema) ----
/// query-log record schema version (integer)
inline constexpr char kLogFieldV[] = "v";
/// wall-clock timestamp at solve end, ms since epoch
inline constexpr char kLogFieldTsMs[] = "ts_ms";
/// registered facade name that produced the record
inline constexpr char kLogFieldFacade[] = "facade";
/// end-to-end correlation id (client-supplied or server-generated); empty for unattributed CLI/bench solves
inline constexpr char kLogFieldRequestId[] = "request_id";
/// FNV-1a 64 over facade + canonical input, 16 hex digits
inline constexpr char kLogFieldInputHash[] = "input_hash";
/// canonical input size in bytes
inline constexpr char kLogFieldInputSize[] = "input_size";
/// solve outcome: SAT/UNSAT/UNKNOWN/ACCEPT/REJECT/ERROR:<code>
inline constexpr char kLogFieldVerdict[] = "verdict";
/// decision method that produced the verdict
inline constexpr char kLogFieldMethod[] = "method";
/// facade-reported step count
inline constexpr char kLogFieldSteps[] = "steps";
/// StopReason kind string (StopKindToString)
inline constexpr char kLogFieldStopKind[] = "stop_kind";
/// registered module that raised the StopReason
inline constexpr char kLogFieldStopModule[] = "stop_module";
/// counter value at the stop
inline constexpr char kLogFieldStopCounter[] = "stop_counter";
/// budget limit that was hit
inline constexpr char kLogFieldStopLimit[] = "stop_limit";
/// phase with the largest self wall time
inline constexpr char kLogFieldDominantPhase[] = "dominant_phase";
/// nested per-phase {ms, effort, mem_peak} object
inline constexpr char kLogFieldPhases[] = "phases";
/// deepest B&B recursion (gauge.ilp_max_depth)
inline constexpr char kLogFieldIlpMaxDepth[] = "ilp_max_depth";
/// memory accountant peak in bytes
inline constexpr char kLogFieldMemHighWater[] = "mem_high_water";
/// end-to-end wall time of the solve, ms
inline constexpr char kLogFieldWallMs[] = "wall_ms";
/// process CPU time consumed by the solve, ms
inline constexpr char kLogFieldCpuMs[] = "cpu_ms";
/// worker thread count in effect
inline constexpr char kLogFieldThreads[] = "threads";
/// RandomSource seed in effect
inline constexpr char kLogFieldSeed[] = "seed";
/// nested object of Table-I budget constants in effect
inline constexpr char kLogFieldBudgets[] = "budgets";
/// bundle directory when a post-mortem was captured, else empty
inline constexpr char kLogFieldCapture[] = "capture";
/// solve-cache disposition: hit, miss, or empty when caching was off
inline constexpr char kLogFieldCache[] = "cache";

inline constexpr const char* kAllLogFields[] = {
    kLogFieldV,
    kLogFieldTsMs,
    kLogFieldFacade,
    kLogFieldRequestId,
    kLogFieldInputHash,
    kLogFieldInputSize,
    kLogFieldVerdict,
    kLogFieldMethod,
    kLogFieldSteps,
    kLogFieldStopKind,
    kLogFieldStopModule,
    kLogFieldStopCounter,
    kLogFieldStopLimit,
    kLogFieldDominantPhase,
    kLogFieldPhases,
    kLogFieldIlpMaxDepth,
    kLogFieldMemHighWater,
    kLogFieldWallMs,
    kLogFieldCpuMs,
    kLogFieldThreads,
    kLogFieldSeed,
    kLogFieldBudgets,
    kLogFieldCapture,
    kLogFieldCache,
};
inline constexpr std::size_t kNumLogFields =
    sizeof(kAllLogFields) / sizeof(kAllLogFields[0]);

// ---- Post-mortem capture modes (FO2DT_CAPTURE values) ----
/// FO2DT_CAPTURE=never: log records only, no bundles
inline constexpr char kCaptureModeNever[] = "never";
/// FO2DT_CAPTURE=degraded (default): bundle on kUnknown/error
inline constexpr char kCaptureModeDegraded[] = "degraded";
/// FO2DT_CAPTURE=always: bundle every recorded solve
inline constexpr char kCaptureModeAlways[] = "always";

inline constexpr const char* kAllCaptureModes[] = {
    kCaptureModeNever,
    kCaptureModeDegraded,
    kCaptureModeAlways,
};
inline constexpr std::size_t kNumCaptureModes =
    sizeof(kAllCaptureModes) / sizeof(kAllCaptureModes[0]);

// ---- Post-mortem bundle layout (file names inside a capture dir) ----
/// the query-log record plus bundle metadata
inline constexpr char kBundleFileManifestJson[] = "manifest.json";
/// replayable serialized input (fo2dt_replay format)
inline constexpr char kBundleFileInputFo2dt[] = "input.fo2dt";
/// MetricsRegistry snapshot at capture time
inline constexpr char kBundleFileMetricsJson[] = "metrics.json";

inline constexpr const char* kAllBundleFiles[] = {
    kBundleFileManifestJson,
    kBundleFileInputFo2dt,
    kBundleFileMetricsJson,
};
inline constexpr std::size_t kNumBundleFiles =
    sizeof(kAllBundleFiles) / sizeof(kAllBundleFiles[0]);

// ---- Lock hierarchy (acquire strictly ascending; common/mutex.h) ----
struct LockRankEntry {
  const char* name;
  int rank;
};
/// fo2dtd work queue + drain flag (SolveServer::queue_mu_)
inline constexpr LockRankEntry kLockServerQueue{"server.queue", 10};
/// fo2dtd connection table + dead-reader handoff (SolveServer::conns_mu_)
inline constexpr LockRankEntry kLockServerConns{"server.conns", 20};
/// per-connection response serialization (Connection::write_mu)
inline constexpr LockRankEntry kLockServerConnWrite{"server.conn_write", 30};
/// per-worker watchdog slot (WorkerSlot::mu)
inline constexpr LockRankEntry kLockServerWorkerSlot{"server.worker_slot", 40};
/// admission-control counters + per-tenant table (AdmissionController::mu_)
inline constexpr LockRankEntry kLockServerAdmission{"server.admission", 50};
/// flight-recorder configuration snapshot (FlightRecorder::mu_)
inline constexpr LockRankEntry kLockRecorderConfig{"recorder.config", 60};
/// metrics source list; held across collect/reset callbacks, so it must precede every lock a source takes (MetricsRegistry::mu_)
inline constexpr LockRankEntry kLockMetricsRegistry{"metrics.registry", 70};
/// solve cache: LRU maps, byte budget, persistence sink (SolveCache::mu_)
inline constexpr LockRankEntry kLockCacheSolve{"cache.solve", 80};
/// shared intern table shard pools (SharedInternTable::Shard::mu)
inline constexpr LockRankEntry kLockCacheIntern{"cache.intern", 90};
/// per-thread stats live list + retired totals (ThreadStats::Registry::mu)
inline constexpr LockRankEntry kLockStatsRegistry{"stats.registry", 100};
/// query-log JSONL append sink (QueryLog::mu_)
inline constexpr LockRankEntry kLockQuerylogSink{"querylog.sink", 120};
/// failpoint site map; taken inside FO2DT_FAILPOINT at arbitrary solve depth (Failpoints::mu_)
inline constexpr LockRankEntry kLockFailpointRegistry{"failpoint.registry", 130};
/// TreeAutomaton lazy CSR successor index build (LazyIndex::mu); leaf lock, calls out to nothing
inline constexpr LockRankEntry kLockAutomataCsr{"automata.csr", 140};

inline constexpr LockRankEntry kAllLockRanks[] = {
    kLockServerQueue,
    kLockServerConns,
    kLockServerConnWrite,
    kLockServerWorkerSlot,
    kLockServerAdmission,
    kLockRecorderConfig,
    kLockMetricsRegistry,
    kLockCacheSolve,
    kLockCacheIntern,
    kLockStatsRegistry,
    kLockQuerylogSink,
    kLockFailpointRegistry,
    kLockAutomataCsr,
};
inline constexpr std::size_t kNumLockRanks =
    sizeof(kAllLockRanks) / sizeof(kAllLockRanks[0]);

// ---- Bench counter grammar: <prefix><phase><suffix> + extras ----
inline constexpr char kBenchPhasePrefix[] = "phase_";
inline constexpr char kBenchPhaseSuffix0[] = "_ms";
inline constexpr char kBenchPhaseSuffix1[] = "_effort";

// Standalone bench counters outside the phase grammar (cache hit
// rates per grid point); run_bench.sh asserts each on the committed
// BENCH_*.json files.
inline constexpr char kBenchExtraCacheHits[] = "cache_hits";
inline constexpr char kBenchExtraCacheMisses[] = "cache_misses";
inline constexpr char kBenchExtraSolveMsP50[] = "solve_ms_p50";
inline constexpr char kBenchExtraSolveMsP95[] = "solve_ms_p95";
inline constexpr char kBenchExtraSolveMsP99[] = "solve_ms_p99";
inline constexpr char kBenchExtraWideResults[] = "wide_results";
inline constexpr const char* kAllBenchExtras[] = {
    kBenchExtraCacheHits,
    kBenchExtraCacheMisses,
    kBenchExtraSolveMsP50,
    kBenchExtraSolveMsP95,
    kBenchExtraSolveMsP99,
    kBenchExtraWideResults,
};
inline constexpr std::size_t kNumBenchExtras =
    sizeof(kAllBenchExtras) / sizeof(kAllBenchExtras[0]);

}  // namespace names
}  // namespace fo2dt
