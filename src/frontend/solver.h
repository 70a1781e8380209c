/// \file solver.h
/// \brief Top-level satisfiability facade.
///
/// Theorem 1's full decision procedure is 3NEXPTIME; following DESIGN.md §2
/// the library exposes a two-sided, budgeted procedure:
///   * SAT side — exhaustive data-tree enumeration up to a size bound,
///     checked against the FO² model checker (complete for SAT whenever a
///     small model exists; the small model property guarantees one exists
///     whenever the formula is satisfiable, but its bound N is astronomical);
///   * UNSAT side — for inputs available in data normal form, the Lemma-3
///     counting abstraction over LCTAs (sound, incomplete);
///   * the verdict is kSat (with witness), kUnsat (with proof route), or
///     kUnknown (budgets exhausted).

#pragma once

#include <functional>
#include <optional>
#include <string>

#include "common/execution_context.h"
#include "common/flight_recorder.h"
#include "logic/dnf.h"
#include "logic/eval.h"
#include "logic/formula.h"
#include "puzzle/bounded_solver.h"
#include "puzzle/counting.h"

namespace fo2dt {

/// \brief Verdict of a satisfiability query.
enum class SatVerdict {
  kSat,
  kUnsat,
  kUnknown,
};

const char* SatVerdictToString(SatVerdict v);

/// \brief How a verdict was reached (diagnostics / benchmarks).
enum class SatMethod {
  kBoundedModelSearch,   ///< enumeration found a model / exhausted the bound
  kCountingAbstraction,  ///< Lemma-3-style counting proved emptiness
  kPuzzlePipeline,       ///< DNF -> puzzle bounded solver
  kNone,
};

/// Stable short name ("bounded_model_search", ...; query-log `method` field).
const char* SatMethodToString(SatMethod m);

/// \brief Outcome of a satisfiability query.
struct SatResult {
  SatVerdict verdict = SatVerdict::kUnknown;
  SatMethod method = SatMethod::kNone;
  /// Witness model; set iff kSat.
  std::optional<DataTree> witness;
  /// Witness predicate interpretation (for EMSO inputs).
  std::optional<PredInterpretation> witness_interp;
  /// Search effort, for benchmarks.
  uint64_t steps = 0;
  /// When the verdict is kUnknown because some budget died (deadline, step
  /// cap, node cap, ...): which one, where, and at what counter value.
  /// Unset for definite verdicts and for pre-governor unknowns.
  std::optional<StopReason> stop_reason;
  /// Per-phase profile of the solve (self wall time, effort counters, stop
  /// attribution — see common/metrics.h). Set whenever the query ran under
  /// an ExecutionContext (`SolverOptions::exec`); when a budget died,
  /// `profile->stop` mirrors `stop_reason` so the dominant phase and the
  /// stopping module can be cross-checked.
  std::optional<PhaseProfile> profile;
};

/// \brief Budgets for the solver.
struct SolverOptions {
  /// Largest model size enumerated on the SAT side.
  size_t max_model_nodes = 6;
  /// Enumeration step budget.
  uint64_t max_steps = 20000000;
  /// Number of distinct labels to enumerate (inferred from the formula when
  /// 0; a satisfiable FO² formula has a model using only mentioned labels
  /// plus one fresh "other" label).
  size_t num_labels = 0;
  /// Optional structural filter: only trees accepted by this automaton
  /// (over the base label alphabet) are considered models. This is how
  /// schemas (regular tree languages) relativize satisfiability, cf.
  /// Section IV. Not owned.
  const TreeAutomaton* structural_filter = nullptr;
  /// Run the counting abstraction on DNF inputs before searching.
  bool use_counting_abstraction = true;
  CountingOptions counting;
  BoundedSolveOptions puzzle_search;
  /// Optional execution governor. Its wall-clock deadline degrades the
  /// verdict to kUnknown (with SatResult::stop_reason saying so); its
  /// cancellation token aborts with StatusCode::kCancelled. Propagated into
  /// `counting` and `puzzle_search` unless those set their own. Not owned;
  /// must outlive the call.
  const ExecutionContext* exec = nullptr;
};

/// \brief Bounded-complete FO²(∼,<,+1) satisfiability by model enumeration.
///
/// Enumerates every data tree with at most `max_model_nodes` nodes over the
/// label alphabet (shapes × labelings × set partitions for data values) and
/// model-checks \p sentence. Sound in both directions within the bound;
/// kUnknown when the bound or budget is exhausted without a model.
/// Handles full FO²(∼,<,+1) (including the order axes of Section VI).
[[nodiscard]] Result<SatResult> CheckFo2SatisfiabilityBounded(const Formula& sentence,
                                                const SolverOptions& options = {});

/// \brief Satisfiability of a data normal form (i.e. of EMSO²(∼,+1)):
/// counting abstraction for UNSAT, puzzle bounded search for SAT.
[[nodiscard]] Result<SatResult> CheckDnfSatisfiability(const DataNormalForm& dnf,
                                         const SolverOptions& options = {});

/// Converts a solver facade result into the flight recorder's
/// facade-agnostic outcome shape (verdict/method strings, StopReason,
/// profile). Shared by every facade that reports through the frontend.
SolveOutcome SolveOutcomeFromSat(const Result<SatResult>& result);

/// A cached SatResult facade's extra result, e.g. its witness: `write`
/// serializes it into the cache entry's payload, `read` rebuilds it on a hit
/// and is false on a malformed payload. Unset: no payload is stored, and
/// only an empty one is accepted.
struct SatPayloadCodec {
  std::function<std::string(const SatResult&)> write;
  std::function<bool(const std::string&, SatResult*)> read;
};

/// RunFacade codec of a SatResult facade with its own verdict-cache entries
/// (verdict, method, steps, profile and \p payload). A cold solve is settled
/// before it is cached: a dead budget (ResourceExhausted) becomes an honest
/// kUnknown labelled \p degraded_method and carrying the StopReason, and an
/// OK result takes the governor's profile. Cancellation and errors
/// propagate.
FacadeCodec<SatResult> CachedSatCodec(SatMethod degraded_method,
                                      const char* cache_module,
                                      SatPayloadCodec payload = {});

}  // namespace fo2dt

