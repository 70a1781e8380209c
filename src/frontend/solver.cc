#include "frontend/solver.h"

#include <algorithm>

#include "automata/automaton_io.h"
#include "common/flight_recorder.h"
#include "common/hash.h"
#include "common/intern.h"
#include "common/metrics.h"
#include "common/registry_names.h"
#include "common/solve_cache.h"
#include "common/strings.h"
#include "common/trace.h"
#include "datatree/text_io.h"
#include "lcta/lcta.h"
#include "logic/intern.h"
#include "puzzle/puzzle.h"

namespace fo2dt {

const char* SatVerdictToString(SatVerdict v) {
  switch (v) {
    case SatVerdict::kSat:
      return "SAT";
    case SatVerdict::kUnsat:
      return "UNSAT";
    case SatVerdict::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

const char* SatMethodToString(SatMethod m) {
  switch (m) {
    case SatMethod::kBoundedModelSearch:
      return "bounded_model_search";
    case SatMethod::kCountingAbstraction:
      return "counting_abstraction";
    case SatMethod::kPuzzlePipeline:
      return "puzzle_pipeline";
    case SatMethod::kNone:
      return "";
  }
  return "";
}

SolveOutcome SolveOutcomeFromSat(const Result<SatResult>& result) {
  SolveOutcome out;
  if (!result.ok()) {
    out.verdict =
        std::string("ERROR:") + StatusCodeToString(result.status().code());
    if (const StopReason* reason = result.status().stop_reason()) {
      out.stop = *reason;
    }
    return out;
  }
  out.verdict = SatVerdictToString(result->verdict);
  out.method = SatMethodToString(result->method);
  out.steps = result->steps;
  if (result->stop_reason.has_value()) out.stop = *result->stop_reason;
  out.profile = result->profile;
  return out;
}

namespace {

constexpr const char* kFrontendModule = names::kModFrontendSolver;
constexpr const char* kEnumModule = names::kModFrontendEnumerate;

/// Graceful degradation at the facade: a budget exhaustion anywhere in the
/// pipeline (deadline, step/node/cut caps) becomes an honest kUnknown verdict
/// carrying the structured StopReason. Caller cancellation and genuine
/// errors still propagate as non-OK statuses.
Result<SatResult> DegradeToUnknown(Result<SatResult> result, SatMethod method) {
  if (result.ok()) return result;
  const Status& st = result.status();
  if (!st.IsResourceExhausted()) return result;
  SatResult out;
  out.verdict = SatVerdict::kUnknown;
  out.method = method;
  if (const StopReason* reason = st.stop_reason()) {
    out.stop_reason = *reason;
  }
  return out;
}

/// Attaches the governed solve's per-phase profile to the outgoing result.
/// Must run after every ScopedPhaseTimer of the solve has closed, so the
/// facade timers live in a narrower scope than the call to this.
Result<SatResult> AttachProfile(Result<SatResult> result,
                                const ExecutionContext* exec) {
  if (!result.ok() || exec == nullptr) return result;
  PhaseProfile profile = SnapshotPhaseProfile(*exec);
  if (result->stop_reason.has_value()) profile.stop = *result->stop_reason;
  result->profile = std::move(profile);
  return result;
}

bool SatVerdictFromString(const std::string& s, SatVerdict* out) {
  if (s == "SAT") *out = SatVerdict::kSat;
  else if (s == "UNSAT") *out = SatVerdict::kUnsat;
  else return false;  // UNKNOWN is never cached, so never reconstructed
  return true;
}

bool SatMethodFromString(const std::string& s, SatMethod* out) {
  if (s == "bounded_model_search") *out = SatMethod::kBoundedModelSearch;
  else if (s == "counting_abstraction") *out = SatMethod::kCountingAbstraction;
  else if (s == "puzzle_pipeline") *out = SatMethod::kPuzzlePipeline;
  else if (s.empty()) *out = SatMethod::kNone;
  else return false;
  return true;
}

/// Rebuilds a SatResult from a cache entry. Returns false when the entry is
/// malformed (e.g. a truncated persisted payload) — the caller then falls
/// through to a cold solve instead of failing.
bool SatResultFromCacheEntry(const SolveCacheEntry& entry, size_t alpha,
                             SatResult* out) {
  if (!SatVerdictFromString(entry.verdict, &out->verdict)) return false;
  if (!SatMethodFromString(entry.method, &out->method)) return false;
  out->steps = entry.steps;
  out->profile = entry.profile;  // the cold solve's profile
  if (!entry.payload.empty()) {
    Alphabet replay_alphabet = MakeReplayAlphabet(alpha);
    Result<DataTree> tree = ParseDataTree(entry.payload, &replay_alphabet);
    if (!tree.ok()) return false;
    out->witness = std::move(*tree);
  }
  return true;
}

/// Advances a restricted growth string (canonical set-partition encoding:
/// rgs[0] == 0 and rgs[i] <= max(rgs[0..i-1]) + 1). Returns false after the
/// last one.
bool NextRestrictedGrowthString(std::vector<size_t>* rgs) {
  const size_t n = rgs->size();
  for (size_t i = n; i-- > 1;) {
    size_t max_prefix = 0;
    for (size_t j = 0; j < i; ++j) {
      max_prefix = std::max(max_prefix, (*rgs)[j]);
    }
    if ((*rgs)[i] <= max_prefix) {
      ++(*rgs)[i];
      for (size_t j = i + 1; j < n; ++j) (*rgs)[j] = 0;
      return true;
    }
  }
  return false;
}

/// Enumerates data values as restricted-growth strings over node positions
/// combined with labelings, checking the sentence on each candidate. The
/// sentence is compiled once; its evaluator is bound to each shape, each
/// labeling and each data partition as they change.
///
/// Step accounting (stored by the cache, the query log and replay): one step
/// per candidate evaluated, and one step per labeling the structural filter
/// rejects.
class ModelEnumerator {
 public:
  ModelEnumerator(const Formula& sentence, size_t num_labels,
                  const SolverOptions& options)
      : evaluator_(sentence),
        program_ok_(evaluator_.Validate(nullptr)),
        num_labels_(num_labels),
        options_(options),
        checkpoint_(options.exec, /*token=*/nullptr, kEnumModule) {}

  Result<SatResult> Run() {
    SatResult out;
    out.method = SatMethod::kBoundedModelSearch;
    for (size_t n = 1; n <= options_.max_model_nodes; ++n) {
      for (const auto& parents : EnumerateTreeShapes(n)) {
        DataTree skeleton;
        FO2DT_RETURN_NOT_OK(skeleton.CreateRoot(0, 0).status());
        for (size_t v = 1; v < n; ++v) {
          FO2DT_RETURN_NOT_OK(skeleton.AppendChild(parents[v], 0, 0).status());
        }
        evaluator_.BindShape(skeleton);
        FO2DT_ASSIGN_OR_RETURN(bool found, SearchShape(&skeleton, n, &out));
        if (found) {
          out.verdict = SatVerdict::kSat;
          return out;
        }
        if (budget_hit_) {
          out.verdict = SatVerdict::kUnknown;
          out.steps = steps_;
          out.stop_reason = StopReason{StopKind::kStepBudget, kEnumModule,
                                       steps_, options_.max_steps};
          return out;
        }
      }
    }
    // The bound was exhausted: no model up to max_model_nodes. The paper's
    // small-model property would turn this into UNSAT only past the Table I
    // bound, so the honest verdict here is kUnknown.
    out.verdict = SatVerdict::kUnknown;
    out.steps = steps_;
    return out;
  }

 private:
  Result<bool> SearchShape(DataTree* t, size_t n, SatResult* out) {
    // Odometer over labelings; per labeling, odometer over data partitions
    // (restricted growth strings).
    std::vector<Symbol> labels(n, 0);
    for (;;) {
      for (NodeId v = 0; v < n; ++v) t->set_label(v, labels[v]);
      // The filter ignores data; check once per labeling. A rejected
      // labeling costs one step.
      const bool accepted = options_.structural_filter == nullptr ||
                            options_.structural_filter->Accepts(*t);
      if (accepted) evaluator_.BindLabels(*t);
      std::vector<size_t> rgs(n, 0);  // rgs[0] == 0 always
      for (;;) {
        if (++steps_ > options_.max_steps) {
          budget_hit_ = true;
          return false;
        }
        FO2DT_RETURN_NOT_OK(checkpoint_.Tick());
        if (!accepted) break;
        for (NodeId v = 0; v < n; ++v) {
          t->set_data(v, static_cast<DataValue>(rgs[v]));
        }
        if (!program_ok_.ok()) return program_ok_;
        evaluator_.BindData(*t);
        if (evaluator_.RunSentence()) {
          out->witness = *t;
          out->steps = steps_;
          return true;
        }
        if (!NextRestrictedGrowthString(&rgs)) break;
      }
      size_t i = 0;
      while (i < n) {
        if (++labels[i] < num_labels_) break;
        labels[i] = 0;
        ++i;
      }
      if (i == n) return false;
    }
  }

  Evaluator evaluator_;
  const Status program_ok_;  // returned at the first candidate evaluated
  size_t num_labels_;
  const SolverOptions& options_;
  ExecCheckpoint checkpoint_;
  uint64_t steps_ = 0;
  bool budget_hit_ = false;
};

}  // namespace

Result<SatResult> CheckFo2SatisfiabilityBounded(const Formula& sentence,
                                                const SolverOptions& options) {
  if (!sentence.IsSentence()) {
    return Status::InvalidArgument("satisfiability requires a sentence");
  }
  if (sentence.NumPredsSpanned() > 0) {
    return Status::InvalidArgument(
        "free unary predicates are not allowed; quantify them via EMSO "
        "(CheckDnfSatisfiability) or substitute them away");
  }
  // A satisfiable FO² sentence has a model over the mentioned labels plus one
  // extra "anonymous" label (any unmentioned label behaves identically).
  size_t num_labels = options.num_labels;
  if (num_labels == 0) {
    num_labels = static_cast<size_t>(sentence.NumSymbolsSpanned()) + 1;
  }
  if (options.structural_filter != nullptr) {
    // Models must use the schema's alphabet.
    num_labels = options.structural_filter->num_symbols();
    if (sentence.NumSymbolsSpanned() > num_labels) {
      return Status::InvalidArgument(
          "formula mentions labels outside the schema alphabet");
    }
  }
  SolveRecorder rec(names::kFacadeFrontendSat, options.exec);
  SolveCache& cache = SolveCache::Instance();
  const bool caching = cache.enabled();
  // Serialize in the canonical replay alphabet: the formula mentions dense
  // symbol ids, so an alphabet of matching size reproduces them exactly.
  const size_t alpha =
      std::max(num_labels, static_cast<size_t>(sentence.NumSymbolsSpanned()));
  std::string body;
  if (rec.active() || caching) {
    auto build_body = [&](const std::string& filter_text) {
      Alphabet replay_alphabet = MakeReplayAlphabet(alpha);
      std::string b = StringFormat(
          "labels %llu\n", static_cast<unsigned long long>(num_labels));
      b += StringFormat(
          "budget max_model_nodes %llu\n",
          static_cast<unsigned long long>(options.max_model_nodes));
      b += StringFormat("budget max_steps %llu\n",
                        static_cast<unsigned long long>(options.max_steps));
      b += StringFormat("flag use_counting_abstraction %d\n",
                        options.use_counting_abstraction ? 1 : 0);
      if (!filter_text.empty()) b += "filter\n" + filter_text;
      b += StringFormat("formula %s\n",
                        sentence.ToString(replay_alphabet).c_str());
      return b;
    };
    std::string filter_text = options.structural_filter != nullptr
                                  ? TreeAutomatonToText(*options.structural_filter)
                                  : std::string();
    if (caching) {
      // Hash-consed fast path: intern the sentence and the filter text, then
      // memoize the serialized body under the exact (handle, budget) tuple.
      // Queries that canonicalize to the same term (e.g. reordered ∧/∨
      // operands) share one body — and therefore one verdict-cache entry.
      const InternHandle formula_id = InternFormula(sentence);
      const InternHandle filter_id =
          filter_text.empty()
              ? kInvalidInternHandle
              : SharedInternTable::Instance().InternString(filter_text);
      const std::string body_key = StringFormat(
          "frontend.sat.body:%u:%u:%llu:%llu:%llu:%llu:%d", formula_id,
          filter_id, static_cast<unsigned long long>(alpha),
          static_cast<unsigned long long>(num_labels),
          static_cast<unsigned long long>(options.max_model_nodes),
          static_cast<unsigned long long>(options.max_steps),
          options.use_counting_abstraction ? 1 : 0);
      std::optional<std::string> memo = cache.LookupSub(
          body_key, names::kMetricCacheSubHits, names::kMetricCacheSubMisses);
      if (memo.has_value()) {
        body = std::move(*memo);
      } else {
        body = build_body(filter_text);
        cache.InsertSub(body_key, body, options.exec, kFrontendModule);
      }
    } else {
      body = build_body(filter_text);
    }
    if (rec.active()) {
      rec.SetInput(body);
      rec.SetReplayInput(body);
      rec.AddBudget("max_model_nodes", options.max_model_nodes);
      rec.AddBudget("max_steps", options.max_steps);
    }
  }
  std::string cache_key;
  if (caching) {
    cache_key = SolveCacheKey(names::kFacadeFrontendSat, body);
    std::optional<SolveCacheEntry> hit = cache.Lookup(
        cache_key, names::kMetricCacheSolveHits, names::kMetricCacheSolveMisses);
    if (hit.has_value()) {
      SatResult served;
      if (SatResultFromCacheEntry(*hit, alpha, &served)) {
        Result<SatResult> result = std::move(served);
        rec.Finish(SolveOutcomeFromSat(result));
        return result;
      }
    }
  }
  Result<SatResult> run = [&]() -> Result<SatResult> {
    FO2DT_TRACE_SPAN(names::kModFrontendEnumerate);
    ScopedPhaseTimer phase_timer(Phase::kBoundedSearch, options.exec);
    ScopedPhaseMemory phase_memory(Phase::kBoundedSearch, options.exec);
    ModelEnumerator enumerator(sentence, num_labels, options);
    Result<SatResult> r = enumerator.Run();
    if (r.ok()) phase_timer.AddEffort(r->steps);
    return r;
  }();
  Result<SatResult> result = AttachProfile(
      DegradeToUnknown(std::move(run), SatMethod::kBoundedModelSearch),
      options.exec);
  if (caching && result.ok()) {
    // Insert() applies the kUnknown-never-cached rule, so degraded solves
    // are retried with whatever budgets the next caller holds.
    SolveCacheEntry entry;
    entry.verdict = SatVerdictToString(result->verdict);
    entry.method = SatMethodToString(result->method);
    entry.steps = result->steps;
    entry.profile = result->profile;
    if (result->witness.has_value()) {
      Alphabet replay_alphabet = MakeReplayAlphabet(alpha);
      entry.payload = DataTreeToText(*result->witness, replay_alphabet);
    }
    cache.Insert(cache_key, entry, options.exec, kFrontendModule);
  }
  rec.Finish(SolveOutcomeFromSat(result));
  return result;
}

namespace {

/// Canonical text of a DataNormalForm. Conjunction and disjunction commute,
/// so automaton texts (already transition-sorted by TreeAutomatonToText),
/// simple-formula lines, and whole block texts are each sorted — two DNFs
/// equal up to commutation serialize identically and share one verdict-cache
/// entry. Used as the dnf_sat facade's input hash and cache body; there is
/// no replay parser for it, so the facade never captures a bundle.
std::string SerializeDnf(const DataNormalForm& dnf) {
  std::string out = StringFormat(
      "ext labels %llu preds %llu\n",
      static_cast<unsigned long long>(dnf.ext.num_labels),
      static_cast<unsigned long long>(dnf.ext.num_preds));
  for (const std::string& name : dnf.pred_names) out += "pred " + name + "\n";
  std::vector<std::string> blocks;
  blocks.reserve(dnf.blocks.size());
  for (const DnfBlock& block : dnf.blocks) {
    std::string b = "block\n";
    std::vector<std::string> lines;
    lines.reserve(block.regular.size() + block.simples.size());
    for (const TreeAutomaton& automaton : block.regular) {
      lines.push_back("automaton\n" + TreeAutomatonToText(automaton));
    }
    for (const SimpleFormula& simple : block.simples) {
      std::string line = StringFormat("simple %d %u ",
                                      static_cast<int>(simple.kind),
                                      static_cast<unsigned>(simple.profile_mask));
      for (char c : simple.alpha) line += c != 0 ? '1' : '0';
      line += ' ';
      for (char c : simple.beta) line += c != 0 ? '1' : '0';
      line += '\n';
      lines.push_back(std::move(line));
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) b += line;
    blocks.push_back(std::move(b));
  }
  std::sort(blocks.begin(), blocks.end());
  for (const std::string& b : blocks) out += b;
  return out;
}

/// SAT payload for the dnf_sat facade: the witness tree (replay alphabet over
/// the DNF's base labels), a 0x1e separator, then one 0/1 membership row per
/// predicate. UNSAT entries carry no payload.
std::string DnfWitnessPayload(const SatResult& result,
                              const DataNormalForm& dnf) {
  if (!result.witness.has_value()) return "";
  Alphabet replay_alphabet = MakeReplayAlphabet(dnf.ext.num_labels);
  std::string payload = DataTreeToText(*result.witness, replay_alphabet);
  payload += '\x1e';
  if (result.witness_interp.has_value()) {
    for (const std::vector<char>& row : result.witness_interp->membership) {
      for (char c : row) payload += c != 0 ? '1' : '0';
      payload += '\n';
    }
  }
  return payload;
}

/// Inverse of DnfWitnessPayload; false on any malformation (cold fallthrough).
bool DnfResultFromCacheEntry(const SolveCacheEntry& entry,
                             const DataNormalForm& dnf, SatResult* out) {
  if (!SatVerdictFromString(entry.verdict, &out->verdict)) return false;
  if (!SatMethodFromString(entry.method, &out->method)) return false;
  out->steps = entry.steps;
  out->profile = entry.profile;  // the cold solve's profile
  if (out->verdict != SatVerdict::kSat) return entry.payload.empty();
  const size_t sep = entry.payload.find('\x1e');
  if (sep == std::string::npos) return false;
  Alphabet replay_alphabet = MakeReplayAlphabet(dnf.ext.num_labels);
  Result<DataTree> tree =
      ParseDataTree(entry.payload.substr(0, sep), &replay_alphabet);
  if (!tree.ok()) return false;
  PredInterpretation interp =
      PredInterpretation::Empty(dnf.ext.num_preds, tree->size());
  std::vector<std::string> rows;
  for (const std::string& row :
       SplitString(entry.payload.substr(sep + 1), '\n')) {
    if (!row.empty()) rows.push_back(row);
  }
  if (rows.size() != static_cast<size_t>(dnf.ext.num_preds)) return false;
  for (size_t p = 0; p < rows.size(); ++p) {
    if (rows[p].size() != tree->size()) return false;
    for (size_t v = 0; v < rows[p].size(); ++v) {
      if (rows[p][v] != '0' && rows[p][v] != '1') return false;
      interp.membership[p][v] = rows[p][v] == '1' ? 1 : 0;
    }
  }
  out->witness = std::move(*tree);
  out->witness_interp = std::move(interp);
  return true;
}

Result<SatResult> CheckDnfSatisfiabilityImpl(const DataNormalForm& dnf,
                                             const SolverOptions& options) {
  // Propagate the governor into the sub-pipelines unless the caller already
  // installed a more specific one there.
  CountingOptions counting = options.counting;
  if (counting.lcta.exec == nullptr) counting.lcta.exec = options.exec;
  if (!counting.lcta.cancel_token.CanBeCancelled() && options.exec != nullptr) {
    counting.lcta.cancel_token = options.exec->token();
  }
  BoundedSolveOptions search = options.puzzle_search;
  if (search.exec == nullptr) search.exec = options.exec;
  search.max_nodes = std::max(search.max_nodes, options.max_model_nodes);

  SatResult out;
  bool all_unsat = true;
  for (const DnfBlock& block : dnf.blocks) {
    if (options.exec != nullptr) {
      FO2DT_RETURN_NOT_OK(options.exec->Check(kFrontendModule));
    }
    FO2DT_ASSIGN_OR_RETURN(Puzzle puzzle, PuzzleFromBlock(block, dnf.ext));
    if (options.use_counting_abstraction) {
      FO2DT_ASSIGN_OR_RETURN(CountingResult counted,
                             CheckPuzzleUnsatByCounting(puzzle, counting));
      out.steps += counted.ilp_nodes;
      if (counted.verdict == CountingVerdict::kUnsat) {
        continue;  // this block is dead; try the next disjunct
      }
    }
    FO2DT_ASSIGN_OR_RETURN(BoundedSolveResult solved,
                           SolvePuzzleBounded(puzzle, search));
    out.steps += solved.steps;
    if (solved.verdict == BoundedVerdict::kSat) {
      out.verdict = SatVerdict::kSat;
      out.method = SatMethod::kPuzzlePipeline;
      out.witness = std::move(solved.witness);
      out.witness_interp = std::move(solved.interp);
      return out;
    }
    if (solved.verdict == BoundedVerdict::kBudgetExhausted &&
        !out.stop_reason.has_value()) {
      out.stop_reason = solved.stop_reason;
    }
    all_unsat = false;  // bounded search is inconclusive for UNSAT overall
  }
  if (all_unsat) {
    out.verdict = SatVerdict::kUnsat;
    out.method = SatMethod::kCountingAbstraction;
    return out;
  }
  out.verdict = SatVerdict::kUnknown;
  out.method = SatMethod::kPuzzlePipeline;
  return out;
}

}  // namespace

Result<SatResult> CheckDnfSatisfiability(const DataNormalForm& dnf,
                                         const SolverOptions& options) {
  SolveRecorder rec(names::kFacadeFrontendDnfSat, options.exec);
  SolveCache& cache = SolveCache::Instance();
  const bool caching = cache.enabled();
  std::string body;
  if (rec.active() || caching) {
    // Canonical serialization (sorted blocks/automata/simples), so the input
    // hash — and the verdict-cache key derived from it — identifies the DNF
    // up to commutation. No replay parser exists for DNF bodies, so this
    // facade still never captures a bundle.
    body = SerializeDnf(dnf);
    body += StringFormat("budget max_model_nodes %llu\n",
                         static_cast<unsigned long long>(options.max_model_nodes));
    body += StringFormat("budget max_steps %llu\n",
                         static_cast<unsigned long long>(options.max_steps));
    body += StringFormat("flag use_counting_abstraction %d\n",
                         options.use_counting_abstraction ? 1 : 0);
    if (rec.active()) {
      rec.SetInput(body);
      rec.AddBudget("max_model_nodes", options.max_model_nodes);
      rec.AddBudget("max_steps", options.max_steps);
    }
  }
  std::string cache_key;
  if (caching) {
    cache_key = SolveCacheKey(names::kFacadeFrontendDnfSat, body);
    std::optional<SolveCacheEntry> hit = cache.Lookup(
        cache_key, names::kMetricCacheSolveHits, names::kMetricCacheSolveMisses);
    if (hit.has_value()) {
      SatResult served;
      if (DnfResultFromCacheEntry(*hit, dnf, &served)) {
        Result<SatResult> result = std::move(served);
        rec.Finish(SolveOutcomeFromSat(result));
        return result;
      }
    }
  }
  Result<SatResult> run = [&] {
    FO2DT_TRACE_SPAN(names::kModFrontendSolver);
    // Facade glue only: each sub-pipeline (puzzle construction, counting,
    // LCTA, ILP, bounded search) runs its own timer, so kFrontend self time
    // is the per-block orchestration cost.
    ScopedPhaseTimer phase_timer(Phase::kFrontend, options.exec);
    ScopedPhaseMemory phase_memory(Phase::kFrontend, options.exec);
    return CheckDnfSatisfiabilityImpl(dnf, options);
  }();
  Result<SatResult> result = AttachProfile(
      DegradeToUnknown(std::move(run), SatMethod::kPuzzlePipeline),
      options.exec);
  if (caching && result.ok()) {
    // Insert() applies the kUnknown-never-cached rule, so degraded solves
    // are retried with whatever budgets the next caller holds.
    SolveCacheEntry entry;
    entry.verdict = SatVerdictToString(result->verdict);
    entry.method = SatMethodToString(result->method);
    entry.steps = result->steps;
    entry.profile = result->profile;
    entry.payload = DnfWitnessPayload(*result, dnf);
    cache.Insert(cache_key, entry, options.exec, kFrontendModule);
  }
  rec.Finish(SolveOutcomeFromSat(result));
  return result;
}

}  // namespace fo2dt
