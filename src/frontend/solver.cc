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

}  // namespace

FacadeCodec<SatResult> CachedSatCodec(SatMethod degraded_method,
                                      const char* cache_module,
                                      SatPayloadCodec payload) {
  FacadeCodec<SatResult> codec{.outcome = SolveOutcomeFromSat};
  codec.settle = [degraded_method](Result<SatResult> result,
                                   const ExecutionContext* exec)
      -> Result<SatResult> {
    SatResult settled;
    if (result.ok()) {
      settled = std::move(*result);
    } else if (result.status().IsResourceExhausted()) {
      // Graceful degradation: a budget exhaustion anywhere in the pipeline
      // (deadline, step/node/cut caps) becomes an honest kUnknown verdict
      // carrying the structured StopReason.
      settled.method = degraded_method;
      if (const StopReason* reason = result.status().stop_reason()) {
        settled.stop_reason = *reason;
      }
    } else {
      return result.status();  // cancellation and genuine errors propagate
    }
    // The solve's phase scopes have all closed by now, so the profile is
    // complete.
    if (exec != nullptr) {
      PhaseProfile profile = SnapshotPhaseProfile(*exec);
      if (settled.stop_reason.has_value()) profile.stop = *settled.stop_reason;
      settled.profile = std::move(profile);
    }
    return settled;
  };
  codec.encode = [write = payload.write](const SatResult& result) {
    SolveCacheEntry entry;
    entry.verdict = SatVerdictToString(result.verdict);
    entry.method = SatMethodToString(result.method);
    entry.steps = result.steps;
    entry.profile = result.profile;
    if (write) entry.payload = write(result);
    return entry;
  };
  codec.decode = [read = payload.read](const SolveCacheEntry& entry,
                                       SatResult* out) {
    if (!SatVerdictFromString(entry.verdict, &out->verdict)) return false;
    if (!SatMethodFromString(entry.method, &out->method)) return false;
    out->steps = entry.steps;
    out->profile = entry.profile;  // the cold solve's profile
    return read ? read(entry.payload, out) : entry.payload.empty();
  };
  codec.cache_module = cache_module;
  return codec;
}

namespace {

constexpr const char* kFrontendModule = names::kModFrontendSolver;
constexpr const char* kEnumModule = names::kModFrontendEnumerate;

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
  // Serialize in the canonical replay alphabet: the formula mentions dense
  // symbol ids, so an alphabet of matching size reproduces them exactly.
  const size_t alpha =
      std::max(num_labels, static_cast<size_t>(sentence.NumSymbolsSpanned()));
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
  auto body = [&] {
    std::string filter_text = options.structural_filter != nullptr
                                  ? TreeAutomatonToText(*options.structural_filter)
                                  : std::string();
    SolveCache& cache = SolveCache::Instance();
    if (!cache.enabled()) return build_body(filter_text);
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
    std::optional<std::string> memo =
        cache.LookupSub(body_key, options.exec, kFrontendModule);
    if (memo.has_value()) return std::move(*memo);
    std::string built = build_body(filter_text);
    cache.InsertSub(body_key, built, options.exec, kFrontendModule);
    return built;
  };
  // The witness round-trips as replay-alphabet text.
  SatPayloadCodec witness;
  witness.write = [alpha](const SatResult& result) {
    if (!result.witness.has_value()) return std::string();
    return DataTreeToText(*result.witness, MakeReplayAlphabet(alpha));
  };
  witness.read = [alpha](const std::string& payload, SatResult* out) {
    if (payload.empty()) return true;
    Alphabet replay_alphabet = MakeReplayAlphabet(alpha);
    Result<DataTree> tree = ParseDataTree(payload, &replay_alphabet);
    if (!tree.ok()) return false;
    out->witness = std::move(*tree);
    return true;
  };
  return RunFacade<SatResult>(
      {.facade = names::kFacadeFrontendSat,
       .exec = options.exec,
       .body = body,
       .budgets = {{"max_model_nodes", options.max_model_nodes},
                   {"max_steps", options.max_steps}}},
      CachedSatCodec(SatMethod::kBoundedModelSearch, kFrontendModule,
                     std::move(witness)),
      [&]() -> Result<SatResult> {
        ScopedPhase phase(Phase::kBoundedSearch, options.exec);
        ModelEnumerator enumerator(sentence, num_labels, options);
        Result<SatResult> r = enumerator.Run();
        if (r.ok()) phase.AddEffort(r->steps);
        return r;
      });
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
bool DnfWitnessFromPayload(const std::string& payload,
                           const DataNormalForm& dnf, SatResult* out) {
  if (out->verdict != SatVerdict::kSat) return payload.empty();
  const size_t sep = payload.find('\x1e');
  if (sep == std::string::npos) return false;
  Alphabet replay_alphabet = MakeReplayAlphabet(dnf.ext.num_labels);
  Result<DataTree> tree =
      ParseDataTree(payload.substr(0, sep), &replay_alphabet);
  if (!tree.ok()) return false;
  PredInterpretation interp =
      PredInterpretation::Empty(dnf.ext.num_preds, tree->size());
  std::vector<std::string> rows;
  for (const std::string& row : SplitString(payload.substr(sep + 1), '\n')) {
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
  // Canonical serialization (sorted blocks/automata/simples), so the input
  // hash — and the verdict-cache key derived from it — identifies the DNF up
  // to commutation. No replay parser exists for DNF bodies, so this facade
  // never captures a bundle.
  auto body = [&] {
    std::string b = SerializeDnf(dnf);
    b += StringFormat("budget max_model_nodes %llu\n",
                      static_cast<unsigned long long>(options.max_model_nodes));
    b += StringFormat("budget max_steps %llu\n",
                      static_cast<unsigned long long>(options.max_steps));
    b += StringFormat("flag use_counting_abstraction %d\n",
                      options.use_counting_abstraction ? 1 : 0);
    return b;
  };
  SatPayloadCodec witness;
  witness.write = [&dnf](const SatResult& result) {
    return DnfWitnessPayload(result, dnf);
  };
  witness.read = [&dnf](const std::string& payload, SatResult* out) {
    return DnfWitnessFromPayload(payload, dnf, out);
  };
  return RunFacade<SatResult>(
      {.facade = names::kFacadeFrontendDnfSat,
       .exec = options.exec,
       .body = body,
       .budgets = {{"max_model_nodes", options.max_model_nodes},
                   {"max_steps", options.max_steps}},
       .replayable = false},
      CachedSatCodec(SatMethod::kPuzzlePipeline, kFrontendModule,
                     std::move(witness)),
      [&] {
        // Facade glue only: each sub-pipeline (puzzle construction,
        // counting, LCTA, ILP, bounded search) runs its own scope, so
        // kFrontend self time is the per-block orchestration cost.
        ScopedPhase phase(Phase::kFrontend, options.exec);
        return CheckDnfSatisfiabilityImpl(dnf, options);
      });
}

}  // namespace fo2dt
