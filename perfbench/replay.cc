// Traced in-process replay: runs generated request lines on one thread
// through the same public calls a fo2dtd worker makes (ParseRequestLine,
// AdmissionController, ExecuteFacadeBody, SolveRecorder,
// ServerResponse::ToJsonLine), timing each call as a span, and takes
// before/after deltas of the counters the library already exports
// (PhaseStats, SimplexStats, ArithStats, SolveCache::stats()).
//
// Three passes over the same requests, each from an emptied solve cache:
// two traced (their counts must agree exactly) and one untraced (the
// tracing overhead is the ratio of their wall times). Prints one JSON
// object; perfbench/run.py turns it into the per-layer metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "arith/arith_stats.h"
#include "common/execution_context.h"
#include "common/flight_recorder.h"
#include "common/metrics.h"
#include "common/query_log.h"
#include "common/registry_names.h"
#include "common/solve_cache.h"
#include "common/strings.h"
#include "perf.h"
#include "server/admission.h"
#include "server/facade_exec.h"
#include "server/protocol.h"
#include "solverlp/simplex.h"

namespace fo2dt::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  size_t request = 0;
};

/// Spans kept in memory; Begin/End are no-ops on an untraced pass.
class Tracer {
 public:
  Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

  int64_t Begin(std::string name, size_t request) {
    if (!on_) return -1;
    Span s;
    s.name = std::move(name);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_ns = Now();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int64_t>(spans_.size() - 1));
    return stack_.back();
  }

  void End(int64_t id) {
    if (!on_) return;
    spans_[static_cast<size_t>(id)].end_ns = Now();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

/// Times one call as a span.
template <typename Fn>
auto Traced(Tracer* tracer, std::string name, size_t request, Fn&& fn) {
  const int64_t id = tracer->Begin(std::move(name), request);
  struct Closer {
    Tracer* t;
    int64_t id;
    ~Closer() { t->End(id); }
  } closer{tracer, id};
  return fn();
}

/// The daemon's module name for a phase, e.g. kIlp -> "solverlp.ilp".
std::string PhaseMetricName(Phase p) {
  switch (p) {
    case Phase::kScott: return "logic.scott";
    case Phase::kDnf: return "logic.dnf";
    case Phase::kPuzzle: return "puzzle.puzzle";
    case Phase::kBoundedSearch: return "puzzle.bounded_search";
    case Phase::kLcta: return "lcta.lcta";
    case Phase::kIlp: return "solverlp.ilp";
    case Phase::kVata: return "vata.vata";
    case Phase::kConstraints: return "constraints.constraints";
    case Phase::kXpath: return "xpath.xpath";
    case Phase::kFrontend: return "frontend.frontend";
  }
  return "unknown";
}

struct PassResult {
  double wall_s = 0;
  PhaseCounters phases;
  SimplexCounters simplex;
  ArithCounters arith;
  SolveCache::Stats cache_before;
  SolveCache::Stats cache_after;
  std::vector<Span> spans;
  std::vector<std::string> mismatches;
};

bool MatchesExpectation(const SolveOutcome& outcome, const std::string& expect) {
  if (outcome.verdict != expect) return false;
  // UNKNOWN is expected only from an exhausted bound, never from a budget.
  return expect != "UNKNOWN" || !outcome.stop.stopped();
}

PassResult RunPass(const std::vector<RequestRecord>& requests, bool traced) {
  SolveCacheConfig cache_config;
  cache_config.enabled = true;
  SolveCache::Instance().Configure(cache_config);
  SolveCache::Instance().Clear();
  PhaseStats::Reset();
  SimplexStats::Reset();
  ArithStats::Reset();

  PassResult out;
  out.cache_before = SolveCache::Instance().stats();
  // The daemon's defaults (fo2dtd with no options).
  AdmissionController admission(AdmissionConfig{}, 2000);
  const Clock::time_point start = Clock::now();
  Tracer tracer(traced, start);
  for (const RequestRecord& r : requests) {
    const size_t i = r.index;
    const int64_t root = tracer.Begin("request", i);
    Result<ServerRequest> req = Traced(&tracer, "server.parse", i,
                                       [&] { return ParseRequestLine(r.line); });
    if (!req.ok()) {
      out.mismatches.push_back(StringFormat("%zu: parse: %s", i,
                                            req.status().ToString().c_str()));
      tracer.End(root);
      continue;
    }
    RequestedBudgets requested;
    requested.deadline_ms = req->deadline_ms;
    requested.max_bytes = req->max_bytes;
    requested.max_effort = req->max_effort;
    AdmitDecision decision = Traced(&tracer, "server.admit", i, [&] {
      return admission.Admit(req->tenant, requested);
    });
    Traced(&tracer, "server.dequeue", i, [&] { admission.OnDequeue(); });
    const char* facade = LookupFacadeName(req->facade);

    ExecutionContext exec;
    exec.SetDeadlineAfter(std::chrono::milliseconds(decision.deadline_ms));
    exec.set_request_id(req->request_id);
    if (decision.max_bytes != 0) exec.set_max_bytes(decision.max_bytes);
    SolveRecorder rec(facade, &exec);
    if (rec.active()) {
      std::string joined;
      for (const std::string& line : req->body) joined += line + "\n";
      rec.SetInput(joined);
      rec.SetReplayInput(joined);
      rec.AddBudget("deadline_ms", decision.deadline_ms);
    }
    FacadeBudgetCaps caps;
    caps.max_effort = decision.max_effort;
    Result<SolveOutcome> outcome =
        Traced(&tracer, std::string("server.exec.") + req->facade, i, [&] {
          return ExecuteFacadeBody(req->facade, req->body, &exec, caps);
        });
    Traced(&tracer, "server.finish", i, [&] { admission.OnFinish(req->tenant); });

    ServerResponse resp;
    resp.id = req->id;
    resp.request_id = req->request_id;
    resp.queue_depth = decision.queue_depth;
    if (outcome.ok()) {
      resp.status = "OK";
      resp.verdict = outcome->verdict;
      resp.method = outcome->method;
      resp.steps = outcome->steps;
      if (outcome->stop.stopped()) {
        resp.stop_kind = StopKindToString(outcome->stop.kind);
        resp.stop_module = outcome->stop.module;
      }
      if (!MatchesExpectation(*outcome, r.expect)) {
        out.mismatches.push_back(StringFormat(
            "%zu (%s): expected %s, got %s%s%s", i, r.family.c_str(),
            r.expect.c_str(), outcome->verdict.c_str(),
            resp.stop_kind.empty() ? "" : " stop=", resp.stop_kind.c_str()));
      }
      Traced(&tracer, "server.record", i, [&] { rec.Finish(*outcome); });
    } else {
      resp.status = "ERROR";
      resp.detail = outcome.status().message();
      out.mismatches.push_back(StringFormat("%zu (%s): error %s", i,
                                            r.family.c_str(),
                                            resp.detail.c_str()));
      SolveOutcome failed;
      failed.verdict = "ERROR:" + std::string(StatusCodeToString(
                                      outcome.status().code()));
      Traced(&tracer, "server.record", i, [&] { rec.Finish(std::move(failed)); });
    }
    std::string wire = Traced(&tracer, "server.respond", i,
                              [&] { return resp.ToJsonLine(); });
    if (wire.empty()) out.mismatches.push_back(StringFormat("%zu: empty response", i));
    tracer.End(root);
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  out.phases = PhaseStats::Aggregate();
  out.simplex = SimplexStats::Aggregate();
  out.arith = ArithStats::Aggregate();
  out.cache_after = SolveCache::Instance().stats();
  out.spans = tracer.spans();
  return out;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

/// The counts that must repeat exactly between the two traced passes.
std::map<std::string, uint64_t> DeterminismCounts(const PassResult& p) {
  const uint64_t hits = p.cache_after.solve_hits - p.cache_before.solve_hits;
  const uint64_t misses = p.cache_after.solve_misses - p.cache_before.solve_misses;
  return {
      {"solverlp.pivots", p.simplex.pivots},
      {"solverlp.tableau_builds", p.simplex.tableau_builds},
      {"solverlp.ilp_effort", p.phases.phases[static_cast<size_t>(Phase::kIlp)].effort},
      {"puzzle.bounded_search_effort",
       p.phases.phases[static_cast<size_t>(Phase::kBoundedSearch)].effort},
      {"common.cache.solve_hits", hits},
      {"common.cache.solve_lookups", hits + misses},
  };
}

std::string JsonNumber(double v) { return StringFormat("%.9g", v); }

}  // namespace

int RunReplay(const ReplayOptions& opt) {
  std::vector<RequestRecord> requests;
  if (!ReadRequestFile(opt.requests_path, &requests)) {
    std::fprintf(stderr, "replay: cannot read %s\n", opt.requests_path.c_str());
    return 2;
  }
  if (requests.size() > opt.count) requests.resize(opt.count);
  if (requests.empty()) {
    std::fprintf(stderr, "replay: no requests\n");
    return 2;
  }
  const double n = static_cast<double>(requests.size());

  PassResult first = RunPass(requests, true);
  PassResult untraced = RunPass(requests, false);
  PassResult second = RunPass(requests, true);

  // Spans of the first pass, written once the pass is over.
  {
    std::ofstream spans(opt.spans_path);
    for (size_t s = 0; s < first.spans.size(); ++s) {
      const Span& sp = first.spans[s];
      spans << "{\"span\":" << s << ",\"parent\":" << sp.parent
            << ",\"request\":" << sp.request << ",\"name\":\"" << sp.name
            << "\",\"start_ns\":" << sp.start_ns << ",\"end_ns\":" << sp.end_ns
            << "}\n";
    }
    if (!spans) {
      std::fprintf(stderr, "replay: cannot write %s\n", opt.spans_path.c_str());
      return 2;
    }
  }

  // Per-request and per-layer durations (microseconds) from the spans.
  std::map<std::string, std::vector<double>> layer_us;
  std::map<size_t, double> inproc_us;
  std::map<size_t, double> admit_us;
  double leaf_ns = 0;
  double exec_ns = 0;
  for (const Span& sp : first.spans) {
    const double d = static_cast<double>(sp.end_ns - sp.start_ns);
    if (sp.name == "request") continue;
    const bool exec = sp.name.rfind("server.exec.", 0) == 0;
    if (exec) {
      exec_ns += d;
      layer_us[sp.name].push_back(d / 1e3);
    } else {
      leaf_ns += d;
    }
    if (exec || sp.name == "server.parse" || sp.name == "server.respond") {
      inproc_us[sp.request] += d / 1e3;
    }
    if (sp.name == "server.admit" || sp.name == "server.dequeue" ||
        sp.name == "server.finish") {
      admit_us[sp.request] += d / 1e3;
    } else if (!exec) {
      layer_us[sp.name].push_back(d / 1e3);
    }
  }
  {
    std::ofstream inproc(opt.inproc_path);
    for (const auto& [index, us] : inproc_us) inproc << index << ' ' << us << '\n';
  }
  std::vector<double> admit;
  for (const auto& kv : admit_us) admit.push_back(kv.second);

  std::string json = "{";
  auto add = [&json](const std::string& key, double value, size_t samples) {
    if (json.size() > 1) json += ",";
    json += "\"" + key + "\":{\"value\":" + JsonNumber(value) +
            ",\"n\":" + std::to_string(samples) + "}";
  };
  add("server.parse_us_p50", Percentile(layer_us["server.parse"], 0.5),
      layer_us["server.parse"].size());
  add("server.admit_us_p50", Percentile(admit, 0.5), admit.size());
  add("server.respond_us_p50", Percentile(layer_us["server.respond"], 0.5),
      layer_us["server.respond"].size());
  for (const char* facade : names::kAllFacades) {
    if (!FacadeIsExecutable(facade)) continue;
    const std::vector<double>& v = layer_us[std::string("server.exec.") + facade];
    add(std::string("server.exec.") + facade + ".us_p50", Percentile(v, 0.5),
        v.size());
  }

  const uint64_t hits = first.cache_after.solve_hits - first.cache_before.solve_hits;
  const uint64_t lookups =
      hits + first.cache_after.solve_misses - first.cache_before.solve_misses;
  const uint64_t inserts =
      (first.cache_after.entries + first.cache_after.solve_evictions +
       first.cache_after.sub_evictions) -
      (first.cache_before.entries + first.cache_before.solve_evictions +
       first.cache_before.sub_evictions);
  add("common.cache.hit_share",
      lookups == 0 ? 0 : static_cast<double>(hits) / static_cast<double>(lookups),
      lookups);
  add("common.cache.inserts", static_cast<double>(inserts), requests.size());
  add("common.cache.bytes",
      static_cast<double>(first.cache_after.bytes) -
          static_cast<double>(first.cache_before.bytes),
      requests.size());

  double phase_ns = 0;
  for (size_t p = 0; p < kPhaseCount; ++p) {
    const PhaseCounters::Entry& e = first.phases.phases[p];
    const std::string name = PhaseMetricName(static_cast<Phase>(p));
    add(name + "_ms", static_cast<double>(e.wall_ns) / 1e6 / n, e.calls);
    add(name + "_effort", static_cast<double>(e.effort) / n, e.calls);
    phase_ns += static_cast<double>(e.wall_ns);
  }
  add("solverlp.pivots", static_cast<double>(first.simplex.pivots) / n,
      requests.size());
  add("solverlp.tableau_builds",
      static_cast<double>(first.simplex.tableau_builds) / n, requests.size());
  add("solverlp.warm_start_hit_rate", first.simplex.WarmStartHitRate(),
      first.simplex.warm_starts);
  add("arith.fast_path_rate", first.arith.FastPathRate(),
      first.arith.small_ops + first.arith.big_ops);
  add("trace.coverage", (leaf_ns + phase_ns) / (first.wall_s * 1e9),
      first.spans.size());
  add("trace.phase_sum_over_wall", exec_ns == 0 ? 0 : phase_ns / exec_ns,
      requests.size());
  add("trace.overhead", (first.wall_s + second.wall_s) / 2 / untraced.wall_s, 3);
  json += "}";

  // Determinism: the two traced passes must agree on every count.
  std::string determinism = "{";
  std::vector<std::string> diffs;
  const auto a = DeterminismCounts(first);
  const auto b = DeterminismCounts(second);
  for (const auto& [key, value] : a) {
    if (determinism.size() > 1) determinism += ",";
    determinism += "\"" + key + "\":[" + std::to_string(value) + "," +
                   std::to_string(b.at(key)) + "]";
    if (value != b.at(key)) diffs.push_back(key);
  }
  determinism += "}";

  std::vector<std::string> mismatches = first.mismatches;
  for (const PassResult* p : {&untraced, &second}) {
    mismatches.insert(mismatches.end(), p->mismatches.begin(), p->mismatches.end());
  }
  std::string mism = "[";
  for (size_t i = 0; i < mismatches.size() && i < 20; ++i) {
    if (i > 0) mism += ",";
    mism += "\"" + JsonEscape(mismatches[i]) + "\"";
  }
  mism += "]";
  std::string diff_list = "[";
  for (size_t i = 0; i < diffs.size(); ++i) {
    if (i > 0) diff_list += ",";
    diff_list += "\"" + diffs[i] + "\"";
  }
  diff_list += "]";

  std::printf(
      "{\"requests\":%zu,\"mismatch_count\":%zu,\"mismatches\":%s,"
      "\"determinism\":%s,\"determinism_diffs\":%s,\"wall_s\":[%s,%s,%s],"
      "\"metrics\":%s}\n",
      requests.size(), mismatches.size(), mism.c_str(), determinism.c_str(),
      diff_list.c_str(), JsonNumber(first.wall_s).c_str(),
      JsonNumber(untraced.wall_s).c_str(), JsonNumber(second.wall_s).c_str(),
      json.c_str());
  return 0;
}

}  // namespace fo2dt::perfbench
