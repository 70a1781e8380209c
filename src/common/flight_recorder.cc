#include "common/flight_recorder.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <thread>
#include <utility>

#include "common/execution_context.h"
#include "common/failpoint.h"
#include "common/registry_names.h"
#include "common/strings.h"

namespace fo2dt {

namespace {

// Depth of facade nesting on this thread; only depth 1 records, so a facade
// implemented on top of another facade (constraints → frontend) leaves one
// record, attributed to the outermost entry point.
int& ThreadSolveDepth() {
  thread_local int depth = 0;
  return depth;
}

// Solve-cache disposition for the top-level solve on this thread; "" when no
// cache lookup happened (or caching is off). Reset by the outermost
// SolveRecorder so state never leaks across solves.
const char*& ThreadCacheDisposition() {
  thread_local const char* disposition = "";
  return disposition;
}

uint64_t ProcessCpuMs() {
  return static_cast<uint64_t>(static_cast<double>(std::clock()) * 1000.0 /
                               CLOCKS_PER_SEC);
}

bool IsKnownCaptureMode(const std::string& mode) {
  for (size_t i = 0; i < names::kNumCaptureModes; ++i) {
    if (mode == names::kAllCaptureModes[i]) return true;
  }
  return false;
}

Status WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument(
        StringFormat("cannot open bundle file '%s'", path.c_str()));
  }
  std::fputs(content.c_str(), f);
  if (std::fclose(f) != 0) {
    return Status::Internal(
        StringFormat("error writing bundle file '%s'", path.c_str()));
  }
  return Status::OK();
}

// The canonical injection sleeps inside the phase that owns the failpoint,
// long enough to dominate any real work a small replay input does, so the
// recorded and replayed DominantPhase agree deterministically.
constexpr auto kInjectionDelay = std::chrono::milliseconds(50);

void InjectStatusFault(void* arg, const char* module) {
  std::this_thread::sleep_for(kInjectionDelay);
  StopReason reason;
  reason.kind = StopKind::kInjectedFault;
  reason.module = module;
  reason.counter = 1;
  reason.limit = 1;
  *static_cast<Status*>(arg) =
      Status::ResourceExhausted("injected fault (canonical replay)", reason);
}

}  // namespace

FlightRecorder::FlightRecorder() {
  const char* log = std::getenv("FO2DT_QUERY_LOG");
  if (log != nullptr && log[0] != '\0') config_.query_log_path = log;
  const char* mode = std::getenv("FO2DT_CAPTURE");
  config_.capture_mode = names::kCaptureModeDegraded;
  if (mode != nullptr && IsKnownCaptureMode(mode)) config_.capture_mode = mode;
  const char* dir = std::getenv("FO2DT_CAPTURE_DIR");
  if (dir != nullptr && dir[0] != '\0') config_.capture_dir = dir;
  const char* slow = std::getenv("FO2DT_SLOW_MS");
  if (slow != nullptr && slow[0] != '\0') {
    config_.slow_ms = std::strtoull(slow, nullptr, 10);
  }
}

FlightRecorder& FlightRecorder::Instance() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked: see
  return *recorder;  // thread_stats.h GetRegistry for the rationale
}

void FlightRecorder::Configure(FlightRecorderConfig config) {
  if (config.capture_mode.empty() || !IsKnownCaptureMode(config.capture_mode)) {
    config.capture_mode = names::kCaptureModeDegraded;
  }
  {
    ScopedRankedLock lock(mu_);
    config_ = config;
  }
  QueryLog::Instance().Configure(config.query_log_path);
}

FlightRecorderConfig FlightRecorder::config() const {
  ScopedRankedLock lock(mu_);
  return config_;
}

bool FlightRecorder::enabled() const {
  ScopedRankedLock lock(mu_);
  return !config_.query_log_path.empty();
}

std::string FlightRecorder::CaptureDir() const {
  ScopedRankedLock lock(mu_);
  if (!config_.capture_dir.empty()) return config_.capture_dir;
  return config_.query_log_path + ".captures";
}

SolveRecorder::SolveRecorder(const char* facade, const ExecutionContext* exec)
    : facade_(facade), exec_(exec) {
  int& depth = ThreadSolveDepth();
  ++depth;
  if (depth == 1) ThreadCacheDisposition() = "";
  // The env-seeded QueryLog is authoritative when the recorder was never
  // Configure()d; checking both keeps tests and production in one path.
  active_ = depth == 1 &&
            (FlightRecorder::Instance().enabled() || QueryLog::Instance().enabled());
  if (!active_) return;
  record_.facade = facade_;
  start_ = std::chrono::steady_clock::now();
  cpu_start_ms_ = ProcessCpuMs();
}

SolveRecorder::~SolveRecorder() { --ThreadSolveDepth(); }

void SolveRecorder::SetInput(const std::string& canonical) {
  if (!active_) return;
  record_.input_hash =
      HashToHex(Fnv1a64(std::string(facade_) + "\n" + canonical));
  record_.input_size = canonical.size();
}

void SolveRecorder::SetReplayInput(std::string text) {
  if (!active_) return;
  replay_input_ = std::move(text);
}

void SolveRecorder::AddBudget(const char* key, uint64_t value) {
  if (!active_) return;
  record_.budgets.emplace_back(key, value);
}

std::string SolveRecorder::Begin(const FacadeRequest& request, bool cached) {
  const bool caching = cached && SolveCache::Instance().enabled();
  if (!active_ && !caching) return "";
  const std::string body = request.body();
  SetInput(body);
  if (active_ && request.replayable) SetReplayInput(body);
  for (const auto& [key, value] : request.budgets) AddBudget(key, value);
  if (request.threads != 0) record_.threads = request.threads;
  return caching ? SolveCacheKey(request.facade, body) : "";
}

void SolveRecorder::Finish(SolveOutcome outcome) {
  if (!active_ || finished_) return;
  finished_ = true;
  if (!outcome.profile.has_value() && exec_ != nullptr) {
    PhaseProfile profile = SnapshotPhaseProfile(*exec_);
    profile.stop = outcome.stop;
    outcome.profile = profile;
  }
  record_.ts_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  record_.wall_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  uint64_t cpu_now = ProcessCpuMs();
  record_.cpu_ms = cpu_now > cpu_start_ms_ ? cpu_now - cpu_start_ms_ : 0;
  record_.outcome = std::move(outcome);
  if (exec_ != nullptr) record_.request_id = exec_->request_id();

  const FlightRecorderConfig config = FlightRecorder::Instance().config();
  const std::string& mode = config.capture_mode;
  bool degraded = record_.outcome.verdict == "UNKNOWN" ||
                  record_.outcome.verdict.rfind("ERROR:", 0) == 0;
  // Tail sampling: a definite verdict that took longer than the configured
  // slow threshold is as capture-worthy as a degraded one — the record's
  // per-phase profile is the explanation of the latency tail.
  bool slow = config.slow_ms > 0 && record_.wall_ms >= config.slow_ms;
  bool capture =
      !replay_input_.empty() &&
      (mode == names::kCaptureModeAlways ||
       (mode == names::kCaptureModeDegraded && (degraded || slow)));
  if (capture) record_.capture = WriteBundle(record_, record_.outcome);
  record_.cache = ThreadCacheDisposition();

  // Observability must never fail the solve: a full disk loses the record,
  // not the verdict.
  (void)QueryLog::Instance().Append(record_.ToJsonLine());
}

std::string SolveRecorder::WriteBundle(const QueryRecord& record,
                                       const SolveOutcome& outcome) const {
  std::string slug = facade_;
  for (char& c : slug) {
    if (c == '.') c = '-';
  }
  std::string dir = StringFormat(
      "%s/%s-%s-%llu", FlightRecorder::Instance().CaptureDir().c_str(),
      slug.c_str(), record.input_hash.c_str(),
      static_cast<unsigned long long>(
          FlightRecorder::Instance().NextBundleSeq()));

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";

  // input.fo2dt: header, the facade body, the armed failpoints (so replay
  // re-injects the same faults), then the recorded outcome as expect lines.
  // Expect values run to end of line (StopKindToString is multi-word).
  std::string input = "fo2dt-replay v1\n";
  input += StringFormat("facade %s\n", facade_);
  input += replay_input_;
  if (!input.empty() && input.back() != '\n') input += "\n";
  for (const std::string& site : Failpoints::Instance().ArmedSites()) {
    input += StringFormat("failpoint %s\n", site.c_str());
  }
  input += StringFormat("expect verdict %s\n", outcome.verdict.c_str());
  if (outcome.stop.stopped()) {
    input += StringFormat("expect stop_kind %s\n",
                          StopKindToString(outcome.stop.kind));
    input += StringFormat("expect stop_module %s\n", outcome.stop.module);
  }
  if (outcome.profile.has_value()) {
    input += StringFormat("expect dominant_phase %s\n",
                          PhaseName(outcome.profile->DominantPhase()));
  }

  std::string manifest =
      StringFormat("{\"bundle_version\":1,\"record\":%s}\n",
                   record.ToJsonLine().c_str());

  // Bundle files are best-effort: partial bundles are still useful, and the
  // record's capture field points at whatever was written.
  (void)WriteTextFile(dir + "/" + names::kBundleFileManifestJson, manifest);
  (void)WriteTextFile(dir + "/" + names::kBundleFileInputFo2dt, input);
  (void)WriteTextFile(
      dir + "/" + names::kBundleFileMetricsJson,
      MetricsRegistry::Instance().Snapshot().ToJson() + "\n");
  return dir;
}

void NoteSolveCacheDisposition(const char* disposition) {
  if (ThreadSolveDepth() == 0) return;
  const char*& current = ThreadCacheDisposition();
  if (current[0] == '\0') current = disposition;
}

Alphabet MakeReplayAlphabet(size_t num_labels) {
  Alphabet alphabet;
  for (size_t i = 0; i < num_labels; ++i) {
    (void)alphabet.Intern(ReplayLabelName(i));
  }
  return alphabet;
}

std::string ReplayLabelName(size_t i) {
  return StringFormat("l%llu", static_cast<unsigned long long>(i));
}

bool ArmCanonicalReplayInjection(const std::string& site, int64_t fire) {
  Failpoints& fps = Failpoints::Instance();
  if (site == names::kFpLctaCutRound) {
    fps.Enable(site,
               [](void* arg) { InjectStatusFault(arg, names::kModLctaCuts); },
               /*skip=*/0, fire);
    return true;
  }
  if (site == names::kFpIlpWorkerFault) {
    fps.Enable(site, [](void* arg) {
      InjectStatusFault(arg, names::kModSolverlpIlp);
    }, /*skip=*/0, fire);
    return true;
  }
  if (site == names::kFpServerAcceptFault) {
    fps.Enable(site, [](void* arg) {
      InjectStatusFault(arg, names::kModServerAdmission);
    }, /*skip=*/0, fire);
    return true;
  }
  if (site == names::kFpServerWorkerCrash) {
    fps.Enable(site, [](void* arg) {
      InjectStatusFault(arg, names::kModServerWorker);
    }, /*skip=*/0, fire);
    return true;
  }
  if (site == names::kFpBigintForceSlowAdd ||
      site == names::kFpSimplexForceRebuild ||
      site == names::kFpServerSlowDrain) {
    fps.Enable(site, [](void* arg) { *static_cast<bool*>(arg) = true; },
               /*skip=*/0, fire);
    return true;
  }
  if (site == names::kFpIlpBranch) {
    fps.Enable(site, [](void*) {}, /*skip=*/0, fire);
    return true;
  }
  return false;
}

}  // namespace fo2dt
