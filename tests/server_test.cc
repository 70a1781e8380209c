/// \file server_test.cc
/// \brief fo2dtd solve server: admission-control determinism, the overload
/// shedding ladder, hierarchical cancellation, crash-safe solve execution,
/// and graceful SIGTERM drain.
///
/// Two layers of coverage:
///   * in-process SolveServer instances — deterministic, and every server
///     thread is visible to tsan, so the concurrent tests double as the
///     data-race assertion for the single-write query-log/cache appends;
///   * a real spawned fo2dtd binary (FO2DT_FO2DTD_BIN_PATH) — worker-fault
///     injection via --failpoint, SIGTERM drain with artifact checks, and
///     the overload recipe exercised over the actual wire.

#include "server/server.h"

#include <gtest/gtest.h>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/flight_recorder.h"
#include "common/registry_names.h"
#include "common/solve_cache.h"
#include "server/admission.h"
#include "server/protocol.h"

namespace fo2dt {
namespace {

// ---------------------------------------------------------------------------
// Shared fixtures and helpers

/// Trivially satisfiable body: one enumeration step.
constexpr char kEasyBody[] = "labels 1\nformula exists x. l0(x)";
/// A second cacheable body with a distinct cache key.
constexpr char kEasyBody2[] = "labels 2\nformula exists x. l1(x)";
/// Unsatisfiable within its budgets: each node carries exactly one label, so
/// the bounded search exhausts whatever deadline or step budget it is given
/// and returns kUnknown with a StopReason. This is the "slow solve" every
/// pressure test leans on — its runtime is the budget, deterministically.
constexpr char kHardBody[] =
    "labels 2\nbudget max_model_nodes 8\nformula exists x. (l0(x) & l1(x))";

std::string UniquePath(const char* stem) {
  static int counter = 0;
  return ::testing::TempDir() + "srv_" + stem + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++);
}

/// Short socket paths: sun_path is ~108 bytes and TempDir can be deep.
std::string SocketPath(const char* stem) {
  static int counter = 0;
  return "/tmp/fo2dt_" + std::to_string(::getpid()) + "_" + stem + "_" +
         std::to_string(counter++) + ".sock";
}

std::string JsonStrField(const std::string& line, const std::string& key) {
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

uint64_t JsonUintField(const std::string& line, const std::string& key) {
  std::string needle = "\"" + key + "\":";
  size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  uint64_t value = 0;
  for (size_t i = at + needle.size(); i < line.size(); ++i) {
    if (line[i] < '0' || line[i] > '9') break;
    value = value * 10 + static_cast<uint64_t>(line[i] - '0');
  }
  return value;
}

/// Strips the two response fields that legitimately differ between otherwise
/// bit-identical responses: queue_depth (momentary load) and request_id
/// (unique correlation id minted per request).
std::string WithoutQueueDepth(std::string line) {
  size_t at = line.find(",\"queue_depth\":");
  if (at != std::string::npos) {
    size_t end = at + std::strlen(",\"queue_depth\":");
    while (end < line.size() && line[end] >= '0' && line[end] <= '9') ++end;
    line.erase(at, end - at);
  }
  at = line.find(",\"request_id\":\"");
  if (at != std::string::npos) {
    size_t end = line.find('"', at + std::strlen(",\"request_id\":\""));
    if (end != std::string::npos) line.erase(at, end + 1 - at);
  }
  return line;
}

std::string SolveRequestLine(const std::string& id, const std::string& body,
                             uint64_t deadline_ms) {
  ServerResponse escape_helper;  // reuse the writer's escaping via JsonEscape
  (void)escape_helper;
  std::string line = "{\"op\":\"solve\",\"id\":\"" + id +
                     "\",\"facade\":\"frontend.sat\",\"body\":\"" +
                     JsonEscape(body) + "\"";
  if (deadline_ms != 0) {
    line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  line += "}\n";
  return line;
}

/// Full request builder: optional tenant and client-supplied correlation id
/// ride along with the solve.
std::string SolveRequestLineFull(const std::string& id,
                                 const std::string& tenant,
                                 const std::string& request_id,
                                 const std::string& body,
                                 uint64_t deadline_ms) {
  std::string line = "{\"op\":\"solve\",\"id\":\"" + id + "\"";
  if (!request_id.empty()) {
    line += ",\"request_id\":\"" + request_id + "\"";
  }
  if (!tenant.empty()) line += ",\"tenant\":\"" + tenant + "\"";
  line += ",\"facade\":\"frontend.sat\",\"body\":\"" + JsonEscape(body) + "\"";
  if (deadline_ms != 0) {
    line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  line += "}\n";
  return line;
}

/// Decodes a JSON string field with real unescaping. JsonStrField drops the
/// backslash but keeps the escape letter ('\n' comes back as 'n'), which is
/// fine for ids and verdicts but mangles multi-line exposition text.
std::string JsonStrFieldDecoded(const std::string& line,
                                const std::string& key) {
  std::string needle = "\"" + key + "\":\"";
  size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  std::string out;
  for (size_t i = at + needle.size(); i < line.size(); ++i) {
    char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      char e = line[++i];
      out += e == 'n' ? '\n' : e == 't' ? '\t' : e == 'r' ? '\r' : e;
      continue;
    }
    if (c == '"') break;
    out += c;
  }
  return out;
}

/// Parses Prometheus-style exposition text into series name -> value. The
/// key keeps the label set verbatim, e.g.
///   fo2dt_tenant_requests_total{tenant="acme",outcome="admitted"}
/// Sets *parse_ok to false on any non-comment line that is not `name value`.
std::map<std::string, double> ParseExposition(const std::string& text,
                                              bool* parse_ok) {
  std::map<std::string, double> series;
  *parse_ok = !text.empty();
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos || sp == 0 || sp + 1 >= line.size()) {
      *parse_ok = false;
      continue;
    }
    char* endp = nullptr;
    double value = std::strtod(line.c_str() + sp + 1, &endp);
    if (endp == nullptr || *endp != '\0') *parse_ok = false;
    series[line.substr(0, sp)] = value;
  }
  return series;
}

/// Blocking line-oriented client over the daemon's Unix socket.
class LineClient {
 public:
  ~LineClient() { Close(); }

  bool Connect(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) return false;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one '\n'-terminated line; false on EOF/timeout. Timeouts are
  /// generous because sanitizer builds run everything slower.
  bool RecvLine(std::string* out, int timeout_ms = 60000) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (true) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *out = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      if (std::chrono::steady_clock::now() >= deadline) return false;
      pollfd pfd{};
      pfd.fd = fd_;
      pfd.events = POLLIN;
      int ready = ::poll(&pfd, 1, 100);
      if (ready <= 0) continue;
      char chunk[4096];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return false;  // EOF
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Restores the process-global recorder configuration; in-process server
/// tests that enable the query log serialize on the singleton.
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

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Admission controller: the robustness envelope, unit-tested with no
// sockets or threads in the way.

AdmissionConfig LadderConfig() {
  AdmissionConfig config;
  config.queue_limit = 8;
  config.tenant_active_limit = 0;
  config.degrade_light_pct = 50;
  config.degrade_heavy_pct = 75;
  config.light_divisor = 4;
  config.heavy_divisor = 16;
  return config;
}

TEST(AdmissionTest, LadderWalksDeterministically) {
  AdmissionController admission(LadderConfig(), 1600);
  RequestedBudgets requested;  // all defaults: unlimited effort, no deadline
  std::vector<AdmitAction> actions;
  std::vector<AdmitDecision> decisions;
  for (int i = 0; i < 10; ++i) {
    decisions.push_back(admission.Admit("t", requested));
    actions.push_back(decisions.back().action);
  }
  // Occupancy is measured before each reservation: depths 0..3 accept,
  // 4..5 (>=50% of 8) degrade light, 6..7 (>=75%) degrade heavy, 8 is full.
  std::vector<AdmitAction> expected = {
      AdmitAction::kAccept,       AdmitAction::kAccept,
      AdmitAction::kAccept,       AdmitAction::kAccept,
      AdmitAction::kDegradeLight, AdmitAction::kDegradeLight,
      AdmitAction::kDegradeHeavy, AdmitAction::kDegradeHeavy,
      AdmitAction::kReject,       AdmitAction::kReject};
  EXPECT_EQ(actions, expected);

  // Full-budget admit keeps the default deadline and unlimited effort.
  EXPECT_EQ(decisions[0].deadline_ms, 1600u);
  EXPECT_EQ(decisions[0].max_effort, 0u);
  // Light: deadline intact, unlimited effort hard-capped.
  EXPECT_EQ(decisions[4].deadline_ms, 1600u);
  EXPECT_EQ(decisions[4].max_effort, 65536u);
  // Heavy: deadline / 16 and the tighter effort cap.
  EXPECT_EQ(decisions[6].deadline_ms, 100u);
  EXPECT_EQ(decisions[6].max_effort, 1024u);
  // Rejections carry the queue-full evidence.
  EXPECT_NE(decisions[8].detail.find("queue full (8/8)"), std::string::npos);
  EXPECT_EQ(decisions[8].queue_depth, 8u);

  AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.accepted, 8u);
  EXPECT_EQ(stats.degraded, 4u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.queue_depth_peak, 8u);
}

TEST(AdmissionTest, RequestedEffortIsDividedNotReplaced) {
  AdmissionController admission(LadderConfig(), 1600);
  RequestedBudgets requested;
  requested.max_effort = 400000;
  for (int i = 0; i < 4; ++i) (void)admission.Admit("t", requested);
  AdmitDecision light = admission.Admit("t", requested);
  EXPECT_EQ(light.action, AdmitAction::kDegradeLight);
  EXPECT_EQ(light.max_effort, 100000u);  // 400000 / light_divisor
  (void)admission.Admit("t", requested);
  AdmitDecision heavy = admission.Admit("t", requested);
  EXPECT_EQ(heavy.action, AdmitAction::kDegradeHeavy);
  EXPECT_EQ(heavy.max_effort, 25000u);  // 400000 / heavy_divisor
}

TEST(AdmissionTest, TenantCapIsPerTenant) {
  AdmissionConfig config = LadderConfig();
  config.tenant_active_limit = 2;
  AdmissionController admission(config, 1000);
  RequestedBudgets requested;
  EXPECT_EQ(admission.Admit("a", requested).action, AdmitAction::kAccept);
  EXPECT_EQ(admission.Admit("a", requested).action, AdmitAction::kAccept);
  AdmitDecision third = admission.Admit("a", requested);
  EXPECT_EQ(third.action, AdmitAction::kReject);
  EXPECT_NE(third.detail.find("tenant 'a'"), std::string::npos);
  // Another tenant is unaffected by a's cap.
  EXPECT_EQ(admission.Admit("b", requested).action, AdmitAction::kAccept);
  // Finishing one of a's solves frees a slot for a again.
  admission.OnDequeue();
  admission.OnFinish("a");
  EXPECT_EQ(admission.Admit("a", requested).action, AdmitAction::kAccept);
}

TEST(AdmissionTest, AbandonReleasesQueueAndTenantSlots) {
  AdmissionConfig config = LadderConfig();
  config.tenant_active_limit = 1;
  config.queue_limit = 1;
  AdmissionController admission(config, 1000);
  RequestedBudgets requested;
  EXPECT_EQ(admission.Admit("a", requested).action, AdmitAction::kAccept);
  EXPECT_EQ(admission.Admit("a", requested).action, AdmitAction::kReject);
  admission.OnAbandon("a");
  EXPECT_EQ(admission.stats().queue_depth, 0u);
  EXPECT_EQ(admission.Admit("a", requested).action, AdmitAction::kAccept);
}

TEST(AdmissionTest, QuotaClampsRequestedBudgets) {
  AdmissionConfig config = LadderConfig();
  config.quota.max_deadline_ms = 500;
  config.quota.max_effort = 10000;
  config.quota.max_bytes = 1 << 20;
  AdmissionController admission(config, 2000);
  RequestedBudgets greedy;
  greedy.deadline_ms = 60000;
  greedy.max_effort = 1u << 30;
  greedy.max_bytes = 1u << 30;
  AdmitDecision decision = admission.Admit("t", greedy);
  EXPECT_EQ(decision.action, AdmitAction::kAccept);
  EXPECT_EQ(decision.deadline_ms, 500u);
  EXPECT_EQ(decision.max_effort, 10000u);
  EXPECT_EQ(decision.max_bytes, static_cast<uint64_t>(1 << 20));
  // A request naming no deadline gets the server default, quota-clamped.
  RequestedBudgets silent;
  AdmitDecision defaulted = admission.Admit("t", silent);
  EXPECT_EQ(defaulted.deadline_ms, 500u);
}

// ---------------------------------------------------------------------------
// In-process server: protocol basics

TEST(SolveServerTest, PingStatsAndErrorsRoundTrip) {
  SolveServerOptions options;
  options.socket_path = SocketPath("basic");
  options.num_workers = 2;
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client;
  ASSERT_TRUE(client.Connect(options.socket_path));
  std::string line;

  ASSERT_TRUE(client.Send("{\"op\":\"ping\",\"id\":\"p\"}\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "OK");
  EXPECT_EQ(JsonStrField(line, "detail"), "pong");
  EXPECT_EQ(JsonStrField(line, "id"), "p");

  ASSERT_TRUE(client.Send("this is not json\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "ERROR");

  ASSERT_TRUE(client.Send("{\"op\":\"solve\",\"facade\":\"no.such\","
                          "\"body\":\"x\"}\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "ERROR");
  EXPECT_NE(JsonStrField(line, "detail").find("no.such"), std::string::npos);

  // frontend.dnf_sat is registered but has no textual body grammar.
  ASSERT_TRUE(client.Send("{\"op\":\"solve\",\"facade\":\"frontend.dnf_sat\","
                          "\"body\":\"x\"}\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "ERROR");

  ASSERT_TRUE(client.Send(SolveRequestLine("s", kEasyBody, 2000)));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "OK");
  EXPECT_EQ(JsonStrField(line, "verdict"), "SAT");

  ASSERT_TRUE(client.Send("{\"op\":\"stats\"}\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonUintField(line, names::kMetricServerCompleted), 1u);

  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Acceptance (a) + (b): a pipelined burst against one slow worker walks the
// shedding ladder — full-budget accepts, then kUnknown-with-StopReason
// degraded solves, and only past that deterministic OVERLOADED rejections
// carrying queue-depth evidence.

TEST(SolveServerTest, OverloadBurstDegradesThenSheds) {
  SolveServerOptions options;
  options.socket_path = SocketPath("burst");
  options.num_workers = 1;
  options.admission = LadderConfig();  // queue_limit 8, no tenant cap
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kBurst = 16;
  constexpr uint64_t kDeadlineMs = 400;
  LineClient client;
  ASSERT_TRUE(client.Connect(options.socket_path));
  std::string burst;
  for (int i = 0; i < kBurst; ++i) {
    burst += SolveRequestLine("q" + std::to_string(i), kHardBody, kDeadlineMs);
  }
  ASSERT_TRUE(client.Send(burst));

  std::map<int, std::string> responses;
  for (int i = 0; i < kBurst; ++i) {
    std::string line;
    ASSERT_TRUE(client.RecvLine(&line)) << "response " << i << " missing";
    std::string id = JsonStrField(line, "id");
    ASSERT_EQ(id.substr(0, 1), "q") << line;
    responses[std::stoi(id.substr(1))] = line;
  }
  ASSERT_EQ(responses.size(), static_cast<size_t>(kBurst));

  std::set<int> accepted, degraded, overloaded;
  for (const auto& [seq, line] : responses) {
    std::string status = JsonStrField(line, "status");
    if (status == "OVERLOADED") {
      overloaded.insert(seq);
      // Queue-depth counter evidence rides on every rejection.
      EXPECT_EQ(JsonUintField(line, "queue_depth"), 8u) << line;
      EXPECT_NE(JsonStrField(line, "detail").find("queue full"),
                std::string::npos)
          << line;
      continue;
    }
    ASSERT_EQ(status, "OK") << line;
    // Every admitted hard solve exhausts some budget: kUnknown + StopReason.
    EXPECT_EQ(JsonStrField(line, "verdict"), "UNKNOWN") << line;
    EXPECT_FALSE(JsonStrField(line, "stop_kind").empty()) << line;
    if (line.find("\"degraded\":1") != std::string::npos) {
      degraded.insert(seq);
    } else {
      accepted.insert(seq);
    }
  }

  // The ladder must engage before shedding starts, and the burst is long
  // enough that every rung is exercised.
  EXPECT_GE(accepted.size(), 1u);
  EXPECT_GE(degraded.size(), 2u);
  EXPECT_GE(overloaded.size(), 4u);
  // Monotone escalation: accepts, then degrades, then rejections. The one
  // worker can complete exactly one dequeue while the reader admits the
  // burst (freeing one queue slot), so severity may step back down at most
  // once across the whole sequence — never more.
  int inversions = 0;
  int prev_severity = 0;
  for (const auto& [seq, line] : responses) {
    int severity = overloaded.count(seq) ? 2 : degraded.count(seq) ? 1 : 0;
    if (severity < prev_severity) ++inversions;
    prev_severity = severity;
  }
  EXPECT_LE(inversions, 1);
  // The one-slot dip can never reorder accepts past rejections (depth 8
  // cannot fall to <4 on a single dequeue), and the ladder always engages
  // before the queue fills.
  EXPECT_LT(*accepted.rbegin(), *overloaded.begin());
  EXPECT_LT(*degraded.begin(), *overloaded.begin());

  // The stats op exposes the same evidence as counters.
  LineClient probe;
  ASSERT_TRUE(probe.Connect(options.socket_path));
  ASSERT_TRUE(probe.Send("{\"op\":\"stats\"}\n"));
  std::string stats_line;
  ASSERT_TRUE(probe.RecvLine(&stats_line));
  EXPECT_EQ(JsonUintField(stats_line, names::kMetricServerRejectedOverload),
            overloaded.size());
  EXPECT_EQ(JsonUintField(stats_line, names::kMetricServerDegraded),
            degraded.size());
  EXPECT_EQ(JsonUintField(stats_line, names::kMetricServerQueueDepthPeak), 8u);

  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Hierarchical cancellation: a client disconnect cancels its queued and
// in-flight solves, and the daemon keeps serving everyone else.

TEST(SolveServerTest, DisconnectCancelsPendingSolves) {
  SolveServerOptions options;
  options.socket_path = SocketPath("disco");
  options.num_workers = 1;
  options.admission.tenant_active_limit = 0;
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  {
    LineClient doomed;
    ASSERT_TRUE(doomed.Connect(options.socket_path));
    std::string burst;
    for (int i = 0; i < 6; ++i) {
      burst += SolveRequestLine("d" + std::to_string(i), kHardBody, 400);
    }
    ASSERT_TRUE(doomed.Send(burst));
    // Give the reader a moment to admit the burst, then vanish.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // The disconnect must surface in the counters (the in-flight solve is
  // token-cancelled; queued ones are dropped at dequeue).
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().disconnect_cancels == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(server.stats().disconnect_cancels, 1u);

  // The daemon still serves new clients afterwards.
  LineClient fresh;
  ASSERT_TRUE(fresh.Connect(options.socket_path));
  ASSERT_TRUE(fresh.Send(SolveRequestLine("ok", kEasyBody, 2000)));
  std::string line;
  ASSERT_TRUE(fresh.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "verdict"), "SAT");

  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Watchdog kill: a solve stuck past deadline + grace is cancelled, and the
// still-connected client gets its response — only a disconnect may ever
// suppress one.

TEST(SolveServerTest, WatchdogKilledSolveStillAnswers) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  SolveServerOptions options;
  options.socket_path = SocketPath("wdog");
  options.num_workers = 1;
  options.watchdog_grace_ms = 100;
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Stall the first solve inside the worker, polling nothing — exactly the
  // shape of a solve stuck between checkpoints. The callback injects no
  // fault; it just burns wall-clock past deadline + grace so the watchdog
  // fires mid-solve.
  Failpoints::Instance().Enable(
      names::kFpServerWorkerCrash,
      [](void*) { std::this_thread::sleep_for(std::chrono::milliseconds(1500)); },
      /*skip=*/0, /*fire=*/1);

  LineClient client;
  ASSERT_TRUE(client.Connect(options.socket_path));
  ASSERT_TRUE(client.Send(SolveRequestLine("stuck", kHardBody, 100)));
  std::string line;
  bool got = client.RecvLine(&line);
  Failpoints::Instance().DisableAll();
  // The watchdog-killed solve must still answer; a hang here is the bug.
  ASSERT_TRUE(got) << "watchdog-killed solve sent no response";
  EXPECT_EQ(JsonStrField(line, "id"), "stuck") << line;
  EXPECT_FALSE(JsonStrField(line, "stop_kind").empty()) << line;
  EXPECT_EQ(server.stats().watchdog_kills, 1u);

  // The daemon shrugs it off and serves the next request.
  ASSERT_TRUE(client.Send(SolveRequestLine("after", kEasyBody, 2000)));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "verdict"), "SAT") << line;

  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Connection reaping: disconnected clients release their server-side fd and
// reader thread promptly, not at Shutdown — a long-lived daemon must never
// march toward EMFILE.

int CountOpenFds() {
  int count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(SolveServerTest, DisconnectedClientsAreReapedPromptly) {
  SolveServerOptions options;
  options.socket_path = SocketPath("reap");
  options.num_workers = 1;
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  int baseline = CountOpenFds();
  for (int i = 0; i < 20; ++i) {
    LineClient c;
    ASSERT_TRUE(c.Connect(options.socket_path));
    ASSERT_TRUE(c.Send("{\"op\":\"ping\",\"id\":\"p\"}\n"));
    std::string line;
    ASSERT_TRUE(c.RecvLine(&line));
  }  // every client hung up; the server must close its side too

  // Readers notice EOF within a poll tick and self-reap; the watchdog sweep
  // joins the dead threads. Wait for the fd count to return to baseline.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  int fds = CountOpenFds();
  while (fds > baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fds = CountOpenFds();
  }
  EXPECT_LE(fds, baseline) << "server leaks fds for disconnected clients";

  server.Shutdown();
}

// ---------------------------------------------------------------------------
// Graceful drain: Shutdown() finishes admitted solves and responds before
// tearing connections down.

TEST(SolveServerTest, ShutdownDrainsAdmittedSolves) {
  SolveServerOptions options;
  options.socket_path = SocketPath("drain");
  options.num_workers = 2;
  options.admission.tenant_active_limit = 0;
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client;
  ASSERT_TRUE(client.Connect(options.socket_path));
  std::string burst;
  for (int i = 0; i < 4; ++i) {
    burst += SolveRequestLine("g" + std::to_string(i), kHardBody, 300);
  }
  ASSERT_TRUE(client.Send(burst));
  // Admission happens on the reader thread; drain only guarantees solves
  // that were admitted before it starts.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.stats().admission.accepted < 4 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(server.stats().admission.accepted, 4u);

  server.Shutdown();

  // All four responses must have been written before teardown; then EOF.
  std::set<std::string> ids;
  std::string line;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client.RecvLine(&line)) << "drained response " << i;
    EXPECT_EQ(JsonStrField(line, "status"), "OK") << line;
    ids.insert(JsonStrField(line, "id"));
  }
  EXPECT_EQ(ids.size(), 4u);
  EXPECT_FALSE(client.RecvLine(&line, 5000)) << "expected EOF, got: " << line;
}

// A solve dispatched after the drain barrier closes the queue gets a
// structured rejection — never a silent drop with no response.
TEST(SolveServerTest, SolveDispatchedDuringDrainIsRejectedNotDropped) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  SolveServerOptions options;
  options.socket_path = SocketPath("draingate");
  options.num_workers = 1;
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client;
  ASSERT_TRUE(client.Connect(options.socket_path));

  // The slow-drain failpoint fires right after Shutdown closes the queue
  // (readers are still up). The callback signals the test and then holds
  // Shutdown inside the drain window while the late solve goes out.
  std::atomic<bool> queue_closed{false};
  Failpoints::Instance().Enable(
      names::kFpServerSlowDrain,
      [&queue_closed](void*) {
        queue_closed.store(true);
        std::this_thread::sleep_for(std::chrono::seconds(2));
      },
      /*skip=*/0, /*fire=*/1);
  std::thread shutdown_thread([&server] { server.Shutdown(); });
  while (!queue_closed.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  bool sent = client.Send(SolveRequestLine("late", kEasyBody, 1000));
  std::string line;
  bool got = sent && client.RecvLine(&line);
  shutdown_thread.join();
  Failpoints::Instance().DisableAll();

  ASSERT_TRUE(sent);
  ASSERT_TRUE(got) << "late solve was silently dropped during drain";
  EXPECT_EQ(JsonStrField(line, "id"), "late") << line;
  EXPECT_EQ(JsonStrField(line, "status"), "OVERLOADED") << line;
  EXPECT_NE(JsonStrField(line, "detail").find("draining"), std::string::npos)
      << line;
}

// ---------------------------------------------------------------------------
// Solve-cache interaction: concurrent warm hits answer identically, and the
// concurrent query-log appends stay whole (the tsan assertion for the
// single-write append path).

TEST(SolveServerTest, ConcurrentWarmHitsAnswerBitIdentically) {
  CacheGuard cache_guard([] {
    SolveCacheConfig config;
    config.enabled = true;
    return config;
  }());
  std::string log = UniquePath("warmlog") + ".jsonl";
  RecorderGuard rec_guard({log, names::kCaptureModeNever, ""});

  SolveServerOptions options;
  options.socket_path = SocketPath("warm");
  options.num_workers = 4;
  options.admission.tenant_active_limit = 0;
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // Cold solve populates the verdict cache.
  {
    LineClient cold;
    ASSERT_TRUE(cold.Connect(options.socket_path));
    ASSERT_TRUE(cold.Send(SolveRequestLine("w", kEasyBody, 2000)));
    std::string line;
    ASSERT_TRUE(cold.RecvLine(&line));
    ASSERT_EQ(JsonStrField(line, "verdict"), "SAT") << line;
  }

  // Eight connections fire the identical request concurrently; every
  // response must be byte-identical modulo the admission-time queue depth.
  constexpr size_t kClients = 8;
  std::vector<std::string> lines(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      LineClient c;
      if (!c.Connect(options.socket_path) ||
          !c.Send(SolveRequestLine("w", kEasyBody, 2000)) ||
          !c.RecvLine(&lines[i])) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  std::string canonical = WithoutQueueDepth(lines[0]);
  EXPECT_NE(canonical.find("\"verdict\":\"SAT\""), std::string::npos);
  for (size_t i = 1; i < kClients; ++i) {
    EXPECT_EQ(WithoutQueueDepth(lines[i]), canonical) << "client " << i;
  }

  server.Shutdown();

  // Nine solves, nine whole query-log records: concurrent appends from four
  // workers never interleave bytes (single O_APPEND write per record).
  std::vector<std::string> records = ReadLines(log);
  ASSERT_EQ(records.size(), 9u);
  int hits = 0;
  for (const std::string& record : records) {
    EXPECT_EQ(record.rfind("{\"v\":1,", 0), 0u) << record;
    EXPECT_EQ(record.back(), '}') << record;
    if (JsonStrField(record, "cache") == "hit") ++hits;
  }
  EXPECT_EQ(hits, 8) << "every warm solve must be a verdict-cache hit";
  std::remove(log.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end request correlation (DESIGN.md §13): one id joins the wire
// response, the query-log record, and the capture-bundle manifest.

TEST(SolveServerTest, RequestIdJoinsWireLogAndBundle) {
  std::string log = UniquePath("corrlog") + ".jsonl";
  std::string caps = UniquePath("corrcaps");
  FlightRecorderConfig rec;
  rec.query_log_path = log;
  rec.capture_mode = names::kCaptureModeDegraded;
  rec.capture_dir = caps;
  RecorderGuard rec_guard(rec);

  SolveServerOptions options;
  options.socket_path = SocketPath("corr");
  options.num_workers = 1;
  SolveServer server(options);
  ASSERT_TRUE(server.Start().ok());

  LineClient client;
  ASSERT_TRUE(client.Connect(options.socket_path));
  std::string line;

  // Client-supplied id, echoed verbatim on a degraded (UNKNOWN) solve.
  ASSERT_TRUE(client.Send(
      SolveRequestLineFull("c1", "", "corr-42", kHardBody, 300)));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "verdict"), "UNKNOWN") << line;
  EXPECT_EQ(JsonStrField(line, "request_id"), "corr-42") << line;

  // No client id: the server mints one and echoes it.
  ASSERT_TRUE(client.Send(SolveRequestLine("c2", kEasyBody, 5000)));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "OK") << line;
  std::string minted = JsonStrField(line, "request_id");
  EXPECT_EQ(minted.rfind("fo2dtd-", 0), 0u) << line;
  EXPECT_NE(minted, "corr-42");
  server.Shutdown();

  // The query log carries the same ids, record for record.
  std::vector<std::string> records = ReadLines(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(JsonStrField(records[0], "request_id"), "corr-42")
      << records[0];
  EXPECT_EQ(JsonStrField(records[1], "request_id"), minted) << records[1];

  // The degraded solve captured a bundle whose manifest embeds the same
  // record — correlation id included — next to the metrics snapshot.
  std::string bundle = JsonStrField(records[0], "capture");
  ASSERT_FALSE(bundle.empty()) << records[0];
  std::vector<std::string> manifest =
      ReadLines(bundle + "/" + names::kBundleFileManifestJson);
  ASSERT_EQ(manifest.size(), 1u);
  EXPECT_NE(manifest[0].find("\"request_id\":\"corr-42\""),
            std::string::npos)
      << manifest[0];
  EXPECT_TRUE(std::filesystem::exists(
      bundle + "/" + names::kBundleFileMetricsJson));
  // The definite fast solve stays unsampled (no slow threshold configured).
  EXPECT_EQ(JsonStrField(records[1], "capture"), "") << records[1];

  std::remove(log.c_str());
  std::filesystem::remove_all(caps);
}

// ---------------------------------------------------------------------------
// Spawned fo2dtd binary

pid_t SpawnDaemon(const std::vector<std::string>& extra_args,
                  const std::vector<std::pair<std::string, std::string>>& env,
                  const std::string& socket_path) {
  pid_t pid = ::fork();
  if (pid == 0) {
    for (const auto& [key, value] : env) {
      ::setenv(key.c_str(), value.c_str(), 1);
    }
    std::vector<std::string> args = {FO2DT_FO2DTD_BIN_PATH, "--socket",
                                     socket_path};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(FO2DT_FO2DTD_BIN_PATH, argv.data());
    ::_exit(127);
  }
  return pid;
}

/// Polls until the daemon's socket accepts connections.
bool WaitForDaemon(const std::string& socket_path, int timeout_ms = 30000) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    LineClient probe;
    if (probe.Connect(socket_path)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// SIGTERM + waitpid; returns the daemon's exit code (-1 on abnormal exit).
int StopDaemon(pid_t pid) {
  ::kill(pid, SIGTERM);
  int wstatus = 0;
  if (::waitpid(pid, &wstatus, 0) != pid) return -1;
  return WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
}

/// Acceptance (c): an injected worker fault fails exactly one request —
/// with a flight-recorder record and a replayable capture bundle — and the
/// daemon keeps serving.
TEST(SpawnedDaemonTest, WorkerFaultFailsOneRequestDaemonStaysUp) {
  if (!Failpoints::CompiledIn()) GTEST_SKIP() << "failpoints compiled out";
  std::string socket = SocketPath("fault");
  std::string log = UniquePath("faultlog") + ".jsonl";
  std::string caps = UniquePath("faultcaps");
  pid_t pid = SpawnDaemon({"--workers", "1", "--failpoint",
                           std::string(names::kFpServerWorkerCrash) + "=1"},
                          {{"FO2DT_QUERY_LOG", log},
                           {"FO2DT_CAPTURE", names::kCaptureModeDegraded},
                           {"FO2DT_CAPTURE_DIR", caps}},
                          socket);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(WaitForDaemon(socket));

  LineClient client;
  ASSERT_TRUE(client.Connect(socket));
  std::string line;

  // First solve eats the injected fault: the request fails, not the daemon.
  ASSERT_TRUE(client.Send(SolveRequestLine("f1", kEasyBody, 5000)));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "ERROR") << line;
  EXPECT_EQ(JsonStrField(line, "stop_kind"), "injected fault") << line;
  EXPECT_EQ(JsonStrField(line, "verdict").rfind("ERROR:", 0), 0u) << line;

  // Second solve on the same daemon succeeds.
  ASSERT_TRUE(client.Send(SolveRequestLine("f2", kEasyBody, 5000)));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "OK") << line;
  EXPECT_EQ(JsonStrField(line, "verdict"), "SAT") << line;

  ASSERT_TRUE(client.Send("{\"op\":\"stats\"}\n"));
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonUintField(line, names::kMetricServerWorkerFaults), 1u);
  EXPECT_EQ(JsonUintField(line, names::kMetricServerCompleted), 1u);

  EXPECT_EQ(StopDaemon(pid), 0);

  // The failed solve left a post-mortem: a query-log record pointing at a
  // capture bundle with the facade body as replay input.
  std::vector<std::string> records = ReadLines(log);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(JsonStrField(records[0], "stop_kind"), "injected fault");
  std::string bundle = JsonStrField(records[0], "capture");
  ASSERT_FALSE(bundle.empty()) << records[0];
  EXPECT_TRUE(std::filesystem::exists(
      bundle + "/" + names::kBundleFileInputFo2dt));
  std::remove(log.c_str());
  std::filesystem::remove_all(caps);
}

/// Acceptance (d) + solve-cache persistence: SIGTERM mid-flight drains the
/// in-flight solve, leaves the query log and cache file intact and
/// parseable, and a restarted daemon warm-hits the persisted cache.
TEST(SpawnedDaemonTest, SigtermDrainLeavesArtifactsIntactAndCacheWarm) {
  std::string socket = SocketPath("term");
  std::string log = UniquePath("termlog") + ".jsonl";
  std::string cache_file = UniquePath("termcache") + ".fo2dtcache";
  pid_t pid = SpawnDaemon({"--workers", "2"},
                          {{"FO2DT_QUERY_LOG", log},
                           {"FO2DT_CACHE_FILE", cache_file}},
                          socket);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(WaitForDaemon(socket));

  LineClient client;
  ASSERT_TRUE(client.Connect(socket));
  std::string line;
  ASSERT_TRUE(client.Send(SolveRequestLine("c1", kEasyBody, 5000)));
  ASSERT_TRUE(client.RecvLine(&line));
  ASSERT_EQ(JsonStrField(line, "verdict"), "SAT") << line;
  ASSERT_TRUE(client.Send(SolveRequestLine("c2", kEasyBody2, 5000)));
  ASSERT_TRUE(client.RecvLine(&line));
  ASSERT_EQ(JsonStrField(line, "verdict"), "SAT") << line;

  // Leave a hard solve in flight, then pull the plug.
  ASSERT_TRUE(client.Send(SolveRequestLine("c3", kHardBody, 500)));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(StopDaemon(pid), 0);

  // The drain resolved the in-flight solve and responded before teardown.
  ASSERT_TRUE(client.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "id"), "c3") << line;
  EXPECT_EQ(JsonStrField(line, "verdict"), "UNKNOWN") << line;
  EXPECT_FALSE(client.RecvLine(&line, 2000)) << "expected EOF, got " << line;

  // Query log: one whole record per executed solve.
  std::vector<std::string> records = ReadLines(log);
  ASSERT_EQ(records.size(), 3u);
  for (const std::string& record : records) {
    EXPECT_EQ(record.rfind("{\"v\":1,", 0), 0u) << record;
    EXPECT_EQ(record.back(), '}') << record;
  }

  // Cache file: fingerprint header plus the two definite verdicts (the
  // kUnknown drain victim must NOT have been cached).
  std::vector<std::string> cache_lines = ReadLines(cache_file);
  ASSERT_GE(cache_lines.size(), 3u);
  EXPECT_EQ(cache_lines[0].rfind("fingerprint ", 0), 0u) << cache_lines[0];

  // A fresh daemon over the same cache file answers warm.
  std::string log2 = UniquePath("termlog2") + ".jsonl";
  pid_t pid2 = SpawnDaemon({"--workers", "2"},
                           {{"FO2DT_QUERY_LOG", log2},
                            {"FO2DT_CACHE_FILE", cache_file}},
                           socket);
  ASSERT_GT(pid2, 0);
  ASSERT_TRUE(WaitForDaemon(socket));
  LineClient warm;
  ASSERT_TRUE(warm.Connect(socket));
  ASSERT_TRUE(warm.Send(SolveRequestLine("c1", kEasyBody, 5000)));
  ASSERT_TRUE(warm.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "verdict"), "SAT") << line;
  EXPECT_EQ(StopDaemon(pid2), 0);

  std::vector<std::string> records2 = ReadLines(log2);
  ASSERT_EQ(records2.size(), 1u);
  EXPECT_EQ(JsonStrField(records2[0], "cache"), "hit")
      << "restarted daemon must warm-hit the persisted cache: " << records2[0];

  std::remove(log.c_str());
  std::remove(log2.c_str());
  std::remove(cache_file.c_str());
}

/// The overload recipe over the real wire: a pipelined burst against one
/// worker and a tiny queue produces OVERLOADED rejections whose evidence is
/// visible both on the rejection lines and through the stats op.
TEST(SpawnedDaemonTest, OverloadRecipeProducesCounterEvidence) {
  std::string socket = SocketPath("recipe");
  pid_t pid = SpawnDaemon({"--workers", "1", "--queue-limit", "2",
                           "--tenant-active-limit", "0"},
                          {}, socket);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(WaitForDaemon(socket));

  LineClient client;
  ASSERT_TRUE(client.Connect(socket));
  std::string burst;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    burst += SolveRequestLine("r" + std::to_string(i), kHardBody, 300);
  }
  ASSERT_TRUE(client.Send(burst));
  int overloaded = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string line;
    ASSERT_TRUE(client.RecvLine(&line));
    if (JsonStrField(line, "status") == "OVERLOADED") {
      ++overloaded;
      EXPECT_EQ(JsonUintField(line, "queue_depth"), 2u) << line;
    }
  }
  EXPECT_GE(overloaded, kBurst - 4);

  LineClient probe;
  ASSERT_TRUE(probe.Connect(socket));
  ASSERT_TRUE(probe.Send("{\"op\":\"stats\"}\n"));
  std::string stats_line;
  ASSERT_TRUE(probe.RecvLine(&stats_line));
  EXPECT_EQ(JsonUintField(stats_line, names::kMetricServerRejectedOverload),
            static_cast<uint64_t>(overloaded));
  EXPECT_EQ(JsonUintField(stats_line, names::kMetricServerQueueDepthPeak), 2u);

  EXPECT_EQ(StopDaemon(pid), 0);
}

/// Telemetry-plane acceptance: a mixed two-tenant 100-request burst against
/// a fresh daemon, then one `metrics` scrape that must account for every
/// response — the wire-latency histogram's _count equals the solve responses
/// received, the per-tenant ladder counters sum to the per-tenant request
/// counts, and the exposition text parses line by line.
TEST(SpawnedDaemonTest, MetricsExpositionAccountsForEveryRequest) {
  std::string socket = SocketPath("expo");
  // A 6-slot queue forces blue's pipelined hard burst onto the shedding
  // ladder, so the degraded/rejected rungs provably show up in the scrape.
  pid_t pid = SpawnDaemon({"--workers", "2", "--queue-limit", "6",
                           "--tenant-active-limit", "0"},
                          {}, socket);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(WaitForDaemon(socket));

  constexpr int kEasyCount = 80;  // tenant acme: fast definite solves
  constexpr int kHardCount = 20;  // tenant blue: deadline-bound solves
  constexpr int kTotal = kEasyCount + kHardCount;

  LineClient blue;
  ASSERT_TRUE(blue.Connect(socket));
  std::string hard_burst;
  for (int i = 0; i < kHardCount; ++i) {
    hard_burst += SolveRequestLineFull("b" + std::to_string(i), "blue", "",
                                       kHardBody, 100);
  }
  ASSERT_TRUE(blue.Send(hard_burst));

  LineClient acme;
  ASSERT_TRUE(acme.Connect(socket));
  std::string easy_burst;
  for (int i = 0; i < kEasyCount; ++i) {
    easy_burst += SolveRequestLineFull("a" + std::to_string(i), "acme", "",
                                       kEasyBody, 5000);
  }
  ASSERT_TRUE(acme.Send(easy_burst));

  // Every request answers, every answer carries a unique minted id.
  std::set<std::string> request_ids;
  int ladder_engaged = 0;
  std::string line;
  for (int i = 0; i < kHardCount; ++i) {
    ASSERT_TRUE(blue.RecvLine(&line)) << "blue response " << i;
    request_ids.insert(JsonStrField(line, "request_id"));
    if (JsonStrField(line, "status") == "OVERLOADED" ||
        line.find("\"degraded\":1") != std::string::npos) {
      ++ladder_engaged;
    }
  }
  for (int i = 0; i < kEasyCount; ++i) {
    ASSERT_TRUE(acme.RecvLine(&line)) << "acme response " << i;
    request_ids.insert(JsonStrField(line, "request_id"));
  }
  EXPECT_EQ(request_ids.size(), static_cast<size_t>(kTotal));
  EXPECT_FALSE(request_ids.count(""));
  EXPECT_GE(ladder_engaged, 1) << "hard burst never hit the ladder";

  // One scrape after the burst quiesced.
  LineClient probe;
  ASSERT_TRUE(probe.Connect(socket));
  ASSERT_TRUE(probe.Send("{\"op\":\"metrics\",\"id\":\"m\"}\n"));
  ASSERT_TRUE(probe.RecvLine(&line));
  EXPECT_EQ(JsonStrField(line, "status"), "OK") << line;
  std::string exposition = JsonStrFieldDecoded(line, "exposition");
  bool parse_ok = false;
  std::map<std::string, double> series =
      ParseExposition(exposition, &parse_ok);
  EXPECT_TRUE(parse_ok) << exposition;

  // The wire histogram saw every solve response this daemon ever sent —
  // admitted, degraded, and rejected alike.
  ASSERT_TRUE(series.count("fo2dt_hist_wire_ms_count")) << exposition;
  EXPECT_EQ(series["fo2dt_hist_wire_ms_count"], kTotal);
  EXPECT_EQ(series["fo2dt_hist_wire_ms_bucket{le=\"+Inf\"}"], kTotal);
  // Derived percentiles pass through as flat gauges for fo2dt_top.
  EXPECT_TRUE(series.count("fo2dt_hist_wire_ms_p50")) << exposition;
  EXPECT_TRUE(series.count("fo2dt_hist_wire_ms_p99")) << exposition;

  // Ladder counters: per-tenant sums equal the per-tenant request counts.
  auto tenant_sum = [&series](const std::string& tenant) {
    double sum = 0;
    for (const char* outcome : {"admitted", "degraded_light",
                                "degraded_heavy", "rejected"}) {
      sum += series["fo2dt_tenant_requests_total{tenant=\"" + tenant +
                    "\",outcome=\"" + outcome + "\"}"];
    }
    return sum;
  };
  EXPECT_EQ(tenant_sum("acme"), kEasyCount);
  EXPECT_EQ(tenant_sum("blue"), kHardCount);
  // Per-tenant latency histograms count every sent response for the tenant.
  EXPECT_EQ(series["fo2dt_hist_tenant_wire_ms_count{tenant=\"acme\"}"],
            kEasyCount);
  EXPECT_EQ(series["fo2dt_hist_tenant_wire_ms_count{tenant=\"blue\"}"],
            kHardCount);

  // Queue-wait, solve-wall, and memory histograms cover exactly the solves
  // that actually executed: everything not rejected at admission.
  double rejected =
      series["fo2dt_tenant_requests_total{tenant=\"acme\","
             "outcome=\"rejected\"}"] +
      series["fo2dt_tenant_requests_total{tenant=\"blue\","
             "outcome=\"rejected\"}"];
  EXPECT_EQ(series["fo2dt_hist_queue_wait_ms_count"], kTotal - rejected);
  EXPECT_EQ(series["fo2dt_hist_solve_wall_ms_count"], kTotal - rejected);
  EXPECT_EQ(series["fo2dt_hist_solve_mem_bytes_count"], kTotal - rejected);

  // Live gauges exist (values are load-dependent; presence is the contract).
  EXPECT_TRUE(series.count("fo2dt_server_queue_depth")) << exposition;
  EXPECT_TRUE(series.count("fo2dt_server_workers_busy")) << exposition;

  EXPECT_EQ(StopDaemon(pid), 0);
}

}  // namespace
}  // namespace fo2dt
