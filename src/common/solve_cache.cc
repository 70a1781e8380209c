#include "common/solve_cache.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/execution_context.h"
#include "common/flight_recorder.h"
#include "common/hash.h"
#include "common/query_log.h"
#include "common/registry_names.h"
#include "common/strings.h"

namespace fo2dt {

namespace {

// Bump when the on-disk line format changes; folded into the fingerprint so
// old files self-invalidate.
constexpr uint64_t kCacheSchemaVersion = 1;

// Fixed per-entry overhead estimate (map node, LRU node, bookkeeping).
constexpr uint64_t kEntryOverheadBytes = 128;

/// Inverse of JsonEscape for the escape set it emits. Returns false on a
/// malformed escape (the loader then skips the line).
bool JsonUnescape(const std::string& in, std::string* out) {
  out->clear();
  out->reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= in.size()) return false;
    switch (in[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'u': {
        if (i + 4 >= in.size()) return false;
        unsigned value = 0;
        for (int k = 0; k < 4; ++k) {
          char h = in[i + 1 + static_cast<size_t>(k)];
          value <<= 4;
          if (h >= '0' && h <= '9') value |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') value |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') value |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        if (value > 0xff) return false;
        out->push_back(static_cast<char>(value));
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return true;
}

std::string Quoted(const std::string& s) { return "\"" + JsonEscape(s) + "\""; }

/// Splits one cache line into whitespace-separated tokens, where a token
/// starting with '"' runs (escape-aware) to its closing quote and is
/// unescaped. Returns false on malformed quoting.
bool Tokenize(const std::string& line, std::vector<std::string>* tokens) {
  tokens->clear();
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) break;
    if (line[i] == '"') {
      size_t j = i + 1;
      std::string raw;
      while (j < line.size() && line[j] != '"') {
        if (line[j] == '\\') {
          if (j + 1 >= line.size()) return false;
          raw.push_back(line[j]);
          raw.push_back(line[j + 1]);
          j += 2;
        } else {
          raw.push_back(line[j]);
          ++j;
        }
      }
      if (j >= line.size()) return false;  // unterminated quote
      std::string cooked;
      if (!JsonUnescape(raw, &cooked)) return false;
      tokens->push_back(std::move(cooked));
      i = j + 1;
    } else {
      size_t j = line.find(' ', i);
      if (j == std::string::npos) j = line.size();
      tokens->push_back(line.substr(i, j - i));
      i = j;
    }
  }
  return true;
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

/// Profile blob: "d=<ilp_max_depth>;m=<mem_high_water>" then one
/// ";<phase>:<calls>:<wall_ns>:<effort>:<mem_peak>" per phase that ran.
/// Empty string means "no profile recorded". StopReason is not serialized:
/// cached verdicts are definite, so stop is always kind == kNone.
std::string SerializeProfile(const std::optional<PhaseProfile>& profile) {
  if (!profile.has_value()) return "";
  std::string out = StringFormat(
      "d=%llu;m=%llu",
      static_cast<unsigned long long>(profile->ilp_max_depth),
      static_cast<unsigned long long>(profile->mem_high_water));
  for (size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseProfile::Entry& e = profile->phases[i];
    if (e.calls == 0) continue;
    out += StringFormat(";%llu:%llu:%llu:%llu:%llu",
                        static_cast<unsigned long long>(i),
                        static_cast<unsigned long long>(e.calls),
                        static_cast<unsigned long long>(e.wall_ns),
                        static_cast<unsigned long long>(e.effort),
                        static_cast<unsigned long long>(e.mem_peak));
  }
  return out;
}

std::optional<PhaseProfile> ParseProfile(const std::string& blob) {
  if (blob.empty()) return std::nullopt;
  PhaseProfile profile;
  bool have_gauges = false;
  for (const std::string& part : SplitString(blob, ';')) {
    if (StartsWith(part, "d=")) {
      if (!ParseU64(part.substr(2), &profile.ilp_max_depth)) return std::nullopt;
      continue;
    }
    if (StartsWith(part, "m=")) {
      if (!ParseU64(part.substr(2), &profile.mem_high_water)) return std::nullopt;
      have_gauges = true;
      continue;
    }
    std::vector<std::string> fields = SplitString(part, ':');
    if (fields.size() != 5) return std::nullopt;
    uint64_t idx = 0;
    if (!ParseU64(fields[0], &idx) || idx >= kPhaseCount) return std::nullopt;
    PhaseProfile::Entry& e = profile.phases[idx];
    if (!ParseU64(fields[1], &e.calls) || !ParseU64(fields[2], &e.wall_ns) ||
        !ParseU64(fields[3], &e.effort) || !ParseU64(fields[4], &e.mem_peak)) {
      return std::nullopt;
    }
  }
  if (!have_gauges) return std::nullopt;
  return profile;
}

bool IsDefiniteVerdict(const std::string& verdict) {
  return !verdict.empty() && verdict != "UNKNOWN" &&
         verdict.rfind("ERROR:", 0) != 0;
}

uint64_t EntryBytes(const std::string& key, const SolveCacheEntry& entry) {
  return kEntryOverheadBytes + key.size() + entry.verdict.size() +
         entry.method.size() + entry.payload.size() +
         (entry.profile.has_value() ? sizeof(PhaseProfile) : 0);
}

}  // namespace

SolveCache& SolveCache::Instance() {
  static SolveCache* cache = new SolveCache();  // leaked: process lifetime
  return *cache;
}

SolveCache::SolveCache() {
  const char* file = std::getenv("FO2DT_CACHE_FILE");
  const char* flag = std::getenv("FO2DT_CACHE");
  const char* bytes = std::getenv("FO2DT_CACHE_BYTES");
  if (file != nullptr && file[0] != '\0') {
    config_.enabled = true;
    config_.file = file;
  }
  if (flag != nullptr) config_.enabled = flag[0] == '1';
  if (bytes != nullptr) {
    uint64_t budget = 0;
    if (ParseU64(bytes, &budget) && budget > 0) config_.max_bytes = budget;
  }
  if (config_.enabled && !config_.file.empty()) {
    ScopedRankedLock lock(mu_);
    LoadFileLocked();
  }
}

uint64_t SolveCache::BuildFingerprint() {
  // Schema version + build stamp: any rebuild (and any line-format change)
  // starts a fresh fingerprint section, so persisted entries never outlive
  // the binary that wrote them.
  Fnv1aHasher hasher;
  hasher.MixU64(kCacheSchemaVersion);
  hasher.MixString(__DATE__ " " __TIME__);
  return hasher.hash();
}

uint64_t SolveCache::FingerprintLocked() const {
  return config_.fingerprint != 0 ? config_.fingerprint : BuildFingerprint();
}

void SolveCache::Configure(SolveCacheConfig config) {
  ScopedRankedLock lock(mu_);
  config_ = std::move(config);
  lru_.clear();
  solve_.clear();
  sub_.clear();
  bytes_ = 0;
  header_written_ = false;
  if (config_.enabled && !config_.file.empty()) LoadFileLocked();
}

SolveCacheConfig SolveCache::config() const {
  ScopedRankedLock lock(mu_);
  return config_;
}

bool SolveCache::enabled() const {
  ScopedRankedLock lock(mu_);
  return config_.enabled;
}

uint64_t SolveCache::fingerprint() const {
  ScopedRankedLock lock(mu_);
  return FingerprintLocked();
}

void SolveCache::LoadFileLocked() {
  std::FILE* f = std::fopen(config_.file.c_str(), "r");
  if (f == nullptr) return;  // no file yet: first run
  std::string content;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);

  const uint64_t want = FingerprintLocked();
  bool section_matches = false;
  for (const std::string& line : SplitString(content, '\n')) {
    std::vector<std::string> tokens;
    if (!Tokenize(line, &tokens) || tokens.empty()) continue;
    if (tokens[0] == "fingerprint" && tokens.size() == 2) {
      section_matches = tokens[1] == HashToHex(want);
      continue;
    }
    if (!section_matches || tokens[0] != "entry" || tokens.size() != 7) {
      continue;
    }
    SolveCacheEntry entry;
    entry.verdict = tokens[2];
    entry.method = tokens[3];
    if (!ParseU64(tokens[4], &entry.steps)) continue;
    entry.profile = ParseProfile(tokens[5]);
    entry.payload = tokens[6];
    if (!IsDefiniteVerdict(entry.verdict)) continue;
    Stored stored;
    stored.bytes = EntryBytes(tokens[1], entry);
    stored.entry = std::move(entry);
    InsertLocked(Slot::kSolve, tokens[1], std::move(stored));
  }
}

void SolveCache::AppendEntryLocked(const std::string& key,
                                   const SolveCacheEntry& entry) {
  if (config_.file.empty()) return;
  // Build the full append (header + entry) and issue it as one O_APPEND
  // write(): a daemon killed mid-drain leaves either complete lines or
  // nothing, never a truncated entry for the loader to choke on (the loader
  // skips malformed lines regardless, as defense in depth).
  std::string chunk;
  if (!header_written_) {
    chunk += StringFormat("fingerprint %s\n",
                          HashToHex(FingerprintLocked()).c_str());
  }
  chunk += StringFormat("entry %s %s %s %llu %s %s\n", key.c_str(),
                        Quoted(entry.verdict).c_str(),
                        Quoted(entry.method).c_str(),
                        static_cast<unsigned long long>(entry.steps),
                        Quoted(SerializeProfile(entry.profile)).c_str(),
                        Quoted(entry.payload).c_str());
  int fd = ::open(config_.file.c_str(),
                  O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return;  // caching must never fail the solve
  ssize_t written;
  do {
    written = ::write(fd, chunk.data(), chunk.size());
  } while (written < 0 && errno == EINTR);
  (void)::close(fd);
  if (written >= 0 && static_cast<size_t>(written) == chunk.size()) {
    header_written_ = true;
  }
}

void SolveCache::EvictLocked() {
  while (bytes_ > config_.max_bytes && !lru_.empty()) {
    const auto& [slot, key] = lru_.front();
    auto& store = slot == Slot::kSolve ? solve_ : sub_;
    auto it = store.find(key);
    if (it != store.end()) {
      bytes_ -= it->second.bytes;
      store.erase(it);
    }
    ++(slot == Slot::kSolve ? counts_.solve_evictions : counts_.sub_evictions);
    lru_.pop_front();
  }
}

void SolveCache::InsertLocked(Slot slot, const std::string& key,
                              Stored stored) {
  auto& store = slot == Slot::kSolve ? solve_ : sub_;
  auto it = store.find(key);
  if (it != store.end()) {
    // Refresh: keep the first-stored result but bump recency.
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
    return;
  }
  lru_.emplace_back(slot, key);
  stored.lru_it = std::prev(lru_.end());
  bytes_ += stored.bytes;
  store.emplace(key, std::move(stored));
  EvictLocked();
}

std::optional<SolveCacheEntry> SolveCache::Lookup(const std::string& key) {
  ScopedRankedLock lock(mu_);
  if (!config_.enabled) return std::nullopt;
  auto it = solve_.find(key);
  if (it == solve_.end()) {
    ++counts_.solve_misses;
    NoteSolveCacheDisposition("miss");
    return std::nullopt;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru_it);
  ++counts_.solve_hits;
  NoteSolveCacheDisposition("hit");
  return it->second.entry;
}

void SolveCache::Insert(const std::string& key, const SolveCacheEntry& entry,
                        const ExecutionContext* exec, const char* module) {
  if (!IsDefiniteVerdict(entry.verdict)) return;  // kUnknown never cached
  const uint64_t bytes = EntryBytes(key, entry);
  // Charge the inserting solve's governor first: a solve over its memory
  // budget must not grow the cache (it skips caching, never fails).
  if (exec != nullptr && !exec->ChargeMemory(bytes, module).ok()) return;
  ScopedRankedLock lock(mu_);
  if (!config_.enabled) return;
  const bool fresh = solve_.find(key) == solve_.end();
  Stored stored;
  stored.entry = entry;
  stored.bytes = bytes;
  InsertLocked(Slot::kSolve, key, std::move(stored));
  if (fresh) AppendEntryLocked(key, entry);
}

std::optional<std::string> SolveCache::LookupSub(const std::string& key) {
  ScopedRankedLock lock(mu_);
  if (!config_.enabled) return std::nullopt;
  auto it = sub_.find(key);
  // Sub-memo traffic never stamps the query-log `cache` field: the field
  // reports the verdict-level disposition, and a body-memo hit ahead of a
  // verdict miss must not masquerade as a served solve.
  if (it == sub_.end()) {
    ++counts_.sub_misses;
    return std::nullopt;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru_it);
  ++counts_.sub_hits;
  return it->second.value;
}

void SolveCache::InsertSub(const std::string& key, std::string value,
                           const ExecutionContext* exec, const char* module) {
  const uint64_t bytes = kEntryOverheadBytes + key.size() + value.size();
  if (exec != nullptr && !exec->ChargeMemory(bytes, module).ok()) return;
  ScopedRankedLock lock(mu_);
  if (!config_.enabled) return;
  Stored stored;
  stored.value = std::move(value);
  stored.bytes = bytes;
  InsertLocked(Slot::kSub, key, std::move(stored));
}

SolveCache::Stats SolveCache::stats() const {
  ScopedRankedLock lock(mu_);
  Stats out = counts_;
  out.entries = solve_.size() + sub_.size();
  out.bytes = bytes_;
  return out;
}

void SolveCache::Clear() {
  ScopedRankedLock lock(mu_);
  lru_.clear();
  solve_.clear();
  sub_.clear();
  bytes_ = 0;
  counts_ = Stats();
}

namespace {

// Federates the cache counters and the resident gauges into the unified
// MetricsRegistry, so fo2dt_report sees hit rates without bespoke plumbing.
const MetricsSourceRegistrar kSolveCacheMetricsSource(
    "solve_cache",
    [](MetricsSnapshot* snap) {
      SolveCache::Stats s = SolveCache::Instance().stats();
      snap->Set(names::kMetricCacheSolveHits, static_cast<double>(s.solve_hits));
      snap->Set(names::kMetricCacheSolveMisses,
                static_cast<double>(s.solve_misses));
      snap->Set(names::kMetricCacheSubHits, static_cast<double>(s.sub_hits));
      snap->Set(names::kMetricCacheSubMisses,
                static_cast<double>(s.sub_misses));
      snap->Set(names::kMetricCacheSolveEvictions,
                static_cast<double>(s.solve_evictions));
      snap->Set(names::kMetricCacheSubEvictions,
                static_cast<double>(s.sub_evictions));
      snap->Set(names::kMetricCacheSolveEntries,
                static_cast<double>(s.entries));
      snap->Set(names::kMetricCacheSolveBytes, static_cast<double>(s.bytes));
    },
    [] {});

}  // namespace

std::string SolveCacheKey(const char* facade, const std::string& body) {
  return HashToHex(Fnv1a64(std::string(facade) + "\n" + body));
}

}  // namespace fo2dt
