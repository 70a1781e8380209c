/// \file perf.h
/// \brief The subcommands of fo2dt_perf, the benchmark's own executable.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fo2dt::perfbench {

/// One line of a request file written by `fo2dt_perf gen`:
///   <index> TAB <conn> TAB <expect> TAB <family> TAB <request line>
struct RequestRecord {
  size_t index = 0;
  size_t conn = 0;
  std::string expect;
  std::string family;
  std::string line;
};

bool ReadRequestFile(const std::string& path, std::vector<RequestRecord>* out);

struct DriveOptions {
  std::string socket_path;
  std::string requests_path;
  std::string out_path;
  size_t conns = 1;
  bool open_loop = false;
  /// Offered rate (requests/s) of the open loop.
  double rate = 0;
  /// Sending stops after this long; the client then waits for answers.
  double seconds = 1;
  /// Seeds the open loop's arrival schedule.
  uint64_t seed = 0;
};

/// Drives a running fo2dtd; see drive.cc for the output format.
int RunDrive(const DriveOptions& options);

struct ReplayOptions {
  std::string requests_path;
  /// Replays the first `count` requests of the file.
  size_t count = 0;
  /// Span file of the first traced pass (JSON lines).
  std::string spans_path;
  /// Per-request in-process time (parse + exec + respond), for wait times.
  std::string inproc_path;
};

/// Replays request lines in-process on one thread (two traced passes and
/// one untraced pass) and prints the per-layer metrics as one JSON object.
int RunReplay(const ReplayOptions& options);

}  // namespace fo2dt::perfbench
