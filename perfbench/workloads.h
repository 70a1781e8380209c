/// \file workloads.h
/// \brief Seeded request generators for the fo2dtd benchmark.
///
/// Every request carries the outcome the generator expects, derived from
/// how it built the instance (which family, which bound, which constraint
/// variant) and never from running a solver. The daemon only ever sees the
/// request line.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fo2dt::perfbench {

/// One generated solve request.
struct BenchRequest {
  size_t index = 0;
  /// Connection (and tenant) the request is sent on.
  size_t conn = 0;
  std::string facade;
  /// Facade body lines joined with '\n' (the server/facade_exec.h grammar).
  std::string body;
  /// Known answer: SAT, UNSAT, UNKNOWN (bound exhausted), ACCEPT or REJECT.
  std::string expect;
  /// Family tag, e.g. "keyfk.k2" or "frontend.distinct"; "+repeat" or
  /// "+reordered" is appended to instances that repeat an earlier one.
  std::string family;
};

/// The first \p count requests of \p workload's stream for \p seed. The
/// same (workload, seed) always yields the same requests, and a shorter
/// stream is a prefix of a longer one. Throws std::invalid_argument for an
/// unknown workload.
std::vector<BenchRequest> GenerateWorkload(const std::string& workload,
                                           uint64_t seed, size_t count);

/// The wire line the daemon receives for \p r (no trailing newline).
std::string RequestLine(const BenchRequest& r, uint64_t seed);

}  // namespace fo2dt::perfbench
