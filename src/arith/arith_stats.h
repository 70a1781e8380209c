/// \file arith_stats.h
/// \brief Counters for the BigInt small-int fast path.
///
/// Every BigInt arithmetic operation (+ - * / % gcd compare) records whether
/// it was served entirely by the inline int64 representation or had to touch
/// the multi-limb slow path, and every result that leaves int64 is counted.
/// Benchmarks report the fast-path rate and the wide results to prove where
/// solver time goes.

#pragma once

#include <cstdint>

#include "common/thread_stats.h"

namespace fo2dt {

struct ArithCounters {
  /// Operations completed on the inline int64 representation.
  uint64_t small_ops = 0;
  /// Operations that needed multi-limb (heap) arithmetic.
  uint64_t big_ops = 0;
  /// Results that left int64, each one a heap-backed value: the coefficient
  /// growth of exact elimination, 0 while the simplex stays on machine words.
  uint64_t wide_results = 0;

  void AddTo(ArithCounters* out) const {
    out->small_ops += small_ops;
    out->big_ops += big_ops;
    out->wide_results += wide_results;
  }
  void Clear() { *this = ArithCounters(); }

  /// Fraction of operations served by the fast path (1.0 when idle).
  double FastPathRate() const {
    uint64_t total = small_ops + big_ops;
    return total == 0 ? 1.0 : static_cast<double>(small_ops) / static_cast<double>(total);
  }
};

using ArithStats = ThreadStats<ArithCounters>;

}  // namespace fo2dt

