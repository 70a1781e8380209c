/// \file bigint.h
/// \brief Arbitrary-precision signed integers with an inline int64 fast path.
///
/// The LCTA emptiness procedure (Theorem 2) solves existential Presburger
/// constraints with an exact-rational simplex; pivoting blows past 64 bits
/// quickly, so all solver arithmetic is done over BigInt/Rational.
///
/// Representation: 16 bytes. Values that fit a machine int64 are stored
/// inline with no heap allocation (the overwhelmingly common case in solver
/// pivots); only on overflow does a value spill into one owned heap block
/// holding a sign + little-endian base-2^32 limb vector. The representation
/// is canonical — a value is heap-backed iff it does not fit int64 — so
/// equality and hashing never compare across representations. Results are
/// demoted back to the inline form whenever they shrink into range.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace fo2dt {

/// \brief Arbitrary-precision signed integer.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a machine integer (implicit: BigInt is a drop-in numeric type).
  BigInt(int64_t v) : small_(v) {}  // NOLINT: implicit by design

  BigInt(const BigInt& o)
      : small_(o.small_),
        heap_(o.heap_ ? std::make_unique<Heap>(*o.heap_) : nullptr) {}
  BigInt& operator=(const BigInt& o) {
    if (this != &o) {
      small_ = o.small_;
      if (!o.heap_) {
        heap_.reset();
      } else if (heap_) {
        *heap_ = *o.heap_;
      } else {
        heap_ = std::make_unique<Heap>(*o.heap_);
      }
    }
    return *this;
  }
  // A moved-from heap value is left as inline zero (small_ is 0 there).
  BigInt(BigInt&&) noexcept = default;
  BigInt& operator=(BigInt&&) noexcept = default;

  /// Parses an optionally signed decimal string.
  static Result<BigInt> FromString(const std::string& text);

  /// Decimal rendering, e.g. "-123".
  std::string ToString() const;

  /// Value as int64_t, or Overflow if out of range.
  Result<int64_t> ToInt64() const;
  /// Value as double (may lose precision; infinity on huge values).
  double ToDouble() const;

  bool IsZero() const { return !heap_ && small_ == 0; }
  bool IsOne() const { return !heap_ && small_ == 1; }
  bool IsNegative() const { return heap_ ? heap_->negative : small_ < 0; }
  bool IsPositive() const { return heap_ ? !heap_->negative : small_ > 0; }
  /// True when the value fits the inline int64 representation.
  bool FitsInt64() const { return !heap_; }
  /// The inline value. Precondition: FitsInt64().
  int64_t Small() const { return small_; }

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  /// Truncated division (C semantics: quotient rounds toward zero).
  /// Precondition: !o.IsZero().
  BigInt operator/(const BigInt& o) const;
  /// Remainder matching truncated division: (a/b)*b + a%b == a.
  /// Precondition: !o.IsZero().
  BigInt operator%(const BigInt& o) const;

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }
  BigInt& operator/=(const BigInt& o) { return *this = *this / o; }
  BigInt& operator%=(const BigInt& o) { return *this = *this % o; }

  /// Three-way comparison: negative, zero, positive.
  int Compare(const BigInt& o) const {
    if (!heap_ && !o.heap_) {
      return small_ < o.small_ ? -1 : (small_ > o.small_ ? 1 : 0);
    }
    return CompareSlow(o);
  }

  bool operator==(const BigInt& o) const { return Compare(o) == 0; }
  bool operator!=(const BigInt& o) const { return Compare(o) != 0; }
  bool operator<(const BigInt& o) const { return Compare(o) < 0; }
  bool operator<=(const BigInt& o) const { return Compare(o) <= 0; }
  bool operator>(const BigInt& o) const { return Compare(o) > 0; }
  bool operator>=(const BigInt& o) const { return Compare(o) >= 0; }

  /// Floor division: rounds toward negative infinity.
  /// Precondition: !o.IsZero().
  BigInt FloorDiv(const BigInt& o) const;
  /// Ceiling division: rounds toward positive infinity.
  /// Precondition: !o.IsZero().
  BigInt CeilDiv(const BigInt& o) const;

  /// Greatest common divisor; always non-negative. Gcd(0,0) == 0.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  /// Hash suitable for unordered containers.
  size_t Hash() const;

 private:
  // Sign + magnitude view of either representation: inline values
  // materialize limbs into `storage`, heap values are referenced in place.
  // (No self-referential pointer, so the view is safely movable.)
  struct MagView {
    bool negative = false;
    bool inline_rep = true;
    std::vector<uint32_t> storage;
    const std::vector<uint32_t>* heap = nullptr;
    const std::vector<uint32_t>& mag() const {
      return inline_rep ? storage : *heap;
    }
  };
  MagView View() const;

  // Builds the canonical representation from sign + magnitude (demotes to the
  // inline form when the value fits int64).
  static BigInt FromMag(bool negative, std::vector<uint32_t> mag);
  static BigInt FromMagU64(bool negative, uint64_t mag);

  int CompareSlow(const BigInt& o) const;

  // Comparison/arithmetic on magnitudes only (interpret as non-negative).
  static int CompareMag(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b);
  static std::vector<uint32_t> AddMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  // Precondition: a >= b as magnitudes.
  static std::vector<uint32_t> SubMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  // Quotient and remainder of magnitudes. Precondition: !b.empty().
  static void DivModMag(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b,
                        std::vector<uint32_t>* q, std::vector<uint32_t>* r);
  static void TrimMag(std::vector<uint32_t>* m);

  // Heap representation (canonical: only for |value| beyond int64).
  struct Heap {
    bool negative = false;
    std::vector<uint32_t> mag;  // little-endian base 2^32
  };

  // The value when heap_ is null; 0 otherwise.
  int64_t small_ = 0;
  std::unique_ptr<Heap> heap_;
};

/// Stream rendering in decimal (for tests and diagnostics).
std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace fo2dt

