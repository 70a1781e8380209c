/// \file rational.h
/// \brief Exact rational numbers over BigInt.
///
/// Invariant: denominator > 0 and gcd(|num|, den) == 1; zero is 0/1.
///
/// 32 bytes (two 16-byte BigInts). When every operand's numerator and
/// denominator fit int64, + - * / and Compare compute in __int128
/// and reduce with one gcd; they fall back to BigInt arithmetic only when a
/// reduced part leaves int64, so the canonical form is the same either way.

#pragma once

#include <string>

#include "arith/bigint.h"

namespace fo2dt {

/// \brief Exact rational number (normalized fraction of BigInts).
class Rational {
 public:
  /// Zero.
  Rational() : num_(0), den_(1) {}
  /// From an integer (implicit: Rational is a drop-in numeric type).
  Rational(int64_t v) : num_(v), den_(1) {}  // NOLINT: implicit by design
  Rational(BigInt v) : num_(std::move(v)), den_(1) {}  // NOLINT
  /// num/den; normalizes sign and reduces. Precondition: !den.IsZero().
  Rational(BigInt num, BigInt den);

  const BigInt& num() const { return num_; }
  const BigInt& den() const { return den_; }

  bool IsZero() const { return num_.IsZero(); }
  bool IsNegative() const { return num_.IsNegative(); }
  bool IsPositive() const { return num_.IsPositive(); }
  /// True when the value is exactly 1.
  bool IsOne() const { return num_.IsOne() && den_.IsOne(); }
  /// True when the denominator is 1.
  bool IsInteger() const { return den_.IsOne(); }

  Rational operator-() const;
  Rational operator+(const Rational& o) const;
  Rational operator-(const Rational& o) const;
  Rational operator*(const Rational& o) const;
  /// Precondition: !o.IsZero().
  Rational operator/(const Rational& o) const;

  Rational& operator+=(const Rational& o) { return *this = *this + o; }
  Rational& operator-=(const Rational& o) { return *this = *this - o; }
  Rational& operator*=(const Rational& o) { return *this = *this * o; }
  Rational& operator/=(const Rational& o) { return *this = *this / o; }

  int Compare(const Rational& o) const;
  bool operator==(const Rational& o) const { return Compare(o) == 0; }
  bool operator!=(const Rational& o) const { return Compare(o) != 0; }
  bool operator<(const Rational& o) const { return Compare(o) < 0; }
  bool operator<=(const Rational& o) const { return Compare(o) <= 0; }
  bool operator>(const Rational& o) const { return Compare(o) > 0; }
  bool operator>=(const Rational& o) const { return Compare(o) >= 0; }

  /// Largest integer <= this.
  BigInt Floor() const { return num_.FloorDiv(den_); }
  /// Smallest integer >= this.
  BigInt Ceil() const { return num_.CeilDiv(den_); }

  double ToDouble() const { return num_.ToDouble() / den_.ToDouble(); }
  /// "n" when integral, else "n/d".
  std::string ToString() const;

 private:
  void Normalize();
  /// True when numerator and denominator both fit int64.
  bool SmallParts() const { return num_.FitsInt64() && den_.FitsInt64(); }
  /// Sets *this to n/d (d > 0) reduced by one gcd. Returns false, leaving
  /// *this untouched, when a reduced part does not fit int64.
  bool TryAssign(__int128 n, __int128 d);

  BigInt num_;
  BigInt den_;
};

std::ostream& operator<<(std::ostream& os, const Rational& v);

}  // namespace fo2dt

