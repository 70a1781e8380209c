#include "arith/rational.h"

#include <ostream>
#include <utility>

#include "arith/arith_stats.h"

namespace fo2dt {

namespace {

using i128 = __int128;
using u128 = unsigned __int128;

// A Rational op served by the int64/__int128 fast path counts as one
// fast-path op, as the BigInt ops it replaces did.
inline void CountSmall() { ++ArithStats::Local().small_ops; }

inline bool Fits64(i128 v) { return v >= INT64_MIN && v <= INT64_MAX; }

inline u128 Abs128(i128 v) {
  return v < 0 ? -static_cast<u128>(v) : static_cast<u128>(v);
}

inline int Ctz128(u128 v) {
  const uint64_t lo = static_cast<uint64_t>(v);
  return lo != 0 ? __builtin_ctzll(lo)
                 : 64 + __builtin_ctzll(static_cast<uint64_t>(v >> 64));
}

// Binary gcd; Gcd(0, b) == b.
uint64_t Gcd64(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return a | b;
  const int shift = __builtin_ctzll(a | b);
  a >>= __builtin_ctzll(a);
  do {
    b >>= __builtin_ctzll(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

u128 Gcd128(u128 a, u128 b) {
  if ((a >> 64) == 0 && (b >> 64) == 0) {
    return Gcd64(static_cast<uint64_t>(a), static_cast<uint64_t>(b));
  }
  if (a == 0 || b == 0) return a | b;
  const int shift = Ctz128(a | b);
  a >>= Ctz128(a);
  do {
    b >>= Ctz128(b);
    if (a > b) std::swap(a, b);
    b -= a;
  } while (b != 0);
  return a << shift;
}

}  // namespace

Rational::Rational(BigInt num, BigInt den)
    : num_(std::move(num)), den_(std::move(den)) {
  Normalize();
}

bool Rational::TryAssign(i128 n, i128 d) {
  if (d != 1) {
    const u128 g = Gcd128(Abs128(n), static_cast<u128>(d));
    if (g != 1) {
      if (Fits64(n) && d <= INT64_MAX) {
        // g <= d < 2^63 here, so 64-bit division is exact and cannot trap.
        n = static_cast<int64_t>(n) / static_cast<int64_t>(g);
        d = static_cast<int64_t>(d) / static_cast<int64_t>(g);
      } else {
        n /= static_cast<i128>(g);
        d /= static_cast<i128>(g);
      }
    }
  }
  if (!Fits64(n) || d > INT64_MAX) return false;
  num_ = BigInt(static_cast<int64_t>(n));
  den_ = BigInt(static_cast<int64_t>(d));
  CountSmall();
  return true;
}

void Rational::Normalize() {
  if (SmallParts()) {
    i128 n = num_.Small();
    i128 d = den_.Small();
    if (d < 0) {
      n = -n;
      d = -d;
    }
    if (TryAssign(n, d)) return;
  }
  if (den_.IsNegative()) {
    num_ = -num_;
    den_ = -den_;
  }
  if (den_.IsOne()) return;  // already reduced: n/1
  if (num_.IsZero()) {
    den_ = BigInt(1);
    return;
  }
  BigInt g = BigInt::Gcd(num_, den_);
  if (!g.IsOne()) {
    num_ /= g;
    den_ /= g;
  }
}

Rational Rational::operator-() const {
  Rational out = *this;
  out.num_ = -out.num_;
  return out;
}

Rational Rational::operator+(const Rational& o) const {
  if (SmallParts() && o.SmallParts()) {
    const i128 a = num_.Small(), b = den_.Small();
    const i128 c = o.num_.Small(), e = o.den_.Small();
    Rational out;
    if (b == e ? out.TryAssign(a + c, b)
               : out.TryAssign(a * e + c * b, b * e)) {
      return out;
    }
  }
  return Rational(num_ * o.den_ + o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator-(const Rational& o) const {
  if (SmallParts() && o.SmallParts()) {
    const i128 a = num_.Small(), b = den_.Small();
    const i128 c = o.num_.Small(), e = o.den_.Small();
    Rational out;
    if (b == e ? out.TryAssign(a - c, b)
               : out.TryAssign(a * e - c * b, b * e)) {
      return out;
    }
  }
  return Rational(num_ * o.den_ - o.num_ * den_, den_ * o.den_);
}

Rational Rational::operator*(const Rational& o) const {
  if (SmallParts() && o.SmallParts()) {
    Rational out;
    if (out.TryAssign(static_cast<i128>(num_.Small()) * o.num_.Small(),
                      static_cast<i128>(den_.Small()) * o.den_.Small())) {
      return out;
    }
  }
  return Rational(num_ * o.num_, den_ * o.den_);
}

Rational Rational::operator/(const Rational& o) const {
  if (SmallParts() && o.SmallParts()) {
    i128 n = static_cast<i128>(num_.Small()) * o.den_.Small();
    i128 d = static_cast<i128>(den_.Small()) * o.num_.Small();
    if (d < 0) {
      n = -n;
      d = -d;
    }
    Rational out;
    if (out.TryAssign(n, d)) return out;
  }
  return Rational(num_ * o.den_, den_ * o.num_);
}

Rational& Rational::SubMul(const Rational& f, const Rational& b) {
  if (SmallParts() && f.SmallParts() && b.SmallParts()) {
    // p/q = f*b unreduced; when both fit int64, x/y - p/q stays within
    // __int128 (each cross product is below 2^126).
    const i128 p = static_cast<i128>(f.num_.Small()) * b.num_.Small();
    const i128 q = static_cast<i128>(f.den_.Small()) * b.den_.Small();
    if (Fits64(p) && q <= INT64_MAX) {
      const i128 x = num_.Small();
      const i128 y = den_.Small();
      if (y == q ? TryAssign(x - p, y) : TryAssign(x * q - p * y, y * q)) {
        return *this;
      }
    }
  }
  return *this -= f * b;
}

int Rational::Compare(const Rational& o) const {
  if (den_ == o.den_) return num_.Compare(o.num_);
  if (SmallParts() && o.SmallParts()) {
    CountSmall();
    const i128 l = static_cast<i128>(num_.Small()) * o.den_.Small();
    const i128 r = static_cast<i128>(o.num_.Small()) * den_.Small();
    return l < r ? -1 : (l > r ? 1 : 0);
  }
  return (num_ * o.den_).Compare(o.num_ * den_);
}

std::string Rational::ToString() const {
  if (IsInteger()) return num_.ToString();
  return num_.ToString() + "/" + den_.ToString();
}

std::ostream& operator<<(std::ostream& os, const Rational& v) {
  return os << v.ToString();
}

}  // namespace fo2dt
