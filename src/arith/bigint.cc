#include "arith/bigint.h"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "arith/arith_stats.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/registry_names.h"

namespace fo2dt {

namespace {

// Federates the BigInt fast-path counters into the unified MetricsRegistry.
const MetricsSourceRegistrar kArithMetricsSource(
    "arith",
    [](MetricsSnapshot* snap) {
      ArithCounters c = ArithStats::Aggregate();
      snap->Set(names::kMetricArithSmallOps, static_cast<double>(c.small_ops));
      snap->Set(names::kMetricArithBigOps, static_cast<double>(c.big_ops));
      snap->Set(names::kMetricArithFastPathRate, c.FastPathRate());
    },
    [] { ArithStats::Reset(); });

constexpr uint64_t kBase = 1ULL << 32;

// Two's-complement-safe |v| (valid for INT64_MIN).
inline uint64_t Abs64(int64_t v) {
  return v < 0 ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
}

inline void CountSmall() { ++ArithStats::Local().small_ops; }
inline void CountBig() { ++ArithStats::Local().big_ops; }

}  // namespace

BigInt::MagView BigInt::View() const {
  MagView v;
  if (!heap_) {
    v.negative = small_ < 0;
    uint64_t u = Abs64(small_);
    if (u) v.storage.push_back(static_cast<uint32_t>(u & 0xffffffffULL));
    if (u >> 32) v.storage.push_back(static_cast<uint32_t>(u >> 32));
    v.inline_rep = true;
  } else {
    v.negative = heap_->negative;
    v.heap = &heap_->mag;
    v.inline_rep = false;
  }
  return v;
}

BigInt BigInt::FromMagU64(bool negative, uint64_t mag) {
  if (mag <= (negative ? 0x8000000000000000ULL : 0x7fffffffffffffffULL)) {
    // ~mag + 1 is two's-complement negation; the cast is defined in C++20.
    return BigInt(negative ? static_cast<int64_t>(~mag + 1)
                           : static_cast<int64_t>(mag));
  }
  BigInt out;
  out.heap_ = std::make_unique<Heap>();
  out.heap_->negative = negative;
  out.heap_->mag.push_back(static_cast<uint32_t>(mag & 0xffffffffULL));
  if (mag >> 32) out.heap_->mag.push_back(static_cast<uint32_t>(mag >> 32));
  return out;
}

BigInt BigInt::FromMag(bool negative, std::vector<uint32_t> mag) {
  TrimMag(&mag);
  if (mag.size() <= 2) {
    uint64_t u = mag.empty() ? 0 : mag[0];
    if (mag.size() == 2) u |= static_cast<uint64_t>(mag[1]) << 32;
    return FromMagU64(negative, u);
  }
  BigInt out;
  out.heap_ = std::make_unique<Heap>(Heap{negative, std::move(mag)});
  return out;
}

void BigInt::TrimMag(std::vector<uint32_t>* m) {
  while (!m->empty() && m->back() == 0) m->pop_back();
}

int BigInt::CompareMag(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

std::vector<uint32_t> BigInt::AddMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  const std::vector<uint32_t>& lo = a.size() < b.size() ? a : b;
  const std::vector<uint32_t>& hi = a.size() < b.size() ? b : a;
  std::vector<uint32_t> out;
  out.reserve(hi.size() + 1);
  uint64_t carry = 0;
  for (size_t i = 0; i < hi.size(); ++i) {
    uint64_t sum = carry + hi[i] + (i < lo.size() ? lo[i] : 0);
    out.push_back(static_cast<uint32_t>(sum & 0xffffffffULL));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<uint32_t>(carry));
  return out;
}

std::vector<uint32_t> BigInt::SubMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out;
  out.reserve(a.size());
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.push_back(static_cast<uint32_t>(diff));
  }
  TrimMag(&out);
  return out;
}

std::vector<uint32_t> BigInt::MulMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = static_cast<uint64_t>(out[i + j]) +
                     static_cast<uint64_t>(a[i]) * b[j] + carry;
      out[i + j] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
    }
    size_t k = i + b.size();
    while (carry) {
      uint64_t cur = static_cast<uint64_t>(out[k]) + carry;
      out[k] = static_cast<uint32_t>(cur & 0xffffffffULL);
      carry = cur >> 32;
      ++k;
    }
  }
  TrimMag(&out);
  return out;
}

void BigInt::DivModMag(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b,
                       std::vector<uint32_t>* q, std::vector<uint32_t>* r) {
  q->clear();
  r->clear();
  if (CompareMag(a, b) < 0) {
    *r = a;
    TrimMag(r);
    return;
  }
  if (b.size() == 1) {
    // Fast path: single-limb divisor.
    uint64_t d = b[0];
    q->assign(a.size(), 0);
    uint64_t rem = 0;
    for (size_t i = a.size(); i-- > 0;) {
      uint64_t cur = (rem << 32) | a[i];
      (*q)[i] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    TrimMag(q);
    if (rem) r->push_back(static_cast<uint32_t>(rem));
    return;
  }
  // Knuth algorithm D with normalization so the divisor's top limb has its
  // high bit set; quotient digit estimates are then off by at most 2.
  int shift = 0;
  uint32_t top = b.back();
  while (!(top & 0x80000000U)) {
    top <<= 1;
    ++shift;
  }
  auto shl = [shift](const std::vector<uint32_t>& v) {
    if (shift == 0) return v;
    std::vector<uint32_t> out(v.size() + 1, 0);
    for (size_t i = 0; i < v.size(); ++i) {
      out[i] |= v[i] << shift;
      out[i + 1] |= static_cast<uint32_t>(
          (static_cast<uint64_t>(v[i]) >> (32 - shift)));
    }
    TrimMag(&out);
    return out;
  };
  std::vector<uint32_t> u = shl(a);
  std::vector<uint32_t> v = shl(b);
  size_t n = v.size();
  size_t m = u.size() - n;
  u.resize(u.size() + 1, 0);
  q->assign(m + 1, 0);
  for (size_t j = m + 1; j-- > 0;) {
    uint64_t numer = (static_cast<uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    uint64_t qhat = numer / v[n - 1];
    uint64_t rhat = numer % v[n - 1];
    while (qhat >= kBase ||
           (n >= 2 &&
            qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2]))) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-subtract qhat*v from u[j..j+n].
    int64_t borrow = 0;
    uint64_t carry = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      int64_t diff = static_cast<int64_t>(u[i + j]) -
                     static_cast<int64_t>(p & 0xffffffffULL) - borrow;
      if (diff < 0) {
        diff += static_cast<int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<uint32_t>(diff);
    }
    int64_t diff = static_cast<int64_t>(u[j + n]) -
                   static_cast<int64_t>(carry) - borrow;
    if (diff < 0) {
      // qhat was one too large: add back.
      diff += static_cast<int64_t>(kBase);
      u[j + n] = static_cast<uint32_t>(diff);
      --qhat;
      uint64_t c2 = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t sum = static_cast<uint64_t>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<uint32_t>(sum & 0xffffffffULL);
        c2 = sum >> 32;
      }
      u[j + n] = static_cast<uint32_t>(u[j + n] + c2);
    } else {
      u[j + n] = static_cast<uint32_t>(diff);
    }
    (*q)[j] = static_cast<uint32_t>(qhat);
  }
  TrimMag(q);
  // Remainder: u[0..n) shifted back.
  u.resize(n);
  if (shift) {
    for (size_t i = 0; i < n; ++i) {
      u[i] >>= shift;
      if (i + 1 < n) {
        u[i] |= static_cast<uint32_t>(
            static_cast<uint64_t>(u[i + 1] & ((1U << shift) - 1)) << (32 - shift));
      }
    }
  }
  TrimMag(&u);
  *r = std::move(u);
}

Result<BigInt> BigInt::FromString(const std::string& text) {
  if (text.empty()) return Status::ParseError("empty BigInt literal");
  size_t i = 0;
  bool neg = false;
  if (text[0] == '+' || text[0] == '-') {
    neg = text[0] == '-';
    i = 1;
  }
  if (i >= text.size()) return Status::ParseError("sign with no digits");
  BigInt out;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') {
      return Status::ParseError("bad digit in BigInt literal: " + text);
    }
    out = out * BigInt(10) + BigInt(text[i] - '0');
  }
  return neg ? -out : out;
}

std::string BigInt::ToString() const {
  if (!heap_) return std::to_string(small_);
  std::vector<uint32_t> cur = heap_->mag;
  std::string digits;
  std::vector<uint32_t> q, r;
  const std::vector<uint32_t> billion = {1000000000U};
  while (!cur.empty()) {
    DivModMag(cur, billion, &q, &r);
    uint32_t chunk = r.empty() ? 0 : r[0];
    for (int k = 0; k < 9; ++k) {
      digits.push_back(static_cast<char>('0' + chunk % 10));
      chunk /= 10;
    }
    cur = q;
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (heap_->negative) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

Result<int64_t> BigInt::ToInt64() const {
  // The representation is canonical: heap-backed values are out of range.
  if (!heap_) return small_;
  return Status::Overflow("BigInt exceeds int64 range");
}

double BigInt::ToDouble() const {
  if (!heap_) return static_cast<double>(small_);
  double out = 0;
  for (size_t i = heap_->mag.size(); i-- > 0;) {
    out = out * 4294967296.0 + heap_->mag[i];
  }
  return heap_->negative ? -out : out;
}

size_t BigInt::BitLength() const {
  if (!heap_) {
    uint64_t u = Abs64(small_);
    return u == 0 ? 0 : 64 - static_cast<size_t>(__builtin_clzll(u));
  }
  uint32_t top = heap_->mag.back();
  size_t bits = (heap_->mag.size() - 1) * 32;
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

BigInt BigInt::operator-() const {
  if (!heap_) {
    if (small_ != INT64_MIN) return BigInt(-small_);
    return FromMagU64(false, 0x8000000000000000ULL);
  }
  return FromMag(!heap_->negative, heap_->mag);
}

BigInt BigInt::Abs() const {
  if (!heap_) {
    if (small_ != INT64_MIN) return BigInt(small_ < 0 ? -small_ : small_);
    return FromMagU64(false, 0x8000000000000000ULL);
  }
  return FromMag(false, heap_->mag);
}

BigInt BigInt::operator+(const BigInt& o) const {
  // Failpoint: steer the addition into the limb (heap) path as if the
  // inline int64 fast path had overflowed; the magnitude arithmetic must
  // produce the identical canonical value.
  bool force_slow = false;
  FO2DT_FAILPOINT(names::kFpBigintForceSlowAdd, &force_slow);
  if (!force_slow && !heap_ && !o.heap_) {
    int64_t r;
    if (!__builtin_add_overflow(small_, o.small_, &r)) {
      CountSmall();
      return BigInt(r);
    }
  }
  CountBig();
  MagView a = View();
  MagView b = o.View();
  if (a.negative == b.negative) {
    return FromMag(a.negative, AddMag(a.mag(), b.mag()));
  }
  int c = CompareMag(a.mag(), b.mag());
  if (c == 0) return BigInt();
  if (c > 0) return FromMag(a.negative, SubMag(a.mag(), b.mag()));
  return FromMag(b.negative, SubMag(b.mag(), a.mag()));
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (!heap_ && !o.heap_) {
    int64_t r;
    if (!__builtin_sub_overflow(small_, o.small_, &r)) {
      CountSmall();
      return BigInt(r);
    }
  }
  return *this + (-o);
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (!heap_ && !o.heap_) {
    int64_t r;
    if (!__builtin_mul_overflow(small_, o.small_, &r)) {
      CountSmall();
      return BigInt(r);
    }
  }
  CountBig();
  MagView a = View();
  MagView b = o.View();
  return FromMag(a.negative != b.negative, MulMag(a.mag(), b.mag()));
}

BigInt BigInt::operator/(const BigInt& o) const {
  if (!heap_ && !o.heap_) {
    // INT64_MIN / -1 is the lone overflowing quotient.
    if (!(small_ == INT64_MIN && o.small_ == -1)) {
      CountSmall();
      return BigInt(small_ / o.small_);
    }
  }
  CountBig();
  MagView a = View();
  MagView b = o.View();
  std::vector<uint32_t> qm, rm;
  DivModMag(a.mag(), b.mag(), &qm, &rm);
  return FromMag(a.negative != b.negative, std::move(qm));
}

BigInt BigInt::operator%(const BigInt& o) const {
  if (!heap_ && !o.heap_) {
    CountSmall();
    // INT64_MIN % -1 overflows in hardware; the result is 0.
    if (o.small_ == -1) return BigInt(0);
    return BigInt(small_ % o.small_);
  }
  CountBig();
  MagView a = View();
  MagView b = o.View();
  std::vector<uint32_t> qm, rm;
  DivModMag(a.mag(), b.mag(), &qm, &rm);
  return FromMag(a.negative, std::move(rm));
}

int BigInt::CompareSlow(const BigInt& o) const {
  MagView a = View();
  MagView b = o.View();
  bool a_neg = a.negative && !a.mag().empty();
  bool b_neg = b.negative && !b.mag().empty();
  if (a_neg != b_neg) return a_neg ? -1 : 1;
  int c = CompareMag(a.mag(), b.mag());
  return a_neg ? -c : c;
}

BigInt BigInt::FloorDiv(const BigInt& o) const {
  BigInt q = *this / o;
  BigInt r = *this % o;
  if (!r.IsZero() && (r.IsNegative() != o.IsNegative())) q -= BigInt(1);
  return q;
}

BigInt BigInt::CeilDiv(const BigInt& o) const {
  BigInt q = *this / o;
  BigInt r = *this % o;
  if (!r.IsZero() && (r.IsNegative() == o.IsNegative())) q += BigInt(1);
  return q;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  if (!a.heap_ && !b.heap_) {
    CountSmall();
    uint64_t x = Abs64(a.small_);
    uint64_t y = Abs64(b.small_);
    while (y) {
      uint64_t t = x % y;
      x = y;
      y = t;
    }
    return FromMagU64(false, x);
  }
  CountBig();
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = y;
    y = r;
  }
  return x;
}

size_t BigInt::Hash() const {
  if (!heap_) {
    uint64_t z = static_cast<uint64_t>(small_) + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    return static_cast<size_t>(z ^ (z >> 27));
  }
  size_t h = heap_->negative ? 0x9e3779b97f4a7c15ULL : 0;
  for (uint32_t limb : heap_->mag) {
    h ^= limb + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToString();
}

}  // namespace fo2dt
