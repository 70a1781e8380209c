#include "arith/bigint.h"

#include <gtest/gtest.h>

#include <vector>

#include "arith/arith_stats.h"
#include "common/random.h"

namespace fo2dt {
namespace {

// An inline int64 or one owning pointer to the heap magnitude.
static_assert(sizeof(BigInt) == 16);

TEST(BigIntTest, ConstructionAndToString) {
  EXPECT_EQ(BigInt(0).ToString(), "0");
  EXPECT_EQ(BigInt(1).ToString(), "1");
  EXPECT_EQ(BigInt(-1).ToString(), "-1");
  EXPECT_EQ(BigInt(123456789).ToString(), "123456789");
  EXPECT_EQ(BigInt(-987654321).ToString(), "-987654321");
  EXPECT_EQ(BigInt(INT64_MAX).ToString(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).ToString(), "-9223372036854775808");
}

TEST(BigIntTest, FromStringRoundTrip) {
  for (const char* s : {"0", "1", "-1", "42", "-94837261", "123456789012345678901234567890",
                        "-999999999999999999999999999999999999"}) {
    auto v = BigInt::FromString(s);
    ASSERT_TRUE(v.ok()) << s;
    EXPECT_EQ(v->ToString(), s);
  }
}

TEST(BigIntTest, FromStringErrors) {
  EXPECT_FALSE(BigInt::FromString("").ok());
  EXPECT_FALSE(BigInt::FromString("-").ok());
  EXPECT_FALSE(BigInt::FromString("12a3").ok());
  EXPECT_FALSE(BigInt::FromString("0x10").ok());
}

TEST(BigIntTest, NegativeZeroNormalizes) {
  auto v = BigInt::FromString("-0");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->IsZero());
  EXPECT_FALSE(v->IsNegative());
  EXPECT_EQ(v->ToString(), "0");
}

TEST(BigIntTest, AdditionBasics) {
  EXPECT_EQ((BigInt(2) + BigInt(3)).ToString(), "5");
  EXPECT_EQ((BigInt(-2) + BigInt(3)).ToString(), "1");
  EXPECT_EQ((BigInt(2) + BigInt(-3)).ToString(), "-1");
  EXPECT_EQ((BigInt(-2) + BigInt(-3)).ToString(), "-5");
  EXPECT_EQ((BigInt(5) + BigInt(-5)).ToString(), "0");
}

TEST(BigIntTest, CarryPropagation) {
  BigInt big = *BigInt::FromString("4294967295");  // 2^32 - 1
  EXPECT_EQ((big + BigInt(1)).ToString(), "4294967296");
  BigInt big2 = *BigInt::FromString("18446744073709551615");  // 2^64 - 1
  EXPECT_EQ((big2 + BigInt(1)).ToString(), "18446744073709551616");
  EXPECT_EQ((big2 + big2).ToString(), "36893488147419103230");
}

TEST(BigIntTest, MultiplicationLarge) {
  BigInt a = *BigInt::FromString("123456789012345678901234567890");
  BigInt b = *BigInt::FromString("987654321098765432109876543210");
  EXPECT_EQ((a * b).ToString(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, DivisionTruncatesTowardZero) {
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToString(), "3");
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToString(), "-3");
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToString(), "-3");
  EXPECT_EQ((BigInt(-7) / BigInt(-2)).ToString(), "3");
  EXPECT_EQ((BigInt(7) % BigInt(2)).ToString(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToString(), "-1");
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToString(), "1");
  EXPECT_EQ((BigInt(-7) % BigInt(-2)).ToString(), "-1");
}

TEST(BigIntTest, FloorAndCeilDiv) {
  EXPECT_EQ(BigInt(7).FloorDiv(BigInt(2)).ToString(), "3");
  EXPECT_EQ(BigInt(-7).FloorDiv(BigInt(2)).ToString(), "-4");
  EXPECT_EQ(BigInt(7).CeilDiv(BigInt(2)).ToString(), "4");
  EXPECT_EQ(BigInt(-7).CeilDiv(BigInt(2)).ToString(), "-3");
  EXPECT_EQ(BigInt(6).FloorDiv(BigInt(3)).ToString(), "2");
  EXPECT_EQ(BigInt(6).CeilDiv(BigInt(3)).ToString(), "2");
}

TEST(BigIntTest, DivisionLargeKnuthPath) {
  BigInt a = *BigInt::FromString("340282366920938463463374607431768211456");  // 2^128
  BigInt b = *BigInt::FromString("18446744073709551616");                    // 2^64
  EXPECT_EQ((a / b).ToString(), "18446744073709551616");
  EXPECT_EQ((a % b).ToString(), "0");
  BigInt c = a + BigInt(12345);
  EXPECT_EQ((c / b).ToString(), "18446744073709551616");
  EXPECT_EQ((c % b).ToString(), "12345");
}

TEST(BigIntTest, DivModIdentityRandomized) {
  RandomSource rng(42);
  for (int iter = 0; iter < 500; ++iter) {
    // Build random magnitudes of varying limb counts.
    auto rand_big = [&rng](int limbs) {
      BigInt v(0);
      for (int i = 0; i < limbs; ++i) {
        v = v * BigInt(static_cast<int64_t>(1) << 32) +
            BigInt(static_cast<int64_t>(rng.Next() & 0xffffffffULL));
      }
      if (rng.Bernoulli(0.5)) v = -v;
      return v;
    };
    BigInt a = rand_big(1 + static_cast<int>(rng.UniformIndex(4)));
    BigInt b = rand_big(1 + static_cast<int>(rng.UniformIndex(3)));
    if (b.IsZero()) continue;
    BigInt q = a / b;
    BigInt r = a % b;
    EXPECT_EQ((q * b + r).Compare(a), 0)
        << "a=" << a << " b=" << b << " q=" << q << " r=" << r;
    EXPECT_LT(r.Abs().Compare(b.Abs()), 0);
    if (!r.IsZero()) {
      EXPECT_EQ(r.IsNegative(), a.IsNegative());
    }
  }
}

TEST(BigIntTest, CompareOrdering) {
  EXPECT_LT(BigInt(-5).Compare(BigInt(3)), 0);
  EXPECT_GT(BigInt(3).Compare(BigInt(-5)), 0);
  EXPECT_EQ(BigInt(7).Compare(BigInt(7)), 0);
  EXPECT_LT(BigInt(-7).Compare(BigInt(-3)), 0);
  BigInt big = *BigInt::FromString("99999999999999999999");
  EXPECT_GT(big.Compare(BigInt(INT64_MAX)), 0);
  EXPECT_LT((-big).Compare(BigInt(INT64_MIN)), 0);
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToString(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToString(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(0)).ToString(), "0");
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToString(), "1");
}

TEST(BigIntTest, ToInt64Bounds) {
  EXPECT_EQ(*BigInt(INT64_MAX).ToInt64(), INT64_MAX);
  EXPECT_EQ(*BigInt(INT64_MIN).ToInt64(), INT64_MIN);
  BigInt over = BigInt(INT64_MAX) + BigInt(1);
  EXPECT_TRUE(over.ToInt64().status().IsOverflow());
  BigInt under = BigInt(INT64_MIN) - BigInt(1);
  EXPECT_TRUE(under.ToInt64().status().IsOverflow());
}

TEST(BigIntTest, BitLength) {
  EXPECT_EQ(BigInt(0).BitLength(), 0u);
  EXPECT_EQ(BigInt(1).BitLength(), 1u);
  EXPECT_EQ(BigInt(255).BitLength(), 8u);
  EXPECT_EQ(BigInt(256).BitLength(), 9u);
  EXPECT_EQ(BigInt::FromString("18446744073709551616")->BitLength(), 65u);
}

TEST(BigIntTest, ArithmeticIdentitiesRandomized) {
  RandomSource rng(7);
  for (int iter = 0; iter < 300; ++iter) {
    BigInt a(static_cast<int64_t>(rng.Next()) >> 16);
    BigInt b(static_cast<int64_t>(rng.Next()) >> 16);
    BigInt c(static_cast<int64_t>(rng.Next()) >> 40);
    EXPECT_EQ(((a + b) * c).Compare(a * c + b * c), 0);
    EXPECT_EQ((a - b).Compare(-(b - a)), 0);
    EXPECT_EQ((a + b).Compare(b + a), 0);
  }
}

TEST(BigIntTest, InlineHeapBoundaryExplicit) {
  // Values straddling the int64 boundary must be canonical: FitsInt64() true
  // exactly when the value is representable inline, identical semantics on
  // both sides.
  for (int64_t delta = -2; delta <= 2; ++delta) {
    BigInt near_max = BigInt(INT64_MAX) + BigInt(delta);
    EXPECT_EQ(near_max.FitsInt64(), delta <= 0) << "delta " << delta;
    BigInt near_min = BigInt(INT64_MIN) + BigInt(delta);
    EXPECT_EQ(near_min.FitsInt64(), delta >= 0) << "delta " << delta;
    // Round trips across the boundary land back inline.
    EXPECT_TRUE((near_max - BigInt(delta)).FitsInt64());
    EXPECT_EQ((near_max - BigInt(delta)).Compare(BigInt(INT64_MAX)), 0);
    EXPECT_TRUE((near_min - BigInt(delta)).FitsInt64());
    EXPECT_EQ((near_min - BigInt(delta)).Compare(BigInt(INT64_MIN)), 0);
  }
  // Powers of two around the boundary, both signs: 2^63 spills, -2^63 fits.
  BigInt p = BigInt(1);
  for (int e = 0; e <= 65; ++e) {
    EXPECT_EQ(p.FitsInt64(), e <= 62) << "2^" << e;
    EXPECT_EQ((-p).FitsInt64(), e <= 63) << "-2^" << e;
    EXPECT_EQ((p - BigInt(1)).FitsInt64(), e <= 63) << "2^" << e << "-1";
    EXPECT_TRUE((p - p).IsZero());
    p += p;
  }
}

TEST(BigIntTest, Int64MinEdgeCases) {
  const BigInt min64(INT64_MIN);
  EXPECT_FALSE((-min64).FitsInt64());
  EXPECT_EQ((-min64).ToString(), "9223372036854775808");
  EXPECT_EQ(min64.Abs().ToString(), "9223372036854775808");
  EXPECT_EQ((min64 / BigInt(-1)).ToString(), "9223372036854775808");
  EXPECT_TRUE((min64 % BigInt(-1)).IsZero());
  EXPECT_EQ((min64 * BigInt(-1)).ToString(), "9223372036854775808");
  EXPECT_EQ(min64.FloorDiv(BigInt(-1)).ToString(), "9223372036854775808");
  EXPECT_EQ(min64.CeilDiv(BigInt(-1)).ToString(), "9223372036854775808");
  EXPECT_EQ(BigInt::Gcd(min64, min64).ToString(), "9223372036854775808");
  EXPECT_EQ(BigInt::Gcd(min64, BigInt(0)).ToString(), "9223372036854775808");
}

namespace i128 {

// Builds a BigInt from an __int128 through decimal chunks, independent of the
// wide operators under test (only small-range + and * are exercised).
BigInt FromI128(__int128 v) {
  const __int128 kChunk = 1000000000000000000LL;  // 10^18
  bool neg = v < 0;
  __int128 mag = neg ? -v : v;
  BigInt out(0);
  BigInt scale(1);
  while (mag > 0) {
    out += scale * BigInt(static_cast<int64_t>(mag % kChunk));
    scale *= BigInt(static_cast<int64_t>(kChunk));
    mag /= kChunk;
  }
  return neg ? -out : out;
}

__int128 DrawBoundary(RandomSource* rng) {
  // Magnitude uniform-ish in [2^62, 2^65]: squarely straddling the
  // inline/heap representation boundary.
  __int128 mag = (static_cast<__int128>(1) << 62) +
                 static_cast<__int128>(rng->Next() % 15) *
                     (static_cast<__int128>(1) << 60) +
                 static_cast<__int128>(rng->Next() >> 4);
  return rng->Bernoulli(0.5) ? -mag : mag;
}

}  // namespace i128

TEST(BigIntTest, BoundaryPropertyRandomized) {
  // Differential check against __int128 for + and -, identity checks for
  // * / % and gcd, with operands straddling the inline/heap boundary
  // (|v| in [2^62, 2^65]).
  using i128::DrawBoundary;
  using i128::FromI128;
  RandomSource rng(2026);
  for (int iter = 0; iter < 400; ++iter) {
    const __int128 ra = DrawBoundary(&rng);
    const __int128 rb = DrawBoundary(&rng);
    const BigInt a = FromI128(ra);
    const BigInt b = FromI128(rb);
    ASSERT_EQ(a.Compare(b), ra < rb ? -1 : (ra > rb ? 1 : 0));

    EXPECT_EQ((a + b).Compare(FromI128(ra + rb)), 0) << "iter " << iter;
    EXPECT_EQ((a - b).Compare(FromI128(ra - rb)), 0) << "iter " << iter;
    EXPECT_EQ(((a + b) - b).Compare(a), 0) << "iter " << iter;

    // Multiplication vs reference with one operand kept small enough that
    // the reference product fits __int128.
    const int64_t small =
        rng.UniformInt(-(int64_t{1} << 31), int64_t{1} << 31);
    EXPECT_EQ((a * BigInt(small)).Compare(FromI128(ra * small)), 0);

    // Truncated division identities: a == (a/b)*b + a%b, |a%b| < |b|, and
    // the remainder carries the dividend's sign.
    const BigInt q = a / b;
    const BigInt r = a % b;
    EXPECT_EQ((q * b + r).Compare(a), 0) << "iter " << iter;
    EXPECT_EQ(r.Abs().Compare(b.Abs()), -1) << "iter " << iter;
    EXPECT_TRUE(r.IsZero() || r.IsNegative() == a.IsNegative());

    // Floor/ceil division: the remainder lies in [0, b) resp. (-b, 0] for
    // b > 0, mirrored for b < 0.
    const BigInt fr = a - a.FloorDiv(b) * b;
    const BigInt cr = a - a.CeilDiv(b) * b;
    if (b.IsPositive()) {
      EXPECT_TRUE(!fr.IsNegative() && fr < b);
      EXPECT_TRUE(!cr.IsPositive() && -cr < b);
    } else {
      EXPECT_TRUE(!fr.IsPositive() && fr > b);
      EXPECT_TRUE(!cr.IsNegative() && -cr > b);
    }

    const BigInt g = BigInt::Gcd(a, b);
    EXPECT_FALSE(g.IsNegative());
    EXPECT_EQ(g.Compare(BigInt::Gcd(b, a)), 0);
    if (!g.IsZero()) {
      EXPECT_TRUE((a % g).IsZero());
      EXPECT_TRUE((b % g).IsZero());
    }

    // Canonical representation: heap-backed iff out of int64 range.
    const BigInt sum = a + b;
    const __int128 rsum = ra + rb;
    EXPECT_EQ(sum.FitsInt64(), rsum >= INT64_MIN && rsum <= INT64_MAX);
  }
}

TEST(BigIntTest, GcdDivModEdges) {
  EXPECT_TRUE(BigInt::Gcd(BigInt(0), BigInt(0)).IsZero());
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(-6)).Compare(BigInt(6)), 0);
  EXPECT_EQ(BigInt::Gcd(BigInt(-4), BigInt(0)).Compare(BigInt(4)), 0);
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(-18)).Compare(BigInt(6)), 0);
  const BigInt huge =
      *BigInt::FromString("340282366920938463463374607431768211456");  // 2^128
  EXPECT_EQ(BigInt::Gcd(huge, BigInt(6)).Compare(BigInt(2)), 0);
  EXPECT_EQ((huge / huge).Compare(BigInt(1)), 0);
  EXPECT_TRUE((huge % huge).IsZero());
  EXPECT_TRUE((BigInt(0) / huge).IsZero());
  EXPECT_TRUE((BigInt(0) % huge).IsZero());
  EXPECT_EQ((huge % (huge + BigInt(1))).Compare(huge), 0);
  EXPECT_EQ(((-huge) / huge).Compare(BigInt(-1)), 0);
  EXPECT_EQ((-huge).FloorDiv(huge + BigInt(1)).Compare(BigInt(-1)), 0);
  EXPECT_TRUE((-huge).CeilDiv(huge + BigInt(1)).IsZero());
}

TEST(BigIntTest, CopyMoveAcrossInlineHeapBoundary) {
  const BigInt heap_a = *BigInt::FromString("-123456789012345678901234567890");
  const BigInt heap_b = *BigInt::FromString("98765432109876543210");
  const BigInt small_a(-42);
  const BigInt small_b(INT64_MAX);
  const std::vector<BigInt> values = {heap_a, heap_b, small_a, small_b};
  for (const BigInt& from : values) {
    for (const BigInt& to : values) {
      // Copy construction and copy assignment into either representation.
      BigInt copy(from);
      EXPECT_EQ(copy.Compare(from), 0);
      BigInt assigned = to;
      assigned = from;
      EXPECT_EQ(assigned.Compare(from), 0);
      EXPECT_EQ(assigned.FitsInt64(), from.FitsInt64());
      // The copy is independent: changing it leaves the source alone.
      assigned += BigInt(1);
      EXPECT_EQ(assigned.Compare(from + BigInt(1)), 0);
      EXPECT_EQ(copy.Compare(from), 0);

      // Move construction and move assignment into either representation;
      // the moved-from value stays usable (assignable and readable).
      BigInt source = from;
      BigInt moved(std::move(source));
      EXPECT_EQ(moved.Compare(from), 0);
      source = to;
      EXPECT_EQ(source.Compare(to), 0);
      BigInt target = to;
      BigInt source2 = from;
      target = std::move(source2);
      EXPECT_EQ(target.Compare(from), 0);
      EXPECT_EQ((source2 + BigInt(1)).Compare(source2 + BigInt(1)), 0);
      source2 = BigInt(7);
      EXPECT_EQ(source2.Compare(BigInt(7)), 0);
    }
    // Self-assignment, copy and move, leaves the value intact.
    BigInt self = from;
    const BigInt& alias = self;
    self = alias;
    EXPECT_EQ(self.Compare(from), 0);
    BigInt& ref = self;
    self = std::move(ref);
    EXPECT_EQ(self.Compare(from), 0);
  }
  // A moved-from heap value reads as zero.
  BigInt heap = heap_a;
  BigInt taken(std::move(heap));
  EXPECT_TRUE(heap.IsZero());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(taken.Compare(heap_a), 0);
}

// An operand biased to the edges of SubMul's __int128 fast path: small
// values, values near +-2^63 and +-2^62, arbitrary 64-bit values, and
// heap values just past int64.
BigInt DrawSubMulOperand(RandomSource* rng) {
  switch (rng->UniformIndex(5)) {
    case 0:
      return BigInt(rng->UniformInt(-40, 40));
    case 1:
      return BigInt(rng->Bernoulli(0.5) ? INT64_MAX - rng->UniformInt(0, 3)
                                        : INT64_MIN + rng->UniformInt(0, 3));
    case 2: {
      const int64_t v = (int64_t{1} << 62) - rng->UniformInt(0, 2);
      return BigInt(rng->Bernoulli(0.5) ? v : -v);
    }
    case 3:
      return BigInt(static_cast<int64_t>(rng->Next()));
    default: {
      const BigInt past = BigInt(INT64_MAX) + BigInt(rng->UniformInt(1, 3));
      return rng->Bernoulli(0.5) ? past : -past - BigInt(1);
    }
  }
}

TEST(BigIntTest, SubMulMatchesReferenceNearInt64Edges) {
  RandomSource rng(1262);
  size_t wide = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    const BigInt a = DrawSubMulOperand(&rng);
    const BigInt f = DrawSubMulOperand(&rng);
    const BigInt b = DrawSubMulOperand(&rng);
    const BigInt want = a - f * b;
    BigInt got = a;
    got.SubMul(f, b);
    ASSERT_EQ(got.Compare(want), 0)
        << "iter " << iter << ": " << a << " - " << f << " * " << b;
    ASSERT_EQ(got.ToString(), want.ToString());
    // Canonical: inline exactly when the value fits int64.
    ASSERT_EQ(got.FitsInt64(), want.ToInt64().ok());
    if (!got.FitsInt64()) ++wide;
  }
  EXPECT_GT(wide, 1000u);  // the draws really left int64
  // Results exactly at the int64 edges, and one step past them.
  struct Edge {
    int64_t a, f, b;
    bool fits;
  };
  for (const Edge& e : std::vector<Edge>{
           {INT64_MAX - 6, -2, 3, true},
           {INT64_MAX - 5, -2, 3, false},
           {INT64_MIN + 6, 2, 3, true},
           {INT64_MIN + 5, 2, 3, false},
           {0, INT64_MIN, 1, false},
           {-1, INT64_MIN, -1, false},
           {INT64_MIN, INT64_MIN, 1, true},
       }) {
    const BigInt want = BigInt(e.a) - BigInt(e.f) * BigInt(e.b);
    ArithStats::Reset();
    BigInt got(e.a);
    got.SubMul(BigInt(e.f), BigInt(e.b));
    EXPECT_EQ(got.Compare(want), 0) << want;
    EXPECT_EQ(got.FitsInt64(), e.fits) << want;
    EXPECT_EQ(ArithStats::Aggregate().wide_results, e.fits ? 0u : 1u)
        << want;
  }
}

TEST(ArithStatsTest, FastPathCountersMove) {
  // Small-only arithmetic must register as small_ops (fast-path rate 1.0
  // because work happened on the inline representation, not because the
  // counters were idle); multi-limb work must register as big_ops.
  ArithStats::Reset();
  BigInt a(1000), b(37);
  for (int i = 0; i < 10; ++i) a = a + b * BigInt(i) - a / b;
  ArithCounters small_only = ArithStats::Aggregate();
  EXPECT_GT(small_only.small_ops, 0u);
  EXPECT_EQ(small_only.big_ops, 0u);
  EXPECT_EQ(small_only.FastPathRate(), 1.0);

  ArithStats::Reset();
  BigInt huge = *BigInt::FromString("340282366920938463463374607431768211456");
  BigInt r = huge * huge + huge;
  EXPECT_FALSE(r.IsZero());
  EXPECT_GT(ArithStats::Aggregate().big_ops, 0u);
}

}  // namespace
}  // namespace fo2dt
