#include "arith/rational.h"

#include <gtest/gtest.h>

#include "arith/arith_stats.h"
#include "common/random.h"

namespace fo2dt {
namespace {

// Two 16-byte BigInts.
static_assert(sizeof(Rational) == 32);

TEST(RationalTest, NormalizationReducesAndFixesSign) {
  Rational r(BigInt(6), BigInt(-4));
  EXPECT_EQ(r.num().ToString(), "-3");
  EXPECT_EQ(r.den().ToString(), "2");
  EXPECT_EQ(r.ToString(), "-3/2");
  Rational z(BigInt(0), BigInt(-7));
  EXPECT_TRUE(z.IsZero());
  EXPECT_EQ(z.den().ToString(), "1");
}

TEST(RationalTest, Arithmetic) {
  Rational half(BigInt(1), BigInt(2));
  Rational third(BigInt(1), BigInt(3));
  EXPECT_EQ((half + third).ToString(), "5/6");
  EXPECT_EQ((half - third).ToString(), "1/6");
  EXPECT_EQ((half * third).ToString(), "1/6");
  EXPECT_EQ((half / third).ToString(), "3/2");
  EXPECT_EQ((-half).ToString(), "-1/2");
}

TEST(RationalTest, Comparisons) {
  Rational a(BigInt(1), BigInt(3));
  Rational b(BigInt(2), BigInt(5));
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_EQ(Rational(BigInt(2), BigInt(4)), Rational(BigInt(1), BigInt(2)));
  EXPECT_LT(Rational(-1), Rational(0));
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(BigInt(7), BigInt(2)).Floor().ToString(), "3");
  EXPECT_EQ(Rational(BigInt(7), BigInt(2)).Ceil().ToString(), "4");
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).Floor().ToString(), "-4");
  EXPECT_EQ(Rational(BigInt(-7), BigInt(2)).Ceil().ToString(), "-3");
  EXPECT_EQ(Rational(5).Floor().ToString(), "5");
  EXPECT_EQ(Rational(5).Ceil().ToString(), "5");
}

TEST(RationalTest, IsInteger) {
  EXPECT_TRUE(Rational(BigInt(4), BigInt(2)).IsInteger());
  EXPECT_FALSE(Rational(BigInt(5), BigInt(2)).IsInteger());
  EXPECT_TRUE(Rational(0).IsInteger());
}

TEST(RationalTest, FieldAxiomsRandomized) {
  RandomSource rng(11);
  for (int iter = 0; iter < 200; ++iter) {
    auto rand_rat = [&rng] {
      int64_t n = rng.UniformInt(-50, 50);
      int64_t d = rng.UniformInt(1, 20);
      return Rational(BigInt(n), BigInt(d));
    };
    Rational a = rand_rat();
    Rational b = rand_rat();
    Rational c = rand_rat();
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a + (-a), Rational(0));
    if (!b.IsZero()) {
      EXPECT_EQ(a / b * b, a);
    }
  }
}

// A fraction computed with BigInt arithmetic only: the reference the int64
// and __int128 fast paths of Rational must match exactly, canonical form
// included.
struct RefFrac {
  BigInt num;
  BigInt den;

  RefFrac(BigInt n, BigInt d) : num(std::move(n)), den(std::move(d)) {
    if (den.IsNegative()) {
      num = -num;
      den = -den;
    }
    BigInt g = BigInt::Gcd(num, den);
    num = num / g;
    den = den / g;
  }
  explicit RefFrac(const Rational& r) : RefFrac(r.num(), r.den()) {}
};

RefFrac RefAdd(const RefFrac& a, const RefFrac& b) {
  return RefFrac(a.num * b.den + b.num * a.den, a.den * b.den);
}
RefFrac RefSub(const RefFrac& a, const RefFrac& b) {
  return RefFrac(a.num * b.den - b.num * a.den, a.den * b.den);
}
RefFrac RefMul(const RefFrac& a, const RefFrac& b) {
  return RefFrac(a.num * b.num, a.den * b.den);
}
RefFrac RefDiv(const RefFrac& a, const RefFrac& b) {
  return RefFrac(a.num * b.den, a.den * b.num);
}
int RefCompare(const RefFrac& a, const RefFrac& b) {
  return (a.num * b.den).Compare(b.num * a.den);
}

::testing::AssertionResult SameFrac(const Rational& got, const RefFrac& want) {
  if (got.num().Compare(want.num) == 0 && got.den().Compare(want.den) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << got.ToString() << " != " << want.num << "/" << want.den;
}

// An int64 part biased to the edges of the fast path: small values, values
// near +-2^63, powers of two near 2^62 and arbitrary 64-bit values.
int64_t DrawPart(RandomSource* rng, bool positive) {
  int64_t v = 0;
  switch (rng->UniformIndex(4)) {
    case 0:
      v = rng->UniformInt(-40, 40);
      break;
    case 1:
      v = rng->Bernoulli(0.5) ? INT64_MAX - rng->UniformInt(0, 3)
                              : INT64_MIN + rng->UniformInt(0, 3);
      break;
    case 2:
      v = (int64_t{1} << (60 + rng->UniformIndex(3))) + rng->UniformInt(-2, 2);
      if (rng->Bernoulli(0.5)) v = -v;
      break;
    default:
      v = static_cast<int64_t>(rng->Next());
      break;
  }
  if (positive) {
    if (v == INT64_MIN) v = INT64_MAX;
    if (v < 0) v = -v;
    if (v == 0) v = 1;
  }
  return v;
}

TEST(RationalTest, FastPathsMatchBigIntReferenceNearInt64Edges) {
  RandomSource rng(63);
  size_t spilled = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    auto draw = [&rng] {
      return Rational(BigInt(DrawPart(&rng, false)),
                      BigInt(DrawPart(&rng, true)));
    };
    const Rational a = draw();
    const Rational b = draw();
    const Rational f = draw();
    const RefFrac ra(a), rb(b), rf(f);
    ASSERT_TRUE(SameFrac(a, ra)) << "iter " << iter;
    SCOPED_TRACE(testing::Message() << "iter " << iter << " a=" << a
                                    << " b=" << b << " f=" << f);
    EXPECT_TRUE(SameFrac(a + b, RefAdd(ra, rb)));
    EXPECT_TRUE(SameFrac(a - b, RefSub(ra, rb)));
    EXPECT_TRUE(SameFrac(a * b, RefMul(ra, rb)));
    if (!b.IsZero()) {
      EXPECT_TRUE(SameFrac(a / b, RefDiv(ra, rb)));
    }
    EXPECT_EQ(a.Compare(b), RefCompare(ra, rb));
    EXPECT_EQ(a.Compare(a), 0);
    const RefFrac want = RefSub(ra, RefMul(rf, rb));
    EXPECT_TRUE(SameFrac(a - f * b, want));
    if (!want.num.FitsInt64() || !want.den.FitsInt64()) ++spilled;
    // Integer operands: the den == 1 paths, including overflow out of int64.
    const Rational x(DrawPart(&rng, false));
    const Rational y(DrawPart(&rng, false));
    const RefFrac rx(x), ry(y);
    EXPECT_TRUE(SameFrac(x + y, RefAdd(rx, ry)));
    EXPECT_TRUE(SameFrac(x - y, RefSub(rx, ry)));
    EXPECT_TRUE(SameFrac(x * y, RefMul(rx, ry)));
    EXPECT_TRUE(SameFrac(x - y * x, RefSub(rx, RefMul(ry, rx))));
  }
  // The draws really crossed the int64 boundary and exercised the fallback.
  EXPECT_GT(spilled, 100u);
}

TEST(RationalTest, SmallPartsCountAsFastPath) {
  ArithStats::Reset();
  Rational x(BigInt(7), BigInt(3));
  x -= Rational(BigInt(1), BigInt(2)) * Rational(BigInt(4), BigInt(5));
  EXPECT_EQ(x.ToString(), "29/15");
  const ArithCounters c = ArithStats::Aggregate();
  EXPECT_GT(c.small_ops, 0u);
  EXPECT_EQ(c.big_ops, 0u);
}

}  // namespace
}  // namespace fo2dt
