// Group laws and serialization for G1 and G2.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "curve/bn254.hpp"
#include "curve/ecdsa.hpp"
#include "formatters.hpp"

namespace peace::curve {
namespace {

using math::U256;

class CurveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Bn254::init(); }
  crypto::Drbg rng_ = crypto::Drbg::from_string("curve-test");

  G1 rand_g1() { return Bn254::get().g1_gen * random_fr(rng_); }
  G2 rand_g2() { return Bn254::get().g2_gen * random_fr(rng_); }
};

TEST_F(CurveTest, GeneratorsOnCurve) {
  EXPECT_TRUE(Bn254::get().g1_gen.is_on_curve());
  EXPECT_TRUE(Bn254::get().g2_gen.is_on_curve());
}

TEST_F(CurveTest, GeneratorOrderR) {
  EXPECT_TRUE((Bn254::get().g1_gen * Bn254::get().r).is_infinity());
  EXPECT_TRUE((Bn254::get().g2_gen * Bn254::get().r).is_infinity());
  EXPECT_FALSE(Bn254::get().g1_gen.is_infinity());
}

TEST_F(CurveTest, InfinityIsIdentity) {
  const G1 p = rand_g1();
  EXPECT_EQ(p + G1::infinity(), p);
  EXPECT_EQ(G1::infinity() + p, p);
  EXPECT_TRUE((p - p).is_infinity());
  EXPECT_TRUE(G1::infinity().is_on_curve());
  EXPECT_TRUE((G1::infinity() * U256(12345)).is_infinity());
}

TEST_F(CurveTest, AdditionCommutesAndAssociates) {
  const G1 a = rand_g1(), b = rand_g1(), c = rand_g1();
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ((a + b) + c, a + (b + c));
  const G2 x = rand_g2(), y = rand_g2(), z = rand_g2();
  EXPECT_EQ(x + y, y + x);
  EXPECT_EQ((x + y) + z, x + (y + z));
}

TEST_F(CurveTest, DoubleEqualsAddSelf) {
  const G1 a = rand_g1();
  EXPECT_EQ(a.dbl(), a + a);
  EXPECT_EQ(a.dbl(), a * U256(2));
  const G2 b = rand_g2();
  EXPECT_EQ(b.dbl(), b + b);
}

TEST_F(CurveTest, ScalarMulDistributes) {
  const G1 p = rand_g1();
  const Fr a = random_fr(rng_), b = random_fr(rng_);
  EXPECT_EQ(p * (a + b), p * a + p * b);
  EXPECT_EQ((p * a) * b, (p * b) * a);
}

TEST_F(CurveTest, ScalarMulSmall) {
  const G1 p = rand_g1();
  G1 acc = G1::infinity();
  for (int k = 0; k <= 10; ++k) {
    EXPECT_EQ(p * U256(static_cast<std::uint64_t>(k)), acc) << k;
    acc = acc + p;
  }
}

TEST_F(CurveTest, WindowedMatchesDoubleAndAdd) {
  // The production windowed path against the textbook oracle, across edge
  // scalars and random full-width scalars, in both groups.
  const G1 p = rand_g1();
  const G2 q = rand_g2();
  std::vector<U256> scalars = {U256::zero(), U256::one(), U256(2), U256(15),
                               U256(16), U256(17), U256(0xffffffffffffffffull)};
  U256 rm1;
  math::sub_borrow(rm1, Bn254::get().r, U256::one());
  scalars.push_back(rm1);  // r - 1
  for (int i = 0; i < 10; ++i) scalars.push_back(random_fr(rng_).to_u256());
  for (const U256& k : scalars) {
    EXPECT_EQ(p.mul_windowed(k), p.mul_double_and_add(k)) << to_dec(k);
    EXPECT_EQ(q.mul_windowed(k), q.mul_double_and_add(k)) << to_dec(k);
  }
}

TEST_F(CurveTest, NegationIsInverse) {
  const G2 q = rand_g2();
  EXPECT_TRUE((q + (-q)).is_infinity());
  EXPECT_EQ(-(-q), q);
}

TEST_F(CurveTest, ResultsStayOnCurve) {
  const G1 a = rand_g1(), b = rand_g1();
  EXPECT_TRUE((a + b).is_on_curve());
  EXPECT_TRUE(a.dbl().is_on_curve());
  EXPECT_TRUE((a * random_fr(rng_)).is_on_curve());
  const G2 x = rand_g2();
  EXPECT_TRUE((x + rand_g2()).is_on_curve());
  EXPECT_TRUE(x.dbl().is_on_curve());
}

TEST_F(CurveTest, AffineRoundTrip) {
  const G1 p = rand_g1();
  math::Fp ax, ay;
  p.to_affine(ax, ay);
  EXPECT_EQ(G1(ax, ay), p);
  EXPECT_THROW(G1::infinity().to_affine(ax, ay), Error);
  EXPECT_EQ(p.normalized(), p);
}

TEST_F(CurveTest, EqualityIsProjectiveInvariant) {
  const G1 p = rand_g1();
  const G1 doubled_then_halved = (p.dbl() + p) - p - p;  // = p via doubling
  EXPECT_EQ(doubled_then_halved, p);
  EXPECT_NE(p, p.dbl());
}

TEST_F(CurveTest, G1SerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const G1 p = rand_g1();
    const Bytes b = g1_to_bytes(p);
    EXPECT_EQ(b.size(), kG1CompressedSize);
    EXPECT_EQ(g1_from_bytes(b), p);
  }
  EXPECT_TRUE(g1_from_bytes(g1_to_bytes(G1::infinity())).is_infinity());
}

TEST_F(CurveTest, G2SerializationRoundTrip) {
  for (int i = 0; i < 10; ++i) {
    const G2 q = rand_g2();
    const Bytes b = g2_to_bytes(q);
    EXPECT_EQ(b.size(), kG2CompressedSize);
    EXPECT_EQ(g2_from_bytes(b), q);
  }
  EXPECT_TRUE(g2_from_bytes(g2_to_bytes(G2::infinity())).is_infinity());
}

TEST_F(CurveTest, SerializationRejectsGarbage) {
  EXPECT_THROW(g1_from_bytes(Bytes(10, 0)), Error);
  EXPECT_THROW(g1_from_bytes(Bytes(kG1CompressedSize, 0x55)), Error);
  Bytes bad(kG1CompressedSize, 0);
  bad[0] = 7;  // invalid flag
  EXPECT_THROW(g1_from_bytes(bad), Error);
  // x >= p must be rejected (non-canonical encodings break uniqueness).
  Bytes huge(kG1CompressedSize, 0xff);
  huge[0] = 2;
  EXPECT_THROW(g1_from_bytes(huge), Error);
  EXPECT_THROW(g2_from_bytes(Bytes(64, 0)), Error);
}

TEST_F(CurveTest, G2SubgroupCheckOnDeserialize) {
  // Construct an on-curve point NOT in the r-subgroup: multiply a random
  // curve point by r; if it is not infinity the original was outside.
  // Build one by using a curve point before cofactor clearing.
  crypto::Drbg rng = crypto::Drbg::from_string("subgroup");
  for (int tries = 0; tries < 50; ++tries) {
    const math::Fp2 x(math::Fp::from_bytes_reduce(rng.bytes(32)),
                      math::Fp::from_bytes_reduce(rng.bytes(32)));
    const math::Fp2 rhs = x.square() * x + G2Traits::b();
    math::Fp2 y;
    if (!rhs.sqrt(y)) continue;
    const G2 raw(x, y);
    if ((raw * Bn254::get().r).is_infinity()) continue;  // unlucky: in subgroup
    const Bytes enc = g2_to_bytes(raw);
    EXPECT_THROW(g2_from_bytes(enc), Error);
    return;
  }
  FAIL() << "could not build an out-of-subgroup point";
}

TEST_F(CurveTest, FrSerialization) {
  const Fr v = random_fr(rng_);
  EXPECT_EQ(fr_from_bytes(fr_to_bytes(v)), v);
  EXPECT_THROW(fr_from_bytes(Bytes(31, 0)), Error);
  EXPECT_THROW(fr_from_bytes(Bytes(32, 0xff)), Error);
}

TEST_F(CurveTest, CofactorTimesCurvePointInSubgroup) {
  // Any point of E'(Fp2) times (2p - r) lands in the order-r subgroup.
  crypto::Drbg rng = crypto::Drbg::from_string("cofactor");
  for (int tries = 0; tries < 50; ++tries) {
    const math::Fp2 x(math::Fp::from_bytes_reduce(rng.bytes(32)),
                      math::Fp::from_bytes_reduce(rng.bytes(32)));
    const math::Fp2 rhs = x.square() * x + G2Traits::b();
    math::Fp2 y;
    if (!rhs.sqrt(y)) continue;
    const G2 cleared = G2(x, y) * Bn254::get().g2_cofactor;
    EXPECT_TRUE((cleared * Bn254::get().r).is_infinity());
    return;
  }
  FAIL() << "no curve point found";
}

TEST_F(CurveTest, MultiScalarMulMatchesSeparateMuls) {
  // The interleaved Shamir ladder must return exactly the same group
  // element as the sum of individual windowed multiplications — the
  // prepared verifier's transcripts depend on it.
  for (int iter = 0; iter < 4; ++iter) {
    const std::array<G1, 3> pts = {rand_g1(), rand_g1(), rand_g1()};
    const std::array<U256, 3> ks = {random_fr(rng_).to_u256(),
                                    random_fr(rng_).to_u256(),
                                    random_fr(rng_).to_u256()};
    const G1 expect = pts[0] * ks[0] + pts[1] * ks[1] + pts[2] * ks[2];
    EXPECT_EQ((multi_scalar_mul<G1Traits, 3>(pts, ks)), expect);
    EXPECT_EQ(g1_to_bytes(multi_scalar_mul<G1Traits, 3>(pts, ks)),
              g1_to_bytes(expect));
  }
  // G2, short scalars, zero scalars, and identity terms.
  const std::array<G2, 2> qs = {rand_g2(), rand_g2()};
  const std::array<U256, 2> small = {U256(3), U256(0)};
  EXPECT_EQ((multi_scalar_mul<G2Traits, 2>(qs, small)), qs[0] * U256(3));
  const std::array<G1, 2> with_inf = {rand_g1(), G1::infinity()};
  const std::array<U256, 2> ks2 = {random_fr(rng_).to_u256(),
                                   random_fr(rng_).to_u256()};
  EXPECT_EQ((multi_scalar_mul<G1Traits, 2>(with_inf, ks2)),
            with_inf[0] * ks2[0]);
}

}  // namespace
}  // namespace peace::curve
