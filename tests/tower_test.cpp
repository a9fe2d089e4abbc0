// Tower-field (Fp2 / Fp6 / Fp12) algebra and Frobenius consistency.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "curve/bn254.hpp"
#include "curve/pairing.hpp"
#include "math/bigint.hpp"

namespace peace::math {
namespace {

using curve::Bn254;

class TowerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Bn254::init(); }

  static Fp2 rand2(crypto::Drbg& rng) {
    return {Fp::from_bytes_reduce(rng.bytes(32)),
            Fp::from_bytes_reduce(rng.bytes(32))};
  }
  static Fp6 rand6(crypto::Drbg& rng) {
    return {rand2(rng), rand2(rng), rand2(rng)};
  }
  static Fp12 rand12(crypto::Drbg& rng) { return {rand6(rng), rand6(rng)}; }
};

TEST_F(TowerTest, Fp2ISquaredIsMinusOne) {
  const Fp2 i(Fp::zero(), Fp::one());
  EXPECT_EQ(i.square(), Fp2(-Fp::one(), Fp::zero()));
}

TEST_F(TowerTest, Fp2MulInverse) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp2");
  for (int i = 0; i < 20; ++i) {
    const Fp2 a = rand2(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fp2::one());
    EXPECT_EQ(a.square(), a * a);
    EXPECT_EQ(a.dbl(), a + a);
  }
  EXPECT_THROW(Fp2::zero().inverse(), Error);
}

TEST_F(TowerTest, Fp2ConjugateIsFrobenius) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp2-frob");
  for (int i = 0; i < 5; ++i) {
    const Fp2 a = rand2(rng);
    EXPECT_EQ(a.conjugate(), a.pow(Fp::modulus()));
  }
}

TEST_F(TowerTest, Fp2NormMultiplicative) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp2-norm");
  const Fp2 a = rand2(rng), b = rand2(rng);
  EXPECT_EQ((a * b).norm(), a.norm() * b.norm());
}

TEST_F(TowerTest, Fp2SqrtOfSquares) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp2-sqrt");
  for (int i = 0; i < 20; ++i) {
    const Fp2 a = rand2(rng);
    Fp2 root;
    ASSERT_TRUE(a.square().sqrt(root));
    EXPECT_TRUE(root == a || root == -a);
  }
}

TEST_F(TowerTest, Fp2SqrtNonSquareFails) {
  // xi = 9 + i is a non-square (it is the sextic twist non-residue).
  Fp2 root;
  EXPECT_FALSE(fp2_xi().sqrt(root));
}

TEST_F(TowerTest, Fp6MulInverseAndV) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp6");
  for (int i = 0; i < 10; ++i) {
    const Fp6 a = rand6(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fp6::one());
  }
  // mul_by_v equals multiplication by the element v = (0, 1, 0).
  const Fp6 v(Fp2::zero(), Fp2::one(), Fp2::zero());
  const Fp6 a = rand6(rng);
  EXPECT_EQ(a.mul_by_v(), a * v);
  // v^3 = xi.
  EXPECT_EQ(v * v * v, Fp6(fp2_xi(), Fp2::zero(), Fp2::zero()));
}

TEST_F(TowerTest, Fp12MulInverseSquare) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp12");
  for (int i = 0; i < 10; ++i) {
    const Fp12 a = rand12(rng);
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fp12::one());
    EXPECT_EQ(a.square(), a * a);
  }
}

TEST_F(TowerTest, Fp12RingLaws) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp12-laws");
  const Fp12 a = rand12(rng), b = rand12(rng), c = rand12(rng);
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ(a * (b + c), a * b + a * c);
}

TEST_F(TowerTest, Fp12WSquaredIsV) {
  // w = (0, 1) in the Fp6 pair basis; w^2 must equal v.
  const Fp12 w(Fp6::zero(), Fp6::one());
  const Fp12 v(Fp6(Fp2::zero(), Fp2::one(), Fp2::zero()), Fp6::zero());
  EXPECT_EQ(w.square(), v);
  // w^6 = xi.
  Fp12 w6 = Fp12::one();
  for (int i = 0; i < 6; ++i) w6 *= w;
  const Fp12 xi(Fp6(fp2_xi(), Fp2::zero(), Fp2::zero()), Fp6::zero());
  EXPECT_EQ(w6, xi);
}

TEST_F(TowerTest, MulByLineMatchesGenericMul) {
  // The sparse line multiplication used by the Miller loop must equal a
  // generic multiplication by the explicitly constructed sparse element.
  crypto::Drbg rng = crypto::Drbg::from_string("fp12-line");
  for (int i = 0; i < 10; ++i) {
    const Fp12 f = rand12(rng);
    const Fp2 a = rand2(rng), b = rand2(rng), c = rand2(rng);
    const Fp12 line(Fp6(a, Fp2::zero(), Fp2::zero()),
                    Fp6(b, c, Fp2::zero()));
    EXPECT_EQ(f.mul_by_line(a, b, c), f * line);
  }
  // Degenerate coefficient cases.
  const Fp12 f = rand12(rng);
  const Fp2 z = Fp2::zero();
  EXPECT_EQ(f.mul_by_line(z, z, z), Fp12());
  EXPECT_EQ(f.mul_by_line(Fp2::one(), z, z), f);
}

TEST_F(TowerTest, FrobeniusMatchesPowP) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp12-frob");
  const Fp12 a = rand12(rng);
  EXPECT_EQ(curve::frobenius12(a), a.pow(Fp::modulus()));
}

TEST_F(TowerTest, FrobeniusOrder12) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp12-frob12");
  const Fp12 a = rand12(rng);
  Fp12 cur = a;
  for (int i = 0; i < 12; ++i) cur = curve::frobenius12(cur);
  EXPECT_EQ(cur, a);
}

TEST_F(TowerTest, ConjugateIsFrobenius6) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp12-conj");
  const Fp12 a = rand12(rng);
  Fp12 cur = a;
  for (int i = 0; i < 6; ++i) cur = curve::frobenius12(cur);
  EXPECT_EQ(cur, a.conjugate());
}

TEST_F(TowerTest, ToBytesIsInjective) {
  crypto::Drbg rng = crypto::Drbg::from_string("fp12-bytes");
  const Fp12 a = rand12(rng), b = rand12(rng);
  EXPECT_EQ(a.to_bytes().size(), 384u);
  EXPECT_NE(a.to_bytes(), b.to_bytes());
}

}  // namespace
}  // namespace peace::math
