// Pairing correctness: bilinearity, non-degeneracy, and agreement between
// the optimal-ate implementation and the independent Tate reference.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "curve/ecdsa.hpp"
#include "curve/pairing.hpp"
#include "obs/metrics.hpp"

namespace peace::curve {
namespace {

using math::U256;

using math::Fp;
using math::Fp12;
using math::Fp2;

/// One line of the affine oracle below, with its step kind.
struct AffineLine {
  Fp2 lambda, c;
  bool doubling;
};

/// The ate line schedule with T in affine coordinates: one Fp2 inversion
/// per step, the textbook formulas. The library builds its line tables
/// with a Jacobian T and one batched inversion (docs/CRYPTO.md §6.5); the
/// two must agree line for line, because field inverses are unique.
std::vector<AffineLine> affine_ate_lines(const G2& q) {
  const auto& bn = Bn254::get();
  Fp2 qx, qy;
  q.to_affine(qx, qy);
  Fp2 tx = qx, ty = qy;
  std::vector<AffineLine> lines;
  const auto chord = [&](const Fp2& lambda, const Fp2& ax, bool doubling) {
    lines.push_back({lambda, lambda * tx - ty, doubling});
    const Fp2 x3 = lambda.square() - tx - ax;
    ty = lambda * (tx - x3) - ty;
    tx = x3;
  };
  const auto double_step = [&] {
    chord(tx.square() * Fp::from_u64(3) * ty.dbl().inverse(), tx, true);
  };
  const auto add_step = [&](const Fp2& ax, const Fp2& ay) {
    chord((ay - ty) * (ax - tx).inverse(), ax, false);
  };
  for (int i = static_cast<int>(bn.ate_loop.bit_length()) - 2; i >= 0; --i) {
    double_step();
    if (bn.ate_loop.bit(static_cast<unsigned>(i))) add_step(qx, qy);
  }
  // Frobenius correction lines: pi(Q), then -pi^2(Q).
  add_step(qx.conjugate() * bn.frob_gamma[2],
           qy.conjugate() * bn.frob_gamma[3]);
  const Fp2 eta2 = bn.frob2_eta.square();
  add_step(qx * eta2, -(qy * eta2 * bn.frob2_eta));
  return lines;
}

/// The raw Miller value of P against the oracle's lines.
Fp12 affine_miller_loop(const G1& p, const std::vector<AffineLine>& lines) {
  Fp xp, yp;
  p.to_affine(xp, yp);
  Fp12 f = Fp12::one();
  for (const AffineLine& l : lines) {
    if (l.doubling) f = f.square();
    f = f.mul_by_line(Fp2(yp, Fp::zero()), -(l.lambda * xp), l.c);
  }
  return f;
}

class PairingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Bn254::init(); }
  crypto::Drbg rng_ = crypto::Drbg::from_string("pairing-test");
};

TEST_F(PairingTest, NonDegenerate) {
  const GT e = pairing(Bn254::get().g1_gen, Bn254::get().g2_gen);
  EXPECT_FALSE(e.is_one());
  EXPECT_FALSE(e.is_zero());
}

TEST_F(PairingTest, GtHasOrderR) {
  const GT e = gt_generator();
  EXPECT_TRUE(e.pow(Bn254::get().r).is_one());
}

TEST_F(PairingTest, GtGeneratorAddsNoPairingAfterInit) {
  // init() pairs the generators, so the first gt_generator() call in a
  // process adds nothing to the op counters a run reads after a reset.
  obs::Registry::global().reset();
  (void)gt_generator();
  EXPECT_EQ(pairing_op_count(), 0u);
  EXPECT_EQ(obs::op_count(obs::Op::kMillerLoop), 0u);
  EXPECT_EQ(obs::op_count(obs::Op::kFinalExp), 0u);
  EXPECT_EQ(obs::op_count(obs::Op::kFieldInversion), 0u);
}

TEST_F(PairingTest, InfinityMapsToOne) {
  EXPECT_TRUE(pairing(G1::infinity(), Bn254::get().g2_gen).is_one());
  EXPECT_TRUE(pairing(Bn254::get().g1_gen, G2::infinity()).is_one());
}

TEST_F(PairingTest, BilinearInFirstArgument) {
  const Fr a = random_fr(rng_);
  const G1 g1 = Bn254::get().g1_gen;
  const G2 g2 = Bn254::get().g2_gen;
  EXPECT_EQ(pairing(g1 * a, g2), pairing(g1, g2).pow(a.to_u256()));
}

TEST_F(PairingTest, BilinearInSecondArgument) {
  const Fr b = random_fr(rng_);
  const G1 g1 = Bn254::get().g1_gen;
  const G2 g2 = Bn254::get().g2_gen;
  EXPECT_EQ(pairing(g1, g2 * b), pairing(g1, g2).pow(b.to_u256()));
}

TEST_F(PairingTest, FullBilinearity) {
  const Fr a = random_fr(rng_), b = random_fr(rng_);
  const G1 g1 = Bn254::get().g1_gen;
  const G2 g2 = Bn254::get().g2_gen;
  EXPECT_EQ(pairing(g1 * a, g2 * b), gt_generator().pow((a * b).to_u256()));
}

TEST_F(PairingTest, AdditiveInFirstArgument) {
  const G1 p1 = Bn254::get().g1_gen * random_fr(rng_);
  const G1 p2 = Bn254::get().g1_gen * random_fr(rng_);
  const G2 q = Bn254::get().g2_gen * random_fr(rng_);
  EXPECT_EQ(pairing(p1 + p2, q), pairing(p1, q) * pairing(p2, q));
}

TEST_F(PairingTest, NegationInvertsPairing) {
  const G1 p = Bn254::get().g1_gen * random_fr(rng_);
  const G2 q = Bn254::get().g2_gen * random_fr(rng_);
  EXPECT_EQ(pairing(-p, q), pairing(p, q).unitary_inverse());
  EXPECT_TRUE((pairing(p, q) * pairing(-p, q)).is_one());
}

TEST_F(PairingTest, ConsistentWithTateReference) {
  // The optimal-ate and reduced-Tate maps are both pairings on G1 x G2 but
  // differ by a fixed r-coprime exponent (a standard relation); pointwise
  // equality is not expected. What must hold for both, on the same inputs:
  // bilinearity with the same scalars, values of exact order r, and
  // non-degeneracy.
  const Fr a = random_fr(rng_), b = random_fr(rng_);
  const G1 g1 = Bn254::get().g1_gen;
  const G2 g2 = Bn254::get().g2_gen;
  const GT t = pairing_reference(g1, g2);
  const GT t_ab = pairing_reference(g1 * a, g2 * b);
  EXPECT_EQ(t_ab, t.pow((a * b).to_u256()));
  EXPECT_FALSE(t.is_one());
  EXPECT_TRUE(t.pow(Bn254::get().r).is_one());
  // Same scalar moved between the two maps produces the same exponent
  // action: e(aP, Q) relates to e(P, Q) identically for ate and tate.
  const GT at = pairing(g1, g2);
  EXPECT_EQ(pairing(g1 * a, g2), at.pow(a.to_u256()));
  EXPECT_EQ(pairing_reference(g1 * a, g2), t.pow(a.to_u256()));
}

TEST_F(PairingTest, TateReferenceBilinear) {
  const Fr a = random_fr(rng_);
  const G1 g1 = Bn254::get().g1_gen;
  const G2 g2 = Bn254::get().g2_gen;
  EXPECT_EQ(pairing_reference(g1 * a, g2),
            pairing_reference(g1, g2).pow(a.to_u256()));
}

TEST_F(PairingTest, MultiPairingMatchesProduct) {
  const G1 p1 = Bn254::get().g1_gen * random_fr(rng_);
  const G1 p2 = Bn254::get().g1_gen * random_fr(rng_);
  const G2 q1 = Bn254::get().g2_gen * random_fr(rng_);
  const G2 q2 = Bn254::get().g2_gen * random_fr(rng_);
  EXPECT_EQ(multi_pairing({{p1, q1}, {p2, q2}}),
            pairing(p1, q1) * pairing(p2, q2));
  EXPECT_TRUE(multi_pairing(std::vector<std::pair<G1, G2>>{}).is_one());
}

TEST_F(PairingTest, PreparedMillerLoopBitIdentical) {
  // The prepared path must replay the exact same line sequence as the
  // direct ate loop: identical Fp12 Miller outputs, not just equal GT.
  for (int i = 0; i < 4; ++i) {
    const G1 p = Bn254::get().g1_gen * random_fr(rng_);
    const G2 q = Bn254::get().g2_gen * random_fr(rng_);
    const G2Prepared prep(q);
    EXPECT_EQ(miller_loop(p, prep), miller_loop(p, q));
    EXPECT_EQ(pairing(p, prep), pairing(p, q));
  }
}

TEST_F(PairingTest, LineTablesMatchAffineOracle) {
  // Batched Jacobian tables against the per-step affine schedule: every
  // stored line and every raw Miller value equal, for the generator, random
  // Jacobian points (Z != 1), a decoded point (Z = 1) and a negation.
  const G2 g2 = Bn254::get().g2_gen;
  std::vector<G2> qs = {g2};
  for (int i = 0; i < 3; ++i) qs.push_back(g2 * random_fr(rng_));
  qs.push_back(g2_from_bytes(g2_to_bytes(qs[1])));
  qs.push_back(-qs[2]);
  for (const G2& q : qs) {
    const std::vector<AffineLine> want = affine_ate_lines(q);
    const G2Prepared prep(q);
    const std::vector<G2Prepared::Line>& got = prep.lines();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].lambda, want[i].lambda) << "line " << i;
      EXPECT_EQ(got[i].c, want[i].c) << "line " << i;
    }
    const G1 p = Bn254::get().g1_gen * random_fr(rng_);
    EXPECT_EQ(miller_loop(p, q), affine_miller_loop(p, want));
  }
}

TEST_F(PairingTest, ZeroLineDenominatorThrows) {
  // (x, 0) is off the curve; its first doubling has a zero denominator,
  // which the affine oracle and the batched tables both refuse.
  const G2 bad(Fp2(Fp::from_u64(5), Fp::from_u64(7)), Fp2::zero());
  EXPECT_THROW(affine_ate_lines(bad), Error);
  EXPECT_THROW(G2Prepared{bad}, Error);
  EXPECT_THROW(miller_loop(Bn254::get().g1_gen, bad), Error);
}

TEST_F(PairingTest, PreparedHandlesInfinity) {
  const G2Prepared none;
  EXPECT_TRUE(none.is_infinity());
  EXPECT_TRUE(pairing(Bn254::get().g1_gen, none).is_one());
  const G2Prepared inf(G2::infinity());
  EXPECT_TRUE(inf.is_infinity());
  EXPECT_TRUE(pairing(Bn254::get().g1_gen, inf).is_one());
  const G2Prepared prep(Bn254::get().g2_gen);
  EXPECT_TRUE(pairing(G1::infinity(), prep).is_one());
}

TEST_F(PairingTest, PreparedMultiPairingMatchesProduct) {
  const G1 p1 = Bn254::get().g1_gen * random_fr(rng_);
  const G1 p2 = Bn254::get().g1_gen * random_fr(rng_);
  const G2 q1 = Bn254::get().g2_gen * random_fr(rng_);
  const G2 q2 = Bn254::get().g2_gen * random_fr(rng_);
  const G2Prepared prep1(q1), prep2(q2);
  const std::pair<G1, const G2Prepared*> pairs[] = {{p1, &prep1},
                                                    {p2, &prep2}};
  EXPECT_EQ(multi_pairing(pairs), pairing(p1, q1) * pairing(p2, q2));
  EXPECT_EQ(multi_pairing(pairs), multi_pairing({{p1, q1}, {p2, q2}}));
  EXPECT_TRUE(
      multi_pairing(std::span<const std::pair<G1, const G2Prepared*>>{})
          .is_one());
}

TEST_F(PairingTest, MixedMultiPairingMatchesProduct) {
  // The mixed overload — prepared long-lived bases fused with inline
  // one-shot G2 arguments — must equal the product of individual pairings
  // and agree with both homogeneous overloads.
  const G1 p1 = Bn254::get().g1_gen * random_fr(rng_);
  const G1 p2 = Bn254::get().g1_gen * random_fr(rng_);
  const G1 p3 = Bn254::get().g1_gen * random_fr(rng_);
  const G2 q1 = Bn254::get().g2_gen * random_fr(rng_);
  const G2 q2 = Bn254::get().g2_gen * random_fr(rng_);
  const G2 q3 = Bn254::get().g2_gen * random_fr(rng_);
  const G2Prepared prep1(q1);
  const std::pair<G1, const G2Prepared*> prep[] = {{p1, &prep1}};
  const std::pair<G1, G2> unprep[] = {{p2, q2}, {p3, q3}};
  EXPECT_EQ(multi_pairing(prep, unprep),
            pairing(p1, q1) * pairing(p2, q2) * pairing(p3, q3));
  EXPECT_EQ(multi_pairing(prep, unprep),
            multi_pairing({{p1, q1}, {p2, q2}, {p3, q3}}));
  // Degenerate shapes: all-prepared, all-unprepared, infinities, empty.
  EXPECT_EQ(multi_pairing(prep, {}), pairing(p1, q1));
  EXPECT_EQ(multi_pairing({}, unprep), pairing(p2, q2) * pairing(p3, q3));
  const std::pair<G1, G2> with_inf[] = {{G1::infinity(), q2},
                                        {p3, G2::infinity()}};
  EXPECT_TRUE(multi_pairing({}, with_inf).is_one());
  EXPECT_TRUE(multi_pairing({}, {}).is_one());
}

TEST_F(PairingTest, MixedMultiPairingCrossKindCancellation) {
  // The is_revoked shape: the same G2 point entering once through the
  // prepared table and once through the inline loop must cancel exactly —
  // e(P^a, Q) * e(P^-a, Q) = 1 across the two line sources.
  const Fr a = random_fr(rng_);
  const G1 p = Bn254::get().g1_gen;
  const G2 q = Bn254::get().g2_gen * random_fr(rng_);
  const G2Prepared prep_q(q);
  const std::pair<G1, const G2Prepared*> prep[] = {{p * a, &prep_q}};
  const std::pair<G1, G2> unprep[] = {{-(p * a), q}};
  EXPECT_TRUE(multi_pairing(prep, unprep).is_one());
}

TEST_F(PairingTest, PreparedDetectsDlogRelation) {
  // The revocation-equation pattern (Eq.3) through the prepared path.
  const Fr a = random_fr(rng_);
  const G1 p = Bn254::get().g1_gen;
  const G2Prepared q(Bn254::get().g2_gen * random_fr(rng_));
  const std::pair<G1, const G2Prepared*> pairs[] = {{p * a, &q},
                                                    {-(p * a), &q}};
  EXPECT_TRUE(multi_pairing(pairs).is_one());
}

TEST_F(PairingTest, PreparedConsistentWithTateReference) {
  // Same cross-check as ConsistentWithTateReference, but the ate side runs
  // through precomputed lines: the same scalar must act identically on the
  // prepared-ate and the independent Tate values.
  for (int i = 0; i < 3; ++i) {
    const Fr a = random_fr(rng_);
    const G1 p = Bn254::get().g1_gen * random_fr(rng_);
    const G2 q = Bn254::get().g2_gen * random_fr(rng_);
    const G2Prepared prep(q);
    const GT at = pairing(p, prep);
    const GT tate = pairing_reference(p, q);
    EXPECT_EQ(pairing(p * a, prep), at.pow(a.to_u256()));
    EXPECT_EQ(pairing_reference(p * a, q), tate.pow(a.to_u256()));
    EXPECT_FALSE(at.is_one());
    EXPECT_TRUE(at.pow(Bn254::get().r).is_one());
    EXPECT_TRUE(tate.pow(Bn254::get().r).is_one());
  }
}

TEST_F(PairingTest, ProductOfPairingsDetectsDlogRelation) {
  // e(P^a, Q) * e(P^-a, Q) = 1: the identity-check pattern used by the
  // revocation equation Eq.3.
  const Fr a = random_fr(rng_);
  const G1 p = Bn254::get().g1_gen;
  const G2 q = Bn254::get().g2_gen * random_fr(rng_);
  EXPECT_TRUE(multi_pairing({{p * a, q}, {-(p * a), q}}).is_one());
}

TEST_F(PairingTest, UntwistedPointOnCurve) {
  // The untwist map must land on E(Fp12): y^2 = x^3 + 3.
  math::Fp12 x, y;
  untwist(Bn254::get().g2_gen, x, y);
  math::Fp12 three = math::Fp12::one();
  three = three + three + math::Fp12::one();
  EXPECT_EQ(y * y, x * x * x + three);
}

TEST_F(PairingTest, FinalExponentiationKillsSubfield) {
  // Elements of Fp6 (c1 = 0) must map to 1: the denominator-elimination
  // property the Tate reference relies on.
  crypto::Drbg rng = crypto::Drbg::from_string("fexp-subfield");
  const math::Fp6 sub{{math::Fp::from_bytes_reduce(rng.bytes(32)),
                       math::Fp::from_bytes_reduce(rng.bytes(32))},
                      {math::Fp::from_bytes_reduce(rng.bytes(32)),
                       math::Fp::from_bytes_reduce(rng.bytes(32))},
                      {math::Fp::from_bytes_reduce(rng.bytes(32)),
                       math::Fp::from_bytes_reduce(rng.bytes(32))}};
  EXPECT_TRUE(final_exponentiation(math::Fp12(sub, math::Fp6::zero())).is_one());
}

TEST_F(PairingTest, HardPartChainMatchesGenericPath) {
  // The optimized final exponentiation must agree exactly with the
  // independent generic square-and-multiply on arbitrary Miller outputs.
  for (int i = 0; i < 3; ++i) {
    const G1 p = Bn254::get().g1_gen * random_fr(rng_);
    const G2 q = Bn254::get().g2_gen * random_fr(rng_);
    const math::Fp12 m = miller_loop(p, q);
    EXPECT_EQ(final_exponentiation(m), final_exponentiation_generic(m));
  }
}

TEST_F(PairingTest, PairingOpCounterAdvances) {
  const std::uint64_t before = pairing_op_count();
  pairing(Bn254::get().g1_gen, Bn254::get().g2_gen);
  EXPECT_EQ(pairing_op_count(), before + 1);
}

class PairingProperty : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() { Bn254::init(); }
};

TEST_P(PairingProperty, BilinearityAcrossSeeds) {
  crypto::Drbg rng = crypto::Drbg::from_string("pairing-prop", GetParam());
  const Fr a = random_fr(rng), b = random_fr(rng);
  const G1 p = Bn254::get().g1_gen * random_fr(rng);
  const G2 q = Bn254::get().g2_gen * random_fr(rng);
  const GT base = pairing(p, q);
  // e(aP, bQ) = e(P, Q)^(ab), e(aP, Q) * e(P, Q)^b = e(P, Q)^(a+b).
  EXPECT_EQ(pairing(p * a, q * b), base.pow((a * b).to_u256()));
  EXPECT_EQ(pairing(p * a, q) * base.pow(b.to_u256()),
            base.pow((a + b).to_u256()));
  // Swap argument sides: e(aP, Q) == e(P, aQ).
  EXPECT_EQ(pairing(p * a, q), pairing(p, q * a));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PairingProperty, ::testing::Range(0, 8));

TEST_F(PairingTest, CyclotomicSquareMatchesGenericSquare) {
  // GT elements live in the cyclotomic subgroup, where the Granger-Scott
  // shortcut must agree exactly with the generic Fp12 squaring.
  crypto::Drbg rng = crypto::Drbg::from_string("cyclo");
  for (int iter = 0; iter < 4; ++iter) {
    const G1 p = Bn254::get().g1_gen * random_fr(rng);
    const G2 q = Bn254::get().g2_gen * random_fr(rng);
    GT f = pairing(p, q);
    for (int step = 0; step < 8; ++step) {
      ASSERT_EQ(f.cyclotomic_square(), f.square());
      f = f.cyclotomic_square();
    }
  }
  ASSERT_EQ(GT(math::Fp12::one()).cyclotomic_square(), math::Fp12::one());
}

}  // namespace
}  // namespace peace::curve
