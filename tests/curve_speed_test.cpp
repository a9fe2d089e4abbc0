// Differential tests for the curve-layer fast paths (docs/CRYPTO.md §6):
// GLV/GLS endomorphism multiplication vs the plain windowed oracle, the
// lazily reduced tower vs the eager formulas, batched affine normalization
// vs per-point inversion, the wNAF window sweep, the op-count regression
// gates on the new curve.* counters, and the prepared-key group signer vs
// the plain-key one.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "crypto/drbg.hpp"
#include "curve/bn254.hpp"
#include "curve/ecdsa.hpp"
#include "curve/hash_to_curve.hpp"
#include "curve/pairing.hpp"
#include "edge_scalars.hpp"
#include "groupsig/groupsig.hpp"
#include "obs/metrics.hpp"

namespace peace::curve {
namespace {

using math::BigInt;
using math::Fp;
using math::Fp12;
using math::Fp2;
using math::U256;

class CurveSpeedTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Bn254::init(); }
  crypto::Drbg rng_ = crypto::Drbg::from_string("curve-speed-test");

  Fr rand_fr() { return random_fr(rng_); }
  G1 rand_g1() { return Bn254::get().g1_gen * rand_fr(); }
  G2 rand_g2() { return Bn254::get().g2_gen * rand_fr(); }
  Fp rand_fp() {
    Bytes b(32);
    rng_.fill(b.data(), b.size());
    return Fp::from_bytes_reduce(b);
  }
  Fp2 rand_fp2() { return Fp2(rand_fp(), rand_fp()); }
  Fp12 rand_fp12() {
    using math::Fp6;
    return Fp12(Fp6(rand_fp2(), rand_fp2(), rand_fp2()),
                Fp6(rand_fp2(), rand_fp2(), rand_fp2()));
  }
  /// A unitary Fp12 (in the cyclotomic subgroup), as cyclotomic_square
  /// requires: any pairing value qualifies.
  Fp12 rand_unitary() { return pairing(rand_g1(), rand_g2()); }
};

TEST_F(CurveSpeedTest, GlvMatchesPlainOnRandomScalars) {
  const G1 p = rand_g1();
  for (int i = 0; i < 8; ++i) {
    const U256 k = rand_fr().to_u256();
    const G1 fast = g1_mul_glv(p, k);
    const G1 plain = p.mul_windowed(k);
    EXPECT_EQ(fast, plain);
    EXPECT_EQ(p * k, plain);  // operator* routes through the endo hook
    EXPECT_EQ(g1_to_bytes(fast), g1_to_bytes(plain));  // bit-identical wire
  }
}

TEST_F(CurveSpeedTest, GlvMatchesPlainOnEdgeScalars) {
  const G1 p = rand_g1();
  for (const U256& k : edge_scalars()) {
    EXPECT_EQ(g1_mul_glv(p, k), p.mul_windowed(k)) << "k bits "
                                                   << k.bit_length();
  }
  EXPECT_TRUE(g1_mul_glv(G1::infinity(), U256(12345)).is_infinity());
}

TEST_F(CurveSpeedTest, GlsMatchesPlainOnRandomScalars) {
  const G2 q = rand_g2();
  for (int i = 0; i < 8; ++i) {
    const U256 k = rand_fr().to_u256();
    const G2 fast = g2_mul_gls(q, k);
    const G2 plain = q.mul_windowed(k);
    EXPECT_EQ(fast, plain);
    EXPECT_EQ(g2_to_bytes(fast), g2_to_bytes(plain));
  }
}

TEST_F(CurveSpeedTest, GlsMatchesPlainOnEdgeScalars) {
  const G2 q = rand_g2();
  for (const U256& k : edge_scalars()) {
    EXPECT_EQ(g2_mul_gls(q, k), q.mul_windowed(k)) << "k bits "
                                                   << k.bit_length();
  }
}

TEST_F(CurveSpeedTest, DecompositionsRecombine) {
  // k0 + k1*lambda == k (mod r), and the 4-way GLS analogue, checked in
  // Fr arithmetic for random and edge scalars.
  const Fr lam = Fr::from_u256(Bn254::get().glv_lambda);
  const Fr lam2 = Fr::from_u256(Bn254::get().gls_lambda);
  std::vector<U256> ks = edge_scalars();
  for (int i = 0; i < 8; ++i) ks.push_back(rand_fr().to_u256());
  for (const U256& k : ks) {
    const Fr want = Fr::from_bytes_reduce(k.to_bytes());
    const GlvSplit s2 = glv_decompose(k);
    Fr acc = Fr::from_u256(s2.k[0]) * (s2.neg[0] ? -Fr::one() : Fr::one());
    acc = acc +
          Fr::from_u256(s2.k[1]) * (s2.neg[1] ? -Fr::one() : Fr::one()) * lam;
    EXPECT_EQ(acc, want);
    // Components are genuinely short (the whole point of the split).
    EXPECT_LE(s2.k[0].bit_length(), 130u);
    EXPECT_LE(s2.k[1].bit_length(), 130u);

    const GlsSplit s4 = gls_decompose(k);
    Fr acc4 = Fr::zero();
    Fr lpow = Fr::one();
    for (int j = 0; j < 4; ++j) {
      acc4 = acc4 + Fr::from_u256(s4.k[j]) *
                        (s4.neg[j] ? -Fr::one() : Fr::one()) * lpow;
      lpow = lpow * lam2;
      EXPECT_LE(s4.k[j].bit_length(), 96u);
    }
    EXPECT_EQ(acc4, want);
  }
}

/// The exact Babai split of k (mod r) against a basis with adjugate column
/// adj and determinant det, in BigInt arithmetic: c_j = round(k adj_j /
/// det) (ties away from zero), split = (k, 0, ..) - c B. The oracle for the
/// fixed-point round-off glv_decompose / gls_decompose evaluate.
template <std::size_t N>
std::array<SignedBig, N> exact_babai_split(
    const U256& k, const std::array<std::array<SignedBig, N>, N>& basis,
    const std::array<SignedBig, N>& adj, const SignedBig& det) {
  const auto make = [](bool neg, BigInt mag) {
    return SignedBig{!mag.is_zero() && neg, std::move(mag)};
  };
  const auto add = [&](const SignedBig& a, const SignedBig& b) {
    if (a.neg == b.neg) return make(a.neg, a.mag + b.mag);
    return BigInt::cmp(a.mag, b.mag) >= 0 ? make(a.neg, a.mag - b.mag)
                                          : make(b.neg, b.mag - a.mag);
  };
  const BigInt r = BigInt::from_u256(Bn254::get().r);
  const BigInt kb = BigInt::from_u256(k) % r;
  std::array<SignedBig, N> c;
  for (std::size_t j = 0; j < N; ++j) {
    BigInt q, rem;
    BigInt::divmod(kb * adj[j].mag, det.mag, q, rem);
    if (!(BigInt::cmp(rem + rem, det.mag) < 0)) q = q + BigInt(1);
    c[j] = make(adj[j].neg != det.neg, q);
  }
  std::array<SignedBig, N> split;
  for (std::size_t i = 0; i < N; ++i) {
    split[i] = i == 0 ? make(false, kb) : SignedBig{};
    for (std::size_t j = 0; j < N; ++j)
      split[i] = add(split[i], make(c[j].neg == basis[j][i].neg,
                                    c[j].mag * basis[j][i].mag));
  }
  return split;
}

TEST_F(CurveSpeedTest, DecompositionsMatchExactRoundOff) {
  const Bn254& bn = Bn254::get();
  std::vector<U256> ks = edge_scalars();
  for (int i = 0; i < 1000; ++i) ks.push_back(rand_fr().to_u256());
  for (int i = 0; i < 24; ++i) {  // unreduced 256-bit scalars
    Bytes b(32);
    rng_.fill(b.data(), b.size());
    ks.push_back(U256::from_bytes(b));
  }
  for (const U256& k : ks) {
    const GlvSplit s2 = glv_decompose(k);
    const auto want2 =
        exact_babai_split<2>(k, bn.glv_basis, bn.glv_adj, bn.glv_det);
    for (int i = 0; i < 2; ++i) {
      ASSERT_EQ(BigInt::from_u256(s2.k[i]), want2[i].mag) << k.to_hex();
      ASSERT_EQ(s2.neg[i], want2[i].neg) << k.to_hex();
    }
    const GlsSplit s4 = gls_decompose(k);
    const auto want4 =
        exact_babai_split<4>(k, bn.gls_basis, bn.gls_adj, bn.gls_det);
    for (int i = 0; i < 4; ++i) {
      ASSERT_EQ(BigInt::from_u256(s4.k[i]), want4[i].mag) << k.to_hex();
      ASSERT_EQ(s4.neg[i], want4[i].neg) << k.to_hex();
    }
  }
}

TEST_F(CurveSpeedTest, EndoMapsActAsEigenvalues) {
  const G1 p = rand_g1();
  EXPECT_EQ(g1_endo(p), p * Bn254::get().glv_lambda);
  const G2 q = rand_g2();
  EXPECT_EQ(g2_psi(q), q * Bn254::get().gls_lambda);
}

TEST_F(CurveSpeedTest, MsmMatchesSumOfMultiplications) {
  // Endo-split and plain MSMs against the straight sum, several sizes.
  for (const std::size_t n : {1u, 2u, 3u, 5u, 9u}) {
    std::vector<G1> pts;
    std::vector<G2> qts;
    std::vector<U256> ks;
    G1 want1 = G1::infinity();
    G2 want2 = G2::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      pts.push_back(rand_g1());
      qts.push_back(rand_g2());
      ks.push_back(rand_fr().to_u256());
      want1 = want1 + pts.back().mul_windowed(ks.back());
      want2 = want2 + qts.back().mul_windowed(ks.back());
    }
    EXPECT_EQ(g1_msm(std::span<const G1>(pts), std::span<const U256>(ks)),
              want1);
    EXPECT_EQ(g2_msm(std::span<const G2>(qts), std::span<const U256>(ks)),
              want2);
    EXPECT_EQ(multi_scalar_mul<G1Traits>(std::span<const G1>(pts),
                                         std::span<const U256>(ks)),
              want1);
  }
}

TEST_F(CurveSpeedTest, WnafWindowSweepIsExact) {
  const G1 p = rand_g1();
  const G2 q = rand_g2();
  const U256 k = rand_fr().to_u256();
  const G1 want1 = p.mul_windowed(k);
  const G2 want2 = q.mul_windowed(k);
  const G1 pts[1] = {p};
  const G2 qts[1] = {q};
  const U256 ks[1] = {k};
  for (unsigned w = 2; w <= 7; ++w) {
    EXPECT_EQ(msm_wnaf(std::span<const G1>(pts), std::span<const U256>(ks), w),
              want1)
        << "w=" << w;
    EXPECT_EQ(msm_wnaf(std::span<const G2>(qts), std::span<const U256>(ks), w),
              want2)
        << "w=" << w;
  }
}

TEST_F(CurveSpeedTest, BatchNormalizeMatchesPerPointAffine) {
  std::vector<G1> pts;
  for (int i = 0; i < 6; ++i) pts.push_back(rand_g1() + rand_g1());
  pts.push_back(G1::infinity());  // flag path
  pts.push_back(rand_g1().dbl());
  std::vector<AffinePoint<G1Traits>> aff(pts.size());
  batch_normalize<G1Traits>(pts, aff);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(aff[i].infinity, pts[i].is_infinity());
    if (aff[i].infinity) continue;
    Fp x, y;
    pts[i].to_affine(x, y);
    // Unique-inverse argument (CRYPTO.md §6.4): bit-identical coordinates.
    EXPECT_EQ(aff[i].x, x);
    EXPECT_EQ(aff[i].y, y);
  }
}

TEST_F(CurveSpeedTest, OneInversionPerMsmNormalization) {
  const auto inversions = [] {
    return obs::Registry::global().counter("curve.field_inversions").value();
  };
  std::vector<G1> pts;
  std::vector<U256> ks;
  for (int i = 0; i < 5; ++i) {
    pts.push_back(rand_g1());
    ks.push_back(rand_fr().to_u256());
  }
  const std::uint64_t before = inversions();
  (void)multi_scalar_mul<G1Traits>(std::span<const G1>(pts),
                                   std::span<const U256>(ks));
  EXPECT_EQ(inversions() - before, 1u);  // whole 5-term MSM: one inversion

  const std::uint64_t before_glv = inversions();
  (void)(rand_g1() * rand_fr());  // GLV path: one table normalization
  // rand_g1 itself costs a multiplication; count only the outer one by
  // measuring a bare operator* on a fixed point.
  const G1 p = Bn254::get().g1_gen;
  const std::uint64_t before_fixed = inversions();
  (void)(p * rand_fr().to_u256());
  EXPECT_EQ(inversions() - before_fixed, 1u);
  EXPECT_GE(inversions(), before_glv);

  // Decomposition counters move with the endo paths.
  const auto glv_count = [] {
    return obs::Registry::global()
        .counter("curve.glv_decompositions")
        .value();
  };
  const std::uint64_t gb = glv_count();
  (void)g1_mul_glv(p, rand_fr().to_u256());
  EXPECT_EQ(glv_count() - gb, 1u);
}

TEST_F(CurveSpeedTest, OneInversionPerLineTable) {
  const auto inversions = [] {
    return obs::Registry::global().counter("curve.field_inversions").value();
  };
  // A Z = 1 point (decoded, or the generator): the table's one batched
  // inversion and nothing else.
  const G2 decoded = g2_from_bytes(g2_to_bytes(rand_g2()));
  std::uint64_t before = inversions();
  const G2Prepared prep(decoded);
  EXPECT_EQ(inversions() - before, 1u);
  before = inversions();
  (void)G2Prepared(Bn254::get().g2_gen);
  EXPECT_EQ(inversions() - before, 1u);
  // A Jacobian point pays its to_affine on top.
  const G2 jacobian = rand_g2();
  before = inversions();
  (void)G2Prepared(jacobian);
  EXPECT_EQ(inversions() - before, 2u);
  // The unprepared Miller loop builds the same table: one for Q, none for
  // the Z = 1 P.
  before = inversions();
  (void)miller_loop(Bn254::get().g1_gen, decoded);
  EXPECT_EQ(inversions() - before, 1u);
}

TEST_F(CurveSpeedTest, SignNormalizesItsPointsWithTwoInversions) {
  const auto inversions = [] {
    return obs::Registry::global().counter("curve.field_inversions").value();
  };
  crypto::Drbg setup = crypto::Drbg::from_string("sign-inversions-setup");
  const groupsig::Issuer issuer = groupsig::Issuer::create(setup);
  const groupsig::MemberKey key =
      issuer.issue(issuer.new_group_secret(setup), setup);
  const groupsig::PreparedGroupPublicKey pgpk(issuer.gpk());
  const Bytes message = {0x42};
  for (const groupsig::Epoch epoch : {groupsig::Epoch{0}, groupsig::Epoch{3}}) {
    std::uint64_t before = inversions();
    const groupsig::Signature sig =
        groupsig::sign(pgpk, key, message, rng_, epoch);
    // 1 for hash_to_g2's cofactor clearing, 8 scalar-multiplication and MSM
    // tables (T1, T2, T_hat, R1, R2's two G1 terms, R3, R4), 1 for R2's
    // batched G1 normalization, and 2 batch_normalize passes over the six
    // carried points. The group key has Z = 1 and costs none.
    EXPECT_EQ(inversions() - before, 12u) << "epoch " << epoch;
    before = inversions();
    const Bytes wire = sig.to_bytes();
    EXPECT_EQ(inversions() - before, 0u);  // already normalized
    const groupsig::Signature decoded = groupsig::Signature::from_bytes(wire);
    before = inversions();
    EXPECT_EQ(decoded.to_bytes(), wire);
    EXPECT_EQ(inversions() - before, 0u);  // decoded points have Z = 1
  }
}

TEST_F(CurveSpeedTest, LazyFp2MulMatchesEager) {
  for (int i = 0; i < 32; ++i) {
    const Fp2 a = rand_fp2(), b = rand_fp2();
    const Fp2 lazy = a * b;
    const Fp2 eager = a.mul_eager(b);
    EXPECT_EQ(lazy, eager);
    // Canonical representatives: identical bytes, not just equal values.
    EXPECT_EQ(lazy.c0.to_bytes(), eager.c0.to_bytes());
    EXPECT_EQ(lazy.c1.to_bytes(), eager.c1.to_bytes());
  }
  // mul_by_xi's add-chain form vs straight multiplication by 9 + i.
  const Fp2 x = rand_fp2();
  EXPECT_EQ(x.mul_by_xi(), x * math::fp2_xi());
}

TEST_F(CurveSpeedTest, LazyMulByLineMatchesEager) {
  for (int i = 0; i < 8; ++i) {
    const Fp12 f = rand_fp12();
    const Fp2 a = rand_fp2(), b = rand_fp2(), c = rand_fp2();
    EXPECT_EQ(f.mul_by_line(a, b, c), f.mul_by_line_eager(a, b, c));
  }
}

TEST_F(CurveSpeedTest, CyclotomicSquareMatchesGenericOnUnitary) {
  for (int i = 0; i < 4; ++i) {
    const Fp12 u = rand_unitary();
    EXPECT_EQ(u.cyclotomic_square(), u.square());
  }
}

TEST_F(CurveSpeedTest, SubgroupCheckAgainstOrderMultiplication) {
  // Subgroup points pass; raw twist points (cofactor not cleared) fail —
  // and the psi check agrees with the [r]Q == O ground truth on both.
  const auto& bn = Bn254::get();
  for (int i = 0; i < 4; ++i) {
    const G2 q = rand_g2();
    EXPECT_TRUE(g2_in_subgroup(q));
    EXPECT_TRUE((q * bn.r).is_infinity());
  }
  EXPECT_TRUE(g2_in_subgroup(G2::infinity()));
  // Deterministic raw twist point (same construction as hash_to_g2
  // pre-cofactor): on the curve, overwhelmingly not order r.
  for (std::uint64_t c = 1;; ++c) {
    const Fp2 x(Fp::from_u64(c), Fp::from_u64(1));
    const Fp2 rhs = x.square() * x + G2Traits::b();
    Fp2 y;
    if (!rhs.sqrt(y)) continue;
    const G2 raw(x, y);
    EXPECT_EQ(g2_in_subgroup(raw), (raw * bn.r).is_infinity());
    EXPECT_FALSE(g2_in_subgroup(raw));
    // Cofactor clearing lands it in the subgroup, same element both ways.
    const G2 cleared = g2_clear_cofactor(raw);
    EXPECT_EQ(cleared, raw * bn.g2_cofactor);
    EXPECT_TRUE(g2_in_subgroup(cleared));
    break;
  }
}

TEST_F(CurveSpeedTest, OptimalAteMatchesReferenceTate) {
  // Cross-check the optimal-ate fast path against the independent Tate
  // reference on GLV/GLS-computed inputs. Ate and Tate are distinct
  // pairings (they differ by a fixed power coprime to r), so the check is
  // on the bilinear action, not pointwise equality — same pattern as
  // pairing_test's ConsistentWithTateReference.
  const Fr a = rand_fr();
  const U256 k1 = rand_fr().to_u256();
  const U256 k2 = rand_fr().to_u256();
  const G1 p = g1_mul_glv(Bn254::get().g1_gen, k1);
  const G2 q = g2_mul_gls(Bn254::get().g2_gen, k2);
  const GT at = pairing(p, q);
  const GT tate = pairing_reference(p, q);
  EXPECT_EQ(pairing(g1_mul_glv(p, a.to_u256()), q), at.pow(a.to_u256()));
  EXPECT_EQ(pairing_reference(p * a, q), tate.pow(a.to_u256()));
  EXPECT_FALSE(at.is_one());
  EXPECT_TRUE(at.pow(Bn254::get().r).is_one());
  EXPECT_TRUE(tate.pow(Bn254::get().r).is_one());
  // Endo-produced points are the plain-path points, bit for bit.
  EXPECT_EQ(g1_to_bytes(p), g1_to_bytes(Bn254::get().g1_gen * k1));
  EXPECT_EQ(g2_to_bytes(q), g2_to_bytes(Bn254::get().g2_gen * k2));
}

TEST_F(CurveSpeedTest, HashToG2StillLandsInSubgroup) {
  // hash_to_g2 now clears cofactors via psi; outputs must stay order-r.
  const Bytes seed = {1, 2, 3};
  const G2 h = hash_to_g2("curve-speed-test", seed);
  EXPECT_TRUE(g2_in_subgroup(h));
  EXPECT_TRUE((h * Bn254::get().r).is_infinity());
  EXPECT_FALSE(h.is_infinity());
}

TEST_F(CurveSpeedTest, PreparedSignMatchesPlain) {
  // The prepared-key signer pairs R2 against the prepared g2 / w lines; the
  // plain-key signer is its oracle. From identically seeded DRBGs both must
  // emit the same bytes and report the same op counts, at epoch 0 and in
  // epoch mode.
  crypto::Drbg setup = crypto::Drbg::from_string("prepared-sign-setup");
  const groupsig::Issuer issuer = groupsig::Issuer::create(setup);
  const groupsig::MemberKey key =
      issuer.issue(issuer.new_group_secret(setup), setup);
  const groupsig::PreparedGroupPublicKey pgpk(issuer.gpk());
  for (const groupsig::Epoch epoch : {groupsig::Epoch{0}, groupsig::Epoch{7}}) {
    crypto::Drbg plain_rng = crypto::Drbg::from_string("prepared-sign");
    crypto::Drbg prepared_rng = crypto::Drbg::from_string("prepared-sign");
    for (int i = 0; i < 10; ++i) {
      const Bytes message = {static_cast<std::uint8_t>(i), 0x5a};
      groupsig::OpCounters plain_ops, prepared_ops;
      const groupsig::Signature plain = groupsig::sign(
          issuer.gpk(), key, message, plain_rng, epoch, &plain_ops);
      const groupsig::Signature prepared = groupsig::sign(
          pgpk, key, message, prepared_rng, epoch, &prepared_ops);
      EXPECT_EQ(prepared.to_bytes(), plain.to_bytes())
          << "epoch " << epoch << " signature " << i;
      EXPECT_EQ(prepared_ops, plain_ops);
      EXPECT_TRUE(groupsig::verify_proof(pgpk, message, prepared));
    }
  }
}

}  // namespace
}  // namespace peace::curve
