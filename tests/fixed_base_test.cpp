// The fixed-base generator table (docs/CRYPTO.md §6.6): curve::
// g1_generator_mul against the GLV ladder and textbook double-and-add at
// the recoding's window boundaries and carry cases, the call sites that
// route through it (ECDSA, the router's beacon), and its op counts.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/drbg.hpp"
#include "curve/bn254.hpp"
#include "curve/ecdsa.hpp"
#include "edge_scalars.hpp"
#include "obs/metrics.hpp"
#include "peace/router.hpp"

namespace peace::curve {
namespace {

using math::BigInt;
using math::U256;

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

class FixedBaseTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Bn254::init(); }
  crypto::Drbg rng_ = crypto::Drbg::from_string("fixed-base-test");

  /// Checks k G against both oracles, as points and as wire bytes.
  static void expect_matches_oracles(const Fr& k) {
    const G1& g = Bn254::get().g1_gen;
    const G1 fast = g1_generator_mul(k);
    const G1 plain = g.mul_double_and_add(k.to_u256());
    EXPECT_EQ(fast, plain) << k.to_u256().to_hex();
    EXPECT_EQ(fast, g1_mul_glv(g, k.to_u256())) << k.to_u256().to_hex();
    EXPECT_EQ(g1_to_bytes(fast), g1_to_bytes(plain));
  }

  static Fr reduce(const U256& k) {
    return Fr::from_bytes_reduce(k.to_bytes());
  }
};

TEST_F(FixedBaseTest, MatchesOraclesOnEdgeScalars) {
  for (const U256& k : edge_scalars()) expect_matches_oracles(reduce(k));
  const BigInt r = BigInt::from_u256(Bn254::get().r);
  for (const BigInt& k : {BigInt(0), BigInt(1), r - BigInt(1), r - BigInt(2)})
    expect_matches_oracles(Fr::from_u256(k.to_u256()));
  EXPECT_TRUE(g1_generator_mul(Fr::zero()).is_infinity());
}

TEST_F(FixedBaseTest, MatchesOraclesAtEveryWindowBoundary) {
  // 2^{7i} - 1 is all ones below window i: every lower digit recodes to -1
  // or 0 with a carry rippling up. 64 * 2^{7i} is the largest positive
  // digit, 65 * 2^{7i} the smallest that turns negative and carries, and
  // 127 * 2^{7i} the digit -1 with a carry.
  const BigInt r = BigInt::from_u256(Bn254::get().r);
  for (unsigned i = 0; i < 37; ++i) {
    const BigInt w = BigInt(1) << (7 * i);
    for (const BigInt& k : {w - BigInt(1), w, w + BigInt(1), w * BigInt(64),
                            w * BigInt(65), w * BigInt(127)})
      expect_matches_oracles(Fr::from_u256((k % r).to_u256()));
  }
}

TEST_F(FixedBaseTest, MatchesOraclesOnRandomScalars) {
  for (int i = 0; i < 32; ++i) expect_matches_oracles(random_fr(rng_));
}

TEST_F(FixedBaseTest, EcdsaRoundTripThroughTheTable) {
  const EcdsaKeyPair kp = EcdsaKeyPair::generate(rng_);
  EXPECT_EQ(kp.public_key(), Bn254::get().g1_gen.mul_double_and_add(
                                 kp.secret_key().to_u256()));
  const Bytes msg = {'b', 'e', 'a', 'c', 'o', 'n'};
  const EcdsaSignature sig = kp.sign(msg, rng_);
  EXPECT_TRUE(ecdsa_verify(kp.public_key(), msg, sig));
  const EcdsaKeyPair other = EcdsaKeyPair::generate(rng_);
  EXPECT_FALSE(ecdsa_verify(other.public_key(), msg, sig));
}

TEST_F(FixedBaseTest, GeneratorMulCostsNoInversionAndNoSplit) {
  const Fr k = random_fr(rng_);
  const std::uint64_t inv = counter("curve.field_inversions");
  const std::uint64_t glv = counter("curve.glv_decompositions");
  const std::uint64_t fixed = counter("curve.fixed_base_muls");
  (void)g1_generator_mul(k);
  EXPECT_EQ(counter("curve.field_inversions") - inv, 0u);
  EXPECT_EQ(counter("curve.glv_decompositions") - glv, 0u);
  EXPECT_EQ(counter("curve.fixed_base_muls") - fixed, 1u);

  // ECDSA: sign is one table multiplication (R = k G) and no split;
  // verify is one table multiplication ((e w) G) and one split (the key).
  const EcdsaKeyPair kp = EcdsaKeyPair::generate(rng_);
  const Bytes msg = {1, 2, 3};
  std::uint64_t f0 = counter("curve.fixed_base_muls");
  std::uint64_t g0 = counter("curve.glv_decompositions");
  const EcdsaSignature sig = kp.sign(msg, rng_);
  EXPECT_EQ(counter("curve.fixed_base_muls") - f0, 1u);
  EXPECT_EQ(counter("curve.glv_decompositions") - g0, 0u);
  f0 = counter("curve.fixed_base_muls");
  g0 = counter("curve.glv_decompositions");
  EXPECT_TRUE(ecdsa_verify(kp.public_key(), msg, sig));
  EXPECT_EQ(counter("curve.fixed_base_muls") - f0, 1u);
  EXPECT_EQ(counter("curve.glv_decompositions") - g0, 1u);
}

TEST_F(FixedBaseTest, BeaconSharesMatchTheGlvProducts) {
  proto::NetworkOperator no(crypto::Drbg::from_string("fixed-base-no"));
  auto provision = no.provision_router(1, 1'000'000'000);
  proto::MeshRouter router(1, provision.keypair, provision.certificate,
                           no.params(),
                           crypto::Drbg::from_string("fixed-base-router"));
  const std::uint64_t f0 = counter("curve.fixed_base_muls");
  const std::uint64_t g0 = counter("curve.glv_decompositions");
  const proto::BeaconMessage beacon = router.make_beacon(1000);
  // g, g^{r_R} and the signature's R; no variable-base ladder.
  EXPECT_EQ(counter("curve.fixed_base_muls") - f0, 3u);
  EXPECT_EQ(counter("curve.glv_decompositions") - g0, 0u);

  // Replay the router's DRBG: the constructor's batch salt, then a and
  // r_R, in that order.
  crypto::Drbg replay = crypto::Drbg::from_string("fixed-base-router");
  (void)replay.bytes(32);
  const Fr a = random_fr(replay);
  const Fr r_r = random_fr(replay);
  const G1& g = Bn254::get().g1_gen;
  EXPECT_EQ(beacon.g, g1_mul_glv(g, a.to_u256()));
  const G1 g_rr = g1_mul_glv(beacon.g, r_r.to_u256());
  EXPECT_EQ(beacon.g_rr, g_rr);
  EXPECT_EQ(g1_to_bytes(beacon.g_rr), g1_to_bytes(g_rr));
  EXPECT_TRUE(ecdsa_verify(provision.keypair.public_key(),
                           beacon.signed_payload(), beacon.signature));
}

TEST_F(FixedBaseTest, BeaconSharesAndKeysInvertOnce) {
  // A key pair's public key and a beacon's two shares come out with Z = 1,
  // so only their making inverts: one batch normalization of g and g_rr
  // plus the signature's R, and no encoding of the beacon inverts again.
  const EcdsaKeyPair kp = EcdsaKeyPair::generate(rng_);
  std::uint64_t inv = counter("curve.field_inversions");
  (void)g1_to_bytes(kp.public_key());
  EXPECT_EQ(counter("curve.field_inversions") - inv, 0u);

  proto::NetworkOperator no(crypto::Drbg::from_string("fixed-base-inv-no"));
  auto provision = no.provision_router(1, 1'000'000'000);
  proto::MeshRouter router(1, provision.keypair, provision.certificate,
                           no.params(),
                           crypto::Drbg::from_string("fixed-base-inv-router"));
  inv = counter("curve.field_inversions");
  const proto::BeaconMessage beacon = router.make_beacon(1000);
  EXPECT_EQ(counter("curve.field_inversions") - inv, 2u);
  inv = counter("curve.field_inversions");
  (void)beacon.to_bytes();
  EXPECT_EQ(counter("curve.field_inversions") - inv, 0u);
}

TEST_F(FixedBaseTest, ConcurrentEcdsaSharesTheTable) {
  // The metro's pool threads all read the one table built by init().
  std::vector<std::jthread> threads;
  std::vector<int> ok(4, 0);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([t, &ok] {
      crypto::Drbg rng = crypto::Drbg::from_string("fixed-base-thread", t);
      const EcdsaKeyPair kp = EcdsaKeyPair::generate(rng);
      for (int i = 0; i < 8; ++i) {
        const Bytes msg = {static_cast<std::uint8_t>(t),
                           static_cast<std::uint8_t>(i)};
        if (ecdsa_verify(kp.public_key(), msg, kp.sign(msg, rng))) ++ok[t];
      }
    });
  threads.clear();  // joins
  for (int t = 0; t < 4; ++t) EXPECT_EQ(ok[t], 8) << "thread " << t;
}

}  // namespace
}  // namespace peace::curve
