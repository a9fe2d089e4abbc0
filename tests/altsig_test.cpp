// The design-space argument of paper Sec. IV, executed: ring signatures
// and blind signatures both deliver anonymity but are *irrevocably*
// anonymous — no opening, no revocation, and (for rings) linear-size
// signatures. These tests pin the properties and non-properties that drove
// PEACE to a group-signature design.
#include <gtest/gtest.h>

#include "baseline/blind_sig.hpp"
#include "baseline/plain_auth.hpp"
#include "baseline/ring_sig.hpp"
#include "groupsig/groupsig.hpp"

namespace peace::baseline {
namespace {

class RingSigTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  RingSigTest() : rng_(crypto::Drbg::from_string("ring-test")) {
    for (int i = 0; i < 5; ++i) {
      keys_.push_back(RingKeyPair::generate(rng_));
      ring_.push_back(keys_.back().public_key);
    }
  }

  crypto::Drbg rng_;
  std::vector<RingKeyPair> keys_;
  std::vector<G1> ring_;
};

TEST_F(RingSigTest, AnyMemberCanSign) {
  for (std::size_t s = 0; s < ring_.size(); ++s) {
    const auto sig = ring_sign(ring_, s, keys_[s].secret, as_bytes("m"), rng_);
    EXPECT_TRUE(ring_verify(ring_, as_bytes("m"), sig)) << s;
  }
}

TEST_F(RingSigTest, WrongMessageOrRingRejected) {
  const auto sig = ring_sign(ring_, 2, keys_[2].secret, as_bytes("m"), rng_);
  EXPECT_FALSE(ring_verify(ring_, as_bytes("other"), sig));
  std::vector<G1> other_ring = ring_;
  other_ring[0] = RingKeyPair::generate(rng_).public_key;
  EXPECT_FALSE(ring_verify(other_ring, as_bytes("m"), sig));
  RingSignature tampered = sig;
  tampered.z[1] = tampered.z[1] + Fr::one();
  EXPECT_FALSE(ring_verify(ring_, as_bytes("m"), tampered));
}

TEST_F(RingSigTest, NonMemberCannotSign) {
  const RingKeyPair outsider = RingKeyPair::generate(rng_);
  EXPECT_THROW(ring_sign(ring_, 1, outsider.secret, as_bytes("m"), rng_),
               Error);
}

TEST_F(RingSigTest, SignerIsInformationTheoreticallyHidden) {
  // Two signatures by different members are structurally identical objects:
  // same shape, all scalars uniform. There is nothing resembling PEACE's
  // (T1, T2) credential encoding, hence nothing Eq.3-like can test.
  const auto s0 = ring_sign(ring_, 0, keys_[0].secret, as_bytes("m"), rng_);
  const auto s4 = ring_sign(ring_, 4, keys_[4].secret, as_bytes("m"), rng_);
  EXPECT_EQ(s0.z.size(), s4.z.size());
  EXPECT_TRUE(ring_verify(ring_, as_bytes("m"), s0));
  EXPECT_TRUE(ring_verify(ring_, as_bytes("m"), s4));
}

TEST_F(RingSigTest, SizeGrowsLinearlyUnlikePeace) {
  // The paper's size argument: group signature constant, ring linear.
  crypto::Drbg rng = crypto::Drbg::from_string("ring-size");
  for (std::size_t n : {2u, 8u, 32u}) {
    std::vector<RingKeyPair> keys;
    std::vector<G1> ring;
    for (std::size_t i = 0; i < n; ++i) {
      keys.push_back(RingKeyPair::generate(rng));
      ring.push_back(keys.back().public_key);
    }
    const auto sig = ring_sign(ring, 0, keys[0].secret, as_bytes("m"), rng);
    EXPECT_EQ(sig.size_bytes(), 32 * (1 + n));
    EXPECT_EQ(sig.to_bytes().size(), 32 * (1 + n) + 4);
  }
  EXPECT_EQ(groupsig::kSignatureSize, 782u);  // constant regardless of group
}

TEST_F(RingSigTest, SerializationRoundTrip) {
  const auto sig = ring_sign(ring_, 3, keys_[3].secret, as_bytes("m"), rng_);
  const auto again = RingSignature::from_bytes(sig.to_bytes());
  EXPECT_TRUE(ring_verify(ring_, as_bytes("m"), again));
  EXPECT_THROW(RingSignature::from_bytes(Bytes(7, 0)), Error);
  // Hostile member count must not allocate unbounded memory.
  Bytes evil(36, 0);
  evil[32] = 0xff;
  evil[33] = 0xff;
  evil[34] = 0xff;
  evil[35] = 0xff;
  EXPECT_THROW(RingSignature::from_bytes(evil), Error);
}

class BlindSigTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  BlindSigTest()
      : rng_(crypto::Drbg::from_string("blind-test")),
        issuer_(BlindIssuer::create(rng_)) {}

  BlindSignature issue(BytesView message) {
    BlindIssuer::SessionState state;
    const G1 commitment = issuer_.round1(state, rng_);
    BlindRequester requester;
    const Fr blinded =
        requester.challenge(issuer_.public_key(), commitment, message, rng_);
    return requester.unblind(issuer_.round2(state, blinded));
  }

  crypto::Drbg rng_;
  BlindIssuer issuer_;
};

TEST_F(BlindSigTest, IssueAndVerify) {
  const auto sig = issue(as_bytes("anonymous credential"));
  EXPECT_TRUE(
      blind_verify(issuer_.public_key(), as_bytes("anonymous credential"), sig));
  EXPECT_FALSE(blind_verify(issuer_.public_key(), as_bytes("other"), sig));
}

TEST_F(BlindSigTest, WrongIssuerRejected) {
  const auto sig = issue(as_bytes("m"));
  const BlindIssuer other = BlindIssuer::create(rng_);
  EXPECT_FALSE(blind_verify(other.public_key(), as_bytes("m"), sig));
}

TEST_F(BlindSigTest, TamperRejected) {
  auto sig = issue(as_bytes("m"));
  sig.s = sig.s + Fr::one();
  EXPECT_FALSE(blind_verify(issuer_.public_key(), as_bytes("m"), sig));
}

TEST_F(BlindSigTest, IssuerCannotLinkIssuanceToSignature) {
  // The unaccountability the paper rejects: even an issuer who logs every
  // issuance transcript cannot tell which session produced a given
  // signature — the blinded challenge it saw is independent of the final
  // (c, s). We check the strongest observable fact: the challenge the
  // issuer received differs from the signature's challenge, for every
  // session, and the signature verifies under a message the issuer never
  // saw.
  for (int i = 0; i < 5; ++i) {
    BlindIssuer::SessionState state;
    const G1 commitment = issuer_.round1(state, rng_);
    BlindRequester requester;
    const Bytes msg = rng_.bytes(16);
    const Fr blinded =
        requester.challenge(issuer_.public_key(), commitment, msg, rng_);
    const auto sig = requester.unblind(issuer_.round2(state, blinded));
    EXPECT_FALSE(blinded == sig.c);  // issuer's view != credential
    EXPECT_TRUE(blind_verify(issuer_.public_key(), msg, sig));
  }
}

TEST_F(BlindSigTest, SerializationRoundTrip) {
  const auto sig = issue(as_bytes("m"));
  EXPECT_EQ(sig.to_bytes().size(), 64u);  // EXPERIMENTS.md E1
  const auto again = BlindSignature::from_bytes(sig.to_bytes());
  EXPECT_TRUE(blind_verify(issuer_.public_key(), as_bytes("m"), again));
  EXPECT_THROW(BlindSignature::from_bytes(Bytes(63, 0)), Error);
}

// EXPERIMENTS.md E1: the identity-revealing baseline's access request (two
// DH shares, a timestamp, the user's certificate and an ECDSA signature) is
// 264 bytes.
TEST(DesignSpace, PlainBaselineRequestIs264Bytes) {
  curve::Bn254::init();
  crypto::Drbg rng = crypto::Drbg::from_string("e1-plain");
  PlainAuthority authority(crypto::Drbg::from_string("e1-auth"));
  const auto user = authority.issue_user("alice@example", ~0ull);
  const G1 g = curve::Bn254::get().g1_gen;
  EXPECT_EQ(make_plain_request(user, g, g, 1000, rng).to_bytes().size(), 264u);
}

// The point of the whole comparison, pinned as a compile-visible fact: the
// group signature exposes an opening/revocation interface; the
// alternatives expose none. (PEACE's matches_token has no analogue here —
// these types simply have no credential-bearing fields to test.)
TEST(DesignSpace, OnlyGroupSignaturesSupportOpening) {
  static_assert(sizeof(groupsig::RevocationToken) > 0,
                "group signatures carry an openable credential token");
  // Ring and blind signatures are bare scalars/vectors of scalars.
  static_assert(std::is_same_v<decltype(RingSignature::c0), curve::Fr>);
  static_assert(std::is_same_v<decltype(BlindSignature::c), curve::Fr>);
  SUCCEED();
}

}  // namespace
}  // namespace peace::baseline
