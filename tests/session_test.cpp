// Session keying and the hybrid data path.
#include "peace/session.hpp"

#include <gtest/gtest.h>

#include "curve/ecdsa.hpp"

namespace peace::proto {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  SessionTest() : rng_(crypto::Drbg::from_string("session-test")) {
    shared_ = curve::Bn254::get().g1_gen * curve::random_fr(rng_);
    sid_ = to_bytes("session-id-0001");
    a_ = Session::establish(shared_, sid_, Session::Role::kInitiator);
    b_ = Session::establish(shared_, sid_, Session::Role::kResponder);
  }

  crypto::Drbg rng_;
  G1 shared_;
  Bytes sid_;
  Session a_ = Session::establish(G1(), {}, Session::Role::kInitiator);
  Session b_ = Session::establish(G1(), {}, Session::Role::kResponder);
};

TEST_F(SessionTest, BidirectionalTraffic) {
  auto f1 = a_.seal(as_bytes("hello"));
  auto got = b_.open(f1);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, to_bytes("hello"));
  auto f2 = b_.seal(as_bytes("world"));
  auto got2 = a_.open(f2);
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(*got2, to_bytes("world"));
}

TEST_F(SessionTest, DirectionalKeysDiffer) {
  // A frame sealed by the initiator cannot be opened by the initiator
  // (no reflection attacks).
  auto f = a_.seal(as_bytes("m"));
  Session a2 = Session::establish(shared_, sid_, Session::Role::kInitiator);
  EXPECT_FALSE(a2.open(f).has_value());
}

TEST_F(SessionTest, ReplayRejected) {
  auto f = a_.seal(as_bytes("once"));
  ASSERT_TRUE(b_.open(f).has_value());
  EXPECT_FALSE(b_.open(f).has_value());
}

TEST_F(SessionTest, ReorderRejected) {
  auto f0 = a_.seal(as_bytes("zero"));
  auto f1 = a_.seal(as_bytes("one"));
  ASSERT_TRUE(b_.open(f1).has_value());
  EXPECT_FALSE(b_.open(f0).has_value());  // old seq after newer one
}

TEST_F(SessionTest, GapsAllowedForward) {
  auto f0 = a_.seal(as_bytes("zero"));
  auto f1 = a_.seal(as_bytes("one"));
  auto f2 = a_.seal(as_bytes("two"));
  (void)f0;
  (void)f1;
  EXPECT_TRUE(b_.open(f2).has_value());  // loss tolerated
}

TEST_F(SessionTest, TamperRejected) {
  auto f = a_.seal(as_bytes("payload"));
  f.ciphertext[0] ^= 1;
  EXPECT_FALSE(b_.open(f).has_value());
}

TEST_F(SessionTest, FailedOpenDoesNotAdvanceWindow) {
  // A forged frame with a high sequence number must not burn sequence
  // numbers for the legitimate sender: the replay window only advances on
  // successful AEAD verification.
  DataFrame forged;
  forged.session_id = sid_;
  forged.seq = 1000;
  forged.ciphertext = to_bytes("not a real ciphertext, just padding....");
  EXPECT_FALSE(b_.open(forged).has_value());

  auto f0 = a_.seal(as_bytes("still works"));
  EXPECT_EQ(f0.seq, 0u);
  EXPECT_TRUE(b_.open(f0).has_value());
}

TEST_F(SessionTest, AcceptOnceEvenWithGaps) {
  // Jumping forward (loss) is fine, but every accepted sequence number is
  // accepted exactly once, and anything at or below it is then dead.
  auto f0 = a_.seal(as_bytes("zero"));
  auto f1 = a_.seal(as_bytes("one"));
  auto f2 = a_.seal(as_bytes("two"));
  ASSERT_TRUE(b_.open(f1).has_value());
  EXPECT_FALSE(b_.open(f1).has_value());  // exact replay
  EXPECT_FALSE(b_.open(f0).has_value());  // older
  EXPECT_TRUE(b_.open(f2).has_value());   // newer still fine
}

TEST_F(SessionTest, SendSequenceExhaustionRefused) {
  // The AEAD nonce is derived from the 64-bit sequence number; wrapping
  // would reuse a nonce under the same key. seal() must refuse instead.
  a_.advance_send_seq(Session::kSeqExhausted);
  EXPECT_EQ(a_.frames_sent(), Session::kSeqExhausted);
  EXPECT_THROW(a_.seal(as_bytes("one too many")), Error);
  // Saturating, not wrapping: still refused after another advance.
  a_.advance_send_seq(5);
  EXPECT_THROW(a_.seal(as_bytes("still refused")), Error);
}

TEST_F(SessionTest, WrongSessionIdRejected) {
  auto f = a_.seal(as_bytes("m"));
  f.session_id = to_bytes("other-session!!");
  Session other =
      Session::establish(shared_, f.session_id, Session::Role::kResponder);
  // Different session id => different keys: must fail.
  EXPECT_FALSE(other.open(f).has_value());
  EXPECT_FALSE(b_.open(f).has_value());
}

TEST_F(SessionTest, DifferentDhKeysCannotInterop) {
  const G1 other_shared = curve::Bn254::get().g1_gen * curve::random_fr(rng_);
  Session eve = Session::establish(other_shared, sid_, Session::Role::kResponder);
  auto f = a_.seal(as_bytes("secret"));
  EXPECT_FALSE(eve.open(f).has_value());
}

TEST_F(SessionTest, MacPath) {
  const Bytes tag = a_.mac(as_bytes("data"));
  EXPECT_EQ(tag.size(), 32u);
  EXPECT_TRUE(b_.check_mac(as_bytes("data"), tag));
  EXPECT_FALSE(b_.check_mac(as_bytes("datA"), tag));
  // MAC key is shared (not directional).
  EXPECT_TRUE(a_.check_mac(as_bytes("data"), b_.mac(as_bytes("data"))));
}

TEST_F(SessionTest, FrameSerializationRoundTrip) {
  auto f = a_.seal(as_bytes("wire"));
  const DataFrame f2 = DataFrame::from_bytes(f.to_bytes());
  EXPECT_EQ(f2.session_id, f.session_id);
  EXPECT_EQ(f2.seq, f.seq);
  EXPECT_EQ(f2.ciphertext, f.ciphertext);
  EXPECT_TRUE(b_.open(f2).has_value());
}

TEST_F(SessionTest, ConfirmSealOpenRoundTrip) {
  const Bytes ct = confirm_seal(shared_, sid_, as_bytes("confirm-payload"));
  auto pt = confirm_open(shared_, sid_, ct);
  ASSERT_TRUE(pt.has_value());
  EXPECT_EQ(*pt, to_bytes("confirm-payload"));
  // Bound to the session id.
  EXPECT_FALSE(confirm_open(shared_, to_bytes("other"), ct).has_value());
  // And to the DH share.
  const G1 other = curve::Bn254::get().g1_gen * curve::random_fr(rng_);
  EXPECT_FALSE(confirm_open(other, sid_, ct).has_value());
}

TEST_F(SessionTest, ManyFramesThroughput) {
  for (int i = 0; i < 500; ++i) {
    auto f = a_.seal(as_bytes("frame payload with some body to it"));
    ASSERT_TRUE(b_.open(f).has_value()) << i;
  }
  EXPECT_EQ(a_.frames_sent(), 500u);
}

}  // namespace
}  // namespace peace::proto
