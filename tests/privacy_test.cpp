// The privacy model of Sec. III.C: anonymity and session unlinkability
// against eavesdroppers, session identifiers that carry no identity,
// and the structural "who knows what" guarantees.
#include <gtest/gtest.h>

#include <set>

#include "groupsig_reference.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::proto {
namespace {

class PrivacyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  PrivacyTest() : no_(crypto::Drbg::from_string("privacy-no")) {
    gm_ = std::make_unique<GroupManager>(no_.register_group("G", 8, ttp_));
    auto provision = no_.provision_router(1, kFarFuture);
    router_ = std::make_unique<MeshRouter>(
        1, provision.keypair, provision.certificate, no_.params(),
        crypto::Drbg::from_string("privacy-router"));
    router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  }

  User enroll(const std::string& uid) {
    User user(uid, no_.params(), crypto::Drbg::from_string("priv-" + uid));
    user.complete_enrollment(gm_->enroll(uid, ttp_));
    return user;
  }

  AccessRequest handshake_m2(User& user, Timestamp now) {
    const BeaconMessage beacon = router_->make_beacon(now);
    auto m2 = user.process_beacon(beacon, now);
    EXPECT_TRUE(m2.has_value());
    return *m2;
  }

  static constexpr Timestamp kFarFuture = 1000ull * 86400 * 365;

  NetworkOperator no_;
  TrustedThirdParty ttp_;
  std::unique_ptr<GroupManager> gm_;
  std::unique_ptr<MeshRouter> router_;
};

TEST_F(PrivacyTest, NoIdentifierOnTheWire) {
  // The serialized M.2 must not contain the uid, in any framing.
  User alice = enroll("alice-identity-string");
  const AccessRequest m2 = handshake_m2(alice, 1000);
  const Bytes wire = m2.to_bytes();
  const std::string uid = "alice-identity-string";
  const std::string wire_str(wire.begin(), wire.end());
  EXPECT_EQ(wire_str.find(uid), std::string::npos);
}

TEST_F(PrivacyTest, SessionsOfSameUserShareNoTokens) {
  // Every element of two M.2's from the same user differs: fresh DH share,
  // fresh nonce, fresh T1/T2/T_hat (randomized encryption of the same A).
  User alice = enroll("alice");
  const AccessRequest a = handshake_m2(alice, 1000);
  const AccessRequest b = handshake_m2(alice, 2000);
  EXPECT_NE(curve::g1_to_bytes(a.g_rj), curve::g1_to_bytes(b.g_rj));
  EXPECT_FALSE(a.signature.nonce == b.signature.nonce);
  EXPECT_NE(curve::g1_to_bytes(a.signature.t1),
            curve::g1_to_bytes(b.signature.t1));
  EXPECT_NE(curve::g1_to_bytes(a.signature.t2),
            curve::g1_to_bytes(b.signature.t2));
  EXPECT_NE(curve::g2_to_bytes(a.signature.t_hat),
            curve::g2_to_bytes(b.signature.t_hat));
}

TEST_F(PrivacyTest, SessionIdsAreFreshRandomPairs) {
  // Paper: "every data session is identified only through pairs of fresh
  // random numbers". All session ids across users and time are distinct.
  User alice = enroll("alice");
  User bob = enroll("bob");
  std::set<std::string> ids;
  for (int i = 0; i < 4; ++i) {
    for (User* u : {&alice, &bob}) {
      const BeaconMessage beacon = router_->make_beacon(1000 + i * 50);
      auto m2 = u->process_beacon(beacon, 1000 + i * 50);
      ASSERT_TRUE(m2.has_value());
      auto outcome = router_->handle_access_request(*m2, 1001 + i * 50);
      ASSERT_TRUE(outcome.has_value());
      ids.insert(to_hex(outcome->session_id));
    }
  }
  EXPECT_EQ(ids.size(), 8u);
}

TEST_F(PrivacyTest, RouterLearnsLegitimacyNotIdentity) {
  // The router's entire post-handshake state is keyed by session id; no
  // uid ever reaches it. (MeshRouter has no API that could return one.)
  User alice = enroll("alice");
  const BeaconMessage beacon = router_->make_beacon(1000);
  auto m2 = alice.process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  auto outcome = router_->handle_access_request(*m2, 1001);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(router_->stats().accepted, 1u);
}

TEST_F(PrivacyTest, DifferentMembersSignaturesLookAlike) {
  // A verifier (and any eavesdropper) sees valid signatures from both and
  // verify_proof outputs the same bit; nothing in the public verification
  // distinguishes the member. Here: both verify, and neither contains the
  // other's credential token detectably via Eq.3 without grt.
  User alice = enroll("alice");
  User bob = enroll("bob");
  const AccessRequest ma = handshake_m2(alice, 1000);
  const AccessRequest mb = handshake_m2(bob, 2000);
  EXPECT_TRUE(groupsig::verify_proof(no_.params().gpk, ma.signed_payload(),
                                     ma.signature));
  EXPECT_TRUE(groupsig::verify_proof(no_.params().gpk, mb.signed_payload(),
                                     mb.signature));
}

TEST_F(PrivacyTest, CompromisedMemberCannotTestOthers) {
  // An adversary holding bob's full gsk still cannot run Eq.3 against
  // alice's signature with any token derivable from bob's key material.
  User alice = enroll("alice");
  User bob = enroll("bob");
  const AccessRequest ma = handshake_m2(alice, 1000);
  const groupsig::MemberKey& bob_key = bob.credential(gm_->id());
  // Bob's own token does not match alice's signature...
  EXPECT_FALSE(groupsig::matches_token(no_.params().gpk, ma.signed_payload(),
                                       ma.signature,
                                       groupsig::RevocationToken{bob_key.a}));
  // ...and alice's A is not computable from (grp, x_bob) without gamma —
  // the audit linkage stays exclusive to NO.
  const auto audit = no_.audit(ma);
  ASSERT_TRUE(audit.has_value());
  EXPECT_NE(audit->token.a, bob_key.a);
}

TEST_F(PrivacyTest, EpochModeLeaksExactlyLinkability) {
  // The fast-revocation trade-off (Sec. V.C): within one epoch a passive
  // verifier CAN link two signatures of the same member, which is exactly
  // what the default per-message mode prevents. Demonstrate both sides.
  User alice = enroll("alice");
  const groupsig::MemberKey& key = alice.credential(gm_->id());
  crypto::Drbg rng = crypto::Drbg::from_string("epoch-priv");

  const auto s1 = groupsig::sign(no_.params().gpk, key, as_bytes("m1"), rng, 5);
  const auto s2 = groupsig::sign(no_.params().gpk, key, as_bytes("m2"), rng, 5);
  EXPECT_TRUE(groupsig::epoch_linkability_tag(no_.params().gpk, s1) ==
              groupsig::epoch_linkability_tag(no_.params().gpk, s2));

  // Default mode: the analogous tag is computed over per-message bases and
  // differs between the two sessions, so it links nothing.
  const auto d1 = groupsig::sign(no_.params().gpk, key, as_bytes("m1"), rng);
  const auto d2 = groupsig::sign(no_.params().gpk, key, as_bytes("m2"), rng);
  EXPECT_NE(curve::g1_to_bytes(d1.t2), curve::g1_to_bytes(d2.t2));
}

TEST_F(PrivacyTest, CrossEpochSignaturesUnlinkable) {
  // ProtocolConfig::revocation_epoch_ms is the privacy knob: one member's
  // M.2s carry the same linkability tag within an epoch and unrelated tags
  // across epochs, and two members never share one.
  ProtocolConfig config;
  config.revocation_epoch_ms = 60'000;
  const auto epoch_user = [&](const std::string& uid) {
    User user(uid, no_.params(), crypto::Drbg::from_string("epoch-" + uid),
              config);
    user.complete_enrollment(gm_->enroll(uid, ttp_));
    return user;
  };
  User alice = epoch_user("alice");
  User bob = epoch_user("bob");
  const auto tag = [&](User& user, Timestamp now) {
    const AccessRequest m2 = handshake_m2(user, now);
    EXPECT_EQ(m2.signature.epoch, config.epoch_at(now));
    return groupsig::epoch_linkability_tag(no_.params().gpk, m2.signature);
  };
  const curve::GT first = tag(alice, 1'000);
  EXPECT_TRUE(first == tag(alice, 59'000));   // epoch 1 twice: linked
  const curve::GT second = tag(alice, 61'000);
  EXPECT_FALSE(first == second);              // epoch 1 vs 2: unlinked
  EXPECT_TRUE(second == tag(alice, 119'000));
  EXPECT_FALSE(second == tag(bob, 61'000));   // another member
}

TEST_F(PrivacyTest, TtpStateContainsNoCredential) {
  // TTP's store is blinded blobs only; unblinding any entry with the wrong
  // secret fails or yields a non-credential.
  User alice = enroll("alice");
  (void)alice;
  for (const auto& [idx, blob] : ttp_.blinded_store()) {
    try {
      const G1 guess = unblind_credential(blob, Fr::from_u64(12345));
      // If it parses, it is (overwhelmingly) not a valid credential under
      // the SDH relation for any known (grp, x).
      EXPECT_TRUE(guess.is_on_curve());
    } catch (const Error&) {
      // Not even a point — fine.
    }
  }
}

TEST_F(PrivacyTest, PeerSessionsEquallyUnlinkable) {
  User alice = enroll("alice");
  User bob = enroll("bob");
  const BeaconMessage beacon = router_->make_beacon(1000);
  ASSERT_TRUE(alice.process_beacon(beacon, 1000).has_value());
  ASSERT_TRUE(bob.process_beacon(beacon, 1000).has_value());

  const PeerHello h1 = alice.make_peer_hello(beacon.g, 1100);
  const PeerHello h2 = alice.make_peer_hello(beacon.g, 1200);
  EXPECT_NE(curve::g1_to_bytes(h1.g_rj), curve::g1_to_bytes(h2.g_rj));
  EXPECT_NE(curve::g1_to_bytes(h1.signature.t2),
            curve::g1_to_bytes(h2.signature.t2));
}

}  // namespace
}  // namespace peace::proto
