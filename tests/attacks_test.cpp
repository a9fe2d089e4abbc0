// The attack analyses of Sec. V.A, executed rather than argued: bogus data
// injection (A1), phishing routers (A2), replays, revoked entities, and
// eavesdropper linkage (A3), plus the client-puzzle DoS defence (E8).
#include "mesh/adversary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

namespace peace::mesh {
namespace {

constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;

class AttacksTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  AttacksTest()
      : no_(crypto::Drbg::from_string("atk-no")),
        gm_(no_.register_group("city", 16, ttp_)),
        net_(sim_, crypto::Drbg::from_string("atk-net")) {}

  std::unique_ptr<proto::User> make_user(const std::string& uid) {
    auto user = std::make_unique<proto::User>(
        uid, no_.params(), crypto::Drbg::from_string("atk-" + uid));
    user->complete_enrollment(gm_.enroll(uid, ttp_));
    return user;
  }

  proto::NetworkOperator no_;
  proto::TrustedThirdParty ttp_;
  proto::GroupManager gm_;
  Simulator sim_;
  MeshNetwork net_;
};

TEST_F(AttacksTest, A1_OutsiderBogusInjectionAllRejected) {
  const NodeId r = net_.add_router({0, 0}, no_, kFarFuture);
  const auto beacon = net_.router(r).make_beacon(1000);
  BogusInjector outsider(crypto::Drbg::from_string("outsider"));
  EXPECT_EQ(outsider.inject(net_.router(r), beacon, 1001, 25), 0u);
  EXPECT_EQ(net_.router(r).stats().rejected_bad_signature, 25u);
}

TEST_F(AttacksTest, A1_RevokedUserCannotRejoin) {
  const NodeId r = net_.add_router({0, 0}, no_, kFarFuture);
  const auto enrollment = gm_.enroll("revoked", ttp_);
  proto::User revoked("revoked", no_.params(),
                      crypto::Drbg::from_string("revoked-u"));
  revoked.complete_enrollment(enrollment);
  no_.revoke_user_key(enrollment.index, 100);
  net_.push_revocation_lists(no_.current_crl(), no_.current_url());

  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto beacon = net_.router(r).make_beacon(1000 + attempt);
    auto m2 = revoked.process_beacon(beacon, 1000 + attempt);
    ASSERT_TRUE(m2.has_value());  // the revoked user can still *try*
    EXPECT_FALSE(
        net_.router(r).handle_access_request(*m2, 1001 + attempt).has_value());
  }
  EXPECT_EQ(net_.router(r).stats().rejected_revoked, 3u);
}

TEST_F(AttacksTest, A1_MalformedPointsRejectedAtParse) {
  // A1 variant: instead of garbage bytes, the adversary re-encodes a valid
  // M.2 with degenerate curve points. Parsing must reject them before any
  // pairing or DH computation sees them.
  const NodeId r = net_.add_router({0, 0}, no_, kFarFuture);
  auto user = make_user("target");
  const auto beacon = net_.router(r).make_beacon(1000);
  auto m2 = user->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  EXPECT_NO_THROW(proto::AccessRequest::from_bytes(m2->to_bytes()));

  // Identity DH share: the session key would be derived from the identity.
  auto tampered = *m2;
  tampered.g_rj = curve::G1::infinity();
  EXPECT_THROW(proto::AccessRequest::from_bytes(tampered.to_bytes()), Error);

  // Identity signature component: degenerate pairing input.
  tampered = *m2;
  tampered.signature.t1 = curve::G1::infinity();
  EXPECT_THROW(proto::AccessRequest::from_bytes(tampered.to_bytes()), Error);

  // Valid twist-curve point outside the order-r subgroup as T_hat.
  const auto& bn = curve::Bn254::get();
  tampered = *m2;
  for (std::uint64_t i = 1; i < 64; ++i) {
    const math::Fp2 x = math::Fp2::from_u64(i, 0);
    const math::Fp2 rhs = x.square() * x + curve::G2Traits::b();
    math::Fp2 y;
    if (!rhs.sqrt(y)) continue;
    const curve::G2 point(x, y);
    if ((point * bn.r).is_infinity()) continue;
    tampered.signature.t_hat = point;
    break;
  }
  ASSERT_FALSE((tampered.signature.t_hat * bn.r).is_infinity());
  EXPECT_THROW(proto::AccessRequest::from_bytes(tampered.to_bytes()), Error);
}

TEST_F(AttacksTest, A1_ReplayedRequestsAllRejected) {
  const NodeId r = net_.add_router({0, 0}, no_, kFarFuture);
  net_.add_user({40, 0}, make_user("victim"));
  Replayer replayer;
  replayer.attach(net_);
  std::vector<Bytes> m3_on_air;
  net_.add_tap([&](const WireObservation& obs) {
    if (std::string_view(obs.kind) == "m3") m3_on_air.push_back(obs.payload);
  });
  net_.start_beaconing(100, 500, 1100);
  sim_.run_until(2000);
  ASSERT_GT(replayer.captured(), 0u);
  // Immediate replay: replay cache blocks it. Later replay: timestamp too.
  EXPECT_EQ(replayer.replay_all(net_.router(r), sim_.now()), 0u);
  EXPECT_EQ(replayer.replay_all(net_.router(r), sim_.now() + 100000), 0u);
  // A byte-identical replay may be answered as a retransmission, but only
  // with an M.3 the air already carried: it leaks nothing new.
  EXPECT_FALSE(replayer.confirms().empty());
  for (const Bytes& m3 : replayer.confirms())
    EXPECT_NE(std::find(m3_on_air.begin(), m3_on_air.end(), m3),
              m3_on_air.end());
}

TEST_F(AttacksTest, A2_PhishingRouterAttractsNoUsers) {
  net_.add_router({0, 0}, no_, kFarFuture);
  proto::MeshRouter rogue = make_rogue_router(
      999, no_.params(), crypto::Drbg::from_string("rogue"));
  auto victim = make_user("victim");
  const auto beacon = rogue.make_beacon(1000);
  EXPECT_FALSE(victim->process_beacon(beacon, 1000).has_value());
  EXPECT_EQ(victim->stats().beacons_rejected, 1u);
}

TEST_F(AttacksTest, A2_RevokedRouterRejectedOnceCrlSeen) {
  // The paper's phishing window: a freshly revoked router can phish only
  // until the user sees a CRL update. Model both sides of the window.
  auto provision = no_.provision_router(5, kFarFuture);
  proto::MeshRouter revoked_router(5, provision.keypair,
                                   provision.certificate, no_.params(),
                                   crypto::Drbg::from_string("revoked-r"));
  revoked_router.install_revocation_lists(no_.current_crl(),
                                          no_.current_url());
  auto user = make_user("windowed");

  // Before revocation reaches the user: the beacon is accepted (the paper's
  // exposure window).
  const auto beacon_before = revoked_router.make_beacon(1000);
  EXPECT_TRUE(user->process_beacon(beacon_before, 1000).has_value());

  // NO revokes the router. The router itself keeps beaconing with its OLD
  // lists (it would not distribute the CRL naming itself) — but the user
  // has meanwhile learned the new CRL from any honest beacon.
  no_.revoke_router(5, 1500);
  auto honest = no_.provision_router(6, kFarFuture);
  proto::MeshRouter honest_router(6, honest.keypair, honest.certificate,
                                  no_.params(),
                                  crypto::Drbg::from_string("honest-r"));
  honest_router.install_revocation_lists(no_.current_crl(),
                                         no_.current_url());
  ASSERT_TRUE(
      user->process_beacon(honest_router.make_beacon(2000), 2000).has_value());

  // Now the revoked router's beacons are rejected by the CRL check.
  const auto beacon_after = revoked_router.make_beacon(3000);
  EXPECT_FALSE(user->process_beacon(beacon_after, 3000).has_value());
}

TEST_F(AttacksTest, A3_EavesdropperSeesNoLinkableFields) {
  net_.add_router({0, 0}, no_, kFarFuture);
  net_.add_user({40, 0}, make_user("alice-the-lawyer"));
  net_.add_user({50, 10}, make_user("bob-the-doctor"));
  Eavesdropper eve;
  eve.attach(net_);
  net_.start_beaconing(100, 400, 2100);
  sim_.run_until(4000);

  ASSERT_GT(eve.access_requests_seen(), 0u);
  // Fresh randomness everywhere: no protocol field repeats across requests.
  EXPECT_EQ(eve.repeated_field_count(), 0u);
  // No identity string ever crossed the air.
  EXPECT_FALSE(eve.saw_bytes(as_bytes("alice-the-lawyer")));
  EXPECT_FALSE(eve.saw_bytes(as_bytes("bob-the-doctor")));
  // No plaintext recovered from data frames.
  EXPECT_TRUE(eve.recovered_plaintexts().empty());
}

TEST_F(AttacksTest, A3_EavesdropperCannotReadRelayedData) {
  net_.add_router({0, 0}, no_, kFarFuture);
  const NodeId near = net_.add_user({60, 0}, make_user("near"));
  const NodeId far = net_.add_user({130, 0}, make_user("far"));
  (void)near;
  Eavesdropper eve;
  eve.attach(net_);
  net_.start_beaconing(100, 500, 1100);
  sim_.run_until(2000);
  net_.establish_peer_links();
  sim_.run_until(2500);
  ASSERT_TRUE(net_.send_data(far, as_bytes("my secret medical record")));
  // The payload crossed two radio hops; the eavesdropper saw every frame
  // yet never the plaintext.
  EXPECT_FALSE(eve.saw_bytes(as_bytes("my secret medical record")));
}

TEST_F(AttacksTest, A3_CompromisedRouterCannotDeanonymize) {
  // Threat model III.B: the adversary may compromise mesh routers. A
  // compromised router sees everything a legitimate router sees — valid
  // M.2s, session keys — but holds no grt, so it can neither identify the
  // signer nor link two sessions of the same user.
  const NodeId r = net_.add_router({0, 0}, no_, kFarFuture);
  auto victim = make_user("victim-of-insider");

  // The router (insider) collects two sessions from the same user.
  const auto b1 = net_.router(r).make_beacon(1000);
  auto m2a = victim->process_beacon(b1, 1000);
  ASSERT_TRUE(net_.router(r).handle_access_request(*m2a, 1001).has_value());
  const auto b2 = net_.router(r).make_beacon(2000);
  auto m2b = victim->process_beacon(b2, 2000);
  ASSERT_TRUE(net_.router(r).handle_access_request(*m2b, 2001).has_value());

  // Everything the insider can index on is fresh across the two sessions.
  EXPECT_NE(curve::g1_to_bytes(m2a->g_rj), curve::g1_to_bytes(m2b->g_rj));
  EXPECT_NE(curve::g1_to_bytes(m2a->signature.t1),
            curve::g1_to_bytes(m2b->signature.t1));
  EXPECT_NE(curve::g1_to_bytes(m2a->signature.t2),
            curve::g1_to_bytes(m2b->signature.t2));
  // Even with another member's full gsk (insider collusion), Eq.3 against
  // that credential fails — only NO's grt can open.
  auto accomplice_enrollment = gm_.enroll("accomplice", ttp_);
  proto::User accomplice("accomplice", no_.params(),
                         crypto::Drbg::from_string("accomplice"));
  accomplice.complete_enrollment(accomplice_enrollment);
  const auto& acc_key = accomplice.credential(gm_.id());
  EXPECT_FALSE(groupsig::matches_token(no_.params().gpk,
                                       m2a->signed_payload(), m2a->signature,
                                       {acc_key.a}));
}

TEST_F(AttacksTest, ActiveMitmCannotHijackHandshake) {
  // An active adversary rewriting messages in flight can deny service but
  // never complete or redirect a handshake.
  const NodeId r = net_.add_router({0, 0}, no_, kFarFuture);
  auto user = make_user("mitm-target");
  const auto beacon = net_.router(r).make_beacon(1000);
  auto m2 = user->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());

  // Substitute the adversary's own DH share into M.2: signature breaks.
  crypto::Drbg rng = crypto::Drbg::from_string("mitm");
  proto::AccessRequest hijacked = *m2;
  hijacked.g_rj = curve::Bn254::get().g1_gen * curve::random_fr(rng);
  EXPECT_FALSE(net_.router(r).handle_access_request(hijacked, 1001).has_value());

  // Let the genuine M.2 through, then forge the confirm toward the user
  // with an adversary-known key: the user rejects it, no session forms.
  auto outcome = net_.router(r).handle_access_request(*m2, 1002);
  ASSERT_TRUE(outcome.has_value());
  proto::AccessConfirm forged = outcome->confirm;
  forged.ciphertext = rng.bytes(forged.ciphertext.size());
  EXPECT_FALSE(user->process_access_confirm(forged).has_value());
  // The honest confirm still completes afterwards (no state poisoning).
  EXPECT_TRUE(user->process_access_confirm(outcome->confirm).has_value());
}

TEST_F(AttacksTest, E8_PuzzleGatesExpensiveWork) {
  const NodeId r = net_.add_router({0, 0}, no_, kFarFuture);
  DosFlooder flooder(crypto::Drbg::from_string("flooder"));

  // Without the defence: every bogus request costs the router a signature
  // verification.
  auto beacon = net_.router(r).make_beacon(1000);
  auto undefended = flooder.flood(net_.router(r), beacon, 1001, 30,
                                  /*solve_puzzles=*/false);
  EXPECT_EQ(undefended.accepted, 0u);
  EXPECT_EQ(undefended.router_sig_verifications, 30u);

  // Defence on, attacker refuses to pay: requests die at the puzzle check.
  net_.router(r).set_under_attack(true, /*difficulty=*/10);
  beacon = net_.router(r).make_beacon(2000);
  auto cheap = flooder.flood(net_.router(r), beacon, 2001, 30,
                             /*solve_puzzles=*/false);
  EXPECT_EQ(cheap.router_sig_verifications, 0u);
  EXPECT_EQ(cheap.accepted, 0u);

  // Attacker pays: can induce work again, but each request now costs ~2^10
  // hashes of attacker compute, throttled by its budget.
  auto paying = flooder.flood(net_.router(r), beacon, 2002, 30,
                              /*solve_puzzles=*/true,
                              /*hash_budget=*/10 * 1024);
  EXPECT_LE(paying.sent, 10u);  // budget capped the flood rate
  EXPECT_GT(paying.attacker_hash_work, 0u);
  EXPECT_EQ(paying.accepted, 0u);
}

TEST_F(AttacksTest, E8_LegitimateUserStillConnectsUnderAttack) {
  const NodeId r = net_.add_router({0, 0}, no_, kFarFuture);
  net_.router(r).set_under_attack(true, /*difficulty=*/8);
  auto user = make_user("patient-user");
  const auto beacon = net_.router(r).make_beacon(1000);
  auto m2 = user->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  ASSERT_TRUE(m2->puzzle_solution.has_value());
  EXPECT_TRUE(net_.router(r).handle_access_request(*m2, 1001).has_value());
  EXPECT_GT(user->stats().puzzle_hashes, 0u);
}

}  // namespace
}  // namespace peace::mesh
