// Capstone integration scenario: a multi-group metropolitan deployment
// living through a full operational cycle — joining, roaming, relaying,
// Internet access, an active attacker, an audit, a revocation, a DoS wave,
// and finally a membership-renewal key rotation — with every paper
// guarantee checked along the way. If any module regresses in a way the
// unit tests miss, this is designed to catch it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string_view>

#include "mesh/adversary.hpp"

namespace peace::mesh {
namespace {

constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;

class ScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
};

TEST_F(ScenarioTest, FullOperationalCycle) {
  proto::NetworkOperator no(crypto::Drbg::from_string("scenario-no"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager company = no.register_group("Company", 8, ttp);
  proto::GroupManager university = no.register_group("University", 8, ttp);

  Simulator sim;
  MeshNetwork net(sim, crypto::Drbg::from_string("scenario-net"));
  const NodeId r1 = net.add_router({0, 0}, no, kFarFuture);
  const NodeId r2 = net.add_router({400, 0}, no, kFarFuture);
  net.add_access_point({800, 0});

  Eavesdropper eve;
  eve.attach(net);
  Replayer replayer;
  replayer.attach(net);
  std::vector<Bytes> m3_on_air;
  net.add_tap([&](const WireObservation& obs) {
    if (std::string_view(obs.kind) == "m3") m3_on_air.push_back(obs.payload);
  });

  // --- Act 1: enrollment & join -----------------------------------------
  auto enroll = [&](const char* uid, proto::GroupManager& gm, Vec2 pos) {
    auto user = std::make_unique<proto::User>(
        uid, no.params(), crypto::Drbg::from_string(std::string("sc-") + uid));
    const auto enrollment = gm.enroll(uid, ttp);
    const auto receipt = user->complete_enrollment(enrollment);
    gm.record_receipt(enrollment, user->receipt_public_key(), receipt);
    return net.add_user(pos, std::move(user));
  };
  const NodeId alice = enroll("alice", company, {40, 10});
  const NodeId bob = enroll("bob", company, {90, -10});
  const NodeId carol = enroll("carol", university, {420, 20});

  net.start_beaconing(100, 500, 3000);
  sim.run_until(4000);
  ASSERT_TRUE(net.is_connected(alice));
  ASSERT_TRUE(net.is_connected(bob));
  ASSERT_TRUE(net.is_connected(carol));

  // --- Act 2: traffic, relaying, Internet --------------------------------
  net.establish_peer_links();
  sim.run_until(4500);
  EXPECT_TRUE(net.send_to_internet(alice, as_bytes("banking session")));
  EXPECT_TRUE(net.send_to_internet(carol, as_bytes("lecture stream")));
  EXPECT_GE(net.stats().internet_delivered, 2u);
  EXPECT_FALSE(eve.saw_bytes(as_bytes("banking session")));

  // --- Act 3: an attacker probes ------------------------------------------
  BogusInjector outsider(crypto::Drbg::from_string("sc-outsider"));
  const auto beacon = net.router(r1).make_beacon(5000);
  EXPECT_EQ(outsider.inject(net.router(r1), beacon, 5001, 10), 0u);
  EXPECT_EQ(replayer.replay_all(net.router(r1), 5100), 0u);
  // Replays answered as retransmissions get only M.3s already on the air.
  EXPECT_FALSE(replayer.confirms().empty());
  for (const Bytes& m3 : replayer.confirms())
    EXPECT_NE(std::find(m3_on_air.begin(), m3_on_air.end(), m3),
              m3_on_air.end());

  // DoS wave: puzzles switch on, the flood dies cheap, alice-class users
  // still get in (checked in act 5 via re-association).
  net.router(r1).set_under_attack(true, 10);
  DosFlooder flooder(crypto::Drbg::from_string("sc-flooder"));
  const auto atk_beacon = net.router(r1).make_beacon(5200);
  const auto flood = flooder.flood(net.router(r1), atk_beacon, 5201, 20,
                                   /*solve_puzzles=*/false);
  EXPECT_EQ(flood.accepted, 0u);
  EXPECT_EQ(flood.router_sig_verifications, 0u);
  net.router(r1).set_under_attack(false);

  // --- Act 4: dispute -> audit -> trace -> revocation ----------------------
  // Bob misbehaves. Pull his last logged M.2 off the replayer's capture by
  // auditing everything and matching the company group.
  proto::AccessRequest bob_m2;
  bool found = false;
  for (std::size_t i = 0; i < eve.access_requests_seen() && !found; ++i) {
    // Re-derive from eve's recorded frames via the audit itself: scan all
    // captured requests, pick the one that traces to bob.
  }
  // Simpler and fully in-protocol: bob authenticates once more; the router
  // logs it; NO audits that session.
  {
    const auto b = net.router(r1).make_beacon(6000);
    auto m2 = net.user(bob).process_beacon(b, 6000);
    ASSERT_TRUE(m2.has_value());
    ASSERT_TRUE(net.router(r1).handle_access_request(*m2, 6001).has_value());
    bob_m2 = *m2;
    found = true;
  }
  ASSERT_TRUE(found);
  const auto audit = no.audit(bob_m2);
  ASSERT_TRUE(audit.has_value());
  EXPECT_EQ(audit->group_id, company.id());

  const auto traced =
      proto::LawAuthority::trace(no, {&company, &university}, bob_m2);
  ASSERT_TRUE(traced.has_value());
  EXPECT_EQ(traced->uid, "bob");
  EXPECT_TRUE(traced->receipt_on_file);

  // The revocation reaches the segment as a signed delta over the radio
  // (the metro-scale path); both routers share the updated snapshot.
  no.revoke_user_key(audit->index, 7000);
  net.announce_rl_deltas(no.make_delta_announcement(0, 0), no);
  sim.run_until(7050);
  ASSERT_EQ(net.revocation()->url_version(), no.current_url().version);
  EXPECT_EQ(net.revocation()->stats().deltas_applied, 1u);
  {
    const auto b = net.router(r1).make_beacon(7100);
    auto m2 = net.user(bob).process_beacon(b, 7100);
    ASSERT_TRUE(m2.has_value());
    EXPECT_FALSE(net.router(r1).handle_access_request(*m2, 7101).has_value());
  }

  // --- Act 5: roaming ------------------------------------------------------
  net.move_user(alice, {430, -20});
  net.reassociate(alice);
  net.start_beaconing(8000, 500, 9500);
  sim.run_until(10'000);
  ASSERT_TRUE(net.is_connected(alice));
  EXPECT_EQ(net.serving_router(alice), net.router(r2).id());

  // --- Act 6: membership renewal -------------------------------------------
  no.rotate_master_key(11'000);
  no.reissue_group(company, 8, ttp);
  no.reissue_group(university, 8, ttp);
  net.push_revocation_lists(no.current_crl(), no.current_url());
  net.router(r1).install_params(no.params());
  net.router(r2).install_params(no.params());

  // Everyone's era-1 credentials are dead (bob's revocation is now moot).
  net.user(alice).install_params(no.params());
  {
    const auto b = net.router(r2).make_beacon(12'000);
    EXPECT_THROW(net.user(alice).process_beacon(b, 12'000), Error)
        << "no credential after rotation until re-enrollment";
  }
  const auto renewal = company.enroll("alice", ttp);
  const auto receipt = net.user(alice).complete_enrollment(renewal);
  company.record_receipt(renewal, net.user(alice).receipt_public_key(),
                         receipt);
  {
    const auto b = net.router(r2).make_beacon(13'000);
    auto m2 = net.user(alice).process_beacon(b, 13'000);
    ASSERT_TRUE(m2.has_value());
    EXPECT_TRUE(net.router(r2).handle_access_request(*m2, 13'001).has_value());
  }

  // The era-1 dispute against bob remains fully auditable from the archive.
  const auto archived_audit = no.audit(bob_m2);
  ASSERT_TRUE(archived_audit.has_value());
  EXPECT_EQ(archived_audit->group_id, company.id());

  // --- Epilogue: the eavesdropper's haul ------------------------------------
  EXPECT_GT(eve.frames_seen(), 10u);
  EXPECT_EQ(eve.repeated_field_count(), 0u);
  for (const char* uid : {"alice", "bob", "carol"}) {
    EXPECT_FALSE(eve.saw_bytes(as_bytes(uid))) << uid;
  }
}

}  // namespace
}  // namespace peace::mesh
