// The handshake reliability layer (PROTOCOL.md §10) at the protocol tier:
// idempotent resends of cached M.3 / M~.2 / M~.3 for byte-identical
// duplicates, the bounded map behind every piece of handshake state, TTL +
// hard-cap garbage collection of pending-handshake state, bounded replay
// caches, graceful sequence-space exhaustion, and the duplicate-frame no-op
// guarantees.
#include <gtest/gtest.h>

#include "peace/bounded_map.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::proto {
namespace {

class ReliabilityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  ReliabilityTest() : no_(crypto::Drbg::from_string("rel-no")) {
    gm_ = std::make_unique<GroupManager>(no_.register_group("G", 8, ttp_));
  }

  std::unique_ptr<User> make_user(const std::string& uid,
                                  ProtocolConfig config = {}) {
    auto user = std::make_unique<User>(uid, no_.params(),
                                       crypto::Drbg::from_string(uid), config);
    user->complete_enrollment(gm_->enroll(uid, ttp_));
    return user;
  }

  std::unique_ptr<MeshRouter> make_router(RouterId id,
                                          ProtocolConfig config = {}) {
    auto provision = no_.provision_router(id, kFarFuture);
    auto router = std::make_unique<MeshRouter>(
        id, provision.keypair, provision.certificate, no_.params(),
        crypto::Drbg::from_string("router" + std::to_string(id)), config);
    router->install_revocation_lists(no_.current_crl(), no_.current_url());
    return router;
  }

  static constexpr Timestamp kFarFuture = 1000ull * 86400 * 365;

  NetworkOperator no_;
  TrustedThirdParty ttp_;
  std::unique_ptr<GroupManager> gm_;
};

// --- router-side idempotent resend (M.2 -> cached M.3) --------------------

TEST_F(ReliabilityTest, DuplicateAccessRequestResendsCachedConfirm) {
  auto router = make_router(1);
  auto alice = make_user("alice");

  const BeaconMessage beacon = router->make_beacon(1000);
  auto m2 = alice->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  auto first = router->handle_access_request(*m2, 1010);
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(router->session_count(), 1u);

  // A byte-identical retransmission (the M.3 was lost on the air) gets the
  // cached confirmation back: same bytes, no second session, no new
  // acceptance — and the user can still complete from it.
  auto resent = router->handle_access_request(
      AccessRequest::from_bytes(m2->to_bytes()), 1020);
  ASSERT_TRUE(resent.has_value());
  EXPECT_EQ(resent->confirm.to_bytes(), first->confirm.to_bytes());
  EXPECT_EQ(router->session_count(), 1u);
  EXPECT_EQ(router->stats().accepted, 1u);
  EXPECT_EQ(router->stats().confirms_resent, 1u);
  EXPECT_EQ(router->stats().rejected_replay, 0u);

  auto session = alice->process_access_confirm(resent->confirm);
  EXPECT_TRUE(session.has_value());
}

TEST_F(ReliabilityTest, ForgedVariantOfAcceptedRequestNotResent) {
  auto router = make_router(1);
  auto alice = make_user("alice");

  const BeaconMessage beacon = router->make_beacon(1000);
  auto m2 = alice->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  ASSERT_TRUE(router->handle_access_request(*m2, 1010).has_value());

  // Same session id (g_rj, g_rR) but different bytes: the resend cache is
  // keyed by the full wire hash, so a forgery is a plain replay rejection.
  AccessRequest forged = *m2;
  forged.ts2 += 1;
  EXPECT_FALSE(router->handle_access_request(forged, 1020).has_value());
  EXPECT_EQ(router->stats().rejected_replay, 1u);
  EXPECT_EQ(router->stats().confirms_resent, 0u);
}

TEST_F(ReliabilityTest, DuplicateConfirmDeliveryIsNoOp) {
  auto router = make_router(1);
  auto alice = make_user("alice");
  const BeaconMessage beacon = router->make_beacon(1000);
  auto m2 = alice->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  auto outcome = router->handle_access_request(*m2, 1010);
  ASSERT_TRUE(outcome.has_value());

  ASSERT_TRUE(alice->process_access_confirm(outcome->confirm).has_value());
  // The pending entry was consumed: a radio-duplicated M.3 changes nothing.
  EXPECT_FALSE(alice->process_access_confirm(outcome->confirm).has_value());
  EXPECT_EQ(alice->stats().sessions_established, 1u);
  EXPECT_EQ(alice->pending_access_size(), 0u);
}

TEST_F(ReliabilityTest, ReplayCacheBoundedByFifoEviction) {
  ProtocolConfig config;
  config.replay_cache_cap = 4;
  auto router = make_router(1, config);

  for (int i = 0; i < 7; ++i) {
    auto user = make_user("u" + std::to_string(i), config);
    const BeaconMessage beacon = router->make_beacon(1000 + i);
    auto m2 = user->process_beacon(beacon, 1000 + i);
    ASSERT_TRUE(m2.has_value());
    ASSERT_TRUE(router->handle_access_request(*m2, 1005 + i).has_value());
    EXPECT_LE(router->replay_cache_size(), 4u);
  }
  EXPECT_EQ(router->stats().accepted, 7u);
}

TEST_F(ReliabilityTest, ClosedSessionStaysClosedToReplays) {
  auto router = make_router(1);
  auto alice = make_user("alice");
  const BeaconMessage beacon = router->make_beacon(1000);
  auto m2 = alice->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  auto outcome = router->handle_access_request(*m2, 1010);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(router->session_count(), 1u);

  EXPECT_TRUE(router->close_session(outcome->session_id));
  EXPECT_EQ(router->session_count(), 0u);
  EXPECT_FALSE(router->close_session(outcome->session_id));
  EXPECT_EQ(router->session(outcome->session_id), nullptr);
  // The replay cache survives the close: the spent M.2 cannot resurrect
  // the session it once established.
  EXPECT_FALSE(router->handle_access_request(*m2, 1020).has_value());
  EXPECT_EQ(router->stats().rejected_replay, 1u);
  EXPECT_EQ(router->session_count(), 0u);
}

// --- peer-side idempotent resend (M~.1 -> cached M~.2, M~.2 -> M~.3) ------

TEST_F(ReliabilityTest, DuplicatePeerHelloAnsweredFromCache) {
  auto alice = make_user("alice");
  auto bob = make_user("bob");
  const curve::G1 g = curve::Bn254::get().g1_gen;

  const PeerHello hello = alice->make_peer_hello(g, 1000);
  auto first = bob->process_peer_hello(hello, 1001);
  ASSERT_TRUE(first.has_value());
  const std::size_t pending_after_first = bob->pending_peer_size();

  auto second =
      bob->process_peer_hello(PeerHello::from_bytes(hello.to_bytes()), 1002);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->to_bytes(), first->to_bytes());  // byte-identical resend
  EXPECT_EQ(bob->pending_peer_size(), pending_after_first);  // no new r_l
  EXPECT_EQ(bob->stats().duplicate_hellos, 1u);
}

TEST_F(ReliabilityTest, DuplicateReplyYieldsCachedPeerConfirm) {
  auto alice = make_user("alice");
  auto bob = make_user("bob");
  const curve::G1 g = curve::Bn254::get().g1_gen;

  const PeerHello hello = alice->make_peer_hello(g, 1000);
  auto reply = bob->process_peer_hello(hello, 1001);
  ASSERT_TRUE(reply.has_value());
  auto established = alice->process_peer_reply(*reply, 1002);
  ASSERT_TRUE(established.has_value());

  // Bob's retransmitted M~.2 (he never saw the M~.3) pulls the cached,
  // byte-identical confirmation back out of Alice without new state.
  EXPECT_FALSE(alice->process_peer_reply(*reply, 1003).has_value());
  auto cached = alice->cached_peer_confirm(*reply);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->to_bytes(), established->confirm.to_bytes());
  EXPECT_EQ(alice->stats().duplicate_replies, 1u);
  EXPECT_EQ(alice->stats().peer_sessions_established, 1u);

  // Bob completes from the resent confirm; a duplicate of it is a no-op.
  ASSERT_TRUE(bob->process_peer_confirm(*cached).has_value());
  EXPECT_FALSE(bob->process_peer_confirm(*cached).has_value());
  EXPECT_EQ(bob->stats().peer_sessions_established, 1u);
}

// --- the bounded map behind every handshake cache -------------------------

TEST(BoundedMapTest, EvictsOldestInsertionFirstAtCap) {
  BoundedMap<int, int> map(4);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(map.insert(k, 10 * k, 100), 0u);
  EXPECT_EQ(map.size(), 4u);
  // Each new key at the cap pushes out exactly the oldest survivor.
  EXPECT_EQ(map.insert(4, 40, 100), 1u);
  EXPECT_FALSE(map.contains(0));
  EXPECT_EQ(map.insert(5, 50, 100), 1u);
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.size(), 4u);
  for (int k = 2; k < 6; ++k) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), 10 * k);
  }
}

TEST(BoundedMapTest, OverwriteReplacesValueAndBecomesNewest) {
  BoundedMap<int, int> map(4);
  for (int k = 0; k < 4; ++k) map.insert(k, k, 100);
  // Overwriting a held key neither grows the map nor evicts...
  EXPECT_EQ(map.insert(0, 99, 200), 0u);
  EXPECT_EQ(map.size(), 4u);
  EXPECT_EQ(*map.find(0), 99);
  // ...and moves it to the newest slot: key 1 is now the oldest.
  EXPECT_EQ(map.insert(7, 7, 200), 1u);
  EXPECT_FALSE(map.contains(1));
  EXPECT_TRUE(map.contains(0));
  // Its timestamp moved too: a reap that expires the t=100 entries keeps it.
  EXPECT_EQ(map.reap(200, 50), 2u);  // keys 2 and 3
  EXPECT_TRUE(map.contains(0));
  EXPECT_TRUE(map.contains(7));
}

TEST(BoundedMapTest, ReapDropsOnlyEntriesOlderThanTtl) {
  BoundedMap<int, int> map(4);
  map.insert(1, 1, 1000);
  map.insert(2, 2, 1500);
  map.insert(3, 3, 3000);  // stamped after the reap's `now`
  // now - created == ttl keeps the entry; one ms more reaps it.
  EXPECT_EQ(map.reap(2000, 1000), 0u);
  EXPECT_EQ(map.reap(2001, 1000), 1u);
  EXPECT_FALSE(map.contains(1));
  EXPECT_TRUE(map.contains(2));
  EXPECT_TRUE(map.contains(3));
  EXPECT_EQ(map.reap(2501, 1000), 1u);
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.erase(3));
  EXPECT_FALSE(map.erase(3));
  EXPECT_EQ(map.size(), 0u);
}

TEST(BoundedMapTest, ZeroCapThrows) {
  EXPECT_THROW((BoundedMap<int, int>(0)), Error);
}

TEST_F(ReliabilityTest, ZeroCapsRejectedAtConstruction) {
  ProtocolConfig no_pending;
  no_pending.pending_cap = 0;
  EXPECT_THROW(make_user("alice", no_pending), Error);
  ProtocolConfig no_replay_cache;
  no_replay_cache.replay_cache_cap = 0;
  EXPECT_THROW(make_router(1, no_replay_cache), Error);
}

// --- TTL + cap garbage collection -----------------------------------------

TEST_F(ReliabilityTest, PendingHandshakeStateExpiresByTtl) {
  ProtocolConfig config;
  config.pending_ttl_ms = 1000;
  auto router = make_router(1, config);
  auto alice = make_user("alice", config);

  const BeaconMessage beacon = router->make_beacon(1000);
  ASSERT_TRUE(alice->process_beacon(beacon, 1000).has_value());
  const curve::G1 g = curve::Bn254::get().g1_gen;
  (void)alice->make_peer_hello(g, 1000);
  EXPECT_EQ(alice->pending_access_size(), 1u);
  EXPECT_EQ(alice->pending_peer_size(), 1u);

  // Within the TTL nothing is reaped; past it, everything abandoned goes.
  EXPECT_EQ(alice->reap_pending(1500), 0u);
  EXPECT_EQ(alice->reap_pending(2001), 2u);
  EXPECT_EQ(alice->pending_access_size(), 0u);
  EXPECT_EQ(alice->pending_peer_size(), 0u);
  EXPECT_EQ(alice->stats().pending_expired, 2u);
}

TEST_F(ReliabilityTest, ExpiredHandshakeCannotComplete) {
  ProtocolConfig config;
  config.pending_ttl_ms = 1000;
  config.replay_window_ms = 60'000;  // isolate the TTL from freshness gates
  auto router = make_router(1, config);
  auto alice = make_user("alice", config);

  const BeaconMessage beacon = router->make_beacon(1000);
  auto m2 = alice->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  auto outcome = router->handle_access_request(*m2, 1010);
  ASSERT_TRUE(outcome.has_value());

  // The user's pending DH share died of old age before M.3 arrived.
  alice->reap_pending(5000);
  EXPECT_FALSE(alice->process_access_confirm(outcome->confirm).has_value());
}

TEST_F(ReliabilityTest, PendingCapEvictsOldestFirst) {
  ProtocolConfig config;
  config.pending_cap = 4;
  auto alice = make_user("alice", config);
  const curve::G1 g = curve::Bn254::get().g1_gen;

  for (int i = 0; i < 10; ++i) {
    (void)alice->make_peer_hello(g, 1000 + i);
    EXPECT_LE(alice->pending_peer_size(), 4u);
  }
  EXPECT_EQ(alice->stats().pending_evicted, 6u);
}

TEST_F(ReliabilityTest, ResendCachesHonorTtlAndCap) {
  ProtocolConfig config;
  config.pending_ttl_ms = 1000;
  config.pending_cap = 4;
  auto alice = make_user("alice", config);
  auto bob = make_user("bob", config);
  const curve::G1 g = curve::Bn254::get().g1_gen;

  for (int i = 0; i < 8; ++i) {
    const PeerHello hello = alice->make_peer_hello(g, 1000 + i);
    ASSERT_TRUE(bob->process_peer_hello(hello, 1000 + i).has_value());
    EXPECT_LE(bob->resend_cache_size(), 4u);
  }
  EXPECT_GT(bob->resend_cache_size(), 0u);
  // TTL: a reap far in the future clears the caches entirely.
  bob->reap_pending(60'000);
  EXPECT_EQ(bob->resend_cache_size(), 0u);
}

// --- sequence-space exhaustion --------------------------------------------

TEST_F(ReliabilityTest, TrySealRefusesGracefullyAtExhaustion) {
  auto router = make_router(1);
  auto alice = make_user("alice");
  const BeaconMessage beacon = router->make_beacon(1000);
  auto m2 = alice->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  auto outcome = router->handle_access_request(*m2, 1010);
  ASSERT_TRUE(outcome.has_value());
  auto session = alice->process_access_confirm(outcome->confirm);
  ASSERT_TRUE(session.has_value());

  ASSERT_TRUE(session->try_seal(as_bytes("fine")).has_value());
  session->advance_send_seq(Session::kSeqExhausted);
  EXPECT_TRUE(session->seq_exhausted());
  // The data path refuses without throwing — the caller's rekey trigger.
  EXPECT_FALSE(session->try_seal(as_bytes("one too many")).has_value());
  // The throwing wrapper still treats it as a hard error.
  EXPECT_THROW(session->seal(as_bytes("one too many")), Error);
}

}  // namespace
}  // namespace peace::proto
