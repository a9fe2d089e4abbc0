// The revocation distribution subsystem: versioned delta lists (serde,
// chain validation, anti-rollback), differential bit-identity between
// delta-applied and full-list state, the incremental epoch index, and the
// RCU snapshot sharing between routers and VerifyPool readers.
#include <gtest/gtest.h>

#include <thread>

#include "mesh/network.hpp"
#include "peace/revoke/shared.hpp"
#include "peace/revoke/store.hpp"
#include "peace/router.hpp"

namespace peace::revoke {
namespace {

using proto::GroupManager;
using proto::KeyIndex;
using proto::MeshRouter;
using proto::NetworkOperator;
using proto::RLDeltaAnnounce;
using proto::RLResyncRequest;
using proto::RLResyncResponse;
using proto::Timestamp;
using proto::TrustedThirdParty;

constexpr Timestamp kFarFuture = 1000ull * 86400 * 365;

/// A miniature NO for store-level tests: signs full lists and chains deltas
/// with its own key, so tests can hand-craft duplicate, stale, and forged
/// inputs the real NetworkOperator refuses to produce.
struct ListAuthority {
  explicit ListAuthority(const std::string& seed = "list-authority")
      : rng(crypto::Drbg::from_string(seed)),
        key(curve::EcdsaKeyPair::generate(rng)) {}

  crypto::Drbg rng;
  curve::EcdsaKeyPair key;

  SignedRevocationList sign_full(std::vector<Bytes> entries,
                                 std::uint64_t version, Timestamp now) {
    SignedRevocationList list;
    list.version = version;
    list.issued_at = now;
    list.entries = std::move(entries);
    list.signature = key.sign(list.signed_payload(), rng);
    return list;
  }

  RLDelta delta(ListKind kind, const SignedRevocationList& prev,
                const SignedRevocationList& next, std::vector<Bytes> removed,
                std::vector<Bytes> added) {
    RLDelta d;
    d.kind = kind;
    d.base_version = prev.version;
    d.version = next.version;
    d.issued_at = next.issued_at;
    d.base_hash = list_state_hash(prev);
    d.removed = std::move(removed);
    d.added = std::move(added);
    d.full_signature = next.signature;
    d.signature = key.sign(d.signed_payload(), rng);
    return d;
  }
};

Bytes entry_bytes(char c) { return Bytes{static_cast<std::uint8_t>(c)}; }

class RevokeStoreTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  RevokeStoreTest() : store_(ListKind::kUrl, auth_.key.public_key()) {
    // Chain: v1 = {a}, v2 = {a, b}, v3 = {b, c} (a removed, c added).
    full_[0] = auth_.sign_full({}, 0, 0);
    full_[1] = auth_.sign_full({entry_bytes('a')}, 1, 10);
    full_[2] = auth_.sign_full({entry_bytes('a'), entry_bytes('b')}, 2, 20);
    full_[3] = auth_.sign_full({entry_bytes('b'), entry_bytes('c')}, 3, 30);
    delta_[1] = auth_.delta(ListKind::kUrl, full_[0], full_[1], {},
                            {entry_bytes('a')});
    delta_[2] = auth_.delta(ListKind::kUrl, full_[1], full_[2], {},
                            {entry_bytes('b')});
    delta_[3] = auth_.delta(ListKind::kUrl, full_[2], full_[3],
                            {entry_bytes('a')}, {entry_bytes('c')});
  }

  ListAuthority auth_;
  RevocationStore store_;
  SignedRevocationList full_[4];
  RLDelta delta_[4];
};

TEST_F(RevokeStoreTest, SerdeRoundTripsAndValidates) {
  const Bytes wire = delta_[3].to_bytes();
  const RLDelta back = RLDelta::from_bytes(wire);
  EXPECT_EQ(back.to_bytes(), wire);
  EXPECT_EQ(back.version, 3u);
  EXPECT_EQ(back.base_version, 2u);
  EXPECT_EQ(back.removed.size(), 1u);
  EXPECT_EQ(back.added.size(), 1u);

  const RLDeltaAnnounce ann{{delta_[1], delta_[2], delta_[3]}};
  EXPECT_EQ(RLDeltaAnnounce::from_bytes(ann.to_bytes()).deltas.size(), 3u);
  const RLResyncRequest req{ListKind::kCrl, 7};
  const RLResyncRequest req2 = RLResyncRequest::from_bytes(req.to_bytes());
  EXPECT_EQ(req2.kind, ListKind::kCrl);
  EXPECT_EQ(req2.have_version, 7u);
  const RLResyncResponse resp{ListKind::kUrl, full_[2]};
  EXPECT_EQ(RLResyncResponse::from_bytes(resp.to_bytes()).full.to_bytes(),
            full_[2].to_bytes());

  // Unknown list kind.
  Bytes bad_kind = wire;
  bad_kind[0] = 9;
  EXPECT_THROW(RLDelta::from_bytes(bad_kind), Error);
  // Truncation and trailing garbage.
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_THROW(RLDelta::from_bytes(truncated), Error);
  Bytes trailing = wire;
  trailing.push_back(0);
  EXPECT_THROW(RLDelta::from_bytes(trailing), Error);
  // A delta whose version does not advance is rejected at decode time.
  RLDelta non_inc = delta_[1];
  non_inc.base_version = non_inc.version = 5;
  EXPECT_THROW(RLDelta::from_bytes(non_inc.to_bytes()), Error);
}

TEST_F(RevokeStoreTest, DeltaChainReconstructsFullListsBitForBit) {
  for (int v = 1; v <= 3; ++v) {
    ASSERT_EQ(store_.apply_delta(delta_[v]), DeltaResult::kApplied) << v;
    EXPECT_EQ(store_.version(), static_cast<std::uint64_t>(v));
    // The acceptance criterion: delta-applied state is byte-identical to
    // the authority's own full list at the same version.
    EXPECT_EQ(store_.list().to_bytes(), full_[v].to_bytes()) << v;
    EXPECT_EQ(store_.state_hash(), list_state_hash(full_[v])) << v;
  }
}

TEST_F(RevokeStoreTest, DuplicateEntriesInDeltaAreIdempotent) {
  ASSERT_EQ(store_.apply_delta(delta_[1]), DeltaResult::kApplied);
  // 'b' added twice, 'x' removed though never present: the edit still
  // lands exactly on the v2 list, so the chain continues unbroken.
  const RLDelta dup = auth_.delta(ListKind::kUrl, full_[1], full_[2],
                                  {entry_bytes('x')},
                                  {entry_bytes('b'), entry_bytes('b')});
  ASSERT_EQ(store_.apply_delta(dup), DeltaResult::kApplied);
  EXPECT_EQ(store_.list().to_bytes(), full_[2].to_bytes());
  ASSERT_EQ(store_.apply_delta(delta_[3]), DeltaResult::kApplied);
  EXPECT_EQ(store_.list().to_bytes(), full_[3].to_bytes());
}

TEST_F(RevokeStoreTest, RollbackForgeryAndGapsRejectedWithoutMutation) {
  ASSERT_EQ(store_.apply_delta(delta_[1]), DeltaResult::kApplied);
  ASSERT_EQ(store_.apply_delta(delta_[2]), DeltaResult::kApplied);
  const Bytes before = store_.list().to_bytes();

  // Anti-rollback: re-delivery and older deltas are ignored.
  EXPECT_EQ(store_.apply_delta(delta_[1]), DeltaResult::kStale);
  EXPECT_EQ(store_.apply_delta(delta_[2]), DeltaResult::kStale);
  // An attacker replaying an old *full list* cannot roll the store back.
  EXPECT_EQ(store_.install_full(full_[1]),
            RevocationStore::InstallResult::kStale);

  // Forgery: valid-looking delta signed by the wrong key.
  ListAuthority mallory("mallory");
  const RLDelta forged = mallory.delta(ListKind::kUrl, full_[2], full_[3],
                                       {entry_bytes('a')}, {entry_bytes('c')});
  EXPECT_EQ(store_.apply_delta(forged), DeltaResult::kBadSignature);
  // Tampered content (signature no longer covers it) is also a bad signature.
  RLDelta tampered = delta_[3];
  tampered.added.push_back(entry_bytes('z'));
  EXPECT_EQ(store_.apply_delta(tampered), DeltaResult::kBadSignature);

  // Broken chain: right versions, wrong predecessor hash.
  RLDelta wrong_base = delta_[3];
  wrong_base.base_hash = list_state_hash(full_[1]);
  wrong_base.signature = auth_.key.sign(wrong_base.signed_payload(), auth_.rng);
  EXPECT_EQ(store_.apply_delta(wrong_base), DeltaResult::kBadChain);

  // A delta that lies about its effect: chain fields are honest but the
  // resulting list does not verify under full_signature.
  RLDelta lying = auth_.delta(ListKind::kUrl, full_[2], full_[3], {},
                              {entry_bytes('q')});
  EXPECT_EQ(store_.apply_delta(lying), DeltaResult::kBadChain);

  // Wrong list kind.
  const RLDelta crl_delta = auth_.delta(ListKind::kCrl, full_[2], full_[3],
                                        {entry_bytes('a')}, {entry_bytes('c')});
  EXPECT_EQ(store_.apply_delta(crl_delta), DeltaResult::kWrongKind);

  // None of the rejected inputs moved the store.
  EXPECT_EQ(store_.version(), 2u);
  EXPECT_EQ(store_.list().to_bytes(), before);
}

TEST_F(RevokeStoreTest, GapFallsBackToResyncAndRecovers) {
  ASSERT_EQ(store_.apply_delta(delta_[1]), DeltaResult::kApplied);
  // delta 2 is lost; delta 3 arrives — a gap, and the store is untouched.
  EXPECT_EQ(store_.apply_delta(delta_[3]), DeltaResult::kGap);
  EXPECT_TRUE(needs_resync(DeltaResult::kGap));
  EXPECT_EQ(store_.list().to_bytes(), full_[1].to_bytes());
  // Resync with the authority's full list; the chain then continues as if
  // nothing was ever lost.
  EXPECT_EQ(store_.install_full(full_[2]),
            RevocationStore::InstallResult::kInstalled);
  EXPECT_EQ(store_.apply_delta(delta_[3]), DeltaResult::kApplied);
  EXPECT_EQ(store_.list().to_bytes(), full_[3].to_bytes());

  // Out-of-order *within* the recovered region stays stale, not a gap.
  EXPECT_EQ(store_.apply_delta(delta_[2]), DeltaResult::kStale);
}

/// Full-stack fixture: a real NetworkOperator emitting deltas, real routers
/// and users.
class RevokeSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  RevokeSystemTest()
      : no_(crypto::Drbg::from_string("rv-no")),
        gm_(no_.register_group("metro", 16, ttp_)) {}

  std::unique_ptr<MeshRouter> make_router(proto::RouterId id) {
    auto p = no_.provision_router(id, kFarFuture);
    auto r = std::make_unique<MeshRouter>(
        id, p.keypair, p.certificate, no_.params(),
        crypto::Drbg::from_string("rv-router-" + std::to_string(id)));
    r->install_revocation_lists(no_.current_crl(), no_.current_url());
    return r;
  }

  std::unique_ptr<proto::User> make_user(const std::string& uid) {
    auto user = std::make_unique<proto::User>(
        uid, no_.params(), crypto::Drbg::from_string("rv-" + uid));
    enrollments_[uid] = gm_.enroll(uid, ttp_);
    user->complete_enrollment(enrollments_[uid]);
    return user;
  }

  NetworkOperator no_;
  TrustedThirdParty ttp_;
  GroupManager gm_;
  std::unordered_map<std::string, GroupManager::Enrollment> enrollments_;
};

TEST_F(RevokeSystemTest, OperatorDeltasTrackEveryMutationBitForBit) {
  make_user("u1");
  make_user("u2");
  RevocationStore url_store(ListKind::kUrl, no_.npk());
  RevocationStore crl_store(ListKind::kCrl, no_.npk());

  no_.revoke_user_key(enrollments_["u1"].index, 100);
  no_.revoke_router(7, 110);
  no_.revoke_user_key(enrollments_["u2"].index, 120);
  // Re-revoking is a no-op: the chain stays duplicate-free.
  no_.revoke_user_key(enrollments_["u1"].index, 125);
  no_.rotate_master_key(130);  // URL resets for the new era, via a delta

  for (const RLDelta& d : no_.deltas_since(ListKind::kUrl, 0))
    ASSERT_EQ(url_store.apply_delta(d), DeltaResult::kApplied);
  for (const RLDelta& d : no_.deltas_since(ListKind::kCrl, 0))
    ASSERT_EQ(crl_store.apply_delta(d), DeltaResult::kApplied);

  EXPECT_EQ(url_store.list().to_bytes(), no_.current_url().to_bytes());
  EXPECT_EQ(crl_store.list().to_bytes(), no_.current_crl().to_bytes());
  EXPECT_TRUE(url_store.list().entries.empty());  // post-rotation era
  EXPECT_EQ(url_store.version(), 3u);  // 2 user revocations + the rotation
}

TEST_F(RevokeSystemTest, RouterAppliesAnnouncementsAndResyncsAcrossGaps) {
  make_user("u1");
  make_user("u2");
  make_user("u3");
  auto fresh = make_router(1);   // hears every announcement
  auto lossy = make_router(2);   // misses the first two

  no_.revoke_user_key(enrollments_["u1"].index, 100);
  no_.revoke_user_key(enrollments_["u2"].index, 110);
  const RLDeltaAnnounce first = no_.make_delta_announcement(0, 0);
  EXPECT_TRUE(fresh->handle_rl_announce(first).empty());
  EXPECT_EQ(fresh->stats().rl_deltas_applied, 2u);
  EXPECT_EQ(fresh->revocation()->url_version(), 2u);

  no_.revoke_user_key(enrollments_["u3"].index, 120);
  const RLDeltaAnnounce third = no_.make_delta_announcement(0, 2);
  EXPECT_TRUE(fresh->handle_rl_announce(third).empty());
  EXPECT_EQ(fresh->revocation()->url_version(), 3u);

  // The lossy router sees only the third delta: gap -> resync round-trip.
  const auto requests = lossy->handle_rl_announce(third);
  ASSERT_EQ(requests.size(), 1u);
  EXPECT_EQ(requests[0].kind, ListKind::kUrl);
  EXPECT_EQ(requests[0].have_version, 0u);
  EXPECT_EQ(lossy->stats().rl_resyncs_requested, 1u);
  lossy->handle_rl_resync(no_.handle_resync(requests[0]));
  EXPECT_EQ(lossy->stats().rl_resyncs_completed, 1u);
  EXPECT_EQ(lossy->revocation()->url_version(), 3u);
  EXPECT_EQ(lossy->revocation()->snapshot()->url.to_bytes(),
            no_.current_url().to_bytes());

  // Duplicate re-delivery after the resync is ignored, not a new gap.
  EXPECT_TRUE(lossy->handle_rl_announce(third).empty());
  EXPECT_EQ(lossy->stats().rl_deltas_ignored, 1u);

  // An announcement carrying the whole back-log heals a gap by itself: a
  // router that saw nothing applies all three in order, no resync needed.
  auto late = make_router(3);
  EXPECT_TRUE(late->handle_rl_announce(no_.make_delta_announcement(0, 0))
                  .empty());
  EXPECT_EQ(late->revocation()->url_version(), 3u);

  // A forged delta neither applies nor triggers a resync request.
  ListAuthority mallory("mallory");
  RLDelta forged = third.deltas.back();
  forged.signature = mallory.key.sign(forged.signed_payload(), mallory.rng);
  forged.version = 9;
  EXPECT_TRUE(fresh->handle_rl_announce(RLDeltaAnnounce{{forged}}).empty());
  EXPECT_EQ(fresh->stats().rl_deltas_rejected, 1u);
  EXPECT_EQ(fresh->revocation()->url_version(), 3u);
}

TEST_F(RevokeSystemTest, DeltaRevokedUserRejectedSameAsFullInstall) {
  // Differential: one router learns revocations via deltas, the other via
  // the classic full-list install; both must reject identically, and their
  // snapshots must hold byte-identical lists.
  auto via_delta = make_router(1);
  auto via_full = make_router(2);
  auto mallory = make_user("mallory");

  no_.revoke_user_key(enrollments_["mallory"].index, 100);
  EXPECT_TRUE(
      via_delta->handle_rl_announce(no_.make_delta_announcement(0, 0))
          .empty());
  via_full->install_revocation_lists(no_.current_crl(), no_.current_url());
  EXPECT_EQ(via_delta->revocation()->snapshot()->url.to_bytes(),
            via_full->revocation()->snapshot()->url.to_bytes());

  for (MeshRouter* r : {via_delta.get(), via_full.get()}) {
    const auto beacon = r->make_beacon(1000);
    auto m2 = mallory->process_beacon(beacon, 1000);
    ASSERT_TRUE(m2.has_value());
    EXPECT_FALSE(r->handle_access_request(*m2, 1001).has_value());
    EXPECT_EQ(r->stats().rejected_revoked, 1u);
  }
}

TEST_F(RevokeSystemTest, UrlScanPreparesBasesOncePerMessage) {
  auto router = make_router(1);
  auto alice = make_user("alice");
  for (const char* uid : {"r1", "r2", "r3"}) {
    make_user(uid);
    no_.revoke_user_key(enrollments_[uid].index, 100);
  }
  router->install_revocation_lists(no_.current_crl(), no_.current_url());

  const auto beacon = router->make_beacon(1000);
  auto m2 = alice->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  // The 3-token URL scan derives the bases (and prepares v_hat) exactly
  // once for the message; matches_token never builds its own G2Prepared.
  const std::uint64_t before = curve::g2_prepared_count();
  ASSERT_TRUE(router->handle_access_request(*m2, 1001).has_value());
  EXPECT_EQ(curve::g2_prepared_count() - before, 1u);
}

TEST_F(RevokeSystemTest, EpochIndexIsIncrementalAcrossDeltas) {
  auto router = make_router(1);
  for (const char* uid : {"a", "b", "c", "d"}) make_user(uid);
  for (const char* uid : {"a", "b", "c"})
    no_.revoke_user_key(enrollments_[uid].index, 100);
  router->install_revocation_lists(no_.current_crl(), no_.current_url());

  auto& shared = *router->revocation();
  router->revocation()->set_epoch(no_.gpk(), 5);
  ASSERT_NE(shared.snapshot()->index, nullptr);
  EXPECT_EQ(shared.snapshot()->index->size(), 3u);

  // Applying a one-token delta re-tags exactly that token: one pairing,
  // not a |URL|+1 rebuild.
  no_.revoke_user_key(enrollments_["d"].index, 200);
  const auto ann = no_.make_delta_announcement(0, 3);
  const std::uint64_t pairings_before = curve::pairing_op_count();
  EXPECT_TRUE(router->handle_rl_announce(ann).empty());
  const std::uint64_t incremental = curve::pairing_op_count() - pairings_before;
  EXPECT_EQ(incremental, 1u);
  EXPECT_EQ(shared.snapshot()->index->size(), 4u);

  // Baseline: building the same index from scratch costs one pairing per
  // token — the delta path is measurably cheaper.
  const std::uint64_t rebuild_before = curve::pairing_op_count();
  const groupsig::EpochRevocationIndex rebuilt(
      no_.params().gpk, 5, shared.snapshot()->url_tokens);
  const std::uint64_t rebuild = curve::pairing_op_count() - rebuild_before;
  EXPECT_EQ(rebuild, 4u);
  EXPECT_LT(incremental, rebuild);
}

TEST_F(RevokeSystemTest, EpochModeIsRevokedBuildsNoPrepared) {
  auto router = make_router(1);
  auto alice = make_user("alice");
  auto mallory = make_user("mallory");
  no_.revoke_user_key(enrollments_["mallory"].index, 100);
  router->install_revocation_lists(no_.current_crl(), no_.current_url());
  router->revocation()->set_epoch(no_.gpk(), 9);

  const auto& index = *router->revocation()->snapshot()->index;
  const auto sign_epoch = [&](const std::string& uid, proto::User& u) {
    crypto::Drbg rng = crypto::Drbg::from_string("esig-" + uid);
    return groupsig::sign(no_.params().gpk,
                          u.credential(enrollments_[uid].index.group),
                          as_bytes("m"), rng, 9);
  };
  const groupsig::Signature ok = sign_epoch("alice", *alice);
  const groupsig::Signature bad = sign_epoch("mallory", *mallory);

  // The per-epoch v_hat was prepared when the index was built; O(1)
  // lookups afterwards construct no line tables at all.
  const std::uint64_t before = curve::g2_prepared_count();
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(index.is_revoked(ok));
    EXPECT_TRUE(index.is_revoked(bad));
  }
  EXPECT_EQ(curve::g2_prepared_count() - before, 0u);
}

TEST_F(RevokeSystemTest, EpochRollEdgeCases) {
  auto router = make_router(1);
  auto mallory = make_user("mallory");
  auto& shared = *router->revocation();

  // Empty-URL epoch: the index exists, answers, and costs no pairings to
  // roll (there is nothing to re-tag).
  router->revocation()->set_epoch(no_.gpk(), 3);
  ASSERT_NE(shared.snapshot()->index, nullptr);
  EXPECT_EQ(shared.snapshot()->index->size(), 0u);
  const std::uint64_t before = curve::pairing_op_count();
  router->revocation()->set_epoch(no_.gpk(), 4);
  EXPECT_EQ(curve::pairing_op_count() - before, 0u);

  // Revoke-then-roll: the member revoked in epoch 4 stays revoked after
  // the roll to epoch 5 — tags are re-derived, not dropped.
  no_.revoke_user_key(enrollments_["mallory"].index, 100);
  EXPECT_TRUE(router->handle_rl_announce(no_.make_delta_announcement(0, 0))
                  .empty());
  const auto sign_epoch = [&](groupsig::Epoch epoch) {
    crypto::Drbg rng = crypto::Drbg::from_string("roll-sig");
    return groupsig::sign(no_.params().gpk,
                          mallory->credential(
                              enrollments_["mallory"].index.group),
                          as_bytes("m"), rng, epoch);
  };
  EXPECT_TRUE(shared.snapshot()->index->is_revoked(sign_epoch(4)));
  router->revocation()->set_epoch(no_.gpk(), 5);
  EXPECT_TRUE(shared.snapshot()->index->is_revoked(sign_epoch(5)));
  // Rolling to the same epoch is a no-op (same snapshot stays published).
  const auto snap = shared.snapshot();
  router->revocation()->set_epoch(no_.gpk(), 5);
  EXPECT_EQ(shared.snapshot(), snap);
  // Dropping back to epoch 0 removes the index; the URL scan still rejects.
  router->revocation()->set_epoch(no_.gpk(), 0);
  EXPECT_EQ(shared.snapshot()->index, nullptr);
  const auto beacon = router->make_beacon(1000);
  auto m2 = mallory->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  EXPECT_FALSE(router->handle_access_request(*m2, 1001).has_value());
  EXPECT_EQ(router->stats().rejected_revoked, 1u);
}

TEST_F(RevokeSystemTest, EpochRollRaceFallsBackToSharedPreparedScan) {
  // Requests signed while epoch 4 was live race a roll to epoch 5: by the
  // time the router handles them, the snapshot index answers only epoch 5.
  // The mismatch must fall back to the prepared-bases URL scan (not throw,
  // not misclassify against the wrong epoch's tags) — and since epoch-mode
  // bases depend only on (gpk, epoch), the whole batch shares the bases
  // its beacon kept from the epoch-4 index: no derivation at all.
  auto router = make_router(1);
  auto alice = make_user("alice");
  auto mallory = make_user("mallory");
  no_.revoke_user_key(enrollments_["mallory"].index, 100);
  router->install_revocation_lists(no_.current_crl(), no_.current_url());
  router->revocation()->set_epoch(no_.gpk(), 4);

  const auto beacon = router->make_beacon(1000);
  const auto epoch_m2 = [&](proto::User& u, const std::string& uid) {
    auto m2 = u.process_beacon(beacon, 1000);
    EXPECT_TRUE(m2.has_value());
    crypto::Drbg rng = crypto::Drbg::from_string("race-" + uid);
    m2->signature =
        groupsig::sign(no_.params().gpk,
                       u.credential(enrollments_[uid].index.group),
                       m2->signed_payload(), rng, 4);
    return *m2;
  };
  const std::vector<proto::AccessRequest> batch{epoch_m2(*alice, "alice"),
                                                epoch_m2(*mallory, "mallory")};

  // The roll lands before the batch.
  router->revocation()->set_epoch(no_.gpk(), 5);
  const std::uint64_t before = curve::g2_prepared_count();
  const auto outcomes = router->handle_access_requests(batch, 1001);
  EXPECT_EQ(curve::g2_prepared_count() - before, 0u);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].has_value());
  EXPECT_FALSE(outcomes[1].has_value());
  EXPECT_EQ(router->stats().rejected_revoked, 1u);

  // Steady state is untouched by the race handling: a current-epoch request
  // still answers from the O(1) index with no new base derivations.
  auto live = alice->process_beacon(beacon, 1000);
  ASSERT_TRUE(live.has_value());
  crypto::Drbg rng = crypto::Drbg::from_string("race-live");
  live->signature = groupsig::sign(
      no_.params().gpk, alice->credential(enrollments_["alice"].index.group),
      live->signed_payload(), rng, 5);
  const std::uint64_t steady = curve::g2_prepared_count();
  EXPECT_TRUE(router->handle_access_request(*live, 1001).has_value());
  EXPECT_EQ(curve::g2_prepared_count() - steady, 0u);
}

TEST_F(RevokeSystemTest, EpochModeSegmentRollsWithM2InFlight) {
  // Two routers of one segment share a revocation state in epoch mode
  // (one-minute epochs) and check on 4-thread pools. Users answer router
  // 1's epoch-1 beacon; router 2 beacons first in epoch 2 and rolls the
  // shared index. Router 1 then checks the in-flight epoch-1 M.2s through
  // the fallback scan over the epoch-1 bases their beacon kept: the honest
  // user is admitted and the revoked one still rejected — the verdicts
  // router 2's index gives current-epoch M.2s.
  proto::ProtocolConfig config;
  config.revocation_epoch_ms = 60'000;
  config.verify_threads = 4;
  const auto shared = std::make_shared<SharedRevocationState>(no_.npk());
  const auto epoch_router = [&](proto::RouterId id) {
    auto p = no_.provision_router(id, kFarFuture);
    auto r = std::make_unique<MeshRouter>(
        id, p.keypair, p.certificate, no_.params(),
        crypto::Drbg::from_string("rv-seg-" + std::to_string(id)), config,
        shared);
    r->install_revocation_lists(no_.current_crl(), no_.current_url());
    return r;
  };
  std::vector<std::unique_ptr<proto::User>> users;
  for (const std::string uid : {"alice", "mallory"}) {
    users.push_back(std::make_unique<proto::User>(
        uid, no_.params(), crypto::Drbg::from_string("rv-seg-" + uid),
        config));
    enrollments_[uid] = gm_.enroll(uid, ttp_);
    users.back()->complete_enrollment(enrollments_[uid]);
  }
  no_.revoke_user_key(enrollments_["mallory"].index, 100);
  auto r1 = epoch_router(1);
  auto r2 = epoch_router(2);
  const auto answer = [&](const proto::BeaconMessage& beacon,
                          Timestamp now) {
    std::vector<proto::AccessRequest> m2s;
    for (auto& u : users) {
      auto m2 = u->process_beacon(beacon, now);
      EXPECT_TRUE(m2.has_value());
      EXPECT_EQ(m2->signature.epoch, config.epoch_at(beacon.ts1));
      m2s.push_back(std::move(*m2));
    }
    return m2s;
  };
  const auto expect_verdicts = [](const auto& outcomes) {
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].has_value());   // alice
    EXPECT_FALSE(outcomes[1].has_value());  // mallory, revoked
  };

  const auto in_flight = answer(r1->make_beacon(59'000), 59'000);
  EXPECT_EQ(shared->snapshot()->epoch, 1u);
  (void)r2->make_beacon(61'000);  // crosses into epoch 2 first
  EXPECT_EQ(shared->snapshot()->epoch, 2u);
  (void)r1->make_beacon(59'500);  // an older beacon never rolls back
  EXPECT_EQ(shared->snapshot()->epoch, 2u);
  EXPECT_EQ(shared->stats().epoch_rolls, 2u);

  const std::uint64_t prepared = curve::g2_prepared_count();
  expect_verdicts(r1->handle_access_requests(in_flight, 61'000));
  EXPECT_EQ(curve::g2_prepared_count() - prepared, 0u);  // the beacon's
  EXPECT_EQ(r1->stats().epoch_fallback_scans, 2u);
  EXPECT_EQ(r1->stats().rejected_revoked, 1u);

  const auto live = answer(r2->make_beacon(62'000), 62'000);
  expect_verdicts(r2->handle_access_requests(live, 62'000));
  EXPECT_EQ(r2->stats().epoch_fallback_scans, 0u);
  EXPECT_EQ(r2->stats().rejected_revoked, 1u);

  // A roll racing a batch: router 2 crosses into epoch 3 on another thread
  // while router 1's pool checks epoch-2 M.2s. Whichever snapshot router 1
  // loads, index or fallback scan, the verdicts are the same.
  const auto racing = answer(r1->make_beacon(119'000), 119'000);
  std::jthread roller([&] { (void)r2->make_beacon(121'000); });
  expect_verdicts(r1->handle_access_requests(racing, 119'500));
  roller.join();
  EXPECT_EQ(shared->snapshot()->epoch, 3u);
  EXPECT_EQ(r1->stats().rejected_revoked, 2u);
}

TEST_F(RevokeSystemTest, EpochModeIndexFollowsKeyRotation) {
  // A master-key rotation inside an epoch keeps the epoch number but
  // changes every base. An M.2 signed under the new key that answers a
  // beacon from before the rotation, and arrives before the router's next
  // beacon, is checked over bases of the new key: the old beacon's bases
  // went with install_params. The router's next beacon rebuilds the index
  // under the new key, so the new era's revoked member is still caught by
  // it and the honest member's proof still checks against its bases.
  proto::ProtocolConfig config;
  config.revocation_epoch_ms = 60'000;
  auto p = no_.provision_router(1, kFarFuture);
  MeshRouter router(1, p.keypair, p.certificate, no_.params(),
                    crypto::Drbg::from_string("rv-rotate-router"), config);
  router.install_revocation_lists(no_.current_crl(), no_.current_url());
  const auto old_beacon = router.make_beacon(1'000);  // epoch 1, first key

  no_.rotate_master_key(2'000);
  no_.reissue_group(gm_, 4, ttp_);
  router.install_params(no_.params());
  std::vector<std::unique_ptr<proto::User>> users;
  for (const std::string uid : {"alice", "mallory"}) {
    users.push_back(std::make_unique<proto::User>(
        uid, no_.params(), crypto::Drbg::from_string("rv-rotate-" + uid),
        config));
    enrollments_[uid] = gm_.enroll(uid, ttp_);
    users.back()->complete_enrollment(enrollments_[uid]);
  }
  no_.revoke_user_key(enrollments_["mallory"].index, 2'500);
  router.install_revocation_lists(no_.current_crl(), no_.current_url());

  const auto answer = [&](const proto::BeaconMessage& beacon,
                          Timestamp now) {
    std::vector<proto::AccessRequest> m2s;
    for (auto& u : users) {
      auto m2 = u->process_beacon(beacon, now);
      EXPECT_TRUE(m2.has_value());
      if (m2.has_value()) m2s.push_back(std::move(*m2));
    }
    return m2s;
  };
  const auto expect_verdicts = [](const auto& outcomes) {
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].has_value());   // alice
    EXPECT_FALSE(outcomes[1].has_value());  // mallory, revoked
  };

  // Before the next beacon: the index still covers the first key, so the
  // M.2s answering the old beacon go through the fallback scan.
  expect_verdicts(
      router.handle_access_requests(answer(old_beacon, 2'600), 2'600));
  EXPECT_EQ(router.stats().rejected_revoked, 1u);
  EXPECT_EQ(router.stats().epoch_fallback_scans, 2u);

  const auto beacon = router.make_beacon(3'000);  // epoch 1, new key
  EXPECT_EQ(router.revocation()->stats().epoch_rolls, 2u);
  expect_verdicts(router.handle_access_requests(answer(beacon, 3'000), 3'000));
  EXPECT_EQ(router.stats().rejected_revoked, 2u);
  EXPECT_EQ(router.stats().epoch_fallback_scans, 2u);  // the index answered
}

TEST_F(RevokeSystemTest, EpochModeRouterPinsTheBeaconEpoch) {
  // An epoch-mode router takes an M.2 only at the epoch of the beacon it
  // answers. One signed at any other epoch is a bad signature, turned away
  // before the router derives bases for that epoch. An M.2 from before a
  // roll is admitted without a scan while the URL is empty.
  proto::ProtocolConfig config;
  config.revocation_epoch_ms = 60'000;
  auto p = no_.provision_router(1, kFarFuture);
  MeshRouter router(1, p.keypair, p.certificate, no_.params(),
                    crypto::Drbg::from_string("rv-pin-router"), config);
  router.install_revocation_lists(no_.current_crl(), no_.current_url());
  proto::User alice("alice", no_.params(),
                    crypto::Drbg::from_string("rv-pin-alice"), config);
  enrollments_["alice"] = gm_.enroll("alice", ttp_);
  alice.complete_enrollment(enrollments_["alice"]);

  const auto old_beacon = router.make_beacon(59'000);  // epoch 1
  const auto beacon = router.make_beacon(61'000);      // rolls to epoch 2
  auto forged = alice.process_beacon(beacon, 61'000);
  ASSERT_TRUE(forged.has_value());
  crypto::Drbg forger = crypto::Drbg::from_string("rv-pin-forger");
  forged->signature =
      groupsig::sign(no_.params().gpk, alice.credential(gm_.id()),
                     forged->signed_payload(), forger, 7);
  const std::uint64_t prepared = curve::g2_prepared_count();
  EXPECT_FALSE(router.handle_access_request(*forged, 61'000).has_value());
  EXPECT_EQ(curve::g2_prepared_count() - prepared, 0u);
  EXPECT_EQ(router.stats().rejected_bad_signature, 1u);
  EXPECT_EQ(router.stats().signature_verifications, 0u);

  const auto in_flight = alice.process_beacon(old_beacon, 61'000);
  ASSERT_TRUE(in_flight.has_value());
  EXPECT_EQ(in_flight->signature.epoch, 1u);
  EXPECT_TRUE(router.handle_access_request(*in_flight, 61'000).has_value());
  EXPECT_EQ(router.stats().epoch_fallback_scans, 0u);  // empty URL: no scan
}

TEST_F(RevokeSystemTest, SnapshotSwapIsSafeUnderConcurrentReaders) {
  // RCU discipline under instrumentation (run in the ASan/UBSan CI job):
  // a VerifyPool's worth of readers hammer snapshot() — touching the token
  // vector, the lists, and the epoch index — while this thread publishes a
  // stream of deltas, full installs, and epoch rolls. Readers must always
  // observe an internally consistent snapshot (version == entry count in
  // this test's construction) and never a torn one.
  for (int i = 0; i < 8; ++i) make_user("u" + std::to_string(i));
  auto router = make_router(1);
  auto& shared = *router->revocation();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  proto::VerifyPool pool(4);
  std::jthread writer([&] {
    for (int i = 0; i < 8; ++i) {
      no_.revoke_user_key(enrollments_["u" + std::to_string(i)].index,
                          100 + i);
      router->handle_rl_announce(
          no_.make_delta_announcement(0, shared.url_version()));
      if (i == 3) router->revocation()->set_epoch(no_.gpk(), 2);
      if (i == 5) router->revocation()->set_epoch(no_.gpk(), 3);
      if (i == 6)  // full-install path concurrently with readers
        shared.install_full(no_.current_crl(), no_.current_url());
    }
    stop.store(true);
  });
  pool.run(4, [&](std::size_t) {
    while (!stop.load()) {
      const auto snap = shared.snapshot();
      ASSERT_EQ(snap->url.entries.size(), snap->url_tokens.size());
      ASSERT_EQ(snap->url.version, snap->url_tokens.size());
      if (snap->index != nullptr) {
        ASSERT_EQ(snap->index->size(), snap->url_tokens.size());
      }
      reads.fetch_add(1);
    }
  });
  writer.join();
  EXPECT_EQ(shared.snapshot()->url_tokens.size(), 8u);
  EXPECT_GT(reads.load(), 0u);
}

TEST_F(RevokeSystemTest, MeshRoutersShareOneSnapshotState) {
  mesh::Simulator sim;
  mesh::MeshNetwork net(sim, crypto::Drbg::from_string("rv-mesh"));
  const auto r1 = net.add_router({0, 0}, no_, kFarFuture);
  const auto r2 = net.add_router({300, 0}, no_, kFarFuture);
  // One shared state: same object, and N routers see one snapshot.
  EXPECT_EQ(net.router(r1).revocation().get(),
            net.router(r2).revocation().get());
  EXPECT_EQ(net.revocation().get(), net.router(r1).revocation().get());

  auto mallory = make_user("mallory");
  no_.revoke_user_key(enrollments_["mallory"].index, 100);
  net.announce_rl_deltas(no_.make_delta_announcement(0, 0), no_);
  sim.run_until(10'000);

  EXPECT_EQ(net.revocation()->url_version(), 1u);
  for (const auto rid : {r1, r2}) {
    const auto beacon = net.router(rid).make_beacon(20'000);
    auto m2 = mallory->process_beacon(beacon, 20'000);
    ASSERT_TRUE(m2.has_value());
    EXPECT_FALSE(net.router(rid).handle_access_request(*m2, 20'001)
                     .has_value());
  }
  EXPECT_EQ(net.router(r1).stats().rejected_revoked +
                net.router(r2).stats().rejected_revoked,
            2u);
}

TEST_F(RevokeSystemTest, MeshDroppedAnnouncementHealsViaResync) {
  mesh::Simulator sim;
  mesh::MeshNetwork net(sim, crypto::Drbg::from_string("rv-mesh2"));
  const auto r1 = net.add_router({0, 0}, no_, kFarFuture);
  make_user("u1");
  make_user("u2");

  // The first announcement never reaches the segment (radio loss); the
  // second arrives, exposes the gap, and the resync round-trip heals it.
  no_.revoke_user_key(enrollments_["u1"].index, 100);
  no_.revoke_user_key(enrollments_["u2"].index, 200);
  net.announce_rl_deltas(no_.make_delta_announcement(0, 1), no_);
  sim.run_until(10'000);

  EXPECT_EQ(net.router(r1).stats().rl_resyncs_requested, 1u);
  EXPECT_EQ(net.router(r1).stats().rl_resyncs_completed, 1u);
  EXPECT_EQ(net.revocation()->url_version(), 2u);
  EXPECT_EQ(net.revocation()->snapshot()->url.to_bytes(),
            no_.current_url().to_bytes());
}

}  // namespace
}  // namespace peace::revoke
