// The authentication and key-agreement protocols (paper IV.B / IV.C),
// end-to-end across real entity objects: user-router M.1 -> M.2 -> M.3 and
// user-user M~.1 -> M~.2 -> M~.3, plus the rejection paths (replay, stale
// timestamps, revoked signers, rogue routers, tampered confirms).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>

#include "obs/trace.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::proto {
namespace {

class AuthTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  AuthTest() : no_(crypto::Drbg::from_string("auth-no")) {
    gm_ = std::make_unique<GroupManager>(no_.register_group("G", 8, ttp_));

    auto provision = no_.provision_router(1, kFarFuture);
    router_key_ = provision.keypair;
    router_ = std::make_unique<MeshRouter>(
        1, provision.keypair, provision.certificate, no_.params(),
        crypto::Drbg::from_string("router1"));
    router_->install_revocation_lists(no_.current_crl(), no_.current_url());

    alice_ = make_user("alice");
    bob_ = make_user("bob");
  }

  std::unique_ptr<User> make_user(const std::string& uid) {
    auto user = std::make_unique<User>(uid, no_.params(),
                                       crypto::Drbg::from_string(uid));
    user->complete_enrollment(gm_->enroll(uid, ttp_));
    return user;
  }

  /// Runs the full M.1-M.3 handshake; returns the two session endpoints.
  struct Established {
    Session user_session;
    Bytes session_id;
  };
  std::optional<Established> full_handshake(User& user, Timestamp now) {
    const BeaconMessage beacon = router_->make_beacon(now);
    auto m2 = user.process_beacon(beacon, now);
    if (!m2.has_value()) return std::nullopt;
    auto outcome = router_->handle_access_request(*m2, now + 10);
    if (!outcome.has_value()) return std::nullopt;
    auto session = user.process_access_confirm(outcome->confirm);
    if (!session.has_value()) return std::nullopt;
    return Established{std::move(*session), outcome->session_id};
  }

  /// Router 1's beacon at `now`, edited by `tamper` and re-signed with
  /// router 1's key, so only the user's checks of NO's signatures can catch
  /// the edit.
  template <typename Tamper>
  BeaconMessage tampered_beacon(Timestamp now, Tamper&& tamper) {
    BeaconMessage beacon = router_->make_beacon(now);
    tamper(beacon);
    crypto::Drbg rng = crypto::Drbg::from_string("resign");
    beacon.signature = router_key_.sign(beacon.signed_payload(), rng);
    return beacon;
  }

  static constexpr Timestamp kFarFuture = 1000ull * 86400 * 365;

  NetworkOperator no_;
  TrustedThirdParty ttp_;
  curve::EcdsaKeyPair router_key_;
  std::unique_ptr<GroupManager> gm_;
  std::unique_ptr<MeshRouter> router_;
  std::unique_ptr<User> alice_;
  std::unique_ptr<User> bob_;
};

TEST(VerifyPoolTest, BackToBackBatchesStressGenerations) {
  // Regression for the generation race: a worker that woke for batch N but
  // was descheduled before claiming an index must not invoke batch N's
  // (destroyed) body on batch N+1's indices. Thousands of tiny
  // back-to-back batches with distinct bodies make a straggler crossing a
  // batch boundary overwhelmingly likely; each body records into its own
  // batch's slots, so any cross-batch invocation corrupts a marker.
  VerifyPool pool(4);
  constexpr int kBatches = 4000;
  constexpr std::size_t kJobs = 3;
  for (int b = 0; b < kBatches; ++b) {
    std::array<int, kJobs> slots{};
    pool.run(kJobs, [&slots, b](std::size_t i) { slots[i] = b + 1; });
    for (std::size_t i = 0; i < kJobs; ++i)
      ASSERT_EQ(slots[i], b + 1) << "batch " << b << " index " << i;
  }
}

TEST(VerifyPoolTest, BodyExceptionDrainsBatchAndRethrows) {
  // A throwing body must neither terminate a worker thread nor let run()
  // unwind mid-batch: every index still executes, and the failure surfaces
  // on the calling thread once the batch has drained.
  VerifyPool pool(4);
  for (int round = 0; round < 50; ++round) {
    constexpr std::size_t kJobs = 16;
    std::array<std::atomic<bool>, kJobs> ran{};
    EXPECT_THROW(pool.run(kJobs,
                          [&ran](std::size_t i) {
                            ran[i].store(true, std::memory_order_relaxed);
                            if (i % 5 == 0) throw Error("verify failed");
                          }),
                 Error);
    for (std::size_t i = 0; i < kJobs; ++i)
      EXPECT_TRUE(ran[i].load(std::memory_order_relaxed))
          << "round " << round << " index " << i;
  }
  // The pool survives a throwing batch: the next batch runs normally.
  std::atomic<int> ok{0};
  pool.run(8, [&ok](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(VerifyPoolTest, InlineExceptionPropagates) {
  // threads <= 1 spawns no workers; the inline path throws directly.
  VerifyPool pool(1);
  EXPECT_EQ(pool.threads(), 1u);
  EXPECT_THROW(pool.run(4,
                        [](std::size_t i) {
                          if (i == 2) throw Error("inline failure");
                        }),
               Error);
}

TEST_F(AuthTest, EpochModeUserSignsAtTheBeaconEpoch) {
  // In epoch mode a user signs each M.2 at epoch_at(ts1) of the beacon it
  // answers, and the router accepts it: within an epoch, across an epoch
  // change and across a master-key rotation that keeps the epoch number.
  ProtocolConfig config;
  config.revocation_epoch_ms = 60'000;
  User carol("carol", no_.params(), crypto::Drbg::from_string("epoch-signer"),
             config);
  const auto expect_signed_at = [&](Timestamp now, groupsig::Epoch epoch) {
    const BeaconMessage beacon = router_->make_beacon(now);
    const auto m2 = carol.process_beacon(beacon, now);
    ASSERT_TRUE(m2.has_value());
    EXPECT_EQ(m2->signature.epoch, epoch) << "at " << now;
    EXPECT_TRUE(router_->handle_access_request(*m2, now).has_value());
  };
  carol.complete_enrollment(gm_->enroll("carol", ttp_));
  expect_signed_at(1'000, 1);
  expect_signed_at(2'000, 1);
  expect_signed_at(61'000, 2);  // epoch change
  no_.rotate_master_key(62'000);
  no_.reissue_group(*gm_, 4, ttp_);
  router_->install_params(no_.params());
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  carol.install_params(no_.params());
  carol.complete_enrollment(gm_->enroll("carol", ttp_));
  expect_signed_at(63'000, 2);  // same epoch, new group key
}

TEST_F(AuthTest, UserRouterHandshakeSucceeds) {
  auto result = full_handshake(*alice_, 1000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(router_->stats().accepted, 1u);
  EXPECT_EQ(router_->session_count(), 1u);
  EXPECT_EQ(alice_->stats().sessions_established, 1u);
}

TEST_F(AuthTest, EstablishedSessionCarriesData) {
  auto result = full_handshake(*alice_, 1000);
  ASSERT_TRUE(result.has_value());
  Session* router_side = router_->session(result->session_id);
  ASSERT_NE(router_side, nullptr);

  // User -> router.
  DataFrame up = result->user_session.seal(as_bytes("GET /index.html"));
  auto got = router_side->open(up);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, to_bytes("GET /index.html"));

  // Router -> user.
  DataFrame down = router_side->seal(as_bytes("200 OK"));
  auto got2 = result->user_session.open(down);
  ASSERT_TRUE(got2.has_value());
  EXPECT_EQ(*got2, to_bytes("200 OK"));
}

TEST_F(AuthTest, ReplayedAccessRequestRejected) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  auto m2 = alice_->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  const auto first = router_->handle_access_request(*m2, 1010);
  ASSERT_TRUE(first.has_value());
  // A byte-identical copy cannot be told from a retransmission: it gets the
  // first copy's M.3 back and opens no session.
  const auto resent = router_->handle_access_request(*m2, 1020);
  ASSERT_TRUE(resent.has_value());
  EXPECT_EQ(resent->confirm.to_bytes(), first->confirm.to_bytes());
  EXPECT_EQ(router_->session_count(), 1u);
  EXPECT_EQ(router_->stats().accepted, 1u);
  EXPECT_EQ(router_->stats().confirms_resent, 1u);
  EXPECT_EQ(router_->stats().rejected_replay, 0u);
  // Any other request under the same session id is a replay.
  AccessRequest variant = *m2;
  variant.ts2 += 1;
  EXPECT_FALSE(router_->handle_access_request(variant, 1030).has_value());
  EXPECT_EQ(router_->stats().rejected_replay, 1u);
  EXPECT_EQ(router_->stats().confirms_resent, 1u);
  EXPECT_EQ(router_->session_count(), 1u);
}

TEST_F(AuthTest, StaleTimestampRejected) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  auto m2 = alice_->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  EXPECT_FALSE(router_->handle_access_request(*m2, 1000 + 60000).has_value());
  EXPECT_EQ(router_->stats().rejected_stale, 1u);
}

TEST_F(AuthTest, RequestAgainstUnknownBeaconRejected) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  auto m2 = alice_->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  // Age out the beacon by issuing many fresh ones.
  for (int i = 0; i < 10; ++i) router_->make_beacon(1100 + i);
  EXPECT_FALSE(router_->handle_access_request(*m2, 1200).has_value());
  EXPECT_EQ(router_->stats().rejected_unknown_beacon, 1u);
}

TEST_F(AuthTest, ForgedSignatureRejected) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  auto m2 = alice_->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  m2->ts2 += 1;  // signature no longer covers the message
  EXPECT_FALSE(router_->handle_access_request(*m2, 1010).has_value());
  EXPECT_EQ(router_->stats().rejected_bad_signature, 1u);
}

TEST_F(AuthTest, RevokedUserRejectedByRouter) {
  // Revoke alice's key; router refreshes its URL; alice can no longer join.
  const auto audit_target = gm_->enroll("victim", ttp_);
  User victim("victim", no_.params(), crypto::Drbg::from_string("victim2"));
  victim.complete_enrollment(audit_target);
  no_.revoke_user_key(audit_target.index, 999);
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());

  EXPECT_FALSE(full_handshake(victim, 2000).has_value());
  EXPECT_EQ(router_->stats().rejected_revoked, 1u);
  // Other users are unaffected.
  EXPECT_TRUE(full_handshake(*alice_, 3000).has_value());
}

TEST_F(AuthTest, UserRejectsRogueRouterWithoutCertificate) {
  // A rogue router self-signs: users must refuse (phishing, Sec. V.A).
  crypto::Drbg rng = crypto::Drbg::from_string("rogue");
  auto keypair = curve::EcdsaKeyPair::generate(rng);
  RouterCertificate fake_cert;
  fake_cert.router_id = 66;
  fake_cert.public_key = keypair.public_key();
  fake_cert.expires_at = kFarFuture;
  fake_cert.signature = keypair.sign(fake_cert.signed_payload(), rng);  // !NO
  MeshRouter rogue(66, keypair, fake_cert, no_.params(),
                   crypto::Drbg::from_string("rogue-router"));
  const BeaconMessage beacon = rogue.make_beacon(1000);
  EXPECT_FALSE(alice_->process_beacon(beacon, 1000).has_value());
  EXPECT_EQ(alice_->stats().beacons_rejected, 1u);
}

TEST_F(AuthTest, UserRejectsRevokedRouter) {
  no_.revoke_router(1, 500);
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  const BeaconMessage beacon = router_->make_beacon(1000);
  EXPECT_FALSE(alice_->process_beacon(beacon, 1000).has_value());
}

TEST_F(AuthTest, UserRejectsExpiredCertificate) {
  auto provision = no_.provision_router(2, /*expires_at=*/2000);
  MeshRouter expiring(2, provision.keypair, provision.certificate,
                      no_.params(), crypto::Drbg::from_string("r2"));
  expiring.install_revocation_lists(no_.current_crl(), no_.current_url());
  const BeaconMessage beacon = expiring.make_beacon(5000);
  EXPECT_FALSE(alice_->process_beacon(beacon, 5000).has_value());
}

TEST_F(AuthTest, UserRejectsStaleBeacon) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  EXPECT_FALSE(alice_->process_beacon(beacon, 1000 + 60000).has_value());
}

TEST_F(AuthTest, UserRejectsTamperedBeacon) {
  BeaconMessage beacon = router_->make_beacon(1000);
  beacon.ts1 += 1;
  EXPECT_FALSE(alice_->process_beacon(beacon, 1001).has_value());
}

TEST_F(AuthTest, VerifiedOnceMemoStillRejectsOneByteEdits) {
  // A user skips re-verifying a certificate, CRL or URL byte-identical to
  // one it already verified. A copy that differs in one byte must still
  // fail NO's signature and leave the cached lists alone.
  no_.revoke_router(7, 500);
  no_.revoke_user_key(gm_->enroll("victim", ttp_).index, 600);
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  ASSERT_TRUE(alice_->process_beacon(router_->make_beacon(1000), 1000));
  const Bytes accepted_url = alice_->current_url().to_bytes();

  const auto flip = [](curve::EcdsaSignature& sig) {
    Bytes b = sig.to_bytes();
    b.back() ^= 1;
    sig = curve::EcdsaSignature::from_bytes(b);
  };
  const std::vector<std::function<void(BeaconMessage&)>> edits = {
      [](BeaconMessage& b) { b.certificate.expires_at ^= 1; },
      [](BeaconMessage& b) { b.crl.entries.at(0).back() ^= 1; },
      [](BeaconMessage& b) { b.url.entries.at(0).back() ^= 1; },
      [&](BeaconMessage& b) { flip(b.crl.signature); },
      [&](BeaconMessage& b) { flip(b.url.signature); },
  };
  // Each edit is sent twice: a failed check must not be remembered either.
  Timestamp now = 2000;
  for (std::size_t i = 0; i < 2 * edits.size(); ++i, now += 100) {
    const BeaconMessage beacon = tampered_beacon(now, edits[i / 2]);
    EXPECT_FALSE(alice_->process_beacon(beacon, now).has_value()) << i;
    EXPECT_EQ(alice_->current_url().to_bytes(), accepted_url) << i;
  }
  // The genuine certificate and lists still pass.
  EXPECT_TRUE(alice_->process_beacon(router_->make_beacon(now), now));
  EXPECT_EQ(alice_->stats().beacons_rejected, 2 * edits.size());
}

TEST_F(AuthTest, FreshUserRejectsUnsignedDefaultLists) {
  // A fresh user's cached CRL and URL are default-constructed and unsigned;
  // a beacon carrying such a list must not pass as already verified.
  for (const bool crl : {true, false}) {
    const auto carol = make_user(crl ? "carol" : "dave");
    const BeaconMessage beacon = tampered_beacon(1000, [&](BeaconMessage& b) {
      (crl ? b.crl : b.url) = SignedRevocationList{};
    });
    EXPECT_FALSE(carol->process_beacon(beacon, 1000).has_value());
    EXPECT_EQ(carol->current_url().to_bytes(),
              SignedRevocationList{}.to_bytes());
  }
}

TEST_F(AuthTest, RotatedNetworkKeyForgetsVerifiedLists) {
  // alice verifies the current lists; then NO's key rotates. Lists still
  // signed under the old key must fail, even byte-identical to the ones
  // accepted before the rotation.
  ASSERT_TRUE(alice_->process_beacon(router_->make_beacon(1000), 1000));
  crypto::Drbg rng = crypto::Drbg::from_string("rotated-npk");
  const auto new_no = curve::EcdsaKeyPair::generate(rng);
  SystemParams params = no_.params();
  params.network_public_key = new_no.public_key();
  alice_->install_params(params);
  alice_->complete_enrollment(gm_->enroll("alice-renewed", ttp_));

  const auto resigned = [&](auto signed_item) {
    signed_item.signature = new_no.sign(signed_item.signed_payload(), rng);
    return signed_item;
  };
  const RouterCertificate cert = resigned(router_->certificate());
  const SignedRevocationList crl = no_.current_crl();
  const SignedRevocationList url = no_.current_url();
  const auto beacon = [&](Timestamp now, const SignedRevocationList& c,
                          const SignedRevocationList& u) {
    return tampered_beacon(now, [&](BeaconMessage& b) {
      b.certificate = cert;
      b.crl = c;
      b.url = u;
    });
  };
  EXPECT_FALSE(alice_->process_beacon(beacon(2000, crl, resigned(url)), 2000));
  EXPECT_FALSE(alice_->process_beacon(beacon(2100, resigned(crl), url), 2100));
  EXPECT_TRUE(alice_->process_beacon(
      beacon(2200, resigned(crl), resigned(url)), 2200));
}

TEST_F(AuthTest, TamperedConfirmRejected) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  auto m2 = alice_->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  auto outcome = router_->handle_access_request(*m2, 1010);
  ASSERT_TRUE(outcome.has_value());
  outcome->confirm.ciphertext[3] ^= 0xff;
  EXPECT_FALSE(alice_->process_access_confirm(outcome->confirm).has_value());
}

TEST_F(AuthTest, ConfirmFromWrongRouterRejected) {
  // A second legitimate router cannot hijack alice's pending handshake: the
  // confirmation is bound to the DH transcript, which it cannot complete.
  const BeaconMessage beacon = router_->make_beacon(1000);
  auto m2 = alice_->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  AccessConfirm forged;
  forged.g_rj = m2->g_rj;
  forged.g_rr = m2->g_rr;
  forged.ciphertext = Bytes(48, 0xab);
  EXPECT_FALSE(alice_->process_access_confirm(forged).has_value());
}

TEST_F(AuthTest, MultipleConcurrentSessions) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(full_handshake(*alice_, 1000 + i * 100).has_value());
    ASSERT_TRUE(full_handshake(*bob_, 1050 + i * 100).has_value());
  }
  EXPECT_EQ(router_->session_count(), 6u);
}

TEST_F(AuthTest, PooledBatchMatchesSequential) {
  // Two routers with identical keys and DRBG seeds — one verifying inline,
  // one over a 4-thread VerifyPool — must produce byte-identical outcomes
  // for the same batch: accepts, resends, rejects, session ids, confirm
  // ciphertexts, and rejection counters.
  auto provision = no_.provision_router(5, kFarFuture);
  ProtocolConfig pooled_cfg;
  pooled_cfg.verify_threads = 4;
  MeshRouter seq(5, provision.keypair, provision.certificate, no_.params(),
                 crypto::Drbg::from_string("twin"));
  MeshRouter pooled(5, provision.keypair, provision.certificate, no_.params(),
                    crypto::Drbg::from_string("twin"), pooled_cfg);
  seq.install_revocation_lists(no_.current_crl(), no_.current_url());
  pooled.install_revocation_lists(no_.current_crl(), no_.current_url());

  // Identical DRBG streams make the beacons identical, so one set of M.2s
  // is valid against both routers.
  const BeaconMessage beacon = seq.make_beacon(1000);
  ASSERT_EQ(beacon.to_bytes(), pooled.make_beacon(1000).to_bytes());

  std::vector<AccessRequest> batch;
  std::vector<std::unique_ptr<User>> users;
  for (int i = 0; i < 4; ++i) {
    users.push_back(make_user("batch-user-" + std::to_string(i)));
    auto m2 = users.back()->process_beacon(beacon, 1000);
    ASSERT_TRUE(m2.has_value());
    batch.push_back(std::move(*m2));
  }
  batch.push_back(batch[1]);  // byte-identical duplicate: resent
  users.push_back(make_user("batch-forger"));
  auto forged_m2 = users.back()->process_beacon(beacon, 1000);
  ASSERT_TRUE(forged_m2.has_value());
  forged_m2->signature.s_x = forged_m2->signature.s_x + curve::Fr::one();
  batch.push_back(std::move(*forged_m2));
  AccessRequest variant = batch[2];  // same session id, other bytes: replay
  variant.ts2 += 1;
  batch.push_back(variant);

  const auto seq_out = seq.handle_access_requests(batch, 1010);
  const auto pool_out = pooled.handle_access_requests(batch, 1010);
  ASSERT_EQ(seq_out.size(), batch.size());
  ASSERT_EQ(pool_out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(seq_out[i].has_value(), pool_out[i].has_value()) << "entry " << i;
    if (seq_out[i].has_value()) {
      EXPECT_EQ(seq_out[i]->session_id, pool_out[i]->session_id);
      EXPECT_EQ(seq_out[i]->confirm.to_bytes(), pool_out[i]->confirm.to_bytes());
    }
  }
  // First four accepted, the duplicate answered with its first copy's M.3,
  // forged and variant rejected.
  EXPECT_TRUE(seq_out[0].has_value() && seq_out[3].has_value());
  ASSERT_TRUE(seq_out[4].has_value());
  EXPECT_EQ(seq_out[4]->confirm.to_bytes(), seq_out[1]->confirm.to_bytes());
  EXPECT_FALSE(seq_out[5].has_value());
  EXPECT_FALSE(seq_out[6].has_value());

  EXPECT_EQ(seq.stats().accepted, 4u);
  EXPECT_EQ(seq.stats().accepted, pooled.stats().accepted);
  EXPECT_EQ(seq.session_count(), 4u);
  EXPECT_EQ(seq.session_count(), pooled.session_count());
  EXPECT_EQ(seq.stats().confirms_resent, 1u);
  EXPECT_EQ(seq.stats().confirms_resent, pooled.stats().confirms_resent);
  EXPECT_EQ(seq.stats().rejected_replay, 1u);
  EXPECT_EQ(seq.stats().rejected_replay, pooled.stats().rejected_replay);
  EXPECT_EQ(seq.stats().rejected_bad_signature,
            pooled.stats().rejected_bad_signature);
  EXPECT_EQ(seq.stats().rejected_bad_signature, 1u);
  // Randomized batch verification runs with or without a pool, so the
  // inline router counts a batch too.
  EXPECT_EQ(seq.stats().verify_batches, 1u);
  EXPECT_GE(pooled.stats().verify_batches, 1u);
  // Five jobs entered the batch; the two within-batch same-sid entries are
  // deferred to the sequential apply pass and never verified in parallel.
  EXPECT_EQ(pooled.stats().batched_requests, batch.size() - 2);
  EXPECT_EQ(seq.stats().batched_requests, batch.size() - 2);
}

TEST_F(AuthTest, CustomReplayWindowEnforced) {
  // A router configured with a tight 100 ms window rejects what the
  // default 5 s window would accept.
  auto provision = no_.provision_router(3, kFarFuture);
  ProtocolConfig tight;
  tight.replay_window_ms = 100;
  MeshRouter strict(3, provision.keypair, provision.certificate, no_.params(),
                    crypto::Drbg::from_string("strict"), tight);
  strict.install_revocation_lists(no_.current_crl(), no_.current_url());

  const BeaconMessage beacon = strict.make_beacon(1000);
  auto m2 = alice_->process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  EXPECT_FALSE(strict.handle_access_request(*m2, 1000 + 200).has_value());
  EXPECT_EQ(strict.stats().rejected_stale, 1u);

  auto m2b = alice_->process_beacon(strict.make_beacon(2000), 2000);
  ASSERT_TRUE(m2b.has_value());
  EXPECT_TRUE(strict.handle_access_request(*m2b, 2000 + 50).has_value());
}

TEST_F(AuthTest, BeaconHistoryDepthConfigurable) {
  auto provision = no_.provision_router(4, kFarFuture);
  ProtocolConfig shallow;
  shallow.beacon_history = 1;  // only the latest beacon is honoured
  MeshRouter forgetful(4, provision.keypair, provision.certificate,
                       no_.params(), crypto::Drbg::from_string("forgetful"),
                       shallow);
  forgetful.install_revocation_lists(no_.current_crl(), no_.current_url());

  const BeaconMessage b1 = forgetful.make_beacon(1000);
  auto m2 = alice_->process_beacon(b1, 1000);
  ASSERT_TRUE(m2.has_value());
  forgetful.make_beacon(1100);  // evicts b1's state
  EXPECT_FALSE(forgetful.handle_access_request(*m2, 1200).has_value());
  EXPECT_EQ(forgetful.stats().rejected_unknown_beacon, 1u);
}

// --- user-user protocol -------------------------------------------------------

TEST_F(AuthTest, PeerHandshakeSucceeds) {
  // Both users first learn g and the current URL from a beacon.
  const BeaconMessage beacon = router_->make_beacon(1000);
  ASSERT_TRUE(alice_->process_beacon(beacon, 1000).has_value());
  ASSERT_TRUE(bob_->process_beacon(beacon, 1000).has_value());

  const PeerHello hello = alice_->make_peer_hello(beacon.g, 1100);
  auto reply = bob_->process_peer_hello(hello, 1110);
  ASSERT_TRUE(reply.has_value());
  auto established = alice_->process_peer_reply(*reply, 1120);
  ASSERT_TRUE(established.has_value());
  auto bob_session = bob_->process_peer_confirm(established->confirm);
  ASSERT_TRUE(bob_session.has_value());

  // Relay traffic flows both ways.
  DataFrame f = established->session.seal(as_bytes("relay me"));
  auto got = bob_session->open(f);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, to_bytes("relay me"));
  DataFrame back = bob_session->seal(as_bytes("ack"));
  EXPECT_TRUE(established->session.open(back).has_value());
}

TEST_F(AuthTest, PeerHelloFromRevokedUserRejected) {
  const auto enrollment = gm_->enroll("mallory", ttp_);
  User mallory("mallory", no_.params(), crypto::Drbg::from_string("m"));
  mallory.complete_enrollment(enrollment);
  no_.revoke_user_key(enrollment.index, 900);

  // Bob refreshes URL from a beacon of the updated router.
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  const BeaconMessage beacon = router_->make_beacon(1000);
  ASSERT_TRUE(bob_->process_beacon(beacon, 1000).has_value());

  const PeerHello hello = mallory.make_peer_hello(beacon.g, 1100);
  EXPECT_FALSE(bob_->process_peer_hello(hello, 1110).has_value());
}

TEST_F(AuthTest, PeerHelloScanPreparesBasesOncePerHello) {
  // The responder's URL scan (3 revoked tokens) prepares each hello's
  // bases exactly once; matches_token builds no per-token G2Prepared.
  for (const char* uid : {"r1", "r2", "r3"})
    no_.revoke_user_key(gm_->enroll(uid, ttp_).index, 900);
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  auto carol = make_user("carol");
  const BeaconMessage beacon = router_->make_beacon(1000);
  ASSERT_TRUE(bob_->process_beacon(beacon, 1000).has_value());

  for (User* sender : {alice_.get(), carol.get()}) {
    const PeerHello hello = sender->make_peer_hello(beacon.g, 1100);
    const std::uint64_t before = obs::op_count(obs::Op::kG2Prepared);
    EXPECT_TRUE(bob_->process_peer_hello(hello, 1110).has_value());
    EXPECT_EQ(obs::op_count(obs::Op::kG2Prepared) - before, 1u);
  }
}

TEST_F(AuthTest, RevocationScanReusesTheProofCheckBases) {
  // At epoch 0 the URL scan runs over the bases the proof check derived:
  // one 3-hash derivation per checked signature, for a lone M.2, for each
  // M.2 of a folded batch, and for a peer hello.
  no_.revoke_user_key(gm_->enroll("r1", ttp_).index, 900);
  router_->install_revocation_lists(no_.current_crl(), no_.current_url());

  std::uint64_t before = router_->verify_ops().hash_to_group;
  ASSERT_TRUE(full_handshake(*alice_, 1000).has_value());
  EXPECT_EQ(router_->verify_ops().hash_to_group - before, 3u);

  const BeaconMessage beacon = router_->make_beacon(2000);
  std::vector<AccessRequest> batch;
  for (User* user : {alice_.get(), bob_.get()}) {
    auto m2 = user->process_beacon(beacon, 2000);
    ASSERT_TRUE(m2.has_value());
    batch.push_back(std::move(*m2));
  }
  before = router_->verify_ops().hash_to_group;
  const auto out = router_->handle_access_requests(batch, 2010);
  ASSERT_TRUE(out[0].has_value() && out[1].has_value());
  EXPECT_EQ(router_->verify_ops().hash_to_group - before, 6u);

  const PeerHello hello = alice_->make_peer_hello(beacon.g, 2100);
  before = bob_->verify_ops().hash_to_group;
  ASSERT_TRUE(bob_->process_peer_hello(hello, 2110).has_value());
  EXPECT_EQ(bob_->verify_ops().hash_to_group - before, 3u);
}

TEST_F(AuthTest, PeerStaleHelloRejected) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  const PeerHello hello = alice_->make_peer_hello(beacon.g, 1000);
  EXPECT_FALSE(bob_->process_peer_hello(hello, 1000 + 60000).has_value());
}

TEST_F(AuthTest, PeerTamperedReplyRejected) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  const PeerHello hello = alice_->make_peer_hello(beacon.g, 1000);
  auto reply = bob_->process_peer_hello(hello, 1010);
  ASSERT_TRUE(reply.has_value());
  reply->ts2 += 1;
  EXPECT_FALSE(alice_->process_peer_reply(*reply, 1020).has_value());
}

TEST_F(AuthTest, PeerConfirmTamperRejected) {
  const BeaconMessage beacon = router_->make_beacon(1000);
  const PeerHello hello = alice_->make_peer_hello(beacon.g, 1000);
  auto reply = bob_->process_peer_hello(hello, 1010);
  ASSERT_TRUE(reply.has_value());
  auto established = alice_->process_peer_reply(*reply, 1020);
  ASSERT_TRUE(established.has_value());
  established->confirm.ciphertext[0] ^= 1;
  EXPECT_FALSE(bob_->process_peer_confirm(established->confirm).has_value());
}

TEST_F(AuthTest, PeerReplyDelayWindowEnforced) {
  // Paper step 3: ts2 - ts1 must be within the acceptable delay window.
  const BeaconMessage beacon = router_->make_beacon(1000);
  const PeerHello hello = alice_->make_peer_hello(beacon.g, 1000);
  auto reply = bob_->process_peer_hello(hello, 1010);
  ASSERT_TRUE(reply.has_value());
  reply->ts2 = 1000 + 60000;  // breaks signature too, but window is checked
  EXPECT_FALSE(alice_->process_peer_reply(*reply, 61010).has_value());
}

TEST_F(AuthTest, MessagesRoundTripOnWire) {
  // Every protocol message survives serialize -> parse intact, at the
  // EXPERIMENTS.md E1 sizes: a fresh operator's empty CRL and URL make M.1
  // 432 B, M.2 857 B and M.3 156 B, and M.1's ECDSA signature 64 B.
  const BeaconMessage beacon = router_->make_beacon(1000);
  EXPECT_EQ(beacon.to_bytes().size(), 432u);
  EXPECT_EQ(beacon.signature.to_bytes().size(), 64u);
  const BeaconMessage beacon2 =
      BeaconMessage::from_bytes(beacon.to_bytes());
  EXPECT_EQ(beacon2.to_bytes(), beacon.to_bytes());
  auto m2 = alice_->process_beacon(beacon2, 1000);
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m2->to_bytes().size(), 857u);
  const AccessRequest m2_wire = AccessRequest::from_bytes(m2->to_bytes());
  EXPECT_EQ(m2_wire.to_bytes(), m2->to_bytes());
  auto outcome = router_->handle_access_request(m2_wire, 1010);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->confirm.to_bytes().size(), 156u);
  const AccessConfirm m3 = AccessConfirm::from_bytes(outcome->confirm.to_bytes());
  EXPECT_TRUE(alice_->process_access_confirm(m3).has_value());
}

}  // namespace
}  // namespace peace::proto
