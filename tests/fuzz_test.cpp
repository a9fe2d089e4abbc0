// Robustness of every wire decoder against hostile bytes: random buffers
// and bit-flipped valid messages must either parse cleanly or throw
// peace::Error — never crash, never read out of bounds, and never produce
// a message that verifies.
#include <gtest/gtest.h>

#include <filesystem>

#include "baseline/plain_auth.hpp"
#include "peace/persist/control.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::proto {
namespace {

class FuzzTest : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
};

template <typename Parser>
void expect_no_crash(BytesView data, Parser&& parse) {
  try {
    parse(data);
  } catch (const Error&) {
    // rejecting is fine; crashing or UB is not.
  }
}

TEST_P(FuzzTest, RandomBytesDontCrashDecoders) {
  crypto::Drbg rng = crypto::Drbg::from_string("fuzz-random", GetParam());
  for (int i = 0; i < 50; ++i) {
    const Bytes junk = rng.bytes(rng.uniform(600));
    expect_no_crash(junk, [](BytesView d) { BeaconMessage::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { AccessRequest::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { AccessConfirm::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { PeerHello::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { PeerReply::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { PeerConfirm::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { DataFrame::from_bytes(d); });
    expect_no_crash(junk,
                    [](BytesView d) { RouterCertificate::from_bytes(d); });
    expect_no_crash(junk,
                    [](BytesView d) { SignedRevocationList::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { RLDelta::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { RLDeltaAnnounce::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { RLResyncRequest::from_bytes(d); });
    expect_no_crash(junk,
                    [](BytesView d) { RLResyncResponse::from_bytes(d); });
    expect_no_crash(junk,
                    [](BytesView d) { groupsig::Signature::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { curve::g1_from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { curve::g2_from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) {
      baseline::PlainAccessRequest::from_bytes(d);
    });
    expect_no_crash(junk, [](BytesView d) { PuzzleChallenge::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) { PuzzleSolution::from_bytes(d); });
    expect_no_crash(junk, [](BytesView d) {
      persist::GroupIssueRecord::from_bytes(d);
    });
    expect_no_crash(junk, [](BytesView d) {
      persist::MasterRotatedRecord::from_bytes(d);
    });
    expect_no_crash(junk, [](BytesView d) {
      persist::RevocationRecord::from_bytes(d);
    });
    expect_no_crash(junk, [](BytesView d) {
      persist::RouterProvisionedRecord::from_bytes(d);
    });
    expect_no_crash(junk, [](BytesView d) {
      persist::EnrolledRecord::from_bytes(d);
    });
    expect_no_crash(junk, [](BytesView d) {
      persist::ReceiptArchivedRecord::from_bytes(d);
    });
  }
}

// The operator's snapshot decoder under bit rot that the snapshot CRC does
// not catch (the flipped image is framed with a fresh CRC): every flip must
// either decode or throw Error.
TEST_P(FuzzTest, BitFlippedControlImagesDecodeOrThrow) {
  const std::string dir =
      ::testing::TempDir() + "/peace-fuzz-image-" + std::to_string(GetParam());
  std::filesystem::remove_all(dir);
  Bytes image;
  {
    auto cp = persist::ControlPlane::create(
        dir, crypto::Drbg::from_string("fuzz-image"));
    const GroupId gid = cp.register_group("G", 2);
    cp.enroll(gid, "fuzz-user");
    cp.revoke_user_key({gid, 0}, 5);
    image = cp.state_bytes();
  }
  crypto::Drbg rng = crypto::Drbg::from_string("fuzz-image-flip", GetParam());
  for (int i = 0; i < 64; ++i) {
    Bytes flipped = image;
    const std::uint64_t bit = rng.uniform(flipped.size() * 8);
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    std::filesystem::remove_all(dir);
    persist::DurableStore::create(dir).write_snapshot(flipped);
    expect_no_crash(flipped, [&dir](BytesView) {
      persist::ControlPlane::recover(dir);
    });
  }
  std::filesystem::remove_all(dir);
}

struct FuzzWorld {
  FuzzWorld() : no(crypto::Drbg::from_string("fuzz-no")) {
    gm = std::make_unique<GroupManager>(no.register_group("G", 4, ttp));
    auto provision = no.provision_router(1, ~Timestamp{0});
    router = std::make_unique<MeshRouter>(
        1, provision.keypair, provision.certificate, no.params(),
        crypto::Drbg::from_string("fuzz-router"));
    router->install_revocation_lists(no.current_crl(), no.current_url());
    user = std::make_unique<User>("fuzz-user", no.params(),
                                  crypto::Drbg::from_string("fuzz-u"));
    user->complete_enrollment(gm->enroll("fuzz-user", ttp));
    user2 = std::make_unique<User>("fuzz-user2", no.params(),
                                   crypto::Drbg::from_string("fuzz-u2"));
    user2->complete_enrollment(gm->enroll("fuzz-user2", ttp));
  }
  static FuzzWorld& get() {
    static FuzzWorld w;
    return w;
  }
  NetworkOperator no;
  TrustedThirdParty ttp;
  std::unique_ptr<GroupManager> gm;
  std::unique_ptr<MeshRouter> router;
  std::unique_ptr<User> user;
  std::unique_ptr<User> user2;
};

TEST_P(FuzzTest, BitFlippedAccessRequestsNeverAccepted) {
  FuzzWorld& w = FuzzWorld::get();
  crypto::Drbg rng = crypto::Drbg::from_string("fuzz-flip", GetParam());
  const Timestamp now = 1000 + static_cast<Timestamp>(GetParam()) * 100;
  const auto beacon = w.router->make_beacon(now);
  auto m2 = w.user->process_beacon(beacon, now);
  ASSERT_TRUE(m2.has_value());
  const Bytes wire = m2->to_bytes();

  for (int i = 0; i < 30; ++i) {
    Bytes mutated = wire;
    mutated[rng.uniform(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.uniform(255));
    try {
      const AccessRequest parsed = AccessRequest::from_bytes(mutated);
      // If it parses, the router must reject it (bad signature / unknown
      // beacon / wrong timestamp) — it must never establish a session.
      EXPECT_FALSE(
          w.router->handle_access_request(parsed, now + 1).has_value());
    } catch (const Error&) {
    }
  }
  // The pristine request still works afterwards (state not corrupted).
  EXPECT_TRUE(w.router
                  ->handle_access_request(AccessRequest::from_bytes(wire),
                                          now + 2)
                  .has_value());
}

/// Flips bits in `wire` `rounds` times; every mutant must either fail to
/// parse (peace::Error) or, once parsed, be rejected by `consume` without
/// mutating any state `consume` guards.
template <typename Reparse, typename Consume>
void flip_and_feed(const Bytes& wire, crypto::Drbg& rng, int rounds,
                   Reparse&& reparse, Consume&& consume) {
  for (int i = 0; i < rounds; ++i) {
    Bytes mutated = wire;
    const std::size_t byte = rng.uniform(mutated.size());
    mutated[byte] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
    if (mutated == wire) continue;  // xor happened to cancel — not a mutant
    try {
      consume(reparse(BytesView{mutated}));
    } catch (const Error&) {
      // clean rejection at the decoder
    }
  }
}

// Every wire kind in the protocol, serialized, bit-flipped, and fed back to
// its consumer: nothing may escape as a non-Error exception, and the
// consumer's state must be byte-for-byte as usable afterwards as before —
// proven by completing the pristine exchange after the barrage.
TEST_P(FuzzTest, BitFlipsAcrossAllWireKindsRejectWithoutStateChange) {
  FuzzWorld& w = FuzzWorld::get();
  crypto::Drbg rng = crypto::Drbg::from_string("fuzz-kinds", GetParam());
  const Timestamp now = 500'000 + static_cast<Timestamp>(GetParam()) * 1000;

  // --- access handshake: M.1, M.2, M.3, data ------------------------------
  const auto beacon = w.router->make_beacon(now);
  flip_and_feed(
      beacon.to_bytes(), rng, 20,
      [](BytesView d) { return BeaconMessage::from_bytes(d); },
      [&](const BeaconMessage& b) {
        // A mutated beacon must never yield an access request (bad router
        // signature / certificate), and must not clobber the real attempt.
        EXPECT_FALSE(w.user2->process_beacon(b, now).has_value());
      });

  auto m2 = w.user->process_beacon(beacon, now);
  ASSERT_TRUE(m2.has_value());
  const std::size_t pending_before = w.user->pending_access_size();
  const std::uint64_t accepted_before = w.router->stats().accepted;
  const std::size_t sessions_before = w.router->session_count();
  flip_and_feed(
      m2->to_bytes(), rng, 20,
      [](BytesView d) { return AccessRequest::from_bytes(d); },
      [&](const AccessRequest& r) {
        EXPECT_FALSE(w.router->handle_access_request(r, now + 1).has_value());
      });
  EXPECT_EQ(w.router->stats().accepted, accepted_before);
  EXPECT_EQ(w.router->session_count(), sessions_before);

  auto outcome = w.router->handle_access_request(*m2, now + 1);
  ASSERT_TRUE(outcome.has_value());
  const std::uint64_t established_before = w.user->stats().sessions_established;
  flip_and_feed(
      outcome->confirm.to_bytes(), rng, 20,
      [](BytesView d) { return AccessConfirm::from_bytes(d); },
      [&](const AccessConfirm& c) {
        EXPECT_FALSE(w.user->process_access_confirm(c).has_value());
      });
  // The barrage consumed nothing: the pending share survives and the
  // pristine M.3 still completes.
  EXPECT_EQ(w.user->pending_access_size(), pending_before);
  EXPECT_EQ(w.user->stats().sessions_established, established_before);
  auto session = w.user->process_access_confirm(outcome->confirm);
  ASSERT_TRUE(session.has_value());

  Session* router_side = w.router->session(outcome->session_id);
  ASSERT_NE(router_side, nullptr);
  const DataFrame frame = session->seal(as_bytes("payload under fire"));
  flip_and_feed(
      frame.to_bytes(), rng, 20,
      [](BytesView d) { return DataFrame::from_bytes(d); },
      [&](const DataFrame& f) {
        EXPECT_FALSE(router_side->open(f).has_value());
      });
  EXPECT_TRUE(router_side->open(frame).has_value());  // AEAD state intact

  // --- peer handshake: M~.1, M~.2, M~.3 -----------------------------------
  const PeerHello hello = w.user->make_peer_hello(beacon.g, now);
  flip_and_feed(
      hello.to_bytes(), rng, 20,
      [](BytesView d) { return PeerHello::from_bytes(d); },
      [&](const PeerHello& h) {
        EXPECT_FALSE(w.user2->process_peer_hello(h, now).has_value());
      });
  auto reply = w.user2->process_peer_hello(hello, now);
  ASSERT_TRUE(reply.has_value());

  flip_and_feed(
      reply->to_bytes(), rng, 20,
      [](BytesView d) { return PeerReply::from_bytes(d); },
      [&](const PeerReply& r) {
        EXPECT_FALSE(w.user->process_peer_reply(r, now + 1).has_value());
      });
  auto established = w.user->process_peer_reply(*reply, now + 1);
  ASSERT_TRUE(established.has_value());

  const std::uint64_t peer_before = w.user2->stats().peer_sessions_established;
  flip_and_feed(
      established->confirm.to_bytes(), rng, 20,
      [](BytesView d) { return PeerConfirm::from_bytes(d); },
      [&](const PeerConfirm& c) {
        EXPECT_FALSE(w.user2->process_peer_confirm(c).has_value());
      });
  EXPECT_EQ(w.user2->stats().peer_sessions_established, peer_before);
  EXPECT_TRUE(w.user2->process_peer_confirm(established->confirm).has_value());

  // --- revocation distribution: lists, deltas, resync ---------------------
  w.no.revoke_router(99, now);  // no-op after the first seed — chain stays
  const auto deltas = w.no.deltas_since(ListKind::kCrl, 0);
  ASSERT_FALSE(deltas.empty());
  flip_and_feed(
      deltas.back().to_bytes(), rng, 20,
      [](BytesView d) { return RLDelta::from_bytes(d); },
      [&](const RLDelta& d) {
        // A tampered delta may at worst trigger a resync request — it must
        // never install (signature over the delta payload fails).
        (void)w.router->handle_rl_announce(RLDeltaAnnounce{{d}});
      });
  flip_and_feed(
      w.no.make_delta_announcement(0, 0).to_bytes(), rng, 20,
      [](BytesView d) { return RLDeltaAnnounce::from_bytes(d); },
      [&](const RLDeltaAnnounce& a) { (void)w.router->handle_rl_announce(a); });

  const RLResyncRequest req{ListKind::kCrl, 0};
  flip_and_feed(
      req.to_bytes(), rng, 20,
      [](BytesView d) { return RLResyncRequest::from_bytes(d); },
      [&](const RLResyncRequest& r) { (void)w.no.handle_resync(r); });
  flip_and_feed(
      w.no.handle_resync(req).to_bytes(), rng, 20,
      [](BytesView d) { return RLResyncResponse::from_bytes(d); },
      [&](const RLResyncResponse&) {});
  flip_and_feed(
      w.no.current_crl().to_bytes(), rng, 20,
      [](BytesView d) { return SignedRevocationList::from_bytes(d); },
      [&](const SignedRevocationList& l) {
        // Tampered lists must not install over the authentic ones.
        w.router->install_revocation_lists(l, l);
      });
  flip_and_feed(
      beacon.certificate.to_bytes(), rng, 20,
      [](BytesView d) { return RouterCertificate::from_bytes(d); },
      [&](const RouterCertificate&) {});

  // After everything above, the router still authenticates a fresh user —
  // no poisoned list or cached fragment took hold.
  const auto beacon2 = w.router->make_beacon(now + 10);
  auto m2b = w.user2->process_beacon(beacon2, now + 10);
  ASSERT_TRUE(m2b.has_value());
  EXPECT_TRUE(w.router->handle_access_request(*m2b, now + 11).has_value());
}

TEST_P(FuzzTest, TruncatedMessagesRejected) {
  FuzzWorld& w = FuzzWorld::get();
  const Timestamp now = 50'000 + static_cast<Timestamp>(GetParam()) * 100;
  const auto beacon = w.router->make_beacon(now);
  const Bytes wire = beacon.to_bytes();
  for (std::size_t len : {0ul, 1ul, wire.size() / 2, wire.size() - 1}) {
    EXPECT_THROW(BeaconMessage::from_bytes({wire.data(), len}), Error) << len;
  }
  // Trailing garbage also rejected.
  Bytes extended = wire;
  extended.push_back(0);
  EXPECT_THROW(BeaconMessage::from_bytes(extended), Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace peace::proto
