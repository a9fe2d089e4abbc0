#include "common/serde.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>

#include "crypto/sha256.hpp"
#include "curve/bn254.hpp"
#include "curve/pairing.hpp"
#include "formatters.hpp"
#include "groupsig/groupsig.hpp"
#include "peace/entities.hpp"
#include "peace/messages.hpp"
#include "peace/persist/control.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace {
namespace {

TEST(Serde, RoundTripAllTypes) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.bytes(to_bytes("hello"));
  w.str("world");
  w.raw(to_bytes("xyz"));

  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.bytes(), to_bytes("hello"));
  EXPECT_EQ(r.str(), "world");
  EXPECT_EQ(r.raw(3), to_bytes("xyz"));
  EXPECT_TRUE(r.empty());
  EXPECT_NO_THROW(r.expect_end());
}

TEST(Serde, TruncationThrows) {
  Writer w;
  w.u32(42);
  Reader r(w.data());
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_THROW(r.u32(), Error);
}

TEST(Serde, LengthPrefixValidated) {
  // A length prefix larger than the remaining buffer must throw, not
  // allocate or read out of bounds.
  Bytes evil = {0xff, 0xff, 0xff, 0xff, 0x01};
  Reader r(evil);
  EXPECT_THROW(r.bytes(), Error);
}

TEST(Serde, TrailingBytesDetected) {
  Writer w;
  w.u8(1);
  w.u8(2);
  Reader r(w.data());
  r.u8();
  EXPECT_THROW(r.expect_end(), Error);
}

TEST(Serde, EmptyBytes) {
  Writer w;
  w.bytes({});
  Reader r(w.data());
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_TRUE(r.empty());
}

TEST(Serde, BigEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  EXPECT_EQ(w.data(), (Bytes{1, 2, 3, 4}));
}

TEST(Bytes, HexRoundTrip) {
  const Bytes b = {0x00, 0x7f, 0x80, 0xff};
  EXPECT_EQ(to_hex(b), "007f80ff");
  EXPECT_EQ(from_hex("007f80ff"), b);
  EXPECT_EQ(from_hex("007F80FF"), b);
  EXPECT_THROW(from_hex("abc"), Error);
  EXPECT_THROW(from_hex("zz"), Error);
}

TEST(Bytes, CtEqual) {
  EXPECT_TRUE(ct_equal(to_bytes("same"), to_bytes("same")));
  EXPECT_FALSE(ct_equal(to_bytes("same"), to_bytes("sane")));
  EXPECT_FALSE(ct_equal(to_bytes("short"), to_bytes("longer")));
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(Bytes, XorBytes) {
  const Bytes a = {0xff, 0x0f, 0x00};
  const Bytes b = {0x0f, 0x0f};
  EXPECT_EQ(xor_bytes(a, b), (Bytes{0xf0, 0x00, 0x00}));
  // Involution when lengths match the first operand.
  EXPECT_EQ(xor_bytes(xor_bytes(a, b), b), a);
}

TEST(Bytes, Concat) {
  EXPECT_EQ(concat(to_bytes("ab"), to_bytes("cd"), to_bytes("e")),
            to_bytes("abcde"));
}

// --- Point validation on the wire ------------------------------------------
// Adversarial frames must not be able to feed malformed points into pairings
// or DH: off-curve, out-of-range, non-subgroup, and identity encodings all
// get rejected at parse time.

class PointSerdeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
};

TEST_F(PointSerdeTest, G1RejectsBadFlagByte) {
  Bytes enc = curve::g1_to_bytes(curve::Bn254::get().g1_gen);
  enc[0] = 5;
  EXPECT_THROW(curve::g1_from_bytes(enc), Error);
}

TEST_F(PointSerdeTest, G1RejectsCoordinateAboveModulus) {
  Bytes enc(curve::kG1CompressedSize, 0xff);
  enc[0] = 2;
  EXPECT_THROW(curve::g1_from_bytes(enc), Error);
}

TEST_F(PointSerdeTest, G1RejectsOffCurveX) {
  // About half of all x values have no point: x^3 + 3 is a non-residue.
  // Scan small x until one rejects to keep the test deterministic.
  bool found = false;
  for (std::uint8_t x = 0; x < 32 && !found; ++x) {
    Bytes enc(curve::kG1CompressedSize, 0);
    enc[0] = 2;
    enc[curve::kG1CompressedSize - 1] = x;
    try {
      curve::g1_from_bytes(enc);
    } catch (const Error&) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PointSerdeTest, G1RejectsBadInfinityEncoding) {
  Bytes enc(curve::kG1CompressedSize, 0);
  enc[5] = 1;  // flag says infinity but the payload is nonzero
  EXPECT_THROW(curve::g1_from_bytes(enc), Error);
}

TEST_F(PointSerdeTest, G2RejectsNonSubgroupPoint) {
  // E'(Fp2) has order r * (2p - r): almost all curve points are NOT in the
  // order-r subgroup. Find one by scanning x, and check the deserializer
  // refuses it even though it is a perfectly valid twist-curve point.
  const auto& bn = curve::Bn254::get();
  bool found = false;
  for (std::uint64_t i = 1; i < 64 && !found; ++i) {
    const math::Fp2 x = math::Fp2::from_u64(i, 0);
    const math::Fp2 rhs = x.square() * x + curve::G2Traits::b();
    math::Fp2 y;
    if (!rhs.sqrt(y)) continue;
    const curve::G2 point(x, y);
    ASSERT_TRUE(point.is_on_curve());
    if ((point * bn.r).is_infinity()) continue;  // unlucky: in the subgroup
    found = true;
    EXPECT_THROW(curve::g2_from_bytes(curve::g2_to_bytes(point)), Error);
  }
  EXPECT_TRUE(found);
}

TEST_F(PointSerdeTest, GroupKeyAndTokenRejectIdentity) {
  EXPECT_THROW(
      groupsig::GroupPublicKey::from_bytes(Bytes(curve::kG2CompressedSize, 0)),
      Error);
  EXPECT_THROW(
      groupsig::RevocationToken::from_bytes(Bytes(curve::kG1CompressedSize, 0)),
      Error);
}

TEST_F(PointSerdeTest, SignatureRejectsIdentityComponents) {
  const auto& bn = curve::Bn254::get();
  groupsig::Signature sig;
  sig.epoch = 1;
  sig.nonce = curve::Fr::from_u64(11);
  sig.t1 = bn.g1_gen * curve::Fr::from_u64(3);
  sig.t2 = bn.g1_gen * curve::Fr::from_u64(5);
  sig.t_hat = bn.g2_gen * curve::Fr::from_u64(7);
  sig.r1 = bn.g1_gen * curve::Fr::from_u64(13);
  // R2 must live in the cyclotomic subgroup of GT (enforced at parse time),
  // so build it as an honest pairing value.
  sig.r2 = curve::pairing(bn.g1_gen * curve::Fr::from_u64(29), bn.g2_gen);
  sig.r3 = bn.g1_gen * curve::Fr::from_u64(31);
  sig.r4 = bn.g2_gen * curve::Fr::from_u64(37);
  sig.s_alpha = curve::Fr::from_u64(17);
  sig.s_x = curve::Fr::from_u64(19);
  sig.s_delta = curve::Fr::from_u64(23);
  const Bytes good = sig.to_bytes();
  EXPECT_NO_THROW(groupsig::Signature::from_bytes(good));

  // Wire layout: epoch(8) | nonce(32) | t1(33) | t2(33) | t_hat(65) | ...
  const auto zeroed = [&good](std::size_t offset, std::size_t len) {
    Bytes bad = good;
    std::fill(bad.begin() + static_cast<std::ptrdiff_t>(offset),
              bad.begin() + static_cast<std::ptrdiff_t>(offset + len), 0);
    return bad;
  };
  EXPECT_THROW(groupsig::Signature::from_bytes(zeroed(40, 33)), Error);   // t1
  EXPECT_THROW(groupsig::Signature::from_bytes(zeroed(73, 33)), Error);   // t2
  EXPECT_THROW(groupsig::Signature::from_bytes(zeroed(106, 65)), Error);  // t_hat
}

TEST_F(PointSerdeTest, MessageRejectsIdentityDhShare) {
  proto::RouterCertificate cert;
  cert.router_id = 7;
  cert.public_key = curve::G1::infinity();
  cert.expires_at = 1000;
  EXPECT_THROW(proto::RouterCertificate::from_bytes(cert.to_bytes()), Error);

  cert.public_key = curve::Bn254::get().g1_gen * curve::Fr::from_u64(9);
  EXPECT_NO_THROW(proto::RouterCertificate::from_bytes(cert.to_bytes()));
}

// Flags are 0 or 1: any other byte would be a second encoding of the same
// message (it used to parse as "present" and re-encode differently).
TEST_F(PointSerdeTest, FlagBytesOtherThanZeroOrOneRejected) {
  const auto& bn = curve::Bn254::get();
  const auto point = [&bn](std::uint64_t k) {
    return bn.g1_gen * curve::Fr::from_u64(k);
  };
  const auto flag_set_to = [](Bytes wire, std::size_t offset, std::uint8_t v) {
    wire[offset] = v;
    return wire;
  };

  proto::BeaconMessage beacon;
  beacon.router_id = 3;
  beacon.g = point(2);
  beacon.g_rr = point(3);
  beacon.certificate.public_key = point(4);
  beacon.puzzle = proto::make_puzzle(to_bytes("nonce"), 4);
  const Bytes b = beacon.to_bytes();
  const std::size_t b_flag =
      b.size() - 4 - beacon.puzzle->to_bytes().size() - 1;
  ASSERT_EQ(b[b_flag], 1);
  EXPECT_NO_THROW(proto::BeaconMessage::from_bytes(b));
  EXPECT_THROW(proto::BeaconMessage::from_bytes(flag_set_to(b, b_flag, 2)),
               Error);

  proto::AccessRequest m2;
  m2.g_rj = point(5);
  m2.g_rr = point(6);
  m2.signature.t1 = point(7);
  m2.signature.t2 = point(8);
  m2.signature.t_hat = bn.g2_gen;
  m2.signature.r2 = curve::gt_generator();
  m2.puzzle_solution = proto::PuzzleSolution{to_bytes("nonce"), 42};
  const Bytes m = m2.to_bytes();
  const std::size_t m_flag =
      m.size() - 4 - m2.puzzle_solution->to_bytes().size() - 1;
  ASSERT_EQ(m[m_flag], 1);
  EXPECT_NO_THROW(proto::AccessRequest::from_bytes(m));
  EXPECT_THROW(proto::AccessRequest::from_bytes(flag_set_to(m, m_flag, 2)),
               Error);
  m2.puzzle_solution.reset();
  const Bytes m_none = m2.to_bytes();
  EXPECT_THROW(proto::AccessRequest::from_bytes(
                   flag_set_to(m_none, m_none.size() - 1, 2)),
               Error);

  // The TTP's has-key flag follows its image tag.
  proto::TrustedThirdParty ttp;
  crypto::Drbg rng = crypto::Drbg::from_string("flag-ttp");
  ttp.ensure_signing_key(rng);
  const Bytes t = ttp.state_bytes();
  const std::size_t t_flag = 4 + std::string("peace/ttp-state-v1").size();
  ASSERT_EQ(t[t_flag], 1);
  EXPECT_NO_THROW(proto::TrustedThirdParty::from_state(t));
  EXPECT_THROW(proto::TrustedThirdParty::from_state(flag_set_to(t, t_flag, 2)),
               Error);
}

// --- Golden bytes -------------------------------------------------------------
// Round trips cannot see a drift that the encoder and the decoder share, so
// every wire, log and snapshot format is pinned here by the SHA-256 of its
// bytes in one seeded deployment. A change to any layout must update its
// row on purpose (and PROTOCOL.md with it).

TEST(Serde, FormatsArePinned) {
  using namespace proto;
  curve::Bn254::init();
  const std::string dir = ::testing::TempDir() + "/peace-serde-pinned";
  std::filesystem::remove_all(dir);
  std::map<std::string, Bytes> got;
  {
    persist::ControlPlaneOptions opts;
    opts.snapshot_every = 0;
    auto cp = persist::ControlPlane::create(
        dir, crypto::Drbg::from_string("pin-no"), opts);
    const GroupId gid = cp.register_group("pinned", 4);
    auto prov = cp.provision_router(7, 1'000'000'000);
    const auto enrolled = [&](const std::string& uid) {
      auto user = std::make_unique<User>(uid, cp.no().params(),
                                         crypto::Drbg::from_string(uid));
      const auto enr = cp.enroll(gid, uid);
      cp.record_receipt(enr, user->receipt_public_key(),
                        user->complete_enrollment(enr));
      return user;
    };
    auto user = enrolled("pin-user");
    auto peer = enrolled("pin-peer");
    cp.revoke_router(99, 10);
    cp.revoke_user_key({gid, 0}, 20);

    MeshRouter router(7, prov.keypair, prov.certificate, cp.no().params(),
                      crypto::Drbg::from_string("pin-router"));
    router.install_revocation_lists(cp.no().current_crl(),
                                    cp.no().current_url());
    const BeaconMessage beacon = router.make_beacon(1000);
    const AccessRequest m2 = *user->process_beacon(beacon, 1010);
    const AccessConfirm m3 = router.handle_access_request(m2, 1020)->confirm;
    Session session = *user->process_access_confirm(m3);
    const DataFrame frame = session.seal(to_bytes("pinned payload"));
    router.set_under_attack(true, 4);
    const BeaconMessage beacon_pz = router.make_beacon(2000);
    const AccessRequest m2_pz = *user->process_beacon(beacon_pz, 2010);

    const PeerHello hello = user->make_peer_hello(beacon.g, 3000);
    const PeerReply reply = *peer->process_peer_hello(hello, 3010);
    const PeerConfirm confirm = user->process_peer_reply(reply, 3020)->confirm;

    const RLDeltaAnnounce announce = cp.no().make_delta_announcement(0, 0);
    const RLResyncRequest resync{ListKind::kUrl, 0};
    const RLResyncResponse resync_resp = cp.no().handle_resync(resync);

    got["beacon"] = beacon.to_bytes();
    got["beacon.signed"] = beacon.signed_payload();
    got["beacon+puzzle"] = beacon_pz.to_bytes();
    got["beacon+puzzle.signed"] = beacon_pz.signed_payload();
    got["m2"] = m2.to_bytes();
    got["m2.signed"] = m2.signed_payload();
    got["m2+puzzle"] = m2_pz.to_bytes();
    got["m2+puzzle.signed"] = m2_pz.signed_payload();
    got["m3"] = m3.to_bytes();
    got["m~1"] = hello.to_bytes();
    got["m~1.signed"] = hello.signed_payload();
    got["m~2"] = reply.to_bytes();
    got["m~2.signed"] = reply.signed_payload();
    got["m~3"] = confirm.to_bytes();
    got["frame"] = frame.to_bytes();
    got["cert"] = beacon.certificate.to_bytes();
    got["cert.signed"] = beacon.certificate.signed_payload();
    got["crl"] = beacon.crl.to_bytes();
    got["crl.signed"] = beacon.crl.signed_payload();
    got["url"] = beacon.url.to_bytes();
    got["url.signed"] = beacon.url.signed_payload();
    got["delta"] = announce.deltas.at(0).to_bytes();
    got["delta.signed"] = announce.deltas.at(0).signed_payload();
    got["announce"] = announce.to_bytes();
    got["resync_request"] = resync.to_bytes();
    got["resync_response"] = resync_resp.to_bytes();
    got["groupsig"] = m2.signature.to_bytes();

    cp.reissue_group(gid, 2);
    cp.rotate_master_key(40);
    got["image.no"] = cp.no().state_bytes();
    got["image.ttp"] = cp.ttp().state_bytes();
    got["image.gm"] = cp.gm(gid).state_bytes();
    got["image.control"] = cp.state_bytes();
  }
  // Each of the six record types, as the control plane logged them.
  using persist::RecordType;
  for (const persist::WalRecord& t : persist::DurableStore::open(dir).tail) {
    const BytesView p = t.payload;
    const auto pin = [&](const char* name, Bytes encoded) {
      EXPECT_EQ(encoded, t.payload) << name;
      got[name] = std::move(encoded);
    };
    switch (static_cast<RecordType>(t.type)) {
      case RecordType::kGroupRegistered:
        pin("rec.group_issue", persist::GroupIssueRecord::from_bytes(p).to_bytes());
        break;
      case RecordType::kMasterRotated:
        pin("rec.master_rotated",
            persist::MasterRotatedRecord::from_bytes(p).to_bytes());
        break;
      case RecordType::kUserRevoked:
        pin("rec.revocation", persist::RevocationRecord::from_bytes(p).to_bytes());
        break;
      case RecordType::kRouterProvisioned:
        pin("rec.router_provisioned",
            persist::RouterProvisionedRecord::from_bytes(p).to_bytes());
        break;
      case RecordType::kEnrolled:
        pin("rec.enrolled", persist::EnrolledRecord::from_bytes(p).to_bytes());
        break;
      case RecordType::kReceiptArchived:
        pin("rec.receipt_archived",
            persist::ReceiptArchivedRecord::from_bytes(p).to_bytes());
        break;
      default:
        break;
    }
  }
  std::filesystem::remove_all(dir);

  const std::map<std::string, std::string> pinned = {
      {"announce", "f10dffe2cf8867ba8df1e101dc93c7230d367bbd95aae61d97689bb9aac7f6e0"},
      {"beacon", "94c4826d51b397ad8f8985f6f61876cf3210fec2243ed873f374c64777b2c591"},
      {"beacon+puzzle", "a15c001b4c779ea8c653a8e78bf45d486203dbf965f99dccff669829bcb9c18c"},
      {"beacon+puzzle.signed", "daaa3765e77c47eaf2ee5ffc9deca50d267fbdda73a295a6d2349da782711560"},
      {"beacon.signed", "defee0394394ca0e25275a2063518fa11bc1d800f1031663528f45fe7a7eee56"},
      {"cert", "95c46eede542d208de19a7214c4b62493078ad3ce2c308e911745a43038e51ed"},
      {"cert.signed", "fe85c8137a6d37eecfdd67633ad80c136a8762c7b9cd71acb804f2d5628866ca"},
      {"crl", "a6c4c520687c38dd05c85069d912b8b0ded54c31d1181c0d370353ebd12f18ad"},
      {"crl.signed", "8a438faf41ef156838e99a66bbebbe416bd8d9d6b77ea49bff1e9a5aba47f99f"},
      {"delta", "8ca6b32733f4ee2d17ed5b3b4ee8c3f01400f528682605c75c2feb7c20a5343b"},
      {"delta.signed", "d232767be80dbb13d88e4c1d3af9134d440b2a1bb84ff542447b6fbc59876e5f"},
      {"frame", "e1d5e76dea21a9c7123f900fd57f0eaeb3a0ae0c1d431d7e4af0025256e6c7f7"},
      {"groupsig", "9e210aaa666b4c358bc0f0b1d0d3d59933c773e5faf71c7418d5a8b932e763ab"},
      {"image.control", "148f1c6a0cd08c4cdf5727cb6053daf7c07c471fe50bdef11a00ed901fc1b1cb"},
      {"image.gm", "969a397adbb006459ca1b5a831c056e0928b22c979e2175ac28db7f9690aa7aa"},
      {"image.no", "0dc3a8060db4d8b354e3c9193c5b00d3bc3f00a8ff82ff6cdb575a4ab57cf5f9"},
      {"image.ttp", "4b6ba01d7785bc2b0567ebacf1d75350f9779562a7512fa209f036c5d0288199"},
      {"m2", "cc523a5d2b1bfa307e8e9dbd8a6a057912645046ecf1bef1b1b282295a1b3389"},
      {"m2+puzzle", "a50613fe2533adf867048475737f0fa69e9b5038dcb9dddc49558251299a44ff"},
      {"m2+puzzle.signed", "636c26e9c1578dfd05e85aa8c8a8dadbda62f08b7326816d17969e01f1ce5a75"},
      {"m2.signed", "0d28f1bd6885b81d14d2b4f14bbf71f4cfb7ee4c6addb88740f5c5df947c39d5"},
      {"m3", "bb5291c46f31768ab30cc75840cd76c631284a4f7731947e3fa2bce0d5f4de04"},
      {"m~1", "868cf3e2524d23f278ba7b4cbd0a8de5ee5fd133bc7105b75ea2d748f0aefcbf"},
      {"m~1.signed", "fc915d71185b373d5b5eaedb6bfaa6c2830deb50d596de291415d3852455d9d6"},
      {"m~2", "a28efe8d69419f6f3e165566c73c0e4b0fe273b3d6682f92388c3b63a8bcbeaf"},
      {"m~2.signed", "e127140e7b192b3e2bccd6da6614369ee4e09cccaf1bfec31d3dddf0542caacb"},
      {"m~3", "3437f7ebcb50efae628f4a32d0b528f586efa662665f9243f3dd8d49ecf805f0"},
      {"rec.enrolled", "5223d042dfe2894c28bbc285a751c2a5d18c40ffb28536978cf84257de876b04"},
      {"rec.group_issue", "c4839b5b7e08ca88a6645c225df791a9f5c6f344c5c6a3e3891d4ca50f25d063"},
      {"rec.master_rotated", "625659bae8251b52d69393c210ff2c6db03fb6e501f97eb5e25aaed43c30a240"},
      {"rec.receipt_archived", "dcfbb7c14f34e0ef3b7f69bf3522cd0608f3cf729514551bcd5425b84abe6496"},
      {"rec.revocation", "18b0a4d37e161203748da88e59442cf189ee9615b575c90d76bbe00be7c433dc"},
      {"rec.router_provisioned", "94b89b5a4d9cb22ee9f81b968e377465663f33e26551b60bd039757f9eb4821b"},
      {"resync_request", "a536aa3cede6ea3c1f3e0357c3c60e0f216a8c89b853df13b29daa8f85065dfb"},
      {"resync_response", "ff257a869424ca6ba40db79dda0e3023994d4ce93ea821b887d6d150ea60e84f"},
      {"url", "41c27c55e3fab2b725095dd869aa29297e427d9c86e50507235b5bddee0c3a81"},
      {"url.signed", "1a240df1b399183d8aa0dbcdf87abae1a41d7b6a452c4c22ef167ac921bad2cb"},
  };
  for (const auto& [name, bytes] : got) {
    const auto it = pinned.find(name);
    const std::string hash = to_hex(crypto::Sha256::hash(bytes));
    EXPECT_TRUE(it != pinned.end() && it->second == hash)
        << "{\"" << name << "\", \"" << hash << "\"},";
  }
  EXPECT_EQ(got.size(), pinned.size());
}

}  // namespace
}  // namespace peace
