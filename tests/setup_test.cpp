// PEACE scheme setup (paper IV.A): key generation, the NO/GM/TTP split
// distribution, credential blinding, router provisioning, and the
// partial-knowledge invariants each entity must satisfy.
#include <gtest/gtest.h>

#include <algorithm>

#include "peace/user.hpp"

namespace peace::proto {
namespace {

class SetupTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  SetupTest() : no_(crypto::Drbg::from_string("setup-no")) {}

  NetworkOperator no_;
  TrustedThirdParty ttp_;
};

TEST_F(SetupTest, RegisterGroupAllocatesKeys) {
  GroupManager gm = no_.register_group("Company XYZ", 5, ttp_);
  EXPECT_EQ(gm.keys_remaining(), 5u);
  EXPECT_EQ(ttp_.stored_credentials(), 5u);
  EXPECT_EQ(no_.grt_size(), 5u);
  EXPECT_EQ(gm.name(), "Company XYZ");
}

TEST_F(SetupTest, MultipleGroupsGetDistinctIdsAndSecrets) {
  GroupManager a = no_.register_group("A", 2, ttp_);
  GroupManager b = no_.register_group("B", 2, ttp_);
  EXPECT_NE(a.id(), b.id());
  EXPECT_FALSE(a.group_secret() == b.group_secret());
  EXPECT_EQ(no_.grt_size(), 4u);
}

TEST_F(SetupTest, EnrollmentYieldsValidCredential) {
  GroupManager gm = no_.register_group("G", 3, ttp_);
  User user("alice", no_.params(), crypto::Drbg::from_string("alice"));
  user.complete_enrollment(gm.enroll("alice", ttp_));
  ASSERT_EQ(user.enrolled_groups().size(), 1u);
  EXPECT_TRUE(user.credential(gm.id()).is_valid(no_.params().gpk));
  EXPECT_EQ(gm.keys_remaining(), 2u);
}

TEST_F(SetupTest, UserInMultipleGroups) {
  GroupManager work = no_.register_group("employer", 2, ttp_);
  GroupManager golf = no_.register_group("golf club", 2, ttp_);
  User user("bob", no_.params(), crypto::Drbg::from_string("bob"));
  user.complete_enrollment(work.enroll("bob", ttp_));
  user.complete_enrollment(golf.enroll("bob", ttp_));
  EXPECT_EQ(user.enrolled_groups().size(), 2u);
  EXPECT_TRUE(user.credential(work.id()).is_valid(no_.params().gpk));
  EXPECT_TRUE(user.credential(golf.id()).is_valid(no_.params().gpk));
  // Same group secret within a group, different across groups.
  EXPECT_FALSE(user.credential(work.id()).grp == user.credential(golf.id()).grp);
}

TEST_F(SetupTest, EnrollmentExhaustionThrows) {
  GroupManager gm = no_.register_group("tiny", 1, ttp_);
  gm.enroll("u1", ttp_);
  EXPECT_THROW(gm.enroll("u2", ttp_), Error);
}

TEST_F(SetupTest, BlindingRoundTrip) {
  crypto::Drbg rng = crypto::Drbg::from_string("blind");
  const G1 a = curve::Bn254::get().g1_gen * curve::random_fr(rng);
  const Fr x = curve::random_fr(rng);
  const Bytes blinded = blind_credential(a, x);
  EXPECT_EQ(unblind_credential(blinded, x), a);
  // The blinded blob is not the serialized point itself.
  EXPECT_NE(blinded, curve::g1_to_bytes(a));
  // Wrong x fails to unblind to a valid point (overwhelmingly), or yields a
  // different point.
  const Fr wrong = x + Fr::one();
  try {
    EXPECT_NE(unblind_credential(blinded, wrong), a);
  } catch (const Error&) {
    // not even a curve point — fine
  }
}

TEST_F(SetupTest, GmNeverLearnsCredentialA) {
  // Structural check: everything the GM stores is (index, uid, grp, x);
  // reconstructing A from (grp, x) requires gamma, which only NO holds.
  GroupManager gm = no_.register_group("G", 2, ttp_);
  const auto enrollment = gm.enroll("carol", ttp_);
  // The blinded blob the GM relays is indistinguishable from random without
  // x... here we check at least that it is not the raw credential: if GM
  // tried to parse it as a point it would not be the member's A.
  User user("carol", no_.params(), crypto::Drbg::from_string("carol"));
  user.complete_enrollment(enrollment);
  const G1& real_a = user.credential(gm.id()).a;
  EXPECT_NE(enrollment.blinded_credential, curve::g1_to_bytes(real_a));
}

TEST_F(SetupTest, TtpKnowsUidButNotKey) {
  GroupManager gm = no_.register_group("G", 2, ttp_);
  const auto enrollment = gm.enroll("dave", ttp_);
  // TTP learned which uid the index went to (it delivered the blob)...
  const Bytes image = ttp_.state_bytes();
  const Bytes uid = to_bytes("dave");
  EXPECT_NE(std::search(image.begin(), image.end(), uid.begin(), uid.end()),
            image.end());
  // ...but its entire store is blinded blobs.
  for (const auto& [idx, blob] : ttp_.blinded_store()) {
    EXPECT_EQ(blob.size(), curve::kG1CompressedSize);
  }
}

TEST_F(SetupTest, TtpRejectsUnsignedDeposit) {
  crypto::Drbg rng = crypto::Drbg::from_string("ttp-unsigned");
  TrustedThirdParty ttp;
  const curve::EcdsaKeyPair mallory = curve::EcdsaKeyPair::generate(rng);
  Bytes blob(curve::kG1CompressedSize, 7);
  const auto bad_sig = mallory.sign(as_bytes("junk"), rng);
  EXPECT_THROW(
      ttp.deposit(KeyIndex{1, 0}, blob, bad_sig, no_.npk(), rng), Error);
}

TEST_F(SetupTest, TtpDeliverUnknownIndexThrows) {
  EXPECT_THROW(ttp_.deliver(KeyIndex{99, 0}, "eve"), Error);
}

TEST_F(SetupTest, RouterProvisioning) {
  const auto p = no_.provision_router(7, /*expires_at=*/1000000);
  EXPECT_EQ(p.certificate.router_id, 7u);
  EXPECT_EQ(p.certificate.public_key, p.keypair.public_key());
  EXPECT_TRUE(curve::ecdsa_verify(no_.npk(), p.certificate.signed_payload(),
                                  p.certificate.signature));
  // Round-trips on the wire.
  const auto again = RouterCertificate::from_bytes(p.certificate.to_bytes());
  EXPECT_EQ(again.router_id, p.certificate.router_id);
  EXPECT_EQ(again.public_key, p.certificate.public_key);
}

TEST_F(SetupTest, RevocationListsSignedAndVersioned) {
  GroupManager gm = no_.register_group("G", 2, ttp_);
  EXPECT_EQ(no_.current_url().version, 0u);
  no_.revoke_user_key(KeyIndex{gm.id(), 0}, 111);
  const auto url = no_.current_url();
  EXPECT_EQ(url.version, 1u);
  EXPECT_EQ(url.entries.size(), 1u);
  EXPECT_TRUE(curve::ecdsa_verify(no_.npk(), url.signed_payload(),
                                  url.signature));
  no_.revoke_router(3, 222);
  EXPECT_EQ(no_.current_crl().version, 1u);
  EXPECT_THROW(no_.revoke_user_key(KeyIndex{99, 99}, 1), Error);
}

TEST_F(SetupTest, EnrollmentReceiptChain) {
  // Paper IV.A non-repudiation: the user signs for what they received; the
  // GM verifies and archives; a later trace can present the evidence.
  GroupManager gm = no_.register_group("G", 2, ttp_);
  User user("ursula", no_.params(), crypto::Drbg::from_string("ursula"));
  const auto enrollment = gm.enroll("ursula", ttp_);
  const auto receipt = user.complete_enrollment(enrollment);
  gm.record_receipt(enrollment, user.receipt_public_key(), receipt);

  const auto on_file = gm.receipt_for(enrollment.index);
  ASSERT_TRUE(on_file.has_value());
  EXPECT_EQ(on_file->user_public_key, user.receipt_public_key());
  // Independently re-verifiable evidence.
  EXPECT_TRUE(curve::ecdsa_verify(
      on_file->user_public_key,
      GroupManager::enrollment_receipt_payload(enrollment),
      on_file->signature));
  // No receipt for unassigned indices.
  EXPECT_FALSE(gm.receipt_for(KeyIndex{gm.id(), 99}).has_value());
}

TEST_F(SetupTest, ForgedReceiptRejected) {
  GroupManager gm = no_.register_group("G", 2, ttp_);
  User user("victor", no_.params(), crypto::Drbg::from_string("victor"));
  const auto enrollment = gm.enroll("victor", ttp_);
  auto receipt = user.complete_enrollment(enrollment);
  receipt.s = receipt.s + curve::Fr::one();
  EXPECT_THROW(
      gm.record_receipt(enrollment, user.receipt_public_key(), receipt),
      Error);
  // A receipt signed by someone else's key also fails.
  User mallory("mallory", no_.params(), crypto::Drbg::from_string("mal"));
  const auto good = user.complete_enrollment(enrollment);
  EXPECT_THROW(
      gm.record_receipt(enrollment, mallory.receipt_public_key(), good),
      Error);
}

TEST_F(SetupTest, CorruptedEnrollmentDetected) {
  GroupManager gm = no_.register_group("G", 2, ttp_);
  auto enrollment = gm.enroll("mallory-victim", ttp_);
  enrollment.blinded_credential[5] ^= 0x01;
  User user("mallory-victim", no_.params(), crypto::Drbg::from_string("v"));
  EXPECT_THROW(user.complete_enrollment(enrollment), Error);
}

}  // namespace
}  // namespace peace::proto
