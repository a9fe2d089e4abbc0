// Privacy-enhanced accountability (paper IV.D): NO audits a logged session
// to user-group granularity; the law authority deanonymizes only with both
// NO and the right GM; innocent users cannot be framed.
#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::proto {
namespace {

class AuditTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  AuditTest() : no_(crypto::Drbg::from_string("audit-no")) {
    gm_company_ = std::make_unique<GroupManager>(
        no_.register_group("Company XYZ", 4, ttp_));
    gm_university_ = std::make_unique<GroupManager>(
        no_.register_group("University Z", 4, ttp_));

    auto provision = no_.provision_router(1, kFarFuture);
    router_ = std::make_unique<MeshRouter>(
        1, provision.keypair, provision.certificate, no_.params(),
        crypto::Drbg::from_string("audit-router"));
    router_->install_revocation_lists(no_.current_crl(), no_.current_url());
  }

  User enroll(const std::string& uid, GroupManager& gm) {
    User user(uid, no_.params(), crypto::Drbg::from_string("audit-" + uid));
    const auto enrollment = gm.enroll(uid, ttp_);
    const auto receipt = user.complete_enrollment(enrollment);
    gm.record_receipt(enrollment, user.receipt_public_key(), receipt);
    return user;
  }

  /// Produces a logged (M.2) for the given user — what NO's audit consumes.
  AccessRequest logged_m2(User& user, Timestamp now, GroupId via = 0) {
    const BeaconMessage beacon = router_->make_beacon(now);
    auto m2 = user.process_beacon(beacon, now, via);
    EXPECT_TRUE(m2.has_value());
    EXPECT_TRUE(router_->handle_access_request(*m2, now + 1).has_value());
    return *m2;
  }

  static constexpr Timestamp kFarFuture = 1000ull * 86400 * 365;

  NetworkOperator no_;
  TrustedThirdParty ttp_;
  std::unique_ptr<GroupManager> gm_company_;
  std::unique_ptr<GroupManager> gm_university_;
  std::unique_ptr<MeshRouter> router_;
};

TEST_F(AuditTest, AuditFindsResponsibleGroupOnly) {
  User alice = enroll("alice@company", *gm_company_);
  const AccessRequest m2 = logged_m2(alice, 1000);

  const auto result = no_.audit(m2);
  ASSERT_TRUE(result.has_value());
  // The audit names the group...
  EXPECT_EQ(result->group_id, gm_company_->id());
  // ...and the credential index, but nothing in the result is a uid: the
  // AuditResult type has no user-identity field at all, and NO's state has
  // no uid anywhere (late binding).
  EXPECT_EQ(result->index.group, gm_company_->id());
}

TEST_F(AuditTest, AuditDistinguishesGroups) {
  User alice = enroll("alice@company", *gm_company_);
  User bob = enroll("bob@university", *gm_university_);
  const auto r1 = no_.audit(logged_m2(alice, 1000));
  const auto r2 = no_.audit(logged_m2(bob, 2000));
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->group_id, gm_company_->id());
  EXPECT_EQ(r2->group_id, gm_university_->id());
}

TEST_F(AuditTest, AuditPinsSameMemberAcrossSessions) {
  // Two sessions by the same user audit to the same token even though the
  // sessions themselves are unlinkable to outsiders.
  User alice = enroll("alice@company", *gm_company_);
  const auto r1 = no_.audit(logged_m2(alice, 1000));
  const auto r2 = no_.audit(logged_m2(alice, 2000));
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->token.a, r2->token.a);
  EXPECT_TRUE(r1->index == r2->index);
}

TEST_F(AuditTest, MultiRoleUserAuditsToChosenRole) {
  // The sophisticated-privacy property: a user acting "as an employee"
  // is pinned to the company, acting "as a student" to the university —
  // the audit reveals only the role context, not the whole identity.
  User carol("carol", no_.params(), crypto::Drbg::from_string("carol-roles"));
  carol.complete_enrollment(gm_company_->enroll("carol", ttp_));
  carol.complete_enrollment(gm_university_->enroll("carol", ttp_));

  const auto as_employee =
      no_.audit(logged_m2(carol, 1000, gm_company_->id()));
  const auto as_student =
      no_.audit(logged_m2(carol, 2000, gm_university_->id()));
  ASSERT_TRUE(as_employee.has_value());
  ASSERT_TRUE(as_student.has_value());
  EXPECT_EQ(as_employee->group_id, gm_company_->id());
  EXPECT_EQ(as_student->group_id, gm_university_->id());
  EXPECT_NE(as_employee->token.a, as_student->token.a);
}

TEST_F(AuditTest, LawAuthorityTraceNeedsBoth) {
  User alice = enroll("alice@company", *gm_company_);
  const AccessRequest m2 = logged_m2(alice, 1000);

  // With NO + the right GM: full trace.
  const auto traced = LawAuthority::trace(
      no_, {gm_company_.get(), gm_university_.get()}, m2);
  ASSERT_TRUE(traced.has_value());
  EXPECT_EQ(traced->uid, "alice@company");
  EXPECT_EQ(traced->group_id, gm_company_->id());
  // Non-repudiation: alice's signed enrollment receipt backs the trace.
  EXPECT_TRUE(traced->receipt_on_file);

  // With only the wrong GM cooperating: no uid.
  EXPECT_FALSE(
      LawAuthority::trace(no_, {gm_university_.get()}, m2).has_value());
  // With no GM at all: no uid.
  EXPECT_FALSE(LawAuthority::trace(no_, {}, m2).has_value());
}

TEST_F(AuditTest, GmAloneCannotIdentifySigner) {
  // The GM holds (uid, grp, x) but no A, so it cannot run Eq.3 — there is
  // structurally nothing in GroupManager to test a signature against. What
  // we can check: the information it does hold does not determine the
  // signature's token without gamma.
  User alice = enroll("alice@company", *gm_company_);
  const AccessRequest m2 = logged_m2(alice, 1000);
  const auto uid = gm_company_->uid_for_index(KeyIndex{gm_company_->id(), 3});
  // GM can map indices to uids (its own records)...
  EXPECT_TRUE(uid.has_value());
  // ...but cannot produce the audit linkage: only NO's audit can.
  const auto audit = no_.audit(m2);
  ASSERT_TRUE(audit.has_value());
  EXPECT_EQ(audit->index.group, gm_company_->id());
}

TEST_F(AuditTest, UnknownSignerAuditsToNothing) {
  // A signature under a different network operator's gpk scans clean.
  NetworkOperator other(crypto::Drbg::from_string("other-no"));
  TrustedThirdParty other_ttp;
  GroupManager other_gm = other.register_group("other", 2, other_ttp);
  auto provision = other.provision_router(9, kFarFuture);
  MeshRouter other_router(9, provision.keypair, provision.certificate,
                          other.params(),
                          crypto::Drbg::from_string("other-router"));
  other_router.install_revocation_lists(other.current_crl(),
                                        other.current_url());
  User eve("eve", other.params(), crypto::Drbg::from_string("eve"));
  eve.complete_enrollment(other_gm.enroll("eve", other_ttp));
  const BeaconMessage beacon = other_router.make_beacon(1000);
  auto m2 = eve.process_beacon(beacon, 1000);
  ASSERT_TRUE(m2.has_value());
  EXPECT_FALSE(no_.audit(*m2).has_value());
}

TEST_F(AuditTest, NonFrameability) {
  // The audit pins exactly the signer's token: every other issued key's
  // token fails Eq.3, so no innocent member can be framed.
  User alice = enroll("alice@company", *gm_company_);
  User bob = enroll("bob@company", *gm_company_);
  const AccessRequest by_alice = logged_m2(alice, 1000);
  const AccessRequest by_bob = logged_m2(bob, 2000);
  const auto r_alice = no_.audit(by_alice);
  const auto r_bob = no_.audit(by_bob);
  ASSERT_TRUE(r_alice.has_value());
  ASSERT_TRUE(r_bob.has_value());
  EXPECT_NE(r_alice->token.a, r_bob->token.a);
  EXPECT_FALSE(r_alice->index == r_bob->index);
  const auto t_alice = LawAuthority::trace(no_, {gm_company_.get()}, by_alice);
  const auto t_bob = LawAuthority::trace(no_, {gm_company_.get()}, by_bob);
  ASSERT_TRUE(t_alice.has_value());
  ASSERT_TRUE(t_bob.has_value());
  EXPECT_EQ(t_alice->uid, "alice@company");
  EXPECT_EQ(t_bob->uid, "bob@company");
}

TEST_F(AuditTest, AuditScansGrtLinearly) {
  // Instrumentation for E7: tokens_scanned reports the scan length.
  User alice = enroll("alice@company", *gm_company_);
  const auto result = no_.audit(logged_m2(alice, 1000));
  ASSERT_TRUE(result.has_value());
  EXPECT_GE(result->tokens_scanned, 1u);
  EXPECT_LE(result->tokens_scanned, no_.grt_size());
}

TEST_F(AuditTest, AuditDerivesBasesOncePerEra) {
  // The signature bases depend on (gpk, message), never on the token, so
  // the audit derives PreparedBases once per scanned era — not once per
  // grt entry as the seed implementation did.
  User alice = enroll("alice@company", *gm_company_);
  const AccessRequest m2 = logged_m2(alice, 1000);

  // Rotate: alice's session now lives in an archived era. Repopulate the
  // current era so the audit walks TWO non-empty grts before hitting.
  no_.rotate_master_key(2000);
  no_.reissue_group(*gm_company_, 4, ttp_);
  ASSERT_EQ(no_.era_count(), 2u);

  const std::uint64_t before = obs::op_count(obs::Op::kG2Prepared);
  const auto result = no_.audit(m2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->group_id, gm_company_->id());
  // One G2Prepared (the era's v_hat) per scanned era, independent of how
  // many tokens each era holds.
  EXPECT_EQ(obs::op_count(obs::Op::kG2Prepared) - before, 2u);
  // The current (post-rotation) era was scanned in full and missed before
  // the archived era produced the hit.
  EXPECT_GT(result->tokens_scanned, no_.grt_size());
}

}  // namespace
}  // namespace peace::proto
