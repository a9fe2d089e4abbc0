// Randomized batch verification (docs/CRYPTO.md §4): the batched
// accept/reject vector must be bit-identical to sequential verify_proof on
// every batch — empty, singleton, all-good, all-bad, mixed, duplicated, and
// adversarial batches crafted so the forgeries would cancel in an
// UNrandomized combined check. Also the protocol-level contract: a router
// fed a batch behaves exactly like its twin fed the same requests one at a
// time.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <tuple>
#include <vector>

#include "groupsig/groupsig.hpp"
#include "obs/trace.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::groupsig {
namespace {

class BatchVerifyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  BatchVerifyTest()
      : rng_(crypto::Drbg::from_string("batch-verify-test")),
        issuer_(Issuer::create(rng_)),
        grp_(issuer_.new_group_secret(rng_)),
        alice_(issuer_.issue(grp_, rng_)),
        bob_(issuer_.issue(grp_, rng_)),
        pgpk_(issuer_.gpk()),
        salt_(rng_.bytes(32)) {}

  /// n signatures over distinct messages, alternating signers.
  void make_batch(std::size_t n) {
    messages_.clear();
    sigs_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      messages_.push_back(to_bytes("batch-msg-" + std::to_string(i)));
      sigs_.push_back(sign(issuer_.gpk(), i % 2 ? bob_ : alice_,
                           messages_.back(), rng_));
    }
  }

  std::vector<BatchItem> items() const {
    std::vector<BatchItem> out(sigs_.size());
    for (std::size_t i = 0; i < sigs_.size(); ++i)
      out[i] = {messages_[i], &sigs_[i]};
    return out;
  }

  /// The ground truth the batch must reproduce exactly.
  std::vector<char> sequential() const {
    std::vector<char> out(sigs_.size());
    for (std::size_t i = 0; i < sigs_.size(); ++i)
      out[i] = verify_proof(pgpk_, messages_[i], sigs_[i]) ? 1 : 0;
    return out;
  }

  void expect_batch_matches_sequential() {
    const std::vector<char> expect = sequential();
    const std::vector<char> got = batch_verify_proof(pgpk_, items(), salt_);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
      EXPECT_EQ(static_cast<bool>(got[i]), static_cast<bool>(expect[i])) << i;
  }

  crypto::Drbg rng_;
  Issuer issuer_;
  Fr grp_;
  MemberKey alice_, bob_;
  PreparedGroupPublicKey pgpk_;
  Bytes salt_;
  std::vector<Bytes> messages_;
  std::vector<Signature> sigs_;
};

TEST_F(BatchVerifyTest, EmptyBatch) {
  EXPECT_TRUE(batch_verify_proof(pgpk_, {}, salt_).empty());
}

TEST_F(BatchVerifyTest, SingletonGoodAndBad) {
  // N=1 runs the exact sequential leaf — no randomization involved.
  make_batch(1);
  expect_batch_matches_sequential();
  EXPECT_EQ(batch_verify_proof(pgpk_, items(), salt_)[0], 1);
  sigs_[0].s_x = sigs_[0].s_x + Fr::one();
  expect_batch_matches_sequential();
  EXPECT_EQ(batch_verify_proof(pgpk_, items(), salt_)[0], 0);
}

TEST_F(BatchVerifyTest, AllGoodSingleFinalExponentiation) {
  make_batch(8);
  OpCounters ops;
  const std::vector<char> got = batch_verify_proof(pgpk_, items(), salt_, &ops);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], 1) << i;
  expect_batch_matches_sequential();
  // The whole all-good batch runs ONE fused Miller accumulation (counted as
  // its 2 constituent pairings) and one final exponentiation — versus
  // 2 pairings per signature sequentially.
  EXPECT_EQ(ops.pairings, 2u);
}

TEST_F(BatchVerifyTest, AllBadAttributedIndividually) {
  make_batch(6);
  for (Signature& s : sigs_) s.s_alpha = s.s_alpha + Fr::one();
  const std::vector<char> got = batch_verify_proof(pgpk_, items(), salt_);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], 0) << i;
  expect_batch_matches_sequential();
}

TEST_F(BatchVerifyTest, OneBadFoundByBisection) {
  for (const std::size_t bad : {0u, 3u, 7u}) {
    make_batch(8);
    sigs_[bad].s_delta = sigs_[bad].s_delta + Fr::one();
    const std::vector<char> got = batch_verify_proof(pgpk_, items(), salt_);
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(static_cast<bool>(got[i]), i != bad) << i;
    expect_batch_matches_sequential();
  }
}

TEST_F(BatchVerifyTest, ManyBadMixed) {
  make_batch(16);
  for (const std::size_t bad : {1u, 6u, 7u, 12u})
    sigs_[bad].s_x = sigs_[bad].s_x + Fr::one();
  expect_batch_matches_sequential();
}

TEST_F(BatchVerifyTest, DuplicatesInOneBatch) {
  // The same (message, signature) pair several times in one batch — the
  // radio duplicates frames, so verifiers genuinely see this.
  make_batch(3);
  messages_.push_back(messages_[1]);
  sigs_.push_back(sigs_[1]);
  messages_.push_back(messages_[1]);
  sigs_.push_back(sigs_[1]);
  expect_batch_matches_sequential();
  // And duplicated BAD signatures: every copy rejected.
  sigs_[1].nonce = sigs_[1].nonce + Fr::one();
  sigs_[3] = sigs_[1];
  sigs_[4] = sigs_[1];
  const std::vector<char> got = batch_verify_proof(pgpk_, items(), salt_);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 0);
  EXPECT_EQ(got[2], 1);
  EXPECT_EQ(got[3], 0);
  EXPECT_EQ(got[4], 0);
  expect_batch_matches_sequential();
}

TEST_F(BatchVerifyTest, FormatRejectsNeverEnterTheFold) {
  // An R2 outside the cyclotomic subgroup (or an infinity T1) is rejected
  // on format, exactly like sequential verify_proof, and must not poison
  // the combined checks for its neighbours.
  make_batch(4);
  sigs_[2].t1 = G1::infinity();
  const std::vector<char> got = batch_verify_proof(pgpk_, items(), salt_);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(got[2], 0);
  EXPECT_EQ(got[3], 1);
  expect_batch_matches_sequential();
}

TEST_F(BatchVerifyTest, CraftedCancellationPairRejected) {
  // THE attack randomization exists for. Two copies of one valid signature,
  // responses tampered by +eps and -eps: each copy is individually invalid,
  // but because the bases, challenge, and commitments are shared, their
  // residuals in every UNrandomized combined check sum to exactly zero —
  // an unweighted batcher would accept both. s_alpha tampering exercises
  // all three folds at once (Eq.1's G1 sum, Eq.4's G2 sum, Eq.2's GT
  // product); s_delta tampering exercises the G1 and GT folds.
  const Fr eps = Fr::from_u64(12345);
  for (const bool tamper_alpha : {true, false}) {
    make_batch(4);  // two honest bystanders around the crafted pair
    messages_.insert(messages_.begin() + 1, messages_[0]);
    sigs_.insert(sigs_.begin() + 1, sigs_[0]);
    if (tamper_alpha) {
      sigs_[0].s_alpha = sigs_[0].s_alpha + eps;
      sigs_[1].s_alpha = sigs_[1].s_alpha - eps;
    } else {
      sigs_[0].s_delta = sigs_[0].s_delta + eps;
      sigs_[1].s_delta = sigs_[1].s_delta - eps;
    }
    // Both crafted copies individually invalid, bystanders fine.
    EXPECT_FALSE(verify_proof(pgpk_, messages_[0], sigs_[0]));
    EXPECT_FALSE(verify_proof(pgpk_, messages_[1], sigs_[1]));
    const std::vector<char> got = batch_verify_proof(pgpk_, items(), salt_);
    EXPECT_EQ(got[0], 0) << tamper_alpha;
    EXPECT_EQ(got[1], 0) << tamper_alpha;
    EXPECT_EQ(got[2], 1);
    EXPECT_EQ(got[3], 1);
    EXPECT_EQ(got[4], 1);
    expect_batch_matches_sequential();
  }
}

TEST_F(BatchVerifyTest, CraftedCancellationManySalts) {
  // The crafted pair must die under EVERY salt (the defeat is structural —
  // per-item randomizers — not a lucky weight draw).
  make_batch(2);
  messages_[1] = messages_[0];
  sigs_[1] = sigs_[0];
  const Fr eps = Fr::from_u64(99991);
  sigs_[0].s_alpha = sigs_[0].s_alpha + eps;
  sigs_[1].s_alpha = sigs_[1].s_alpha - eps;
  for (int i = 0; i < 8; ++i) {
    const Bytes salt = rng_.bytes(32);
    const std::vector<char> got = batch_verify_proof(pgpk_, items(), salt);
    EXPECT_EQ(got[0], 0) << i;
    EXPECT_EQ(got[1], 0) << i;
  }
}

TEST_F(BatchVerifyTest, DeterministicUnderFixedSalt) {
  make_batch(5);
  sigs_[2].s_x = sigs_[2].s_x + Fr::one();
  OpCounters ops1, ops2;
  const auto a = batch_verify_proof(pgpk_, items(), salt_, &ops1);
  const auto b = batch_verify_proof(pgpk_, items(), salt_, &ops2);
  EXPECT_EQ(a, b);
  // Same salt + same batch => same randomizers => same bisection path and
  // thus identical operation counts.
  EXPECT_EQ(ops1.pairings, ops2.pairings);
  EXPECT_EQ(ops1.total_exp(), ops2.total_exp());
}

TEST_F(BatchVerifyTest, PreparePhaseIsSplittable) {
  // prepare() on a subset of indices, finalize() picking up the rest — the
  // router's pooled pipeline does exactly this.
  make_batch(6);
  sigs_[4].s_alpha = sigs_[4].s_alpha + Fr::one();
  const std::vector<BatchItem> batch = items();
  BatchVerifier verifier(pgpk_, batch, salt_);
  verifier.prepare(1);
  verifier.prepare(3);
  const std::vector<char>& got = verifier.finalize();
  expect_batch_matches_sequential();
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(static_cast<bool>(got[i]), i != 4) << i;
}

/// Every curve.* op counter, for before/after deltas.
std::array<std::uint64_t, obs::kOpCount> curve_ops() {
  std::array<std::uint64_t, obs::kOpCount> out{};
  for (std::size_t k = 0; k < obs::kOpCount; ++k)
    out[k] = obs::op_count(obs::kOps[k].op);
  return out;
}

TEST_F(BatchVerifyTest, ReversedFoldJobsMatchInline) {
  // A fold's job list is fixed by its items: running each stage's jobs in
  // reverse order must give the verdicts, OpCounters and curve.* deltas
  // of the inline run. Sixteen signatures over two interleaved epochs
  // with one forgery: the top fold splits its G2 sum and its R2 powers,
  // then fails and bisects.
  messages_.clear();
  sigs_.clear();
  for (std::size_t i = 0; i < 16; ++i) {
    messages_.push_back(to_bytes("fold-msg-" + std::to_string(i)));
    sigs_.push_back(sign(issuer_.gpk(), i % 3 ? bob_ : alice_,
                         messages_.back(), rng_, 5 + i % 2));
  }
  sigs_[9].s_delta = sigs_[9].s_delta + Fr::one();
  const std::vector<BatchItem> batch = items();

  const auto run = [&](const BatchVerifier::JobRunner& runner) {
    BatchVerifier verifier(pgpk_, batch, salt_);
    OpCounters ops;
    const auto before = curve_ops();
    const std::vector<char> got = verifier.finalize(&ops, runner);
    auto delta = curve_ops();
    for (std::size_t k = 0; k < delta.size(); ++k) delta[k] -= before[k];
    return std::tuple{got, ops, delta};
  };
  std::vector<std::size_t> job_counts;
  const auto reversed = run(
      [&](std::size_t count, const std::function<void(std::size_t)>& body) {
        job_counts.push_back(count);
        for (std::size_t j = count; j-- > 0;) body(j);
      });
  const auto inline_run = run({});
  EXPECT_EQ(reversed, inline_run);
  // Top fold: G1 sum + 3 G2 parts (2 merged v_hat + 32 terms), then it
  // fails on the forgery, so no Eq.2 jobs run for it.
  ASSERT_FALSE(job_counts.empty());
  EXPECT_EQ(job_counts.front(), 4u);
  const std::vector<char>& got = std::get<0>(inline_run);
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(static_cast<bool>(got[i]), i != 9) << i;
  expect_batch_matches_sequential();
}

TEST_F(BatchVerifyTest, TwoEpochsPassInOneFold) {
  // Items of one epoch share u and v_hat, whose fold terms merge; items of
  // the other epoch share different ones. A merge across unequal points
  // would fail the fold, and the bisection's leaves would still return
  // the right verdicts — so the count is the check: one fold, 2 pairings,
  // no leaf's 2 G2 exponentiations on top of the fold's 3 per item.
  messages_.clear();
  sigs_.clear();
  const curve::SignatureBases epoch3 = epoch_bases(issuer_.gpk(), 3);
  std::vector<const curve::SignatureBases*> given;
  for (std::size_t i = 0; i < 12; ++i) {
    const Epoch epoch = i % 2 ? 4 : 3;
    messages_.push_back(to_bytes("epoch-msg-" + std::to_string(i)));
    sigs_.push_back(sign(issuer_.gpk(), i % 3 ? alice_ : bob_,
                         messages_.back(), rng_, epoch));
    // Epoch 3 passes its bases in, epoch 4 has prepare() derive them.
    given.push_back(epoch == 3 ? &epoch3 : nullptr);
  }
  std::vector<BatchItem> batch = items();
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].bases = given[i];
  OpCounters ops;
  const std::vector<char> got = batch_verify_proof(pgpk_, batch, salt_, &ops);
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(got[i], 1) << i;
  EXPECT_EQ(ops.pairings, 2u);
  EXPECT_EQ(ops.g2_exp, 3 * batch.size());
  EXPECT_EQ(ops.gt_exp, batch.size());
}

// --- protocol level -------------------------------------------------------

constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;

class BatchProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  BatchProtocolTest() : no_(crypto::Drbg::from_string("bp-no")) {
    gm_ = std::make_unique<proto::GroupManager>(
        no_.register_group("G", 16, ttp_));
    provision_ = std::make_unique<proto::NetworkOperator::RouterProvision>(
        no_.provision_router(1, kFarFuture));
  }

  std::unique_ptr<proto::MeshRouter> make_router(proto::ProtocolConfig cfg) {
    // One shared provisioned identity and one shared rng seed: the router
    // clones differ ONLY in cfg, so their wire behaviour is comparable
    // byte for byte.
    auto router = std::make_unique<proto::MeshRouter>(
        1, provision_->keypair, provision_->certificate, no_.params(),
        crypto::Drbg::from_string("bp-router"), cfg);
    router->install_revocation_lists(no_.current_crl(), no_.current_url());
    return router;
  }

  using Outcomes = std::vector<std::optional<proto::MeshRouter::AccessOutcome>>;

  /// Each outcome's M.3 wire bytes; nullopt for a rejected request.
  static std::vector<std::optional<Bytes>> wires(const Outcomes& outcomes) {
    std::vector<std::optional<Bytes>> out;
    for (const auto& o : outcomes)
      out.push_back(o ? std::optional(o->confirm.to_bytes()) : std::nullopt);
    return out;
  }

  /// The reference a batch is held to (router.hpp): the same requests
  /// handed to `router` one at a time.
  static Outcomes one_at_a_time(proto::MeshRouter& router,
                                std::span<const proto::AccessRequest> batch,
                                proto::Timestamp now) {
    Outcomes out;
    for (const proto::AccessRequest& m2 : batch)
      out.push_back(router.handle_access_request(m2, now));
    return out;
  }

  std::unique_ptr<proto::User> make_user(const std::string& uid) {
    auto user = std::make_unique<proto::User>(
        uid, no_.params(), crypto::Drbg::from_string(uid));
    if (enrollments_.find(uid) == enrollments_.end())
      enrollments_.emplace(uid, gm_->enroll(uid, ttp_));
    user->complete_enrollment(enrollments_.at(uid));
    return user;
  }

  proto::NetworkOperator no_;
  proto::TrustedThirdParty ttp_;
  std::unique_ptr<proto::GroupManager> gm_;
  std::unique_ptr<proto::NetworkOperator::RouterProvision> provision_;
  std::map<std::string, proto::GroupManager::Enrollment> enrollments_;
};

TEST_F(BatchProtocolTest, RouterBatchMatchesStrictModeWithRevokedSigner) {
  // A revoked signer hiding inside an otherwise-good batch: the batched
  // proof accepts its (valid) signature, and the per-signature URL scan
  // must still catch it — outcome identical to one-at-a-time processing.
  auto alice = make_user("alice");
  auto bob = make_user("bob");
  auto mallory = make_user("mallory");
  no_.revoke_user_key(enrollments_.at("mallory").index, 900);

  auto batched = make_router({});
  auto single = make_router({});  // twin fed one request at a time

  const proto::BeaconMessage beacon = batched->make_beacon(1000);
  ASSERT_EQ(beacon.to_bytes(), single->make_beacon(1000).to_bytes());

  std::vector<proto::AccessRequest> batch;
  for (proto::User* u : {alice.get(), mallory.get(), bob.get()}) {
    auto m2 = u->process_beacon(beacon, 1001);
    ASSERT_TRUE(m2.has_value()) << u->uid();
    batch.push_back(*m2);
  }
  // A tampered request (its own session id, so it truly enters the batch)
  // rides along: rejected by the proof on both routers.
  auto trent = make_user("trent");
  auto forged = trent->process_beacon(beacon, 1001);
  ASSERT_TRUE(forged.has_value());
  forged->signature.s_x = forged->signature.s_x + Fr::one();
  batch.push_back(*forged);

  const auto got = batched->handle_access_requests(batch, 1002);
  EXPECT_EQ(wires(got), wires(one_at_a_time(*single, batch, 1002)));
  ASSERT_TRUE(got[0].has_value());
  EXPECT_FALSE(got[1].has_value());  // mallory: valid proof, revoked token
  ASSERT_TRUE(got[2].has_value());
  EXPECT_FALSE(got[3].has_value());  // tampered payload
  EXPECT_EQ(batched->stats().rejected_revoked, 1u);
  EXPECT_EQ(batched->stats().rejected_bad_signature, 1u);
  EXPECT_EQ(single->stats().rejected_revoked, 1u);
  EXPECT_EQ(batched->stats().verify_batches, 1u);
  EXPECT_EQ(batched->stats().batched_requests, batch.size());
  EXPECT_EQ(single->stats().verify_batches, 0u);
}

TEST_F(BatchProtocolTest, PooledBatchedRouterMatchesStrictUnderDuplicates) {
  // Pool + batch verification + fault-injected duplicate frames: the
  // combined pipeline must still be bit-identical to the one-at-a-time
  // twin (duplicates of one M.2 are deferred to the in-order apply pass,
  // where only the first copy establishes the session and the copies get
  // its M.3 back).
  auto alice = make_user("alice");
  auto bob = make_user("bob");

  proto::ProtocolConfig pooled_cfg;
  pooled_cfg.verify_threads = 4;
  auto pooled = make_router(pooled_cfg);
  auto single = make_router({});

  const proto::BeaconMessage beacon = pooled->make_beacon(1000);
  ASSERT_EQ(beacon.to_bytes(), single->make_beacon(1000).to_bytes());

  std::vector<proto::AccessRequest> batch;
  auto a2 = alice->process_beacon(beacon, 1001);
  auto b2 = bob->process_beacon(beacon, 1001);
  ASSERT_TRUE(a2.has_value());
  ASSERT_TRUE(b2.has_value());
  // The radio duplicated alice's frame twice, interleaved with bob's; an
  // attacker adds a variant of bob's under the same session id.
  proto::AccessRequest b2_variant = *b2;
  b2_variant.ts2 += 1;
  batch.push_back(*a2);
  batch.push_back(*b2);
  batch.push_back(*a2);
  batch.push_back(*a2);
  batch.push_back(b2_variant);

  const auto got = pooled->handle_access_requests(batch, 1002);
  EXPECT_EQ(wires(got), wires(one_at_a_time(*single, batch, 1002)));
  ASSERT_TRUE(got[0].has_value());
  ASSERT_TRUE(got[1].has_value());
  ASSERT_TRUE(got[2].has_value());  // duplicates: alice's first M.3 again
  ASSERT_TRUE(got[3].has_value());
  EXPECT_EQ(got[2]->confirm.to_bytes(), got[0]->confirm.to_bytes());
  EXPECT_EQ(got[3]->confirm.to_bytes(), got[0]->confirm.to_bytes());
  EXPECT_FALSE(got[4].has_value());  // the variant is a replay
  EXPECT_EQ(pooled->session_count(), 2u);
  EXPECT_EQ(pooled->session_count(), single->session_count());
  EXPECT_EQ(pooled->stats().confirms_resent, 2u);
  EXPECT_EQ(pooled->stats().confirms_resent, single->stats().confirms_resent);
  EXPECT_EQ(pooled->stats().rejected_replay, 1u);
  EXPECT_EQ(pooled->stats().rejected_replay, single->stats().rejected_replay);
}

TEST_F(BatchProtocolTest, TamperedCopyAheadOfGenuineDefersGenuineVerify) {
  // A tampered copy sharing a genuine M.2's session id arrives first, in a
  // batch with two other honest M.2s: the tampered copy enters the folded
  // batch check and is pinpointed by bisection, while the genuine request
  // — same sid — is deferred to the apply pass and verified there on its
  // own. Pooled, unpooled and one-at-a-time routers must agree.
  proto::ProtocolConfig pooled_cfg;
  pooled_cfg.verify_threads = 4;
  auto pooled = make_router(pooled_cfg);
  auto unpooled = make_router({});
  auto single = make_router({});

  const proto::BeaconMessage beacon = pooled->make_beacon(1000);
  for (proto::MeshRouter* r : {unpooled.get(), single.get()})
    ASSERT_EQ(beacon.to_bytes(), r->make_beacon(1000).to_bytes());

  std::vector<proto::AccessRequest> batch(1);  // [0]: the tampered copy
  for (const char* uid : {"alice", "bob", "carol"}) {
    auto m2 = make_user(uid)->process_beacon(beacon, 1001);
    ASSERT_TRUE(m2.has_value()) << uid;
    batch.push_back(*m2);
  }
  batch[0] = batch[1];  // alice's M.2: same g_rj, g_rr => same sid
  batch[0].signature.s_x = batch[0].signature.s_x + Fr::one();

  const auto got = pooled->handle_access_requests(batch, 1002);
  EXPECT_EQ(wires(got), wires(unpooled->handle_access_requests(batch, 1002)));
  EXPECT_EQ(wires(got), wires(one_at_a_time(*single, batch, 1002)));
  EXPECT_FALSE(got[0].has_value());  // tampered copy
  ASSERT_TRUE(got[1].has_value());   // genuine, verified in the apply pass
  ASSERT_TRUE(got[2].has_value());
  ASSERT_TRUE(got[3].has_value());
  for (const proto::MeshRouter* r :
       {pooled.get(), unpooled.get(), single.get()}) {
    EXPECT_EQ(r->stats().accepted, 3u);
    EXPECT_EQ(r->stats().rejected_bad_signature, 1u);
    EXPECT_EQ(r->stats().signature_verifications, 4u);
    EXPECT_EQ(r->session_count(), 3u);
  }
  // The tampered copy, bob and carol fold into one batch; the deferred
  // genuine request is a batch of one.
  EXPECT_EQ(pooled->stats().verify_batches, 1u);
  EXPECT_EQ(pooled->stats().batched_requests, 3u);
  EXPECT_EQ(unpooled->stats().verify_batches, 1u);
  EXPECT_EQ(single->stats().verify_batches, 0u);
}

}  // namespace
}  // namespace peace::groupsig
