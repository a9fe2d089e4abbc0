// The PEACE group-signature variation: correctness, soundness against
// tampering, revocation (Eq.3), exculpability structure, the epoch-based
// O(1) revocation check, and the operation counts of Sec. V.C.
#include "groupsig/groupsig.hpp"

#include <gtest/gtest.h>

#include "curve/ecdsa.hpp"
#include "obs/trace.hpp"

namespace peace::groupsig {
namespace {

class GroupSigTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  GroupSigTest()
      : rng_(crypto::Drbg::from_string("groupsig-test")),
        issuer_(Issuer::create(rng_)),
        grp_a_(issuer_.new_group_secret(rng_)),
        grp_b_(issuer_.new_group_secret(rng_)),
        alice_(issuer_.issue(grp_a_, rng_)),
        bob_(issuer_.issue(grp_a_, rng_)),
        carol_(issuer_.issue(grp_b_, rng_)) {}

  crypto::Drbg rng_;
  Issuer issuer_;
  Fr grp_a_, grp_b_;
  MemberKey alice_, bob_, carol_;
};

TEST_F(GroupSigTest, IssuedKeysAreValid) {
  EXPECT_TRUE(alice_.is_valid(issuer_.gpk()));
  EXPECT_TRUE(bob_.is_valid(issuer_.gpk()));
  EXPECT_TRUE(carol_.is_valid(issuer_.gpk()));
  // Same group secret, distinct member secrets and credentials.
  EXPECT_EQ(alice_.grp, bob_.grp);
  EXPECT_FALSE(alice_.x == bob_.x);
  EXPECT_NE(alice_.a, bob_.a);
}

TEST_F(GroupSigTest, InvalidKeyDetected) {
  MemberKey forged = alice_;
  forged.x = forged.x + Fr::one();
  EXPECT_FALSE(forged.is_valid(issuer_.gpk()));
}

TEST_F(GroupSigTest, SignVerifyRoundTrip) {
  const Signature sig = sign(issuer_.gpk(), alice_, as_bytes("msg"), rng_);
  EXPECT_TRUE(verify_proof(issuer_.gpk(), as_bytes("msg"), sig));
  EXPECT_TRUE(verify(issuer_.gpk(), as_bytes("msg"), sig, {}));
}

TEST_F(GroupSigTest, AllMembersCanSign) {
  for (const MemberKey* key : {&alice_, &bob_, &carol_}) {
    const Signature sig = sign(issuer_.gpk(), *key, as_bytes("m"), rng_);
    EXPECT_TRUE(verify(issuer_.gpk(), as_bytes("m"), sig, {}));
  }
}

TEST_F(GroupSigTest, WrongMessageRejected) {
  const Signature sig = sign(issuer_.gpk(), alice_, as_bytes("msg"), rng_);
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("other"), sig));
}

TEST_F(GroupSigTest, WrongGroupKeyRejected) {
  const Signature sig = sign(issuer_.gpk(), alice_, as_bytes("msg"), rng_);
  const Issuer other = Issuer::create(rng_);
  EXPECT_FALSE(verify_proof(other.gpk(), as_bytes("msg"), sig));
}

TEST_F(GroupSigTest, OutsiderCannotForge) {
  // A random "member key" not issued under gamma fails verification.
  MemberKey outsider;
  outsider.a = curve::Bn254::get().g1_gen * curve::random_fr(rng_);
  outsider.grp = curve::random_fr(rng_);
  outsider.x = curve::random_fr(rng_);
  EXPECT_FALSE(outsider.is_valid(issuer_.gpk()));
  const Signature sig = sign(issuer_.gpk(), outsider, as_bytes("m"), rng_);
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), sig));
}

TEST_F(GroupSigTest, EveryFieldTamperRejected) {
  const Signature good = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  const G1 bump1 = curve::Bn254::get().g1_gen;
  const G2 bump2 = curve::Bn254::get().g2_gen;

  Signature s = good;
  s.nonce = s.nonce + Fr::one();
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.t1 = s.t1 + bump1;
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.t2 = s.t2 + bump1;
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.t_hat = s.t_hat + bump2;
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.r1 = s.r1 + bump1;
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.r2 = s.r2 * curve::pairing(bump1, bump2);
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.r3 = s.r3 + bump1;
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.r4 = s.r4 + bump2;
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.s_alpha = s.s_alpha + Fr::one();
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.s_x = s.s_x + Fr::one();
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
  s = good;
  s.s_delta = s.s_delta + Fr::one();
  EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), s));
}

TEST_F(GroupSigTest, SignaturesAreRandomized) {
  const Signature s1 = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  const Signature s2 = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  EXPECT_FALSE(s1 == s2);
  EXPECT_NE(s1.t1, s2.t1);
  EXPECT_NE(s1.t2, s2.t2);
}

TEST_F(GroupSigTest, RevocationTokenMatchesOwnSigner) {
  const Signature sig = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  EXPECT_TRUE(matches_token(issuer_.gpk(), as_bytes("m"), sig, {alice_.a}));
  EXPECT_FALSE(matches_token(issuer_.gpk(), as_bytes("m"), sig, {bob_.a}));
  EXPECT_FALSE(matches_token(issuer_.gpk(), as_bytes("m"), sig, {carol_.a}));
}

TEST_F(GroupSigTest, VerifyRejectsRevokedSigner) {
  const std::vector<RevocationToken> url = {{bob_.a}};
  const Signature by_alice = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  const Signature by_bob = sign(issuer_.gpk(), bob_, as_bytes("m"), rng_);
  EXPECT_TRUE(verify(issuer_.gpk(), as_bytes("m"), by_alice, url));
  EXPECT_FALSE(verify(issuer_.gpk(), as_bytes("m"), by_bob, url));
}

TEST_F(GroupSigTest, RevocationScansWholeList) {
  std::vector<RevocationToken> url;
  for (int i = 0; i < 8; ++i)
    url.push_back({issuer_.issue(grp_a_, rng_).a});
  url.push_back({alice_.a});  // victim at the end of the list
  const Signature sig = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  EXPECT_FALSE(verify(issuer_.gpk(), as_bytes("m"), sig, url));
}

TEST_F(GroupSigTest, PreparedVerifyMatchesPlain) {
  // The precomputed-pairing hot path must agree with the straight-line
  // reference on accepts AND rejects: valid signatures, tampered ones, and
  // wrong messages.
  const PreparedGroupPublicKey pgpk(issuer_.gpk());
  for (int i = 0; i < 4; ++i) {
    const Bytes msg = to_bytes("prepared-msg-" + std::to_string(i));
    const Signature sig = sign(issuer_.gpk(), alice_, msg, rng_);
    EXPECT_TRUE(verify_proof(issuer_.gpk(), msg, sig));
    EXPECT_TRUE(verify_proof(pgpk, msg, sig));
    EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("other"), sig));
    EXPECT_FALSE(verify_proof(pgpk, as_bytes("other"), sig));
    Signature bad = sig;
    bad.s_x = bad.s_x + Fr::one();
    EXPECT_FALSE(verify_proof(issuer_.gpk(), msg, bad));
    EXPECT_FALSE(verify_proof(pgpk, msg, bad));
  }
}

TEST_F(GroupSigTest, PreparedKeyBuildsOneLineTable) {
  // init() prepared the generator g2 once for the process, so a prepared
  // key builds only its own w table and no run's op counts depend on how
  // many keys were prepared before it.
  obs::Registry::global().reset();
  const PreparedGroupPublicKey pgpk(issuer_.gpk());
  EXPECT_EQ(obs::op_count(obs::Op::kG2Prepared), 1u);
  EXPECT_FALSE(pgpk.w.is_infinity());
}

TEST_F(GroupSigTest, PreparedVerifyWithUrlMatchesPlain) {
  // Full verify (proof + URL scan), prepared vs plain, including the
  // operation counters the paper's cost analysis is checked against.
  const PreparedGroupPublicKey pgpk(issuer_.gpk());
  const std::vector<RevocationToken> url = {{bob_.a}, {carol_.a}};
  const Signature by_alice = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  const Signature by_bob = sign(issuer_.gpk(), bob_, as_bytes("m"), rng_);
  OpCounters plain_ops, prep_ops;
  EXPECT_TRUE(verify(issuer_.gpk(), as_bytes("m"), by_alice, url, &plain_ops));
  EXPECT_TRUE(verify(pgpk, as_bytes("m"), by_alice, url, &prep_ops));
  EXPECT_EQ(plain_ops.pairings, prep_ops.pairings);
  EXPECT_EQ(plain_ops.g1_exp, prep_ops.g1_exp);
  EXPECT_EQ(plain_ops.g2_exp, prep_ops.g2_exp);
  EXPECT_FALSE(verify(issuer_.gpk(), as_bytes("m"), by_bob, url));
  EXPECT_FALSE(verify(pgpk, as_bytes("m"), by_bob, url));
}

TEST_F(GroupSigTest, SerializationRoundTrip) {
  const Signature sig = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  const Bytes b = sig.to_bytes();
  EXPECT_EQ(b.size(), kSignatureSize);
  EXPECT_EQ(Signature::from_bytes(b), sig);
  EXPECT_THROW(Signature::from_bytes(Bytes(10, 0)), Error);
  Bytes tampered = b;
  tampered[20] ^= 0xff;
  // Either parsing fails (invalid point) or verification fails.
  try {
    const Signature bad = Signature::from_bytes(tampered);
    EXPECT_FALSE(verify_proof(issuer_.gpk(), as_bytes("m"), bad));
  } catch (const Error&) {
  }
}

TEST_F(GroupSigTest, GpkSerializationRoundTrip) {
  const Bytes b = issuer_.gpk().to_bytes();
  EXPECT_TRUE(GroupPublicKey::from_bytes(b) == issuer_.gpk());
  const RevocationToken t{alice_.a};
  EXPECT_TRUE(RevocationToken::from_bytes(t.to_bytes()) == t);
}

TEST_F(GroupSigTest, DeriveReconstructsIssuedKey) {
  // Models the paper's split distribution: GM holds (grp, x); NO can
  // recompute A from them.
  const MemberKey again = issuer_.derive(alice_.grp, alice_.x);
  EXPECT_EQ(again.a, alice_.a);
}

TEST_F(GroupSigTest, IssuerFromSecretRoundTrip) {
  const Issuer again = Issuer::from_secret(issuer_.gamma());
  EXPECT_TRUE(again.gpk() == issuer_.gpk());
  EXPECT_THROW(Issuer::from_secret(Fr::zero()), Error);
}

TEST_F(GroupSigTest, EpochModeSignVerify) {
  const Signature sig =
      sign(issuer_.gpk(), alice_, as_bytes("m"), rng_, /*epoch=*/42);
  EXPECT_EQ(sig.epoch, 42u);
  EXPECT_TRUE(verify_proof(issuer_.gpk(), as_bytes("m"), sig));
  const EpochRevocationIndex empty_index(issuer_.gpk(), 42, {});
  EXPECT_TRUE(verify_fast(issuer_.gpk(), as_bytes("m"), sig, empty_index));
}

TEST_F(GroupSigTest, EpochIndexCatchesRevoked) {
  const std::vector<RevocationToken> url = {{alice_.a}, {carol_.a}};
  const EpochRevocationIndex index(issuer_.gpk(), 7, url);
  EXPECT_EQ(index.size(), 2u);
  const Signature by_alice =
      sign(issuer_.gpk(), alice_, as_bytes("m"), rng_, 7);
  const Signature by_bob = sign(issuer_.gpk(), bob_, as_bytes("m"), rng_, 7);
  EXPECT_TRUE(index.is_revoked(by_alice));
  EXPECT_FALSE(index.is_revoked(by_bob));
  EXPECT_FALSE(verify_fast(issuer_.gpk(), as_bytes("m"), by_alice, index));
  EXPECT_TRUE(verify_fast(issuer_.gpk(), as_bytes("m"), by_bob, index));
}

TEST_F(GroupSigTest, EpochMismatchRejected) {
  const EpochRevocationIndex index(issuer_.gpk(), 7, {});
  const Signature sig = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_, 8);
  EXPECT_FALSE(verify_fast(issuer_.gpk(), as_bytes("m"), sig, index));
  EXPECT_THROW(index.is_revoked(sig), Error);
  EXPECT_THROW(EpochRevocationIndex(issuer_.gpk(), 0, {}), Error);
}

TEST_F(GroupSigTest, EmptyEpochIndexCostsNoPairing) {
  // A metro day's dawn burst runs with an empty URL: the index answers
  // "not revoked" without a pairing or a Miller loop, and gives the scan's
  // verdicts once a token arrives.
  EpochRevocationIndex index(issuer_.gpk(), 7, {});
  const Signature by_alice = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_, 7);
  const Signature by_bob = sign(issuer_.gpk(), bob_, as_bytes("m"), rng_, 7);
  OpCounters ops;
  const std::uint64_t pairings = curve::pairing_op_count();
  const std::uint64_t millers = obs::op_count(obs::Op::kMillerLoop);
  EXPECT_FALSE(index.is_revoked(by_alice, &ops));
  EXPECT_FALSE(index.is_revoked(by_bob, &ops));
  EXPECT_EQ(ops.pairings, 0u);
  EXPECT_EQ(curve::pairing_op_count() - pairings, 0u);
  EXPECT_EQ(obs::op_count(obs::Op::kMillerLoop) - millers, 0u);

  const std::vector<RevocationToken> url = {{alice_.a}};
  ASSERT_TRUE(index.add_token(url[0]));
  for (const Signature* sig : {&by_alice, &by_bob})
    EXPECT_EQ(index.is_revoked(*sig),
              scan_tokens(*index.bases(), *sig, url) != TokenScan::npos);
  EXPECT_TRUE(index.is_revoked(by_alice));
}

TEST_F(GroupSigTest, EpochBasesVerifyLikeHashedOnes) {
  // A verifier handed epoch_bases(gpk, epoch) reaches the verdicts of one
  // that hashes the bases per signature, sequentially and in a batch;
  // bases of another epoch or key accept no proof.
  const PreparedGroupPublicKey pgpk(issuer_.gpk());
  const curve::SignatureBases bases = epoch_bases(issuer_.gpk(), 5);
  std::vector<Bytes> messages;
  std::vector<Signature> sigs;
  for (int i = 0; i < 4; ++i) {
    messages.push_back({static_cast<std::uint8_t>(i)});
    sigs.push_back(sign(pgpk, alice_, messages[i], rng_, 5));
    EXPECT_TRUE(verify_proof(pgpk, messages[i], sigs[i], nullptr, &bases));
  }
  EXPECT_FALSE(verify_proof(pgpk, as_bytes("other"), sigs[0], nullptr, &bases));
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < sigs.size(); ++i)
    items.push_back({messages[i], &sigs[i], &bases});
  EXPECT_EQ(batch_verify_proof(pgpk, items, as_bytes("salt")),
            std::vector<char>(sigs.size(), 1));

  const curve::SignatureBases stale = epoch_bases(issuer_.gpk(), 4);
  EXPECT_FALSE(verify_proof(pgpk, messages[0], sigs[0], nullptr, &stale));
  const Issuer other = Issuer::create(rng_);
  const curve::SignatureBases foreign = epoch_bases(other.gpk(), 5);
  EXPECT_FALSE(verify_proof(pgpk, messages[0], sigs[0], nullptr, &foreign));
  EXPECT_THROW(epoch_bases(issuer_.gpk(), 0), Error);
}

TEST_F(GroupSigTest, EpochModeIsLinkableWithinEpoch) {
  // The documented privacy trade-off: same member, same epoch => same tag.
  const Signature s1 = sign(issuer_.gpk(), alice_, as_bytes("m1"), rng_, 9);
  const Signature s2 = sign(issuer_.gpk(), alice_, as_bytes("m2"), rng_, 9);
  const Signature s3 = sign(issuer_.gpk(), bob_, as_bytes("m1"), rng_, 9);
  EXPECT_EQ(epoch_linkability_tag(issuer_.gpk(), s1),
            epoch_linkability_tag(issuer_.gpk(), s2));
  EXPECT_FALSE(epoch_linkability_tag(issuer_.gpk(), s1) ==
               epoch_linkability_tag(issuer_.gpk(), s3));
  // Across epochs the tag changes even for the same member.
  const Signature s4 = sign(issuer_.gpk(), alice_, as_bytes("m1"), rng_, 10);
  EXPECT_FALSE(epoch_linkability_tag(issuer_.gpk(), s1) ==
               epoch_linkability_tag(issuer_.gpk(), s4));
}

TEST_F(GroupSigTest, OperationCountsMatchAnalysis) {
  // E2/E3: the paper counts ~8 exp + 2 pairings to sign and
  // 6 exp + (3 + 2|URL|) pairings to verify. Our Type-3 adaptation adds the
  // T_hat carrier (one extra exp each side, R4 recomputation) and folds
  // same-base pairings, so: sign = 10 exp + 2 pairings,
  // verify = 11 exp + 2 pairings, + 2 pairings per URL entry.
  OpCounters ops;
  const Signature sig =
      sign(issuer_.gpk(), alice_, as_bytes("m"), rng_, 0, &ops);
  EXPECT_EQ(ops.pairings, 2u);
  EXPECT_EQ(ops.total_exp(), 10u);

  ops.reset();
  EXPECT_TRUE(verify_proof(issuer_.gpk(), as_bytes("m"), sig, &ops));
  EXPECT_EQ(ops.pairings, 2u);
  EXPECT_EQ(ops.total_exp(), 11u);

  // Linear growth in |URL|: 2 pairings per token, exactly Eq.3's shape.
  for (std::size_t n : {1u, 4u, 9u}) {
    std::vector<RevocationToken> url;
    for (std::size_t i = 0; i < n; ++i) url.push_back({bob_.a});
    ops.reset();
    verify(issuer_.gpk(), as_bytes("m"), sig, url, &ops);
    EXPECT_EQ(ops.pairings, 2u + 2u * n) << n;
  }

  // Fast variant: pairing cost independent of |URL|.
  std::vector<RevocationToken> big_url(50, RevocationToken{bob_.a});
  const EpochRevocationIndex index(issuer_.gpk(), 3, big_url);
  const Signature esig = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_, 3);
  ops.reset();
  EXPECT_TRUE(verify_fast(issuer_.gpk(), as_bytes("m"), esig, index, &ops));
  EXPECT_EQ(ops.pairings, 4u);
}

TEST_F(GroupSigTest, SignatureSizeMatchesConstant) {
  const Signature sig = sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  EXPECT_EQ(sig.to_bytes().size(), kSignatureSize);
  // E1 context: 782 bytes at 254-bit parameters in the commitment-carrying
  // form (the four commitments R1..R4 travel, the challenge is recomputed;
  // R2 in GT dominates at 384 bytes). The challenge-carrying form was 299
  // bytes; the extra 483 buy batch verifiability (docs/CRYPTO.md §4).
  EXPECT_EQ(kSignatureSize, 782u);
}

TEST_F(GroupSigTest, PlainBs04IsTheGrpZeroSpecialCase) {
  // Ablation of the paper's keygen variation: setting grp = 0 recovers the
  // original Boneh-Shacham scheme (A = g1^(1/(gamma+x))). Everything still
  // works — what the variation *adds* is the per-group secret that lets
  // NO's audit stop at group granularity instead of requiring per-member
  // bookkeeping for role semantics.
  const MemberKey plain = issuer_.derive(Fr::zero(), curve::random_fr(rng_));
  EXPECT_TRUE(plain.is_valid(issuer_.gpk()));
  const Signature sig = sign(issuer_.gpk(), plain, as_bytes("m"), rng_);
  EXPECT_TRUE(verify(issuer_.gpk(), as_bytes("m"), sig, {}));
  EXPECT_TRUE(matches_token(issuer_.gpk(), as_bytes("m"), sig, {plain.a}));
  // PEACE members and plain-BS04 members coexist under the same gpk.
  EXPECT_FALSE(matches_token(issuer_.gpk(), as_bytes("m"), sig, {alice_.a}));
  const Signature peace_sig =
      sign(issuer_.gpk(), alice_, as_bytes("m"), rng_);
  EXPECT_TRUE(verify(issuer_.gpk(), as_bytes("m"), peace_sig, {}));
}

class GroupSigSweep : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
};

TEST_P(GroupSigSweep, RoundTripManyMembers) {
  crypto::Drbg rng = crypto::Drbg::from_string("gs-sweep", GetParam());
  const Issuer issuer = Issuer::create(rng);
  const Fr grp = issuer.new_group_secret(rng);
  const MemberKey key = issuer.issue(grp, rng);
  const Bytes msg = rng.bytes(10 + GetParam());
  const Signature sig = sign(issuer.gpk(), key, msg, rng);
  EXPECT_TRUE(verify(issuer.gpk(), msg, sig, {}));
  EXPECT_TRUE(matches_token(issuer.gpk(), msg, sig, {key.a}));
}

INSTANTIATE_TEST_SUITE_P(Sweep, GroupSigSweep, ::testing::Range(0, 6));

}  // namespace
}  // namespace peace::groupsig
