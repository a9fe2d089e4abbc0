// The batched revocation scan: groupsig::scan_tokens against the per-token
// matches_token reference (verdict bit-identity, for a signer absent,
// listed at every interesting position, and tampered) and the
// one-Fp12-inversion-per-scan contract.
#include <gtest/gtest.h>

#include "groupsig/groupsig.hpp"
#include "obs/trace.hpp"

namespace peace::groupsig {
namespace {

class ScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }

  ScanTest()
      : rng_(crypto::Drbg::from_string("scan-test")),
        issuer_(Issuer::create(rng_)),
        grp_(issuer_.new_group_secret(rng_)),
        alice_(issuer_.issue(grp_, rng_)) {}

  /// `n` well-formed tokens no issued member owns (distinct small multiples
  /// of the generator) — scan fodder that can never match a real signer.
  static std::vector<RevocationToken> fodder(std::size_t n) {
    std::vector<RevocationToken> url;
    url.reserve(n);
    const curve::G1 g = curve::Bn254::get().g1_gen;
    curve::G1 a = g;
    for (std::size_t i = 0; i < n; ++i) {
      a = a + g;
      url.push_back({a});
    }
    return url;
  }

  Signature sign_m(const MemberKey& key) {
    return sign(issuer_.gpk(), key, as_bytes("m"), rng_);
  }

  PreparedBases prepared_for(const Signature& sig) {
    return prepare_bases(issuer_.gpk(), as_bytes("m"), sig);
  }

  crypto::Drbg rng_;
  Issuer issuer_;
  curve::Fr grp_;
  MemberKey alice_;
};

TEST_F(ScanTest, BatchedScanMatchesPerTokenReference) {
  const Signature sig = sign_m(alice_);
  // A tampered signature matches no token, its signer's included.
  Signature forged = sig;
  forged.t2 = forged.t2 + curve::Bn254::get().g1_gen;

  struct Case {
    const Signature* sig;
    std::size_t listed_at;  // where alice's token sits, or npos
    std::size_t want;
  };
  constexpr std::size_t npos = TokenScan::npos;
  // Signer absent, at the front, in the middle, and at the end, then the
  // tampered signature against a listed signer: the batched scan must
  // report exactly the index the per-token loop finds first.
  for (const Case& c : {Case{&sig, npos, npos}, Case{&sig, 0, 0},
                        Case{&sig, 3, 3}, Case{&sig, 6, 6},
                        Case{&forged, 3, npos}}) {
    const PreparedBases prepared = prepared_for(*c.sig);
    std::vector<RevocationToken> url = fodder(7);
    if (c.listed_at != npos) url[c.listed_at] = {alice_.a};

    std::size_t reference = npos;
    for (std::size_t i = 0; i < url.size(); ++i) {
      if (matches_token(issuer_.gpk(), as_bytes("m"), *c.sig, url[i])) {
        reference = i;
        break;
      }
    }
    EXPECT_EQ(reference, c.want);
    EXPECT_EQ(scan_tokens(prepared, *c.sig, url), c.want);
  }
}

TEST_F(ScanTest, ScanPaysOneEasyPartInversion) {
  const Signature sig = sign_m(alice_);
  const PreparedBases prepared = prepared_for(sig);
  const std::vector<RevocationToken> url = fodder(16);

  // The per-token reference pays one easy-part inversion per token...
  std::uint64_t before = obs::op_count(obs::Op::kFp12Inverse);
  for (const RevocationToken& token : url)
    EXPECT_FALSE(matches_token(issuer_.gpk(), as_bytes("m"), sig, token));
  EXPECT_EQ(obs::op_count(obs::Op::kFp12Inverse) - before, url.size());

  // ...the batched scan pays exactly one for the whole clean scan...
  before = obs::op_count(obs::Op::kFp12Inverse);
  EXPECT_EQ(scan_tokens(prepared, sig, url), TokenScan::npos);
  EXPECT_EQ(obs::op_count(obs::Op::kFp12Inverse) - before, 1u);

  // ...and still exactly one when a token matches (the easy part is batched
  // before the per-token hard parts run).
  std::vector<RevocationToken> hit = url;
  hit[5] = {alice_.a};
  before = obs::op_count(obs::Op::kFp12Inverse);
  EXPECT_EQ(scan_tokens(prepared, sig, hit), 5u);
  EXPECT_EQ(obs::op_count(obs::Op::kFp12Inverse) - before, 1u);
}

TEST_F(ScanTest, EmptyScanIsFree) {
  const Signature sig = sign_m(alice_);
  const PreparedBases prepared = prepared_for(sig);
  const std::uint64_t before = obs::op_count(obs::Op::kFp12Inverse);
  EXPECT_EQ(scan_tokens(prepared, sig, {}), TokenScan::npos);
  EXPECT_EQ(obs::op_count(obs::Op::kFp12Inverse) - before, 0u);
}

}  // namespace
}  // namespace peace::groupsig
