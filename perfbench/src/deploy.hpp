// A seeded in-memory PEACE deployment (one operator, one user group, a set
// of enrolled users and the routers the operator provisions), and the inputs
// of the unit-cost phase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "peace/router.hpp"
#include "peace/user.hpp"

namespace perfbench {

using peace::proto::Timestamp;

/// Far-future certificate expiry for provisioned routers.
inline constexpr Timestamp kNoExpiry = ~Timestamp{0};

struct Member {
  std::unique_ptr<peace::proto::User> user;
  peace::proto::KeyIndex index;
};

struct Deployment {
  explicit Deployment(const std::string& label, std::size_t keys);

  /// Enrolls `count` users named `<prefix><i>`, archiving their receipts.
  void enroll(const std::string& prefix, std::size_t count);
  /// A router provisioned by this operator, holding the current lists.
  std::unique_ptr<peace::proto::MeshRouter> router(
      peace::proto::RouterId id, const std::string& seed_label);

  std::string label;
  peace::proto::NetworkOperator no;
  peace::proto::TrustedThirdParty ttp;
  peace::proto::GroupManager gm;
  std::vector<Member> members;
};

/// One group-signature verification input: the signed bytes and signature.
struct SignedMessage {
  peace::Bytes message;
  peace::groupsig::Signature signature;
};

/// What the unit-cost phase measures on: a workload's own key material,
/// signatures, and revocation list.
struct UnitInputs {
  peace::groupsig::GroupPublicKey gpk;
  peace::groupsig::MemberKey signer;
  std::vector<SignedMessage> signatures;  // valid, distinct signers
  std::vector<peace::groupsig::RevocationToken> url;
  std::size_t batch_size = 16;
  std::string seed;  // DRBG label for the phase's own random draws
};

/// Unit inputs from enrolled `members`: `count` signatures by distinct
/// members (the first `count`, which must not be revoked) over fresh
/// messages, and the tokens of `url`.
UnitInputs unit_inputs_from(const peace::groupsig::GroupPublicKey& gpk,
                            const std::vector<Member>& members,
                            const peace::proto::SignedRevocationList& url,
                            std::size_t count, std::size_t batch_size,
                            const std::string& seed);

}  // namespace perfbench
