#include "deploy.hpp"

#include "crypto/drbg.hpp"

namespace perfbench {

using namespace peace;

Deployment::Deployment(const std::string& label_, std::size_t keys)
    : label(label_),
      no(crypto::Drbg::from_string(label_ + "/no")),
      gm(no.register_group(label_ + "-group", keys, ttp)) {}

void Deployment::enroll(const std::string& prefix, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::string uid = prefix + std::to_string(i);
    auto user = std::make_unique<proto::User>(
        uid, no.params(), crypto::Drbg::from_string(label + "/user/" + uid));
    const auto enrollment = gm.enroll(uid, ttp);
    const auto receipt = user->complete_enrollment(enrollment);
    gm.record_receipt(enrollment, user->receipt_public_key(), receipt);
    members.push_back(Member{std::move(user), enrollment.index});
  }
}

std::unique_ptr<proto::MeshRouter> Deployment::router(
    proto::RouterId id, const std::string& seed_label) {
  auto provision = no.provision_router(id, kNoExpiry);
  auto r = std::make_unique<proto::MeshRouter>(
      id, provision.keypair, provision.certificate, no.params(),
      crypto::Drbg::from_string(seed_label));
  r->install_revocation_lists(no.current_crl(), no.current_url());
  return r;
}

UnitInputs unit_inputs_from(const groupsig::GroupPublicKey& gpk,
                            const std::vector<Member>& members,
                            const proto::SignedRevocationList& url,
                            std::size_t count, std::size_t batch_size,
                            const std::string& seed) {
  UnitInputs in;
  in.gpk = gpk;
  in.signer = members.front().user->credential(members.front().index.group);
  in.batch_size = batch_size;
  in.seed = seed + "/costs";
  crypto::Drbg rng = crypto::Drbg::from_string(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const Member& m = members[i % members.size()];
    SignedMessage s;
    s.message = rng.bytes(64);
    s.signature =
        groupsig::sign(gpk, m.user->credential(m.index.group), s.message, rng);
    in.signatures.push_back(std::move(s));
  }
  for (const Bytes& e : url.entries)
    in.url.push_back(groupsig::RevocationToken::from_bytes(e));
  return in;
}

}  // namespace perfbench
