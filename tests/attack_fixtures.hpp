// Attack fixtures only the attack tests drive (paper Sec. V.A): a replayer
// that records genuine access requests off the air, a bulk bogus-M.2
// injector, and a rogue (phishing) router with a self-signed certificate.
#pragma once

#include <cstring>
#include <vector>

#include "curve/ecdsa.hpp"
#include "mesh/adversary.hpp"

namespace peace::mesh {

/// Records genuine access requests off the air and replays them later.
class Replayer {
 public:
  void attach(MeshNetwork& net) {
    net.add_tap([this](const WireObservation& obs) {
      if (std::strcmp(obs.kind, "m2") == 0) captured_.push_back(obs.payload);
    });
  }
  std::size_t captured() const { return captured_.size(); }

  /// Replays every captured M.2 at the router; returns how many sessions
  /// the replays gained (the router's `accepted` delta — must be zero:
  /// replay cache + timestamp window). A byte-identical replay inside the
  /// window is answered with the original's cached M.3, kept in confirms().
  std::size_t replay_all(proto::MeshRouter& router, proto::Timestamp now) {
    const std::uint64_t accepted_before = router.stats().accepted;
    for (const Bytes& wire : captured_) {
      if (const auto outcome = router.handle_access_request(
              proto::AccessRequest::from_bytes(wire), now))
        confirms_.push_back(outcome->confirm.to_bytes());
    }
    return router.stats().accepted - accepted_before;
  }

  /// Wire bytes of every M.3 a router handed back to a replay.
  const std::vector<Bytes>& confirms() const { return confirms_; }

 private:
  std::vector<Bytes> captured_;
  std::vector<Bytes> confirms_;
};

/// Fires `count` of the outsider's forgeries at the router; returns how
/// many it accepted (must be zero).
inline std::size_t inject(BogusInjector& outsider, proto::MeshRouter& router,
                          const proto::BeaconMessage& beacon,
                          proto::Timestamp now, std::size_t count) {
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (router.handle_access_request(outsider.forge_request(beacon, now), now)
            .has_value())
      ++accepted;
  }
  return accepted;
}

/// A rogue (phishing) router under adversary control: fresh keys with a
/// self-signed certificate. Sec. V.A: users must refuse its beacons.
inline proto::MeshRouter make_rogue_router(proto::RouterId id,
                                           const proto::SystemParams& params,
                                           crypto::Drbg rng) {
  auto keypair = curve::EcdsaKeyPair::generate(rng);
  proto::RouterCertificate cert;
  cert.router_id = id;
  cert.public_key = keypair.public_key();
  cert.expires_at = ~proto::Timestamp{0};
  // Self-signed: the adversary does not hold NSK.
  cert.signature = keypair.sign(cert.signed_payload(), rng);
  return proto::MeshRouter(id, std::move(keypair), std::move(cert), params,
                           std::move(rng));
}

}  // namespace peace::mesh
