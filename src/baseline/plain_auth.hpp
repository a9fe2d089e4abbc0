// Strawman comparator: a conventional certificate-based authentication
// framework with NO anONYMITY — each user holds an identity certificate and
// signs access requests under their own key, exposing uid on every
// handshake. Same three-way shape as PEACE so the benches compare apples to
// apples: what does PEACE's privacy cost, and what does this design leak?
#pragma once

#include <optional>
#include <string>

#include "common/serde.hpp"
#include "curve/ecdsa.hpp"

namespace peace::baseline {

using curve::EcdsaKeyPair;
using curve::EcdsaSignature;
using curve::G1;

struct PlainUserCertificate {
  std::string uid;  // transmitted in the clear with every request
  G1 public_key;
  std::uint64_t expires_at = 0;
  EcdsaSignature signature;  // by the operator

  static void fields(auto& io, auto& s) {
    io(s.uid, s.public_key, s.expires_at, kSignedEnd, s.signature);
  }
  Bytes signed_payload() const;
  Bytes to_bytes() const;
  static PlainUserCertificate from_bytes(BytesView data);
};

/// The operator side: issues user certificates and keeps a revocation set
/// keyed by uid (revocation here trivially reveals who was revoked).
class PlainAuthority {
 public:
  explicit PlainAuthority(crypto::Drbg rng);

  const G1& public_key() const { return root_.public_key(); }

  struct IssuedUser {
    EcdsaKeyPair keypair;
    PlainUserCertificate certificate;
  };
  IssuedUser issue_user(const std::string& uid, std::uint64_t expires_at);

  void revoke(const std::string& uid);
  bool is_revoked(const std::string& uid) const;

 private:
  mutable crypto::Drbg rng_;
  EcdsaKeyPair root_;
  std::vector<std::string> revoked_;
};

/// The access request of the strawman protocol: identity cert + plain
/// signature over the DH transcript.
struct PlainAccessRequest {
  G1 g_rj;
  G1 g_rr;
  std::uint64_t ts = 0;
  PlainUserCertificate certificate;
  EcdsaSignature signature;

  static void fields(auto& io, auto& s) {
    io(s.g_rj, s.g_rr, s.ts, kSignedEnd, s.certificate, s.signature);
  }
  Bytes signed_payload() const;
  Bytes to_bytes() const;
  static PlainAccessRequest from_bytes(BytesView data);
};

PlainAccessRequest make_plain_request(const PlainAuthority::IssuedUser& user,
                                      const G1& g_rj, const G1& g_rr,
                                      std::uint64_t ts, crypto::Drbg& rng);

/// Router-side verification: certificate chain, expiry, revocation by uid,
/// then the user's signature. Returns the authenticated uid — the point of
/// the comparison being that there IS one.
std::optional<std::string> verify_plain_request(
    const PlainAuthority& authority, const PlainAccessRequest& request,
    std::uint64_t now, std::uint64_t replay_window);

}  // namespace peace::baseline
