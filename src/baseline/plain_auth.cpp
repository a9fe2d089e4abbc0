#include "baseline/plain_auth.hpp"

#include <algorithm>

#include "common/serde.hpp"

namespace peace::baseline {

Bytes PlainUserCertificate::signed_payload() const {
  return encode_signed(*this, "plain/user-cert");
}
Bytes PlainUserCertificate::to_bytes() const { return encode(*this); }
PlainUserCertificate PlainUserCertificate::from_bytes(BytesView data) {
  return decode<PlainUserCertificate>(data);
}

PlainAuthority::PlainAuthority(crypto::Drbg rng)
    : rng_(std::move(rng)), root_(EcdsaKeyPair::generate(rng_)) {}

PlainAuthority::IssuedUser PlainAuthority::issue_user(
    const std::string& uid, std::uint64_t expires_at) {
  IssuedUser user;
  user.keypair = EcdsaKeyPair::generate(rng_);
  user.certificate.uid = uid;
  user.certificate.public_key = user.keypair.public_key();
  user.certificate.expires_at = expires_at;
  user.certificate.signature =
      root_.sign(user.certificate.signed_payload(), rng_);
  return user;
}

void PlainAuthority::revoke(const std::string& uid) { revoked_.push_back(uid); }

bool PlainAuthority::is_revoked(const std::string& uid) const {
  return std::find(revoked_.begin(), revoked_.end(), uid) != revoked_.end();
}

Bytes PlainAccessRequest::signed_payload() const {
  return encode_signed(*this, "plain/m2");
}
Bytes PlainAccessRequest::to_bytes() const { return encode(*this); }
PlainAccessRequest PlainAccessRequest::from_bytes(BytesView data) {
  return decode<PlainAccessRequest>(data);
}

PlainAccessRequest make_plain_request(const PlainAuthority::IssuedUser& user,
                                      const G1& g_rj, const G1& g_rr,
                                      std::uint64_t ts, crypto::Drbg& rng) {
  PlainAccessRequest m;
  m.g_rj = g_rj;
  m.g_rr = g_rr;
  m.ts = ts;
  m.certificate = user.certificate;
  m.signature = user.keypair.sign(m.signed_payload(), rng);
  return m;
}

std::optional<std::string> verify_plain_request(
    const PlainAuthority& authority, const PlainAccessRequest& request,
    std::uint64_t now, std::uint64_t replay_window) {
  const std::uint64_t age =
      now >= request.ts ? now - request.ts : request.ts - now;
  if (age > replay_window) return std::nullopt;
  const PlainUserCertificate& cert = request.certificate;
  if (cert.expires_at <= now) return std::nullopt;
  if (authority.is_revoked(cert.uid)) return std::nullopt;
  if (!curve::ecdsa_verify(authority.public_key(), cert.signed_payload(),
                           cert.signature))
    return std::nullopt;
  if (!curve::ecdsa_verify(cert.public_key, request.signed_payload(),
                           request.signature))
    return std::nullopt;
  return cert.uid;
}

}  // namespace peace::baseline
