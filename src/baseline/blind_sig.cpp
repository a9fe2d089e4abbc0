#include "baseline/blind_sig.hpp"

#include "common/serde.hpp"
#include "curve/hash_to_curve.hpp"

namespace peace::baseline {

namespace {

Fr schnorr_challenge(const G1& commitment, BytesView message) {
  Writer w;
  w.raw(curve::g1_to_bytes(commitment));
  w.bytes(message);
  return curve::hash_to_fr("peace/blindsig/challenge", w.data());
}

}  // namespace

Bytes BlindSignature::to_bytes() const { return encode(*this); }
BlindSignature BlindSignature::from_bytes(BytesView data) {
  return decode<BlindSignature>(data);
}

BlindIssuer BlindIssuer::create(crypto::Drbg& rng) {
  BlindIssuer issuer;
  issuer.secret_ = curve::random_fr(rng);
  issuer.public_key_ = curve::Bn254::get().g1_gen * issuer.secret_;
  return issuer;
}

G1 BlindIssuer::round1(SessionState& state, crypto::Drbg& rng) const {
  state.k = curve::random_fr(rng);
  return curve::Bn254::get().g1_gen * state.k;
}

Fr BlindIssuer::round2(const SessionState& state,
                       const Fr& blinded_challenge) const {
  // s = k - c * x; the issuer never sees the message or the real challenge.
  return state.k - blinded_challenge * secret_;
}

Fr BlindRequester::challenge(const G1& issuer_pub, const G1& commitment,
                             BytesView message, crypto::Drbg& rng) {
  alpha_ = curve::random_fr(rng);
  beta_ = curve::random_fr(rng);
  // R' = R * g^alpha * Y^beta; c' = H(R', m); blinded c = c' - beta.
  const G1 blinded = commitment + curve::Bn254::get().g1_gen * alpha_ +
                     issuer_pub * beta_;
  real_challenge_ = schnorr_challenge(blinded, message);
  return real_challenge_ - beta_;
}

BlindSignature BlindRequester::unblind(const Fr& response) const {
  // s' = s + alpha.
  return {real_challenge_, response + alpha_};
}

bool blind_verify(const G1& issuer_pub, BytesView message,
                  const BlindSignature& sig) {
  // Standard Schnorr: c == H(g^s Y^c, m).
  const G1 commitment =
      curve::Bn254::get().g1_gen * sig.s + issuer_pub * sig.c;
  return schnorr_challenge(commitment, message) == sig.c;
}

}  // namespace peace::baseline
