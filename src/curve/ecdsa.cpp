#include "curve/ecdsa.hpp"

#include "common/serde.hpp"
#include "crypto/sha256.hpp"
#include "curve/hash_to_curve.hpp"

namespace peace::curve {

using math::U256;

Fr random_fr_any(crypto::Drbg& rng) {
  // Rejection-sample 256-bit strings below r (r is 254 bits, so the
  // acceptance probability is about 1/4 per draw).
  const U256& r = Fr::modulus();
  for (;;) {
    Bytes buf = rng.bytes(32);
    const U256 v = U256::from_bytes(buf);
    if (math::cmp(v, r) < 0) return Fr::from_u256(v);
  }
}

Fr random_fr(crypto::Drbg& rng) {
  for (;;) {
    const Fr v = random_fr_any(rng);
    if (!v.is_zero()) return v;
  }
}

Bytes EcdsaSignature::to_bytes() const { return encode(*this); }

EcdsaSignature EcdsaSignature::from_bytes(BytesView data) {
  return decode<EcdsaSignature>(data);
}

EcdsaKeyPair EcdsaKeyPair::generate(crypto::Drbg& rng) {
  return from_secret(random_fr(rng));
}

EcdsaKeyPair EcdsaKeyPair::from_secret(const Fr& secret) {
  if (secret.is_zero()) throw Error("ecdsa: zero secret");
  EcdsaKeyPair kp;
  kp.secret_ = secret;
  // Z = 1, so no encoding of the key (certificates, beacons) inverts.
  kp.public_key_ = g1_generator_mul(secret).normalized();
  return kp;
}

namespace {

Fr message_scalar(BytesView message) {
  return hash_to_fr("peace/ecdsa", message);
}

/// x-coordinate of a point reduced into Z_r.
Fr point_x_mod_r(const G1& point) {
  math::Fp ax, ay;
  point.to_affine(ax, ay);
  return Fr::from_bytes_reduce(ax.to_bytes());
}

}  // namespace

EcdsaSignature EcdsaKeyPair::sign(BytesView message, crypto::Drbg& rng) const {
  const Fr e = message_scalar(message);
  for (;;) {
    const Fr k = random_fr(rng);
    const G1 big_r = g1_generator_mul(k);
    const Fr r = point_x_mod_r(big_r);
    if (r.is_zero()) continue;
    const Fr s = k.inverse() * (e + secret_ * r);
    if (s.is_zero()) continue;
    return {r, s};
  }
}

bool ecdsa_verify(const G1& public_key, BytesView message,
                  const EcdsaSignature& sig) {
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (public_key.is_infinity() || !public_key.is_on_curve()) return false;
  const Fr e = message_scalar(message);
  const Fr w = sig.s.inverse();
  // (e w) G from the generator table; the key half stays on GLV.
  const G1 x = g1_generator_mul(e * w) + public_key * (sig.r * w);
  if (x.is_infinity()) return false;
  return point_x_mod_r(x) == sig.r;
}

}  // namespace peace::curve

namespace peace {

void put(Writer& w, const curve::EcdsaKeyPair& k) { w(k.secret_key()); }
void get(Reader& r, curve::EcdsaKeyPair& k) {
  curve::Fr secret;
  r(secret);
  k = curve::EcdsaKeyPair::from_secret(secret);
}

}  // namespace peace
