#include "baseline/ring_sig.hpp"

#include "common/serde.hpp"
#include "curve/hash_to_curve.hpp"

namespace peace::baseline {

namespace {

/// Ring challenge chain: c_{i+1} = H(ring, msg, g^{z_i} Y_i^{c_i}).
Fr chain_step(const Bytes& ring_digest, BytesView message, const G1& commit) {
  Writer w;
  w.bytes(ring_digest);
  w.bytes(message);
  w.raw(curve::g1_to_bytes(commit));
  return curve::hash_to_fr("peace/ring/chain", w.data());
}

Bytes digest_ring(const std::vector<G1>& ring) {
  Writer w;
  for (const G1& y : ring) w.raw(curve::g1_to_bytes(y));
  return w.take();
}

}  // namespace

RingKeyPair RingKeyPair::generate(crypto::Drbg& rng) {
  RingKeyPair kp;
  kp.secret = curve::random_fr(rng);
  kp.public_key = curve::Bn254::get().g1_gen * kp.secret;
  return kp;
}

Bytes RingSignature::to_bytes() const { return encode(*this); }
RingSignature RingSignature::from_bytes(BytesView data) {
  return decode<RingSignature>(data);
}

RingSignature ring_sign(const std::vector<G1>& ring, std::size_t signer_index,
                        const Fr& secret, BytesView message,
                        crypto::Drbg& rng) {
  const std::size_t n = ring.size();
  if (n == 0 || signer_index >= n) throw Error("ring: bad signer index");
  const auto& g = curve::Bn254::get().g1_gen;
  if (!(g * secret == ring[signer_index]))
    throw Error("ring: secret does not match ring slot");

  const Bytes ring_digest = digest_ring(ring);
  std::vector<Fr> z(n);
  std::vector<Fr> c(n);

  // Start the chain just after the signer with a fresh commitment g^alpha.
  const Fr alpha = curve::random_fr(rng);
  c[(signer_index + 1) % n] = chain_step(ring_digest, message, g * alpha);

  // Walk the ring with simulated responses until back at the signer.
  for (std::size_t off = 1; off < n; ++off) {
    const std::size_t i = (signer_index + off) % n;
    z[i] = curve::random_fr(rng);
    c[(i + 1) % n] =
        chain_step(ring_digest, message, g * z[i] + ring[i] * c[i]);
  }
  // Close the ring with the real secret.
  z[signer_index] = alpha - c[signer_index] * secret;

  return {c[0], std::move(z)};
}

bool ring_verify(const std::vector<G1>& ring, BytesView message,
                 const RingSignature& sig) {
  const std::size_t n = ring.size();
  if (n == 0 || sig.z.size() != n) return false;
  const auto& g = curve::Bn254::get().g1_gen;
  const Bytes ring_digest = digest_ring(ring);
  Fr c = sig.c0;
  for (std::size_t i = 0; i < n; ++i) {
    c = chain_step(ring_digest, message, g * sig.z[i] + ring[i] * c);
  }
  return c == sig.c0;
}

}  // namespace peace::baseline
