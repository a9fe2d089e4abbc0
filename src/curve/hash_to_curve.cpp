#include "curve/hash_to_curve.hpp"

#include "crypto/sha256.hpp"

namespace peace::curve {

using crypto::Sha256;
using math::Fp;
using math::Fp2;

namespace {

Bytes domain_hash(std::string_view domain, std::uint32_t counter,
                  BytesView data) {
  Sha256 h;
  h.update(as_bytes(domain));
  const std::uint8_t ctr[4] = {static_cast<std::uint8_t>(counter >> 24),
                               static_cast<std::uint8_t>(counter >> 16),
                               static_cast<std::uint8_t>(counter >> 8),
                               static_cast<std::uint8_t>(counter)};
  h.update({ctr, 4});
  h.update(data);
  auto d = h.finalize();
  return Bytes(d.begin(), d.end());
}

}  // namespace

Fr hash_to_fr(std::string_view domain, BytesView data) {
  // Two hash blocks widen the value to 512 bits before reduction so the
  // output is statistically uniform in Z_r, then combine mod r.
  const Bytes d0 = domain_hash(domain, 0x80000000u, data);
  const Bytes d1 = domain_hash(domain, 0x80000001u, data);
  const Fr hi = Fr::from_bytes_reduce(d0);
  const Fr lo = Fr::from_bytes_reduce(d1);
  // hi * 2^256 + lo mod r. The Montgomery constant R = 2^256 mod r, read
  // as a standard-form integer, is that factor.
  static const Fr two_256 = Fr::from_u256(Fr::params().r);
  return hi * two_256 + lo;
}

G1 hash_to_g1(std::string_view domain, BytesView data) {
  for (std::uint32_t ctr = 0;; ++ctr) {
    const Bytes d = domain_hash(domain, ctr, data);
    const Fp x = Fp::from_bytes_reduce(d);
    const Fp rhs = x.square() * x + G1Traits::b();
    Fp y;
    if (!rhs.sqrt(y)) continue;
    // Choose the root parity from one more hash bit so the output is not
    // biased toward one half-plane.
    const Bytes parity = domain_hash(domain, ctr ^ 0x40000000u, data);
    if ((parity[0] & 1) != (y.is_odd_repr() ? 1 : 0)) y = -y;
    const G1 point(x, y);
    if (point.is_infinity()) continue;
    return point;
  }
}

G2 hash_to_g2(std::string_view domain, BytesView data) {
  Bn254::get();  // ensure init (publishes the psi constants)
  for (std::uint32_t ctr = 0;; ++ctr) {
    const Bytes d0 = domain_hash(domain, ctr, data);
    const Bytes d1 = domain_hash(domain, ctr ^ 0x20000000u, data);
    const Fp2 x(Fp::from_bytes_reduce(d0), Fp::from_bytes_reduce(d1));
    const Fp2 rhs = x.square() * x + G2Traits::b();
    Fp2 y;
    if (!rhs.sqrt(y)) continue;
    const Bytes parity = domain_hash(domain, ctr ^ 0x40000000u, data);
    if ((parity[0] & 1) != 0) y = -y;
    G2 point(x, y);
    // Clear the cofactor into the r-subgroup via the psi identity
    // (docs/CRYPTO.md §6.2) — same group element as [2p - r]Q, ~4x cheaper.
    point = g2_clear_cofactor(point);
    if (point.is_infinity()) continue;
    return point;
  }
}

SignatureBases hash_to_bases(BytesView seed) {
  SignatureBases bases;
  bases.u = hash_to_g1("peace/H0/u", seed);
  bases.v = hash_to_g1("peace/H0/v", seed);
  bases.v_hat = hash_to_g2("peace/H0/vhat", seed);
  return bases;
}

}  // namespace peace::curve
