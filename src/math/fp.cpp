#include "math/fp.hpp"

namespace peace::math {

FieldParams make_field_params(const U256& modulus) {
  if (!modulus.is_odd() || modulus.bit_length() < 3)
    throw Error("make_field_params: modulus must be odd and > 2");
  // mont_mul's carry-free CIOS keeps its running value below 2n in four
  // limbs only with two spare top bits.
  if (modulus.bit_length() > 254)
    throw Error("make_field_params: modulus must be below 2^254");

  FieldParams p;
  p.modulus = modulus;
  p.bits = modulus.bit_length();

  // n0inv = -modulus^{-1} mod 2^64 by Newton iteration (5 steps double the
  // number of correct low bits from the seed's 3 to > 64).
  std::uint64_t inv = modulus.limb[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - modulus.limb[0] * inv;
  p.n0inv = ~inv + 1;

  // r = 2^256 mod modulus: start at 1 and double 256 times mod modulus.
  U256 r = U256::one();
  for (int i = 0; i < 256; ++i) r = add_mod(r, r, modulus);
  p.r = r;
  // r2 = r * 2^256 mod modulus: double 256 more times.
  U256 r2 = r;
  for (int i = 0; i < 256; ++i) r2 = add_mod(r2, r2, modulus);
  p.r2 = r2;

  sub_borrow(p.modulus_minus_2, modulus, U256(2));

  // sqrt exponent (modulus+1)/4 when modulus = 3 (mod 4).
  if ((modulus.limb[0] & 3) == 3) {
    U256 m1;
    add_carry(m1, modulus, U256::one());  // cannot overflow: modulus < 2^255
    p.sqrt_exp = shr1(shr1(m1));
    p.has_sqrt_exp = true;
  }

  // Lazy-reduction bias table: p2k[k] = k * modulus^2 (docs/CRYPTO.md §6.3).
  // kMaxWideBias * modulus^2 < 2^512 for any modulus < 2^254.5, so the adds
  // cannot carry out.
  const std::array<std::uint64_t, 8> p2 = mul_wide(modulus, modulus);
  for (unsigned k = 1; k <= FieldParams::kMaxWideBias; ++k) {
    p.p2k[k] = p.p2k[k - 1];
    if (wide8_add(p.p2k[k], p2) != 0)
      throw Error("make_field_params: bias table overflow");
  }
  return p;
}

}  // namespace peace::math
