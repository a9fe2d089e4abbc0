// 256-bit fixed-width unsigned integer: the word size of all BN254 field
// elements and scalars. Little-endian 64-bit limbs. The carry kernel is
// header-inline: on x86-64 each carry chain runs through the
// _addcarry_u64/_subborrow_u64 intrinsics (addc/subb below); their
// unsigned __int128 forms (addc_u128/subb_u128) are compiled on every
// target, serve other targets, and are the oracle the intrinsics are
// tested against. Widening multiplies use unsigned __int128.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/bytes.hpp"

namespace peace::math {

struct U256 {
  // limb[0] is least significant.
  std::array<std::uint64_t, 4> limb{0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t v) : limb{v, 0, 0, 0} {}
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                 std::uint64_t l3)
      : limb{l0, l1, l2, l3} {}

  static U256 zero() { return U256(); }
  static U256 one() { return U256(1); }

  /// Parses a base-10 string. Throws Error on bad digits or overflow.
  static U256 from_dec(std::string_view dec);
  /// Parses a hex string (no 0x prefix). Throws Error on bad digits/overflow.
  static U256 from_hex(std::string_view hex);
  /// Big-endian 32-byte decoding; shorter inputs are left-padded with zeros.
  /// Throws Error if more than 32 bytes.
  static U256 from_bytes(BytesView be);

  std::string to_dec() const;
  std::string to_hex() const;
  /// Big-endian, exactly 32 bytes.
  Bytes to_bytes() const;

  bool is_zero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  bool is_odd() const { return limb[0] & 1; }
  bool bit(unsigned i) const { return (limb[i / 64] >> (i % 64)) & 1; }
  /// Number of significant bits (0 for zero).
  unsigned bit_length() const;

  bool operator==(const U256&) const = default;
};

/// out = a + b + carry (carry in {0, 1}); returns the carry out. The
/// portable form of addc, and its oracle.
inline unsigned char addc_u128(unsigned char carry, std::uint64_t a,
                               std::uint64_t b, std::uint64_t& out) {
  const unsigned __int128 sum = static_cast<unsigned __int128>(a) + b + carry;
  out = static_cast<std::uint64_t>(sum);
  return static_cast<unsigned char>(sum >> 64);
}

/// out = a - b - borrow (borrow in {0, 1}); returns the borrow out. The
/// portable form of subb, and its oracle.
inline unsigned char subb_u128(unsigned char borrow, std::uint64_t a,
                               std::uint64_t b, std::uint64_t& out) {
  const unsigned __int128 diff =
      static_cast<unsigned __int128>(a) - b - borrow;
  out = static_cast<std::uint64_t>(diff);
  return static_cast<unsigned char>((diff >> 64) & 1);
}

/// One limb of an add-with-carry chain (the x86-64 ADC flag chain).
inline unsigned char addc(unsigned char carry, std::uint64_t a,
                          std::uint64_t b, std::uint64_t& out) {
#if defined(__x86_64__)
  unsigned long long r;  // the intrinsic's type; std::uint64_t is unsigned long
  carry = _addcarry_u64(carry, a, b, &r);
  out = r;
  return carry;
#else
  return addc_u128(carry, a, b, out);
#endif
}

/// One limb of a subtract-with-borrow chain (the x86-64 SBB flag chain).
inline unsigned char subb(unsigned char borrow, std::uint64_t a,
                          std::uint64_t b, std::uint64_t& out) {
#if defined(__x86_64__)
  unsigned long long r;
  borrow = _subborrow_u64(borrow, a, b, &r);
  out = r;
  return borrow;
#else
  return subb_u128(borrow, a, b, out);
#endif
}

/// Multiply-accumulate: returns the low word of a*b + c + carry and leaves
/// the high word in `carry` (the sum cannot exceed 2^128 - 1).
inline std::uint64_t mac(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                         std::uint64_t& carry) {
  const unsigned __int128 cur =
      static_cast<unsigned __int128>(a) * b + c + carry;
  carry = static_cast<std::uint64_t>(cur >> 64);
  return static_cast<std::uint64_t>(cur);
}

/// mask ? a : b limb-wise, for mask all-ones or zero: a select without a
/// data-dependent branch.
inline U256 mask_select(std::uint64_t mask, const U256& a, const U256& b) {
  U256 out;
  for (int i = 0; i < 4; ++i)
    out.limb[i] = (a.limb[i] & mask) | (b.limb[i] & ~mask);
  return out;
}

/// Three-way compare: negative, zero, positive.
inline int cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limb[i] != b.limb[i]) return a.limb[i] < b.limb[i] ? -1 : 1;
  }
  return 0;
}
inline bool operator<(const U256& a, const U256& b) { return cmp(a, b) < 0; }
inline bool operator>=(const U256& a, const U256& b) { return cmp(a, b) >= 0; }

/// out = a + b, returns the carry bit.
inline std::uint64_t add_carry(U256& out, const U256& a, const U256& b) {
  unsigned char carry = 0;
  for (int i = 0; i < 4; ++i)
    carry = addc(carry, a.limb[i], b.limb[i], out.limb[i]);
  return carry;
}

/// out = a - b, returns the borrow bit.
inline std::uint64_t sub_borrow(U256& out, const U256& a, const U256& b) {
  unsigned char borrow = 0;
  for (int i = 0; i < 4; ++i)
    borrow = subb(borrow, a.limb[i], b.limb[i], out.limb[i]);
  return borrow;
}

/// Full 512-bit product, little-endian limbs.
inline std::array<std::uint64_t, 8> mul_wide(const U256& a, const U256& b) {
  std::array<std::uint64_t, 8> out{};
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j)
      out[i + j] = mac(a.limb[i], b.limb[j], out[i + j], carry);
    out[i + 4] = carry;
  }
  return out;
}

/// a << 1 (bits shifted out are lost).
U256 shl1(const U256& a);
/// a >> 1.
U256 shr1(const U256& a);

/// Modular helpers (operands must be < m): one carry chain each, then a
/// branch-free select of the reduced or unreduced value.
inline U256 add_mod(const U256& a, const U256& b, const U256& m) {
  U256 sum, reduced;
  const std::uint64_t carry = add_carry(sum, a, b);
  const std::uint64_t borrow = sub_borrow(reduced, sum, m);
  // Keep sum only when the addition stayed below 2^256 and below m.
  return mask_select(0 - (borrow & (carry ^ 1)), sum, reduced);
}

inline U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  U256 diff, fixed;
  const std::uint64_t borrow = sub_borrow(diff, a, b);
  // Add m back exactly when the subtraction wrapped.
  add_carry(fixed, diff, mask_select(0 - borrow, m, U256()));
  return fixed;
}

/// (a * 10 + d), throwing Error on overflow — used by the decimal parser.
U256 mul10_add(const U256& a, std::uint64_t d);

/// Division by a small scalar: returns quotient, sets `rem`.
U256 divmod_small(const U256& a, std::uint64_t d, std::uint64_t& rem);

/// Modular inverse of `a` modulo an odd modulus `m` (binary extended GCD;
/// not constant-time). Requires 0 < a < m and gcd(a, m) == 1; throws Error
/// otherwise. Much faster than Fermat exponentiation — this carries the
/// pairing's Miller loop.
U256 mod_inverse_odd(const U256& a, const U256& m);

}  // namespace peace::math
