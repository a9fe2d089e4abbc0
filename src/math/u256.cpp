#include "math/u256.hpp"

namespace peace::math {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

U256 shr1(const U256& a) {
  U256 out;
  u64 carry = 0;
  for (int i = 3; i >= 0; --i) {
    out.limb[i] = a.limb[i] >> 1 | carry << 63;
    carry = a.limb[i] & 1;
  }
  return out;
}

U256 mul10_add(const U256& a, u64 d) {
  U256 out;
  u64 carry = d;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = static_cast<u128>(a.limb[i]) * 10 + carry;
    out.limb[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  if (carry != 0) throw Error("U256: decimal overflow");
  return out;
}

U256 mod_inverse_odd(const U256& a, const U256& m) {
  if (a.is_zero() || !m.is_odd()) throw Error("mod_inverse_odd: bad input");
  // Halve x modulo m: x/2 if even, else (x + m)/2 (the add cannot overflow
  // 256 bits for a <= 255-bit modulus).
  const auto halve_mod = [&m](U256& x) {
    if (x.is_odd()) {
      U256 sum;
      if (add_carry(sum, x, m) != 0)
        throw Error("mod_inverse_odd: modulus too large");
      x = shr1(sum);
    } else {
      x = shr1(x);
    }
  };

  U256 u = a, v = m;
  U256 x1 = U256::one(), x2 = U256::zero();
  while (!(u == U256::one()) && !(v == U256::one())) {
    while (!u.is_odd()) {
      u = shr1(u);
      halve_mod(x1);
    }
    while (!v.is_odd()) {
      v = shr1(v);
      halve_mod(x2);
    }
    if (!(cmp(u, v) < 0)) {
      U256 diff;
      sub_borrow(diff, u, v);
      u = diff;
      x1 = sub_mod(x1, x2, m);
    } else {
      U256 diff;
      sub_borrow(diff, v, u);
      v = diff;
      x2 = sub_mod(x2, x1, m);
    }
    if (u.is_zero() || v.is_zero())
      throw Error("mod_inverse_odd: not coprime");
  }
  return u == U256::one() ? x1 : x2;
}

U256 U256::from_dec(std::string_view dec) {
  if (dec.empty()) throw Error("U256: empty decimal");
  U256 out;
  for (char c : dec) {
    if (c < '0' || c > '9') throw Error("U256: bad decimal digit");
    out = mul10_add(out, static_cast<u64>(c - '0'));
  }
  return out;
}

U256 U256::from_bytes(BytesView be) {
  if (be.size() > 32) throw Error("U256: more than 32 bytes");
  U256 out;
  for (std::uint8_t b : be) {
    // out = out << 8 | b
    u64 carry = b;
    for (int i = 0; i < 4; ++i) {
      const u64 next = out.limb[i] >> 56;
      out.limb[i] = out.limb[i] << 8 | carry;
      carry = next;
    }
  }
  return out;
}

Bytes U256::to_bytes() const {
  Bytes out(32);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 8; ++j)
      out[31 - (i * 8 + j)] = static_cast<std::uint8_t>(limb[i] >> (8 * j));
  return out;
}

unsigned U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != 0)
      return static_cast<unsigned>(64 * i + 64 - __builtin_clzll(limb[i]));
  }
  return 0;
}

}  // namespace peace::math
