// Text forms of bytes and big integers for test vectors and failure
// messages. The library itself never parses or prints numbers as text; its
// one text leaf, peace::to_hex, keys in-memory maps.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>

#include "common/bytes.hpp"
#include "math/bigint.hpp"

namespace peace {

/// Parses lowercase/uppercase hex. Throws Error on odd length or bad digit.
inline Bytes from_hex(std::string_view hex) {
  const auto value = [](char c) {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  if (hex.size() % 2 != 0) throw Error("from_hex: odd length");
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = value(hex[i]);
    const int lo = value(hex[i + 1]);
    if (hi < 0 || lo < 0) throw Error("from_hex: invalid digit");
    out.push_back(static_cast<std::uint8_t>(hi << 4 | lo));
  }
  return out;
}

namespace math {

/// Parses a base-10 string. Throws Error on an empty string or bad digit.
inline BigInt bigint_from_dec(std::string_view dec) {
  if (dec.empty()) throw Error("BigInt: empty decimal");
  BigInt out;
  for (char c : dec) {
    if (c < '0' || c > '9') throw Error("BigInt: bad decimal digit");
    out = out * BigInt(10) + BigInt(static_cast<std::uint64_t>(c - '0'));
  }
  return out;
}

inline std::string to_dec(const BigInt& x) {
  if (x.is_zero()) return "0";
  BigInt cur = x;
  const BigInt ten(10);
  std::string out;
  while (!cur.is_zero()) {
    BigInt q, r;
    BigInt::divmod(cur, ten, q, r);
    out.push_back(static_cast<char>('0' + r.to_u64()));
    cur = q;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

inline std::string to_dec(const U256& x) {
  return to_dec(BigInt::from_u256(x));
}

inline std::string to_hex(const U256& x) { return peace::to_hex(x.to_bytes()); }

}  // namespace math
}  // namespace peace
