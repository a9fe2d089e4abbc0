#include "common/bytes.hpp"

#include <algorithm>

namespace peace {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

bool ct_equal(BytesView a, BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

Bytes xor_bytes(BytesView a, BytesView b) {
  const std::size_t n = std::min(a.size(), b.size());
  Bytes out(a.begin(), a.end());
  for (std::size_t i = 0; i < n; ++i) out[i] ^= b[i];
  return out;
}

}  // namespace peace
