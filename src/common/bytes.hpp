// Byte-buffer utilities shared by every module: the `Bytes` alias, hex
// conversion, and constant-time comparison for secret material.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace peace {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Error type thrown by all PEACE modules for malformed input, failed
/// verification preconditions, and protocol violations.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Lowercase hex encoding of a byte string.
std::string to_hex(BytesView data);

/// Byte view over a string's contents (no copy).
inline BytesView as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Copies a string into a fresh byte buffer.
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Appends `src` to `dst`.
inline void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// Concatenates any number of byte views.
template <typename... Views>
Bytes concat(const Views&... views) {
  Bytes out;
  (append(out, BytesView(views)), ...);
  return out;
}

/// Constant-time equality: runtime depends only on the lengths, never on the
/// contents, so MAC/tag comparisons do not leak via timing.
bool ct_equal(BytesView a, BytesView b);

/// XORs `b` into `a` (up to the shorter length). Used for the A xor x
/// blinding in PEACE setup, where x may be longer than A (paper footnote 1:
/// surplus bits of x are ignored).
Bytes xor_bytes(BytesView a, BytesView b);

}  // namespace peace
