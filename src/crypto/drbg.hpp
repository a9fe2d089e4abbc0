// Deterministic random bit generator built on ChaCha20, with forward
// secrecy via key ratcheting. Every randomized component in the library
// takes a Drbg& so whole simulations are reproducible from one seed.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"
#include "common/serde.hpp"

namespace peace::crypto {

class Drbg {
 public:
  /// Seeds from arbitrary entropy (hashed to the cipher key).
  explicit Drbg(BytesView seed);
  /// Convenience: seed from a label + counter (tests, simulations).
  static Drbg from_string(std::string_view label, std::uint64_t n = 0);
  /// Seeds from the OS entropy source (/dev/urandom). Throws on failure.
  static Drbg from_os_entropy();

  void fill(std::uint8_t* out, std::size_t len);
  Bytes bytes(std::size_t len);
  std::uint64_t next_u64();
  /// Uniform in [0, bound) by rejection sampling; bound must be nonzero.
  std::uint64_t uniform(std::uint64_t bound);
  /// Uniform double in [0, 1).
  double uniform_real();

  /// Forks an independent child generator (parent state advances).
  Drbg fork(std::string_view label);

  /// Serializes the full generator state (key, counter, output cache) so a
  /// restored generator continues the exact output stream. Intended for the
  /// operator persistence layer's durable store only: the exported bytes
  /// include the unconsumed keystream cache, so the forward-secrecy
  /// guarantee of the ratchet does not extend to captured state exports.
  Bytes export_state() const;
  static Drbg import_state(BytesView data);

 private:
  Drbg() = default;  // used by import_state

  void ratchet();

  friend struct peace::FieldAccess;
  static void fields(auto& io, auto& s) {
    io(Tag{"peace/drbg-state-v1"}, s.key_, s.block_counter_, s.cache_,
       s.cache_pos_);
  }

  Bytes key_;            // 32 bytes
  std::uint64_t block_counter_ = 0;
  Bytes cache_;
  std::size_t cache_pos_ = 0;
};

}  // namespace peace::crypto

namespace peace {

/// Field-list leaf for state images: the export_state() bytes,
/// length-prefixed.
void put(Writer& w, const crypto::Drbg& d);
void get(Reader& r, crypto::Drbg& d);

}  // namespace peace
