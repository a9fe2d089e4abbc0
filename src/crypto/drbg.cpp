#include "crypto/drbg.hpp"

#include <cstdio>

#include "common/serde.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/sha256.hpp"

namespace peace::crypto {

namespace {
constexpr std::size_t kCacheBlocks = 16;  // 1 KiB of keystream per refill
}

Drbg::Drbg(BytesView seed) : key_(Sha256::hash(seed)) {}

Drbg Drbg::from_string(std::string_view label, std::uint64_t n) {
  Bytes seed = to_bytes(label);
  for (int i = 0; i < 8; ++i)
    seed.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
  return Drbg(seed);
}

Drbg Drbg::from_os_entropy() {
  Bytes seed(48);
  std::FILE* f = std::fopen("/dev/urandom", "rb");
  if (f == nullptr) throw Error("drbg: cannot open /dev/urandom");
  const std::size_t got = std::fread(seed.data(), 1, seed.size(), f);
  std::fclose(f);
  if (got != seed.size()) throw Error("drbg: short read from /dev/urandom");
  return Drbg(seed);
}

void Drbg::ratchet() {
  Bytes nonce(ChaCha20::kNonceSize, 0);
  for (int i = 0; i < 8; ++i)
    nonce[i] = static_cast<std::uint8_t>(block_counter_ >> (8 * i));
  ++block_counter_;
  // Generate key material + output cache, then ratchet the key forward so
  // past output cannot be reconstructed from a captured state.
  ChaCha20 cipher(key_, nonce, 0);
  Bytes stream(32 + kCacheBlocks * 64, 0);
  cipher.crypt(stream.data(), stream.size());
  key_.assign(stream.begin(), stream.begin() + 32);
  cache_.assign(stream.begin() + 32, stream.end());
  cache_pos_ = 0;
}

void Drbg::fill(std::uint8_t* out, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (cache_pos_ == cache_.size()) ratchet();
    out[i] = cache_[cache_pos_++];
  }
}

Bytes Drbg::bytes(std::size_t len) {
  Bytes out(len);
  fill(out.data(), len);
  return out;
}

std::uint64_t Drbg::next_u64() {
  std::uint8_t buf[8];
  fill(buf, 8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = v << 8 | buf[i];
  return v;
}

std::uint64_t Drbg::uniform(std::uint64_t bound) {
  if (bound == 0) throw Error("drbg: zero bound");
  const std::uint64_t limit = ~std::uint64_t{0} - ~std::uint64_t{0} % bound;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

double Drbg::uniform_real() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

Drbg Drbg::fork(std::string_view label) {
  Bytes seed = bytes(32);
  append(seed, as_bytes(label));
  return Drbg(seed);
}

Bytes Drbg::export_state() const { return encode(*this); }

Drbg Drbg::import_state(BytesView data) {
  Drbg d;
  decode_into(data, d);
  if (d.key_.size() != 32 || d.cache_pos_ > d.cache_.size())
    throw Error("drbg: malformed state");
  return d;
}

}  // namespace peace::crypto

namespace peace {

void put(Writer& w, const crypto::Drbg& d) { w.bytes(d.export_state()); }
void get(Reader& r, crypto::Drbg& d) {
  d = crypto::Drbg::import_state(r.bytes());
}

}  // namespace peace
