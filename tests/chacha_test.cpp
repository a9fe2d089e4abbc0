#include "crypto/chacha20.hpp"

#include <gtest/gtest.h>

#include "crypto/poly1305.hpp"
#include "formatters.hpp"

namespace peace::crypto {
namespace {

const char* kSunscreen =
    "Ladies and Gentlemen of the class of '99: If I could offer you "
    "only one tip for the future, sunscreen would be it.";

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 section 2.4.2.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  const Bytes nonce = from_hex("000000000000004a00000000");
  ChaCha20 c(key, nonce, 1);
  const Bytes ct = c.crypt_copy(as_bytes(kSunscreen));
  EXPECT_EQ(to_hex(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, EncryptDecryptRoundTrip) {
  const Bytes key(32, 0x42);
  const Bytes nonce(12, 0x24);
  ChaCha20 enc(key, nonce);
  const Bytes ct = enc.crypt_copy(as_bytes("round trip me please"));
  ChaCha20 dec(key, nonce);
  const Bytes pt = dec.crypt_copy(ct);
  EXPECT_EQ(pt, to_bytes("round trip me please"));
}

TEST(ChaCha20, StreamingMatchesOneShot) {
  const Bytes key(32, 7);
  const Bytes nonce(12, 9);
  Bytes msg(300);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i);
  ChaCha20 whole(key, nonce);
  const Bytes expect = whole.crypt_copy(msg);
  ChaCha20 chunked(key, nonce);
  Bytes got = msg;
  chunked.crypt(got.data(), 1);
  chunked.crypt(got.data() + 1, 63);
  chunked.crypt(got.data() + 64, 100);
  chunked.crypt(got.data() + 164, msg.size() - 164);
  EXPECT_EQ(got, expect);
}

TEST(ChaCha20, RejectsBadSizes) {
  EXPECT_THROW(ChaCha20(Bytes(31, 0), Bytes(12, 0)), Error);
  EXPECT_THROW(ChaCha20(Bytes(32, 0), Bytes(11, 0)), Error);
}

TEST(ChaCha20, BlockFunctionPolyKey) {
  // RFC 8439 section 2.6.2: Poly1305 key generation.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(0x80 + i);
  const Bytes nonce = from_hex("000000000001020304050607");
  const auto block = ChaCha20::block(key, nonce, 0);
  EXPECT_EQ(to_hex({block.data(), 32}),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646");
}

TEST(Poly1305, Rfc8439Vector) {
  const Bytes key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  const Bytes tag =
      Poly1305::mac(key, as_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(to_hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  const Bytes key(32, 0x33);
  Bytes msg(100);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 3);
  Poly1305 p(key);
  p.update({msg.data(), 10});
  p.update({msg.data() + 10, 22});
  p.update({msg.data() + 32, 68});
  auto t = p.finalize();
  EXPECT_EQ(Bytes(t.begin(), t.end()), Poly1305::mac(key, msg));
}

TEST(Poly1305, EmptyMessage) {
  const Bytes key(32, 0x01);
  EXPECT_EQ(Poly1305::mac(key, {}).size(), 16u);
}

TEST(Poly1305, KeyMatters) {
  EXPECT_NE(Poly1305::mac(Bytes(32, 1), as_bytes("m")),
            Poly1305::mac(Bytes(32, 2), as_bytes("m")));
}

}  // namespace
}  // namespace peace::crypto
