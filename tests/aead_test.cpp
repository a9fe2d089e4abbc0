#include "crypto/aead.hpp"

#include <gtest/gtest.h>

#include "formatters.hpp"

namespace peace::crypto {
namespace {

const char* kSunscreen =
    "Ladies and Gentlemen of the class of '99: If I could offer you "
    "only one tip for the future, sunscreen would be it.";

TEST(Aead, Rfc8439Vector) {
  // RFC 8439 section 2.8.2.
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(0x80 + i);
  const Bytes nonce = from_hex("070000004041424344454647");
  const Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  const Bytes sealed = aead_seal(key, nonce, aad, as_bytes(kSunscreen));
  EXPECT_EQ(to_hex(sealed),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b61161ae10b594f09e26a7e902ecbd060"
            "0691");
}

TEST(Aead, RoundTrip) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes sealed = aead_seal(key, nonce, as_bytes("hdr"), as_bytes("body"));
  const auto opened = aead_open(key, nonce, as_bytes("hdr"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, to_bytes("body"));
}

TEST(Aead, EmptyPlaintextAndAad) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes sealed = aead_seal(key, nonce, {}, {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  const auto opened = aead_open(key, nonce, {}, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

TEST(Aead, TamperedCiphertextRejected) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  Bytes sealed = aead_seal(key, nonce, {}, as_bytes("attack at dawn"));
  sealed[0] ^= 1;
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, TamperedTagRejected) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  Bytes sealed = aead_seal(key, nonce, {}, as_bytes("attack at dawn"));
  sealed.back() ^= 1;
  EXPECT_FALSE(aead_open(key, nonce, {}, sealed).has_value());
}

TEST(Aead, WrongAadRejected) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes sealed = aead_seal(key, nonce, as_bytes("a"), as_bytes("m"));
  EXPECT_FALSE(aead_open(key, nonce, as_bytes("b"), sealed).has_value());
}

TEST(Aead, WrongKeyOrNonceRejected) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  const Bytes sealed = aead_seal(key, nonce, {}, as_bytes("m"));
  EXPECT_FALSE(aead_open(Bytes(32, 0x12), nonce, {}, sealed).has_value());
  EXPECT_FALSE(aead_open(key, Bytes(12, 0x23), {}, sealed).has_value());
}

TEST(Aead, TruncatedInputRejected) {
  const Bytes key(32, 0x11);
  const Bytes nonce(12, 0x22);
  EXPECT_FALSE(aead_open(key, nonce, {}, Bytes(15, 0)).has_value());
}

}  // namespace
}  // namespace peace::crypto
