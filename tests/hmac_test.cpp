#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include "formatters.hpp"

namespace peace::crypto {
namespace {

// RFC 4231 test vectors.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, as_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(as_bytes("Jefe"),
                               as_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, as_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DifferentKeysDiffer) {
  EXPECT_NE(hmac_sha256(as_bytes("k1"), as_bytes("m")),
            hmac_sha256(as_bytes("k2"), as_bytes("m")));
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = from_hex("000102030405060708090a0b0c");
  const Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, EmptySaltAllowed) {
  const Bytes okm = hkdf({}, as_bytes("secret"), as_bytes("ctx"), 64);
  EXPECT_EQ(okm.size(), 64u);
}

TEST(Hkdf, LengthLimit) {
  EXPECT_THROW(hkdf_expand(Bytes(32, 1), {}, 255 * 32 + 1), Error);
  EXPECT_EQ(hkdf_expand(Bytes(32, 1), {}, 255 * 32).size(), 255u * 32);
}

TEST(Hkdf, InfoSeparatesOutputs) {
  const Bytes prk = hkdf_extract(as_bytes("salt"), as_bytes("ikm"));
  EXPECT_NE(hkdf_expand(prk, as_bytes("enc"), 32),
            hkdf_expand(prk, as_bytes("mac"), 32));
}

}  // namespace
}  // namespace peace::crypto
