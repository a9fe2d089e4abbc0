#include "math/bigint.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "formatters.hpp"

namespace peace::math {
namespace {

TEST(BigInt, DecimalRoundTrip) {
  const char* cases[] = {
      "0", "1", "18446744073709551616",
      "340282366920938463463374607431768211455",
      "179769313486231590772930519078902473361797697894230657273430081157732675805500963132708477322407536021120113879871393357658789768814416622492847430639474124377767893424865485276302219601246094119453082952085005768838150682342462881473913110540827237163350510684586298239947245938479716304835356329624224137216"};
  for (const char* c : cases) EXPECT_EQ(to_dec(bigint_from_dec(c)), c);
}

TEST(BigInt, AddSub) {
  const BigInt a = bigint_from_dec("123456789012345678901234567890");
  const BigInt b = bigint_from_dec("987654321098765432109876543210");
  EXPECT_EQ(to_dec(a + b), "1111111110111111111011111111100");
  EXPECT_EQ(to_dec(b - a), "864197532086419753208641975320");
  EXPECT_THROW(a - b, Error);
}

TEST(BigInt, Mul) {
  const BigInt a = bigint_from_dec("123456789");
  const BigInt b = bigint_from_dec("987654321");
  EXPECT_EQ(to_dec(a * b), "121932631112635269");
  EXPECT_TRUE((a * BigInt()).is_zero());
}

TEST(BigInt, DivMod) {
  const BigInt a = bigint_from_dec("10000000000000000000000000000000000000001");
  const BigInt b = bigint_from_dec("9999999999999");
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ((q * b + r), a);
  EXPECT_LT(BigInt::cmp(r, b), 0);
  EXPECT_THROW(a / BigInt(), Error);
}

TEST(BigInt, DivSmallCases) {
  EXPECT_EQ((BigInt(100) / BigInt(7)).to_u64(), 14u);
  EXPECT_EQ((BigInt(100) % BigInt(7)).to_u64(), 2u);
  EXPECT_EQ((BigInt(5) / BigInt(100)).to_u64(), 0u);
  EXPECT_EQ((BigInt(5) % BigInt(100)).to_u64(), 5u);
}

TEST(BigInt, Shifts) {
  const BigInt a = bigint_from_dec("123456789012345678901234567890");
  EXPECT_EQ(((a << 67) >> 67), a);
  EXPECT_EQ(to_dec(BigInt(1) << 128),
            "340282366920938463463374607431768211456");
  EXPECT_TRUE((BigInt(1) >> 1).is_zero());
}

TEST(BigInt, BitLength) {
  EXPECT_EQ(BigInt().bit_length(), 0u);
  EXPECT_EQ(BigInt(1).bit_length(), 1u);
  EXPECT_EQ(BigInt(255).bit_length(), 8u);
  EXPECT_EQ((BigInt(1) << 130).bit_length(), 131u);
}

TEST(BigInt, ModPow) {
  // 2^10 mod 1000 = 24
  EXPECT_EQ(BigInt::mod_pow(BigInt(2), BigInt(10), BigInt(1000)).to_u64(), 24u);
  // Fermat: a^(p-1) = 1 mod p for prime p = 1000003.
  const BigInt p(1000003);
  EXPECT_EQ(BigInt::mod_pow(BigInt(123456), p - BigInt(1), p).to_u64(), 1u);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)).to_u64(), 12u);
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(31)).to_u64(), 1u);
  EXPECT_EQ(BigInt::gcd(BigInt(), BigInt(5)).to_u64(), 5u);
}

TEST(BigInt, ModInverse) {
  const BigInt m(97);
  for (std::uint64_t a = 1; a < 97; ++a) {
    const BigInt inv = BigInt::mod_inverse(BigInt(a), m);
    EXPECT_EQ(((BigInt(a) * inv) % m).to_u64(), 1u) << a;
  }
  EXPECT_THROW(BigInt::mod_inverse(BigInt(6), BigInt(9)), Error);
}

TEST(BigInt, ModInverseLarge) {
  const BigInt m = bigint_from_dec(
      "21888242871839275222246405745257275088548364400416034343698204186575808495617");
  const BigInt a = bigint_from_dec("1234567890123456789012345678901234567890");
  const BigInt inv = BigInt::mod_inverse(a, m);
  EXPECT_EQ(((a * inv) % m).to_u64(), 1u);
}

TEST(BigInt, BytesRoundTrip) {
  const BigInt a = bigint_from_dec("1208925819614629174706175");  // 2^80-1
  const Bytes b = a.to_bytes();
  EXPECT_EQ(b.size(), 10u);
  EXPECT_EQ(BigInt::from_bytes(b), a);
  EXPECT_EQ(a.to_bytes(16).size(), 16u);
  EXPECT_EQ(BigInt::from_bytes(a.to_bytes(16)), a);
}

TEST(BigInt, U256RoundTrip) {
  const U256 v = U256::from_dec(
      "21888242871839275222246405745257275088696311157297823662689037894645226208583");
  EXPECT_EQ(BigInt::from_u256(v).to_u256(), v);
  EXPECT_THROW((BigInt(1) << 256).to_u256(), Error);
}

TEST(BigInt, MillerRabinKnownPrimes) {
  crypto::Drbg rng = crypto::Drbg::from_string("miller-rabin-test");
  auto rand_below = [&rng](const BigInt& n) {
    return [&rng, n]() {
      const std::size_t len = (n.bit_length() + 7) / 8;
      for (;;) {
        const BigInt cand = BigInt::from_bytes(rng.bytes(len));
        if (BigInt::cmp(cand, BigInt(2)) >= 0 &&
            BigInt::cmp(cand, n - BigInt(2)) <= 0)
          return cand;
      }
    };
  };
  const char* primes[] = {"2", "3", "5", "104729", "1000003",
                          "170141183460469231731687303715884105727"};  // 2^127-1
  for (const char* p : primes) {
    const BigInt n = bigint_from_dec(p);
    EXPECT_TRUE(BigInt::is_probable_prime(n, 20, rand_below(n))) << p;
  }
  const char* composites[] = {"4", "1000005", "561", "41041",  // Carmichaels
                              "170141183460469231731687303715884105725"};
  for (const char* c : composites) {
    const BigInt n = bigint_from_dec(c);
    EXPECT_FALSE(BigInt::is_probable_prime(n, 20, rand_below(n))) << c;
  }
}

class BigIntDivProperty : public ::testing::TestWithParam<int> {};

TEST_P(BigIntDivProperty, QuotientRemainderIdentity) {
  crypto::Drbg rng = crypto::Drbg::from_string("bigint-div", GetParam());
  const BigInt a = BigInt::from_bytes(rng.bytes(1 + GetParam() * 7));
  const BigInt b = BigInt::from_bytes(rng.bytes(1 + GetParam() * 3)) + BigInt(1);
  BigInt q, r;
  BigInt::divmod(a, b, q, r);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(BigInt::cmp(r, b), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BigIntDivProperty, ::testing::Range(1, 20));

}  // namespace
}  // namespace peace::math
