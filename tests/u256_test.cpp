#include "math/u256.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace peace::math {
namespace {

TEST(U256, ZeroAndOne) {
  EXPECT_TRUE(U256::zero().is_zero());
  EXPECT_FALSE(U256::one().is_zero());
  EXPECT_TRUE(U256::one().is_odd());
  EXPECT_EQ(U256::one().bit_length(), 1u);
  EXPECT_EQ(U256::zero().bit_length(), 0u);
}

TEST(U256, DecimalRoundTrip) {
  const char* cases[] = {
      "0", "1", "10", "255", "18446744073709551615", "18446744073709551616",
      "21888242871839275222246405745257275088696311157297823662689037894645226208583"};
  for (const char* c : cases) {
    EXPECT_EQ(U256::from_dec(c).to_dec(), c) << c;
  }
}

TEST(U256, HexRoundTrip) {
  const U256 v = U256::from_dec("123456789012345678901234567890");
  EXPECT_EQ(U256::from_hex(v.to_hex()), v);
}

TEST(U256, DecimalRejectsGarbage) {
  EXPECT_THROW(U256::from_dec(""), Error);
  EXPECT_THROW(U256::from_dec("12a"), Error);
  // 2^256 overflows.
  EXPECT_THROW(
      U256::from_dec("115792089237316195423570985008687907853269984665640564039457584007913129639936"),
      Error);
}

TEST(U256, BytesRoundTrip) {
  const U256 v = U256::from_dec("98765432109876543210987654321098765432");
  const Bytes b = v.to_bytes();
  EXPECT_EQ(b.size(), 32u);
  EXPECT_EQ(U256::from_bytes(b), v);
}

TEST(U256, FromBytesShortInput) {
  const Bytes b = {0x01, 0x02};
  EXPECT_EQ(U256::from_bytes(b), U256(0x0102));
}

TEST(U256, FromBytesRejectsLong) {
  const Bytes b(33, 0xff);
  EXPECT_THROW(U256::from_bytes(b), Error);
}

TEST(U256, AddCarryPropagates) {
  const U256 max{~0ull, ~0ull, ~0ull, ~0ull};
  U256 out;
  EXPECT_EQ(add_carry(out, max, U256::one()), 1u);
  EXPECT_TRUE(out.is_zero());
}

TEST(U256, SubBorrow) {
  U256 out;
  EXPECT_EQ(sub_borrow(out, U256::zero(), U256::one()), 1u);
  const U256 max{~0ull, ~0ull, ~0ull, ~0ull};
  EXPECT_EQ(out, max);
  EXPECT_EQ(sub_borrow(out, U256(5), U256(3)), 0u);
  EXPECT_EQ(out, U256(2));
}

TEST(U256, AddSubInverse) {
  const U256 a = U256::from_dec("314159265358979323846264338327950288419716939937");
  const U256 b = U256::from_dec("271828182845904523536028747135266249775724709369");
  U256 sum, diff;
  ASSERT_EQ(add_carry(sum, a, b), 0u);
  ASSERT_EQ(sub_borrow(diff, sum, b), 0u);
  EXPECT_EQ(diff, a);
}

TEST(U256, MulWideSmall) {
  const auto prod = mul_wide(U256(0xFFFFFFFFFFFFFFFFull), U256(2));
  EXPECT_EQ(prod[0], 0xFFFFFFFFFFFFFFFEull);
  EXPECT_EQ(prod[1], 1ull);
  for (int i = 2; i < 8; ++i) EXPECT_EQ(prod[i], 0ull);
}

TEST(U256, MulWideCross) {
  // (2^64 + 1)^2 = 2^128 + 2^65 + ... check limb pattern.
  const U256 v{1, 1, 0, 0};
  const auto prod = mul_wide(v, v);
  EXPECT_EQ(prod[0], 1ull);
  EXPECT_EQ(prod[1], 2ull);
  EXPECT_EQ(prod[2], 1ull);
  EXPECT_EQ(prod[3], 0ull);
}

TEST(U256, Shifts) {
  const U256 v = U256::from_dec("123456789123456789");
  EXPECT_EQ(shr1(shl1(v)), v);
  EXPECT_EQ(shl1(U256(1)), U256(2));
  U256 top;
  top.limb[3] = 0x8000000000000000ull;
  EXPECT_TRUE(shl1(top).is_zero());
}

TEST(U256, Cmp) {
  const U256 a(5), b(7);
  EXPECT_LT(cmp(a, b), 0);
  EXPECT_GT(cmp(b, a), 0);
  EXPECT_EQ(cmp(a, a), 0);
  U256 high;
  high.limb[3] = 1;
  EXPECT_GT(cmp(high, b), 0);
}

TEST(U256, AddModWraps) {
  const U256 m(97);
  EXPECT_EQ(add_mod(U256(96), U256(5), m), U256(4));
  EXPECT_EQ(add_mod(U256(0), U256(0), m), U256(0));
}

TEST(U256, SubModWraps) {
  const U256 m(97);
  EXPECT_EQ(sub_mod(U256(3), U256(5), m), U256(95));
  EXPECT_EQ(sub_mod(U256(5), U256(3), m), U256(2));
}

TEST(U256, DivmodSmall) {
  std::uint64_t rem = 0;
  const U256 q = divmod_small(U256::from_dec("1000000000000000000000"), 7, rem);
  EXPECT_EQ(q.to_dec(), "142857142857142857142");
  EXPECT_EQ(rem, 6u);
  EXPECT_THROW(divmod_small(U256(1), 0, rem), Error);
}

TEST(U256, BitAccess) {
  const U256 v(0b1011);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_EQ(v.bit_length(), 4u);
}

TEST(U256, CarryPrimitivesMatchU128Oracle) {
  // The intrinsic carry chain (addc/subb) against its unsigned __int128
  // form, over edge limbs and splitmix64 draws, with carry/borrow in 0 and 1.
  std::vector<std::uint64_t> limbs = {0, 1, 2, ~0ull, ~0ull - 1, 1ull << 63};
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < 12; ++i) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    limbs.push_back(z ^ (z >> 31));
  }
  for (std::uint64_t a : limbs) {
    for (std::uint64_t b : limbs) {
      for (unsigned char c : {0, 1}) {
        std::uint64_t got = 0, want = 0;
        EXPECT_EQ(addc(c, a, b, got), addc_u128(c, a, b, want));
        EXPECT_EQ(got, want);
        EXPECT_EQ(subb(c, a, b, got), subb_u128(c, a, b, want));
        EXPECT_EQ(got, want);
      }
    }
  }
  // The all-ones and all-zero chains, spelled out.
  std::uint64_t out = 0;
  EXPECT_EQ(addc(1, ~0ull, ~0ull, out), 1);
  EXPECT_EQ(out, ~0ull);
  EXPECT_EQ(subb(1, 0, ~0ull, out), 1);
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(addc(0, 0, 0, out), 0);
  EXPECT_EQ(out, 0u);
  EXPECT_EQ(subb(0, 0, 0, out), 0);
  EXPECT_EQ(out, 0u);
}

TEST(U256, FullWidthChains) {
  const U256 max{~0ull, ~0ull, ~0ull, ~0ull};
  U256 out;
  EXPECT_EQ(add_carry(out, max, max), 1u);  // 2^257 - 2
  EXPECT_EQ(out, U256(~0ull - 1, ~0ull, ~0ull, ~0ull));
  EXPECT_EQ(sub_borrow(out, U256::zero(), max), 1u);
  EXPECT_EQ(out, U256::one());
  EXPECT_EQ(sub_borrow(out, max, max), 0u);
  EXPECT_TRUE(out.is_zero());
  const auto sq = mul_wide(max, max);  // 2^512 - 2^257 + 1
  EXPECT_EQ(sq[0], 1u);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(sq[i], 0u);
  EXPECT_EQ(sq[4], ~0ull - 1);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(sq[i], ~0ull);
}

class U256Param : public ::testing::TestWithParam<int> {};

TEST_P(U256Param, MulWideMatchesRepeatedAdd) {
  // a * k via mul_wide equals k-fold modular-free addition, for small k.
  const U256 a = U256::from_dec("987654321987654321987654321");
  const int k = GetParam();
  const auto wide = mul_wide(a, U256(static_cast<std::uint64_t>(k)));
  U256 sum;
  for (int i = 0; i < k; ++i) {
    U256 next;
    ASSERT_EQ(add_carry(next, sum, a), 0u);
    sum = next;
  }
  EXPECT_EQ(U256(wide[0], wide[1], wide[2], wide[3]), sum);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(wide[i], 0u);
}

INSTANTIATE_TEST_SUITE_P(SmallFactors, U256Param,
                         ::testing::Values(0, 1, 2, 3, 7, 16, 31, 100));

}  // namespace
}  // namespace peace::math
