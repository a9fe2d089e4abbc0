// Field axioms and Montgomery correctness for Fp and Fr, cross-checked
// against BigInt arithmetic as an independent oracle.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "crypto/drbg.hpp"
#include "curve/bn254.hpp"
#include "curve/ecdsa.hpp"
#include "formatters.hpp"
#include "math/bigint.hpp"

namespace peace::math {
namespace {

using curve::Bn254;

class FieldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { Bn254::init(); }
};

TEST_F(FieldTest, Identity) {
  EXPECT_TRUE(Fp::zero().is_zero());
  EXPECT_EQ(Fp::one() * Fp::one(), Fp::one());
  EXPECT_EQ(Fp::one() + Fp::zero(), Fp::one());
  EXPECT_EQ(Fp::one().to_u256(), U256::one());
}

TEST_F(FieldTest, FromU256RejectsOutOfRange) {
  EXPECT_THROW(Fp::from_u256(Fp::modulus()), Error);
  EXPECT_NO_THROW(Fp::from_u256(U256::zero()));
}

TEST_F(FieldTest, ReInitWithDifferentModulusRejected) {
  EXPECT_THROW(Fp::init(U256(101)), Error);
  EXPECT_NO_THROW(Fp::init(Bn254::get().p));
}

TEST_F(FieldTest, AddMatchesBigInt) {
  crypto::Drbg rng = crypto::Drbg::from_string("field-add");
  const BigInt p = BigInt::from_u256(Fp::modulus());
  for (int i = 0; i < 50; ++i) {
    const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
    const Fp b = Fp::from_bytes_reduce(rng.bytes(32));
    const BigInt expect =
        (BigInt::from_u256(a.to_u256()) + BigInt::from_u256(b.to_u256())) % p;
    EXPECT_EQ((a + b).to_u256(), expect.to_u256());
  }
}

TEST_F(FieldTest, MulMatchesBigInt) {
  crypto::Drbg rng = crypto::Drbg::from_string("field-mul");
  const BigInt p = BigInt::from_u256(Fp::modulus());
  for (int i = 0; i < 50; ++i) {
    const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
    const Fp b = Fp::from_bytes_reduce(rng.bytes(32));
    const BigInt expect =
        (BigInt::from_u256(a.to_u256()) * BigInt::from_u256(b.to_u256())) % p;
    EXPECT_EQ((a * b).to_u256(), expect.to_u256());
  }
}

TEST_F(FieldTest, SubNegation) {
  crypto::Drbg rng = crypto::Drbg::from_string("field-sub");
  for (int i = 0; i < 20; ++i) {
    const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
    const Fp b = Fp::from_bytes_reduce(rng.bytes(32));
    EXPECT_EQ(a - b, a + (-b));
    EXPECT_TRUE((a - a).is_zero());
    EXPECT_EQ(-(-a), a);
  }
  EXPECT_EQ(-Fp::zero(), Fp::zero());
}

TEST_F(FieldTest, InverseRoundTrip) {
  crypto::Drbg rng = crypto::Drbg::from_string("field-inv");
  for (int i = 0; i < 20; ++i) {
    const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
    if (a.is_zero()) continue;
    EXPECT_EQ(a * a.inverse(), Fp::one());
  }
  EXPECT_THROW(Fp::zero().inverse(), Error);
}

TEST_F(FieldTest, FastInverseMatchesFermat) {
  // The binary-eGCD inverse must agree with the independent Fermat path.
  crypto::Drbg rng = crypto::Drbg::from_string("field-inv-x");
  for (int i = 0; i < 50; ++i) {
    const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
    if (a.is_zero()) continue;
    EXPECT_EQ(a.inverse(), a.inverse_fermat());
  }
  EXPECT_EQ(Fp::one().inverse(), Fp::one());
  // Small values and edge values.
  for (std::uint64_t v : {2ull, 3ull, 0xffffffffffffffffull}) {
    const Fp a = Fp::from_u64(v);
    EXPECT_EQ(a.inverse(), a.inverse_fermat()) << v;
  }
  const Fp pm1 = -Fp::one();
  EXPECT_EQ(pm1.inverse(), pm1);  // (-1)^-1 = -1
}

TEST_F(FieldTest, ModInverseOddRejectsBadInput) {
  EXPECT_THROW(mod_inverse_odd(U256::zero(), U256(7)), Error);
  EXPECT_THROW(mod_inverse_odd(U256(3), U256(8)), Error);   // even modulus
  EXPECT_THROW(mod_inverse_odd(U256(3), U256(9)), Error);   // not coprime
  EXPECT_EQ(mod_inverse_odd(U256(3), U256(7)), U256(5));    // 3*5 = 15 = 1 mod 7
}

TEST_F(FieldTest, PowMatchesBigInt) {
  crypto::Drbg rng = crypto::Drbg::from_string("field-pow");
  const BigInt p = BigInt::from_u256(Fp::modulus());
  for (int i = 0; i < 10; ++i) {
    const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
    const U256 e = U256::from_bytes(rng.bytes(8));
    const BigInt expect = BigInt::mod_pow(BigInt::from_u256(a.to_u256()),
                                          BigInt::from_u256(e), p);
    EXPECT_EQ(a.pow(e).to_u256(), expect.to_u256());
  }
}

TEST_F(FieldTest, PowEdgeCases) {
  const Fp a = Fp::from_u64(12345);
  EXPECT_EQ(a.pow(U256::zero()), Fp::one());
  EXPECT_EQ(a.pow(U256::one()), a);
  EXPECT_EQ(Fp::zero().pow(U256(5)), Fp::zero());
}

TEST_F(FieldTest, FermatLittleTheorem) {
  const Fp a = Fp::from_u64(987654321);
  U256 pm1;
  sub_borrow(pm1, Fp::modulus(), U256::one());
  EXPECT_EQ(a.pow(pm1), Fp::one());
}

TEST_F(FieldTest, SqrtOfSquares) {
  crypto::Drbg rng = crypto::Drbg::from_string("field-sqrt");
  for (int i = 0; i < 20; ++i) {
    const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
    const Fp sq = a.square();
    Fp root;
    ASSERT_TRUE(sq.sqrt(root));
    EXPECT_TRUE(root == a || root == -a);
  }
}

TEST_F(FieldTest, SqrtOfNonResidueFails) {
  // -1 is a non-residue mod p when p = 3 (mod 4).
  Fp root;
  EXPECT_FALSE((-Fp::one()).sqrt(root));
}

TEST_F(FieldTest, FrDistinctModulus) {
  EXPECT_FALSE(Fr::modulus() == Fp::modulus());
  const Fr a = Fr::from_u64(42);
  EXPECT_EQ((a * a.inverse()), Fr::one());
}

TEST_F(FieldTest, FromBytesReduceConsistent) {
  // Reducing p itself gives zero; p+1 gives one.
  const Bytes pb = Fp::modulus().to_bytes();
  EXPECT_TRUE(Fp::from_bytes_reduce(pb).is_zero());
  U256 p1;
  add_carry(p1, Fp::modulus(), U256::one());
  EXPECT_EQ(Fp::from_bytes_reduce(p1.to_bytes()), Fp::one());
}

TEST_F(FieldTest, SerializationRoundTrip) {
  crypto::Drbg rng = crypto::Drbg::from_string("field-serde");
  for (int i = 0; i < 20; ++i) {
    const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
    EXPECT_EQ(Fp::from_u256(U256::from_bytes(a.to_bytes())), a);
  }
}

// --- kernel edge values ----------------------------------------------------

BigInt wide_to_bigint(const std::array<std::uint64_t, 8>& limbs) {
  Bytes be;
  for (int i = 7; i >= 0; --i) {
    const Bytes part = U256(limbs[i]).to_bytes();
    be.insert(be.end(), part.end() - 8, part.end());
  }
  return BigInt::from_bytes(be);
}

U256 minus(const U256& a, std::uint64_t k) {
  U256 out;
  sub_borrow(out, a, U256(k));
  return out;
}

// +, -, negation and * of F on every pair of raw Montgomery
// representatives in `reps`, against BigInt: the kernel sees exactly these
// limbs, and each result must be the canonical representative.
template <class F>
void expect_kernel_matches_bigint(const std::vector<U256>& reps) {
  const BigInt p = BigInt::from_u256(F::modulus());
  const BigInt r_inv =
      BigInt::mod_inverse(BigInt::from_u256(F::params().r), p);
  for (const U256& x : reps) {
    const F a = F::from_mont(x);
    const BigInt ax = BigInt::from_u256(x);
    EXPECT_EQ((-a).mont(), ((p - ax) % p).to_u256()) << to_hex(x);
    for (const U256& y : reps) {
      const F b = F::from_mont(y);
      const BigInt by = BigInt::from_u256(y);
      EXPECT_EQ((a + b).mont(), ((ax + by) % p).to_u256());
      EXPECT_EQ((a - b).mont(), ((ax + p - by) % p).to_u256());
      EXPECT_EQ((a * b).mont(), (ax * by * r_inv % p).to_u256())
          << to_hex(x) << " * " << to_hex(y);
    }
  }
}

// Operands 0, 1, p-1, p-2, 2^253 and random values, both as standard-form
// values (mapped into Montgomery form) and as raw representatives.
template <class F>
void expect_edge_operands_match_bigint(const char* seed) {
  const U256& m = F::modulus();
  U256 two_253;
  two_253.limb[3] = 1ull << 61;
  std::vector<U256> values = {U256::zero(), U256::one(), minus(m, 1),
                              minus(m, 2), two_253};
  crypto::Drbg rng = crypto::Drbg::from_string(seed);
  for (int i = 0; i < 4; ++i)
    values.push_back(F::from_bytes_reduce(rng.bytes(32)).to_u256());
  std::vector<U256> standard;
  for (const U256& v : values) standard.push_back(F::from_u256(v).mont());
  expect_kernel_matches_bigint<F>(standard);
  expect_kernel_matches_bigint<F>(values);
}

TEST_F(FieldTest, FpKernelEdgeOperandsMatchBigInt) {
  expect_edge_operands_match_bigint<Fp>("fp-edges");
}

TEST_F(FieldTest, FrKernelEdgeOperandsMatchBigInt) {
  expect_edge_operands_match_bigint<Fr>("fr-edges");
}

// redc over its whole documented domain: k*p^2 + x for every bias k the
// table holds (x from 0 to p^2 - 1), and 2^512 - 1.
template <class F>
void expect_redc_matches_bigint(const char* seed) {
  const BigInt p = BigInt::from_u256(F::modulus());
  const BigInt r_inv =
      BigInt::mod_inverse(BigInt::from_u256(F::params().r), p);
  const auto& p2k = F::params().p2k;
  std::array<std::uint64_t, 8> p2_minus_1 = p2k[1];
  wide8_sub(p2_minus_1, FpWide{{1}}.limb);
  crypto::Drbg rng = crypto::Drbg::from_string(seed);
  const auto check = [&](const std::array<std::uint64_t, 8>& in) {
    EXPECT_EQ(F::redc(FpWide{in}).mont(),
              (wide_to_bigint(in) * r_inv % p).to_u256());
  };
  for (unsigned k = 0; k <= FieldParams::kMaxWideBias; ++k) {
    std::vector<std::array<std::uint64_t, 8>> xs = {FpWide{}.limb,
                                                    p2_minus_1};
    for (int i = 0; i < 3; ++i)
      xs.push_back(F::wide_mul(F::from_bytes_reduce(rng.bytes(32)),
                               F::from_bytes_reduce(rng.bytes(32)))
                       .limb);
    for (auto in : xs) {
      ASSERT_EQ(wide8_add(in, p2k[k]), 0u);
      check(in);
    }
  }
  std::array<std::uint64_t, 8> all_ones;
  all_ones.fill(~0ull);
  check(all_ones);
}

TEST_F(FieldTest, RedcMatchesBigIntOverItsDomain) {
  expect_redc_matches_bigint<Fp>("fp-redc");
  expect_redc_matches_bigint<Fr>("fr-redc");
}

TEST_F(FieldTest, FieldParamsRejectModulusOfTwoTo254OrMore) {
  // mont_mul's carry-free CIOS needs two spare top bits.
  U256 two_254_plus_1(1);
  two_254_plus_1.limb[3] = 1ull << 62;
  EXPECT_THROW(make_field_params(two_254_plus_1), Error);
  EXPECT_THROW(make_field_params(U256(~0ull, ~0ull, ~0ull, ~0ull)), Error);
  EXPECT_THROW(make_field_params(U256(8)), Error);  // even
  EXPECT_NO_THROW(make_field_params(Fp::modulus()));
  EXPECT_NO_THROW(make_field_params(Fr::modulus()));
}

// The largest admitted modulus, 2^254 - 1 (odd; Montgomery arithmetic
// needs no primality), is where the spare-bit bound is tightest.
struct TopModulusTag {};
using TopField = PrimeField<TopModulusTag>;

TEST_F(FieldTest, KernelAtLargestAdmittedModulus) {
  TopField::init(U256(~0ull, ~0ull, ~0ull, ~0ull >> 2));
  expect_edge_operands_match_bigint<TopField>("top-edges");
  U256 all_but_top(~0ull, ~0ull, ~0ull, ~0ull >> 3);
  expect_kernel_matches_bigint<TopField>(
      {all_but_top, minus(TopField::modulus(), 3)});
}

// Associativity/commutativity/distributivity over random triples.
class FieldAxioms : public ::testing::TestWithParam<int> {
 protected:
  static void SetUpTestSuite() { Bn254::init(); }
};

TEST_P(FieldAxioms, RingLaws) {
  crypto::Drbg rng = crypto::Drbg::from_string("field-axioms", GetParam());
  const Fp a = Fp::from_bytes_reduce(rng.bytes(32));
  const Fp b = Fp::from_bytes_reduce(rng.bytes(32));
  const Fp c = Fp::from_bytes_reduce(rng.bytes(32));
  EXPECT_EQ((a + b) + c, a + (b + c));
  EXPECT_EQ((a * b) * c, a * (b * c));
  EXPECT_EQ(a + b, b + a);
  EXPECT_EQ(a * b, b * a);
  EXPECT_EQ(a * (b + c), a * b + a * c);
  EXPECT_EQ(a.square(), a * a);
  EXPECT_EQ(a.dbl(), a + a);
}

INSTANTIATE_TEST_SUITE_P(Random, FieldAxioms, ::testing::Range(0, 25));

}  // namespace
}  // namespace peace::math
