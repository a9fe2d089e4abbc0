// Arbitrary-precision unsigned integers. Used for the RSA-1024 baseline
// (keygen, modexp, Miller-Rabin) and for deriving the pairing final-
// exponentiation exponent (p^4 - p^2 + 1)/r at startup. Not performance
// critical; clarity over speed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "math/u256.hpp"

namespace peace::math {

class BigInt {
 public:
  BigInt() = default;
  explicit BigInt(std::uint64_t v);

  static BigInt from_bytes(BytesView be);
  static BigInt from_u256(const U256& v);

  /// Big-endian, minimal length (empty for zero) unless `min_len` pads.
  Bytes to_bytes(std::size_t min_len = 0) const;
  /// Throws if the value does not fit in 256 bits.
  U256 to_u256() const;
  std::uint64_t to_u64() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool bit(std::size_t i) const;
  std::size_t bit_length() const;

  bool operator==(const BigInt&) const = default;

  BigInt operator+(const BigInt& o) const;
  /// Requires *this >= o; throws Error otherwise (unsigned arithmetic).
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  BigInt operator/(const BigInt& o) const;
  BigInt operator%(const BigInt& o) const;
  BigInt operator<<(std::size_t bits) const;
  BigInt operator>>(std::size_t bits) const;

  /// Quotient and remainder in one pass (Knuth algorithm D).
  static void divmod(const BigInt& num, const BigInt& den, BigInt& quot,
                     BigInt& rem);

  static int cmp(const BigInt& a, const BigInt& b);

  /// Modular exponentiation (square-and-multiply).
  static BigInt mod_pow(const BigInt& base, const BigInt& exp,
                        const BigInt& mod);
  static BigInt gcd(BigInt a, BigInt b);
  /// Inverse of a mod m; throws Error if gcd(a, m) != 1.
  static BigInt mod_inverse(const BigInt& a, const BigInt& m);

  /// Miller-Rabin with `rounds` pseudo-random bases supplied by `rand_below`
  /// (a callable returning a BigInt uniform in [2, n-2]).
  template <typename RandBelow>
  static bool is_probable_prime(const BigInt& n, int rounds,
                                RandBelow&& rand_below) {
    if (cmp(n, BigInt(4)) < 0) return cmp(n, BigInt(2)) >= 0;
    if (!n.is_odd()) return false;
    const BigInt n1 = n - BigInt(1);
    BigInt d = n1;
    std::size_t s = 0;
    while (!d.is_odd()) {
      d = d >> 1;
      ++s;
    }
    for (int i = 0; i < rounds; ++i) {
      const BigInt a = rand_below();
      BigInt x = mod_pow(a, d, n);
      if (cmp(x, BigInt(1)) == 0 || cmp(x, n1) == 0) continue;
      bool witness = true;
      for (std::size_t r = 1; r < s; ++r) {
        x = (x * x) % n;
        if (cmp(x, n1) == 0) {
          witness = false;
          break;
        }
      }
      if (witness) return false;
    }
    return true;
  }

 private:
  void trim();
  // Little-endian 64-bit limbs; no trailing zero limbs (canonical form).
  std::vector<std::uint64_t> limbs_;
};

inline bool operator<(const BigInt& a, const BigInt& b) {
  return BigInt::cmp(a, b) < 0;
}

}  // namespace peace::math
