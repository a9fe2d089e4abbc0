#include "math/bigint.hpp"

#include <algorithm>

namespace peace::math {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

BigInt::BigInt(u64 v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

int BigInt::cmp(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigInt BigInt::operator+(const BigInt& o) const {
  BigInt out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.resize(n);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u128 sum = static_cast<u128>(i < limbs_.size() ? limbs_[i] : 0) +
                     (i < o.limbs_.size() ? o.limbs_[i] : 0) + carry;
    out.limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  if (carry) out.limbs_.push_back(carry);
  return out;
}

BigInt BigInt::operator-(const BigInt& o) const {
  if (cmp(*this, o) < 0) throw Error("BigInt: negative subtraction");
  BigInt out;
  out.limbs_.resize(limbs_.size());
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u128 diff = static_cast<u128>(limbs_[i]) -
                      (i < o.limbs_.size() ? o.limbs_[i] : 0) - borrow;
    out.limbs_[i] = static_cast<u64>(diff);
    borrow = static_cast<u64>((diff >> 64) & 1);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& o) const {
  if (is_zero() || o.is_zero()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(limbs_[i]) * o.limbs_[j] +
                       out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out.limbs_[i + o.limbs_.size()] += carry;
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero()) return {};
  const std::size_t words = bits / 64, rem = bits % 64;
  BigInt out;
  out.limbs_.assign(limbs_.size() + words + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + words] |= rem ? limbs_[i] << rem : limbs_[i];
    if (rem) out.limbs_[i + words + 1] |= limbs_[i] >> (64 - rem);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t words = bits / 64, rem = bits % 64;
  if (words >= limbs_.size()) return {};
  BigInt out;
  out.limbs_.assign(limbs_.size() - words, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = rem ? limbs_[i + words] >> rem : limbs_[i + words];
    if (rem && i + words + 1 < limbs_.size())
      out.limbs_[i] |= limbs_[i + words + 1] << (64 - rem);
  }
  out.trim();
  return out;
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t word = i / 64;
  if (word >= limbs_.size()) return false;
  return (limbs_[word] >> (i % 64)) & 1;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  return 64 * (limbs_.size() - 1) + 64 -
         static_cast<std::size_t>(__builtin_clzll(limbs_.back()));
}

void BigInt::divmod(const BigInt& num, const BigInt& den, BigInt& quot,
                    BigInt& rem) {
  if (den.is_zero()) throw Error("BigInt: divide by zero");
  if (cmp(num, den) < 0) {
    quot = {};
    rem = num;
    return;
  }
  // Simple shift-and-subtract long division on bits of a normalized copy.
  // O(bits * limbs) — plenty fast for 2048-bit RSA work.
  const std::size_t shift = num.bit_length() - den.bit_length();
  BigInt q, r = num;
  q.limbs_.assign((shift + 64) / 64, 0);
  BigInt d = den << shift;
  for (std::size_t i = shift + 1; i-- > 0;) {
    if (cmp(r, d) >= 0) {
      r = r - d;
      q.limbs_[i / 64] |= u64{1} << (i % 64);
    }
    d = d >> 1;
  }
  q.trim();
  quot = q;
  rem = r;
}

BigInt BigInt::operator/(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return q;
}

BigInt BigInt::operator%(const BigInt& o) const {
  BigInt q, r;
  divmod(*this, o, q, r);
  return r;
}

BigInt BigInt::mod_pow(const BigInt& base, const BigInt& exp,
                       const BigInt& mod) {
  if (mod.is_zero()) throw Error("BigInt: mod_pow by zero");
  BigInt acc(1);
  BigInt b = base % mod;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = (acc * acc) % mod;
    if (exp.bit(i)) acc = (acc * b) % mod;
  }
  return acc;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = b;
    b = r;
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& a, const BigInt& m) {
  // Extended Euclid tracking coefficients of `a` only, with signs.
  BigInt r0 = a % m, r1 = m;
  BigInt s0(1), s1(0);
  bool neg0 = false, neg1 = false;
  while (!r1.is_zero()) {
    BigInt q, r2;
    divmod(r0, r1, q, r2);
    // s2 = s0 - q * s1 (signed)
    const BigInt qs1 = q * s1;
    BigInt s2;
    bool neg2;
    if (neg0 == neg1) {
      if (cmp(s0, qs1) >= 0) {
        s2 = s0 - qs1;
        neg2 = neg0;
      } else {
        s2 = qs1 - s0;
        neg2 = !neg0;
      }
    } else {
      s2 = s0 + qs1;
      neg2 = neg0;
    }
    r0 = r1;
    r1 = r2;
    s0 = s1;
    neg0 = neg1;
    s1 = s2;
    neg1 = neg2;
  }
  if (cmp(r0, BigInt(1)) != 0) throw Error("BigInt: not invertible");
  BigInt inv = s0 % m;
  if (neg0 && !inv.is_zero()) inv = m - inv;
  return inv;
}

BigInt BigInt::from_bytes(BytesView be) {
  BigInt out;
  for (std::uint8_t b : be) out = (out << 8) + BigInt(b);
  return out;
}

BigInt BigInt::from_u256(const U256& v) {
  BigInt out;
  out.limbs_.assign(v.limb.begin(), v.limb.end());
  out.trim();
  return out;
}

Bytes BigInt::to_bytes(std::size_t min_len) const {
  Bytes out;
  for (std::size_t i = limbs_.size(); i-- > 0;)
    for (int j = 7; j >= 0; --j)
      out.push_back(static_cast<std::uint8_t>(limbs_[i] >> (8 * j)));
  // Strip leading zeros, then left-pad to min_len.
  std::size_t first = 0;
  while (first < out.size() && out[first] == 0) ++first;
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(first));
  if (out.size() < min_len) out.insert(out.begin(), min_len - out.size(), 0);
  return out;
}

U256 BigInt::to_u256() const {
  if (limbs_.size() > 4) throw Error("BigInt: does not fit in 256 bits");
  U256 out;
  for (std::size_t i = 0; i < limbs_.size(); ++i) out.limb[i] = limbs_[i];
  return out;
}

u64 BigInt::to_u64() const {
  if (limbs_.size() > 1) throw Error("BigInt: does not fit in 64 bits");
  return limbs_.empty() ? 0 : limbs_[0];
}

}  // namespace peace::math
