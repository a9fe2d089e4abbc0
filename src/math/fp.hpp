// Montgomery-form prime fields. `PrimeField<Tag>` is a distinct type per
// modulus tag, so base-field elements (Fp) and scalars (Fr) cannot be mixed
// up at compile time. All parameters (R, R^2, -p^-1 mod 2^64) are derived at
// init() time from the decimal modulus — nothing hand-transcribed.
#pragma once

#include <cstdint>

#include "math/u256.hpp"

namespace peace::math {

struct FieldParams {
  U256 modulus;
  std::uint64_t n0inv = 0;  // -modulus^{-1} mod 2^64
  U256 r;                   // 2^256 mod modulus  (Montgomery form of 1)
  U256 r2;                  // 2^512 mod modulus  (to-Montgomery factor)
  U256 modulus_minus_2;     // inversion exponent (Fermat)
  U256 sqrt_exp;            // (modulus+1)/4 when modulus = 3 mod 4, else 0
  bool has_sqrt_exp = false;
  unsigned bits = 0;
  /// k * modulus^2 for k = 0..kMaxWideBias: the nonnegativity biases added
  /// by the lazy-reduction accumulators (docs/CRYPTO.md §6.3). Multiples of
  /// the modulus are annihilated by Montgomery reduction, so adding them
  /// never changes the reduced value.
  static constexpr unsigned kMaxWideBias = 8;
  std::array<std::array<std::uint64_t, 8>, kMaxWideBias + 1> p2k{};
};

/// 512-bit unreduced accumulator for lazy tower reduction: a sum of
/// double-width Montgomery products plus k*p^2 nonnegativity biases,
/// reduced exactly once per output coefficient. Safe while the total stays
/// below 2^512 — at p ~ 2^254 that is 24 product units, far above what any
/// tower formula accumulates; docs/CRYPTO.md §6.3 carries the bound.
struct FpWide {
  std::array<std::uint64_t, 8> limb{};
};

/// out += x over 8 little-endian limbs; returns the carry out.
inline std::uint64_t wide8_add(std::array<std::uint64_t, 8>& out,
                               const std::array<std::uint64_t, 8>& x) {
  unsigned char carry = 0;
  for (int i = 0; i < 8; ++i) carry = addc(carry, out[i], x[i], out[i]);
  return carry;
}

/// out -= x over 8 little-endian limbs; returns the borrow out.
inline std::uint64_t wide8_sub(std::array<std::uint64_t, 8>& out,
                               const std::array<std::uint64_t, 8>& x) {
  unsigned char borrow = 0;
  for (int i = 0; i < 8; ++i) borrow = subb(borrow, out[i], x[i], out[i]);
  return borrow;
}

/// Derives all Montgomery constants from `modulus`, which must be odd,
/// greater than 2 and below 2^254: mont_mul's carry-free CIOS needs the two
/// spare top bits (both BN254 moduli are 254-bit numbers below 2^254).
FieldParams make_field_params(const U256& modulus);

template <class Tag>
class PrimeField {
 public:
  /// Installs the modulus for this field type. Must be called once before
  /// any arithmetic; repeated calls with the same modulus are no-ops.
  static void init(const U256& modulus) {
    if (initialized_) {
      if (!(params_.modulus == modulus))
        throw Error("PrimeField: re-init with different modulus");
      return;
    }
    params_ = make_field_params(modulus);
    initialized_ = true;
  }

  static const FieldParams& params() {
    if (!initialized_) throw Error("PrimeField: not initialized");
    return params_;
  }

  static const U256& modulus() { return params().modulus; }

  PrimeField() = default;  // zero

  static PrimeField zero() { return PrimeField(); }
  static PrimeField one() { return from_mont(params().r); }

  static PrimeField from_u64(std::uint64_t v) { return from_u256(U256(v)); }

  /// From a standard-form integer; must already be < modulus.
  static PrimeField from_u256(const U256& v) {
    if (!(cmp(v, modulus()) < 0)) throw Error("PrimeField: value >= modulus");
    return from_mont(mont_mul(v, params().r2));
  }

  /// From a 32-byte big-endian string, reduced mod the modulus. Used for
  /// hash-to-field: the modulus is 254 bits so at most 3 subtractions.
  static PrimeField from_bytes_reduce(BytesView be) {
    U256 v = U256::from_bytes(be);
    const U256& m = modulus();
    while (!(cmp(v, m) < 0)) {
      U256 tmp;
      sub_borrow(tmp, v, m);
      v = tmp;
    }
    return from_u256(v);
  }

  static PrimeField from_dec(std::string_view dec) {
    return from_u256(U256::from_dec(dec));
  }

  /// Standard (non-Montgomery) representation.
  U256 to_u256() const { return mont_mul(mont_, U256::one()); }
  Bytes to_bytes() const { return to_u256().to_bytes(); }

  bool is_zero() const { return mont_.is_zero(); }
  bool operator==(const PrimeField&) const = default;

  PrimeField operator+(const PrimeField& o) const {
    return from_mont(add_mod(mont_, o.mont_, modulus()));
  }
  PrimeField operator-(const PrimeField& o) const {
    return from_mont(sub_mod(mont_, o.mont_, modulus()));
  }
  PrimeField operator-() const {
    return from_mont(is_zero() ? U256() : sub_mod(U256(), mont_, modulus()));
  }
  PrimeField operator*(const PrimeField& o) const {
    return from_mont(mont_mul(mont_, o.mont_));
  }
  PrimeField& operator+=(const PrimeField& o) { return *this = *this + o; }
  PrimeField& operator-=(const PrimeField& o) { return *this = *this - o; }
  PrimeField& operator*=(const PrimeField& o) { return *this = *this * o; }

  PrimeField square() const { return *this * *this; }
  PrimeField dbl() const { return *this + *this; }

  PrimeField pow(const U256& exp) const {
    PrimeField acc = one();
    const unsigned n = exp.bit_length();
    for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
      acc = acc.square();
      if (exp.bit(static_cast<unsigned>(i))) acc *= *this;
    }
    return acc;
  }

  /// Multiplicative inverse (binary extended GCD on the Montgomery
  /// representative, then two Montgomery corrections). Throws on zero.
  PrimeField inverse() const {
    if (is_zero()) throw Error("PrimeField: inverse of zero");
    // mont_ = aR; egcd gives (aR)^-1 = a^-1 R^-1; two multiplications by
    // R^2 (each costing one R^-1) restore the Montgomery form a^-1 R.
    const U256 inv = mod_inverse_odd(mont_, modulus());
    return from_mont(mont_mul(mont_mul(inv, params().r2), params().r2));
  }

  /// Fermat-exponentiation inverse, kept as an independent cross-check
  /// oracle for the fast path above.
  PrimeField inverse_fermat() const {
    if (is_zero()) throw Error("PrimeField: inverse of zero");
    return pow(params().modulus_minus_2);
  }

  /// Square root for moduli = 3 (mod 4). Returns false if no root exists.
  bool sqrt(PrimeField& out) const {
    if (!params().has_sqrt_exp) throw Error("PrimeField: sqrt unsupported");
    const PrimeField cand = pow(params().sqrt_exp);
    if (cand.square() == *this) {
      out = cand;
      return true;
    }
    return false;
  }

  // --- lazy double-width accumulation (docs/CRYPTO.md §6.3) ---------------

  /// Unreduced double-width product of two canonical elements: one product
  /// unit, value < p^2.
  static FpWide wide_mul(const PrimeField& a, const PrimeField& b) {
    return FpWide{mul_wide(a.mont_, b.mont_)};
  }

  /// acc += x. Throws on 2^512 overflow — unreachable under the §6.3
  /// accumulation bound, kept as an always-on guard.
  static void wide_add(FpWide& acc, const FpWide& x) {
    if (wide8_add(acc.limb, x.limb) != 0)
      throw Error("PrimeField: wide accumulator overflow");
  }

  /// acc += k*p^2 - x, requiring x <= k*p^2: the biased subtraction that
  /// keeps lazy accumulators nonnegative. The k*p^2 bias is a multiple of
  /// the modulus and vanishes in redc().
  static void wide_sub(FpWide& acc, const FpWide& x, unsigned k) {
    if (k > FieldParams::kMaxWideBias)
      throw Error("PrimeField: wide bias too large");
    FpWide d{params_.p2k[k]};
    if (wide8_sub(d.limb, x.limb) != 0)
      throw Error("PrimeField: wide bias underflow");
    wide_add(acc, d);
  }

  /// Montgomery reduction of a full 512-bit accumulator to the canonical
  /// representative — the single per-coefficient reduction of the lazy
  /// path. The canonical representative of a residue is unique, so this
  /// agrees bit-for-bit with the mont_mul/add_mod chain computing the same
  /// value eagerly (docs/CRYPTO.md §6.3).
  static PrimeField redc(const FpWide& in);

  /// Parity of the standard representation (for point compression).
  bool is_odd_repr() const { return to_u256().is_odd(); }

  /// Raw Montgomery limbs — for hashing/serialization of internal state only.
  const U256& mont() const { return mont_; }
  static PrimeField from_mont(const U256& m) {
    PrimeField f;
    f.mont_ = m;
    return f;
  }

 private:
  static U256 mont_mul(const U256& a, const U256& b);

  U256 mont_;

  static inline FieldParams params_{};
  static inline bool initialized_ = false;
};

template <class Tag>
U256 PrimeField<Tag>::mont_mul(const U256& a, const U256& b) {
  // CIOS Montgomery multiplication (Koc-Acar-Kaliski 1996) without the
  // extra carry word: with the modulus below 2^254 the running value stays
  // below 2n < 2^255 and each row's two carries fit the top limb. Inputs
  // are canonical (< n), so one conditional subtraction finishes.
  using u64 = std::uint64_t;
  const U256& n = params_.modulus;
  const u64 n0inv = params_.n0inv;

  std::array<u64, 4> t{};
  for (int i = 0; i < 4; ++i) {
    const u64 bi = b.limb[i];
    u64 carry_ab = 0;
    t[0] = mac(a.limb[0], bi, t[0], carry_ab);
    const u64 m = t[0] * n0inv;
    u64 carry_mn = 0;
    mac(m, n.limb[0], t[0], carry_mn);  // low word is zero by choice of m
    for (int j = 1; j < 4; ++j) {
      t[j] = mac(a.limb[j], bi, t[j], carry_ab);
      t[j - 1] = mac(m, n.limb[j], t[j], carry_mn);
    }
    t[3] = carry_ab + carry_mn;
  }
  const U256 res{t[0], t[1], t[2], t[3]};
  U256 reduced;
  const u64 borrow = sub_borrow(reduced, res, n);
  return mask_select(0 - borrow, res, reduced);
}

template <class Tag>
PrimeField<Tag> PrimeField<Tag>::redc(const FpWide& in) {
  using u64 = std::uint64_t;
  const U256& n = params_.modulus;
  const u64 n0inv = params_.n0inv;

  std::array<u64, 8> t = in.limb;
  u64 extra = 0;
  for (int i = 0; i < 4; ++i) {
    const u64 m = t[i] * n0inv;
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) t[i + j] = mac(m, n.limb[j], t[i + j], carry);
    unsigned char c = addc(0, t[i + 4], carry, t[i + 4]);
    for (int k = i + 5; k < 8; ++k) c = addc(c, t[k], 0, t[k]);
    extra += c;
  }
  U256 res{t[4], t[5], t[6], t[7]};
  // Remaining value is extra * 2^256 + res with extra in {0, 1} (the input
  // is < 2^512, so (input + m*n)/2^256 < 2^256 + n). Peel n off until the
  // representative is canonical — at most ~6 subtractions since 2^256 < 6n.
  while (extra != 0) {
    U256 reduced;
    extra -= sub_borrow(reduced, res, n);
    res = reduced;
  }
  while (!(cmp(res, n) < 0)) {
    U256 reduced;
    sub_borrow(reduced, res, n);
    res = reduced;
  }
  return from_mont(res);
}

// Field tags. The paper's Z_p (signature scalars) is our Fr; the pairing
// base field is Fp.
struct BaseFieldTag {};
struct ScalarFieldTag {};
using Fp = PrimeField<BaseFieldTag>;
using Fr = PrimeField<ScalarFieldTag>;

}  // namespace peace::math
