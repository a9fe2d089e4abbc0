// Fp2 = Fp[i] / (i^2 + 1). Elements are c0 + c1*i.
#pragma once

#include "math/fp.hpp"

namespace peace::math {

struct Fp2 {
  Fp c0;
  Fp c1;

  Fp2() = default;
  Fp2(const Fp& a, const Fp& b) : c0(a), c1(b) {}

  static Fp2 zero() { return {}; }
  static Fp2 one() { return {Fp::one(), Fp::zero()}; }
  static Fp2 from_u64(std::uint64_t a, std::uint64_t b) {
    return {Fp::from_u64(a), Fp::from_u64(b)};
  }

  bool is_zero() const { return c0.is_zero() && c1.is_zero(); }
  bool operator==(const Fp2&) const = default;

  Fp2 operator+(const Fp2& o) const { return {c0 + o.c0, c1 + o.c1}; }
  Fp2 operator-(const Fp2& o) const { return {c0 - o.c0, c1 - o.c1}; }
  Fp2 operator-() const { return {-c0, -c1}; }

  // Lazy Karatsuba: three double-width products accumulated unreduced,
  // one Montgomery reduction per output coefficient (docs/CRYPTO.md §6.3).
  // Defined after Fp2Wide below; bit-identical to mul_eager().
  Fp2 operator*(const Fp2& o) const;

  /// Eager Karatsuba — the pre-lazy implementation, kept as the
  /// differential oracle operator* is tested against
  /// (tests/curve_speed_test.cpp).
  Fp2 mul_eager(const Fp2& o) const {
    // (a0 + a1 i)(b0 + b1 i) = (a0b0 - a1b1) + ((a0+a1)(b0+b1) - a0b0 - a1b1) i
    const Fp v0 = c0 * o.c0;
    const Fp v1 = c1 * o.c1;
    return {v0 - v1, (c0 + c1) * (o.c0 + o.c1) - v0 - v1};
  }
  Fp2 operator*(const Fp& s) const { return {c0 * s, c1 * s}; }

  Fp2& operator*=(const Fp2& o) { return *this = *this * o; }

  Fp2 square() const {
    // (a0 + a1 i)^2 = (a0+a1)(a0-a1) + 2 a0 a1 i
    const Fp t = c0 * c1;
    return {(c0 + c1) * (c0 - c1), t + t};
  }
  Fp2 dbl() const { return {c0 + c0, c1 + c1}; }

  /// Complex conjugate = Frobenius x -> x^p on Fp2.
  Fp2 conjugate() const { return {c0, -c1}; }

  /// Norm a0^2 + a1^2 in Fp.
  Fp norm() const { return c0.square() + c1.square(); }

  Fp2 inverse() const {
    // 1/(a0 + a1 i) = (a0 - a1 i) / (a0^2 + a1^2)
    const Fp inv_norm = norm().inverse();
    return {c0 * inv_norm, -(c1 * inv_norm)};
  }

  Fp2 pow(const U256& exp) const {
    Fp2 acc = one();
    const unsigned n = exp.bit_length();
    for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
      acc = acc.square();
      if (exp.bit(static_cast<unsigned>(i))) acc *= *this;
    }
    return acc;
  }

  /// Square root via the complex method (requires p = 3 mod 4 in the base
  /// field). Returns false when no root exists.
  bool sqrt(Fp2& out) const;

  /// Multiplication by the twist constant xi = 9 + i by shift-and-add
  /// instead of a full Fp2 multiply: (9c0 - c1) + (c0 + 9c1) i. Ten modular
  /// additions replace three Montgomery multiplications — the cheap-xi path
  /// used throughout the Fp6/Fp12 formulas (docs/CRYPTO.md §6.3).
  Fp2 mul_by_xi() const {
    const Fp2 t8 = dbl().dbl().dbl();
    return {t8.c0 + c0 - c1, t8.c1 + c1 + c0};
  }
};

/// The sextic twist constant xi = 9 + i used throughout the BN254 tower.
Fp2 fp2_xi();

// --- lazy double-width Fp2 accumulation (docs/CRYPTO.md §6.3) -------------

/// Unreduced Fp2 value: each coefficient is a sum of double-width products
/// plus nonnegativity biases, reduced once when the accumulation is done.
struct Fp2Wide {
  FpWide c0, c1;
};

/// Wide Karatsuba product of two canonical Fp2 elements. The result lanes
/// carry biases of (1, 2) p^2-units and values below (2, 3) p^2-units —
/// the unit bookkeeping every caller's overflow bound builds on.
inline Fp2Wide fp2_wide_mul(const Fp2& a, const Fp2& b) {
  const FpWide v0 = Fp::wide_mul(a.c0, b.c0);
  const FpWide v1 = Fp::wide_mul(a.c1, b.c1);
  Fp2Wide out;
  out.c0 = v0;
  Fp::wide_sub(out.c0, v1, 1);  // a0b0 + (p^2 - a1b1)
  out.c1 = Fp::wide_mul(a.c0 + a.c1, b.c0 + b.c1);
  Fp::wide_sub(out.c1, v0, 1);
  Fp::wide_sub(out.c1, v1, 1);  // cross + (2p^2 - v0 - v1)
  return out;
}

inline void fp2_wide_add(Fp2Wide& acc, const Fp2Wide& x) {
  Fp::wide_add(acc.c0, x.c0);
  Fp::wide_add(acc.c1, x.c1);
}

/// acc -= x where x is an fp2_wide_mul result: adds the (2, 3)-unit bias
/// that dominates any such product, keeping the accumulator nonnegative.
inline void fp2_wide_sub(Fp2Wide& acc, const Fp2Wide& x) {
  Fp::wide_sub(acc.c0, x.c0, 2);
  Fp::wide_sub(acc.c1, x.c1, 3);
}

/// The one reduction per output coefficient; canonical representatives are
/// unique, so results match the eager formulas bit for bit.
inline Fp2 fp2_wide_redc(const Fp2Wide& w) {
  return {Fp::redc(w.c0), Fp::redc(w.c1)};
}

inline Fp2 Fp2::operator*(const Fp2& o) const {
  return fp2_wide_redc(fp2_wide_mul(*this, o));
}

}  // namespace peace::math
