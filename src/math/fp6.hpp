// Fp6 = Fp2[v] / (v^3 - xi), xi = 9 + i. Elements are c0 + c1 v + c2 v^2.
#pragma once

#include "math/fp2.hpp"

namespace peace::math {

struct Fp6 {
  Fp2 c0, c1, c2;

  Fp6() = default;
  Fp6(const Fp2& a, const Fp2& b, const Fp2& c) : c0(a), c1(b), c2(c) {}

  static Fp6 zero() { return {}; }
  static Fp6 one() { return {Fp2::one(), Fp2::zero(), Fp2::zero()}; }

  bool is_zero() const { return c0.is_zero() && c1.is_zero() && c2.is_zero(); }
  bool operator==(const Fp6&) const = default;

  Fp6 operator+(const Fp6& o) const {
    return {c0 + o.c0, c1 + o.c1, c2 + o.c2};
  }
  Fp6 operator-(const Fp6& o) const {
    return {c0 - o.c0, c1 - o.c1, c2 - o.c2};
  }
  Fp6 operator-() const { return {-c0, -c1, -c2}; }

  Fp6 operator*(const Fp6& o) const {
    // Toom-style interpolation (Devegili et al.); v^3 reduces via the
    // cheap-xi path (docs/CRYPTO.md §6.3), the Fp2 products are lazy.
    const Fp2 v0 = c0 * o.c0;
    const Fp2 v1 = c1 * o.c1;
    const Fp2 v2 = c2 * o.c2;
    const Fp2 t0 = v0 + ((c1 + c2) * (o.c1 + o.c2) - v1 - v2).mul_by_xi();
    const Fp2 t1 = (c0 + c1) * (o.c0 + o.c1) - v0 - v1 + v2.mul_by_xi();
    const Fp2 t2 = (c0 + c2) * (o.c0 + o.c2) - v0 - v2 + v1;
    return {t0, t1, t2};
  }
  Fp6 square() const { return *this * *this; }

  /// Multiplication by v: (c0, c1, c2) -> (xi c2, c0, c1).
  Fp6 mul_by_v() const { return {c2.mul_by_xi(), c0, c1}; }

  Fp6 inverse() const {
    const Fp2 t0 = c0.square() - (c1 * c2).mul_by_xi();
    const Fp2 t1 = c2.square().mul_by_xi() - c0 * c1;
    const Fp2 t2 = c1.square() - c0 * c2;
    const Fp2 det = c0 * t0 + (c1 * t2).mul_by_xi() + (c2 * t1).mul_by_xi();
    const Fp2 inv = det.inverse();
    return {t0 * inv, t1 * inv, t2 * inv};
  }
};

}  // namespace peace::math
