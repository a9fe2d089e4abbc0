// Fp12 = Fp6[w] / (w^2 - v). The pairing target group GT is the order-r
// subgroup of Fp12*.
#pragma once

#include <span>

#include "math/fp6.hpp"

namespace peace::math {

struct Fp12 {
  Fp6 c0, c1;

  Fp12() = default;
  Fp12(const Fp6& a, const Fp6& b) : c0(a), c1(b) {}

  static Fp12 one() { return {Fp6::one(), Fp6::zero()}; }

  bool is_zero() const { return c0.is_zero() && c1.is_zero(); }
  bool is_one() const { return *this == one(); }
  bool operator==(const Fp12&) const = default;

  Fp12 operator+(const Fp12& o) const { return {c0 + o.c0, c1 + o.c1}; }
  Fp12 operator-(const Fp12& o) const { return {c0 - o.c0, c1 - o.c1}; }

  Fp12 operator*(const Fp12& o) const {
    const Fp6 v0 = c0 * o.c0;
    const Fp6 v1 = c1 * o.c1;
    return {v0 + v1.mul_by_v(), (c0 + c1) * (o.c0 + o.c1) - v0 - v1};
  }
  Fp12& operator*=(const Fp12& o) { return *this = *this * o; }

  Fp12 square() const {
    // Complex squaring: (c0 + c1 w)^2 with w^2 = v.
    const Fp6 v0 = c0 * c1;
    const Fp6 t = (c0 + c1) * (c0 + c1.mul_by_v());
    return {t - v0 - v0.mul_by_v(), v0 + v0};
  }

  /// Multiplication by the sparse element (a + b w + c w^3) that pairing
  /// line evaluations produce — in tower form (Fp6(a,0,0), Fp6(b,c,0)).
  /// Same Karatsuba-over-Fp6 schedule as the eager version (t0 = c0*(a,0,0),
  /// t1 = c1*(b,c,0), cross = (c0+c1)*((a+b),c,0)), but fully lazy: every
  /// output Fp2 coefficient is accumulated as a sum of double-width products
  /// and reduced exactly once — 12 reductions instead of one per Fp2
  /// multiply, with xi folded into the inputs via the cheap-xi path.
  /// Worst lane accumulates 15 p^2-units, within the 24-unit bound of
  /// docs/CRYPTO.md §6.3.
  Fp12 mul_by_line(const Fp2& a, const Fp2& b, const Fp2& c) const {
    const Fp2 xb = b.mul_by_xi();
    const Fp2 xc = c.mul_by_xi();
    const Fp6& l = c0;
    const Fp6& h = c1;
    const Fp6 s = c0 + c1;
    const Fp2 ab = a + b;

    // Every double-width product the t0/t1 lanes need is also subtracted
    // in a cross lane below, so compute each once and reuse the wide value
    // — 17 wide Fp2 multiplies instead of the naive 24, same arithmetic
    // (the cached value is the identical product, so outputs are
    // bit-identical to the recomputing form).
    const Fp2Wide p0 = fp2_wide_mul(l.c0, a);
    const Fp2Wide p1 = fp2_wide_mul(l.c1, a);
    const Fp2Wide p2 = fp2_wide_mul(l.c2, a);
    const Fp2Wide hb0 = fp2_wide_mul(h.c0, b);
    const Fp2Wide hxc2 = fp2_wide_mul(h.c2, xc);
    const Fp2Wide hc0 = fp2_wide_mul(h.c0, c);
    const Fp2Wide hb1 = fp2_wide_mul(h.c1, b);

    // res.c0 = t0 + t1 * v, coefficient by coefficient.
    Fp2Wide w = p0;
    fp2_wide_add(w, fp2_wide_mul(h.c1, xc));
    fp2_wide_add(w, fp2_wide_mul(h.c2, xb));
    const Fp2 r00 = fp2_wide_redc(w);

    w = p1;
    fp2_wide_add(w, hb0);
    fp2_wide_add(w, hxc2);
    const Fp2 r01 = fp2_wide_redc(w);

    w = p2;
    fp2_wide_add(w, hc0);
    fp2_wide_add(w, hb1);
    const Fp2 r02 = fp2_wide_redc(w);

    // res.c1 = cross - t0 - t1, coefficient by coefficient.
    w = fp2_wide_mul(s.c0, ab);
    fp2_wide_add(w, fp2_wide_mul(s.c2, xc));
    fp2_wide_sub(w, p0);
    fp2_wide_sub(w, hb0);
    fp2_wide_sub(w, hxc2);
    const Fp2 r10 = fp2_wide_redc(w);

    w = fp2_wide_mul(s.c0, c);
    fp2_wide_add(w, fp2_wide_mul(s.c1, ab));
    fp2_wide_sub(w, p1);
    fp2_wide_sub(w, hc0);
    fp2_wide_sub(w, hb1);
    const Fp2 r11 = fp2_wide_redc(w);

    w = fp2_wide_mul(s.c1, c);
    fp2_wide_add(w, fp2_wide_mul(s.c2, ab));
    fp2_wide_sub(w, p2);
    fp2_wide_sub(w, fp2_wide_mul(h.c1, c));
    fp2_wide_sub(w, fp2_wide_mul(h.c2, b));
    const Fp2 r12 = fp2_wide_redc(w);

    return {Fp6{r00, r01, r02}, Fp6{r10, r11, r12}};
  }

  /// Eager reference for mul_by_line — the pre-lazy implementation, kept as
  /// the differential oracle (tests/curve_speed_test.cpp).
  Fp12 mul_by_line_eager(const Fp2& a, const Fp2& b, const Fp2& c) const {
    const Fp2 xi = fp2_xi();
    const Fp6 t0{c0.c0 * a, c0.c1 * a, c0.c2 * a};
    const Fp6 t1{c1.c0 * b + xi * (c1.c2 * c), c1.c0 * c + c1.c1 * b,
                 c1.c1 * c + c1.c2 * b};
    const Fp6 s = c0 + c1;
    const Fp2 ab = a + b;
    const Fp6 cross{s.c0 * ab + xi * (s.c2 * c), s.c0 * c + s.c1 * ab,
                    s.c1 * c + s.c2 * ab};
    return {t0 + t1.mul_by_v(), cross - t0 - t1};
  }

  /// Squaring restricted to the cyclotomic subgroup (norm-1 elements, where
  /// everything lives after the easy part of the final exponentiation):
  /// Granger-Scott (2010) formulas — three Fp4 squarings instead of a full
  /// Fp12 square. NOT valid for general elements; callers must guarantee
  /// unitarity.
  ///
  /// Derivation: in the w-power basis (z_i the coefficient of w^i, so
  /// z = [c0.c0, c1.c0, c0.c1, c1.c1, c0.c2, c1.c2]), f decomposes into
  /// three Fp4 = Fp2[w^3]/(w^6 - xi) elements (z0 + z3 s), (z1 + z4 s),
  /// (z2 + z5 s); for unitary f the square needs only the three Fp4
  /// squarings plus cheap linear combinations.
  Fp12 cyclotomic_square() const {
    // libff/Granger-Scott labelling: a = (z0, z1), b = (z2, z3),
    // c = (z4, z5) with pairs (w^0, w^3), (w^1, w^4), (w^2, w^5).
    const Fp2& z0 = c0.c0;
    const Fp2& z1 = c1.c1;
    const Fp2& z2 = c1.c0;
    const Fp2& z3 = c0.c2;
    const Fp2& z4 = c0.c1;
    const Fp2& z5 = c1.c2;

    // (a0 + a1 s)^2 in Fp4 = Fp2[s]/(s^2 - xi), Karatsuba form, lazily:
    // t0 = (a0+a1)(a0+xi a1) - a0a1 - a0(xi a1) accumulated double-width
    // and reduced once (9 p^2-units worst lane; docs/CRYPTO.md §6.3 shows
    // xi*(a0a1) = a0*(xi a1), so only three wide products are needed).
    const auto fp4_square = [](const Fp2& a0, const Fp2& a1, Fp2& t0,
                               Fp2& t1) {
      const Fp2 xia1 = a1.mul_by_xi();
      Fp2Wide w = fp2_wide_mul(a0 + a1, a0 + xia1);
      const Fp2Wide ab = fp2_wide_mul(a0, a1);
      const Fp2Wide xab = fp2_wide_mul(a0, xia1);
      fp2_wide_sub(w, ab);
      fp2_wide_sub(w, xab);
      t0 = fp2_wide_redc(w);
      Fp2Wide two_ab = ab;
      fp2_wide_add(two_ab, ab);
      t1 = fp2_wide_redc(two_ab);
    };
    Fp2 t0, t1, t2, t3, t4, t5;
    fp4_square(z0, z1, t0, t1);
    fp4_square(z2, z3, t2, t3);
    fp4_square(z4, z5, t4, t5);

    // r_i = 3 t - 2 z (real halves) / 3 t + 2 z (imaginary halves).
    Fp2 r0 = t0 - z0;
    r0 = r0 + r0 + t0;
    Fp2 r1 = t1 + z1;
    r1 = r1 + r1 + t1;
    const Fp2 xt5 = t5.mul_by_xi();
    Fp2 r2 = xt5 + z2;
    r2 = r2 + r2 + xt5;
    Fp2 r3 = t4 - z3;
    r3 = r3 + r3 + t4;
    Fp2 r4 = t2 - z4;
    r4 = r4 + r4 + t2;
    Fp2 r5 = t3 + z5;
    r5 = r5 + r5 + t3;
    return {Fp6{r0, r4, r3}, Fp6{r2, r1, r5}};
  }

  /// Conjugation over Fp6, i.e. the Frobenius power x -> x^(p^6).
  Fp12 conjugate() const { return {c0, -c1}; }

  Fp12 inverse() const {
    const Fp6 det = c0.square() - c1.square().mul_by_v();
    const Fp6 inv = det.inverse();
    return {c0 * inv, -(c1 * inv)};
  }

  /// For unitary elements (norm 1, as after the easy final exponentiation),
  /// the inverse is just the conjugate.
  Fp12 unitary_inverse() const { return conjugate(); }

  Fp12 pow(const U256& exp) const {
    Fp12 acc = one();
    const unsigned n = exp.bit_length();
    for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
      acc = acc.square();
      if (exp.bit(static_cast<unsigned>(i))) acc *= *this;
    }
    return acc;
  }

  /// Frobenius x -> x^p, given gamma[j] = xi^(j (p-1) / 6) for j = 0..5.
  /// Coefficients in the w-power basis are conjugated and scaled.
  Fp12 frobenius(std::span<const Fp2, 6> gamma) const {
    // w-basis coefficients: [c0.c0, c1.c0, c0.c1, c1.c1, c0.c2, c1.c2]
    const Fp2 a0 = c0.c0.conjugate() * gamma[0];
    const Fp2 a1 = c1.c0.conjugate() * gamma[1];
    const Fp2 a2 = c0.c1.conjugate() * gamma[2];
    const Fp2 a3 = c1.c1.conjugate() * gamma[3];
    const Fp2 a4 = c0.c2.conjugate() * gamma[4];
    const Fp2 a5 = c1.c2.conjugate() * gamma[5];
    return {Fp6{a0, a2, a4}, Fp6{a1, a3, a5}};
  }

  /// Deterministic byte serialization (all 12 Fp coefficients, standard
  /// form, big-endian) — used to feed GT elements into hashes and KDFs.
  Bytes to_bytes() const;

  /// Size of to_bytes(); nested in a field list a GT element is embedded raw.
  static constexpr std::size_t kWireSize = 12 * 32;

  /// Strict inverse of to_bytes: exactly 12 * 32 bytes, every coefficient
  /// canonical (< p). Throws Error otherwise. Callers deserializing GT
  /// elements from the wire must additionally run a subgroup membership
  /// check (curve::gt_in_cyclotomic_subgroup) — an arbitrary Fp12 value is
  /// not a valid pairing output.
  static Fp12 from_bytes(BytesView data);
};

}  // namespace peace::math
