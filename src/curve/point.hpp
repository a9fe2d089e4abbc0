// Short-Weierstrass curve points (y^2 = x^3 + b, a = 0) in Jacobian
// coordinates, generic over the coordinate field. Instantiated as
// G1 = E(Fp) and G2 = E'(Fp2) (the sextic twist) in g1.hpp / g2.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "math/fp12.hpp"
#include "obs/trace.hpp"

namespace peace::curve {

using math::Fr;
using math::U256;

/// Affine (Z = 1) point, the representation MSM tables take after batch
/// normalization so the main loops can use mixed addition
/// (docs/CRYPTO.md §6.4).
template <class Traits>
struct AffinePoint {
  using F = typename Traits::Field;

  F x, y;
  bool infinity = true;

  /// Negation is free in affine coordinates — how wNAF digits get their
  /// sign without a second table half.
  AffinePoint negated() const { return {x, -y, infinity}; }
};

template <class Traits>
struct CurvePoint {
  using F = typename Traits::Field;

  // Jacobian (X, Y, Z): affine (X/Z^2, Y/Z^3); Z == 0 encodes infinity.
  F x, y, z;

  CurvePoint() : x(F::zero()), y(F::zero()), z(F::zero()) {}  // infinity
  CurvePoint(const F& ax, const F& ay)
      : x(ax), y(ay), z(Traits::field_one()) {}

  static CurvePoint infinity() { return CurvePoint(); }
  bool is_infinity() const { return z.is_zero(); }

  bool is_on_curve() const {
    if (is_infinity()) return true;
    // Y^2 = X^3 + b Z^6.
    const F z2 = z.square();
    const F z6 = z2.square() * z2;
    return y.square() == x.square() * x + Traits::b() * z6;
  }

  /// Affine coordinates; throws on infinity. One field inversion unless Z
  /// is already one (decoded and batch-normalized points) — batch callers
  /// should prefer batch_normalize (one inversion for any count).
  void to_affine(F& ax, F& ay) const {
    if (is_infinity()) throw Error("CurvePoint: affine of infinity");
    if (z == Traits::field_one()) {
      ax = x;
      ay = y;
      return;
    }
    obs::note(obs::Op::kFieldInversion);
    const F zinv = z.inverse();
    const F zinv2 = zinv.square();
    ax = x * zinv2;
    ay = y * zinv2 * zinv;
  }

  /// Normalizes Z to one (no-op for infinity).
  CurvePoint normalized() const {
    if (is_infinity()) return *this;
    F ax, ay;
    to_affine(ax, ay);
    return CurvePoint(ax, ay);
  }

  CurvePoint dbl() const {
    if (is_infinity()) return *this;
    if (y.is_zero()) return infinity();
    const F a = x.square();
    const F b = y.square();
    const F c = b.square();
    F d = (x + b).square() - a - c;
    d = d + d;
    const F e = a + a + a;
    const F f = e.square();
    CurvePoint out;
    out.x = f - (d + d);
    F c8 = c + c;
    c8 = c8 + c8;
    c8 = c8 + c8;
    out.y = e * (d - out.x) - c8;
    out.z = (y * z) + (y * z);
    return out;
  }

  CurvePoint operator+(const CurvePoint& o) const {
    if (is_infinity()) return o;
    if (o.is_infinity()) return *this;
    const F z1z1 = z.square();
    const F z2z2 = o.z.square();
    const F u1 = x * z2z2;
    const F u2 = o.x * z1z1;
    const F s1 = y * z2z2 * o.z;
    const F s2 = o.y * z1z1 * z;
    if (u1 == u2) {
      if (s1 == s2) return dbl();
      return infinity();
    }
    const F h = u2 - u1;
    const F i = (h + h).square();
    const F j = h * i;
    F r = s2 - s1;
    r = r + r;
    const F v = u1 * i;
    CurvePoint out;
    out.x = r.square() - j - (v + v);
    const F s1j = s1 * j;
    out.y = r * (v - out.x) - (s1j + s1j);
    out.z = ((z + o.z).square() - z1z1 - z2z2) * h;
    return out;
  }

  /// Mixed addition with an affine (Z2 = 1) operand: madd-2007-bl,
  /// 7M + 4S against the 11M + 5S of the general Jacobian add. Used by the
  /// wNAF/MSM paths after batch normalization (docs/CRYPTO.md §6.4).
  CurvePoint add_mixed(const AffinePoint<Traits>& o) const {
    if (o.infinity) return *this;
    if (is_infinity()) return CurvePoint(o.x, o.y);
    const F z1z1 = z.square();
    const F u2 = o.x * z1z1;
    const F s2 = o.y * z1z1 * z;
    if (x == u2) {
      if (y == s2) return dbl();
      return infinity();
    }
    const F h = u2 - x;
    const F hh = h.square();
    F i4 = hh + hh;
    i4 = i4 + i4;
    const F j = h * i4;
    F r = s2 - y;
    r = r + r;
    const F v = x * i4;
    CurvePoint out;
    out.x = r.square() - j - (v + v);
    const F yj = y * j;
    out.y = r * (v - out.x) - (yj + yj);
    out.z = (z + h).square() - z1z1 - hh;
    return out;
  }

  CurvePoint operator-() const {
    CurvePoint out = *this;
    out.y = -out.y;
    return out;
  }
  CurvePoint operator-(const CurvePoint& o) const { return *this + (-o); }

  /// Scalar multiplication. Short scalars take plain double-and-add (the
  /// table cost would dominate); full-width scalars take the wNAF path, or
  /// the GLV-decomposed path when the curve provides an `endo_mul` hook
  /// (G1 only — see curve::endo_mul in bn254.hpp and docs/CRYPTO.md §6.1).
  /// Every path returns the same group element in possibly different
  /// Jacobian representation; serialized bytes are identical.
  CurvePoint operator*(const U256& k) const {
    if (k.bit_length() <= 64) return mul_double_and_add(k);
    if constexpr (requires(const CurvePoint& p, const U256& s) {
                    endo_mul(p, s);
                  }) {
      return endo_mul(*this, k);
    } else {
      return mul_wnaf(k);
    }
  }
  CurvePoint operator*(const Fr& k) const { return *this * k.to_u256(); }

  /// Single-scalar wNAF multiplication (batched-affine table; one
  /// inversion). The non-endomorphism workhorse behind operator*.
  CurvePoint mul_wnaf(const U256& k) const;

  /// Textbook MSB-first double-and-add; kept as the oracle the windowed
  /// path is tested against.
  CurvePoint mul_double_and_add(const U256& k) const {
    CurvePoint acc = infinity();
    const unsigned n = k.bit_length();
    for (int i = static_cast<int>(n) - 1; i >= 0; --i) {
      acc = acc.dbl();
      if (k.bit(static_cast<unsigned>(i))) acc = acc + *this;
    }
    return acc;
  }

  /// Fixed-window (w = 4) multiplication: one 15-entry table, then four
  /// doublings plus at most one addition per nibble. No longer on the hot
  /// path (operator* uses wNAF/GLV) — retained as the pre-endomorphism
  /// reference the fast paths are benchmarked and tested against.
  CurvePoint mul_windowed(const U256& k) const {
    CurvePoint table[16];
    table[0] = infinity();
    table[1] = *this;
    for (int i = 2; i < 16; ++i) table[i] = table[i - 1] + *this;

    CurvePoint acc = infinity();
    const unsigned nibbles = (k.bit_length() + 3) / 4;
    for (int i = static_cast<int>(nibbles) - 1; i >= 0; --i) {
      acc = acc.dbl().dbl().dbl().dbl();
      const unsigned shift = static_cast<unsigned>(i) * 4;
      const unsigned nibble =
          static_cast<unsigned>(k.limb[shift / 64] >> (shift % 64)) & 0xf;
      if (nibble != 0) acc = acc + table[nibble];
    }
    return acc;
  }

  /// Projective-independent equality.
  bool equals(const CurvePoint& o) const {
    if (is_infinity() || o.is_infinity())
      return is_infinity() == o.is_infinity();
    const F z1z1 = z.square();
    const F z2z2 = o.z.square();
    if (!(x * z2z2 == o.x * z1z1)) return false;
    return y * z2z2 * o.z == o.y * z1z1 * z;
  }
  bool operator==(const CurvePoint& o) const { return equals(o); }
};

/// Jacobian -> affine for a whole batch with ONE field inversion
/// (Montgomery's trick: prefix products, one inverse, unwind). Field
/// inverses are unique, so each point's affine coordinates are bit-
/// identical to what its own to_affine() would produce
/// (docs/CRYPTO.md §6.4); infinity maps to the affine infinity flag.
template <class Traits>
void batch_normalize(std::span<const CurvePoint<Traits>> in,
                     std::span<AffinePoint<Traits>> out) {
  using F = typename Traits::Field;
  if (in.size() != out.size())
    throw Error("batch_normalize: size mismatch");
  const std::size_t n = in.size();
  std::vector<F> prefix(n);  // product of the nonzero Zs before slot i
  F running = Traits::field_one();
  bool any = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (in[i].is_infinity()) {
      out[i].infinity = true;
      continue;
    }
    any = true;
    prefix[i] = running;
    running *= in[i].z;
  }
  if (!any) return;
  obs::note(obs::Op::kFieldInversion);
  F inv = running.inverse();
  for (std::size_t i = n; i-- > 0;) {
    if (in[i].is_infinity()) continue;
    const F zinv = inv * prefix[i];
    inv *= in[i].z;
    const F zinv2 = zinv.square();
    out[i] = {in[i].x * zinv2, in[i].y * zinv2 * zinv, false};
  }
}

/// Rewrites each finite point to its Z = 1 representative with one
/// batch_normalize pass (one inversion for all of them). Same group
/// elements, so no encoding changes; later to_affine calls are free.
template <class Traits, std::size_t N>
void normalize_in_place(const std::array<CurvePoint<Traits>*, N>& points) {
  std::array<CurvePoint<Traits>, N> in;
  for (std::size_t i = 0; i < N; ++i) in[i] = *points[i];
  std::array<AffinePoint<Traits>, N> out;
  batch_normalize<Traits>(in, out);
  for (std::size_t i = 0; i < N; ++i)
    if (!out[i].infinity) *points[i] = {out[i].x, out[i].y};
}

/// Width-w signed recoding (wNAF): k = sum_i d_i 2^i with every nonzero
/// digit odd and |d_i| < 2^(w-1). Nonzero digits are at least w apart, so
/// an n-bit scalar costs ~n/(w+1) additions against a 2^(w-2)-entry table
/// of odd multiples (docs/CRYPTO.md §6.4).
struct WnafDigits {
  std::array<std::int8_t, 260> d{};
  unsigned len = 0;
};

inline WnafDigits wnaf_recode(const U256& k, unsigned w) {
  if (w < 2 || w > 7) throw Error("wnaf_recode: window out of range");
  WnafDigits out;
  // One spare limb: the carry for a negative digit can pass bit 256.
  std::array<std::uint64_t, 5> v{k.limb[0], k.limb[1], k.limb[2], k.limb[3],
                                 0};
  const std::uint64_t mask = (std::uint64_t{1} << w) - 1;
  const std::int64_t half = std::int64_t{1} << (w - 1);
  while ((v[0] | v[1] | v[2] | v[3] | v[4]) != 0) {
    std::int64_t d = 0;
    if (v[0] & 1) {
      d = static_cast<std::int64_t>(v[0] & mask);
      if (d >= half) d -= std::int64_t{1} << w;
      if (d >= 0) {
        std::uint64_t borrow = static_cast<std::uint64_t>(d);
        for (int i = 0; i < 5 && borrow != 0; ++i) {
          const std::uint64_t cur = v[static_cast<std::size_t>(i)];
          v[static_cast<std::size_t>(i)] = cur - borrow;
          borrow = cur < borrow ? 1 : 0;
        }
      } else {
        std::uint64_t carry = static_cast<std::uint64_t>(-d);
        for (int i = 0; i < 5 && carry != 0; ++i) {
          const std::uint64_t cur = v[static_cast<std::size_t>(i)] + carry;
          carry = cur < carry ? 1 : 0;
          v[static_cast<std::size_t>(i)] = cur;
        }
      }
    }
    out.d[out.len++] = static_cast<std::int8_t>(d);
    for (int i = 0; i < 4; ++i) v[i] = (v[i] >> 1) | (v[i + 1] << 63);
    v[4] >>= 1;
  }
  return out;
}

/// wNAF window width for an MSM over `terms` scalars of at most `bits`
/// bits: minimizes per-term cost, 2^(w-2) Jacobian table adds plus
/// ~bits/(w+1) mixed additions (weight 0.75 — mixed adds are cheaper than
/// the full adds building the table). Full-width scalars get w = 5; the
/// half/quarter-width scalars the GLV/GLS splits produce drop to w = 4.
inline unsigned msm_window_width(unsigned bits, std::size_t terms) {
  if (bits == 0 || terms == 0) return 2;
  unsigned best = 2;
  double best_cost = 1e300;
  for (unsigned w = 2; w <= 7; ++w) {
    const double cost = static_cast<double>(1u << (w - 2)) +
                        0.75 * static_cast<double>(bits) / (w + 1.0);
    if (cost < best_cost) {
      best_cost = cost;
      best = w;
    }
  }
  return best;
}

/// The shared MSM core: per-term odd-multiple tables built in Jacobian
/// coordinates, ONE batched inversion normalizing every table entry to
/// affine, then a single wNAF digit loop of shared doublings and mixed
/// additions. Returns exactly the group element the individual
/// multiplications would sum to (docs/CRYPTO.md §6.4); callers note the
/// kMsmCall / kMsmTerm ops themselves (the endomorphism wrappers report
/// paper-level term counts, not split counts).
/// Digit-loop half of the wNAF MSM, over caller-supplied affine tables:
/// table[t * 2^(w-2) + j] must be the odd multiple (2j+1) * P_t in affine
/// coordinates. Split out so the endomorphism wrappers (curve::g1_msm /
/// g2_msm) can derive the phi/psi split-term tables from the base term's
/// normalized table with one cheap coordinate map per entry instead of
/// building and normalizing separate Jacobian tables (docs/CRYPTO.md
/// §6.4).
template <class Traits>
CurvePoint<Traits> msm_wnaf_precomp(
    std::span<const AffinePoint<Traits>> table,
    std::span<const U256> scalars, unsigned w) {
  using Point = CurvePoint<Traits>;
  const std::size_t n = scalars.size();
  const std::size_t tsize = std::size_t{1} << (w - 2);
  if (table.size() != n * tsize)
    throw Error("msm_wnaf_precomp: table/scalars size mismatch");
  std::vector<WnafDigits> digits(n);
  unsigned maxlen = 0;
  for (std::size_t t = 0; t < n; ++t) {
    digits[t] = wnaf_recode(scalars[t], w);
    maxlen = std::max(maxlen, digits[t].len);
  }
  Point acc = Point::infinity();
  for (unsigned i = maxlen; i-- > 0;) {
    acc = acc.dbl();
    for (std::size_t t = 0; t < n; ++t) {
      if (i >= digits[t].len) continue;
      const int d = digits[t].d[i];
      if (d > 0)
        acc = acc.add_mixed(table[t * tsize + static_cast<std::size_t>(d - 1) / 2]);
      else if (d < 0)
        acc = acc.add_mixed(
            table[t * tsize + static_cast<std::size_t>(-d - 1) / 2].negated());
    }
  }
  return acc;
}

template <class Traits>
CurvePoint<Traits> msm_wnaf(std::span<const CurvePoint<Traits>> points,
                            std::span<const U256> scalars, unsigned w) {
  using Point = CurvePoint<Traits>;
  if (points.size() != scalars.size())
    throw Error("msm_wnaf: points/scalars size mismatch");
  const std::size_t n = points.size();
  if (n == 0) return Point::infinity();
  const std::size_t tsize = std::size_t{1} << (w - 2);

  std::vector<Point> jtable;
  jtable.reserve(n * tsize);
  for (std::size_t t = 0; t < n; ++t) {
    const Point& p = points[t];
    const Point p2 = p.dbl();
    jtable.push_back(p);  // odd multiples 1P, 3P, ..., (2^(w-1)-1)P
    for (std::size_t i = 1; i < tsize; ++i)
      jtable.push_back(jtable.back() + p2);
  }
  std::vector<AffinePoint<Traits>> table(jtable.size());
  batch_normalize<Traits>(jtable, table);
  return msm_wnaf_precomp<Traits>(table, scalars, w);
}

template <class Traits>
CurvePoint<Traits> CurvePoint<Traits>::mul_wnaf(const U256& k) const {
  const CurvePoint pts[1] = {*this};
  const U256 ks[1] = {k};
  return msm_wnaf(std::span<const CurvePoint>(pts, 1),
                  std::span<const U256>(ks, 1),
                  msm_window_width(k.bit_length(), 1));
}

/// Multi-scalar multiplication: sum_i points[i] * scalars[i] through the
/// wNAF core with one shared doubling chain for all terms and a window
/// width tuned to the scalar width. Same group element as summing the
/// individual multiplications (verification transcripts stay
/// byte-identical). Endomorphism-split variants live in bn254.hpp
/// (curve::g1_msm / curve::g2_msm).
template <class Traits, std::size_t N>
CurvePoint<Traits> multi_scalar_mul(
    const std::array<CurvePoint<Traits>, N>& points,
    const std::array<U256, N>& scalars) {
  obs::note(obs::Op::kMsmCall);
  obs::note(obs::Op::kMsmTerm, N);
  unsigned nbits = 0;
  for (const U256& s : scalars) nbits = std::max(nbits, s.bit_length());
  return msm_wnaf(std::span<const CurvePoint<Traits>>(points),
                  std::span<const U256>(scalars),
                  msm_window_width(nbits, N));
}

/// Runtime-sized variant for term counts only known at call time (the
/// randomized batch-verification folds, where one sum spans four points
/// per signature).
template <class Traits>
CurvePoint<Traits> multi_scalar_mul(std::span<const CurvePoint<Traits>> points,
                                    std::span<const U256> scalars) {
  if (points.size() != scalars.size())
    throw Error("multi_scalar_mul: points/scalars size mismatch");
  if (points.empty()) return CurvePoint<Traits>::infinity();
  obs::note(obs::Op::kMsmCall);
  obs::note(obs::Op::kMsmTerm, points.size());
  unsigned nbits = 0;
  for (const U256& s : scalars) nbits = std::max(nbits, s.bit_length());
  return msm_wnaf(points, scalars, msm_window_width(nbits, points.size()));
}

}  // namespace peace::curve
