#include "curve/pairing.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "obs/trace.hpp"

namespace peace::curve {

using math::Fp;
using math::Fp12;
using math::Fp2;
using math::Fp6;
using math::U256;

namespace {

/// A pairing line in sparse form a + b*w + c*w^3 (w-power basis); consumed
/// via Fp12::mul_by_line.
struct LineCoeffs {
  Fp2 a, b, c;
};

/// The P-independent half of a pairing line: twist slope lambda and the
/// constant lambda*xt - yt. With the D-type untwist (x, y) -> (w^2 x, w^3 y)
/// the line evaluates at P = (xp, yp) as
///   yp - lambda*xp*w + (lambda*xt - yt)*w^3,
/// so evaluation needs only two Fp multiplications per line.
using PreparedLine = G2Prepared::Line;

LineCoeffs eval_line(const PreparedLine& l, const Fp& xp, const Fp& yp) {
  return {Fp2(yp, Fp::zero()), -(l.lambda * xp), l.c};
}

struct AffineG2 {
  Fp2 x, y;
};

AffineG2 to_affine2(const G2& q) {
  Fp2 x, y;
  q.to_affine(x, y);
  return {x, y};
}

/// Frobenius endomorphism on twist coordinates:
///   pi(x, y) = (conj(x) * xi^{(p-1)/3}, conj(y) * xi^{(p-1)/2}).
AffineG2 frobenius_twist(const AffineG2& q) {
  const auto& bn = Bn254::get();
  return {q.x.conjugate() * bn.frob_gamma[2],
          q.y.conjugate() * bn.frob_gamma[3]};
}

/// pi^2 on twist coordinates: scales by powers of eta = xi^{(p^2-1)/6} in Fp.
AffineG2 frobenius2_twist(const AffineG2& q) {
  const auto& bn = Bn254::get();
  const Fp2 eta2 = bn.frob2_eta.square();
  const Fp2 eta3 = eta2 * bn.frob2_eta;
  return {q.x * eta2, q.y * eta3};
}

/// The ate line table of Q: every step's affine (lambda, c), in the order
/// of ate_consume_schedule. The running point T stays Jacobian, so a step
/// stores its line numerators and the factor m with Z3 = Z m, the new
/// point's Z (docs/CRYPTO.md §6.5):
///   doubling:   m = 2Y, lambda = 3X^2 / Z3, c = (3X^3 - 2Y^2) / (Z3 Z^2)
///   mixed add:  m = H = xa Z^2 - X, R = ya Z^3 - Y,
///               lambda = R / Z3, c = (R X - Y H) / (Z3 Z^2)
/// Q itself is affine (Z = 1), so the last Z3 is the product of every m:
/// one inversion of it, then 1/Z3 of step k-1 = m_k / Z3 of step k walking
/// back. Field inverses are unique, so each line is the exact element the
/// per-step affine formulas give. A zero denominator (T = -T or T = -A,
/// never hit by an order-r Q) throws, as an affine inversion of zero would.
std::vector<PreparedLine> ate_lines(const AffineG2& q) {
  const auto& bn = Bn254::get();
  // 64-bit u: at most 65 doublings, an addition per set bit, and the two
  // correction lines.
  constexpr std::size_t kMaxSteps = 2 * 64 + 8;
  const unsigned nbits = bn.ate_loop.bit_length();
  if (2 * static_cast<std::size_t>(nbits) + 2 > kMaxSteps)
    throw Error("pairing: ate loop longer than the line table");
  std::vector<PreparedLine> lines;  // numerators until the recovery pass
  lines.reserve(kMaxSteps);
  std::array<Fp2, kMaxSteps> ms;  // each step's Z3 / Z
  Fp2 x = q.x, y = q.y, z = Fp2::one();

  const auto double_step = [&] {
    const Fp2 xx = x.square();
    const Fp2 yy = y.square();
    const Fp2 xyy = x * yy;
    const Fp2 e = xx.dbl() + xx;  // 3X^2
    const Fp2 m = y.dbl();
    ms[lines.size()] = m;
    lines.push_back({e, e * x - yy.dbl()});
    const Fp2 x3 = e.square() - xyy.dbl().dbl().dbl();
    y = e * (xyy.dbl().dbl() - x3) - yy.square().dbl().dbl().dbl();
    x = x3;
    z *= m;
  };
  const auto add_step = [&](const AffineG2& a) {
    const Fp2 zz = z.square();
    const Fp2 h = a.x * zz - x;
    const Fp2 r = a.y * zz * z - y;
    ms[lines.size()] = h;
    lines.push_back({r, r * x - y * h});
    const Fp2 hh = h.square();
    const Fp2 hhh = hh * h;
    const Fp2 xhh = x * hh;
    const Fp2 x3 = r.square() - hhh - xhh.dbl();
    y = r * (xhh - x3) - y * hhh;
    x = x3;
    z *= h;
  };

  for (int i = static_cast<int>(nbits) - 2; i >= 0; --i) {
    double_step();
    if (bn.ate_loop.bit(static_cast<unsigned>(i))) add_step(q);
  }
  AffineG2 q2 = frobenius2_twist(q);
  q2.y = -q2.y;
  add_step(frobenius_twist(q));
  add_step(q2);

  if (z.is_zero())
    throw Error("pairing: zero denominator in a Miller-loop line");
  obs::note(obs::Op::kFieldInversion);
  Fp2 z3_inv = z.inverse();
  for (std::size_t i = lines.size(); i-- > 0;) {
    const Fp2 z_inv = z3_inv * ms[i];  // 1/Z of step i's input point
    lines[i].lambda *= z3_inv;
    lines[i].c *= z3_inv * z_inv.square();
    z3_inv = z_inv;
  }
  return lines;
}

/// Folds an already-produced line sequence into the Miller accumulator.
/// `doubling` squares the accumulator before absorbing the line — exactly
/// the shape of the direct loop.
void absorb_line(Fp12& f, const LineCoeffs& l, bool doubling) {
  if (doubling) f = f.square();
  f = f.mul_by_line(l.a, l.b, l.c);
}

/// Replays the step pattern of ate_lines without any point arithmetic: one
/// doubling per loop bit, one addition per set bit, and the two trailing
/// Frobenius-correction additions. Consumers index into a line table in
/// this exact order.
template <class Step>
void ate_consume_schedule(Step&& step) {
  const auto& bn = Bn254::get();
  const unsigned nbits = bn.ate_loop.bit_length();
  for (int i = static_cast<int>(nbits) - 2; i >= 0; --i) {
    step(/*doubling=*/true);
    if (bn.ate_loop.bit(static_cast<unsigned>(i))) step(/*doubling=*/false);
  }
  step(false);
  step(false);
}

/// The Miller loop of a finite P against a finite Q's ate_lines table.
Fp12 miller_loop_table(const G1& p, const std::vector<PreparedLine>& lines) {
  Fp xp, yp;
  p.to_affine(xp, yp);

  Fp12 f = Fp12::one();
  std::size_t next = 0;
  ate_consume_schedule([&](bool doubling) {
    absorb_line(f, eval_line(lines[next++], xp, yp), doubling);
  });
  return f;
}

Fp12 pow_bigint(const Fp12& base, const math::BigInt& exp) {
  Fp12 acc = Fp12::one();
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = acc.square();
    if (exp.bit(i)) acc *= base;
  }
  return acc;
}

/// f^u for the (64-bit) BN parameter u. Assumes f is unitary (guaranteed
/// after the easy part), so the Granger-Scott cyclotomic squaring applies —
/// the dominant cost of the hard part drops to a third of generic squaring —
/// and the inverse is a free conjugation, which makes the signed-digit
/// (NAF) ladder strictly cheaper than binary: the nonzero-digit density
/// drops from the bit weight of u (28) to its NAF weight, each negative
/// digit paying only a conjugate-multiply. Same exponent, same group, so
/// the result is the identical Fp12 element the binary ladder produced.
Fp12 exp_by_u(const Fp12& f) {
  const std::uint64_t u = Bn254::get().u;
  // Non-adjacent form of u, least significant digit first. u < 2^63, so
  // the +1 correction on a negative digit cannot overflow and at most 65
  // digits are produced.
  std::array<std::int8_t, 66> naf{};
  int n = 0;
  for (std::uint64_t x = u; x != 0; ++n) {
    if (x & 1) {
      const std::int8_t d = (x & 3) == 1 ? 1 : -1;
      naf[n] = d;
      x -= static_cast<std::uint64_t>(d);  // d == -1 adds 1
    }
    x >>= 1;
  }
  const Fp12 f_inv = f.unitary_inverse();
  Fp12 acc = Fp12::one();
  bool started = false;
  for (int i = n - 1; i >= 0; --i) {
    if (started) acc = acc.cyclotomic_square();
    if (naf[i] == 1) {
      acc *= f;
      started = true;
    } else if (naf[i] == -1) {
      acc *= f_inv;
      started = true;
    }
  }
  return acc;
}

/// The BN hard-part multi-addition chain (Scott-Benger-Charlemagne-Perez-
/// Kachisa 2009): with z = u, computes elt^((p^4 - p^2 + 1)/r) from three
/// z-exponentiations, three Frobenius applications, and 13 mult/squares,
/// via the decomposition
///   (p^4-p^2+1)/r = p^3 + (6z^2+1) p^2 - (36z^3+18z^2+12z-1) p
///                   - (36z^3+30z^2+18z+2)
///   = y0 * y1^2 * y2^6 * y3^12 * y4^18 * y5^30 * y6^36
/// with y0 = f^(p+p^2+p^3), y1 = f^-1, y2 = f^(z^2 p^2), y3 = f^(-z p),
/// y4 = f^(-z - z^2 p), y5 = f^(-z^2), y6 = f^(-z^3 - z^3 p).
/// The decomposition identity is verified numerically over BigInt by
/// hard_chain_is_valid() before this path is ever taken — on mismatch we
/// fall back to the generic square-and-multiply.
Fp12 hard_part_chain(const Fp12& f) {
  const Fp12 fz = exp_by_u(f);
  const Fp12 fz2 = exp_by_u(fz);
  const Fp12 fz3 = exp_by_u(fz2);
  const Fp12 fp = frobenius12(f);
  const Fp12 fp2 = frobenius12(fp);
  const Fp12 fp3 = frobenius12(fp2);

  const Fp12 y0 = fp * fp2 * fp3;
  const Fp12 y1 = f.unitary_inverse();
  const Fp12 y2 = frobenius12(frobenius12(fz2));
  const Fp12 y3 = frobenius12(fz).unitary_inverse();
  const Fp12 y4 = (fz * frobenius12(fz2)).unitary_inverse();
  const Fp12 y5 = fz2.unitary_inverse();
  const Fp12 y6 = (fz3 * frobenius12(fz3)).unitary_inverse();

  // Vectorial addition chain for y0 y1^2 y2^6 y3^12 y4^18 y5^30 y6^36.
  // Every intermediate is a product of unitary elements, so the cyclotomic
  // squaring applies throughout.
  Fp12 t0 = y6.cyclotomic_square();
  t0 *= y4;
  t0 *= y5;
  Fp12 t1 = y3 * y5;
  t1 *= t0;
  t0 *= y2;
  t1 = t1.cyclotomic_square();
  t1 *= t0;
  t1 = t1.cyclotomic_square();
  t0 = t1 * y1;
  t1 *= y0;
  t0 = t0.cyclotomic_square();
  return t0 * t1;
}

/// Checks the lambda decomposition against (p^4 - p^2 + 1)/r exactly, once.
bool hard_chain_is_valid() {
  static const bool valid = [] {
    using math::BigInt;
    const auto& bn = Bn254::get();
    const BigInt z(bn.u);
    const BigInt z2 = z * z;
    const BigInt z3 = z2 * z;
    const BigInt p = BigInt::from_u256(bn.p);
    const BigInt p2 = p * p;
    const BigInt pos = p2 * p + (z2 * BigInt(6) + BigInt(1)) * p2;
    const BigInt neg =
        (z3 * BigInt(36) + z2 * BigInt(18) + z * BigInt(12) - BigInt(1)) * p +
        (z3 * BigInt(36) + z2 * BigInt(30) + z * BigInt(18) + BigInt(2));
    if (BigInt::cmp(pos, neg) < 0) return false;
    return pos - neg == bn.final_exp_hard;
  }();
  return valid;
}

}  // namespace

Fp12 frobenius12(const Fp12& x) {
  const auto& bn = Bn254::get();
  return x.frobenius(std::span<const Fp2, 6>(bn.frob_gamma));
}

void untwist(const G2& q, Fp12& x_out, Fp12& y_out) {
  Fp2 x, y;
  q.to_affine(x, y);
  // (x, y) -> (x w^2, y w^3); w^2 = v so x lands in the v-coefficient of the
  // first Fp6 half, y w^3 = (y v) w in the v-coefficient of the second half.
  x_out = Fp12(Fp6(Fp2::zero(), x, Fp2::zero()), Fp6::zero());
  y_out = Fp12(Fp6::zero(), Fp6(Fp2::zero(), y, Fp2::zero()));
}

Fp12 miller_loop(const G1& p, const G2& q) {
  obs::note(obs::Op::kMillerLoop);
  if (p.is_infinity() || q.is_infinity()) return Fp12::one();
  return miller_loop_table(p, ate_lines(to_affine2(q)));
}

G2Prepared::G2Prepared(const G2& q) {
  if (q.is_infinity()) return;
  obs::note(obs::Op::kG2Prepared);
  lines_ = ate_lines(to_affine2(q));
}

Fp12 miller_loop(const G1& p, const G2Prepared& prepared) {
  obs::note(obs::Op::kMillerLoop);
  if (p.is_infinity() || prepared.is_infinity()) return Fp12::one();
  return miller_loop_table(p, prepared.lines());
}

namespace {

/// Easy part: f^((p^6 - 1)(p^2 + 1)). The result is unitary, which the
/// hard-part chain exploits (inverse == conjugate). Every caller pays one
/// Fp12 inversion here — the op the batched variant shares across elements.
Fp12 easy_part(const Fp12& f) {
  obs::note(obs::Op::kFp12Inverse);
  Fp12 t = f.conjugate() * f.inverse();  // f^(p^6 - 1)
  return frobenius12(frobenius12(t)) * t;  // ^(p^2 + 1)
}

/// Hard part: t^((p^4 - p^2 + 1) / r) for unitary t.
GT hard_part(const Fp12& t) {
  if (hard_chain_is_valid()) return hard_part_chain(t);
  return pow_bigint(t, Bn254::get().final_exp_hard);
}

}  // namespace

GT final_exponentiation(const Fp12& f) {
  obs::note(obs::Op::kFinalExp);
  return hard_part(easy_part(f));
}

std::vector<Fp12> final_exp_easy_batch(std::span<const Fp12> fs) {
  std::vector<Fp12> out;
  if (fs.empty()) return out;
  // Montgomery batch inversion: prefix[i] = fs[0] * ... * fs[i]; invert the
  // full product once; walking back, inv(fs[i]) = prefix[i-1] * inv_suffix.
  // Field inverses are unique, so each recovered inverse is the exact same
  // element fs[i].inverse() would produce — downstream verdicts are
  // bit-identical to the unbatched easy part.
  std::vector<Fp12> prefix(fs.size());
  prefix[0] = fs[0];
  for (std::size_t i = 1; i < fs.size(); ++i) prefix[i] = prefix[i - 1] * fs[i];
  if (prefix.back().is_zero())
    throw Error("final_exp_easy_batch: zero element has no inverse");
  obs::note(obs::Op::kFp12Inverse);
  Fp12 suffix_inv = prefix.back().inverse();
  std::vector<Fp12> inv(fs.size());
  for (std::size_t i = fs.size() - 1; i > 0; --i) {
    inv[i] = suffix_inv * prefix[i - 1];
    suffix_inv *= fs[i];
  }
  inv[0] = suffix_inv;
  out.resize(fs.size());
  for (std::size_t i = 0; i < fs.size(); ++i) {
    Fp12 t = fs[i].conjugate() * inv[i];
    out[i] = frobenius12(frobenius12(t)) * t;
  }
  return out;
}

GT final_exp_hard(const Fp12& t) {
  obs::note(obs::Op::kFinalExp);
  return hard_part(t);
}

GT final_exponentiation_generic(const Fp12& f) {
  obs::note(obs::Op::kFinalExp);
  obs::note(obs::Op::kFp12Inverse);
  const auto& bn = Bn254::get();
  Fp12 t = f.conjugate() * f.inverse();
  t = frobenius12(frobenius12(t)) * t;
  return pow_bigint(t, bn.final_exp_hard);
}

GT pairing(const G1& p, const G2& q) {
  obs::note(obs::Op::kPairing);
  return final_exponentiation(miller_loop(p, q));
}

GT pairing(const G1& p, const G2Prepared& prepared) {
  obs::note(obs::Op::kPairing);
  return final_exponentiation(miller_loop(p, prepared));
}

GT multi_pairing(const std::vector<std::pair<G1, G2>>& pairs) {
  Fp12 f = Fp12::one();
  for (const auto& [p, q] : pairs) {
    obs::note(obs::Op::kPairing);
    f *= miller_loop(p, q);
  }
  return final_exponentiation(f);
}

GT multi_pairing(std::span<const std::pair<G1, const G2Prepared*>> pairs) {
  return multi_pairing(pairs, std::span<const std::pair<G1, G2>>{});
}

GT multi_pairing(std::span<const std::pair<G1, const G2Prepared*>> prepared,
                 std::span<const std::pair<G1, G2>> unprepared) {
  // Fused Miller loops: every pair follows the same Q-independent ate step
  // schedule, so one accumulator squares once per doubling bit and absorbs
  // each pair's line. Exactly equal to the product of individual loops —
  // (f_a f_b)^2 = f_a^2 f_b^2 holds per step by induction — while paying
  // the ~|ate_loop| Fp12 squarings once instead of once per pair. Prepared
  // pairs read their stored table; each unprepared pair gets a transient
  // table from ate_lines, the same lines a G2Prepared would hold.
  struct Active {
    Fp xp, yp;
    const std::vector<PreparedLine>* lines;
  };
  std::vector<Active> active;
  active.reserve(prepared.size() + unprepared.size());
  std::vector<G1> g1s;
  g1s.reserve(prepared.size() + unprepared.size());
  for (const auto& [p, q] : prepared) {
    obs::note(obs::Op::kPairing);
    obs::note(obs::Op::kMillerLoop);
    if (p.is_infinity() || q->is_infinity()) continue;
    active.push_back({Fp::zero(), Fp::zero(), &q->lines()});
    g1s.push_back(p);
  }
  std::vector<std::vector<PreparedLine>> tables;
  tables.reserve(unprepared.size());  // Active holds pointers into it
  for (const auto& [p, q] : unprepared) {
    obs::note(obs::Op::kPairing);
    obs::note(obs::Op::kMillerLoop);
    if (p.is_infinity() || q.is_infinity()) continue;
    tables.push_back(ate_lines(to_affine2(q)));
    active.push_back({Fp::zero(), Fp::zero(), &tables.back()});
    g1s.push_back(p);
  }
  // One batched normalization for every finite G1 input — a single Fp
  // inversion replaces the per-pair to_affine inversions (docs/CRYPTO.md
  // §6.4; curve.field_inversions counts the difference). Each G2 side pays
  // one batched inversion for its line table: prepared pairs at G2Prepared
  // build, unprepared pairs here (§6.5).
  std::vector<AffinePoint<G1Traits>> g1_aff(g1s.size());
  batch_normalize<G1Traits>(g1s, g1_aff);
  for (std::size_t i = 0; i < active.size(); ++i) {
    active[i].xp = g1_aff[i].x;
    active[i].yp = g1_aff[i].y;
  }

  Fp12 f = Fp12::one();
  if (active.empty()) return final_exponentiation(f);

  std::size_t next = 0;
  ate_consume_schedule([&](bool doubling) {
    if (doubling) f = f.square();
    for (const Active& a : active) {
      const LineCoeffs l = eval_line((*a.lines)[next], a.xp, a.yp);
      f = f.mul_by_line(l.a, l.b, l.c);
    }
    ++next;
  });
  return final_exponentiation(f);
}

GT MillerAccumulator::finalize() const {
  return multi_pairing(prepared_, {});
}

bool gt_in_cyclotomic_subgroup(const Fp12& x) {
  if (x.is_zero()) return false;
  // x^Phi_12(p) == 1  <=>  x^(p^4) * x == x^(p^2). Frobenius is
  // coefficient-wise conjugation and scaling, so the whole test costs four
  // Frobenius maps and one Fp12 multiplication.
  const Fp12 x_p2 = frobenius12(frobenius12(x));
  const Fp12 x_p4 = frobenius12(frobenius12(x_p2));
  return x_p4 * x == x_p2;
}

GT gt_multi_pow_unitary(std::span<const GT> xs,
                        std::span<const std::uint64_t> es) {
  if (xs.size() != es.size())
    throw Error("gt_multi_pow: bases/exponents size mismatch");
  obs::note(obs::Op::kGtPow, xs.size());
  unsigned nbits = 0;
  for (const std::uint64_t e : es)
    nbits = std::max(nbits, static_cast<unsigned>(std::bit_width(e)));
  Fp12 acc = Fp12::one();
  for (int i = static_cast<int>(nbits) - 1; i >= 0; --i) {
    // Every factor is in the cyclotomic subgroup (caller contract), the
    // subgroup is closed under multiplication, and one() is a member — so
    // the accumulator stays unitary and the cheap squaring stays valid.
    acc = acc.cyclotomic_square();
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if ((es[j] >> i) & 1) acc *= xs[j];
    }
  }
  return acc;
}

GT pairing_reference(const G1& p, const G2& q) {
  if (p.is_infinity() || q.is_infinity()) return Fp12::one();
  const auto& bn = Bn254::get();

  Fp12 xq, yq;
  untwist(q, xq, yq);

  Fp xp, yp;
  p.to_affine(xp, yp);
  auto embed = [](const Fp& a) {
    return Fp12(Fp6(Fp2(a, Fp::zero()), Fp2::zero(), Fp2::zero()),
                Fp6::zero());
  };

  // Affine coordinates of the running point T over Fp.
  Fp xt = xp, yt = yp;
  bool t_infinity = false;
  Fp12 f = Fp12::one();

  const unsigned nbits = bn.r.bit_length();
  for (int i = static_cast<int>(nbits) - 2; i >= 0; --i) {
    f = f.square();
    if (!t_infinity) {
      if (yt.is_zero()) {
        t_infinity = true;  // vertical tangent; line lies in a subfield
      } else {
        obs::note(obs::Op::kFieldInversion);
        const Fp lambda =
            xt.square() * Fp::from_u64(3) * (yt + yt).inverse();
        // l = (yq - yt) - lambda (xq - xt)
        f *= (yq - embed(yt)) - embed(lambda) * (xq - embed(xt));
        const Fp x3 = lambda.square() - xt - xt;
        const Fp y3 = lambda * (xt - x3) - yt;
        xt = x3;
        yt = y3;
      }
    }
    if (bn.r.bit(static_cast<unsigned>(i)) && !t_infinity) {
      if (xt == xp && yt == -yp) {
        // T + P = infinity: vertical line, lies in Fp6, killed by the final
        // exponentiation — skip the factor.
        t_infinity = true;
      } else if (xt == xp && yt == yp) {
        throw Error("tate: unexpected doubling in addition step");
      } else {
        obs::note(obs::Op::kFieldInversion);
        const Fp lambda = (yp - yt) * (xp - xt).inverse();
        f *= (yq - embed(yt)) - embed(lambda) * (xq - embed(xt));
        const Fp x3 = lambda.square() - xt - xp;
        const Fp y3 = lambda * (xt - x3) - yt;
        xt = x3;
        yt = y3;
      }
    }
  }
  return final_exponentiation(f);
}

const GT& gt_generator() { return Bn254::get().gt_gen; }

}  // namespace peace::curve
