#include "curve/bn254.hpp"

#include "common/serde.hpp"
#include "curve/pairing.hpp"

namespace peace::curve {

using math::BigInt;
using math::U256;

namespace {

// BN parameter u for alt_bn128; p and r are polynomial in u:
//   p(u) = 36u^4 + 36u^3 + 24u^2 + 6u + 1
//   r(u) = 36u^4 + 36u^3 + 18u^2 + 6u + 1
constexpr std::uint64_t kU = 4965661367192848881ULL;

// Standard alt_bn128 G2 generator (affine, Fp2 = c0 + c1 i).
constexpr const char* kG2GenX0 =
    "10857046999023057135944570762232829481370756359578518086990519993285655852781";
constexpr const char* kG2GenX1 =
    "11559732032986387107991004021392285783925812861821192530917403151452391805634";
constexpr const char* kG2GenY0 =
    "8495653923123431417604973247489272438418190587263600148770280649306958101930";
constexpr const char* kG2GenY1 =
    "4082367875863433681332203403145435568316851327593401208105741076214120093531";

Bn254 g_params;
bool g_initialized = false;
G2Prepared g_g2_gen_prepared;

// Fixed-base table for g1_gen (docs/CRYPTO.md §6.6): window i holds the
// affine multiples j 2^{7i} G for j = 1..64, so a signed radix-2^7 digit
// d in [-63, 64] is one lookup (negated for d < 0). 37 windows cover a
// scalar below r < 2^254 plus the recoding carry into the top window.
constexpr int kGenWindowBits = 7;
constexpr int kGenWindows = 37;
constexpr int kGenDigits = 64;  // 2^(kGenWindowBits - 1)
std::vector<AffinePoint<G1Traits>> g_g1_gen_table;

// --- signed bignum helpers (lattice bookkeeping) ---------------------------

SignedBig sb_make(bool neg, BigInt mag) {
  if (mag.is_zero()) neg = false;
  return {neg, std::move(mag)};
}

SignedBig sb_neg(const SignedBig& a) { return sb_make(!a.neg, a.mag); }

SignedBig sb_add(const SignedBig& a, const SignedBig& b) {
  if (a.neg == b.neg) return sb_make(a.neg, a.mag + b.mag);
  const int c = BigInt::cmp(a.mag, b.mag);
  if (c == 0) return {};
  return c > 0 ? sb_make(a.neg, a.mag - b.mag)
               : sb_make(b.neg, b.mag - a.mag);
}

SignedBig sb_sub(const SignedBig& a, const SignedBig& b) {
  return sb_add(a, sb_neg(b));
}

SignedBig sb_mul(const SignedBig& a, const SignedBig& b) {
  return sb_make(a.neg != b.neg, a.mag * b.mag);
}

/// Canonical residue of a modulo m, in [0, m).
BigInt sb_mod(const SignedBig& a, const BigInt& m) {
  BigInt v = a.mag % m;
  if (a.neg && !v.is_zero()) v = m - v;
  return v;
}

/// 3x3 determinant of signed entries (cofactors of the GLS basis).
SignedBig sb_det3(const std::array<std::array<SignedBig, 3>, 3>& m) {
  const SignedBig d0 =
      sb_sub(sb_mul(m[1][1], m[2][2]), sb_mul(m[1][2], m[2][1]));
  const SignedBig d1 =
      sb_sub(sb_mul(m[1][0], m[2][2]), sb_mul(m[1][2], m[2][0]));
  const SignedBig d2 =
      sb_sub(sb_mul(m[1][0], m[2][1]), sb_mul(m[1][1], m[2][0]));
  return sb_add(sb_sub(sb_mul(m[0][0], d0), sb_mul(m[0][1], d1)),
                sb_mul(m[0][2], d2));
}

// --- fixed-point Babai round-off (docs/CRYPTO.md §6.1) ----------------------
//
// Coefficient j of a lattice split is c = round(k * adj / det), where det
// is a multiple of r (r for the GLV basis, 36 r for the GLS sublattice).
// For 0 <= k < r it is evaluated as (k * num + 2^575) >> 576 with
// num = floor(|adj| 2^576 / |det|) < 2^512: the fixed-point value falls
// short of k |adj| / |det| by less than k 2^-576 < 2^-322, while
// k |adj| / |det| is at least 1/(2 |det|) > 2^-322 (|det| < 2^321) from
// every rounding boundary it does not sit on. Sitting on one needs
// 2 k adj = odd * det, hence r | k adj — impossible for 0 < k < r and
// 0 < |adj| < r, r prime (k = 0 or adj = 0 gives exactly 0). So the
// fixed-point coefficient IS the exact round-off, with no division.

/// One coefficient's reciprocal: num = hi 2^256 + lo, and the sign of
/// adj / det.
struct RoundOff {
  U256 lo, hi;
  bool neg = false;
};

RoundOff make_round_off(const SignedBig& adj, const SignedBig& det,
                        const BigInt& r_big) {
  if (!(det.mag % r_big).is_zero() || det.mag.bit_length() > 320)
    throw Error("bn254: lattice determinant out of range");
  if (!(BigInt::cmp(adj.mag, r_big) < 0))
    throw Error("bn254: adjugate entry out of range");
  const BigInt num = (adj.mag << 576) / det.mag;
  if (num.bit_length() > 512)
    throw Error("bn254: round-off reciprocal too long");
  RoundOff out;
  out.lo = (num % (BigInt(1) << 256)).to_u256();
  out.hi = (num >> 256).to_u256();
  out.neg = adj.neg != det.neg;
  return out;
}

U256 neg256(const U256& a) {
  U256 out;
  math::sub_borrow(out, U256::zero(), a);
  return out;
}

/// a * b mod 2^256: exact on two's-complement residues.
U256 mul_lo(const U256& a, const U256& b) {
  const std::array<std::uint64_t, 8> w = math::mul_wide(a, b);
  return U256(w[0], w[1], w[2], w[3]);
}

/// Two's-complement residue mod 2^256 of a signed value below 2^255.
U256 to_twos(const SignedBig& a) {
  if (a.mag.bit_length() >= 255) throw Error("bn254: basis entry too long");
  const U256 v = a.mag.to_u256();
  return a.neg ? neg256(v) : v;
}

/// round(k * adj / det) as a two's-complement residue mod 2^256; k < r.
U256 round_off(const RoundOff& ro, const U256& k) {
  const std::array<std::uint64_t, 8> lo = math::mul_wide(k, ro.lo);
  const std::array<std::uint64_t, 8> hi = math::mul_wide(k, ro.hi);
  // acc = k * num + 2^575 < 2^766; the shift keeps limbs 9..11.
  std::array<std::uint64_t, 12> acc{};
  std::copy(lo.begin(), lo.end(), acc.begin());
  unsigned char carry = 0;
  for (int i = 0; i < 8; ++i)
    carry = math::addc(carry, acc[4 + i], hi[i], acc[4 + i]);
  carry = math::addc(0, acc[8], std::uint64_t{1} << 63, acc[8]);
  for (int i = 9; i < 12; ++i) carry = math::addc(carry, acc[i], 0, acc[i]);
  const U256 c(acc[9], acc[10], acc[11], 0);
  return ro.neg ? neg256(c) : c;
}

/// Babai split of k against an N-dimensional basis whose rows are given
/// as two's-complement residues: c = round((k, 0, ..) adj(B) / det),
/// split = (k, 0, ..) - c B. Computed mod 2^256; every component is
/// shorter than max_bits < 255 bits, so its residue is exact.
template <std::size_t N>
void babai_split(const U256& k, const std::array<RoundOff, N>& round,
                 const std::array<std::array<U256, N>, N>& basis,
                 unsigned max_bits, std::array<U256, N>& mag,
                 std::array<bool, N>& neg) {
  std::array<U256, N> c;
  for (std::size_t j = 0; j < N; ++j) c[j] = round_off(round[j], k);
  for (std::size_t i = 0; i < N; ++i) {
    U256 ki = i == 0 ? k : U256::zero();
    for (std::size_t j = 0; j < N; ++j)
      math::sub_borrow(ki, ki, mul_lo(c[j], basis[j][i]));
    neg[i] = (ki.limb[3] >> 63) != 0;
    mag[i] = neg[i] ? neg256(ki) : ki;
    if (mag[i].bit_length() > max_bits)
      throw Error("bn254: lattice split out of range");
  }
}

// --- endomorphism context --------------------------------------------------
//
// Everything the GLV/GLS fast paths touch per call, owned here so the hot
// functions never go through Bn254::get(). Published (ready = true) only
// after every identity below has been verified numerically at init
// (docs/CRYPTO.md §6.1-§6.2).
struct EndoCtx {
  bool ready = false;
  U256 r;

  // GLV (G1): phi(x, y) = (beta x, y), phi = [lambda] on all of E(Fp).
  Fp beta;
  U256 lambda;
  std::array<std::array<U256, 2>, 2> b2;  // basis rows (a, b), mod 2^256
  std::array<RoundOff, 2> round2;

  // GLS (G2): psi = untwist.Frobenius.twist, psi = [6u^2] on the subgroup.
  U256 lambda2;    // 6u^2 = t - 1 = p mod r
  U256 trace;      // t = 6u^2 + 1
  std::array<std::array<U256, 4>, 4> b4;
  std::array<RoundOff, 4> round4;
  Fp2 psi_x, psi_y;  // frob_gamma[2], frob_gamma[3]
};

EndoCtx g_endo;

G1 g1_endo_impl(const EndoCtx& ctx, const G1& p) {
  G1 out = p;
  out.x = out.x * ctx.beta;  // Jacobian x scales like affine x
  return out;
}

G2 g2_psi_impl(const EndoCtx& ctx, const G2& q) {
  // Conjugate all coordinates (Frobenius on Fp2), then untwist-retwist:
  // affine (x, y) -> (conj(x) gamma_2, conj(y) gamma_3); Z carries plain
  // conjugation since X/Z^2 and Y/Z^3 must transform like affine coords.
  G2 out;
  out.x = q.x.conjugate() * ctx.psi_x;
  out.y = q.y.conjugate() * ctx.psi_y;
  out.z = q.z.conjugate();
  return out;
}

U256 reduce_mod_r(const EndoCtx& ctx, U256 k) {
  while (!(k < ctx.r)) math::sub_borrow(k, k, ctx.r);  // at most 5 rounds
  return k;
}

GlvSplit glv_decompose_impl(const EndoCtx& ctx, const U256& k) {
  obs::note(obs::Op::kGlvDecomposition);
  GlvSplit out;
  babai_split<2>(reduce_mod_r(ctx, k), ctx.round2, ctx.b2, 130, out.k,
                 out.neg);
  return out;
}

GlsSplit gls_decompose_impl(const EndoCtx& ctx, const U256& k) {
  obs::note(obs::Op::kGlsDecomposition);
  GlsSplit out;
  babai_split<4>(reduce_mod_r(ctx, k), ctx.round4, ctx.b4, 96, out.k,
                 out.neg);
  return out;
}

G2 g2_clear_cofactor_impl(const EndoCtx& ctx, const G2& q) {
  // [2p - r]Q = [t]psi(Q) + [t-1]Q - psi^2(Q): the Frobenius trace
  // relation [p]Q = [t]psi(Q) - psi^2(Q) plus 2p - r = p + t - 1.
  // Regrouped as [t](psi(Q) + Q) - Q - psi^2(Q): one 127-bit single-point
  // ladder plus two plain additions, cheaper than the three-term
  // interleaved form (one table instead of three, a third of the mixed
  // additions). Same scalar identity, so the same group element.
  const G2 p1 = g2_psi_impl(ctx, q);
  const G2 p2 = g2_psi_impl(ctx, p1);
  return (p1 + q).mul_wnaf(ctx.trace) - q - p2;
}

/// Deterministic on-curve twist point for init-time identity checks; with
/// overwhelming probability NOT in the order-r subgroup, which is exactly
/// what the cofactor-clearing check wants to exercise.
G2 sample_twist_point() {
  for (std::uint64_t c = 1;; ++c) {
    const Fp2 x(Fp::from_u64(c), Fp::from_u64(1));
    const Fp2 rhs = x.square() * x + G2Traits::b();
    Fp2 y;
    if (rhs.sqrt(y)) return G2(x, y);
  }
}

/// Derives beta/lambda, the GLV and GLS lattice bases, and the psi
/// constants, then verifies every identity the fast paths rely on —
/// eigenvalues on sample points, lattice membership of all basis rows, and
/// round-trip decompositions — throwing on any mismatch. Only then is the
/// context published.
void setup_endomorphisms(Bn254& params, const BigInt& p_big,
                         const BigInt& r_big) {
  EndoCtx ctx;
  ctx.r = r_big.to_u256();
  auto& b2 = params.glv_basis;
  auto& adj2 = params.glv_adj;
  auto& det2 = params.glv_det;
  auto& b4 = params.gls_basis;
  auto& adj4 = params.gls_adj;
  auto& det4 = params.gls_det;

  // --- GLV: beta (cube root of unity in Fp) and its eigenvalue ------------
  const U256 e_p = ((p_big - BigInt(1)) / BigInt(3)).to_u256();
  for (std::uint64_t c = 2;; ++c) {
    ctx.beta = Fp::from_u64(c).pow(e_p);
    if (!(ctx.beta == Fp::one())) break;
    if (c > 64) throw Error("bn254: no cube root of unity in Fp");
  }
  const U256 e_r = ((r_big - BigInt(1)) / BigInt(3)).to_u256();
  Fr lam;
  for (std::uint64_t c = 2;; ++c) {
    lam = Fr::from_u64(c).pow(e_r);
    if (!(lam == Fr::one())) break;
    if (c > 64) throw Error("bn254: no cube root of unity in Fr");
  }
  // beta and lambda are each one of two primitive cube roots; pick the
  // lambda matching beta by testing phi(G) == [lambda]G, else square it.
  ctx.lambda = lam.to_u256();
  const G1 phi_g = g1_endo_impl(ctx, params.g1_gen);
  if (!(params.g1_gen * ctx.lambda).equals(phi_g)) {
    lam = lam * lam;
    ctx.lambda = lam.to_u256();
    if (!(params.g1_gen * ctx.lambda).equals(phi_g))
      throw Error("bn254: glv eigenvalue mismatch");
  }
  // Independent spot check on a second point.
  const G1 spot = params.g1_gen * U256(0x9e3779b97f4a7c15ULL);
  if (!(spot * ctx.lambda).equals(g1_endo_impl(ctx, spot)))
    throw Error("bn254: glv endomorphism check failed");

  // --- GLV basis: extended Euclid on (r, lambda) (GLV 2001) ---------------
  // Remainders r_i = s_i r + t_i lambda, so (r_i, -t_i) is in the lattice
  // {(a, b) : a + b lambda = 0 mod r}; stop at the first r_i < sqrt(r) and
  // take the shorter neighbour as the second row.
  const BigInt lam_big = BigInt::from_u256(ctx.lambda);
  BigInt rem0 = r_big, rem1 = lam_big;
  SignedBig t0{}, t1{false, BigInt(1)};
  while (!(BigInt::cmp(rem1 * rem1, r_big) < 0)) {
    BigInt q, rem;
    BigInt::divmod(rem0, rem1, q, rem);
    const SignedBig tn = sb_sub(t0, sb_mul(sb_make(false, q), t1));
    rem0 = rem1;
    rem1 = rem;
    t0 = t1;
    t1 = tn;
  }
  BigInt q, rem2;
  BigInt::divmod(rem0, rem1, q, rem2);
  const SignedBig t2 = sb_sub(t0, sb_mul(sb_make(false, q), t1));
  const auto norm2 = [](const BigInt& a, const SignedBig& t) {
    return a * a + t.mag * t.mag;
  };
  b2[0] = {sb_make(false, rem1), sb_neg(t1)};
  if (BigInt::cmp(norm2(rem0, t0), norm2(rem2, t2)) <= 0)
    b2[1] = {sb_make(false, rem0), sb_neg(t0)};
  else
    b2[1] = {sb_make(false, rem2), sb_neg(t2)};
  for (const auto& row : b2) {
    if (!sb_mod(sb_add(row[0], sb_mul(row[1], sb_make(false, lam_big))),
                r_big)
             .is_zero())
      throw Error("bn254: glv basis row not in lattice");
    if (row[0].mag.bit_length() > 135 || row[1].mag.bit_length() > 135)
      throw Error("bn254: glv basis row too long");
  }
  det2 = sb_sub(sb_mul(b2[0][0], b2[1][1]), sb_mul(b2[0][1], b2[1][0]));
  if (det2.mag.is_zero()) throw Error("bn254: glv basis degenerate");
  adj2 = {b2[1][1], sb_neg(b2[0][1])};

  // --- GLS: psi eigenvalue and the 4-dimensional lattice ------------------
  // p = r + t - 1 with t = 6u^2 + 1, so lambda2 = p mod r = 6u^2 exactly.
  const BigInt bu(params.u);
  const BigInt six_u2 = BigInt(6) * bu * bu;
  ctx.lambda2 = six_u2.to_u256();
  ctx.trace = (six_u2 + BigInt(1)).to_u256();
  ctx.psi_x = params.frob_gamma[2];
  ctx.psi_y = params.frob_gamma[3];

  // Closed-form basis rows from lambda^2 + (6u+3) lambda + (6u+1) = 0 and
  // lambda^4 = lambda^2 - 1 (mod r); rows 3 and 4 are lambda * (previous)
  // reduced by those relations. Each row is verified in-lattice below.
  const SignedBig su1 = sb_make(false, BigInt(6) * bu + BigInt(1));
  const SignedBig su2 = sb_make(false, BigInt(6) * bu + BigInt(2));
  const SignedBig su3 = sb_make(false, BigInt(6) * bu + BigInt(3));
  const SignedBig one = sb_make(false, BigInt(1));
  b4[0] = {su1, su3, one, SignedBig{}};
  b4[1] = {SignedBig{}, su1, su3, one};
  b4[2] = {sb_neg(one), SignedBig{}, su2, su3};
  b4[3] = {sb_neg(su3), sb_neg(one), su3, su2};
  std::array<BigInt, 4> lpow;
  lpow[0] = BigInt(1);
  for (int i = 1; i < 4; ++i) lpow[i] = (lpow[i - 1] * six_u2) % r_big;
  for (const auto& row : b4) {
    SignedBig acc{};
    for (int i = 0; i < 4; ++i)
      acc = sb_add(acc, sb_mul(row[i], sb_make(false, lpow[i])));
    if (!sb_mod(acc, r_big).is_zero())
      throw Error("bn254: gls basis row not in lattice");
  }
  // Cofactors C[j][0] (first row of the adjugate, transposed) and the
  // determinant by expansion along the first column.
  for (int j = 0; j < 4; ++j) {
    std::array<std::array<SignedBig, 3>, 3> minor;
    for (int rr = 0, mr = 0; rr < 4; ++rr) {
      if (rr == j) continue;
      for (int cc = 1; cc < 4; ++cc) minor[mr][cc - 1] = b4[rr][cc];
      ++mr;
    }
    const SignedBig d = sb_det3(minor);
    adj4[j] = (j % 2 == 0) ? d : sb_neg(d);
  }
  det4 = SignedBig{};
  for (int j = 0; j < 4; ++j)
    det4 = sb_add(det4, sb_mul(b4[j][0], adj4[j]));
  if (det4.mag.is_zero()) throw Error("bn254: gls basis degenerate");

  // Fixed-point round-off reciprocals and the rows as residues mod 2^256:
  // all that the per-call splits read.
  for (int j = 0; j < 2; ++j) {
    ctx.round2[j] = make_round_off(adj2[j], det2, r_big);
    for (int i = 0; i < 2; ++i) ctx.b2[j][i] = to_twos(b2[j][i]);
  }
  for (int j = 0; j < 4; ++j) {
    ctx.round4[j] = make_round_off(adj4[j], det4, r_big);
    for (int i = 0; i < 4; ++i) ctx.b4[j][i] = to_twos(b4[j][i]);
  }

  // psi eigenvalue on the subgroup, via the generator.
  if (!(params.g2_gen * ctx.lambda2).equals(g2_psi_impl(ctx, params.g2_gen)))
    throw Error("bn254: gls eigenvalue mismatch");
  // Cofactor-clearing identity on a (generic, non-subgroup) twist point.
  const G2 twist_pt = sample_twist_point();
  if (!g2_clear_cofactor_impl(ctx, twist_pt)
           .equals(twist_pt * params.g2_cofactor))
    throw Error("bn254: psi cofactor identity failed");

  // Round-trip decompositions for edge scalars.
  const U256 r_minus_1 = (r_big - BigInt(1)).to_u256();
  const U256 third = (r_big / BigInt(3)).to_u256();
  for (const U256& k : {U256::one(), r_minus_1, third}) {
    const BigInt kb = BigInt::from_u256(k) % r_big;
    const GlvSplit s2 = glv_decompose_impl(ctx, k);
    SignedBig acc = sb_add(sb_make(s2.neg[0], BigInt::from_u256(s2.k[0])),
                           sb_mul(sb_make(s2.neg[1], BigInt::from_u256(s2.k[1])),
                                  sb_make(false, lam_big)));
    if (!(sb_mod(acc, r_big) == kb))
      throw Error("bn254: glv decomposition round-trip failed");
    const GlsSplit s4 = gls_decompose_impl(ctx, k);
    acc = SignedBig{};
    for (int i = 0; i < 4; ++i)
      acc = sb_add(acc, sb_mul(sb_make(s4.neg[i], BigInt::from_u256(s4.k[i])),
                               sb_make(false, lpow[i])));
    if (!(sb_mod(acc, r_big) == kb))
      throw Error("bn254: gls decomposition round-trip failed");
  }

  params.glv_beta = ctx.beta;
  params.glv_lambda = ctx.lambda;
  params.gls_lambda = ctx.lambda2;
  ctx.ready = true;
  g_endo = ctx;
}

/// Builds g_g1_gen_table's layout: 64 consecutive multiples per window,
/// the next window's base one doubling of the last (128 2^{7i} G), and one
/// batch_normalize for all 2368 points.
std::vector<AffinePoint<G1Traits>> build_generator_table(const G1& g) {
  std::vector<G1> jac;
  jac.reserve(kGenWindows * kGenDigits);
  G1 base = g;
  for (int i = 0; i < kGenWindows; ++i) {
    jac.push_back(base);
    for (int j = 1; j < kGenDigits; ++j) jac.push_back(jac.back() + base);
    base = jac.back().dbl();
  }
  std::vector<AffinePoint<G1Traits>> table(jac.size());
  batch_normalize<G1Traits>(jac, table);
  return table;
}

BigInt bn_poly(std::uint64_t u, std::uint64_t c2) {
  // 36u^4 + 36u^3 + c2*u^2 + 6u + 1
  const BigInt bu(u);
  const BigInt u2 = bu * bu;
  const BigInt u3 = u2 * bu;
  const BigInt u4 = u3 * bu;
  return u4 * BigInt(36) + u3 * BigInt(36) + u2 * BigInt(c2) +
         bu * BigInt(6) + BigInt(1);
}

}  // namespace

const Fp2& G2Traits::b() {
  static const Fp2 b2 = Fp2::from_u64(3, 0) * math::fp2_xi().inverse();
  return b2;
}

void Bn254::init() {
  if (g_initialized) return;

  Bn254 params;
  params.u = kU;
  const BigInt p_big = bn_poly(kU, 24);
  const BigInt r_big = bn_poly(kU, 18);
  params.p = p_big.to_u256();
  params.r = r_big.to_u256();

  Fp::init(params.p);
  Fr::init(params.r);

  // g2_cofactor = 2p - r (the order of E'(Fp2) is r * (2p - r)).
  params.g2_cofactor = (p_big + p_big - r_big).to_u256();

  // ate_loop = 6u + 2 (65 bits).
  params.ate_loop = (BigInt(kU) * BigInt(6) + BigInt(2)).to_u256();

  // Frobenius coefficients: gamma[j] = xi^{j (p-1) / 6}.
  const U256 e1 = ((p_big - BigInt(1)) / BigInt(6)).to_u256();
  const Fp2 gamma1 = math::fp2_xi().pow(e1);
  params.frob_gamma[0] = Fp2::one();
  for (int j = 1; j < 6; ++j)
    params.frob_gamma[j] = params.frob_gamma[j - 1] * gamma1;
  // eta = xi^{(p^2-1)/6} = gamma1 * conj(gamma1) = Norm(gamma1), in Fp.
  params.frob2_eta = gamma1 * gamma1.conjugate();
  if (!params.frob2_eta.c1.is_zero())
    throw Error("bn254: frobenius^2 eta not in Fp");

  // Final exponentiation hard part: (p^4 - p^2 + 1) / r, exactly.
  const BigInt p2 = p_big * p_big;
  const BigInt p4 = p2 * p2;
  BigInt hard, rem;
  BigInt::divmod(p4 - p2 + BigInt(1), r_big, hard, rem);
  if (!rem.is_zero()) throw Error("bn254: r does not divide p^4 - p^2 + 1");
  params.final_exp_hard = hard;

  params.g1_gen = G1(Fp::from_u64(1), Fp::from_u64(2));
  params.g2_gen = G2(Fp2(Fp::from_dec(kG2GenX0), Fp::from_dec(kG2GenX1)),
                     Fp2(Fp::from_dec(kG2GenY0), Fp::from_dec(kG2GenY1)));
  if (!params.g1_gen.is_on_curve()) throw Error("bn254: bad G1 generator");
  if (!params.g2_gen.is_on_curve()) throw Error("bn254: bad G2 generator");
  if (!(params.g2_gen * params.r).is_infinity())
    throw Error("bn254: G2 generator not of order r");

  // Derive + verify the GLV/GLS constants last: everything above is plain
  // arithmetic, and the endomorphism fast paths stay disabled (falling back
  // to wNAF) until setup publishes a fully-checked context.
  setup_endomorphisms(params, p_big, r_big);

  g_params = params;
  g_initialized = true;
  // Paired and prepared once here, so no caller's op counts include them.
  g_params.gt_gen = pairing(g_params.g1_gen, g_params.g2_gen);
  g_g2_gen_prepared = G2Prepared(g_params.g2_gen);
  g_g1_gen_table = build_generator_table(g_params.g1_gen);
}

const Bn254& Bn254::get() {
  if (!g_initialized) throw Error("bn254: not initialized");
  return g_params;
}

const G2Prepared& g2_generator_prepared() {
  (void)Bn254::get();  // throws before init()
  return g_g2_gen_prepared;
}

G1 g1_generator_mul(const Fr& k) {
  if (g_g1_gen_table.empty()) throw Error("bn254: not initialized");
  obs::note(obs::Op::kFixedBaseMul);
  const U256 v = k.to_u256();
  // Signed recoding, low window first: a 7-bit chunk plus the incoming
  // carry is 0..128; above 64 it becomes the digit minus 128 with a carry
  // into the next window. k < r < 2^254 leaves the top window's chunk at
  // most 3, so its digit is at most 4 and no carry leaves it.
  G1 acc = G1::infinity();
  int carry = 0;
  for (int i = 0; i < kGenWindows; ++i) {
    const int bit = i * kGenWindowBits;
    std::uint64_t chunk = v.limb[bit / 64] >> (bit % 64);
    if (bit % 64 > 64 - kGenWindowBits && bit / 64 < 3)
      chunk |= v.limb[bit / 64 + 1] << (64 - bit % 64);
    int d = static_cast<int>(chunk & 0x7f) + carry;
    carry = d > kGenDigits ? 1 : 0;
    d -= carry << kGenWindowBits;
    const AffinePoint<G1Traits>* window = &g_g1_gen_table[i * kGenDigits];
    if (d > 0)
      acc = acc.add_mixed(window[d - 1]);
    else if (d < 0)
      acc = acc.add_mixed(window[-d - 1].negated());
  }
  if (carry != 0) throw Error("bn254: generator recoding carry overflow");
  return acc;
}

// --- Endomorphism fast paths (docs/CRYPTO.md §6) ---------------------------

GlvSplit glv_decompose(const U256& k) {
  if (!g_endo.ready) throw Error("bn254: not initialized");
  return glv_decompose_impl(g_endo, k);
}

GlsSplit gls_decompose(const U256& k) {
  if (!g_endo.ready) throw Error("bn254: not initialized");
  return gls_decompose_impl(g_endo, k);
}

G1 g1_endo(const G1& p) {
  if (!g_endo.ready) throw Error("bn254: not initialized");
  return g1_endo_impl(g_endo, p);
}

G2 g2_psi(const G2& q) {
  if (!g_endo.ready) throw Error("bn254: not initialized");
  return g2_psi_impl(g_endo, q);
}

namespace {

/// Endomorphism-split G1 MSM core. Odd-multiple tables are built (and
/// batch-normalized — one field inversion total) for the BASE points only;
/// each phi split term's table is then derived entry-by-entry from the
/// base affine table via the coordinate map phi(x, y) = (beta x, y). phi
/// is a group homomorphism, so phi([2j+1] P) = [2j+1] phi(P) — the derived
/// entries are exactly the table the Jacobian build would have produced,
/// at one Fp multiply per entry instead of a Jacobian addition plus a
/// share of the normalization (docs/CRYPTO.md §6.4).
G1 g1_msm_endo(const EndoCtx& ctx, std::span<const G1> points,
               std::span<const U256> scalars) {
  const std::size_t n = points.size();
  std::vector<GlvSplit> splits(n);
  unsigned bits = 0;
  std::size_t terms = 0;
  for (std::size_t i = 0; i < n; ++i) {
    splits[i] = glv_decompose_impl(ctx, scalars[i]);
    for (int j = 0; j < 2; ++j)
      if (!splits[i].k[j].is_zero()) {
        ++terms;
        bits = std::max(bits, splits[i].k[j].bit_length());
      }
  }
  if (terms == 0) return G1::infinity();
  const unsigned w = msm_window_width(bits, terms);
  const std::size_t tsize = std::size_t{1} << (w - 2);

  std::vector<G1> jtable;
  jtable.reserve(n * tsize);
  std::vector<std::size_t> slot(n, n);  // base-table index per input point
  for (std::size_t i = 0; i < n; ++i) {
    if (splits[i].k[0].is_zero() && splits[i].k[1].is_zero()) continue;
    slot[i] = jtable.size() / tsize;
    const G1 p2 = points[i].dbl();
    jtable.push_back(points[i]);
    for (std::size_t t = 1; t < tsize; ++t)
      jtable.push_back(jtable.back() + p2);
  }
  std::vector<AffinePoint<G1Traits>> base_tab(jtable.size());
  batch_normalize<G1Traits>(jtable, base_tab);

  std::vector<AffinePoint<G1Traits>> table;
  table.reserve(terms * tsize);
  std::vector<U256> ks;
  ks.reserve(terms);
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < 2; ++j) {
      if (splits[i].k[j].is_zero()) continue;
      const AffinePoint<G1Traits>* src = &base_tab[slot[i] * tsize];
      for (std::size_t t = 0; t < tsize; ++t) {
        AffinePoint<G1Traits> a = src[t];
        if (!a.infinity) {
          if (j == 1) a.x *= ctx.beta;
          if (splits[i].neg[j]) a.y = -a.y;
        }
        table.push_back(a);
      }
      ks.push_back(splits[i].k[j]);
    }
  }
  return msm_wnaf_precomp<G1Traits>(table, ks, w);
}

/// Endomorphism-split G2 MSM core, same table-derivation scheme with the
/// four-dimensional psi chain: psi([2j+1] Q) affine = (conj(x) psi_x,
/// conj(y) psi_y), applied cumulatively for psi^2 and psi^3. Two Fp2
/// multiplies per derived entry replace a full Jacobian G2 addition.
/// Callers must guarantee points lie in the order-r subgroup (the psi
/// eigenvalue only holds there).
G2 g2_msm_endo(const EndoCtx& ctx, std::span<const G2> points,
               std::span<const U256> scalars) {
  const std::size_t n = points.size();
  std::vector<GlsSplit> splits(n);
  unsigned bits = 0;
  std::size_t terms = 0;
  for (std::size_t i = 0; i < n; ++i) {
    splits[i] = gls_decompose_impl(ctx, scalars[i]);
    for (int j = 0; j < 4; ++j)
      if (!splits[i].k[j].is_zero()) {
        ++terms;
        bits = std::max(bits, splits[i].k[j].bit_length());
      }
  }
  if (terms == 0) return G2::infinity();
  const unsigned w = msm_window_width(bits, terms);
  const std::size_t tsize = std::size_t{1} << (w - 2);

  std::vector<G2> jtable;
  jtable.reserve(n * tsize);
  std::vector<std::size_t> slot(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    bool active = false;
    for (int j = 0; j < 4; ++j) active |= !splits[i].k[j].is_zero();
    if (!active) continue;
    slot[i] = jtable.size() / tsize;
    const G2 p2 = points[i].dbl();
    jtable.push_back(points[i]);
    for (std::size_t t = 1; t < tsize; ++t)
      jtable.push_back(jtable.back() + p2);
  }
  std::vector<AffinePoint<G2Traits>> base_tab(jtable.size());
  batch_normalize<G2Traits>(jtable, base_tab);

  std::vector<AffinePoint<G2Traits>> table;
  table.reserve(terms * tsize);
  std::vector<U256> ks;
  ks.reserve(terms);
  std::vector<AffinePoint<G2Traits>> cur(tsize);
  for (std::size_t i = 0; i < n; ++i) {
    if (slot[i] == n) continue;
    for (std::size_t t = 0; t < tsize; ++t) cur[t] = base_tab[slot[i] * tsize + t];
    for (int j = 0; j < 4; ++j) {
      if (j != 0) {
        for (AffinePoint<G2Traits>& a : cur) {
          if (a.infinity) continue;
          a.x = a.x.conjugate() * ctx.psi_x;
          a.y = a.y.conjugate() * ctx.psi_y;
        }
      }
      if (splits[i].k[j].is_zero()) continue;
      for (std::size_t t = 0; t < tsize; ++t) {
        AffinePoint<G2Traits> a = cur[t];
        if (!a.infinity && splits[i].neg[j]) a.y = -a.y;
        table.push_back(a);
      }
      ks.push_back(splits[i].k[j]);
    }
  }
  return msm_wnaf_precomp<G2Traits>(table, ks, w);
}

}  // namespace

G1 g1_mul_glv(const G1& p, const U256& k) {
  if (!g_endo.ready) throw Error("bn254: not initialized");
  const G1 pts[1] = {p};
  const U256 ks[1] = {k};
  return g1_msm_endo(g_endo, std::span<const G1>(pts, 1),
                     std::span<const U256>(ks, 1));
}

G2 g2_mul_gls(const G2& q, const U256& k) {
  if (!g_endo.ready) throw Error("bn254: not initialized");
  const G2 pts[1] = {q};
  const U256 ks[1] = {k};
  return g2_msm_endo(g_endo, std::span<const G2>(pts, 1),
                     std::span<const U256>(ks, 1));
}

G1 g1_msm(std::span<const G1> points, std::span<const U256> scalars) {
  if (points.size() != scalars.size()) throw Error("g1_msm: size mismatch");
  obs::note(obs::Op::kMsmCall);
  obs::note(obs::Op::kMsmTerm, points.size());
  if (points.empty()) return G1::infinity();
  if (!g_endo.ready) throw Error("bn254: not initialized");
  return g1_msm_endo(g_endo, points, scalars);
}

G2 g2_msm(std::span<const G2> points, std::span<const U256> scalars) {
  if (points.size() != scalars.size()) throw Error("g2_msm: size mismatch");
  obs::note(obs::Op::kMsmCall);
  obs::note(obs::Op::kMsmTerm, points.size());
  if (points.empty()) return G2::infinity();
  if (!g_endo.ready) throw Error("bn254: not initialized");
  return g2_msm_endo(g_endo, points, scalars);
}

G2 g2_clear_cofactor(const G2& q) {
  if (!g_endo.ready) return q * Bn254::get().g2_cofactor;
  return g2_clear_cofactor_impl(g_endo, q);
}

bool g2_in_subgroup(const G2& q) {
  if (q.is_infinity()) return true;
  if (!g_endo.ready) return (q * Bn254::get().r).is_infinity();
  // psi(Q) == [6u^2]Q <=> ord(Q) | r (docs/CRYPTO.md §6.2): one ~127-bit
  // multiplication (mul_wnaf — the short scalar is public) plus one psi.
  return g2_psi_impl(g_endo, q).equals(q * g_endo.lambda2);
}

G1 endo_mul(const G1& p, const U256& k) {
  if (!g_endo.ready) return p.mul_wnaf(k);
  return g1_mul_glv(p, k);
}

// --- Serialization --------------------------------------------------------

Bytes g1_to_bytes(const G1& point) {
  Bytes out;
  out.reserve(kG1CompressedSize);
  if (point.is_infinity()) {
    out.assign(kG1CompressedSize, 0);
    return out;
  }
  Fp ax, ay;
  point.to_affine(ax, ay);
  out.push_back(ay.is_odd_repr() ? 3 : 2);
  append(out, ax.to_bytes());
  return out;
}

G1 g1_from_bytes(BytesView data) {
  if (data.size() != kG1CompressedSize) throw Error("g1: bad length");
  if (data[0] == 0) {
    for (std::size_t i = 1; i < data.size(); ++i)
      if (data[i] != 0) throw Error("g1: bad infinity encoding");
    return G1::infinity();
  }
  if (data[0] != 2 && data[0] != 3) throw Error("g1: bad flag");
  const U256 xv = U256::from_bytes(data.subspan(1));
  if (!(math::cmp(xv, Fp::modulus()) < 0)) throw Error("g1: x >= p");
  const Fp x = Fp::from_u256(xv);
  const Fp rhs = x.square() * x + G1Traits::b();
  Fp y;
  if (!rhs.sqrt(y)) throw Error("g1: not on curve");
  if (y.is_odd_repr() != (data[0] == 3)) y = -y;
  const G1 point(x, y);
  // BN254 G1 has cofactor 1: on-curve implies in-subgroup.
  return point;
}

Bytes g2_to_bytes(const G2& point) {
  Bytes out;
  out.reserve(kG2CompressedSize);
  if (point.is_infinity()) {
    out.assign(kG2CompressedSize, 0);
    return out;
  }
  Fp2 ax, ay;
  point.to_affine(ax, ay);
  // Parity of y: use c0's parity, falling back to c1 when c0 == 0.
  const bool odd = ay.c0.is_zero() ? ay.c1.is_odd_repr() : ay.c0.is_odd_repr();
  out.push_back(odd ? 3 : 2);
  append(out, ax.c0.to_bytes());
  append(out, ax.c1.to_bytes());
  return out;
}

G2 g2_from_bytes(BytesView data) {
  if (data.size() != kG2CompressedSize) throw Error("g2: bad length");
  if (data[0] == 0) {
    for (std::size_t i = 1; i < data.size(); ++i)
      if (data[i] != 0) throw Error("g2: bad infinity encoding");
    return G2::infinity();
  }
  if (data[0] != 2 && data[0] != 3) throw Error("g2: bad flag");
  const U256 x0 = U256::from_bytes(data.subspan(1, 32));
  const U256 x1 = U256::from_bytes(data.subspan(33, 32));
  if (!(math::cmp(x0, Fp::modulus()) < 0) ||
      !(math::cmp(x1, Fp::modulus()) < 0))
    throw Error("g2: coordinate >= p");
  const Fp2 x(Fp::from_u256(x0), Fp::from_u256(x1));
  const Fp2 rhs = x.square() * x + G2Traits::b();
  Fp2 y;
  if (!rhs.sqrt(y)) throw Error("g2: not on curve");
  const bool odd = y.c0.is_zero() ? y.c1.is_odd_repr() : y.c0.is_odd_repr();
  if (odd != (data[0] == 3)) y = -y;
  const G2 point(x, y);
  // psi-eigenvalue membership test — equivalent to the [r]Q == O check it
  // replaces (biconditional proved in docs/CRYPTO.md §6.2) at ~1/4 the cost.
  if (!g2_in_subgroup(point)) throw Error("g2: not in order-r subgroup");
  return point;
}

Bytes fr_to_bytes(const Fr& v) { return v.to_bytes(); }

Fr fr_from_bytes(BytesView data) {
  if (data.size() != kFrSize) throw Error("fr: bad length");
  const U256 v = U256::from_bytes(data);
  if (!(math::cmp(v, Fr::modulus()) < 0)) throw Error("fr: value >= r");
  return Fr::from_u256(v);
}

}  // namespace peace::curve

namespace peace {

void put(Writer& w, const curve::G1& p) { w.raw(curve::g1_to_bytes(p)); }
void get(Reader& r, curve::G1& p) {
  p = curve::g1_from_bytes(r.raw(curve::kG1CompressedSize));
}
void put(Writer& w, curve::NonZero<const curve::G1> p) { w(p.point); }
void get(Reader& r, curve::NonZero<curve::G1> p) {
  r(p.point);
  if (p.point.is_infinity()) throw Error("serde: identity point in message");
}
void put(Writer& w, const curve::G2& p) { w.raw(curve::g2_to_bytes(p)); }
void get(Reader& r, curve::G2& p) {
  p = curve::g2_from_bytes(r.raw(curve::kG2CompressedSize));
}
void put(Writer& w, const curve::Fr& v) { w.raw(curve::fr_to_bytes(v)); }
void get(Reader& r, curve::Fr& v) {
  v = curve::fr_from_bytes(r.raw(curve::kFrSize));
}

}  // namespace peace
