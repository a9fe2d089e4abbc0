// BN254 (alt_bn128) parameter set and global initialization. Everything is
// derived at first use from the BN parameter u and decimal constants —
// Montgomery tables, Frobenius coefficients, the G2 cofactor, and the final
// exponentiation exponent are all computed, not transcribed.
#pragma once

#include <array>

#include "curve/point.hpp"
#include "math/bigint.hpp"

namespace peace {
class Writer;
class Reader;
}  // namespace peace

namespace peace::curve {

using math::Fp;
using math::Fp12;
using math::Fp2;
using math::Fr;

struct G1Traits {
  using Field = Fp;
  static Fp b() { return Fp::from_u64(3); }
  static Fp field_one() { return Fp::one(); }
};

struct G2Traits {
  using Field = Fp2;
  static const Fp2& b();  // 3 / xi
  static Fp2 field_one() { return Fp2::one(); }
};

using G1 = CurvePoint<G1Traits>;
using G2 = CurvePoint<G2Traits>;
using GT = Fp12;  // order-r subgroup of Fp12*

/// Signed arbitrary-precision integer: the sign-magnitude bookkeeping the
/// GLV/GLS lattice bases and Babai round-off need (math::BigInt is
/// unsigned-only).
struct SignedBig {
  bool neg = false;  // sign of a nonzero magnitude; false for zero
  math::BigInt mag;
};

/// All BN254 constants, available after init().
struct Bn254 {
  std::uint64_t u = 0;            // BN generation parameter
  math::U256 p;                   // base field modulus
  math::U256 r;                   // group order (the paper's "p" in Z_p)
  math::U256 g2_cofactor;         // 2p - r
  math::U256 ate_loop;            // 6u + 2
  std::array<Fp2, 6> frob_gamma;  // xi^{j (p-1) / 6}
  Fp2 frob2_eta;                  // xi^{(p^2-1)/6} (lies in Fp)
  math::BigInt final_exp_hard;    // (p^4 - p^2 + 1) / r
  G1 g1_gen;
  G2 g2_gen;

  // Endomorphism data (docs/CRYPTO.md §6.1-§6.2). glv_basis rows (a, b)
  // satisfy a + b*glv_lambda = 0 (mod r); gls_basis rows (c0..c3) satisfy
  // sum_i ci * gls_lambda^i = 0 (mod r). All derived and verified at
  // init(), never transcribed.
  Fp glv_beta;               // primitive cube root of unity in Fp
  math::U256 glv_lambda;     // matching eigenvalue: phi(P) = [lambda]P on G1
  std::array<std::array<SignedBig, 2>, 2> glv_basis;
  math::U256 gls_lambda;     // p mod r = 6u^2: psi(Q) = [lambda]Q on G2
  std::array<std::array<SignedBig, 4>, 4> gls_basis;
  // Babai round-off data: coefficient j of the split of k is
  // round(k * adj[j] / det), where adj[j] is column 0 of the basis's
  // adjugate and det its determinant (+-r for GLV, +-36r for GLS). The
  // fast paths evaluate it in fixed point (docs/CRYPTO.md §6.1); these
  // exact values are the tests' oracle.
  std::array<SignedBig, 2> glv_adj;
  SignedBig glv_det;
  std::array<SignedBig, 4> gls_adj;
  SignedBig gls_det;

  GT gt_gen;  // e(g1_gen, g2_gen), paired once by init()

  /// Idempotent global initialization; call before any curve arithmetic.
  static void init();
  static const Bn254& get();
};

/// --- Endomorphism fast paths (docs/CRYPTO.md §6) ------------------------

/// GLV split of k (mod r): k = (-1)^neg[0] k[0] + (-1)^neg[1] k[1] * lambda
/// (mod r) with both magnitudes ~half-width (<= 2^128). §6.1 carries the
/// soundness argument.
struct GlvSplit {
  std::array<math::U256, 2> k;
  std::array<bool, 2> neg;
};

/// GLS split of k (mod r): k = sum_i (-1)^neg[i] k[i] * lambda^i (mod r)
/// with all four magnitudes ~quarter-width (<= 2^68). §6.2.
struct GlsSplit {
  std::array<math::U256, 4> k;
  std::array<bool, 4> neg;
};

GlvSplit glv_decompose(const math::U256& k);
GlsSplit gls_decompose(const math::U256& k);

/// The G1 endomorphism phi(x, y) = (beta x, y); phi(P) = [lambda]P for
/// every point of E(Fp), which has prime order r (cofactor 1).
G1 g1_endo(const G1& p);

/// The G2 endomorphism psi = untwist . Frobenius . twist on the twist
/// curve. On the order-r subgroup psi(Q) = [6u^2]Q; off the subgroup only
/// the characteristic equation psi^2 - [t]psi + [p] = 0 holds.
G2 g2_psi(const G2& q);

/// [k]P via the 2-dimensional GLV decomposition. Valid for every G1 point
/// (reduces k mod r first; E(Fp) has exponent r). Bit-identical serialized
/// output to plain multiplication (docs/CRYPTO.md §6.1).
G1 g1_mul_glv(const G1& p, const math::U256& k);

/// [k]Q via the 4-dimensional GLS decomposition. REQUIRES q in the order-r
/// subgroup — the eigenvalue relation behind the split is false elsewhere
/// on the twist, which is why this is an explicit entry point and NOT
/// wired into the generic G2 operator* (docs/CRYPTO.md §6.2). Callers in
/// groupsig/peace only feed subgroup-checked or subgroup-derived points.
G2 g2_mul_gls(const G2& q, const math::U256& k);

/// Endomorphism-split multi-scalar multiplications: every term is GLV-
/// (G1, 2-way) or GLS-split (G2, 4-way; subgroup precondition as in
/// g2_mul_gls) into short scalars, then one shared wNAF chain covers all
/// split terms with a window tuned to the shortened width.
G1 g1_msm(std::span<const G1> points, std::span<const math::U256> scalars);
G2 g2_msm(std::span<const G2> points, std::span<const math::U256> scalars);

/// Fixed-size conveniences (call with explicit N: g1_msm<3>({...}, {...})),
/// mirroring multi_scalar_mul's array form at the groupsig call sites.
template <std::size_t N>
G1 g1_msm(const std::array<G1, N>& points,
          const std::array<math::U256, N>& scalars) {
  return g1_msm(std::span<const G1>(points),
                std::span<const math::U256>(scalars));
}
template <std::size_t N>
G2 g2_msm(const std::array<G2, N>& points,
          const std::array<math::U256, N>& scalars) {
  return g2_msm(std::span<const G2>(points),
                std::span<const math::U256>(scalars));
}

/// Fast cofactor clearing for arbitrary points of the twist curve:
/// [2p - r]Q = [t]psi(Q) + [t-1]Q - psi^2(Q) with t - 1 = 6u^2, turning a
/// 255-bit multiplication into a 2-term 127-bit MSM plus two psi maps.
/// Verified against plain [2p - r]Q at init (docs/CRYPTO.md §6.2).
G2 g2_clear_cofactor(const G2& q);

/// Fast subgroup membership for on-curve twist points:
/// psi(Q) == [6u^2]Q  <=>  Q in the order-r subgroup (proof in
/// docs/CRYPTO.md §6.2) — one ~127-bit multiplication instead of the
/// 254-bit [r]Q check.
bool g2_in_subgroup(const G2& q);

/// [k]G for the fixed G1 generator from the table Bn254::init() builds:
/// signed radix-2^7 digits, one affine lookup and at most one mixed
/// addition per window, no doubling, no split, no inversion. The same
/// group element as g1_gen * k (docs/CRYPTO.md §6.6). Not constant-time:
/// the digits index the table.
G1 g1_generator_mul(const Fr& k);

/// GLV hook consumed by CurvePoint<G1Traits>::operator* (found by ADL):
/// g1_mul_glv once init() has published the constants, plain wNAF before.
G1 endo_mul(const G1& p, const math::U256& k);

/// --- Serialization ------------------------------------------------------
/// Compressed points: 1 flag byte (0 = infinity, 2/3 = y parity) followed by
/// the big-endian x coordinate (32 bytes for G1, 64 for G2).

constexpr std::size_t kG1CompressedSize = 33;
constexpr std::size_t kG2CompressedSize = 65;
constexpr std::size_t kFrSize = 32;
/// GT elements serialize as the 12 Fp coefficients (Fp12::to_bytes).
constexpr std::size_t kGtSize = math::Fp12::kWireSize;

Bytes g1_to_bytes(const G1& point);
/// Throws Error on malformed encodings or points off the curve.
G1 g1_from_bytes(BytesView data);

Bytes g2_to_bytes(const G2& point);
/// Throws Error on malformed encodings, points off the curve, or points
/// outside the order-r subgroup.
G2 g2_from_bytes(BytesView data);

Bytes fr_to_bytes(const Fr& v);
Fr fr_from_bytes(BytesView data);

/// A G1 field that must not be the identity: no protocol field is ever
/// legitimately the identity (router keys and DH shares are secret
/// multiples of the generator), and letting one through would, e.g., force
/// a session key derived from the identity share.
template <class P>
struct NonZero {
  P& point;
};
template <class P>
NonZero<P> nonzero(P& point) {
  return {point};
}

}  // namespace peace::curve

namespace peace {

// Field-list leaves (common/serde.hpp) for the curve types: compressed
// points and canonical scalars, embedded raw. GT travels through
// Fp12::kWireSize.
void put(Writer& w, const curve::G1& p);
void get(Reader& r, curve::G1& p);
void put(Writer& w, curve::NonZero<const curve::G1> p);
void get(Reader& r, curve::NonZero<curve::G1> p);
void put(Writer& w, const curve::G2& p);
void get(Reader& r, curve::G2& p);
void put(Writer& w, const curve::Fr& v);
void get(Reader& r, curve::Fr& v);

}  // namespace peace
