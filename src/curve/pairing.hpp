// The bilinear map e : G1 x G2 -> GT. Two independent implementations:
//
//  * pairing()           — optimal ate (Miller loop over 6u+2 on the twist
//                          with sparse line evaluation, then final
//                          exponentiation). Production path.
//  * pairing_reference() — textbook Tate pairing (Miller loop over r on the
//                          untwisted curve). Used by tests to cross-check
//                          the ate implementation; an implementation bug
//                          would have to hit both very different code paths
//                          identically to go unnoticed.
//
// Both are non-degenerate and bilinear on the full G1 x G2.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "curve/bn254.hpp"

namespace peace::curve {

/// Optimal ate pairing, e(P, Q). Returns GT::one() if either input is
/// infinity.
GT pairing(const G1& p, const G2& q);

/// Miller loop only (no final exponentiation); for product-of-pairings.
Fp12 miller_loop(const G1& p, const G2& q);

/// A G2 point with its ate Miller-loop line coefficients precomputed.
///
/// The twist-point arithmetic of the Miller loop (a dozen Fp2
/// multiplications per doubling/addition step in Jacobian coordinates, and
/// one batched inversion for the whole table — docs/CRYPTO.md §6.5)
/// depends only on Q, never on P. For fixed verification arguments — the
/// BN generator g2, the group public key w, and the per-epoch base v_hat —
/// preparing Q once amortises that work across every subsequent pairing:
/// evaluation at a fresh P costs two Fp multiplications per stored line
/// instead of a full curve step. This is the router-side hot-path lever of
/// Sec. V.C.
class G2Prepared {
 public:
  /// One stored line: the twist slope and the P-independent constant
  /// lambda*xt - yt. Evaluated at P = (xp, yp) as
  ///   yp - (lambda*xp) w + (lambda*xt - yt) w^3.
  struct Line {
    Fp2 lambda;
    Fp2 c;
  };

  /// Prepares nothing (acts as the point at infinity).
  G2Prepared() = default;
  explicit G2Prepared(const G2& q);

  bool is_infinity() const { return lines_.empty(); }
  const std::vector<Line>& lines() const { return lines_; }

 private:
  std::vector<Line> lines_;
};

/// Miller loop against precomputed line coefficients. Bit-identical to
/// miller_loop(p, q) for q the point `prepared` was built from.
Fp12 miller_loop(const G1& p, const G2Prepared& prepared);

/// e(P, Q) with Q prepared; final exponentiation still paid per call.
GT pairing(const G1& p, const G2Prepared& prepared);

/// prod_i e(p_i, *q_i) over prepared second arguments with a single shared
/// final exponentiation. Pointers let callers reuse long-lived prepared
/// points without copying their coefficient tables.
GT multi_pairing(std::span<const std::pair<G1, const G2Prepared*>> pairs);

/// Mixed-argument product: prod e(p, *q) over `prepared` times prod e(p, q)
/// over `unprepared`, fused into one Miller accumulator with a single final
/// exponentiation. Each unprepared point gets a transient line table, built
/// exactly as G2Prepared builds one but not counted as a G2Prepared build,
/// so a one-shot G2 argument (e.g. a signature's T_hat) pairs against
/// long-lived prepared bases without keeping a table alive.
GT multi_pairing(std::span<const std::pair<G1, const G2Prepared*>> prepared,
                 std::span<const std::pair<G1, G2>> unprepared);

/// Collects pairing terms across any number of call sites and evaluates the
/// whole product with ONE fused Miller accumulation and ONE final
/// exponentiation. This is the batched-accumulator entry point of the
/// randomized batch verifier: each verification equation contributes its
/// (G1, G2) terms incrementally, and finalize() pays the final
/// exponentiation once for the entire batch instead of once per signature.
///
/// Prepared arguments are held by pointer — the caller keeps them alive
/// until finalize() (they are long-lived key material on every call site).
/// finalize() is pure: it may be called repeatedly and terms may be added
/// between calls.
class MillerAccumulator {
 public:
  void add(const G1& p, const G2Prepared& q) { prepared_.push_back({p, &q}); }

  /// prod e(p, q) over every added term: fused Miller loops, single final
  /// exponentiation. Returns GT one for an empty accumulator.
  GT finalize() const;

 private:
  std::vector<std::pair<G1, const G2Prepared*>> prepared_;
};

/// Membership test for the cyclotomic subgroup G_{Phi_12}(Fp) of Fp12*, the
/// order-Phi_12(p) = p^4 - p^2 + 1 subgroup every pairing output lives in:
/// x != 0 and x^(p^4) * x == x^(p^2), checked with four Frobenius maps and
/// one multiplication — no exponentiation. Wire-deserialized GT elements
/// must pass this before being used in batched equations: cyclotomic
/// members are unitary (so cyclotomic squaring applies), and the subgroup's
/// cofactor structure is what bounds forgery-cancellation in the randomized
/// batch check (docs/CRYPTO.md).
bool gt_in_cyclotomic_subgroup(const Fp12& x);

/// prod_i xs[i]^{es[i]} over cyclotomic-subgroup elements with one shared
/// squaring chain: 64 cyclotomic squarings total plus one multiplication
/// per set exponent bit, instead of a full chain per element. The batch
/// verifier uses this for the randomizer powers of the carried R2 values.
GT gt_multi_pow_unitary(std::span<const GT> xs,
                        std::span<const std::uint64_t> es);

/// f^((p^12 - 1) / r), via the BN hard-part addition chain (its exponent
/// decomposition is verified numerically at first use; on mismatch this
/// silently falls back to generic square-and-multiply).
GT final_exponentiation(const Fp12& f);

/// Easy part of the final exponentiation, f^((p^6 - 1)(p^2 + 1)), for a
/// whole batch of unrelated Miller-loop products at once. The per-element
/// Fp12 inversion — the only non-linear cost of the easy part — is batched
/// Montgomery-style (prefix products, ONE inversion, suffix walk-back), so
/// an n-element batch pays exactly 1 Fp12 inversion plus O(n)
/// multiplications instead of n inversions. Element i of the result equals
/// the easy part of fs[i] exactly (same field operations modulo
/// associativity of exact modular arithmetic — bit-identical output).
/// Outputs are unitary; feed them to final_exp_hard. A zero element (never
/// produced by a Miller loop) throws Error.
std::vector<Fp12> final_exp_easy_batch(std::span<const Fp12> fs);

/// Hard part of the final exponentiation, t^((p^4 - p^2 + 1) / r), for a
/// unitary `t` (an output of the easy part / final_exp_easy_batch). Same
/// addition chain + generic fallback as final_exponentiation, which is
/// exactly final_exp_hard composed with the (inversion-counting) easy part.
GT final_exp_hard(const Fp12& t);

/// The generic square-and-multiply path, kept as an independent oracle for
/// tests and the ablation bench.
GT final_exponentiation_generic(const Fp12& f);

/// prod_i e(p_i, q_i) with a single shared final exponentiation.
GT multi_pairing(const std::vector<std::pair<G1, G2>>& pairs);

/// Reference Tate pairing (independent algorithm; slow).
GT pairing_reference(const G1& p, const G2& q);

/// e(g1_gen, g2_gen), computed once by Bn254::init().
const GT& gt_generator();

/// g2_gen's line table, prepared once by Bn254::init(): the fixed G2
/// argument of every group-signature check, shared by every key.
const G2Prepared& g2_generator_prepared();

/// Frobenius x -> x^p on Fp12 using the global BN254 coefficients.
Fp12 frobenius12(const Fp12& x);

/// Untwist a G2 point into E(Fp12) affine coordinates (for tests and the
/// reference pairing).
void untwist(const G2& q, Fp12& x_out, Fp12& y_out);

}  // namespace peace::curve
