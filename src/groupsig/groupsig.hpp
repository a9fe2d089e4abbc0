// The paper's core primitive: a variation of the Boneh-Shacham (CCS'04)
// short group signature with verifier-local revocation (VLR), modified so
// that every member key of user group i embeds a per-group secret grp_i:
//
//     A_{i,j} = g1^(1 / (gamma + grp_i + x_j)),   gsk = (A_{i,j}, grp_i, x_j)
//
// The signature is a signature proof of knowledge of an SDH pair, carried by
// (T1, T2) = (u^alpha, A v^alpha) over per-signature hashed bases.
//
// Type-3 adaptation (documented in DESIGN.md): the paper derives its bases
// via an isomorphism psi: G2 -> G1 that does not exist on any curve that
// also supports hashing into G2 (Galbraith-Paterson-Smart 2008). We hash
// u, v directly into G1 plus one extra base v_hat in G2, and the signature
// carries T_hat = v_hat^alpha bound into the proof. The revocation /
// opening check becomes
//
//     e(T2 / A, v_hat)  ==  e(v, T_hat)                      (paper Eq.3)
//
// preserving the paper's cost shape of 2 pairings per revocation token.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/drbg.hpp"
#include "curve/hash_to_curve.hpp"
#include "curve/pairing.hpp"
#include "obs/fields.hpp"

namespace peace::groupsig {

using curve::Fr;
using curve::G1;
using curve::G2;
using curve::GT;

/// Instrumentation for the paper's operation-count claims (Sec. V.C):
/// "signature generation requires about 8 exponentiations and 2 bilinear map
/// computations; verification takes 6 exponentiations and 3 + 2|URL|
/// computations of the bilinear map."
struct OpCounters {
  std::uint64_t g1_exp = 0;
  std::uint64_t g2_exp = 0;
  std::uint64_t gt_exp = 0;
  std::uint64_t pairings = 0;
  std::uint64_t hash_to_group = 0;

  std::uint64_t total_exp() const { return g1_exp + g2_exp + gt_exp; }
  void reset() { *this = OpCounters{}; }
  bool operator==(const OpCounters&) const = default;
  /// Accumulates another counter set (used to fold per-worker counters from
  /// parallel verification back into one aggregate).
  void merge(const OpCounters& o);
};

/// The registry counter each field is exported as (obs/fields.hpp): the
/// routers' aggregated verification op counts.
constexpr auto field_table(const OpCounters*) {
  return std::to_array<obs::Field<OpCounters>>({
      {&OpCounters::g1_exp, "groupsig.verify.g1_exp"},
      {&OpCounters::g2_exp, "groupsig.verify.g2_exp"},
      {&OpCounters::gt_exp, "groupsig.verify.gt_exp"},
      {&OpCounters::pairings, "groupsig.verify.pairings"},
      {&OpCounters::hash_to_group, "groupsig.verify.hash_to_group"},
  });
}

inline void OpCounters::merge(const OpCounters& o) {
  *this = obs::sum(*this, o);
}

struct GroupPublicKey {
  G2 w;  // g2^gamma (g1, g2 are the fixed BN254 generators)

  Bytes to_bytes() const;
  static GroupPublicKey from_bytes(BytesView data);
  bool operator==(const GroupPublicKey& o) const { return w == o.w; }
};

/// A group public key with the key-specific G2 pairing argument of the
/// verifier's hot path (w = g2^gamma) prepared once; the other one, the BN
/// generator g2, is prepared once per process (curve::g2_generator_prepared).
/// Routers build this at key load / parameter install and reuse it for every
/// verification; each verification then pays only line evaluations and the
/// shared final exponentiation instead of full twist-point Miller loops.
struct PreparedGroupPublicKey {
  GroupPublicKey gpk;
  curve::G2Prepared w;  // prepared gpk.w

  PreparedGroupPublicKey() = default;
  explicit PreparedGroupPublicKey(const GroupPublicKey& key);
};

/// gsk[i, j]: what a network user holds after setup.
struct MemberKey {
  G1 a;    // A_{i,j}
  Fr grp;  // grp_i, shared by all members of user group i
  Fr x;    // x_j, member-specific

  /// The SDH relation A^(gamma + grp + x) = g1, checkable publicly.
  bool is_valid(const GroupPublicKey& gpk) const;
};

/// grt[i, j] = A_{i,j}: lets its holder test whether a signature was made
/// by the corresponding member key (Eq.3).
struct RevocationToken {
  G1 a;

  Bytes to_bytes() const;
  static RevocationToken from_bytes(BytesView data);
  bool operator==(const RevocationToken& o) const { return a == o.a; }
};

/// Epoch 0 means per-message bases (full unlinkability). A nonzero epoch
/// derives the bases from the epoch number alone, enabling the constant-time
/// revocation check of Sec. V.C at the cost of linkability within the epoch.
using Epoch = std::uint64_t;

/// The signature carries the Schnorr COMMITMENTS (R1, R2, R3, R4) rather
/// than the Fiat-Shamir challenge c. The two forms are interconvertible
/// proofs of the same statement — the verifier recomputes c = H(..., R1,
/// R2, R3, R4) from the carried values and checks the four verification
/// equations directly — but only the commitment-carrying form batches:
/// with c carried, verification must recompute R2 exactly (one final
/// exponentiation per signature, unavoidable, because R2 feeds a hash);
/// with the R's carried, verification is pure group equations
///
///     u^s_alpha  == R1 * T1^c                               (Eq.1)
///     e(T2,g2)^s_x e(v,w)^-s_alpha e(v,g2)^-s_delta
///         (e(T2,w)/e(g1,g2))^c  == R2                       (Eq.2)
///     T1^s_x     == R3 * u^s_delta                          (Eq.3)
///     v_hat^s_alpha == R4 * T_hat^c                         (Eq.4)
///
/// which fold across signatures under small random exponents with ONE
/// shared final exponentiation for the whole batch (docs/CRYPTO.md §4).
/// The cost is wire size: R2 is a full GT element (384 bytes).
struct Signature {
  Epoch epoch = 0;
  Fr nonce;  // the paper's per-signature nonce "r" feeding H0
  G1 t1;     // u^alpha
  G1 t2;     // A v^alpha
  G2 t_hat;  // v_hat^alpha (Type-3 carrier)
  G1 r1;     // u^r_alpha
  GT r2;     // the pairing commitment (see Eq.2)
  G1 r3;     // T1^r_x u^-r_delta
  G2 r4;     // v_hat^r_alpha
  Fr s_alpha, s_x, s_delta;

  /// epoch(8) + nonce(32) + 2 G1 + 1 G2 + R1(G1) + R2(GT) + R3(G1) + R4(G2)
  /// + 3 Fr = 782 bytes; nested in a message the signature is embedded raw.
  static constexpr std::size_t kWireSize =
      8 + 32 + 2 * curve::kG1CompressedSize + curve::kG2CompressedSize +
      curve::kG1CompressedSize + curve::kGtSize + curve::kG1CompressedSize +
      curve::kG2CompressedSize + 3 * 32;
  static void fields(auto& io, auto& s) {
    io(s.epoch, s.nonce, s.t1, s.t2, s.t_hat, s.r1, s.r2, s.r3, s.r4,
       s.s_alpha, s.s_x, s.s_delta);
  }
  Bytes to_bytes() const;
  /// Throws on malformed encodings; additionally enforces that T1, T2,
  /// T_hat are non-identity and that R2 lies in the cyclotomic subgroup of
  /// Fp12 (a necessary condition for being a pairing value, and the
  /// precondition for the cyclotomic-squaring powers of the batch check).
  static Signature from_bytes(BytesView data);
  bool operator==(const Signature&) const = default;
};

/// Serialized signature size.
constexpr std::size_t kSignatureSize = Signature::kWireSize;

/// Group-manager/issuer role (the network operator in PEACE): holds the
/// master secret gamma and mints member keys.
class Issuer {
 public:
  static Issuer create(crypto::Drbg& rng);
  /// Reconstructs from a stored master secret.
  static Issuer from_secret(const Fr& gamma);

  const GroupPublicKey& gpk() const { return gpk_; }
  const Fr& gamma() const { return gamma_; }

  /// Draws a fresh per-user-group secret grp_i.
  Fr new_group_secret(crypto::Drbg& rng) const;

  /// Step 3 of scheme setup: pick x with gamma + grp + x != 0 and compute
  /// A = g1^(1/(gamma + grp + x)).
  MemberKey issue(const Fr& grp, crypto::Drbg& rng) const;

  /// Reconstructs a member key from stored (grp, x) — used to model the
  /// paper's split knowledge (GM knows (grp, x) but not A; only NO and the
  /// user can recompute A).
  MemberKey derive(const Fr& grp, const Fr& x) const;

 private:
  Fr gamma_;
  GroupPublicKey gpk_;
};

/// The hashed bases (u, v, v_hat) every signature of a nonzero `epoch`
/// shares: they are derived from (gpk, epoch) alone, so a verifier derives
/// them once per epoch instead of once per message.
/// Counts the 3 hash-to-group operations of one derivation.
curve::SignatureBases epoch_bases(const GroupPublicKey& gpk, Epoch epoch,
                                  OpCounters* ops = nullptr);

/// Signs `message` under the member key. Steps 2.2.1) - 2.2.4) of the paper.
Signature sign(const GroupPublicKey& gpk, const MemberKey& gsk,
               BytesView message, crypto::Drbg& rng, Epoch epoch = 0,
               OpCounters* ops = nullptr);

/// Hot-path variant: the same signature byte for byte (same rng draws, same
/// op counts), but R2's two pairings reuse the prepared g2 / w Miller-loop
/// lines. The plain-key overload above stays as its differential oracle.
Signature sign(const PreparedGroupPublicKey& pgpk, const MemberKey& gsk,
               BytesView message, crypto::Drbg& rng, Epoch epoch = 0,
               OpCounters* ops = nullptr);

/// Checks the signature proof only (paper step 3.2; no revocation scan).
bool verify_proof(const GroupPublicKey& gpk, BytesView message,
                  const Signature& sig, OpCounters* ops = nullptr);

/// Hot-path variant: identical accept/reject behaviour, but the two R2~
/// pairings reuse the prepared g2 / w Miller-loop lines. Thread-safe for
/// concurrent calls on one shared PreparedGroupPublicKey. `bases`, when
/// given, must be epoch_bases(pgpk.gpk, sig.epoch) for an epoch-mode
/// signature; the check then skips the hashing. `checked_bases`, when
/// given, receives the bases the equations ran over (set whenever the
/// check returns true), so a revocation scan need not hash them again.
bool verify_proof(const PreparedGroupPublicKey& pgpk, BytesView message,
                  const Signature& sig, OpCounters* ops = nullptr,
                  const curve::SignatureBases* bases = nullptr,
                  curve::SignatureBases* checked_bases = nullptr);

/// Eq.3: does `token` correspond to the signer of `sig`? The message (or
/// the epoch stored in the signature) is needed to re-derive the hashed
/// bases — exactly as the paper's audit retrieves message (M.2) from the
/// network log before scanning grt.
bool matches_token(const GroupPublicKey& gpk, BytesView message,
                   const Signature& sig, const RevocationToken& token,
                   OpCounters* ops = nullptr);

/// The hashed bases of one signature with the revocation base v_hat's
/// Miller-loop lines prepared once. Every Eq.3 check pairs against the same
/// v_hat, so a verifier scanning a |URL|-long list (or NO scanning grt)
/// derives this once per message and amortises the G2 twist arithmetic over
/// the whole scan instead of re-walking it 2|URL| times.
struct PreparedBases {
  curve::SignatureBases bases;
  curve::G2Prepared v_hat;

  PreparedBases() = default;
  explicit PreparedBases(const curve::SignatureBases& b)
      : bases(b), v_hat(b.v_hat) {}
};

/// Derives (and prepares) the bases of `sig` over `message` — the one-time
/// per-scan cost of the amortised revocation check below.
PreparedBases prepare_bases(const GroupPublicKey& gpk, BytesView message,
                            const Signature& sig, OpCounters* ops = nullptr);

/// Batched Eq.3 scan of one signature against many revocation tokens.
///
/// Two costs of the per-token matches_token loop are constant across a scan
/// and get hoisted here:
///
///  * the second Miller factor e(-v, T_hat) depends only on the signature —
///    the constructor computes it ONCE and every token reuses it, so a scan
///    pays one Miller loop per token (against the prepared v_hat lines)
///    instead of two;
///  * the Fp12 inversion inside each final exponentiation's easy part —
///    first_match() runs the Montgomery-batched easy part over all
///    accumulated products, so an n-token scan pays exactly 1 Fp12 inversion
///    (curve::final_exp_easy_batch) instead of n.
///
/// Verdicts are bit-identical to calling matches_token per token: the
/// factored Miller product equals the fused one as an exact field element,
/// and the batched easy part reproduces each per-element easy part exactly
/// (see docs/CRYPTO.md §5). Per-token hard parts still run individually,
/// with early exit on the first match — the same short-circuit the
/// sequential loop has.
///
/// OpCounters keep the 2-pairings-per-token convention of matches_token so
/// cost-analysis tests compare like for like across scan implementations.
class TokenScan {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// `prepared` and `sig` must outlive the scan.
  TokenScan(const PreparedBases& prepared, const Signature& sig,
            OpCounters* ops = nullptr);

  /// Accumulates the Miller product for one token (no final exponentiation
  /// yet). Counts 2 OpCounters pairings, matching matches_token.
  void add(const RevocationToken& token);

  /// Index of the first added token matching the signer, or npos. Pays the
  /// single batched easy part plus one hard part per token up to and
  /// including the first match.
  std::size_t first_match() const;

 private:
  const Signature& sig_;
  OpCounters* ops_;
  curve::Fp12 t_hat_factor_;  // miller_loop(-v, T_hat), shared by all tokens
  curve::G2Prepared const* v_hat_;
  std::vector<curve::Fp12> products_;
};

/// Convenience wrapper: scan `url` in order, return the index of the first
/// matching token or TokenScan::npos. Equivalent to (and the batched
/// replacement for) the matches_token loop of the seed scan path.
std::size_t scan_tokens(const PreparedBases& prepared, const Signature& sig,
                        std::span<const RevocationToken> url,
                        OpCounters* ops = nullptr);

/// One element of a verification batch. The message bytes, the signature
/// and the bases must stay alive until the batch is finalized. `bases`,
/// when given, must be epoch_bases(gpk, sig->epoch) of an epoch-mode
/// signature: a verifier holding its epoch's bases passes them so that
/// prepare() does not hash them again.
struct BatchItem {
  BytesView message;
  const Signature* sig = nullptr;
  const curve::SignatureBases* bases = nullptr;
};

/// Randomized batch verification of signature proofs (no revocation scan):
/// the per-signature verification equations are folded into three combined
/// checks — one G1 multi-scalar sum (Eq.1 and Eq.3), one G2 multi-scalar
/// sum (Eq.4), and one pairing equation (Eq.2) with a single fused Miller
/// accumulation over the prepared bases and ONE final exponentiation for
/// the whole batch — each signature weighted by independent nonzero 64-bit
/// randomizers drawn from a DRBG seeded over (salt, gpk, the entire batch).
/// A forged signature can only survive the fold by predicting those
/// randomizers (probability ~2^-64 per batch under a secret salt; see
/// docs/CRYPTO.md §4 for the soundness argument, including why the GT
/// randomizers are drawn coprime to the cyclotomic cofactor).
///
/// On combined-check failure the batch is bisected recursively; leaves
/// (single signatures) run the exact per-equation sequential checks, so the
/// returned accept/reject vector is bit-identical to calling verify_proof
/// on every element — bad signatures are attributed individually, never
/// just "batch failed".
///
/// Deterministic: same key, items, and salt => same randomizers, same
/// transcript. Seeded simulations stay reproducible; live verifiers pass a
/// per-verifier secret salt so adversaries cannot predict the randomizers.
class BatchVerifier {
 public:
  BatchVerifier(const PreparedGroupPublicKey& pgpk,
                std::span<const BatchItem> items, BytesView salt);
  ~BatchVerifier();  // out of line: Prep is incomplete here
  BatchVerifier(const BatchVerifier&) = delete;
  BatchVerifier& operator=(const BatchVerifier&) = delete;

  /// Phase 1 — per-item preparation: base derivation, challenge hash, and
  /// the G1 combinations feeding the folds. Thread-safe for distinct `i`
  /// (the router's VerifyPool fans this out); touches no shared state.
  void prepare(std::size_t i, OpCounters* ops = nullptr);

  /// Runs body(j) for every j in [0, count) and returns once all have
  /// run. The jobs of one call are independent: a runner may run them
  /// concurrently and in any order.
  using JobRunner = std::function<void(
      std::size_t count, const std::function<void(std::size_t)>& body)>;

  /// Phase 2 — combined checks plus bisection fallback. The bisection
  /// order is sequential, on the calling thread; each fold (check_range)
  /// is a fixed list of independent jobs in two stages, which `run` may
  /// spread over a pool (empty: inline, in index order). The list's shape
  /// depends only on the fold's items, so calls, counts and verdicts are
  /// the same however the jobs run. Items not yet prepared are prepared
  /// inline, so a pure sequential caller may skip phase 1. Idempotent
  /// after the first call. Returns one accept flag per item, positionally.
  const std::vector<char>& finalize(OpCounters* ops = nullptr,
                                    const JobRunner& run = {});

  /// The bases item `i` was checked over: the given ones, or those its
  /// prepare() derived. Valid for every item finalize() accepted.
  const curve::SignatureBases& bases(std::size_t i) const;

 private:
  struct Prep;
  /// The three combined randomized checks over the format-ok items of
  /// indices [lo, hi). True when every folded equation holds.
  bool check_range(std::size_t lo, std::size_t hi, OpCounters* ops,
                   const JobRunner& run);
  /// Exact sequential equation checks for one item (the bisection leaf).
  bool check_one(std::size_t i, OpCounters* ops);
  void bisect(std::size_t lo, std::size_t hi, OpCounters* ops,
              const JobRunner& run);

  const PreparedGroupPublicKey& pgpk_;
  std::vector<BatchItem> items_;
  std::vector<Prep> prep_;
  std::vector<char> results_;
  bool finalized_ = false;
};

/// Convenience wrapper: prepare every item and finalize, sequentially.
/// results[i] == verify_proof(pgpk, items[i].message, *items[i].sig).
std::vector<char> batch_verify_proof(const PreparedGroupPublicKey& pgpk,
                                     std::span<const BatchItem> items,
                                     BytesView salt,
                                     OpCounters* ops = nullptr);

/// Full verification (paper steps 3.2 + 3.3) against a prepared key: the
/// proof, then the batched revocation scan over the bases the proof check
/// derived, so one call hashes them once.
bool verify(const PreparedGroupPublicKey& pgpk, BytesView message,
            const Signature& sig, std::span<const RevocationToken> url,
            OpCounters* ops = nullptr);

/// The constant-time revocation index for epoch-based signatures (the
/// "far more efficient revocation check" of Sec. V.C). Lookup cost is
/// 2 pairings + a hash probe, independent of |URL|.
///
/// The index is incremental: applying a delta revocation list re-tags only
/// the added tokens (one pairing each; removals are free), and an epoch
/// roll re-tags the stored tokens in place against the new epoch base —
/// callers never rebuild from the raw URL once an index exists. The
/// per-epoch v_hat stays prepared across the epoch, so is_revoked never
/// constructs a one-shot G2Prepared. Copyable, so snapshot publishers can
/// clone an index cheaply (hash-map copy, zero pairings) before applying a
/// delta to the copy.
class EpochRevocationIndex {
 public:
  EpochRevocationIndex(const GroupPublicKey& gpk, Epoch epoch,
                       std::span<const RevocationToken> url);

  Epoch epoch() const { return epoch_; }
  std::size_t size() const { return tokens_.size(); }
  /// The epoch's prepared bases, epoch_bases(gpk, epoch()): what every
  /// signature of the epoch is made and verified over. Shared, so a holder
  /// keeps them past a roll without keeping the index.
  const std::shared_ptr<const PreparedBases>& bases() const { return bases_; }
  /// True when the index answers signatures of `epoch` under `gpk`.
  bool covers(const GroupPublicKey& gpk, Epoch epoch) const {
    return epoch == epoch_ && gpk == gpk_;
  }

  /// Inserts one token (one pairing). Duplicate tokens are idempotent:
  /// returns false and changes nothing when already indexed.
  bool add_token(const RevocationToken& token);
  /// Removes one token (no pairings). Returns false when absent.
  bool remove_token(const RevocationToken& token);

  /// Moves the index to a new epoch (or group key): re-derives the epoch
  /// bases once and re-tags the stored tokens (one pairing per token —
  /// unavoidable, the tags e(A_i, v_hat_epoch) are epoch-dependent by
  /// design). A no-op when the index already covers (gpk, epoch).
  void roll_epoch(const GroupPublicKey& gpk, Epoch epoch);

  /// True if the signer of `sig` is revoked. `sig.epoch` must match. An
  /// empty index answers false without any pairing.
  bool is_revoked(const Signature& sig, OpCounters* ops = nullptr) const;

 private:
  std::string tag_for(const G1& a) const;

  GroupPublicKey gpk_;
  Epoch epoch_;
  /// Never null; v_hat's lines are fixed for the whole epoch, and copies
  /// of the index share them.
  std::shared_ptr<const PreparedBases> bases_;
  /// token bytes (hex) -> (point, tag hex); the separate tag set gives the
  /// O(1) is_revoked probe while the map supports delta removals and rolls.
  struct Entry {
    G1 a;
    std::string tag;
  };
  std::unordered_map<std::string, Entry> tokens_;
  std::unordered_set<std::string> tags_;  // hex of e(A_i, v_hat_epoch)
};

}  // namespace peace::groupsig

namespace peace {

/// Field-list leaf for state images: an issuer is stored as its master
/// secret gamma and rebuilt with from_secret.
void put(Writer& w, const groupsig::Issuer& issuer);
void get(Reader& r, groupsig::Issuer& issuer);

}  // namespace peace
