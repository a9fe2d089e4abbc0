#include "groupsig/groupsig.hpp"

#include "common/serde.hpp"
#include "curve/ecdsa.hpp"
#include "obs/trace.hpp"

namespace peace::groupsig {

using curve::Bn254;
using curve::fr_from_bytes;
using curve::fr_to_bytes;
using curve::g1_from_bytes;
using curve::g1_to_bytes;
using curve::g2_from_bytes;
using curve::g2_to_bytes;
using curve::random_fr;
using curve::SignatureBases;

namespace {

void count(OpCounters* ops, std::uint64_t OpCounters::* field,
           std::uint64_t n = 1) {
  if (ops != nullptr) (*ops).*field += n;
}

/// Seed for H0: per-message in normal mode, per-epoch in fast-revocation
/// mode (Sec. V.C trade-off).
Bytes bases_seed(const GroupPublicKey& gpk, BytesView message,
                 const Signature& partial) {
  Writer w;
  w.bytes(gpk.to_bytes());
  w.u64(partial.epoch);
  if (partial.epoch == 0) {
    w.bytes(message);
    w.raw(fr_to_bytes(partial.nonce));
  }
  return w.take();
}

SignatureBases derive_bases(const GroupPublicKey& gpk, BytesView message,
                            const Signature& partial, OpCounters* ops) {
  count(ops, &OpCounters::hash_to_group, 3);
  return curve::hash_to_bases(bases_seed(gpk, message, partial));
}

/// Fiat-Shamir challenge: the paper's H over
/// (gpk, message, r, T1, T2, [T_hat], R1, R2, R3, [R4]).
Fr challenge(const GroupPublicKey& gpk, BytesView message,
             const Signature& sig, const G1& r1, const GT& r2, const G1& r3,
             const G2& r4) {
  Writer w;
  w.bytes(gpk.to_bytes());
  w.u64(sig.epoch);
  w.bytes(message);
  w.raw(fr_to_bytes(sig.nonce));
  w.raw(g1_to_bytes(sig.t1));
  w.raw(g1_to_bytes(sig.t2));
  w.raw(g2_to_bytes(sig.t_hat));
  w.raw(g1_to_bytes(r1));
  w.raw(r2.to_bytes());
  w.raw(g1_to_bytes(r3));
  w.raw(g2_to_bytes(r4));
  return curve::hash_to_fr("peace/groupsig/challenge", w.data());
}

}  // namespace

Bytes GroupPublicKey::to_bytes() const { return g2_to_bytes(w); }

GroupPublicKey GroupPublicKey::from_bytes(BytesView data) {
  GroupPublicKey gpk{g2_from_bytes(data)};
  // w = g2^gamma with gamma != 0; the identity is never a valid key.
  if (gpk.w.is_infinity()) throw Error("groupsig: identity group key");
  return gpk;
}

bool MemberKey::is_valid(const GroupPublicKey& gpk) const {
  // e(A, w * g2^(grp+x)) == e(g1, g2), i.e. A^(gamma+grp+x) == g1.
  const auto& bn = Bn254::get();
  if (a.is_infinity() || !a.is_on_curve()) return false;
  const G2 rhs = gpk.w + bn.g2_gen * (grp + x);
  return curve::pairing(a, rhs) == curve::gt_generator();
}

Bytes RevocationToken::to_bytes() const { return g1_to_bytes(a); }

RevocationToken RevocationToken::from_bytes(BytesView data) {
  RevocationToken token{g1_from_bytes(data)};
  // An identity token would match e(0, v_hat) = 1 against crafted
  // signatures; member credentials A are never the identity.
  if (token.a.is_infinity()) throw Error("groupsig: identity token");
  return token;
}

Bytes Signature::to_bytes() const { return encode(*this); }

Signature Signature::from_bytes(BytesView data) {
  if (data.size() != kSignatureSize) throw Error("groupsig: bad sig length");
  const Signature sig = decode<Signature>(data);
  // T1 = u^alpha, T2 = A v^alpha, T_hat = v_hat^alpha with u, v, v_hat
  // nonzero hashed bases: honest signers never produce the identity, and
  // rejecting it here keeps degenerate points out of the pairing inputs.
  if (sig.t1.is_infinity() || sig.t2.is_infinity() || sig.t_hat.is_infinity())
    throw Error("groupsig: identity point in signature");
  // R2 must lie in the cyclotomic subgroup of Fp12 (every pairing value
  // does; an honest R2 always passes). This is the precondition for the
  // batch verifier's cyclotomic-squaring powers and it pins R2's possible
  // deviation from the true value into the subgroup whose cofactor the
  // batch randomizers are drawn coprime to (docs/CRYPTO.md §4).
  if (!curve::gt_in_cyclotomic_subgroup(sig.r2))
    throw Error("groupsig: R2 outside the cyclotomic subgroup");
  return sig;
}

Issuer Issuer::create(crypto::Drbg& rng) {
  return from_secret(random_fr(rng));
}

Issuer Issuer::from_secret(const Fr& gamma) {
  if (gamma.is_zero()) throw Error("groupsig: zero master secret");
  Issuer issuer;
  issuer.gamma_ = gamma;
  // Z = 1, so every encoding of the key (bases seed, challenge hash) skips
  // its inversion.
  issuer.gpk_.w = (Bn254::get().g2_gen * gamma).normalized();
  return issuer;
}

Fr Issuer::new_group_secret(crypto::Drbg& rng) const { return random_fr(rng); }

MemberKey Issuer::issue(const Fr& grp, crypto::Drbg& rng) const {
  for (;;) {
    const Fr x = random_fr(rng);
    if ((gamma_ + grp + x).is_zero()) continue;  // paper step 3 side condition
    return derive(grp, x);
  }
}

MemberKey Issuer::derive(const Fr& grp, const Fr& x) const {
  const Fr denom = gamma_ + grp + x;
  if (denom.is_zero()) throw Error("groupsig: gamma + grp + x == 0");
  MemberKey key;
  key.a = curve::g1_generator_mul(denom.inverse());
  key.grp = grp;
  key.x = x;
  return key;
}

namespace {

/// Steps 2.2.1) - 2.2.4) for both sign overloads. They differ only in R2's
/// pairing product: through the prepared g2 / w lines when `pgpk` is
/// given, from scratch otherwise (the plain-key reference path). Same rng
/// draws, same bytes, same op counts either way.
Signature sign_impl(const GroupPublicKey& gpk,
                    const PreparedGroupPublicKey* pgpk, const MemberKey& gsk,
                    BytesView message, crypto::Drbg& rng, Epoch epoch,
                    OpCounters* ops) {
  const auto& bn = Bn254::get();
  Signature sig;
  sig.epoch = epoch;
  sig.nonce = random_fr(rng);  // the paper's r (step 2.2.1)

  const SignatureBases bases = derive_bases(gpk, message, sig, ops);

  // Step 2.2.2: T1 = u^alpha, T2 = A v^alpha (+ Type-3 carrier), delta.
  const Fr alpha = random_fr(rng);
  sig.t1 = bases.u * alpha;
  sig.t2 = gsk.a + bases.v * alpha;
  // v_hat comes out of hash_to_g2 (order-r by construction), satisfying
  // g2_mul_gls's subgroup precondition.
  sig.t_hat = curve::g2_mul_gls(bases.v_hat, alpha.to_u256());
  count(ops, &OpCounters::g1_exp, 2);
  count(ops, &OpCounters::g2_exp, 1);
  const Fr y = gsk.grp + gsk.x;
  const Fr delta = y * alpha;

  const Fr r_alpha = random_fr(rng);
  const Fr r_x = random_fr(rng);
  const Fr r_delta = random_fr(rng);

  // Step 2.2.3: helper values — stored in the signature (the verifier
  // recomputes the challenge from them and checks the verification
  // equations; see the Signature doc comment). R2's three pairings share
  // bases g2 and w, so they fold into two: e(T2^rx v^-rd, g2) * e(v^-ra, w).
  sig.r1 = bases.u * r_alpha;
  count(ops, &OpCounters::g1_exp, 1);
  const G1 r2_g2 = curve::g1_msm<2>({sig.t2, bases.v},
                                    {r_x.to_u256(), (-r_delta).to_u256()});
  const G1 r2_w = -(bases.v * r_alpha);
  if (pgpk != nullptr) {
    const std::pair<G1, const curve::G2Prepared*> r2_pairs[] = {
        {r2_g2, &curve::g2_generator_prepared()}, {r2_w, &pgpk->w}};
    sig.r2 = curve::multi_pairing(r2_pairs);
  } else {
    sig.r2 = curve::multi_pairing({{r2_g2, bn.g2_gen}, {r2_w, gpk.w}});
  }
  count(ops, &OpCounters::g1_exp, 3);
  count(ops, &OpCounters::pairings, 2);
  sig.r3 = curve::g1_msm<2>({sig.t1, bases.u},
                            {r_x.to_u256(), (-r_delta).to_u256()});
  count(ops, &OpCounters::g1_exp, 2);
  sig.r4 = curve::g2_mul_gls(bases.v_hat, r_alpha.to_u256());
  count(ops, &OpCounters::g2_exp, 1);

  // The challenge hash and every later encoding of the signature read these
  // points' affine forms: two inversions here instead of one per point.
  curve::normalize_in_place<curve::G1Traits, 4>(
      {&sig.t1, &sig.t2, &sig.r1, &sig.r3});
  curve::normalize_in_place<curve::G2Traits, 2>({&sig.t_hat, &sig.r4});

  const Fr c = challenge(gpk, message, sig, sig.r1, sig.r2, sig.r3, sig.r4);

  // Step 2.2.4: responses.
  sig.s_alpha = r_alpha + c * alpha;
  sig.s_x = r_x + c * y;
  sig.s_delta = r_delta + c * delta;
  return sig;
}

}  // namespace

Signature sign(const GroupPublicKey& gpk, const MemberKey& gsk,
               BytesView message, crypto::Drbg& rng, Epoch epoch,
               OpCounters* ops) {
  return sign_impl(gpk, nullptr, gsk, message, rng, epoch, ops);
}

Signature sign(const PreparedGroupPublicKey& pgpk, const MemberKey& gsk,
               BytesView message, crypto::Drbg& rng, Epoch epoch,
               OpCounters* ops) {
  return sign_impl(pgpk.gpk, &pgpk, gsk, message, rng, epoch, ops);
}

SignatureBases epoch_bases(const GroupPublicKey& gpk, Epoch epoch,
                           OpCounters* ops) {
  if (epoch == 0) throw Error("groupsig: epoch mode needs epoch != 0");
  Signature partial;
  partial.epoch = epoch;
  return derive_bases(gpk, {}, partial, ops);
}

PreparedGroupPublicKey::PreparedGroupPublicKey(const GroupPublicKey& key)
    : gpk(key), w(curve::G2Prepared(key.w)) {}

bool verify_proof(const PreparedGroupPublicKey& pgpk, BytesView message,
                  const Signature& sig, OpCounters* ops,
                  const SignatureBases* precomputed,
                  SignatureBases* checked_bases) {
  const auto& bn = Bn254::get();
  if (sig.t1.is_infinity() || sig.t2.is_infinity()) return false;
  // A carried R2 outside the cyclotomic subgroup can never equal a pairing
  // value; reject before any expensive work (wire parsing already enforces
  // this, the check covers in-memory signatures too).
  if (!curve::gt_in_cyclotomic_subgroup(sig.r2)) return false;

  const SignatureBases bases =
      precomputed != nullptr ? *precomputed
                             : derive_bases(pgpk.gpk, message, sig, ops);
  if (checked_bases != nullptr) *checked_bases = bases;

  // Step 3.2.2: recompute the challenge from the carried commitments, then
  // check the four verification equations. Every equation side is a short
  // linear combination, computed with endomorphism-split interleaved wNAF
  // multi-exponentiation (curve::g1_msm / g2_msm — GLV and GLS halve and
  // quarter the scalar widths; docs/CRYPTO.md §6). The two cheap G1 checks
  // and the G2 check run before the pairing equation so malformed
  // signatures never reach the Miller loops. Every G2 input here is
  // subgroup-checked at parse (g2_from_bytes) or hash-derived, meeting the
  // GLS precondition.
  const Fr c = challenge(pgpk.gpk, message, sig, sig.r1, sig.r2, sig.r3,
                         sig.r4);
  const curve::U256 neg_c = (-c).to_u256();
  // Eq.1: u^s_alpha T1^-c == R1.
  const G1 r1 =
      curve::g1_msm<2>({bases.u, sig.t1}, {sig.s_alpha.to_u256(), neg_c});
  count(ops, &OpCounters::g1_exp, 2);
  if (!(r1 == sig.r1)) return false;
  // Eq.3: T1^s_x u^-s_delta == R3.
  const G1 r3 = curve::g1_msm<2>(
      {sig.t1, bases.u}, {sig.s_x.to_u256(), (-sig.s_delta).to_u256()});
  count(ops, &OpCounters::g1_exp, 2);
  if (!(r3 == sig.r3)) return false;
  // Eq.4: v_hat^s_alpha T_hat^-c == R4.
  const G2 r4 = curve::g2_msm<2>({bases.v_hat, sig.t_hat},
                                 {sig.s_alpha.to_u256(), neg_c});
  count(ops, &OpCounters::g2_exp, 2);
  if (!(r4 == sig.r4)) return false;
  // Eq.2: e(T2,g2)^sx e(v,w)^-sa e(v,g2)^-sd (e(T2,w)/e(g1,g2))^c == R2,
  // folded by pairing base: e(T2^sx v^-sd g1^-c, g2) * e(v^-sa T2^c, w).
  // Both G2 arguments are fixed, so their Miller-loop lines come
  // precomputed.
  const std::pair<curve::G1, const curve::G2Prepared*> r2_pairs[] = {
      {curve::g1_msm<3>(
           {sig.t2, bases.v, bn.g1_gen},
           {sig.s_x.to_u256(), (-sig.s_delta).to_u256(), neg_c}),
       &curve::g2_generator_prepared()},
      {curve::g1_msm<2>({sig.t2, bases.v},
                        {c.to_u256(), (-sig.s_alpha).to_u256()}),
       &pgpk.w}};
  const GT r2 = curve::multi_pairing(r2_pairs);
  count(ops, &OpCounters::g1_exp, 5);
  count(ops, &OpCounters::pairings, 2);
  return r2 == sig.r2;
}

bool verify_proof(const GroupPublicKey& gpk, BytesView message,
                  const Signature& sig, OpCounters* ops) {
  // Reference path, deliberately left as straight-line exponentiations and
  // unprepared pairings: it is the differential oracle the prepared hot
  // path is tested bit-identical against.
  const auto& bn = Bn254::get();
  if (sig.t1.is_infinity() || sig.t2.is_infinity()) return false;
  if (!curve::gt_in_cyclotomic_subgroup(sig.r2)) return false;

  const SignatureBases bases = derive_bases(gpk, message, sig, ops);
  const Fr c = challenge(gpk, message, sig, sig.r1, sig.r2, sig.r3, sig.r4);

  const G1 r1 = bases.u * sig.s_alpha - sig.t1 * c;
  count(ops, &OpCounters::g1_exp, 2);
  if (!(r1 == sig.r1)) return false;
  const G1 r3 = sig.t1 * sig.s_x - bases.u * sig.s_delta;
  count(ops, &OpCounters::g1_exp, 2);
  if (!(r3 == sig.r3)) return false;
  const G2 r4 = bases.v_hat * sig.s_alpha - sig.t_hat * c;
  count(ops, &OpCounters::g2_exp, 2);
  if (!(r4 == sig.r4)) return false;
  const GT r2 = curve::multi_pairing(
      {{sig.t2 * sig.s_x - bases.v * sig.s_delta - bn.g1_gen * c,
        bn.g2_gen},
       {sig.t2 * c - bases.v * sig.s_alpha, gpk.w}});
  count(ops, &OpCounters::g1_exp, 5);
  count(ops, &OpCounters::pairings, 2);
  return r2 == sig.r2;
}

/// Everything prepare() derives for one batch element, plus its
/// randomizers. Each pool worker writes only its own entry.
struct BatchVerifier::Prep {
  bool prepared = false;
  /// T1/T2 finite and R2 in the cyclotomic subgroup. Items failing this are
  /// rejected without equations — exactly as sequential verify_proof does —
  /// and never enter a combined check.
  bool format_ok = false;
  Fr c;  // recomputed Fiat-Shamir challenge
  curve::SignatureBases bases;
  G1 a, b;  // Eq.2's two G1 combinations (paired with prepared g2 / w)
  std::uint64_t rho1 = 0, rho2 = 0, rho3 = 0, rho4 = 0;
  /// The first format-ok item whose u (v_hat) is the same point as this
  /// item's: folds merge the terms of items that share one.
  std::size_t u_first = 0, v_hat_first = 0;
};

namespace {

/// Fold job shapes (docs/CRYPTO.md §4.1). Constants, never the pool's
/// thread count, so a fold makes the same calls however its jobs run. A
/// G2 sum of kG2SplitFrom terms or more splits into parts of at most
/// kG2MaxPart terms, R2 powers over kGtSplitFrom bases or more into parts
/// of at most kGtMaxPart: a 16-item fold then runs 4 jobs per stage at
/// most, none much longer than its G1 sum or Eq.2's left side. Smaller
/// folds stay one MSM and one multi-power.
constexpr std::size_t kG2SplitFrom = 32, kG2MaxPart = 16;
constexpr std::size_t kGtSplitFrom = 16, kGtMaxPart = 8;

std::size_t part_count(std::size_t n, std::size_t split_from,
                       std::size_t max_part) {
  return n < split_from ? 1 : (n + max_part - 1) / max_part;
}

/// Part j of `all` cut into `parts` near-equal contiguous runs.
template <class T>
std::span<const T> part(const std::vector<T>& all, std::size_t j,
                        std::size_t parts) {
  const std::size_t lo = j * all.size() / parts;
  const std::size_t hi = (j + 1) * all.size() / parts;
  return std::span<const T>(all).subspan(lo, hi - lo);
}

/// One multi-scalar sum's terms. A base point repeated across items gets
/// one term whose scalar is the sum, mod r, of the repeats' scalars: the
/// same group element, so the same verdict.
template <class Point>
struct FoldTerms {
  std::vector<Point> points;
  std::vector<Fr> scalars;
  /// Term index of each merged base, by its first item (kNone: none yet).
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot_of;

  explicit FoldTerms(std::size_t items) : slot_of(items, kNone) {}

  void add(const Point& p, const Fr& s) {
    points.push_back(p);
    scalars.push_back(s);
  }
  void add_merged(std::size_t first, const Point& p, const Fr& s) {
    std::size_t& slot = slot_of[first];
    if (slot != kNone) {
      scalars[slot] += s;
      return;
    }
    slot = points.size();
    add(p, s);
  }
  std::vector<curve::U256> u256_scalars() const {
    std::vector<curve::U256> out;
    out.reserve(scalars.size());
    for (const Fr& s : scalars) out.push_back(s.to_u256());
    return out;
  }
};

/// Index in `firsts` (items with distinct points, in order) of the item
/// whose point equals item i's, per `same`; appends i when none does.
template <class Same>
std::size_t first_equal(std::vector<std::size_t>& firsts, std::size_t i,
                        Same same) {
  for (auto it = firsts.rbegin(); it != firsts.rend(); ++it)
    if (same(*it)) return *it;
  firsts.push_back(i);
  return i;
}

}  // namespace

BatchVerifier::BatchVerifier(const PreparedGroupPublicKey& pgpk,
                             std::span<const BatchItem> items, BytesView salt)
    : pgpk_(pgpk),
      items_(items.begin(), items.end()),
      prep_(items_.size()),
      results_(items_.size(), 0) {
  // The randomizers are derived AFTER the whole batch is fixed: the DRBG
  // seed binds the verifier's salt, the key, and every (message, signature)
  // byte. An adversary submitting signatures therefore commits to its
  // forgeries before the weights exist, and under a secret salt it cannot
  // predict them at all — crafted cross-signature cancellations (which
  // would fool an UNrandomized sum) survive the fold only by guessing
  // 64-bit weights. Same salt + same batch => same weights, so seeded
  // simulation runs stay reproducible.
  Writer w;
  w.bytes(as_bytes("peace/groupsig/batch-verify/v1"));
  w.bytes(salt);
  w.bytes(pgpk_.gpk.to_bytes());
  w.u64(items_.size());
  for (const BatchItem& item : items_) {
    w.bytes(item.message);
    w.bytes(item.sig->to_bytes());
  }
  crypto::Drbg drbg(w.data());
  const math::BigInt& h = Bn254::get().final_exp_hard;  // Phi_12(p) / r
  const math::BigInt one_bi(1);
  for (Prep& p : prep_) {
    const auto draw_nonzero = [&drbg] {
      std::uint64_t v;
      do {
        v = drbg.next_u64();
      } while (v == 0);
      return v;
    };
    p.rho1 = draw_nonzero();
    p.rho3 = draw_nonzero();
    p.rho4 = draw_nonzero();
    // The GT randomizer is additionally drawn coprime to the cyclotomic
    // cofactor h = Phi_12(p)/r (h has no prime factor below 2^24, so a
    // redraw is a ~2^-19 event): a wire-valid R2 deviates from the true
    // commitment by some delta in the cyclotomic subgroup, of order
    // dividing r * h, and rho2 annihilates it only if ord(delta) | rho2.
    // With rho2 nonzero below 2^64 < r and gcd(rho2, h) = 1 that forces
    // delta = 1 — a SINGLE bad Eq.2 deterministically fails the combined
    // check (docs/CRYPTO.md §4).
    do {
      p.rho2 = draw_nonzero();
    } while (!(math::BigInt::gcd(math::BigInt(p.rho2), h) == one_bi));
  }
}

BatchVerifier::~BatchVerifier() = default;

const SignatureBases& BatchVerifier::bases(std::size_t i) const {
  return prep_[i].bases;
}

void BatchVerifier::prepare(std::size_t i, OpCounters* ops) {
  const auto& bn = Bn254::get();
  Prep& p = prep_[i];
  if (p.prepared) return;
  p.prepared = true;
  obs::Span span("batch.prepare", "groupsig");
  span.arg("index", i);
  const Signature& sig = *items_[i].sig;
  // Same gates as sequential verify_proof, same rejection.
  if (sig.t1.is_infinity() || sig.t2.is_infinity()) return;
  if (!curve::gt_in_cyclotomic_subgroup(sig.r2)) return;
  p.bases = items_[i].bases != nullptr
                ? *items_[i].bases
                : derive_bases(pgpk_.gpk, items_[i].message, sig, ops);
  p.c = challenge(pgpk_.gpk, items_[i].message, sig, sig.r1, sig.r2, sig.r3,
                  sig.r4);
  // Eq.2's G1 combinations against the prepared bases, identical to the
  // ones verify_proof builds — the bisection leaf and the GT fold both
  // consume them.
  const curve::U256 neg_c = (-p.c).to_u256();
  p.a = curve::g1_msm<3>(
      {sig.t2, p.bases.v, bn.g1_gen},
      {sig.s_x.to_u256(), (-sig.s_delta).to_u256(), neg_c});
  p.b = curve::g1_msm<2>({sig.t2, p.bases.v},
                         {p.c.to_u256(), (-sig.s_alpha).to_u256()});
  count(ops, &OpCounters::g1_exp, 5);
  p.format_ok = true;
}

bool BatchVerifier::check_one(std::size_t i, OpCounters* ops) {
  const Prep& p = prep_[i];
  if (!p.format_ok) return false;
  obs::Span span("batch.leaf", "groupsig");
  span.arg("index", i);
  const Signature& sig = *items_[i].sig;
  // The exact sequential equation checks (same combinations, same order as
  // verify_proof), so leaf verdicts are bit-identical to one-at-a-time
  // verification.
  const curve::U256 neg_c = (-p.c).to_u256();
  const G1 r1 =
      curve::g1_msm<2>({p.bases.u, sig.t1}, {sig.s_alpha.to_u256(), neg_c});
  count(ops, &OpCounters::g1_exp, 2);
  if (!(r1 == sig.r1)) return false;
  const G1 r3 = curve::g1_msm<2>(
      {sig.t1, p.bases.u}, {sig.s_x.to_u256(), (-sig.s_delta).to_u256()});
  count(ops, &OpCounters::g1_exp, 2);
  if (!(r3 == sig.r3)) return false;
  const G2 r4 = curve::g2_msm<2>({p.bases.v_hat, sig.t_hat},
                                 {sig.s_alpha.to_u256(), neg_c});
  count(ops, &OpCounters::g2_exp, 2);
  if (!(r4 == sig.r4)) return false;
  curve::MillerAccumulator acc;
  acc.add(p.a, curve::g2_generator_prepared());
  acc.add(p.b, pgpk_.w);
  count(ops, &OpCounters::pairings, 2);
  return acc.finalize() == sig.r2;
}

bool BatchVerifier::check_range(std::size_t lo, std::size_t hi,
                                OpCounters* ops, const JobRunner& run) {
  std::vector<std::size_t> active;
  active.reserve(hi - lo);
  for (std::size_t i = lo; i < hi; ++i)
    if (prep_[i].format_ok) active.push_back(i);
  if (active.empty()) return true;
  obs::Span span("batch.fold", "groupsig");
  span.arg("lo", lo);
  span.arg("hi", hi);
  span.arg("active", active.size());
  using curve::U256;
  const std::size_t n = active.size();

  // Stage 1. Combined Eq.1 + Eq.3, one G1 multi-scalar sum: per item i
  // the residual
  //   rho1 * (u^sa T1^-c R1^-1) + rho3 * (T1^sx u^-sd R3^-1)
  // collapses onto four points. Combined Eq.4, one G2 sum over three
  // points per item. Both totals must be the identity.
  FoldTerms<G1> g1(items_.size());
  FoldTerms<G2> g2(items_.size());
  for (const std::size_t i : active) {
    const Prep& p = prep_[i];
    const Signature& sig = *items_[i].sig;
    const Fr rho1 = Fr::from_u64(p.rho1);
    const Fr rho3 = Fr::from_u64(p.rho3);
    const Fr rho4 = Fr::from_u64(p.rho4);
    g1.add_merged(p.u_first, p.bases.u,
                  rho1 * sig.s_alpha - rho3 * sig.s_delta);
    g1.add(sig.t1, rho3 * sig.s_x - rho1 * p.c);
    g1.add(sig.r1, -rho1);
    g1.add(sig.r3, -rho3);
    g2.add_merged(p.v_hat_first, p.bases.v_hat, rho4 * sig.s_alpha);
    g2.add(sig.t_hat, -(rho4 * p.c));
    g2.add(sig.r4, -rho4);
  }
  const std::vector<U256> g1_sc = g1.u256_scalars();
  const std::vector<U256> g2_sc = g2.u256_scalars();
  const std::size_t g2_parts =
      part_count(g2.points.size(), kG2SplitFrom, kG2MaxPart);
  G1 g1_sum;
  std::vector<G2> g2_sums(g2_parts);
  // GLS precondition: v_hat is hash-derived, t_hat and r4 are parse-checked.
  run(1 + g2_parts, [&](std::size_t j) {
    if (j == 0) {
      g1_sum = curve::g1_msm(g1.points, g1_sc);
      return;
    }
    g2_sums[j - 1] = curve::g2_msm(part(g2.points, j - 1, g2_parts),
                                   part(g2_sc, j - 1, g2_parts));
  });
  count(ops, &OpCounters::g1_exp, 4 * n);
  count(ops, &OpCounters::g2_exp, 3 * n);
  G2 g2_sum = G2::infinity();
  for (const G2& s : g2_sums) g2_sum = g2_sum + s;
  if (!g1_sum.is_infinity() || !g2_sum.is_infinity()) return false;

  // Stage 2. Combined Eq.2: by bilinearity,
  //   prod_i [ e(a_i, g2) e(b_i, w) ]^rho2_i
  //     == e(sum_i rho2_i a_i, g2) * e(sum_i rho2_i b_i, w),
  // so the left side costs two Miller loops over the PREPARED bases and
  // ONE final exponentiation, however many signatures the fold holds. The
  // right side folds the carried R2 powers under shared cyclotomic
  // squaring chains, one per part; the parts multiply together.
  std::vector<G1> a_pts, b_pts;
  std::vector<U256> rho2_sc;
  std::vector<GT> r2s;
  std::vector<std::uint64_t> rho2s;
  a_pts.reserve(n);
  b_pts.reserve(n);
  rho2_sc.reserve(n);
  r2s.reserve(n);
  rho2s.reserve(n);
  for (const std::size_t i : active) {
    const Prep& p = prep_[i];
    a_pts.push_back(p.a);
    b_pts.push_back(p.b);
    rho2_sc.push_back(U256(p.rho2));
    r2s.push_back(items_[i].sig->r2);
    rho2s.push_back(p.rho2);
  }
  const std::size_t gt_parts = part_count(n, kGtSplitFrom, kGtMaxPart);
  GT lhs;
  std::vector<GT> rhs_parts(gt_parts);
  run(1 + gt_parts, [&](std::size_t j) {
    if (j == 0) {
      curve::MillerAccumulator acc;
      acc.add(curve::g1_msm(a_pts, rho2_sc), curve::g2_generator_prepared());
      acc.add(curve::g1_msm(b_pts, rho2_sc), pgpk_.w);
      lhs = acc.finalize();
      return;
    }
    rhs_parts[j - 1] = curve::gt_multi_pow_unitary(
        part(r2s, j - 1, gt_parts), part(rho2s, j - 1, gt_parts));
  });
  count(ops, &OpCounters::g1_exp, 2 * n);
  count(ops, &OpCounters::pairings, 2);
  count(ops, &OpCounters::gt_exp, n);
  GT rhs = rhs_parts[0];
  for (std::size_t j = 1; j < gt_parts; ++j) rhs *= rhs_parts[j];
  return lhs == rhs;
}

void BatchVerifier::bisect(std::size_t lo, std::size_t hi, OpCounters* ops,
                           const JobRunner& run) {
  std::size_t n_active = 0;
  std::size_t last_active = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    if (prep_[i].format_ok) {
      ++n_active;
      last_active = i;
    }
  }
  if (n_active == 0) return;  // all already rejected on format
  if (n_active == 1) {
    // Leaf: no randomization — the exact sequential checks decide, so
    // attribution is bit-identical to one-at-a-time verification.
    results_[last_active] = check_one(last_active, ops) ? 1 : 0;
    return;
  }
  if (check_range(lo, hi, ops, run)) {
    for (std::size_t i = lo; i < hi; ++i)
      if (prep_[i].format_ok) results_[i] = 1;
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  bisect(lo, mid, ops, run);
  bisect(mid, hi, ops, run);
}

const std::vector<char>& BatchVerifier::finalize(OpCounters* ops,
                                                 const JobRunner& run) {
  if (finalized_) return results_;
  obs::Span span("batch.finalize", "groupsig");
  span.arg("batch_size", items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) prepare(i, ops);
  // Every signature of one epoch is over the same u and v_hat; the points
  // themselves decide which items share a merged fold term.
  std::vector<std::size_t> us, v_hats;
  for (std::size_t i = 0; i < items_.size(); ++i) {
    Prep& p = prep_[i];
    if (!p.format_ok) continue;
    p.u_first = first_equal(
        us, i, [&](std::size_t j) { return prep_[j].bases.u == p.bases.u; });
    p.v_hat_first = first_equal(v_hats, i, [&](std::size_t j) {
      return prep_[j].bases.v_hat == p.bases.v_hat;
    });
  }
  const JobRunner run_inline =
      [](std::size_t count, const std::function<void(std::size_t)>& body) {
        for (std::size_t j = 0; j < count; ++j) body(j);
      };
  bisect(0, items_.size(), ops, run ? run : run_inline);
  finalized_ = true;
  return results_;
}

std::vector<char> batch_verify_proof(const PreparedGroupPublicKey& pgpk,
                                     std::span<const BatchItem> items,
                                     BytesView salt, OpCounters* ops) {
  BatchVerifier verifier(pgpk, items, salt);
  return verifier.finalize(ops);
}

bool matches_token(const GroupPublicKey& gpk, BytesView message,
                   const Signature& sig, const RevocationToken& token,
                   OpCounters* ops) {
  const SignatureBases bases = derive_bases(gpk, message, sig, ops);
  // Eq.3: e(T2 / A, v_hat) == e(v, T_hat), i.e.
  // e(T2 - A, v_hat) * e(-v, T_hat) == 1.
  count(ops, &OpCounters::pairings, 2);
  return curve::multi_pairing(
             {{sig.t2 - token.a, bases.v_hat}, {-bases.v, sig.t_hat}})
      .is_one();
}

PreparedBases prepare_bases(const GroupPublicKey& gpk, BytesView message,
                            const Signature& sig, OpCounters* ops) {
  return PreparedBases(derive_bases(gpk, message, sig, ops));
}

bool matches_token(const PreparedBases& prepared, const Signature& sig,
                   const RevocationToken& token, OpCounters* ops) {
  count(ops, &OpCounters::pairings, 2);
  // Same fused product as the re-deriving overload; v_hat consumes its
  // stored lines, T_hat (used once) gets a line table for this call only.
  const std::pair<curve::G1, const curve::G2Prepared*> prep[] = {
      {sig.t2 - token.a, &prepared.v_hat}};
  const std::pair<curve::G1, curve::G2> unprep[] = {
      {-prepared.bases.v, sig.t_hat}};
  return curve::multi_pairing(prep, unprep).is_one();
}

TokenScan::TokenScan(const PreparedBases& prepared, const Signature& sig,
                     OpCounters* ops)
    : sig_(sig),
      ops_(ops),
      // e(-v, T_hat) is token-independent: one Miller loop here covers the
      // second factor of every token's fused product in the matches_token
      // formulation e(T2 - A, v_hat) * e(-v, T_hat) == 1.
      t_hat_factor_(curve::miller_loop(-prepared.bases.v, sig.t_hat)),
      v_hat_(&prepared.v_hat) {}

void TokenScan::add(const RevocationToken& token) {
  count(ops_, &OpCounters::pairings, 2);
  products_.push_back(curve::miller_loop(sig_.t2 - token.a, *v_hat_) *
                      t_hat_factor_);
}

std::size_t TokenScan::first_match() const {
  if (products_.empty()) return npos;
  // One shared Fp12 inversion for the whole scan; field inverses are unique,
  // so each element equals its per-token easy part exactly.
  const std::vector<curve::Fp12> easy = curve::final_exp_easy_batch(products_);
  for (std::size_t i = 0; i < easy.size(); ++i) {
    if (curve::final_exp_hard(easy[i]).is_one()) return i;
  }
  return npos;
}

std::size_t scan_tokens(const PreparedBases& prepared, const Signature& sig,
                        std::span<const RevocationToken> url, OpCounters* ops) {
  if (url.empty()) return TokenScan::npos;
  TokenScan scan(prepared, sig, ops);
  for (const RevocationToken& token : url) scan.add(token);
  return scan.first_match();
}

bool verify(const GroupPublicKey& gpk, BytesView message, const Signature& sig,
            std::span<const RevocationToken> url, OpCounters* ops) {
  if (!verify_proof(gpk, message, sig, ops)) return false;
  for (const RevocationToken& token : url) {
    if (matches_token(gpk, message, sig, token, ops)) return false;
  }
  return true;
}

bool verify(const PreparedGroupPublicKey& pgpk, BytesView message,
            const Signature& sig, std::span<const RevocationToken> url,
            OpCounters* ops) {
  SignatureBases bases;
  if (!verify_proof(pgpk, message, sig, ops, nullptr, &bases)) return false;
  if (url.empty()) return true;
  // Eq.3 pairs against the per-message base v_hat — not a fixed argument
  // the prepared key could cover — so prepare the bases the proof check
  // derived once here and run the batched scan: one Miller loop per token
  // against the prepared lines, one shared e(-v, T_hat) factor, one shared
  // easy-part inversion.
  return scan_tokens(PreparedBases(bases), sig, url, ops) == TokenScan::npos;
}

std::string EpochRevocationIndex::tag_for(const G1& a) const {
  return to_hex(curve::pairing(a, bases_->v_hat).to_bytes());
}

EpochRevocationIndex::EpochRevocationIndex(const GroupPublicKey& gpk,
                                           Epoch epoch,
                                           std::span<const RevocationToken> url)
    : gpk_(gpk),
      epoch_(epoch),
      bases_(std::make_shared<const PreparedBases>(epoch_bases(gpk, epoch))) {
  for (const RevocationToken& token : url) add_token(token);
}

bool EpochRevocationIndex::add_token(const RevocationToken& token) {
  const std::string key = to_hex(token.to_bytes());
  if (tokens_.contains(key)) return false;
  Entry entry{token.a, tag_for(token.a)};
  tags_.insert(entry.tag);
  tokens_.emplace(key, std::move(entry));
  return true;
}

bool EpochRevocationIndex::remove_token(const RevocationToken& token) {
  const auto it = tokens_.find(to_hex(token.to_bytes()));
  if (it == tokens_.end()) return false;
  tags_.erase(it->second.tag);
  tokens_.erase(it);
  return true;
}

bool EpochRevocationIndex::contains(const RevocationToken& token) const {
  return tokens_.contains(to_hex(token.to_bytes()));
}

void EpochRevocationIndex::roll_epoch(const GroupPublicKey& gpk, Epoch epoch) {
  if (covers(gpk, epoch)) return;
  bases_ = std::make_shared<const PreparedBases>(epoch_bases(gpk, epoch));
  gpk_ = gpk;
  epoch_ = epoch;
  tags_.clear();
  for (auto& [key, entry] : tokens_) {
    entry.tag = tag_for(entry.a);
    tags_.insert(entry.tag);
  }
}

bool EpochRevocationIndex::is_revoked(const Signature& sig,
                                      OpCounters* ops) const {
  // K = e(T2, v_hat) / e(v, T_hat) = e(A, v_hat): constant per member per
  // epoch — the linkability the paper trades for O(1) revocation checking.
  // v_hat is fixed per epoch (prepared at rebuild) and the quotient folds
  // into one product of Miller loops with a single final exponentiation;
  // that is legal because the final exponentiation x -> x^((p^12-1)/r) is a
  // homomorphism, so FE(m1) * FE(m2)^-1 == FE(m1 * ML(-v, T_hat)).
  if (sig.epoch != epoch_) throw Error("groupsig: epoch mismatch");
  // No token, no tag to match: the signer cannot be revoked.
  if (tokens_.empty()) return false;
  count(ops, &OpCounters::pairings, 2);
  // T_hat is used exactly once, so it goes through the mixed overload: its
  // line table lives only for this call instead of in a G2Prepared.
  const std::pair<curve::G1, const curve::G2Prepared*> prep[] = {
      {sig.t2, &bases_->v_hat}};
  const std::pair<curve::G1, curve::G2> unprep[] = {
      {-bases_->bases.v, sig.t_hat}};
  const GT k = curve::multi_pairing(prep, unprep);
  return tags_.contains(to_hex(k.to_bytes()));
}

bool verify_fast(const GroupPublicKey& gpk, BytesView message,
                 const Signature& sig, const EpochRevocationIndex& index,
                 OpCounters* ops) {
  if (sig.epoch != index.epoch()) return false;
  if (!verify_proof(gpk, message, sig, ops)) return false;
  return !index.is_revoked(sig, ops);
}

GT epoch_linkability_tag(const GroupPublicKey& gpk, const Signature& sig) {
  const SignatureBases bases = derive_bases(gpk, {}, sig, nullptr);
  return curve::pairing(sig.t2, bases.v_hat) *
         curve::pairing(bases.v, sig.t_hat).unitary_inverse();
}

}  // namespace peace::groupsig

namespace peace {

void put(Writer& w, const groupsig::Issuer& issuer) { w(issuer.gamma()); }
void get(Reader& r, groupsig::Issuer& issuer) {
  curve::Fr gamma;
  r(gamma);
  issuer = groupsig::Issuer::from_secret(gamma);
}

}  // namespace peace
