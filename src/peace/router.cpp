#include "peace/router.hpp"

#include <array>
#include <optional>
#include <unordered_set>
#include <utility>

#include "common/serde.hpp"
#include "curve/hash_to_curve.hpp"
#include "obs/sec_event.hpp"
#include "obs/trace.hpp"

namespace peace::proto {

using curve::g1_to_bytes;
using curve::random_fr;

namespace {

/// Why an M.2 was refused.
enum class Reject : std::uint8_t {
  kUnknownBeacon, kStale, kReplayPrecheck, kReplayInBatch, kPuzzle,
  kBadSignature, kRevoked
};

/// The one definition of each rejection, indexed by Reject: the RouterStats
/// counter it bumps and the SecEvent it emits (detail codes:
/// docs/OBSERVABILITY.md §4.1). Every rejection happens in a sequential
/// pass, so per-kind counts are identical between pooled and sequential
/// verification.
struct RejectRow {
  std::uint64_t RouterStats::*counter;
  obs::SecEventKind sec;
  std::optional<std::uint64_t> code;  // none: the caller's detail
};
constexpr std::array<RejectRow, 7> kRejects{{
    {&RouterStats::rejected_unknown_beacon, obs::SecEventKind::kAuthReject, 1},
    {&RouterStats::rejected_stale, obs::SecEventKind::kAuthReject, 2},
    {&RouterStats::rejected_replay, obs::SecEventKind::kReplayDetected, 1},
    {&RouterStats::rejected_replay, obs::SecEventKind::kReplayDetected, 2},
    {&RouterStats::rejected_puzzle, obs::SecEventKind::kAuthReject, 3},
    {&RouterStats::rejected_bad_signature, obs::SecEventKind::kAuthReject, 4},
    {&RouterStats::rejected_revoked, obs::SecEventKind::kRevocationHit, {}},
}};

/// The `mode` arg of the router.revocation_check span.
enum RevocationCheckMode : std::uint64_t { kIndexCheck = 0, kScanCheck = 1 };

}  // namespace

MeshRouter::MeshRouter(RouterId id, curve::EcdsaKeyPair keypair,
                       RouterCertificate certificate, SystemParams params,
                       crypto::Drbg rng, ProtocolConfig config,
                       std::shared_ptr<revoke::SharedRevocationState> revocation)
    : id_(id),
      keypair_(std::move(keypair)),
      certificate_(std::move(certificate)),
      params_(std::move(params)),
      pgpk_(params_.gpk),
      rng_(std::move(rng)),
      config_(config),
      batch_salt_(rng_.bytes(32)),
      revocation_(std::move(revocation)),
      seen_requests_(config_.replay_cache_cap) {
  if (revocation_ == nullptr)
    revocation_ = std::make_shared<revoke::SharedRevocationState>(
        params_.network_public_key);
  if (config_.verify_threads > 1)
    pool_ = std::make_unique<VerifyPool>(config_.verify_threads);
}

void MeshRouter::install_revocation_lists(const SignedRevocationList& crl,
                                          const SignedRevocationList& url) {
  revocation_->install_full(crl, url);
}

std::vector<RLResyncRequest> MeshRouter::handle_rl_announce(
    const RLDeltaAnnounce& ann) {
  bool resync[2] = {false, false};
  for (const RLDelta& delta : ann.deltas) {
    switch (revocation_->apply_delta(delta)) {
      case revoke::DeltaResult::kApplied:
        ++stats_.rl_deltas_applied;
        break;
      case revoke::DeltaResult::kStale:
        ++stats_.rl_deltas_ignored;
        break;
      case revoke::DeltaResult::kGap:
        // Possibly healed by a later delta in this very announcement (they
        // arrive oldest-first); only ask for a resync if still behind after
        // the whole batch.
        resync[static_cast<int>(delta.kind)] = true;
        break;
      default:
        ++stats_.rl_deltas_rejected;
        break;
    }
  }
  std::vector<RLResyncRequest> requests;
  const auto still_behind = [&](ListKind kind, std::uint64_t have) {
    if (!resync[static_cast<int>(kind)]) return;
    std::uint64_t newest = 0;
    for (const RLDelta& d : ann.deltas)
      if (d.kind == kind && d.version > newest) newest = d.version;
    if (have >= newest) return;  // a later delta in the batch healed the gap
    ++stats_.rl_resyncs_requested;
    requests.push_back(RLResyncRequest{kind, have});
  };
  still_behind(ListKind::kCrl, revocation_->crl_version());
  still_behind(ListKind::kUrl, revocation_->url_version());
  return requests;
}

void MeshRouter::handle_rl_resync(const RLResyncResponse& resp) {
  if (revocation_->install_one(resp.kind, resp.full) ==
      revoke::RevocationStore::InstallResult::kInstalled)
    ++stats_.rl_resyncs_completed;
}

void MeshRouter::set_under_attack(bool attacked,
                                  std::uint8_t difficulty_bits) {
  puzzle_difficulty_ = attacked ? difficulty_bits : 0;
}

BeaconMessage MeshRouter::make_beacon(Timestamp now) {
  if (const groupsig::Epoch epoch = config_.epoch_at(now); epoch != 0)
    revocation_->advance_epoch(params_.gpk, epoch);
  // g = a G and g^{r_R} = (a r_R) G, the same point as g r_R and so the
  // same bytes, both from the generator table. a is drawn before r_R, as
  // always, so the DRBG stream is unchanged. One inversion normalizes both
  // shares, so every later encoding of them (the signed payload, the
  // beacon's wire bytes, g_rr_bytes) is free.
  BeaconState state;
  const Fr a = random_fr(rng_);
  state.r_r = random_fr(rng_);
  state.ts = now;

  BeaconMessage beacon;
  beacon.router_id = id_;
  beacon.g = curve::g1_generator_mul(a);
  beacon.g_rr = curve::g1_generator_mul(a * state.r_r);
  curve::normalize_in_place<curve::G1Traits, 2>({&beacon.g, &beacon.g_rr});
  beacon.ts1 = now;
  beacon.signature = keypair_.sign(beacon.signed_payload(), rng_);
  beacon.certificate = certificate_;
  const auto revocation = revocation_->snapshot();
  beacon.crl = revocation->crl;
  beacon.url = revocation->url;
  if (const auto& index = revocation->index;
      index != nullptr && index->covers(params_.gpk, index->epoch())) {
    state.epoch = index->epoch();
    state.bases = index->bases();
  }
  if (puzzle_difficulty_ > 0) {
    puzzle_nonce_ = rng_.bytes(16);
    beacon.puzzle = make_puzzle(puzzle_nonce_, puzzle_difficulty_);
  }

  state.g_rr_bytes = g1_to_bytes(beacon.g_rr);
  recent_beacons_.push_front(std::move(state));
  while (recent_beacons_.size() > config_.beacon_history)
    recent_beacons_.pop_back();
  ++stats_.beacons_sent;
  return beacon;
}

std::optional<MeshRouter::AccessOutcome> MeshRouter::handle_access_request(
    const AccessRequest& m2, Timestamp now) {
  return std::move(handle_access_requests({&m2, 1}, now).front());
}

/// One request that survived the precheck pass, awaiting verification.
struct MeshRouter::PendingVerify {
  std::size_t index;            // position in the input batch / results
  const AccessRequest* m2;
  const BeaconState* beacon;
  Bytes sid;
  std::string sid_hex;
  /// Same sid as an earlier in-batch entry: verification is deferred to the
  /// apply pass (sequentially) so that, exactly as in sequential
  /// processing, it is skipped when the earlier entry was accepted and
  /// performed when it was not.
  bool deferred = false;
  SigVerdict verdict = SigVerdict::kBadProof;
  /// Epoch mode: revoked() checked this signature with the URL scan because
  /// the snapshot's index does not cover its epoch. Set on the worker that
  /// ran the check, read in the apply pass.
  bool fallback_scan = false;
  groupsig::OpCounters ops;
};

std::vector<std::optional<MeshRouter::AccessOutcome>>
MeshRouter::handle_access_requests(std::span<const AccessRequest> batch,
                                   Timestamp now) {
  std::vector<std::optional<AccessOutcome>> results(batch.size());

  // Telemetry (observer only — records durations and op attribution, never
  // touches verdicts): one span for the whole M.2 batch, amortised per
  // request into router.handshake_us at close.
  static obs::Histogram& batch_hist =
      obs::Registry::global().histogram("router.m2_batch_us");
  obs::Span span("router.m2_batch", "handshake", &batch_hist);
  span.arg("batch_size", batch.size());

  const auto reject = [&](Reject kind, std::uint64_t detail = 0) {
    const RejectRow& row = kRejects[static_cast<std::size_t>(kind)];
    ++(stats_.*row.counter);
    obs::sec_emit(row.sec, now, id_, row.code.value_or(detail));
  };
  // A session id the replay cache already holds. Idempotent resend: a
  // byte-identical copy of the accepted M.2 (its M.3 was lost on the air)
  // gets the cached M.3 in `result` — no new session, no rng draw, no
  // pairing work. Anything else is a replay. False when the id is fresh.
  const auto seen_before = [&](const AccessRequest& m2, const Bytes& sid,
                               const std::string& sid_hex, Reject replay,
                               std::optional<AccessOutcome>& result) {
    const SeenRequest* seen = seen_requests_.find(sid_hex);
    if (seen == nullptr) return false;
    if (seen->confirm.has_value() && seen->m2_key == wire_key(m2.to_bytes())) {
      ++stats_.confirms_resent;
      result = AccessOutcome{*seen->confirm, sid};
    } else {
      reject(replay);
    }
    return true;
  };

  // Pass 1 (sequential, input order): the cheap gates — beacon lookup,
  // freshness, replay cache, puzzle — exactly as the sequential pipeline
  // runs them, so rejection counters are bumped in the same order.
  std::vector<PendingVerify> pending;
  pending.reserve(batch.size());
  std::unordered_set<std::string> sids_in_batch;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const AccessRequest& m2 = batch[i];
    ++stats_.requests_received;

    // Step 3.1: the request must target one of our recent beacons...
    const Bytes g_rr_bytes = g1_to_bytes(m2.g_rr);
    const BeaconState* beacon = nullptr;
    for (const BeaconState& b : recent_beacons_) {
      if (b.g_rr_bytes == g_rr_bytes) {
        beacon = &b;
        break;
      }
    }
    if (beacon == nullptr) {
      reject(Reject::kUnknownBeacon);
      continue;
    }
    // ...and carry a fresh timestamp.
    const Timestamp age = now >= m2.ts2 ? now - m2.ts2 : m2.ts2 - now;
    if (age > config_.replay_window_ms) {
      reject(Reject::kStale);
      continue;
    }
    // Replay cache on the session identifier.
    Bytes sid = session_id_from(m2.g_rr, m2.g_rj);
    std::string sid_hex = to_hex(sid);
    if (seen_before(m2, sid, sid_hex, Reject::kReplayPrecheck, results[i]))
      continue;

    // DoS defence: the cheap puzzle check gates the expensive pairing work.
    if (puzzle_difficulty_ > 0) {
      if (!m2.puzzle_solution.has_value() ||
          !verify_puzzle(
              PuzzleChallenge{m2.puzzle_solution->server_nonce,
                              puzzle_difficulty_},
              *m2.puzzle_solution, g1_to_bytes(m2.g_rj)) ||
          !ct_equal(m2.puzzle_solution->server_nonce, puzzle_nonce_)) {
        reject(Reject::kPuzzle);
        continue;
      }
    }
    // Epoch mode: an honest user signs at the epoch of the beacon it
    // answers. Any other epoch is a bad signature, turned away before it
    // can make the router derive bases for an epoch of its choosing.
    if (config_.revocation_epoch_ms != 0 &&
        m2.signature.epoch != config_.epoch_at(beacon->ts)) {
      reject(Reject::kBadSignature);
      continue;
    }

    PendingVerify pv;
    pv.index = i;
    pv.m2 = &m2;
    pv.beacon = beacon;
    pv.deferred = !sids_in_batch.insert(sid_hex).second;
    pv.sid = std::move(sid);
    pv.sid_hex = std::move(sid_hex);
    pending.push_back(std::move(pv));
  }

  // Pass 2 (parallel): steps 3.2 + 3.3 — the pairing-heavy work — fanned
  // out over the pool. One snapshot is loaded for the whole batch: every
  // job (on any worker) verifies against the same immutable revocation
  // view, so a concurrent delta publish can never split a batch. Jobs touch
  // only their own PendingVerify entry and shared const state (pgpk_, the
  // snapshot, the beacons' bases), so no synchronization beyond the pool's
  // own is needed.
  const auto revocation = revocation_->snapshot();
  std::vector<PendingVerify*> jobs;
  jobs.reserve(pending.size());
  for (PendingVerify& pv : pending)
    if (!pv.deferred) jobs.push_back(&pv);

  // A bad proof in a folded batch was pinpointed by bisection — the
  // attribution behind the batch_forgery_attributed event.
  const bool folded = verify_batch(jobs, *revocation);

  // Pass 3 (sequential, input order): apply verdicts, re-checking the
  // replay cache against acceptances made earlier in this very batch. The
  // per-worker OpCounters merge in input order, keeping the aggregate
  // deterministic regardless of which worker verified what.
  for (PendingVerify& pv : pending) {
    // An in-batch byte-identical duplicate of a request accepted earlier in
    // this pass resends its cached M.3, exactly as sequential processing
    // would have.
    if (seen_before(*pv.m2, pv.sid, pv.sid_hex, Reject::kReplayInBatch,
                    results[pv.index]))
      continue;
    // Earlier same-sid entry was rejected: verify now, as a batch of one.
    if (pv.deferred) {
      PendingVerify* self = &pv;
      verify_batch({&self, 1}, *revocation);
    }
    ++stats_.signature_verifications;
    verify_ops_.merge(pv.ops);
    if (pv.fallback_scan) ++stats_.epoch_fallback_scans;
    if (pv.verdict == SigVerdict::kBadProof) {
      reject(Reject::kBadSignature);
      if (folded && !pv.deferred)
        obs::sec_emit(obs::SecEventKind::kBatchForgeryAttributed, now, id_,
                      pv.index);
      continue;
    }
    if (pv.verdict == SigVerdict::kRevoked) {
      reject(Reject::kRevoked, pv.m2->signature.epoch);
      continue;
    }
    results[pv.index] =
        accept_request(*pv.m2, *pv.beacon, pv.sid, pv.sid_hex, now);
  }

  if (span.active() && !batch.empty()) {
    std::uint64_t accepted = 0;
    for (const auto& r : results) accepted += r.has_value() ? 1 : 0;
    span.arg("accepted", accepted);
    const std::uint64_t dur = span.close();
    static obs::Histogram& handshake_hist =
        obs::Registry::global().histogram("router.handshake_us");
    handshake_hist.record(dur / batch.size());
  }
  return results;
}

bool MeshRouter::verify_batch(std::span<PendingVerify* const> jobs,
                              const revoke::RevocationSnapshot& snapshot) {
  std::vector<Bytes> payloads(jobs.size());
  std::vector<groupsig::BatchItem> items(jobs.size());
  std::vector<groupsig::OpCounters*> item_ops(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const groupsig::Signature& sig = jobs[i]->m2->signature;
    const groupsig::PreparedBases* bases = shared_bases(*jobs[i], snapshot);
    payloads[i] = jobs[i]->m2->signed_payload();
    items[i] = {payloads[i], &sig, bases != nullptr ? &bases->bases : nullptr};
    item_ops[i] = &jobs[i]->ops;
  }
  // The fold's combined-check / bisection costs are not attributable to
  // one request: they go straight into the (still deterministic) aggregate.
  const SigBatch checked = verify_group_signatures(
      pgpk_, batch_salt_, items, pool_.get(), item_ops, verify_ops_,
      [&](std::size_t i, const curve::SignatureBases& bases) {
        return revoked(*jobs[i], bases, snapshot);
      });
  for (std::size_t i = 0; i < jobs.size(); ++i)
    jobs[i]->verdict = checked.verdicts[i];
  if (checked.folded) {
    stats_.verify_batches += 1;
    stats_.batched_requests += jobs.size();
  }
  return checked.folded;
}

const groupsig::EpochRevocationIndex* MeshRouter::covering_index(
    const groupsig::Signature& sig,
    const revoke::RevocationSnapshot& snapshot) const {
  return snapshot.index != nullptr &&
                 snapshot.index->covers(params_.gpk, sig.epoch)
             ? snapshot.index.get()
             : nullptr;
}

const groupsig::PreparedBases* MeshRouter::shared_bases(
    const PendingVerify& pv, const revoke::RevocationSnapshot& snapshot) const {
  const groupsig::Signature& sig = pv.m2->signature;
  if (sig.epoch == 0) return nullptr;
  if (const auto* index = covering_index(sig, snapshot))
    return index->bases().get();
  // An M.2 answering a beacon from before a roll: the beacon kept its
  // epoch's bases (install_params drops them with the key).
  if (pv.beacon->bases != nullptr && sig.epoch == pv.beacon->epoch)
    return pv.beacon->bases.get();
  return nullptr;
}

bool MeshRouter::revoked(PendingVerify& pv,
                         const curve::SignatureBases& bases,
                         const revoke::RevocationSnapshot& snapshot) {
  // Telemetry: one span per checked signature, on whichever thread runs it.
  obs::Span span("router.revocation_check", "handshake");
  // Step 3.3: the revocation check. Epoch mode answers from the shared
  // index in O(1) against its epoch-lived prepared v_hat. An epoch
  // mismatch — an in-flight M.2 signed before a roll the snapshot already
  // reflects — falls through to the scan rather than misclassifying
  // against the wrong epoch's tags (is_revoked would throw).
  const groupsig::Signature& sig = pv.m2->signature;
  if (const auto* index = covering_index(sig, snapshot)) {
    span.arg("mode", kIndexCheck);
    span.arg("tokens", index->size());
    return index->is_revoked(sig, &pv.ops);
  }
  span.arg("mode", kScanCheck);
  span.arg("tokens", snapshot.url_tokens.size());
  if (snapshot.url_tokens.empty()) return false;
  pv.fallback_scan = sig.epoch != 0;
  // Scan path: an epoch-mode signature shares its beacon's per-epoch bases
  // (read-only here — workers run this concurrently); any other signature
  // prepares the bases its proof check derived. The scan itself is the
  // batched TokenScan — one Miller loop per token, one shared easy-part
  // inversion.
  const groupsig::PreparedBases* prepared = shared_bases(pv, snapshot);
  std::optional<groupsig::PreparedBases> local;
  if (prepared == nullptr) prepared = &local.emplace(bases);
  return groupsig::scan_tokens(*prepared, sig, snapshot.url_tokens,
                               &pv.ops) != groupsig::TokenScan::npos;
}

MeshRouter::AccessOutcome MeshRouter::accept_request(const AccessRequest& m2,
                                                     const BeaconState& beacon,
                                                     const Bytes& sid,
                                                     const std::string& sid_hex,
                                                     Timestamp now) {
  // Step 3.4: K = (g^rj)^rR, session established, M.3 returned.
  const G1 shared = m2.g_rj * beacon.r_r;
  sessions_.emplace(sid_hex,
                    Session::establish(shared, sid, Session::Role::kResponder));

  AccessOutcome out;
  out.session_id = sid;
  out.confirm.g_rj = m2.g_rj;
  out.confirm.g_rr = m2.g_rr;
  out.confirm.ciphertext = confirm_seal(
      shared, sid, access_confirm_plaintext(id_, m2.g_rj, m2.g_rr));
  ++stats_.accepted;
  seen_requests_.insert(sid_hex,
                        SeenRequest{wire_key(m2.to_bytes()), out.confirm}, now);
  return out;
}

bool MeshRouter::close_session(BytesView session_id) {
  const std::string sid_hex = to_hex(session_id);
  if (SeenRequest* seen = seen_requests_.find(sid_hex)) seen->confirm.reset();
  return sessions_.erase(sid_hex) > 0;
}

Session* MeshRouter::session(BytesView session_id) {
  const auto it = sessions_.find(to_hex(session_id));
  return it == sessions_.end() ? nullptr : &it->second;
}

}  // namespace peace::proto
