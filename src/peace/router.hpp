// Mesh-router protocol endpoint: beacon generation (M.1), access-request
// handling (M.2 -> M.3), session management, and the client-puzzle DoS
// defence. One instance per router; the mesh simulator wires instances
// together over a lossy radio model. Each M.2 gets one revocation check,
// on whichever thread verifies it: the shared epoch index when it covers
// the signature, else the URL scan — over the bases the answered beacon
// kept from the index, or over the bases its proof check derived.
#pragma once

#include <deque>
#include <memory>
#include <unordered_map>

#include "obs/fields.hpp"
#include "peace/bounded_map.hpp"
#include "peace/entities.hpp"
#include "peace/revoke/shared.hpp"
#include "peace/session.hpp"
#include "peace/verify_pool.hpp"

namespace peace::proto {

/// Counters for the security analysis experiments (A1/A2/E8): why requests
/// were rejected and how much expensive work the router actually performed.
struct RouterStats {
  std::uint64_t beacons_sent = 0;
  std::uint64_t requests_received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_unknown_beacon = 0;
  std::uint64_t rejected_stale = 0;
  std::uint64_t rejected_replay = 0;
  std::uint64_t rejected_puzzle = 0;
  std::uint64_t rejected_bad_signature = 0;
  std::uint64_t rejected_revoked = 0;
  std::uint64_t signature_verifications = 0;  // expensive pairing work
  std::uint64_t verify_batches = 0;           // multi-request batches run
  std::uint64_t batched_requests = 0;         // requests entering a batch
  // Delta revocation distribution (Sec. V.A at metro scale):
  std::uint64_t rl_deltas_applied = 0;    // chain advanced
  std::uint64_t rl_deltas_ignored = 0;    // stale / duplicate deliveries
  std::uint64_t rl_deltas_rejected = 0;   // forged or broken-chain deltas
  std::uint64_t rl_resyncs_requested = 0; // chain gaps -> full-list fetch
  std::uint64_t rl_resyncs_completed = 0;
  // Reliability layer (PROTOCOL.md §10):
  std::uint64_t confirms_resent = 0;  // duplicate M.2 answered with cached M.3
  // Epoch mode (ProtocolConfig::revocation_epoch_ms):
  std::uint64_t epoch_fallback_scans = 0;  // epoch M.2s the URL scan checked
};

/// The registry counter each field is exported as (obs/fields.hpp).
constexpr auto field_table(const RouterStats*) {
  return std::to_array<obs::Field<RouterStats>>({
      {&RouterStats::beacons_sent, "router.beacons_sent"},
      {&RouterStats::requests_received, "router.requests_received"},
      {&RouterStats::accepted, "router.accepted"},
      {&RouterStats::rejected_unknown_beacon, "router.rejected_unknown_beacon"},
      {&RouterStats::rejected_stale, "router.rejected_stale"},
      {&RouterStats::rejected_replay, "router.rejected_replay"},
      {&RouterStats::rejected_puzzle, "router.rejected_puzzle"},
      {&RouterStats::rejected_bad_signature, "router.rejected_bad_signature"},
      {&RouterStats::rejected_revoked, "router.rejected_revoked"},
      {&RouterStats::signature_verifications, "router.signature_verifications"},
      {&RouterStats::verify_batches, "router.verify_batches"},
      {&RouterStats::batched_requests, "router.batched_requests"},
      {&RouterStats::rl_deltas_applied, "router.rl_deltas_applied"},
      {&RouterStats::rl_deltas_ignored, "router.rl_deltas_ignored"},
      {&RouterStats::rl_deltas_rejected, "router.rl_deltas_rejected"},
      {&RouterStats::rl_resyncs_requested, "router.rl_resyncs_requested"},
      {&RouterStats::rl_resyncs_completed, "router.rl_resyncs_completed"},
      {&RouterStats::confirms_resent, "router.confirms_resent"},
      {&RouterStats::epoch_fallback_scans, "router.epoch_fallback_scans"},
  });
}

class MeshRouter {
 public:
  /// `revocation` lets many routers share one RCU snapshot state (the mesh
  /// simulator passes a segment-wide instance); null gives the router its
  /// own private state, preserving the standalone behaviour.
  MeshRouter(RouterId id, curve::EcdsaKeyPair keypair,
             RouterCertificate certificate, SystemParams params,
             crypto::Drbg rng, ProtocolConfig config = {},
             std::shared_ptr<revoke::SharedRevocationState> revocation = {});

  RouterId id() const { return id_; }
  const RouterStats& stats() const { return stats_; }
  const RouterCertificate& certificate() const { return certificate_; }

  /// Installs newer signed revocation lists (stale or badly signed lists are
  /// rejected — the version check closes the paper's phishing window).
  void install_revocation_lists(const SignedRevocationList& crl,
                                const SignedRevocationList& url);

  /// Delta path: offers every delta of an announcement to the shared state.
  /// Returns the resync requests (at most one per list kind) this router
  /// needs when a chain gap or break leaves it behind the NO.
  std::vector<RLResyncRequest> handle_rl_announce(const RLDeltaAnnounce& ann);

  /// Completes a resync round-trip with the NO's full list.
  void handle_rl_resync(const RLResyncResponse& resp);

  /// The shared revocation state (for wiring and for tests).
  const std::shared_ptr<revoke::SharedRevocationState>& revocation() const {
    return revocation_;
  }

  /// Installs new system parameters after NO rotates the group master key
  /// (membership renewal). Pushed over the operator's secure channel;
  /// established sessions keep draining on their symmetric keys. The fixed
  /// pairing argument w is re-prepared here, once per rotation.
  void install_params(const SystemParams& params) {
    params_ = params;
    pgpk_ = groupsig::PreparedGroupPublicKey(params_.gpk);
    // Bases are derived from (gpk, epoch): the old key's fit no M.2 now.
    for (BeaconState& b : recent_beacons_) b.bases.reset();
  }

  /// Enables the client-puzzle defence (Sec. V.A) at the given difficulty.
  void set_under_attack(bool attacked, std::uint8_t difficulty_bits = 16);

  /// M.1: a fresh beacon — new random generator g and exponent rR each
  /// period, current CRL/URL attached, optionally a puzzle challenge. In
  /// epoch mode it first advances the shared revocation index to
  /// config.epoch_at(now), the epoch the beacon's answers are signed at,
  /// and keeps that index's bases for them (they outlive a later roll).
  BeaconMessage make_beacon(Timestamp now);

  struct AccessOutcome {
    AccessConfirm confirm;
    Bytes session_id;
  };

  /// Paper step 3: full validation pipeline for M.2. Returns nullopt and
  /// bumps the matching rejection counter on failure; on success a session
  /// is established and M.3 returned. Equivalent to a batch of one.
  std::optional<AccessOutcome> handle_access_request(const AccessRequest& m2,
                                                     Timestamp now);

  /// Batch form: processes `batch` with results, sessions, stats, and
  /// rejection counters identical to calling handle_access_request on each
  /// element in order. The expensive signature verifications run on the
  /// VerifyPool (config.verify_threads) between a sequential precheck pass
  /// and a sequential in-order apply pass, so per-session ordering and the
  /// replay cache behave exactly as in the sequential path.
  std::vector<std::optional<AccessOutcome>> handle_access_requests(
      std::span<const AccessRequest> batch, Timestamp now);

  /// Established session lookup (by the (g^rR, g^rj) identifier).
  Session* session(BytesView session_id);
  std::size_t session_count() const { return sessions_.size(); }

  /// Tears down an established session (rekey retired it, or the peer is
  /// gone). Returns whether a session with that id existed. The replay
  /// cache entry survives but loses its cached M.3, so the spent M.2 can
  /// never re-establish the session nor fish its confirmation back out.
  bool close_session(BytesView session_id);

  /// Replay-cache occupancy, for cap monitoring (bounded by
  /// config.replay_cache_cap via oldest-first eviction).
  std::size_t replay_cache_size() const { return seen_requests_.size(); }

  /// Aggregate groupsig operation counters for all verifications this
  /// router performed (per-worker counters are merged in deterministically).
  const groupsig::OpCounters& verify_ops() const { return verify_ops_; }

 private:
  struct BeaconState {
    Fr r_r;
    Bytes g_rr_bytes;
    Timestamp ts = 0;
    /// The snapshot index's epoch and bases when the beacon was made, if
    /// that index covered the router's key: what an M.2 answering this
    /// beacon is verified over after the index has rolled on.
    groupsig::Epoch epoch = 0;
    std::shared_ptr<const groupsig::PreparedBases> bases;
  };

  /// One batch entry between the precheck, verify, and apply passes.
  struct PendingVerify;
  AccessOutcome accept_request(const AccessRequest& m2,
                               const BeaconState& beacon, const Bytes& sid,
                               const std::string& sid_hex, Timestamp now);
  /// Steps 3.2 + 3.3 for `jobs` as one verify_group_signatures batch
  /// against a batch-wide snapshot: sets each entry's verdict. Returns
  /// whether the check folded (and then bumps the batch counters).
  bool verify_batch(std::span<PendingVerify* const> jobs,
                    const revoke::RevocationSnapshot& snapshot);
  /// Step 3.3 for one verified request (the RevokedCheck of verify_batch),
  /// on whichever thread runs it; `bases` are those its proof was checked
  /// over.
  bool revoked(PendingVerify& pv, const curve::SignatureBases& bases,
               const revoke::RevocationSnapshot& snapshot);
  /// The snapshot's index when it answers `sig` (same epoch, same group
  /// key), else null.
  const groupsig::EpochRevocationIndex* covering_index(
      const groupsig::Signature& sig,
      const revoke::RevocationSnapshot& snapshot) const;
  /// The bases every signature of pv's epoch shares: the covering index's,
  /// else its beacon's when they are of that epoch. Null at epoch 0 and
  /// otherwise; the check then prepares the bases its proof ran over.
  const groupsig::PreparedBases* shared_bases(
      const PendingVerify& pv,
      const revoke::RevocationSnapshot& snapshot) const;

  RouterId id_;
  curve::EcdsaKeyPair keypair_;
  RouterCertificate certificate_;
  SystemParams params_;
  groupsig::PreparedGroupPublicKey pgpk_;  // fixed G2 args prepared once
  crypto::Drbg rng_;
  ProtocolConfig config_;
  std::unique_ptr<VerifyPool> pool_;  // null => verify inline
  groupsig::OpCounters verify_ops_;
  /// Secret per-router salt seeding the batch-verification randomizers
  /// (drawn once from rng_ at construction): adversaries cannot predict
  /// the small exponents their forgeries will be weighted by, while a
  /// seeded simulation still reproduces them bit-for-bit.
  Bytes batch_salt_;

  std::shared_ptr<revoke::SharedRevocationState> revocation_;  // never null

  std::deque<BeaconState> recent_beacons_;
  std::uint8_t puzzle_difficulty_ = 0;
  Bytes puzzle_nonce_;

  /// One accepted M.2: its wire_key and the M.3 it was answered with,
  /// until close_session drops it.
  struct SeenRequest {
    std::string m2_key;
    std::optional<AccessConfirm> confirm;
  };
  /// The replay cache, keyed by hex session id; evicted entries remain
  /// protected by the timestamp window.
  BoundedMap<std::string, SeenRequest> seen_requests_;
  std::unordered_map<std::string, Session> sessions_;
  RouterStats stats_;
};

}  // namespace peace::proto
