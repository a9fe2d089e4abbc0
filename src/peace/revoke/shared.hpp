// RCU-style shared revocation state. One SharedRevocationState serves a
// whole mesh segment: N MeshRouters (and their VerifyPool workers) read the
// current RevocationSnapshot by copying one shared_ptr under a lock held
// for that copy only, while the one writer (the operator's distribution
// channel) validates deltas against the underlying RevocationStores, builds
// the successor snapshot off to the side, and publishes it with one swap
// under the same lock. Readers that
// loaded the old snapshot keep a reference and finish their batch against a
// consistent view; the old snapshot is freed when the last reader drops it.
//
// Snapshots are immutable after publication. Updates are incremental: a URL
// delta re-parses and re-tags only the added tokens (the epoch index is
// cloned and edited, never rebuilt), and the per-epoch prepared v_hat is
// carried across snapshots so the verify hot path never constructs a
// G2Prepared per message or per token.
#pragma once

#include <memory>
#include <mutex>

#include "obs/fields.hpp"
#include "peace/revoke/store.hpp"

namespace peace::revoke {

using groupsig::RevocationToken;

/// Immutable view of the revocation state at one instant. Everything a
/// verifier needs for paper steps 3.1-3.3: the signed lists for beacons,
/// the parsed URL tokens for the Eq.3 scan, and (epoch mode) the
/// constant-time index with its epoch-lived prepared v_hat.
struct RevocationSnapshot {
  proto::SignedRevocationList crl;
  proto::SignedRevocationList url;
  std::vector<RevocationToken> url_tokens;
  groupsig::Epoch epoch = 0;  // 0 => per-message bases, no index
  /// Non-null iff epoch != 0. shared_ptr so an unchanged index is carried
  /// into successor snapshots without copying its tag tables.
  std::shared_ptr<const groupsig::EpochRevocationIndex> index;
};

/// Writer-side counters (reads are not counted — they are lock-free loads).
struct SharedRevocationStats {
  std::uint64_t full_installs = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t deltas_stale = 0;
  std::uint64_t deltas_gap = 0;
  std::uint64_t deltas_rejected = 0;  // bad signature / chain / kind
  std::uint64_t snapshots_published = 0;
  std::uint64_t tokens_retagged = 0;  // pairings spent updating the index
  std::uint64_t epoch_rolls = 0;  // index built, rolled or dropped
};

/// The registry counter each field is exported as (obs/fields.hpp).
constexpr auto field_table(const SharedRevocationStats*) {
  return std::to_array<obs::Field<SharedRevocationStats>>({
      {&SharedRevocationStats::full_installs, "revocation.full_installs"},
      {&SharedRevocationStats::deltas_applied, "revocation.deltas_applied"},
      {&SharedRevocationStats::deltas_stale, "revocation.deltas_stale"},
      {&SharedRevocationStats::deltas_gap, "revocation.deltas_gap"},
      {&SharedRevocationStats::deltas_rejected, "revocation.deltas_rejected"},
      {&SharedRevocationStats::snapshots_published,
       "revocation.snapshots_published"},
      {&SharedRevocationStats::tokens_retagged, "revocation.tokens_retagged"},
      {&SharedRevocationStats::epoch_rolls, "revocation.epoch_rolls"},
  });
}

class SharedRevocationState {
 public:
  /// `authority` is the NO public key (NPK) all lists must verify under.
  explicit SharedRevocationState(curve::G1 authority);

  /// Current snapshot; never null, safe from any thread concurrently with
  /// writer calls. Callers hold the returned pointer for the duration of a
  /// batch so the view stays consistent.
  std::shared_ptr<const RevocationSnapshot> snapshot() const;

  /// Full-list install (provisioning or resync). Both lists are validated
  /// before either commits; throws Error("router: revocation list not
  /// signed by NO") / Error("router: stale revocation list") with the exact
  /// historical router semantics. In epoch mode the index is diffed against
  /// the new URL, not rebuilt.
  void install_full(const proto::SignedRevocationList& crl,
                    const proto::SignedRevocationList& url);

  /// Single-list install with RevocationStore result semantics instead of
  /// throws — the resync path (NO's authoritative full list for one kind).
  RevocationStore::InstallResult install_one(
      ListKind kind, const proto::SignedRevocationList& full);

  /// Offers one delta (any kind). Only kApplied publishes a new snapshot.
  DeltaResult apply_delta(const proto::RLDelta& delta);

  /// Switches revocation-check mode: epoch 0 drops the index; a nonzero
  /// epoch builds it from the current URL (first call) or rolls the
  /// existing one in place (one pairing per stored token). A no-op when
  /// the index already covers (gpk, epoch).
  void set_epoch(const groupsig::GroupPublicKey& gpk, groupsig::Epoch epoch);

  /// set_epoch that only moves forward: an `epoch` older than the
  /// published one changes nothing. Routers call it at every beacon, so
  /// whichever of a segment's routers crosses an epoch boundary first rolls
  /// the shared index and the rest find it rolled.
  void advance_epoch(const groupsig::GroupPublicKey& gpk,
                     groupsig::Epoch epoch);

  std::uint64_t crl_version() const;
  std::uint64_t url_version() const;
  /// Chain hash of the installed list of `kind` (what the next delta must
  /// name as base_hash).
  Bytes state_hash(ListKind kind) const;
  SharedRevocationStats stats() const;

 private:
  /// Swaps in `next` (writer mutex held by caller).
  void publish(std::shared_ptr<const RevocationSnapshot> next);
  /// The body of set_epoch (writer mutex held by caller).
  void roll_locked(const groupsig::GroupPublicKey& gpk,
                   groupsig::Epoch epoch);

  mutable std::mutex mutex_;  // serializes writers; readers never take it
  RevocationStore crl_store_;
  RevocationStore url_store_;
  SharedRevocationStats stats_;
  // Held only to copy or swap head_. Not std::atomic<std::shared_ptr>:
  // libstdc++ 12 releases that type's internal lock with relaxed ordering
  // after a load, so a reader's load races with the next store (TSan
  // reports it in RevokeSystemTest.SnapshotSwapIsSafeUnderConcurrentReaders).
  mutable std::mutex head_mutex_;
  std::shared_ptr<const RevocationSnapshot> head_;
};

}  // namespace peace::revoke
