// Revocation distribution subsystem, receiver side: a RevocationStore holds
// one NO-signed revocation list (CRL or URL) and advances it by applying
// versioned, hash-chained deltas. The store is a strict state machine:
//
//   * anti-rollback — neither a delta nor a full list with version <= the
//     installed version is ever applied;
//   * chain validation — a delta must name the installed (version, state
//     hash) as its base, and the reconstructed list must verify under the
//     NO's signature carried in the delta; any mismatch classifies as a gap
//     or chain break and the caller falls back to a full-list resync;
//   * atomicity — every check runs against scratch state; a rejected input
//     leaves the installed list byte-identical to before.
//
// Invariant (tested differentially): after any accepted sequence of deltas
// and resyncs, `list().to_bytes()` equals the NO's own full list at the
// same version, bit for bit.
#pragma once

#include "peace/messages.hpp"

namespace peace::revoke {

using proto::ListKind;
using proto::RLDelta;
using proto::SignedRevocationList;

/// SHA-256 over the list's canonical signed payload — the chain link
/// deltas name as `base_hash`.
Bytes list_state_hash(const SignedRevocationList& list);

/// Outcome of offering a delta to a store.
enum class DeltaResult {
  kApplied,       // chain advanced; list mutated
  kStale,         // version <= installed: ignored (anti-rollback / dup)
  kGap,           // base_version != installed version: request a resync
  kBadChain,      // base hash or reconstructed-list signature mismatch
  kBadSignature,  // delta not signed by the authority
  kWrongKind,     // CRL delta offered to a URL store or vice versa
};

/// True for the outcomes that leave the store behind the authority's state
/// and therefore warrant a full-list resync.
inline bool needs_resync(DeltaResult r) {
  return r == DeltaResult::kGap || r == DeltaResult::kBadChain;
}

class RevocationStore {
 public:
  /// `authority` is the key every list and delta must verify under (NPK).
  RevocationStore(ListKind kind, curve::G1 authority);

  const curve::G1& authority() const { return authority_; }
  const SignedRevocationList& list() const { return list_; }
  std::uint64_t version() const { return list_.version; }
  const Bytes& state_hash() const { return state_hash_; }

  /// Result of a full-list install (initial provisioning or resync).
  enum class InstallResult { kInstalled, kStale, kBadSignature };

  /// Installs a complete signed list. Equal-version reinstalls of the very
  /// same list are idempotent kInstalled; an older version is kStale and a
  /// bad signature kBadSignature — both leave the store unchanged.
  InstallResult install_full(const SignedRevocationList& full);

  /// Offers one delta; see DeltaResult. Only kApplied mutates the store.
  DeltaResult apply_delta(const RLDelta& delta);

 private:
  ListKind kind_;
  curve::G1 authority_;
  SignedRevocationList list_;  // starts empty at version 0
  Bytes state_hash_;
};

}  // namespace peace::revoke
