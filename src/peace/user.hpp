// Network-user protocol endpoint: beacon validation, the anonymous access
// handshake (M.2/M.3), and the user-user mutual authentication protocol
// (M~.1 - M~.3). A user may hold credentials from several user groups
// (paper Sec. III.C) and chooses which role to present per session. Each
// M~.1 and M~.2 is checked on its own as it arrives: verify_proof, then the
// URL scan.
#pragma once

#include <optional>

#include "obs/fields.hpp"
#include "peace/bounded_map.hpp"
#include "peace/entities.hpp"
#include "peace/session.hpp"

namespace peace::proto {

struct UserStats {
  std::uint64_t beacons_seen = 0;
  std::uint64_t beacons_rejected = 0;  // bad cert / signature / revoked router
  std::uint64_t sessions_established = 0;
  std::uint64_t peer_sessions_established = 0;
  std::uint64_t puzzle_hashes = 0;  // brute-force work spent on DoS puzzles
  // Reliability layer (PROTOCOL.md §10):
  std::uint64_t pending_expired = 0;   // handshake state reaped by TTL
  std::uint64_t pending_evicted = 0;   // handshake state evicted by the cap
  std::uint64_t duplicate_hellos = 0;  // M~.1 answered from the reply cache
  std::uint64_t duplicate_replies = 0; // M~.2 answered from the confirm cache
};

/// The registry counter each field is exported as (obs/fields.hpp).
constexpr auto field_table(const UserStats*) {
  return std::to_array<obs::Field<UserStats>>({
      {&UserStats::beacons_seen, "user.beacons_seen"},
      {&UserStats::beacons_rejected, "user.beacons_rejected"},
      {&UserStats::sessions_established, "user.sessions_established"},
      {&UserStats::peer_sessions_established, "user.peer_sessions_established"},
      {&UserStats::puzzle_hashes, "user.puzzle_hashes"},
      {&UserStats::pending_expired, "user.pending_expired"},
      {&UserStats::pending_evicted, "user.pending_evicted"},
      {&UserStats::duplicate_hellos, "user.duplicate_hellos"},
      {&UserStats::duplicate_replies, "user.duplicate_replies"},
  });
}

class User {
 public:
  User(std::string uid, SystemParams params, crypto::Drbg rng,
       ProtocolConfig config = {});

  const std::string& uid() const { return uid_; }
  const UserStats& stats() const { return stats_; }
  /// Aggregate groupsig operation counters of the peer signatures (M~.1,
  /// M~.2) this user verified.
  const groupsig::OpCounters& verify_ops() const { return verify_ops_; }

  /// Final step of setup: unblind the TTP blob with x, assemble
  /// gsk[i,j] = (A, grp, x), and verify it against gpk before accepting.
  /// Returns the non-repudiation receipt (paper IV.A) — the user's ECDSA
  /// signature over everything received — for the GM to archive via
  /// GroupManager::record_receipt.
  curve::EcdsaSignature complete_enrollment(
      const GroupManager::Enrollment& enrollment);

  /// The long-term key the user signs setup receipts with.
  const G1& receipt_public_key() const {
    return receipt_key_.public_key();
  }

  /// A master-key rotation (membership renewal) invalidates every held
  /// credential: install the new parameters and re-enroll.
  void install_params(const SystemParams& params) {
    params_ = params;
    pgpk_ = groupsig::PreparedGroupPublicKey(params_.gpk);
    credentials_.clear();
    url_tokens_.clear();
    url_ = {};
    crl_ = {};
    verified_cert_.reset();
    verified_crl_.reset();
    verified_url_.reset();
    pending_access_.clear();
    pending_peer_init_.clear();
    pending_peer_resp_.clear();
    hello_replies_.clear();
    peer_confirms_.clear();
  }

  /// Which groups this user can sign for.
  std::vector<GroupId> enrolled_groups() const;
  const MemberKey& credential(GroupId group) const;

  /// Paper step 2: validate the beacon (timestamp, certificate chain, CRL,
  /// router signature) and, if it is trustworthy, produce M.2. `via_group`
  /// picks which of the user's roles signs; 0 means the first enrolled.
  /// Returns nullopt when the beacon must be rejected.
  std::optional<AccessRequest> process_beacon(const BeaconMessage& beacon,
                                              Timestamp now,
                                              GroupId via_group = 0);

  /// Completes the handshake with the router's M.3; verifies the key
  /// confirmation before trusting the session.
  std::optional<Session> process_access_confirm(const AccessConfirm& m3);

  // --- user-user authentication (paper IV.C) ---

  /// M~.1: local broadcast; `g` comes from the serving router's beacon.
  PeerHello make_peer_hello(const G1& g, Timestamp now, GroupId via_group = 0);

  /// Responder side: validate M~.1 (freshness, the resend cache, the group
  /// signature, the URL scan) and answer with M~.2 (key not yet confirmed;
  /// completed by process_peer_confirm).
  std::optional<PeerReply> process_peer_hello(const PeerHello& hello,
                                              Timestamp now,
                                              GroupId via_group = 0);

  /// Initiator side: validate M~.2, derive the key, emit M~.3.
  struct PeerEstablished {
    PeerConfirm confirm;
    Session session;
  };
  std::optional<PeerEstablished> process_peer_reply(const PeerReply& reply,
                                                    Timestamp now);

  /// Responder side: verify M~.3 and finalize the session. A duplicate
  /// delivery of an already-consumed confirm returns nullopt without
  /// touching any state — a no-op, not a protocol error.
  std::optional<Session> process_peer_confirm(const PeerConfirm& confirm);

  /// Idempotent-resend path: when a duplicate M~.2 arrives after the
  /// initiator already established the session (its M~.3 was lost on the
  /// air), returns the byte-identical cached M~.3 so the responder can
  /// still converge. Mints nothing and draws no randomness. nullopt when
  /// the reply matches no cached confirmation.
  std::optional<PeerConfirm> cached_peer_confirm(const PeerReply& reply);

  // --- reliability state hygiene (PROTOCOL.md §10) ---

  /// Reaps pending-handshake entries and resend-cache entries older than
  /// config.pending_ttl_ms. Called internally before every insert; exposed
  /// so hosts can also reap on a timer. Returns how many entries died.
  std::size_t reap_pending(Timestamp now);

  /// Current pending-state sizes, for cap monitoring in tests/simulations.
  std::size_t pending_access_size() const { return pending_access_.size(); }
  std::size_t pending_peer_size() const {
    return pending_peer_init_.size() + pending_peer_resp_.size();
  }
  std::size_t resend_cache_size() const {
    return hello_replies_.size() + peer_confirms_.size();
  }

  /// Latest revocation lists the user has accepted from beacons.
  const SignedRevocationList& current_url() const { return url_; }

 private:
  bool beacon_trustworthy(const BeaconMessage& beacon, Timestamp now);
  /// The last (payload, signature) of one NO-signed kind that passed
  /// ecdsa_verify under params_.network_public_key.
  struct NoSigned {
    Bytes payload;
    curve::EcdsaSignature signature;
  };
  /// ecdsa_verify under the network key, skipped when `payload` and
  /// `signature` are byte-identical to `verified` (the verdict is a function
  /// of key, bytes and signature). Only a passing check updates `verified`.
  bool signed_by_no(std::optional<NoSigned>& verified, Bytes payload,
                    const curve::EcdsaSignature& signature);
  /// Steps 3.2 + 3.3 for a peer's group signature (M~.1 or M~.2): the
  /// proof, then the URL scan over the bases the proof check derived.
  bool peer_verified(BytesView payload, const groupsig::Signature& sig);
  const MemberKey& pick_credential(GroupId via_group) const;

  std::string uid_;
  SystemParams params_;
  groupsig::PreparedGroupPublicKey pgpk_;  // fixed G2 args prepared once
  crypto::Drbg rng_;
  ProtocolConfig config_;
  curve::EcdsaKeyPair receipt_key_;
  std::map<GroupId, MemberKey> credentials_;

  SignedRevocationList crl_;
  SignedRevocationList url_;
  std::vector<RevocationToken> url_tokens_;
  /// One slot per NO-signed kind a beacon carries; install_params clears
  /// them, so a rotated network key re-verifies everything.
  std::optional<NoSigned> verified_cert_, verified_crl_, verified_url_;

  // Every map below is TTL'd (reap_pending runs before each insert) and
  // capped at config.pending_cap with oldest-first eviction, so no
  // handshake flood can grow one past the cap.
  struct PendingAccess {
    G1 shared;
    RouterId router_id;
  };
  BoundedMap<std::string, PendingAccess> pending_access_;

  struct PendingPeerInitiator {
    Fr r_j;
    Timestamp ts1;
  };
  BoundedMap<std::string, PendingPeerInitiator> pending_peer_init_;

  struct PendingPeerResponder {
    G1 shared;
    Timestamp ts1, ts2;
  };
  BoundedMap<std::string, PendingPeerResponder> pending_peer_resp_;

  /// Resend caches, keyed by the wire_key of the triggering frame: the M~.2
  /// a responder produced per hello and the M~.3 an initiator produced per
  /// reply.
  BoundedMap<std::string, PeerReply> hello_replies_;
  BoundedMap<std::string, PeerConfirm> peer_confirms_;

  UserStats stats_;
  groupsig::OpCounters verify_ops_;
};

}  // namespace peace::proto
