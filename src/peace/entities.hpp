// Back-office entities of PEACE (paper Sec. III.A / IV.A / IV.D):
//
//   NetworkOperator (NO)  — owns gamma, mints keys, provisions routers,
//                           maintains CRL/URL, audits sessions to *group*
//                           granularity only.
//   TrustedThirdParty     — stores the blinded credentials A xor x during
//                           setup; learns neither A nor x.
//   GroupManager (GM_i)   — assigns (grp_i, x_j) to its members; never
//                           holds A, so it cannot test signatures.
//   LawAuthority          — can deanonymize a session, but only with the
//                           cooperation of both NO and the right GM.
//
// The split state is the point: each class physically holds only the fields
// the paper allows it, so the privacy tests can check "who can know what"
// against real object state instead of against claims.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "peace/messages.hpp"

namespace peace::persist {
class ControlPlane;
}  // namespace peace::persist

namespace peace::proto {

using groupsig::GroupPublicKey;
using groupsig::MemberKey;
using groupsig::RevocationToken;

/// Public system parameters every participant holds.
struct SystemParams {
  GroupPublicKey gpk;
  G1 network_public_key;  // NPK, verifies certificates and CRL/URL
};

/// Stretches the member secret x to the credential length with a KDF; the
/// paper blinds with "A xor x" and a footnote about mismatched lengths —
/// here x (32 bytes) is shorter than a serialized A (33 bytes), so the
/// principled equivalent is XOR with KDF(x). TTP still learns nothing about
/// A or x; the user, knowing x, strips the pad.
Bytes blind_credential(const G1& a, const Fr& x);
G1 unblind_credential(BytesView blinded, const Fr& x);

class TrustedThirdParty {
 public:
  static constexpr bool kWideCounts = true;

  /// Setup step 7: NO deposits {[i,j], A xor x} (signature checked against
  /// NPK for non-repudiation); TTP signs a receipt.
  EcdsaSignature deposit(const KeyIndex& idx, Bytes blinded_credential,
                         const EcdsaSignature& no_signature, const G1& npk,
                         crypto::Drbg& rng);

  /// Setup user-join step 2: on GM_i's request, deliver the blinded
  /// credential for `idx` to user `uid` (recording the uid mapping).
  Bytes deliver(const KeyIndex& idx, const std::string& uid);

  /// Creates the receipt-signing key up front (normally lazy on the first
  /// deposit). The durable control plane calls this at create time so the
  /// key lands in the genesis snapshot and replay never draws randomness.
  void ensure_signing_key(crypto::Drbg& rng);

  /// Full-state image for operator snapshots (docs/ARCHITECTURE.md §8);
  /// its layout is the private `fields` list.
  Bytes state_bytes() const;
  static TrustedThirdParty from_state(BytesView data);

  // --- knowledge introspection (used by the privacy tests) ---
  std::size_t stored_credentials() const { return store_.size(); }
  /// TTP knows which uid received which blinded blob...
  std::optional<std::string> uid_for_index(const KeyIndex& idx) const;
  /// ...but structurally holds no A, x, grp, or gamma: its whole state is
  /// this blinded map.
  const std::map<std::pair<GroupId, std::uint32_t>, Bytes>& blinded_store()
      const {
    return store_;
  }

 private:
  friend class persist::ControlPlane;
  /// WAL replay: re-inserts a deposit whose verification already happened
  /// when the record was first written.
  void replay_deposit(const KeyIndex& idx, Bytes blinded);
  void replay_deliver(const KeyIndex& idx, const std::string& uid);

  friend struct peace::FieldAccess;
  static void fields(auto& io, auto& s) {
    io(Tag{"peace/ttp-state-v1"}, s.signing_key_, s.store_, s.delivered_to_);
  }

  std::optional<curve::EcdsaKeyPair> signing_key_;  // for receipts
  std::map<std::pair<GroupId, std::uint32_t>, Bytes> store_;
  std::map<std::pair<GroupId, std::uint32_t>, std::string> delivered_to_;
};

class GroupManager {
 public:
  static constexpr bool kWideCounts = true;

  GroupManager(GroupId id, std::string name) : id_(id), name_(std::move(name)) {}

  GroupId id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Setup step 5: receives {[i,j], grp_i, x_j} from NO.
  void receive_allocation(const Fr& grp,
                          std::vector<std::pair<KeyIndex, Fr>> keys);

  /// Membership renewal (paper III.A): discards unassigned keys from the
  /// previous era and installs a fresh allocation under the rotated master
  /// key. Historical uid mappings are retained for law-authority traces of
  /// archived sessions.
  void rekey(const Fr& grp, std::vector<std::pair<KeyIndex, Fr>> keys);

  /// What GM hands the user at enrollment (plus it triggers TTP delivery).
  struct Enrollment {
    KeyIndex index;
    Fr grp;
    Fr x;
    Bytes blinded_credential;  // fetched from TTP on the user's behalf

    static void fields(auto& io, auto& s) {
      io(s.index, s.grp, s.x, s.blinded_credential);
    }
  };

  /// Consumes one unassigned key for `uid`. Throws when exhausted.
  Enrollment enroll(const std::string& uid, TrustedThirdParty& ttp);

  /// Law-authority step: map a key index back to the member uid.
  std::optional<std::string> uid_for_index(const KeyIndex& idx) const;

  /// Non-repudiation (paper IV.A): the enrolling user signs what they
  /// received from GM and TTP; the GM verifies and archives the receipt so
  /// a later trace cannot be repudiated ("uid_j also signed on the
  /// messages ... as the proof of receipt").
  static Bytes enrollment_receipt_payload(const Enrollment& enrollment);
  void record_receipt(const Enrollment& enrollment, const G1& user_public_key,
                      const EcdsaSignature& signature);

  struct EnrollmentReceipt {
    G1 user_public_key;
    EcdsaSignature signature;

    static void fields(auto& io, auto& s) {
      io(prefixed(s.user_public_key), prefixed(s.signature));
    }
  };
  std::optional<EnrollmentReceipt> receipt_for(const KeyIndex& idx) const;

  std::size_t keys_remaining() const;

  // GM's structural knowledge: (uid, grp, x) — there is no A anywhere in
  // this class.
  const Fr& group_secret() const { return grp_; }

  /// Full-state image for operator snapshots (docs/ARCHITECTURE.md §8);
  /// its layout is the private `fields` list.
  Bytes state_bytes() const;
  static GroupManager from_state(BytesView data);

 private:
  friend class persist::ControlPlane;
  /// WAL replay: re-assigns `idx` to `uid` without re-drawing anything.
  void replay_enroll(const KeyIndex& idx, const std::string& uid);
  /// Inserts a receipt that was signature-checked when first recorded.
  void store_receipt(const KeyIndex& idx, EnrollmentReceipt receipt);

  friend struct peace::FieldAccess;
  static void fields(auto& io, auto& s) {
    io(Tag{"peace/gm-state-v2"}, s.id_, s.name_, s.grp_, s.unassigned_,
       s.assigned_, s.assigned_x_, s.receipts_);
  }

  GroupId id_;
  std::string name_;
  Fr grp_;
  std::vector<std::pair<KeyIndex, Fr>> unassigned_;
  std::map<std::pair<GroupId, std::uint32_t>, std::string> assigned_;
  std::map<std::pair<GroupId, std::uint32_t>, Fr> assigned_x_;
  std::map<std::pair<GroupId, std::uint32_t>, EnrollmentReceipt> receipts_;
};

/// What NO's audit of a session yields (paper IV.D): the credential and the
/// user *group* — nonessential attribute information only; never a uid.
struct AuditResult {
  RevocationToken token;
  GroupId group_id = 0;
  KeyIndex index;
  std::size_t tokens_scanned = 0;  // instrumentation for E7
};

class NetworkOperator {
 public:
  static constexpr bool kWideCounts = true;

  explicit NetworkOperator(crypto::Drbg rng);

  SystemParams params() const;
  const G1& npk() const { return nsk_.public_key(); }
  const GroupPublicKey& gpk() const { return issuer_.gpk(); }

  /// Setup steps 2-7 for one user group: draws grp_i, issues `num_keys`
  /// SDH tuples, hands (grp, x) to the GM and blinded A's to the TTP, and
  /// records grt entries. Returns the freshly allocated GroupManager.
  GroupManager register_group(const std::string& name, std::size_t num_keys,
                              TrustedThirdParty& ttp);

  /// Periodic membership renewal / "group public key update" (paper III.A,
  /// V.A): rotates the master secret gamma. Every outstanding credential
  /// dies with the old gpk (revoked users "do not have any group private
  /// key currently in use"); the URL resets to empty for the new era. The
  /// old era's (gpk, grt) pair is archived so past sessions stay auditable.
  void rotate_master_key(Timestamp now);

  /// Re-provisions an existing group with `num_keys` fresh credentials
  /// under the current master key (member numbering continues, so key
  /// indices remain unique across eras).
  void reissue_group(GroupManager& gm, std::size_t num_keys,
                     TrustedThirdParty& ttp);

  /// How many key eras exist (1 + number of rotations).
  std::size_t era_count() const { return 1 + past_eras_.size(); }

  struct RouterProvision {
    curve::EcdsaKeyPair keypair;
    RouterCertificate certificate;
  };
  RouterProvision provision_router(RouterId id, Timestamp expires_at);

  /// Dynamic revocation (paper III.A): publishes the member's token on the
  /// URL / the router id on the CRL; lists are versioned and signed, and
  /// every mutation also emits a hash-chained RLDelta (below) so routers
  /// can advance in O(|change|) instead of refetching full lists.
  /// Re-revoking an already-listed key or router is a no-op (the delta
  /// chain stays duplicate-free by construction).
  void revoke_user_key(const KeyIndex& idx, Timestamp now);
  void revoke_router(RouterId id, Timestamp now);

  SignedRevocationList current_url() const { return url_; }
  SignedRevocationList current_crl() const { return crl_; }

  // --- delta revocation distribution (the metro-scale path) --------------

  /// Every delta of `kind` with version > after_version, oldest first —
  /// what a straggler needs to catch up without a full resync.
  std::vector<RLDelta> deltas_since(ListKind kind,
                                    std::uint64_t after_version) const;

  /// One announcement carrying the back-log past the given versions (CRL
  /// deltas first, then URL; each oldest-first, the order receivers apply).
  RLDeltaAnnounce make_delta_announcement(std::uint64_t crl_after,
                                          std::uint64_t url_after) const;

  /// Resync service: answers a router whose delta chain broke with the
  /// authoritative full list for the requested kind.
  RLResyncResponse handle_resync(const RLResyncRequest& request) const;

  /// URL size control (Sec. V.C: "PEACE can proactively control the size
  /// of URL"): every verification pays 2 pairings per URL token, so once
  /// the list passes `threshold` the economical move is a master-key
  /// rotation (which starts the new era with an empty URL). Returns true
  /// when that point is reached; rotate_master_key() is the action.
  bool url_needs_compaction(std::size_t threshold) const {
    return url_entries_.size() >= threshold;
  }

  /// Paper IV.D audit protocol: scan grt for the token encoded in the
  /// logged (M.2). Returns the responsible *group*, never a uid.
  std::optional<AuditResult> audit(const AccessRequest& m2) const;

  /// NO-side half of the law-authority trace: token -> [i, j].
  std::optional<KeyIndex> index_of_token(const G1& a) const;

  std::size_t grt_size() const { return grt_.size(); }

  struct GrtEntry {
    RevocationToken token;
    GroupId group_id;
    KeyIndex index;

    static void fields(auto& io, auto& s) { io(s.token, s.group_id, s.index); }
  };
  const std::vector<GrtEntry>& grt_entries() const { return grt_; }

  /// Full-state image for operator snapshots (docs/ARCHITECTURE.md §8);
  /// its layout is the private `fields` list.
  Bytes state_bytes() const;
  static NetworkOperator from_state(BytesView data);

 private:
  friend class persist::ControlPlane;
  NetworkOperator(crypto::Drbg rng, groupsig::Issuer issuer,
                  curve::EcdsaKeyPair nsk)
      : rng_(std::move(rng)), issuer_(std::move(issuer)), nsk_(std::move(nsk)) {}

  // --- WAL replay (results were logged; nothing is re-drawn) -------------
  /// Registration and reissue both reduce to: install the group secret,
  /// advance member numbering, and append the recorded GRT entries.
  void replay_issue(GroupId gid, const Fr& grp, std::uint32_t next_member_after,
                    std::vector<GrtEntry> entries);
  /// Archives the current era under the recorded successor gamma; the
  /// recorded remove-all URL delta then lands via replay_revocation.
  void replay_rotation(const Fr& new_gamma);
  /// Re-applies a recorded revocation delta (URL or CRL) bit-identically:
  /// the reconstructed list reuses the delta's full_signature.
  void replay_revocation(const RLDelta& delta);
  void restore_rng(BytesView state);

  SignedRevocationList sign_list(std::vector<Bytes> entries,
                                 std::uint64_t version, Timestamp now) const;
  /// Chains one delta from `prev` to the just-installed successor of
  /// `kind`: base_hash binds the predecessor payload, full_signature reuses
  /// the successor list's own NO signature (so a delta-applied
  /// reconstruction is bit-identical to the full list, signature included).
  void emit_delta(ListKind kind, const SignedRevocationList& prev,
                  const SignedRevocationList& next, std::vector<Bytes> removed,
                  std::vector<Bytes> added);

  mutable crypto::Drbg rng_;
  groupsig::Issuer issuer_;
  curve::EcdsaKeyPair nsk_;

  /// Issues `num_keys` credentials for `gid` under the current master key,
  /// distributing shares to the GM batch and the TTP.
  std::vector<std::pair<KeyIndex, Fr>> issue_batch(GroupId gid, const Fr& grp,
                                                   std::size_t num_keys,
                                                   TrustedThirdParty& ttp);

  std::vector<GrtEntry> grt_;
  struct Era {
    GroupPublicKey gpk;
    std::vector<GrtEntry> grt;

    static void fields(auto& io, auto& s) { io(s.gpk, s.grt); }
  };
  std::vector<Era> past_eras_;
  std::map<GroupId, Fr> group_secrets_;
  std::map<GroupId, std::uint32_t> next_member_;
  GroupId next_group_id_ = 1;

  std::vector<Bytes> url_entries_;
  std::vector<Bytes> crl_entries_;
  SignedRevocationList url_;
  SignedRevocationList crl_;
  std::vector<RLDelta> url_deltas_;  // complete chains, oldest first
  std::vector<RLDelta> crl_deltas_;

  // url_entries_/crl_entries_ are not in the image: they equal the entries
  // of the signed lists and from_state restores them from there.
  friend struct peace::FieldAccess;
  static void fields(auto& io, auto& s) {
    io(Tag{"peace/no-state-v2"}, s.rng_, s.issuer_, s.nsk_, s.grt_,
       s.past_eras_, s.group_secrets_, s.next_member_, s.next_group_id_,
       s.url_, s.crl_, s.url_deltas_, s.crl_deltas_);
  }
};

/// The trace of paper IV.D ("revocable user anonymity against law
/// authority"): needs *both* NO (token -> index) and the right GM
/// (index -> uid). Neither alone suffices — the tests check this.
class LawAuthority {
 public:
  struct TraceResult {
    std::string uid;
    GroupId group_id;
    KeyIndex index;
    /// Non-repudiation evidence: the GM holds the user's signed receipt
    /// for this credential (verified at archive time), so the traced user
    /// cannot deny having received gsk[i, j].
    bool receipt_on_file = false;
  };

  static std::optional<TraceResult> trace(
      const NetworkOperator& no,
      const std::vector<const GroupManager*>& group_managers,
      const AccessRequest& m2);
};

}  // namespace peace::proto
