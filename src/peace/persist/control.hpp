// ControlPlane: the crash-recoverable operator site (docs/ARCHITECTURE.md §8).
//
// Wraps NetworkOperator + TrustedThirdParty + the GroupManagers behind one
// durable, hash-chained log: every mutation appends exactly one record (a
// compound operation — issue batch, rotation, revocation — is one record,
// so crashes land on operation boundaries, never inside one), fsyncs it,
// and only then returns to the caller. Kill the process at ANY record
// boundary and recover() restores state byte-identical to a run that never
// crashed — including the DRBG, so the continuation is byte-identical too,
// and the revocation delta chain continues unbroken (resyncing routers
// never see a rollback).
//
// Deployment note (knowledge split): NO, TTP and the GMs remain separate
// objects with the paper's split state — the privacy tests still hold
// against them — but this class models them sharing ONE operator site and
// therefore one log. Records necessarily contain fields from several
// parties (an issue batch holds x's AND blinded A's); a multi-site split of
// the log itself is out of scope here (PROTOCOL.md §12).
//
// The log doubles as the accountability archive: enrollment receipts and
// GRT entries evicted from memory (bounded caches) are re-read from their
// WAL records on demand via the audit index, so law-authority traces keep
// working over spilled history.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "peace/entities.hpp"
#include "peace/persist/records.hpp"
#include "peace/persist/store.hpp"

namespace peace::persist {

struct ControlPlaneOptions {
  StoreOptions store;
  /// Records between automatic snapshots (0 = snapshot only on demand).
  std::size_t snapshot_every = 256;
  /// Enrollment receipts each GM keeps resident; older ones spill to the
  /// log (read back via receipt_for). SIZE_MAX = unbounded.
  std::size_t gm_receipt_cache_cap = std::size_t(-1);
  /// Archived (pre-rotation) eras whose GRT stays resident; older eras
  /// spill and are audited by streaming their issue records from the log.
  std::size_t archived_era_cache_cap = std::size_t(-1);
};

class ControlPlane {
 public:
  static constexpr bool kWideCounts = true;

  /// Initializes a fresh operator site in an empty `dir`: creates the
  /// store, the NO (from `rng`), the TTP signing key, and writes the
  /// genesis snapshot.
  static ControlPlane create(const std::string& dir, crypto::Drbg rng,
                             ControlPlaneOptions opts = {});

  /// Restores a site from `dir`: newest intact snapshot + chain-verified
  /// WAL replay. Damaged tails are truncated (the corresponding operations
  /// never escaped the site, see the write-ahead discipline above).
  static ControlPlane recover(const std::string& dir,
                              ControlPlaneOptions opts = {});

  // --- mutations (one WAL record each, durable before returning) ---------
  proto::GroupId register_group(const std::string& name, std::size_t num_keys);
  void reissue_group(proto::GroupId gid, std::size_t num_keys);
  void rotate_master_key(proto::Timestamp now);
  /// False when the key/router was already revoked (no record written —
  /// the delta chain stays duplicate-free).
  bool revoke_user_key(const proto::KeyIndex& idx, proto::Timestamp now);
  bool revoke_router(proto::RouterId id, proto::Timestamp now);
  proto::NetworkOperator::RouterProvision provision_router(
      proto::RouterId id, proto::Timestamp expires_at);
  proto::GroupManager::Enrollment enroll(proto::GroupId gid,
                                         const std::string& uid);
  void record_receipt(const proto::GroupManager::Enrollment& enrollment,
                      const proto::G1& user_public_key,
                      const curve::EcdsaSignature& signature);

  /// Cuts a snapshot now (also rotates the WAL segment).
  void snapshot();

  // --- entity access ------------------------------------------------------
  proto::NetworkOperator& no() { return *no_; }
  const proto::NetworkOperator& no() const { return *no_; }
  proto::TrustedThirdParty& ttp() { return ttp_; }
  const proto::TrustedThirdParty& ttp() const { return ttp_; }
  proto::GroupManager& gm(proto::GroupId gid);
  const proto::GroupManager& gm(proto::GroupId gid) const;
  std::vector<const proto::GroupManager*> group_managers() const;

  // --- spill-aware reads --------------------------------------------------
  /// Like GroupManager::receipt_for, but falls back to the WAL record when
  /// the receipt was evicted from the GM's cache.
  std::optional<proto::GroupManager::EnrollmentReceipt> receipt_for(
      const proto::KeyIndex& idx) const;
  /// Like NetworkOperator::audit, but also scans spilled archived eras by
  /// streaming their issue records from the log.
  std::optional<proto::AuditResult> audit(const proto::AccessRequest& m2) const;
  /// Law-authority trace over the whole site, spilled history included.
  std::optional<proto::LawAuthority::TraceResult> trace(
      const proto::AccessRequest& m2) const;

  // --- introspection ------------------------------------------------------
  /// Canonical full-state image (equals the snapshot payload); equal bytes
  /// iff equal operator state — the differential crash tests rely on this.
  Bytes state_bytes() const;
  const RecoveryReport& recovery_report() const { return report_; }
  const DurableStore& store() const { return store_; }
  std::uint64_t last_seq() const { return store_.last_seq(); }
  std::size_t receipts_spilled() const { return receipts_spilled_; }
  std::size_t grt_entries_spilled() const { return grt_spilled_; }

 private:
  ControlPlane(DurableStore store, ControlPlaneOptions opts);

  void apply_record(const RecordRef& ref, const WalRecord& rec);
  void load_state(BytesView payload);
  RecordRef append(RecordType type, BytesView payload);
  /// Registers a just-written (or replayed) record in the audit index.
  void index_record(const RecordRef& ref);
  void enforce_caps();
  void maybe_snapshot();
  GroupIssueRecord build_issue_record(const proto::GroupManager& gm,
                                      const std::string& name) const;
  std::vector<proto::NetworkOperator::GrtEntry> spilled_era_entries(
      std::size_t era) const;

  DurableStore store_;
  ControlPlaneOptions opts_;
  RecoveryReport report_;

  // unique_ptr: NetworkOperator is built after the store during recovery
  // and has no default constructor.
  std::unique_ptr<proto::NetworkOperator> no_;
  proto::TrustedThirdParty ttp_;
  std::map<proto::GroupId, proto::GroupManager> gms_;

  // --- audit index (persisted in every snapshot) -------------------------
  /// era -> refs of the GroupIssueRecords minted during it; index
  /// past_eras_.size() is the current era.
  std::vector<std::vector<RecordRef>> era_issue_refs_;
  /// (group, member) -> ref of the kReceiptArchived record.
  std::map<std::pair<proto::GroupId, std::uint32_t>, RecordRef> receipt_refs_;

  friend struct peace::FieldAccess;
  static void fields(auto& io, auto& s) {
    io(Tag{"peace/control-state-v1"}, s.no_, s.ttp_, s.gms_,
       s.era_issue_refs_, s.receipt_refs_);
  }

  std::size_t records_since_snapshot_ = 0;
  std::size_t receipts_spilled_ = 0;
  std::size_t grt_spilled_ = 0;
};

}  // namespace peace::persist
