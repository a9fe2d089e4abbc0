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
// Every receipt and GRT entry stays resident, so audits and law-authority
// traces run against the entities directly: `no().audit(m2)` and
// `LawAuthority::trace(no(), {&gm(gid)}, m2)`. The log is the
// evidence archive on disk; rotated segments are never deleted.
#pragma once

#include <map>
#include <memory>

#include "peace/entities.hpp"
#include "peace/persist/records.hpp"
#include "peace/persist/store.hpp"

namespace peace::persist {

struct ControlPlaneOptions {
  StoreOptions store;
  /// Records between automatic snapshots (0 = snapshot only on demand).
  std::size_t snapshot_every = 256;
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

  // --- introspection ------------------------------------------------------
  /// Canonical full-state image (equals the snapshot payload); equal bytes
  /// iff equal operator state — the differential crash tests rely on this.
  Bytes state_bytes() const;
  const RecoveryReport& recovery_report() const { return report_; }
  std::uint64_t last_seq() const { return store_.last_seq(); }

 private:
  ControlPlane(DurableStore store, ControlPlaneOptions opts);

  void apply_record(const WalRecord& rec);
  void append(RecordType type, BytesView payload);
  void maybe_snapshot();
  GroupIssueRecord build_issue_record(const proto::GroupManager& gm,
                                      const std::string& name) const;

  DurableStore store_;
  ControlPlaneOptions opts_;
  RecoveryReport report_;

  // unique_ptr: NetworkOperator is built after the store during recovery
  // and has no default constructor.
  std::unique_ptr<proto::NetworkOperator> no_;
  proto::TrustedThirdParty ttp_;
  std::map<proto::GroupId, proto::GroupManager> gms_;

  friend struct peace::FieldAccess;
  static void fields(auto& io, auto& s) {
    io(Tag{"peace/control-state-v2"}, s.no_, s.ttp_, s.gms_);
  }

  std::size_t records_since_snapshot_ = 0;
};

}  // namespace peace::persist
