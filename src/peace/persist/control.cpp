#include "peace/persist/control.hpp"

#include <algorithm>

#include "common/serde.hpp"
#include "obs/trace.hpp"

namespace peace {

// Leaves of the control-plane image. The operator and the group managers
// nest as their own state images; a GM's map key is its id, which its image
// already carries.
void put(Writer& w, const std::unique_ptr<proto::NetworkOperator>& no) {
  w(*no);
}
void get(Reader& r, std::unique_ptr<proto::NetworkOperator>& no) {
  no = std::make_unique<proto::NetworkOperator>(
      proto::NetworkOperator::from_state(r.bytes()));
}
void put(Writer& w, const std::map<proto::GroupId, proto::GroupManager>& gms) {
  w.count(gms.size());
  for (const auto& [gid, gm] : gms) w(gm);
}
void get(Reader& r, std::map<proto::GroupId, proto::GroupManager>& gms) {
  gms.clear();
  for (std::size_t i = 0, n = r.count(); i < n; ++i) {
    proto::GroupManager gm = proto::GroupManager::from_state(r.bytes());
    const proto::GroupId gid = gm.id();
    gms.emplace(gid, std::move(gm));
  }
}

}  // namespace peace

namespace peace::persist {

using proto::GroupManager;
using proto::NetworkOperator;
using proto::TrustedThirdParty;

ControlPlane::ControlPlane(DurableStore store, ControlPlaneOptions opts)
    : store_(std::move(store)), opts_(opts) {}

ControlPlane ControlPlane::create(const std::string& dir, crypto::Drbg rng,
                                  ControlPlaneOptions opts) {
  ControlPlane cp(DurableStore::create(dir, opts.store), opts);
  cp.no_ = std::make_unique<NetworkOperator>(std::move(rng));
  // Eager TTP key: lazily creating it during the first deposit would draw
  // randomness replay cannot reproduce. Here it lands in the genesis
  // snapshot instead.
  cp.ttp_.ensure_signing_key(cp.no_->rng_);
  cp.snapshot();
  return cp;
}

ControlPlane ControlPlane::recover(const std::string& dir,
                                   ControlPlaneOptions opts) {
  obs::Span span("control.recover", "persist");
  StoreRecovery rec = DurableStore::open(dir, opts.store);
  ControlPlane cp(std::move(rec.store), opts);
  cp.report_ = std::move(rec.report);
  if (rec.snapshot.empty())
    throw Error("persist: control plane requires a genesis snapshot");
  decode_into(rec.snapshot, cp);
  for (const WalRecord& r : rec.tail) cp.apply_record(r);
  cp.records_since_snapshot_ = rec.tail.size();
  span.arg("tail_records", rec.tail.size());
  count(Counter::kControlRecoveries);
  return cp;
}

// --- state image -------------------------------------------------------------

Bytes ControlPlane::state_bytes() const { return encode(*this); }

// --- write path --------------------------------------------------------------

void ControlPlane::append(RecordType type, BytesView payload) {
  store_.append(static_cast<std::uint8_t>(type), payload);
  ++records_since_snapshot_;
}

void ControlPlane::maybe_snapshot() {
  if (opts_.snapshot_every != 0 &&
      records_since_snapshot_ >= opts_.snapshot_every)
    snapshot();
}

void ControlPlane::snapshot() {
  store_.write_snapshot(state_bytes());
  records_since_snapshot_ = 0;
}

// Builds the issue record for the batch the GM currently holds unassigned
// (exactly the freshly minted one: register starts empty, reissue cleared
// the previous era's leftovers).
GroupIssueRecord ControlPlane::build_issue_record(
    const GroupManager& gm, const std::string& name) const {
  GroupIssueRecord rec;
  rec.gid = gm.id();
  rec.name = name;
  rec.grp = gm.group_secret();
  rec.next_member_after = no_->next_member_.at(gm.id());
  for (const auto& [idx, x] : gm.unassigned_) {
    IssuedKey k;
    k.index = idx;
    k.x = x;
    k.blinded = ttp_.blinded_store().at({idx.group, idx.member});
    const auto& grt = no_->grt_entries();
    const auto it = std::find_if(
        grt.rbegin(), grt.rend(),
        [idx = idx](const NetworkOperator::GrtEntry& e) {
          return e.index == idx;
        });
    if (it == grt.rend())
      throw Error("persist: minted key missing from grt");
    k.token = it->token.to_bytes();
    rec.keys.push_back(std::move(k));
  }
  rec.rng_state = no_->rng_.export_state();
  return rec;
}

proto::GroupId ControlPlane::register_group(const std::string& name,
                                            std::size_t num_keys) {
  obs::Span span("control.register_group", "persist");
  GroupManager gm = no_->register_group(name, num_keys, ttp_);
  const proto::GroupId gid = gm.id();
  const GroupIssueRecord rec = build_issue_record(gm, name);
  gms_.emplace(gid, std::move(gm));
  append(RecordType::kGroupRegistered, rec.to_bytes());
  maybe_snapshot();
  span.arg("gid", gid);
  span.arg("keys", num_keys);
  return gid;
}

void ControlPlane::reissue_group(proto::GroupId gid, std::size_t num_keys) {
  obs::Span span("control.reissue_group", "persist");
  GroupManager& gm = this->gm(gid);
  no_->reissue_group(gm, num_keys, ttp_);
  const GroupIssueRecord rec = build_issue_record(gm, "");
  append(RecordType::kGroupReissued, rec.to_bytes());
  maybe_snapshot();
  span.arg("gid", gid);
  span.arg("keys", num_keys);
}

void ControlPlane::rotate_master_key(proto::Timestamp now) {
  obs::Span span("control.rotate_master_key", "persist");
  no_->rotate_master_key(now);
  MasterRotatedRecord rec;
  rec.new_gamma = no_->issuer_.gamma();
  rec.url_delta = no_->url_deltas_.back().to_bytes();
  rec.rng_state = no_->rng_.export_state();
  append(RecordType::kMasterRotated, rec.to_bytes());
  maybe_snapshot();
}

bool ControlPlane::revoke_user_key(const proto::KeyIndex& idx,
                                   proto::Timestamp now) {
  const std::uint64_t before = no_->current_url().version;
  no_->revoke_user_key(idx, now);
  if (no_->current_url().version == before) return false;  // already revoked
  RevocationRecord rec;
  rec.delta = no_->url_deltas_.back().to_bytes();
  rec.rng_state = no_->rng_.export_state();
  append(RecordType::kUserRevoked, rec.to_bytes());
  maybe_snapshot();
  return true;
}

bool ControlPlane::revoke_router(proto::RouterId id, proto::Timestamp now) {
  const std::uint64_t before = no_->current_crl().version;
  no_->revoke_router(id, now);
  if (no_->current_crl().version == before) return false;
  RevocationRecord rec;
  rec.delta = no_->crl_deltas_.back().to_bytes();
  rec.rng_state = no_->rng_.export_state();
  append(RecordType::kRouterRevoked, rec.to_bytes());
  maybe_snapshot();
  return true;
}

NetworkOperator::RouterProvision ControlPlane::provision_router(
    proto::RouterId id, proto::Timestamp expires_at) {
  NetworkOperator::RouterProvision p = no_->provision_router(id, expires_at);
  RouterProvisionedRecord rec;
  rec.certificate = p.certificate.to_bytes();
  rec.rng_state = no_->rng_.export_state();
  append(RecordType::kRouterProvisioned, rec.to_bytes());
  maybe_snapshot();
  return p;
}

GroupManager::Enrollment ControlPlane::enroll(proto::GroupId gid,
                                              const std::string& uid) {
  GroupManager::Enrollment e = gm(gid).enroll(uid, ttp_);
  EnrolledRecord rec;
  rec.index = e.index;
  rec.uid = uid;
  append(RecordType::kEnrolled, rec.to_bytes());
  maybe_snapshot();
  return e;
}

void ControlPlane::record_receipt(const GroupManager::Enrollment& enrollment,
                                  const proto::G1& user_public_key,
                                  const curve::EcdsaSignature& signature) {
  gm(enrollment.index.group)
      .record_receipt(enrollment, user_public_key, signature);
  ReceiptArchivedRecord rec;
  rec.index = enrollment.index;
  rec.user_public_key = curve::g1_to_bytes(user_public_key);
  rec.signature = signature.to_bytes();
  append(RecordType::kReceiptArchived, rec.to_bytes());
  maybe_snapshot();
}

// --- replay ------------------------------------------------------------------

void ControlPlane::apply_record(const WalRecord& rec) {
  switch (static_cast<RecordType>(rec.type)) {
    case RecordType::kGroupRegistered:
    case RecordType::kGroupReissued: {
      const GroupIssueRecord r = GroupIssueRecord::from_bytes(rec.payload);
      std::vector<NetworkOperator::GrtEntry> entries;
      std::vector<std::pair<proto::KeyIndex, Fr>> keys;
      for (const IssuedKey& k : r.keys) {
        entries.push_back({groupsig::RevocationToken::from_bytes(k.token),
                           r.gid, k.index});
        keys.emplace_back(k.index, k.x);
        ttp_.replay_deposit(k.index, k.blinded);
      }
      no_->replay_issue(r.gid, r.grp, r.next_member_after, std::move(entries));
      no_->restore_rng(r.rng_state);
      if (static_cast<RecordType>(rec.type) == RecordType::kGroupRegistered) {
        GroupManager gm(r.gid, r.name);
        gm.receive_allocation(r.grp, std::move(keys));
        gms_.emplace(r.gid, std::move(gm));
      } else {
        gm(r.gid).rekey(r.grp, std::move(keys));
      }
      break;
    }
    case RecordType::kMasterRotated: {
      const MasterRotatedRecord r = MasterRotatedRecord::from_bytes(rec.payload);
      no_->replay_rotation(r.new_gamma);
      no_->replay_revocation(proto::RLDelta::from_bytes(r.url_delta));
      no_->restore_rng(r.rng_state);
      break;
    }
    case RecordType::kUserRevoked:
    case RecordType::kRouterRevoked: {
      const RevocationRecord r = RevocationRecord::from_bytes(rec.payload);
      no_->replay_revocation(proto::RLDelta::from_bytes(r.delta));
      no_->restore_rng(r.rng_state);
      break;
    }
    case RecordType::kRouterProvisioned: {
      const RouterProvisionedRecord r =
          RouterProvisionedRecord::from_bytes(rec.payload);
      no_->restore_rng(r.rng_state);
      break;
    }
    case RecordType::kEnrolled: {
      const EnrolledRecord r = EnrolledRecord::from_bytes(rec.payload);
      gm(r.index.group).replay_enroll(r.index, r.uid);
      ttp_.replay_deliver(r.index, r.uid);
      break;
    }
    case RecordType::kReceiptArchived: {
      const ReceiptArchivedRecord r =
          ReceiptArchivedRecord::from_bytes(rec.payload);
      GroupManager::EnrollmentReceipt receipt;
      receipt.user_public_key = curve::g1_from_bytes(r.user_public_key);
      receipt.signature = curve::EcdsaSignature::from_bytes(r.signature);
      gm(r.index.group).store_receipt(r.index, std::move(receipt));
      break;
    }
    default:
      throw Error("persist: unknown record type in wal");
  }
}

// --- entity access -----------------------------------------------------------

GroupManager& ControlPlane::gm(proto::GroupId gid) {
  const auto it = gms_.find(gid);
  if (it == gms_.end()) throw Error("persist: unknown group manager");
  return it->second;
}

const GroupManager& ControlPlane::gm(proto::GroupId gid) const {
  const auto it = gms_.find(gid);
  if (it == gms_.end()) throw Error("persist: unknown group manager");
  return it->second;
}

std::vector<const GroupManager*> ControlPlane::group_managers() const {
  std::vector<const GroupManager*> out;
  out.reserve(gms_.size());
  for (const auto& [gid, gm] : gms_) out.push_back(&gm);
  return out;
}

}  // namespace peace::persist
