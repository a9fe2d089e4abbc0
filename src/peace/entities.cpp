#include "peace/entities.hpp"

#include <algorithm>

#include "common/serde.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "obs/trace.hpp"

namespace peace::proto {

using curve::ecdsa_verify;
using curve::EcdsaKeyPair;
using curve::g1_from_bytes;
using curve::g1_to_bytes;

Bytes blind_credential(const G1& a, const Fr& x) {
  const Bytes a_bytes = g1_to_bytes(a);
  const Bytes pad = crypto::hkdf({}, curve::fr_to_bytes(x),
                                 as_bytes("peace/blind"), a_bytes.size());
  return xor_bytes(a_bytes, pad);
}

G1 unblind_credential(BytesView blinded, const Fr& x) {
  const Bytes pad = crypto::hkdf({}, curve::fr_to_bytes(x),
                                 as_bytes("peace/blind"), blinded.size());
  return g1_from_bytes(xor_bytes(blinded, pad));
}

namespace {

/// What NO signs when it deposits a blinded credential with the TTP, and
/// what the TTP countersigns as its receipt.
Bytes deposit_payload(const KeyIndex& idx, const Bytes& blinded) {
  Writer w;
  w.str("peace/ttp-deposit");
  w(idx, blinded);
  return w.take();
}

}  // namespace

// --- TrustedThirdParty -------------------------------------------------------

void TrustedThirdParty::ensure_signing_key(crypto::Drbg& rng) {
  if (!signing_key_) signing_key_ = EcdsaKeyPair::generate(rng);
}

EcdsaSignature TrustedThirdParty::deposit(const KeyIndex& idx,
                                          Bytes blinded_credential,
                                          const EcdsaSignature& no_signature,
                                          const G1& npk, crypto::Drbg& rng) {
  ensure_signing_key(rng);
  const Bytes payload = deposit_payload(idx, blinded_credential);
  if (!ecdsa_verify(npk, payload, no_signature))
    throw Error("ttp: deposit not signed by NO");
  store_[{idx.group, idx.member}] = std::move(blinded_credential);
  // Receipt for non-repudiation (paper: "TTP also signs on these messages").
  return signing_key_->sign(payload, rng);
}

Bytes TrustedThirdParty::deliver(const KeyIndex& idx, const std::string& uid) {
  const auto it = store_.find({idx.group, idx.member});
  if (it == store_.end()) throw Error("ttp: unknown key index");
  delivered_to_[{idx.group, idx.member}] = uid;
  return it->second;
}

std::optional<std::string> TrustedThirdParty::uid_for_index(
    const KeyIndex& idx) const {
  const auto it = delivered_to_.find({idx.group, idx.member});
  if (it == delivered_to_.end()) return std::nullopt;
  return it->second;
}

void TrustedThirdParty::replay_deposit(const KeyIndex& idx, Bytes blinded) {
  store_[{idx.group, idx.member}] = std::move(blinded);
}

void TrustedThirdParty::replay_deliver(const KeyIndex& idx,
                                       const std::string& uid) {
  delivered_to_[{idx.group, idx.member}] = uid;
}

Bytes TrustedThirdParty::state_bytes() const { return encode(*this); }

TrustedThirdParty TrustedThirdParty::from_state(BytesView data) {
  return decode<TrustedThirdParty>(data);
}

// --- GroupManager ------------------------------------------------------------

void GroupManager::receive_allocation(
    const Fr& grp, std::vector<std::pair<KeyIndex, Fr>> keys) {
  grp_ = grp;
  for (auto& k : keys) unassigned_.push_back(std::move(k));
}

void GroupManager::rekey(const Fr& grp,
                         std::vector<std::pair<KeyIndex, Fr>> keys) {
  unassigned_.clear();
  receive_allocation(grp, std::move(keys));
}

GroupManager::Enrollment GroupManager::enroll(const std::string& uid,
                                              TrustedThirdParty& ttp) {
  if (unassigned_.empty()) throw Error("gm: no keys left to assign");
  const auto [idx, x] = unassigned_.back();
  unassigned_.pop_back();
  assigned_[{idx.group, idx.member}] = uid;
  assigned_x_[{idx.group, idx.member}] = x;
  // Paper user-join step 2: GM asks TTP to send the user the blinded
  // credential for this index.
  Bytes blinded = ttp.deliver(idx, uid);
  return {idx, grp_, x, std::move(blinded)};
}

std::optional<std::string> GroupManager::uid_for_index(
    const KeyIndex& idx) const {
  const auto it = assigned_.find({idx.group, idx.member});
  if (it == assigned_.end()) return std::nullopt;
  return it->second;
}

Bytes GroupManager::enrollment_receipt_payload(const Enrollment& enrollment) {
  return encode_signed(enrollment, "peace/enrollment-receipt");
}

void GroupManager::record_receipt(const Enrollment& enrollment,
                                  const G1& user_public_key,
                                  const EcdsaSignature& signature) {
  if (!curve::ecdsa_verify(user_public_key,
                           enrollment_receipt_payload(enrollment), signature))
    throw Error("gm: invalid enrollment receipt");
  store_receipt(enrollment.index, {user_public_key, signature});
}

void GroupManager::replay_enroll(const KeyIndex& idx, const std::string& uid) {
  const auto it =
      std::find_if(unassigned_.begin(), unassigned_.end(),
                   [&](const auto& k) { return k.first == idx; });
  if (it == unassigned_.end())
    throw Error("gm: replayed enrollment for unknown key index");
  assigned_[{idx.group, idx.member}] = uid;
  assigned_x_[{idx.group, idx.member}] = it->second;
  unassigned_.erase(it);
}

void GroupManager::store_receipt(const KeyIndex& idx,
                                 EnrollmentReceipt receipt) {
  receipts_.emplace(std::pair{idx.group, idx.member}, std::move(receipt));
}

std::optional<GroupManager::EnrollmentReceipt> GroupManager::receipt_for(
    const KeyIndex& idx) const {
  const auto it = receipts_.find({idx.group, idx.member});
  if (it == receipts_.end()) return std::nullopt;
  return it->second;
}

std::size_t GroupManager::keys_remaining() const { return unassigned_.size(); }

Bytes GroupManager::state_bytes() const { return encode(*this); }

GroupManager GroupManager::from_state(BytesView data) {
  GroupManager gm(0, {});
  decode_into(data, gm);
  return gm;
}

// --- NetworkOperator ----------------------------------------------------------

NetworkOperator::NetworkOperator(crypto::Drbg rng)
    : rng_(std::move(rng)),
      issuer_(groupsig::Issuer::create(rng_)),
      nsk_(EcdsaKeyPair::generate(rng_)) {
  url_ = sign_list({}, 0, 0);
  crl_ = sign_list({}, 0, 0);
}

SystemParams NetworkOperator::params() const {
  return {issuer_.gpk(), nsk_.public_key()};
}

std::vector<std::pair<KeyIndex, Fr>> NetworkOperator::issue_batch(
    GroupId gid, const Fr& grp, std::size_t num_keys,
    TrustedThirdParty& ttp) {
  std::vector<std::pair<KeyIndex, Fr>> gm_batch;
  std::uint32_t& next = next_member_[gid];
  for (std::size_t i = 0; i < num_keys; ++i) {
    const MemberKey key = issuer_.issue(grp, rng_);
    const KeyIndex idx{gid, next++};
    grt_.push_back({RevocationToken{key.a}, gid, idx});
    gm_batch.emplace_back(idx, key.x);

    // Step 7: deposit A xor x with the TTP, signed for non-repudiation.
    Bytes blinded = blind_credential(key.a, key.x);
    const EcdsaSignature sig = nsk_.sign(deposit_payload(idx, blinded), rng_);
    ttp.deposit(idx, std::move(blinded), sig, npk(), rng_);
  }
  return gm_batch;
}

GroupManager NetworkOperator::register_group(const std::string& name,
                                             std::size_t num_keys,
                                             TrustedThirdParty& ttp) {
  const GroupId gid = next_group_id_++;
  GroupManager gm(gid, name);
  const Fr grp = issuer_.new_group_secret(rng_);
  group_secrets_[gid] = grp;
  gm.receive_allocation(grp, issue_batch(gid, grp, num_keys, ttp));
  return gm;
}

void NetworkOperator::rotate_master_key(Timestamp now) {
  obs::Span span("no.rotate_master_key", "peace");
  span.arg("archived_tokens", grt_.size());
  span.arg("era", past_eras_.size() + 1);
  past_eras_.push_back({issuer_.gpk(), std::move(grt_)});
  grt_.clear();
  issuer_ = groupsig::Issuer::create(rng_);
  group_secrets_.clear();
  const SignedRevocationList prev_url = url_;
  // Fresh era: no outstanding credentials, so nothing to revoke.
  url_entries_.clear();
  url_ = sign_list({}, url_.version + 1, now);
  // The rotation's delta removes every outstanding token — a receiver that
  // applies it lands exactly on the new era's empty URL.
  emit_delta(ListKind::kUrl, prev_url, url_, prev_url.entries, {});
}

void NetworkOperator::reissue_group(GroupManager& gm, std::size_t num_keys,
                                    TrustedThirdParty& ttp) {
  const Fr grp = issuer_.new_group_secret(rng_);
  group_secrets_[gm.id()] = grp;
  gm.rekey(grp, issue_batch(gm.id(), grp, num_keys, ttp));
}

NetworkOperator::RouterProvision NetworkOperator::provision_router(
    RouterId id, Timestamp expires_at) {
  RouterProvision p;
  p.keypair = EcdsaKeyPair::generate(rng_);
  p.certificate.router_id = id;
  p.certificate.public_key = p.keypair.public_key();
  p.certificate.expires_at = expires_at;
  p.certificate.signature =
      nsk_.sign(p.certificate.signed_payload(), rng_);
  return p;
}

SignedRevocationList NetworkOperator::sign_list(std::vector<Bytes> entries,
                                                std::uint64_t version,
                                                Timestamp now) const {
  SignedRevocationList list;
  list.version = version;
  list.issued_at = now;
  list.entries = std::move(entries);
  list.signature = nsk_.sign(list.signed_payload(), rng_);
  return list;
}

void NetworkOperator::revoke_user_key(const KeyIndex& idx, Timestamp now) {
  for (const GrtEntry& e : grt_) {
    if (e.index == idx) {
      Bytes entry = e.token.to_bytes();
      if (std::find(url_entries_.begin(), url_entries_.end(), entry) !=
          url_entries_.end())
        return;  // already revoked
      const SignedRevocationList prev = url_;
      url_entries_.push_back(entry);
      url_ = sign_list(url_entries_, url_.version + 1, now);
      emit_delta(ListKind::kUrl, prev, url_, {}, {std::move(entry)});
      return;
    }
  }
  throw Error("no: unknown key index to revoke");
}

void NetworkOperator::revoke_router(RouterId id, Timestamp now) {
  Bytes entry = crl_entry(id);
  if (std::find(crl_entries_.begin(), crl_entries_.end(), entry) !=
      crl_entries_.end())
    return;  // already revoked
  const SignedRevocationList prev = crl_;
  crl_entries_.push_back(entry);
  crl_ = sign_list(crl_entries_, crl_.version + 1, now);
  emit_delta(ListKind::kCrl, prev, crl_, {}, {std::move(entry)});
}

void NetworkOperator::emit_delta(ListKind kind,
                                 const SignedRevocationList& prev,
                                 const SignedRevocationList& next,
                                 std::vector<Bytes> removed,
                                 std::vector<Bytes> added) {
  RLDelta d;
  d.kind = kind;
  d.base_version = prev.version;
  d.version = next.version;
  d.issued_at = next.issued_at;
  d.base_hash = crypto::Sha256::hash(prev.signed_payload());
  d.removed = std::move(removed);
  d.added = std::move(added);
  d.full_signature = next.signature;
  d.signature = nsk_.sign(d.signed_payload(), rng_);
  (kind == ListKind::kCrl ? crl_deltas_ : url_deltas_).push_back(std::move(d));
}

std::vector<RLDelta> NetworkOperator::deltas_since(
    ListKind kind, std::uint64_t after_version) const {
  const std::vector<RLDelta>& log =
      kind == ListKind::kCrl ? crl_deltas_ : url_deltas_;
  std::vector<RLDelta> out;
  for (const RLDelta& d : log)
    if (d.version > after_version) out.push_back(d);
  return out;
}

RLDeltaAnnounce NetworkOperator::make_delta_announcement(
    std::uint64_t crl_after, std::uint64_t url_after) const {
  RLDeltaAnnounce ann;
  ann.deltas = deltas_since(ListKind::kCrl, crl_after);
  for (RLDelta& d : deltas_since(ListKind::kUrl, url_after))
    ann.deltas.push_back(std::move(d));
  return ann;
}

RLResyncResponse NetworkOperator::handle_resync(
    const RLResyncRequest& request) const {
  return RLResyncResponse{request.kind,
                          request.kind == ListKind::kCrl ? crl_ : url_};
}

std::optional<AuditResult> NetworkOperator::audit(
    const AccessRequest& m2) const {
  // Paper IV.D: for each revocation token A in grt, test Eq.3 against the
  // logged authentication message. Archived eras are scanned with their
  // own gpk so sessions that predate a key rotation remain auditable.
  //
  // The signature bases depend on (gpk, message), not on the token, so each
  // era derives its PreparedBases exactly ONCE and runs the batched
  // TokenScan over its whole grt — one Miller loop per token and one shared
  // easy-part inversion per era, instead of re-hashing the bases and
  // re-walking v_hat's twist arithmetic for every entry.
  obs::Span span("no.audit", "peace");
  const Bytes payload = m2.signed_payload();
  std::size_t scanned = 0;
  std::size_t eras = 0;
  const auto scan = [&](const GroupPublicKey& gpk,
                        const std::vector<GrtEntry>& grt)
      -> std::optional<AuditResult> {
    if (grt.empty()) return std::nullopt;
    ++eras;
    const groupsig::PreparedBases prepared =
        groupsig::prepare_bases(gpk, payload, m2.signature);
    groupsig::TokenScan era_scan(prepared, m2.signature);
    for (const GrtEntry& e : grt) era_scan.add(e.token);
    const std::size_t hit = era_scan.first_match();
    if (hit == groupsig::TokenScan::npos) {
      scanned += grt.size();
      return std::nullopt;
    }
    scanned += hit + 1;
    return AuditResult{grt[hit].token, grt[hit].group_id, grt[hit].index,
                       scanned};
  };
  const auto finish = [&](std::optional<AuditResult> hit) {
    span.arg("eras_scanned", eras);
    span.arg("tokens_scanned", scanned);
    span.arg("hit", hit.has_value() ? 1 : 0);
    return hit;
  };
  if (auto hit = scan(issuer_.gpk(), grt_)) return finish(std::move(hit));
  for (auto it = past_eras_.rbegin(); it != past_eras_.rend(); ++it) {
    if (auto hit = scan(it->gpk, it->grt)) return finish(std::move(hit));
  }
  return finish(std::nullopt);
}

void NetworkOperator::replay_issue(GroupId gid, const Fr& grp,
                                   std::uint32_t next_member_after,
                                   std::vector<GrtEntry> entries) {
  group_secrets_[gid] = grp;
  next_member_[gid] = next_member_after;
  if (gid >= next_group_id_) next_group_id_ = gid + 1;
  for (GrtEntry& e : entries) grt_.push_back(std::move(e));
}

void NetworkOperator::replay_rotation(const Fr& new_gamma) {
  past_eras_.push_back({issuer_.gpk(), std::move(grt_)});
  grt_.clear();
  issuer_ = groupsig::Issuer::from_secret(new_gamma);
  group_secrets_.clear();
}

void NetworkOperator::replay_revocation(const RLDelta& delta) {
  const bool crl = delta.kind == ListKind::kCrl;
  std::vector<Bytes>& entries = crl ? crl_entries_ : url_entries_;
  SignedRevocationList& list = crl ? crl_ : url_;
  std::vector<RLDelta>& log = crl ? crl_deltas_ : url_deltas_;
  for (const Bytes& gone : delta.removed)
    entries.erase(std::remove(entries.begin(), entries.end(), gone),
                  entries.end());
  for (const Bytes& added : delta.added) entries.push_back(added);
  // Reconstruct the successor list bit-identically: full_signature IS the
  // successor's own NO signature (see emit_delta), so no re-signing — and
  // no randomness — is needed.
  list.version = delta.version;
  list.issued_at = delta.issued_at;
  list.entries = entries;
  list.signature = delta.full_signature;
  log.push_back(delta);
}

void NetworkOperator::restore_rng(BytesView state) {
  rng_ = crypto::Drbg::import_state(state);
}

Bytes NetworkOperator::state_bytes() const { return encode(*this); }

NetworkOperator NetworkOperator::from_state(BytesView data) {
  // Placeholder members, every one of them overwritten by the image.
  NetworkOperator no(crypto::Drbg(Bytes{}), {}, {});
  decode_into(data, no);
  no.url_entries_ = no.url_.entries;
  no.crl_entries_ = no.crl_.entries;
  return no;
}

std::optional<KeyIndex> NetworkOperator::index_of_token(const G1& a) const {
  for (const GrtEntry& e : grt_) {
    if (e.token.a == a) return e.index;
  }
  for (const Era& era : past_eras_) {
    for (const GrtEntry& e : era.grt) {
      if (e.token.a == a) return e.index;
    }
  }
  return std::nullopt;
}

// --- LawAuthority --------------------------------------------------------------

std::optional<LawAuthority::TraceResult> LawAuthority::trace(
    const NetworkOperator& no,
    const std::vector<const GroupManager*>& group_managers,
    const AccessRequest& m2) {
  // Step 1+2: NO audits the session down to (A, group).
  const auto audit = no.audit(m2);
  if (!audit.has_value()) return std::nullopt;
  // Step 3: the responsible group's manager maps [i, j] to the uid.
  for (const GroupManager* gm : group_managers) {
    if (gm->id() != audit->group_id) continue;
    const auto uid = gm->uid_for_index(audit->index);
    if (uid.has_value()) {
      return TraceResult{*uid, audit->group_id, audit->index,
                         gm->receipt_for(audit->index).has_value()};
    }
  }
  return std::nullopt;
}

}  // namespace peace::proto
