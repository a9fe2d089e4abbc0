#include "peace/messages.hpp"

#include "crypto/sha256.hpp"

namespace peace::proto {

namespace {

constexpr std::size_t kStateHashSize = 32;

template <class M>
M with_known_kind(M m) {
  if (static_cast<std::uint8_t>(m.kind) > 1)
    throw Error("rl-delta: unknown list kind");
  return m;
}

}  // namespace

Bytes RouterCertificate::signed_payload() const {
  return encode_signed(*this, "peace/cert");
}
Bytes RouterCertificate::to_bytes() const { return encode(*this); }
RouterCertificate RouterCertificate::from_bytes(BytesView data) {
  return decode<RouterCertificate>(data);
}

Bytes SignedRevocationList::signed_payload() const {
  return encode_signed(*this, "peace/revocation-list");
}
Bytes SignedRevocationList::to_bytes() const { return encode(*this); }
SignedRevocationList SignedRevocationList::from_bytes(BytesView data) {
  return decode<SignedRevocationList>(data);
}

Bytes RLDelta::signed_payload() const {
  return encode_signed(*this, "peace/rl-delta");
}
Bytes RLDelta::to_bytes() const { return encode(*this); }
RLDelta RLDelta::from_bytes(BytesView data) {
  RLDelta d = with_known_kind(decode<RLDelta>(data));
  if (d.base_hash.size() != kStateHashSize)
    throw Error("rl-delta: bad base hash length");
  // A delta that does not advance the version can never apply: reject the
  // malformed encoding outright rather than letting stores classify it.
  if (d.version <= d.base_version) throw Error("rl-delta: non-increasing version");
  return d;
}

Bytes RLDeltaAnnounce::to_bytes() const { return encode(*this); }
RLDeltaAnnounce RLDeltaAnnounce::from_bytes(BytesView data) {
  return decode<RLDeltaAnnounce>(data);
}

Bytes RLResyncRequest::to_bytes() const { return encode(*this); }
RLResyncRequest RLResyncRequest::from_bytes(BytesView data) {
  return with_known_kind(decode<RLResyncRequest>(data));
}

Bytes RLResyncResponse::to_bytes() const { return encode(*this); }
RLResyncResponse RLResyncResponse::from_bytes(BytesView data) {
  return with_known_kind(decode<RLResyncResponse>(data));
}

Bytes BeaconMessage::signed_payload() const {
  return encode_signed(*this, "peace/beacon");
}
Bytes BeaconMessage::to_bytes() const { return encode(*this); }
BeaconMessage BeaconMessage::from_bytes(BytesView data) {
  return decode<BeaconMessage>(data);
}

Bytes AccessRequest::signed_payload() const {
  return encode_signed(*this, "peace/m2");
}
Bytes AccessRequest::to_bytes() const { return encode(*this); }
AccessRequest AccessRequest::from_bytes(BytesView data) {
  return decode<AccessRequest>(data);
}

Bytes AccessConfirm::to_bytes() const { return encode(*this); }
AccessConfirm AccessConfirm::from_bytes(BytesView data) {
  return decode<AccessConfirm>(data);
}

Bytes PeerHello::signed_payload() const {
  return encode_signed(*this, "peace/m~1");
}
Bytes PeerHello::to_bytes() const { return encode(*this); }
PeerHello PeerHello::from_bytes(BytesView data) {
  return decode<PeerHello>(data);
}

Bytes PeerReply::signed_payload() const {
  return encode_signed(*this, "peace/m~2");
}
Bytes PeerReply::to_bytes() const { return encode(*this); }
PeerReply PeerReply::from_bytes(BytesView data) {
  return decode<PeerReply>(data);
}

Bytes PeerConfirm::to_bytes() const { return encode(*this); }
PeerConfirm PeerConfirm::from_bytes(BytesView data) {
  return decode<PeerConfirm>(data);
}

Bytes DataFrame::to_bytes() const { return encode(*this); }
DataFrame DataFrame::from_bytes(BytesView data) {
  return decode<DataFrame>(data);
}

Bytes crl_entry(RouterId router_id) { return Writer()(router_id).take(); }

Bytes access_confirm_plaintext(RouterId router_id, const G1& g_rj,
                               const G1& g_rr) {
  return Writer()(router_id, g_rj, g_rr).take();
}

Bytes peer_confirm_plaintext(const G1& g_rj, const G1& g_rl, Timestamp ts1,
                             Timestamp ts2) {
  return Writer()(g_rj, g_rl, ts1, ts2).take();
}

Bytes session_id_from(const G1& a, const G1& b) {
  return Writer()(a, b).take();
}

std::string wire_key(BytesView wire) {
  return to_hex(crypto::Sha256::hash(wire));
}

}  // namespace peace::proto
