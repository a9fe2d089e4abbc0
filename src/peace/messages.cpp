#include "peace/messages.hpp"

#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace peace::proto {

using curve::g1_from_bytes;
using curve::g1_to_bytes;
using curve::kG1CompressedSize;

namespace {

void put_g1(Writer& w, const G1& p) { w.raw(g1_to_bytes(p)); }
G1 get_g1(Reader& r) {
  // g1_from_bytes enforces x < p and on-curve (cofactor 1 makes that a
  // subgroup check too), but it accepts the identity encoding. No protocol
  // field is ever legitimately the identity — certificate keys and DH
  // shares are secret multiples of the generator — and letting it through
  // would, e.g., force a session key derived from the identity share.
  const G1 p = g1_from_bytes(r.raw(kG1CompressedSize));
  if (p.is_infinity()) throw Error("serde: identity point in message");
  return p;
}

void put_ecdsa(Writer& w, const EcdsaSignature& s) { w.raw(s.to_bytes()); }
EcdsaSignature get_ecdsa(Reader& r) {
  return EcdsaSignature::from_bytes(r.raw(curve::kEcdsaSignatureSize));
}

}  // namespace

// --- RouterCertificate -----------------------------------------------------

Bytes RouterCertificate::signed_payload() const {
  Writer w;
  w.str("peace/cert");
  w.u32(router_id);
  put_g1(w, public_key);
  w.u64(expires_at);
  return w.take();
}

Bytes RouterCertificate::to_bytes() const {
  Writer w;
  w.u32(router_id);
  put_g1(w, public_key);
  w.u64(expires_at);
  put_ecdsa(w, signature);
  return w.take();
}

RouterCertificate RouterCertificate::from_bytes(BytesView data) {
  Reader r(data);
  RouterCertificate c;
  c.router_id = r.u32();
  c.public_key = get_g1(r);
  c.expires_at = r.u64();
  c.signature = get_ecdsa(r);
  r.expect_end();
  return c;
}

// --- SignedRevocationList ---------------------------------------------------

Bytes SignedRevocationList::signed_payload() const {
  Writer w;
  w.str("peace/revocation-list");
  w.u64(version);
  w.u64(issued_at);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Bytes& e : entries) w.bytes(e);
  return w.take();
}

Bytes SignedRevocationList::to_bytes() const {
  Writer w;
  w.u64(version);
  w.u64(issued_at);
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Bytes& e : entries) w.bytes(e);
  put_ecdsa(w, signature);
  return w.take();
}

SignedRevocationList SignedRevocationList::from_bytes(BytesView data) {
  Reader r(data);
  SignedRevocationList l;
  l.version = r.u64();
  l.issued_at = r.u64();
  const std::uint32_t n = r.u32();
  // Each entry consumes at least its 4-byte length prefix: a count that
  // exceeds the remaining buffer is hostile — reject before allocating.
  if (n > r.remaining() / 4) throw Error("revocation list: bad entry count");
  l.entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) l.entries.push_back(r.bytes());
  l.signature = get_ecdsa(r);
  r.expect_end();
  return l;
}

// --- RLDelta / RLDeltaAnnounce / RLResync ------------------------------------

namespace {

constexpr std::size_t kStateHashSize = 32;

ListKind get_list_kind(Reader& r) {
  const std::uint8_t k = r.u8();
  if (k > 1) throw Error("rl-delta: unknown list kind");
  return static_cast<ListKind>(k);
}

void put_entries(Writer& w, const std::vector<Bytes>& entries) {
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const Bytes& e : entries) w.bytes(e);
}

std::vector<Bytes> get_entries(Reader& r) {
  const std::uint32_t n = r.u32();
  // Each entry consumes at least its 4-byte length prefix: a count that
  // exceeds the remaining buffer is hostile — reject before allocating.
  if (n > r.remaining() / 4) throw Error("rl-delta: bad entry count");
  std::vector<Bytes> entries;
  entries.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) entries.push_back(r.bytes());
  return entries;
}

}  // namespace

Bytes RLDelta::signed_payload() const {
  Writer w;
  w.str("peace/rl-delta");
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(base_version);
  w.u64(version);
  w.u64(issued_at);
  w.bytes(base_hash);
  put_entries(w, removed);
  put_entries(w, added);
  put_ecdsa(w, full_signature);
  return w.take();
}

Bytes RLDelta::to_bytes() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(base_version);
  w.u64(version);
  w.u64(issued_at);
  w.bytes(base_hash);
  put_entries(w, removed);
  put_entries(w, added);
  put_ecdsa(w, full_signature);
  put_ecdsa(w, signature);
  return w.take();
}

RLDelta RLDelta::from_bytes(BytesView data) {
  Reader r(data);
  RLDelta d;
  d.kind = get_list_kind(r);
  d.base_version = r.u64();
  d.version = r.u64();
  d.issued_at = r.u64();
  d.base_hash = r.bytes();
  if (d.base_hash.size() != kStateHashSize)
    throw Error("rl-delta: bad base hash length");
  // A delta that does not advance the version can never apply: reject the
  // malformed encoding outright rather than letting stores classify it.
  if (d.version <= d.base_version) throw Error("rl-delta: non-increasing version");
  d.removed = get_entries(r);
  d.added = get_entries(r);
  d.full_signature = get_ecdsa(r);
  d.signature = get_ecdsa(r);
  r.expect_end();
  return d;
}

Bytes RLDeltaAnnounce::to_bytes() const {
  Writer w;
  w.u32(static_cast<std::uint32_t>(deltas.size()));
  for (const RLDelta& d : deltas) w.bytes(d.to_bytes());
  return w.take();
}

RLDeltaAnnounce RLDeltaAnnounce::from_bytes(BytesView data) {
  Reader r(data);
  RLDeltaAnnounce a;
  const std::uint32_t n = r.u32();
  if (n > r.remaining() / 4) throw Error("rl-announce: bad delta count");
  a.deltas.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    a.deltas.push_back(RLDelta::from_bytes(r.bytes()));
  r.expect_end();
  return a;
}

Bytes RLResyncRequest::to_bytes() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(have_version);
  return w.take();
}

RLResyncRequest RLResyncRequest::from_bytes(BytesView data) {
  Reader r(data);
  RLResyncRequest req;
  req.kind = get_list_kind(r);
  req.have_version = r.u64();
  r.expect_end();
  return req;
}

Bytes RLResyncResponse::to_bytes() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.bytes(full.to_bytes());
  return w.take();
}

RLResyncResponse RLResyncResponse::from_bytes(BytesView data) {
  Reader r(data);
  RLResyncResponse resp;
  resp.kind = get_list_kind(r);
  resp.full = SignedRevocationList::from_bytes(r.bytes());
  r.expect_end();
  return resp;
}

// --- BeaconMessage -----------------------------------------------------------

Bytes BeaconMessage::signed_payload() const {
  Writer w;
  w.str("peace/beacon");
  w.u32(router_id);
  put_g1(w, g);
  put_g1(w, g_rr);
  w.u64(ts1);
  return w.take();
}

Bytes BeaconMessage::to_bytes() const {
  Writer w;
  w.u32(router_id);
  put_g1(w, g);
  put_g1(w, g_rr);
  w.u64(ts1);
  put_ecdsa(w, signature);
  w.bytes(certificate.to_bytes());
  w.bytes(crl.to_bytes());
  w.bytes(url.to_bytes());
  w.u8(puzzle.has_value() ? 1 : 0);
  if (puzzle.has_value()) w.bytes(puzzle->to_bytes());
  return w.take();
}

BeaconMessage BeaconMessage::from_bytes(BytesView data) {
  Reader r(data);
  BeaconMessage b;
  b.router_id = r.u32();
  b.g = get_g1(r);
  b.g_rr = get_g1(r);
  b.ts1 = r.u64();
  b.signature = get_ecdsa(r);
  b.certificate = RouterCertificate::from_bytes(r.bytes());
  b.crl = SignedRevocationList::from_bytes(r.bytes());
  b.url = SignedRevocationList::from_bytes(r.bytes());
  if (r.u8() != 0) b.puzzle = PuzzleChallenge::from_bytes(r.bytes());
  r.expect_end();
  return b;
}

// --- AccessRequest -----------------------------------------------------------

Bytes AccessRequest::signed_payload() const {
  Writer w;
  w.str("peace/m2");
  put_g1(w, g_rj);
  put_g1(w, g_rr);
  w.u64(ts2);
  return w.take();
}

Bytes AccessRequest::to_bytes() const {
  Writer w;
  put_g1(w, g_rj);
  put_g1(w, g_rr);
  w.u64(ts2);
  w.raw(signature.to_bytes());
  w.u8(puzzle_solution.has_value() ? 1 : 0);
  if (puzzle_solution.has_value()) w.bytes(puzzle_solution->to_bytes());
  return w.take();
}

AccessRequest AccessRequest::from_bytes(BytesView data) {
  Reader r(data);
  AccessRequest m;
  m.g_rj = get_g1(r);
  m.g_rr = get_g1(r);
  m.ts2 = r.u64();
  m.signature = groupsig::Signature::from_bytes(r.raw(groupsig::kSignatureSize));
  if (r.u8() != 0) m.puzzle_solution = PuzzleSolution::from_bytes(r.bytes());
  r.expect_end();
  return m;
}

// --- AccessConfirm -----------------------------------------------------------

Bytes AccessConfirm::to_bytes() const {
  Writer w;
  put_g1(w, g_rj);
  put_g1(w, g_rr);
  w.bytes(ciphertext);
  return w.take();
}

AccessConfirm AccessConfirm::from_bytes(BytesView data) {
  Reader r(data);
  AccessConfirm m;
  m.g_rj = get_g1(r);
  m.g_rr = get_g1(r);
  m.ciphertext = r.bytes();
  r.expect_end();
  return m;
}

// --- PeerHello / PeerReply / PeerConfirm --------------------------------------

Bytes PeerHello::signed_payload() const {
  Writer w;
  w.str("peace/m~1");
  put_g1(w, g);
  put_g1(w, g_rj);
  w.u64(ts1);
  return w.take();
}

Bytes PeerHello::to_bytes() const {
  Writer w;
  put_g1(w, g);
  put_g1(w, g_rj);
  w.u64(ts1);
  w.raw(signature.to_bytes());
  return w.take();
}

PeerHello PeerHello::from_bytes(BytesView data) {
  Reader r(data);
  PeerHello m;
  m.g = get_g1(r);
  m.g_rj = get_g1(r);
  m.ts1 = r.u64();
  m.signature = groupsig::Signature::from_bytes(r.raw(groupsig::kSignatureSize));
  r.expect_end();
  return m;
}

Bytes PeerReply::signed_payload() const {
  Writer w;
  w.str("peace/m~2");
  put_g1(w, g_rj);
  put_g1(w, g_rl);
  w.u64(ts2);
  return w.take();
}

Bytes PeerReply::to_bytes() const {
  Writer w;
  put_g1(w, g_rj);
  put_g1(w, g_rl);
  w.u64(ts2);
  w.raw(signature.to_bytes());
  return w.take();
}

PeerReply PeerReply::from_bytes(BytesView data) {
  Reader r(data);
  PeerReply m;
  m.g_rj = get_g1(r);
  m.g_rl = get_g1(r);
  m.ts2 = r.u64();
  m.signature = groupsig::Signature::from_bytes(r.raw(groupsig::kSignatureSize));
  r.expect_end();
  return m;
}

Bytes PeerConfirm::to_bytes() const {
  Writer w;
  put_g1(w, g_rj);
  put_g1(w, g_rl);
  w.bytes(ciphertext);
  return w.take();
}

PeerConfirm PeerConfirm::from_bytes(BytesView data) {
  Reader r(data);
  PeerConfirm m;
  m.g_rj = get_g1(r);
  m.g_rl = get_g1(r);
  m.ciphertext = r.bytes();
  r.expect_end();
  return m;
}

// --- DataFrame ----------------------------------------------------------------

Bytes DataFrame::to_bytes() const {
  Writer w;
  w.bytes(session_id);
  w.u64(seq);
  w.bytes(ciphertext);
  return w.take();
}

DataFrame DataFrame::from_bytes(BytesView data) {
  Reader r(data);
  DataFrame f;
  f.session_id = r.bytes();
  f.seq = r.u64();
  f.ciphertext = r.bytes();
  r.expect_end();
  return f;
}

Bytes session_id_from(const G1& a, const G1& b) {
  Bytes id = g1_to_bytes(a);
  append(id, g1_to_bytes(b));
  return id;
}

std::string wire_key(BytesView wire) {
  return to_hex(crypto::Sha256::hash(wire));
}

}  // namespace peace::proto
