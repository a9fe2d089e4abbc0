#include "peace/user.hpp"

#include "common/serde.hpp"
#include "curve/hash_to_curve.hpp"
#include "obs/trace.hpp"

namespace peace::proto {

using curve::ecdsa_verify;
using curve::g1_to_bytes;
using curve::random_fr;

User::User(std::string uid, SystemParams params, crypto::Drbg rng,
           ProtocolConfig config)
    : uid_(std::move(uid)),
      params_(std::move(params)),
      pgpk_(params_.gpk),
      rng_(std::move(rng)),
      config_(config),
      pending_access_(config_.pending_cap),
      pending_peer_init_(config_.pending_cap),
      pending_peer_resp_(config_.pending_cap),
      hello_replies_(config_.pending_cap),
      peer_confirms_(config_.pending_cap) {
  // Skipped so later draws (receipt key, DH shares, nonces) keep pinned bytes.
  rng_.bytes(32);
  receipt_key_ = curve::EcdsaKeyPair::generate(rng_);
}

std::size_t User::reap_pending(Timestamp now) {
  const Timestamp ttl = config_.pending_ttl_ms;
  const std::size_t reaped =
      pending_access_.reap(now, ttl) + pending_peer_init_.reap(now, ttl) +
      pending_peer_resp_.reap(now, ttl) + hello_replies_.reap(now, ttl) +
      peer_confirms_.reap(now, ttl);
  stats_.pending_expired += reaped;
  return reaped;
}

curve::EcdsaSignature User::complete_enrollment(
    const GroupManager::Enrollment& enrollment) {
  MemberKey key;
  key.a = unblind_credential(enrollment.blinded_credential, enrollment.x);
  key.grp = enrollment.grp;
  key.x = enrollment.x;
  if (!key.is_valid(params_.gpk))
    throw Error("user: assembled credential fails the SDH check");
  credentials_[enrollment.index.group] = key;
  // Non-repudiation: sign for what was received (paper IV.A).
  return receipt_key_.sign(
      GroupManager::enrollment_receipt_payload(enrollment), rng_);
}

std::vector<GroupId> User::enrolled_groups() const {
  std::vector<GroupId> out;
  out.reserve(credentials_.size());
  for (const auto& [gid, _] : credentials_) out.push_back(gid);
  return out;
}

const MemberKey& User::credential(GroupId group) const {
  const auto it = credentials_.find(group);
  if (it == credentials_.end()) throw Error("user: not enrolled in group");
  return it->second;
}

const MemberKey& User::pick_credential(GroupId via_group) const {
  if (credentials_.empty()) throw Error("user: no credentials");
  if (via_group == 0) return credentials_.begin()->second;
  return credential(via_group);
}

bool User::signed_by_no(std::optional<NoSigned>& verified, Bytes payload,
                        const curve::EcdsaSignature& signature) {
  if (verified.has_value() && verified->payload == payload &&
      verified->signature == signature)
    return true;
  if (!ecdsa_verify(params_.network_public_key, payload, signature))
    return false;
  verified = NoSigned{std::move(payload), signature};
  return true;
}

bool User::beacon_trustworthy(const BeaconMessage& beacon, Timestamp now) {
  // Step 2.1: timestamp freshness.
  const Timestamp age =
      now >= beacon.ts1 ? now - beacon.ts1 : beacon.ts1 - now;
  if (age > config_.replay_window_ms) return false;
  // Certificate: signed by NO, not expired, consistent router id.
  const RouterCertificate& cert = beacon.certificate;
  if (cert.router_id != beacon.router_id) return false;
  if (cert.expires_at <= now) return false;
  if (!signed_by_no(verified_cert_, cert.signed_payload(), cert.signature))
    return false;
  // Revocation lists: must be authentic before they are used or cached.
  if (!signed_by_no(verified_crl_, beacon.crl.signed_payload(),
                    beacon.crl.signature))
    return false;
  if (!signed_by_no(verified_url_, beacon.url.signed_payload(),
                    beacon.url.signature))
    return false;
  // Cache the freshest authentic lists first (monotone versions only) —
  // a revoked router will keep distributing the stale CRL that predates
  // its own revocation, so the check below must use the newest list this
  // user has seen from ANY router, not the beacon's copy.
  if (beacon.crl.version >= crl_.version) crl_ = beacon.crl;
  if (beacon.url.version >= url_.version) {
    url_ = beacon.url;
    url_tokens_.clear();
    for (const Bytes& e : url_.entries)
      url_tokens_.push_back(RevocationToken::from_bytes(e));
  }
  // CRL check: has this router's certificate been revoked?
  const Bytes rid = crl_entry(beacon.router_id);
  for (const Bytes& e : crl_.entries)
    if (e == rid) return false;
  // Beacon signature under the certified router key.
  if (!ecdsa_verify(cert.public_key, beacon.signed_payload(),
                    beacon.signature))
    return false;
  return true;
}

std::optional<AccessRequest> User::process_beacon(const BeaconMessage& beacon,
                                                  Timestamp now,
                                                  GroupId via_group) {
  ++stats_.beacons_seen;
  if (!beacon_trustworthy(beacon, now)) {
    ++stats_.beacons_rejected;
    return std::nullopt;
  }

  // Telemetry: the M.2 build (DH share, puzzle, group signature) is the
  // user's heaviest handshake step.
  static obs::Histogram& m2_hist =
      obs::Registry::global().histogram("user.m2_build_us");
  obs::Span span("user.m2_build", "handshake", &m2_hist);

  // Step 2.2.1: fresh DH share under the beacon's generator.
  const Fr r_j = random_fr(rng_);
  AccessRequest m2;
  m2.g_rj = beacon.g * r_j;
  m2.g_rr = beacon.g_rr;
  m2.ts2 = now;

  // DoS defence: solve the router's puzzle before signing.
  if (beacon.puzzle.has_value()) {
    stats_.puzzle_hashes += static_cast<std::uint64_t>(
        puzzle_expected_work(beacon.puzzle->difficulty_bits));
    m2.puzzle_solution = solve_puzzle(*beacon.puzzle, g1_to_bytes(m2.g_rj));
  }

  // Steps 2.2.2 - 2.2.4: group signature over (g^rj, g^rR, ts2), made at
  // the revocation epoch of the beacon it answers (0 unless epochs are on).
  m2.signature =
      groupsig::sign(pgpk_, pick_credential(via_group), m2.signed_payload(),
                     rng_, config_.epoch_at(beacon.ts1));

  // Step 2.2.5: K = (g^rR)^rj, remembered until M.3 arrives.
  const Bytes sid = session_id_from(m2.g_rr, m2.g_rj);
  reap_pending(now);
  stats_.pending_evicted += pending_access_.insert(
      to_hex(sid),
      PendingAccess{beacon.g_rr * r_j, beacon.router_id},
      now);
  return m2;
}

std::optional<Session> User::process_access_confirm(const AccessConfirm& m3) {
  static obs::Histogram& m3_hist =
      obs::Registry::global().histogram("user.m3_process_us");
  obs::Span span("user.m3_process", "handshake", &m3_hist);
  const Bytes sid = session_id_from(m3.g_rr, m3.g_rj);
  const std::string key = to_hex(sid);
  const PendingAccess* pending = pending_access_.find(key);
  if (pending == nullptr) return std::nullopt;

  const auto payload = confirm_open(pending->shared, sid, m3.ciphertext);
  if (!payload.has_value()) return std::nullopt;
  // The confirmation must name the router and echo both DH shares: the
  // shares M.3 carries, which form the session id this entry is keyed by.
  if (*payload !=
      access_confirm_plaintext(pending->router_id, m3.g_rj, m3.g_rr))
    return std::nullopt;

  Session session =
      Session::establish(pending->shared, sid, Session::Role::kInitiator);
  pending_access_.erase(key);
  ++stats_.sessions_established;
  return session;
}

bool User::peer_verified(BytesView payload, const groupsig::Signature& sig) {
  // The proof check derives the hashed bases once; the URL scan prepares
  // v_hat from them and runs the batched TokenScan: one Miller loop per
  // token, one shared e(-v, T_hat) factor, one easy-part inversion.
  return groupsig::verify(pgpk_, payload, sig, url_tokens_, &verify_ops_);
}

PeerHello User::make_peer_hello(const G1& g, Timestamp now,
                                GroupId via_group) {
  const Fr r_j = random_fr(rng_);
  PeerHello hello;
  hello.g = g;
  hello.g_rj = g * r_j;
  hello.ts1 = now;
  hello.signature = groupsig::sign(pgpk_, pick_credential(via_group),
                                   hello.signed_payload(), rng_);
  reap_pending(now);
  stats_.pending_evicted += pending_peer_init_.insert(
      to_hex(g1_to_bytes(hello.g_rj)), PendingPeerInitiator{r_j, now}, now);
  return hello;
}

std::optional<PeerReply> User::process_peer_hello(const PeerHello& hello,
                                                  Timestamp now,
                                                  GroupId via_group) {
  static obs::Histogram& hello_hist =
      obs::Registry::global().histogram("user.peer_hello_us");
  obs::Span span("user.peer_hello", "handshake", &hello_hist);
  const Timestamp age = now >= hello.ts1 ? now - hello.ts1 : hello.ts1 - now;
  if (age > config_.replay_window_ms) return std::nullopt;
  // Idempotent resend: a byte-identical duplicate of an answered hello gets
  // the cached reply back — no new r_l, no pairing work.
  const std::string key = wire_key(hello.to_bytes());
  if (const PeerReply* cached = hello_replies_.find(key)) {
    ++stats_.duplicate_hellos;
    return *cached;
  }
  const Bytes payload = hello.signed_payload();
  if (!peer_verified(payload, hello.signature)) return std::nullopt;

  const Fr r_l = random_fr(rng_);
  PeerReply reply;
  reply.g_rj = hello.g_rj;
  reply.g_rl = hello.g * r_l;
  reply.ts2 = now;
  reply.signature = groupsig::sign(pgpk_, pick_credential(via_group),
                                   reply.signed_payload(), rng_);
  const Bytes sid = session_id_from(reply.g_rj, reply.g_rl);
  reap_pending(now);
  stats_.pending_evicted += pending_peer_resp_.insert(
      to_hex(sid), PendingPeerResponder{hello.g_rj * r_l, hello.ts1, now},
      now);
  stats_.pending_evicted += hello_replies_.insert(key, reply, now);
  return reply;
}

std::optional<User::PeerEstablished> User::process_peer_reply(
    const PeerReply& reply, Timestamp now) {
  static obs::Histogram& reply_hist =
      obs::Registry::global().histogram("user.peer_reply_us");
  obs::Span span("user.peer_reply", "handshake", &reply_hist);
  const std::string key = to_hex(g1_to_bytes(reply.g_rj));
  const PendingPeerInitiator* pending = pending_peer_init_.find(key);
  if (pending == nullptr) return std::nullopt;

  // Paper step 3: ts2 - ts1 within the acceptable delay window.
  if (reply.ts2 < pending->ts1 ||
      reply.ts2 - pending->ts1 > config_.replay_window_ms)
    return std::nullopt;
  const Timestamp age = now >= reply.ts2 ? now - reply.ts2 : reply.ts2 - now;
  if (age > config_.replay_window_ms) return std::nullopt;
  const Bytes reply_payload = reply.signed_payload();
  if (!peer_verified(reply_payload, reply.signature)) return std::nullopt;

  const G1 shared = reply.g_rl * pending->r_j;
  const Bytes sid = session_id_from(reply.g_rj, reply.g_rl);

  PeerEstablished out{
      PeerConfirm{reply.g_rj, reply.g_rl, {}},
      Session::establish(shared, sid, Session::Role::kInitiator)};
  out.confirm.ciphertext = confirm_seal(
      shared, sid,
      peer_confirm_plaintext(reply.g_rj, reply.g_rl, pending->ts1, reply.ts2));

  reap_pending(now);
  stats_.pending_evicted +=
      peer_confirms_.insert(wire_key(reply.to_bytes()), out.confirm, now);
  pending_peer_init_.erase(key);
  ++stats_.peer_sessions_established;
  return out;
}

std::optional<PeerConfirm> User::cached_peer_confirm(const PeerReply& reply) {
  const PeerConfirm* cached = peer_confirms_.find(wire_key(reply.to_bytes()));
  if (cached == nullptr) return std::nullopt;
  ++stats_.duplicate_replies;
  return *cached;
}

std::optional<Session> User::process_peer_confirm(const PeerConfirm& confirm) {
  const Bytes sid = session_id_from(confirm.g_rj, confirm.g_rl);
  const std::string key = to_hex(sid);
  const PendingPeerResponder* pending = pending_peer_resp_.find(key);
  if (pending == nullptr) return std::nullopt;

  const auto payload = confirm_open(pending->shared, sid, confirm.ciphertext);
  if (!payload.has_value()) return std::nullopt;
  if (*payload != peer_confirm_plaintext(confirm.g_rj, confirm.g_rl,
                                         pending->ts1, pending->ts2))
    return std::nullopt;

  Session session =
      Session::establish(pending->shared, sid, Session::Role::kResponder);
  pending_peer_resp_.erase(key);
  ++stats_.peer_sessions_established;
  return session;
}

}  // namespace peace::proto
