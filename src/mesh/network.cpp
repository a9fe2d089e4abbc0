#include "mesh/network.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <optional>

#include "crypto/aead.hpp"
#include "obs/sec_event.hpp"
#include "obs/trace.hpp"

namespace peace::mesh {

using proto::BeaconMessage;
using proto::DataFrame;

namespace {

/// Simulator milliseconds → the µs timestamps of the sim-time trace track.
std::uint64_t sim_us(SimTime now_ms) { return now_ms * 1000; }

// Handshake reliability timers (PROTOCOL.md §10.3): retransmissions
// allowed per attempt after the first transmission, the initial
// retransmission timeout and its per-retry growth, and how long a user
// avoids a router whose attempt exhausted the budget.
constexpr unsigned kRetryBudget = 4;
constexpr SimTime kRtoMs = 400;
constexpr double kRtoBackoff = 2.0;
constexpr SimTime kFailoverBackoffMs = 5000;

/// The retransmission timeout armed after the `tries`-th transmission.
SimTime rto_for(unsigned tries) {
  double rto = static_cast<double>(kRtoMs);
  for (unsigned i = 1; i < tries; ++i) rto *= kRtoBackoff;
  return static_cast<SimTime>(rto);
}

/// The one definition of each MeshEvent, indexed by it.
struct EventRow {
  std::uint64_t NetworkStats::*counter;
  const char* instant;     // sim-time trace instant, category "reliability"
  const char* detail_key;  // instant argument carrying the detail, if any
  std::optional<obs::SecEventKind> sec;
};
constexpr std::array<EventRow, 4> kEvents{{
    {&NetworkStats::retransmissions, "mesh.retransmit", "tries", {}},
    {&NetworkStats::handshake_timeouts, "mesh.handshake_timeout", nullptr,
     obs::SecEventKind::kHandshakeTimeout},
    {&NetworkStats::rekeys, "mesh.rekey", nullptr,
     obs::SecEventKind::kSessionRekey},
    {&NetworkStats::failovers, "mesh.failover", "router", {}},
}};

/// The tap kind of each MeshNetwork::Attempt::Frame.
constexpr std::array<const char*, 3> kAttemptKinds{"m2", "peer1", "peer2"};

/// Async-span correlation id for the (initiator, responder) peer pair.
std::uint64_t peer_span_id(NodeId a, NodeId b) {
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

double distance(const Vec2& a, const Vec2& b) {
  const double dx = a.x - b.x, dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

MeshNetwork::MeshNetwork(Simulator& sim, crypto::Drbg rng, RadioConfig radio,
                         proto::ProtocolConfig proto_config,
                         ReliabilityConfig reliability)
    : sim_(sim),
      rng_(std::move(rng)),
      radio_(radio),
      proto_config_(proto_config),
      reliability_(reliability) {
  // The plain RadioConfig loss rate is the degenerate fault plan: one
  // uniform draw per frame, nothing else — bit-identical rng consumption
  // to the pre-fault-injection radio.
  FaultPlan plan;
  plan.loss_good = radio_.loss_probability;
  faults_ = FaultInjector(plan);
}

void MeshNetwork::set_fault_plan(const FaultPlan& plan) {
  faults_ = FaultInjector(plan);
}

NodeId MeshNetwork::add_router(Vec2 pos, proto::NetworkOperator& no,
                               proto::Timestamp cert_expires_at) {
  const NodeId id = next_id_++;
  auto provision = no.provision_router(id, cert_expires_at);
  if (revocation_ == nullptr)
    revocation_ = std::make_shared<revoke::SharedRevocationState>(
        no.params().network_public_key);
  RouterNode node;
  node.pos = pos;
  node.keypair = provision.keypair;
  node.certificate = provision.certificate;
  node.params = no.params();
  node.router = std::make_unique<proto::MeshRouter>(
      id, provision.keypair, provision.certificate, no.params(),
      rng_.fork("router-" + std::to_string(id)), proto_config_, revocation_);
  node.router->install_revocation_lists(no.current_crl(), no.current_url());
  routers_.emplace(id, std::move(node));
  return id;
}

void MeshNetwork::crash_router(NodeId router_node) {
  const auto it = routers_.find(router_node);
  if (it == routers_.end()) throw Error("mesh: no such router");
  // The crash wipes volatile state: every established session, the replay
  // cache, pending beacons. Beacon events check `down` and stay silent.
  it->second.router.reset();
  it->second.down = true;
  pending_auth_.erase(router_node);
  obs::Tracer::global().instant_at("mesh.crash", "fault", sim_us(sim_.now()),
                                   {{"router", router_node}});
}

void MeshNetwork::restart_router(NodeId router_node) {
  const auto it = routers_.find(router_node);
  if (it == routers_.end()) throw Error("mesh: no such router");
  RouterNode& node = it->second;
  if (!node.down) return;
  ++node.restarts;
  node.router = std::make_unique<proto::MeshRouter>(
      router_node, node.keypair, node.certificate, node.params,
      rng_.fork("router-" + std::to_string(router_node) + "-restart-" +
                std::to_string(node.restarts)),
      proto_config_, revocation_);
  node.down = false;
  obs::Tracer::global().instant_at("mesh.restart", "fault", sim_us(sim_.now()),
                                   {{"router", router_node}});
}

bool MeshNetwork::router_is_down(NodeId router_node) const {
  const auto it = routers_.find(router_node);
  if (it == routers_.end()) throw Error("mesh: no such router");
  return it->second.down;
}

void MeshNetwork::set_link_blocked(NodeId a, NodeId b, bool blocked) {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  if (blocked)
    blocked_links_.insert(key);
  else
    blocked_links_.erase(key);
}

bool MeshNetwork::link_blocked(NodeId a, NodeId b) const {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  return blocked_links_.contains(key);
}

bool MeshNetwork::node_down(NodeId node) const {
  const auto it = routers_.find(node);
  return it != routers_.end() && it->second.down;
}

NodeId MeshNetwork::add_user(Vec2 pos, std::unique_ptr<proto::User> user) {
  const NodeId id = next_id_++;
  UserNode node;
  node.pos = pos;
  node.user = std::move(user);
  users_.emplace(id, std::move(node));
  return id;
}

std::unique_ptr<proto::User> MeshNetwork::remove_user(NodeId id) {
  const auto it = users_.find(id);
  if (it == users_.end()) throw Error("mesh: no such user");
  UserNode& node = it->second;
  // Close the router half of the uplink (and of a draining rekey) so the
  // departed user's session state does not linger on this segment.
  if (node.serving_node.has_value()) {
    if (const auto r = routers_.find(*node.serving_node);
        r != routers_.end() && r->second.router != nullptr) {
      if (!node.uplink_session_id.empty())
        r->second.router->close_session(node.uplink_session_id);
      if (!node.old_uplink_session_id.empty())
        r->second.router->close_session(node.old_uplink_session_id);
    }
  }
  // Peer sessions and in-flight peer handshakes die on both ends.
  for (auto& [other_id, other] : users_) {
    if (other_id != id) other.peer_sessions.erase(id);
  }
  std::erase_if(peer_attempts_, [id](const auto& kv) {
    return kv.first.first == id || kv.first.second == id;
  });
  // Queued M.2s from this user vanish before the batch drains.
  for (auto& [rid, pending] : pending_auth_)
    std::erase_if(pending,
                  [id](const PendingAuth& p) { return p.user_node == id; });
  std::erase_if(blocked_links_, [id](const auto& link) {
    return link.first == id || link.second == id;
  });
  std::unique_ptr<proto::User> user = std::move(node.user);
  users_.erase(it);
  ++stats_.users_removed;
  return user;
}

proto::MeshRouter& MeshNetwork::router(NodeId id) {
  const auto it = routers_.find(id);
  if (it == routers_.end()) throw Error("mesh: no such router");
  if (it->second.router == nullptr) throw Error("mesh: router is down");
  return *it->second.router;
}

proto::User& MeshNetwork::user(NodeId id) {
  const auto it = users_.find(id);
  if (it == users_.end()) throw Error("mesh: no such user");
  return *it->second.user;
}

Vec2 MeshNetwork::position(NodeId id) const {
  if (const auto r = routers_.find(id); r != routers_.end())
    return r->second.pos;
  if (const auto u = users_.find(id); u != users_.end()) return u->second.pos;
  throw Error("mesh: no such node");
}

void MeshNetwork::move_user(NodeId id, Vec2 pos) {
  const auto it = users_.find(id);
  if (it == users_.end()) throw Error("mesh: no such user");
  it->second.pos = pos;
}

void MeshNetwork::push_revocation_lists(
    const proto::SignedRevocationList& crl,
    const proto::SignedRevocationList& url) {
  // Every router shares revocation_; one install provisions them all.
  if (revocation_ != nullptr) revocation_->install_full(crl, url);
}

void MeshNetwork::announce_rl_deltas(const proto::RLDeltaAnnounce& announce,
                                     proto::NetworkOperator& no) {
  if (routers_.empty()) return;
  const Bytes wire = announce.to_bytes();
  observe("rl-delta", wire);
  if (!radio_delivers()) {
    ++stats_.frames_lost;
    return;  // the segment stays behind until a later announcement heals it
  }
  // The segment head applies the announcement on everyone's behalf (the
  // state is shared); gaps come back as resync requests and run the full
  // round-trip with the operator, paying latency and loss on each leg.
  const NodeId head = routers_.begin()->first;
  sim_.schedule_in(radio_.latency_ms, [this, head, wire, &no] {
    const auto requests = router(head).handle_rl_announce(
        proto::RLDeltaAnnounce::from_bytes(wire));
    for (const proto::RLResyncRequest& req : requests) {
      obs::sec_emit(obs::SecEventKind::kRlResync, sim_.now(), head,
                    static_cast<std::uint64_t>(req.kind));
      const Bytes req_wire = req.to_bytes();
      observe("rl-resync-req", req_wire);
      if (!radio_delivers()) {
        ++stats_.frames_lost;
        continue;
      }
      sim_.schedule_in(radio_.latency_ms, [this, head, req_wire, &no] {
        const proto::RLResyncResponse resp =
            no.handle_resync(proto::RLResyncRequest::from_bytes(req_wire));
        const Bytes resp_wire = resp.to_bytes();
        observe("rl-resync-resp", resp_wire);
        if (!radio_delivers()) {
          ++stats_.frames_lost;
          return;
        }
        sim_.schedule_in(radio_.latency_ms, [this, head, resp_wire] {
          router(head).handle_rl_resync(
              proto::RLResyncResponse::from_bytes(resp_wire));
        });
      });
    }
  });
}

void MeshNetwork::record_event(MeshEvent event, NodeId user,
                               std::uint64_t detail) {
  const EventRow& row = kEvents[static_cast<std::size_t>(event)];
  ++(stats_.*row.counter);
  if (row.sec.has_value()) obs::sec_emit(*row.sec, sim_.now(), user, detail);
  auto& tracer = obs::Tracer::global();
  if (row.detail_key != nullptr && detail != 0)
    tracer.instant_at(row.instant, "reliability", sim_us(sim_.now()),
                      {{"user", user}, {row.detail_key, detail}});
  else
    tracer.instant_at(row.instant, "reliability", sim_us(sim_.now()),
                      {{"user", user}});
}

bool MeshNetwork::radio_delivers() {
  if (radio_.loss_probability <= 0.0) return true;
  return rng_.uniform_real() >= radio_.loss_probability;
}

template <typename Msg>
std::optional<Msg> MeshNetwork::parse(const Bytes& wire) {
  // A corrupted frame must be rejected cleanly: decode failures land here,
  // never escape, and mutate nothing.
  try {
    return Msg::from_bytes(wire);
  } catch (const std::exception&) {
    ++stats_.corrupted_rejected;
    return std::nullopt;
  }
}

void MeshNetwork::unicast(const Bytes& wire, NodeId from, NodeId to,
                          std::function<void(const Bytes&)> deliver) {
  if (link_blocked(from, to) || node_down(to)) {
    ++stats_.frames_partitioned;
    return;
  }
  const FaultVerdict verdict = faults_.judge(rng_);
  if (verdict.lost) {
    ++stats_.frames_lost;
    return;
  }
  if (verdict.extra_delay_ms > 0) ++stats_.frames_delayed;
  const SimTime delay = radio_.latency_ms + verdict.extra_delay_ms;
  Bytes copy = wire;
  if (verdict.corrupt) FaultInjector::corrupt(copy, rng_);
  sim_.schedule_in(delay, [deliver, copy = std::move(copy)] { deliver(copy); });
  if (verdict.duplicate) {
    // A MAC-layer duplicate: a clean second copy, one tick behind.
    ++stats_.frames_duplicated;
    sim_.schedule_in(delay + 1, [deliver, wire] { deliver(wire); });
  }
}

void MeshNetwork::transmit(const char* kind, const Bytes& wire, NodeId from,
                           NodeId to, std::function<void(const Bytes&)> deliver) {
  observe(kind, wire);
  unicast(wire, from, to, std::move(deliver));
}

void MeshNetwork::observe(const char* kind, BytesView payload) {
  ++stats_.frames_transmitted;
  if (taps_.empty()) return;
  WireObservation obs{sim_.now(), kind,
                      Bytes(payload.begin(), payload.end())};
  for (const auto& tap : taps_) tap(obs);
}

void MeshNetwork::add_tap(std::function<void(const WireObservation&)> tap) {
  taps_.push_back(std::move(tap));
}

void MeshNetwork::start_beaconing(SimTime start, SimTime period,
                                  SimTime until) {
  for (const auto& [id, _] : routers_) {
    for (SimTime t = start; t <= until; t += period) {
      const NodeId rid = id;
      sim_.schedule(t, [this, rid] {
        // A crashed router stays silent; its schedule resumes on restart.
        const auto it = routers_.find(rid);
        if (it == routers_.end() || it->second.router == nullptr) return;
        const BeaconMessage beacon = it->second.router->make_beacon(sim_.now());
        deliver_beacon(rid, beacon);
      });
    }
  }
}

void MeshNetwork::deliver_beacon(NodeId router_node,
                                 const BeaconMessage& beacon) {
  // One broadcast observation; each listener in range then gets an
  // independently-faulted copy (per-listener loss, as before). Copies that
  // arrive byte-identical to the sent wire share one decode; a fault-altered
  // copy goes through parse on its own.
  struct Broadcast {
    Bytes wire;
    std::optional<BeaconMessage> decoded;
  };
  const auto sent = std::make_shared<Broadcast>();
  sent->wire = beacon.to_bytes();
  observe("beacon", sent->wire);
  const Vec2 rpos = routers_.at(router_node).pos;
  for (auto& [uid, unode] : users_) {
    if (distance(rpos, unode.pos) > radio_.router_range) continue;
    const NodeId user_node = uid;
    unicast(sent->wire, router_node, user_node,
            [this, sent, user_node, router_node](const Bytes& w) {
              const bool clean = w == sent->wire;
              if (!clean || !sent->decoded) {
                auto b = parse<BeaconMessage>(w);
                if (!b.has_value()) return;
                if (!clean) {
                  user_hears_beacon(user_node, router_node, *b);
                  return;
                }
                sent->decoded = std::move(b);
              }
              user_hears_beacon(user_node, router_node, *sent->decoded);
            });
  }
}

void MeshNetwork::user_hears_beacon(NodeId user_node, NodeId router_node,
                                    const BeaconMessage& beacon) {
  const auto uit = users_.find(user_node);
  if (uit == users_.end()) return;  // roamed away while the beacon flew
  UserNode& unode = uit->second;
  if (unode.uplink.has_value() || unode.attempt.has_value()) return;
  // Failover: a router whose handshake budget ran out recently is skipped,
  // so the user attaches to the next-best router it hears instead.
  if (const auto bo = unode.router_backoff_until.find(router_node);
      bo != unode.router_backoff_until.end()) {
    if (sim_.now() < bo->second) return;
    unode.router_backoff_until.erase(bo);
  }

  auto m2 = unode.user->process_beacon(beacon, sim_.now());
  if (!m2.has_value()) return;
  unode.attempt = Attempt{Attempt::Frame::kM2, m2->to_bytes(), user_node,
                          router_node, 0, ++attempt_seq_};
  // Sim-time async span covering M.2 send → M.3 accept (or give-up); the
  // user's node id correlates begin and end.
  obs::Tracer::global().async_begin("access_handshake", "handshake", user_node,
                                    sim_us(sim_.now()),
                                    {{"router", router_node}});
  send_attempt(*unode.attempt);
}

void MeshNetwork::send_attempt(Attempt& attempt) {
  ++attempt.tries;
  if (attempt.tries > 1)
    record_event(MeshEvent::kRetransmit, attempt.from, attempt.tries);
  const Attempt::Frame frame = attempt.frame;
  const NodeId from = attempt.from, to = attempt.to;
  // M.2 rides the power-boosted uplink (paper footnote 3): direct to the
  // router.
  transmit(kAttemptKinds[static_cast<std::size_t>(frame)], attempt.wire, from,
           to, [this, frame, from, to](const Bytes& w) {
             if (frame == Attempt::Frame::kM2)
               on_m2(to, from, w);
             else if (frame == Attempt::Frame::kPeerHello)
               on_peer_hello(to, from, w);
             else
               on_peer_reply(to, from, w);
           });
  // The RTO timer drives both retransmission and, once the budget is gone,
  // giving up — which is also how a lost M.3 or a rejected request frees
  // the attempt for the next beacon.
  const std::uint64_t generation = attempt.generation;
  sim_.schedule_in(rto_for(attempt.tries), [this, frame, from, to, generation] {
    on_attempt_timeout(frame, from, to, generation);
  });
}

void MeshNetwork::on_attempt_timeout(Attempt::Frame frame, NodeId from,
                                     NodeId to, std::uint64_t generation) {
  const bool access = frame == Attempt::Frame::kM2;
  const auto uit = users_.find(from);
  const auto pit = peer_attempts_.find({from, to});
  Attempt* attempt = nullptr;
  if (access && uit != users_.end() && uit->second.attempt.has_value())
    attempt = &*uit->second.attempt;
  else if (!access && pit != peer_attempts_.end())
    attempt = &pit->second;
  if (attempt == nullptr || attempt->generation != generation)
    return;  // completed or superseded — a stale timer is a no-op
  // Completion is the sender's side existing: the uplink after M.3; for the
  // peer frames the sender's half of the session — the initiator holds it
  // after M~.2, the responder after M~.3. A sender that roamed away
  // mid-handshake is done too.
  const bool done = uit == users_.end() ||
                    (access ? uit->second.uplink.has_value()
                            : uit->second.peer_sessions.contains(to));
  if (!done && attempt->tries <= kRetryBudget) {
    send_attempt(*attempt);
    return;
  }
  if (!done) {
    record_event(MeshEvent::kHandshakeTimeout, from, to);
    if (access) {
      obs::Tracer::global().async_end("access_handshake", "handshake", from,
                                      sim_us(sim_.now()), {{"timed_out", 1}});
      uit->second.router_backoff_until[to] = sim_.now() + kFailoverBackoffMs;
      uit->second.last_failed_router = to;
    } else if (frame == Attempt::Frame::kPeerHello) {
      // Only the initiator's attempt owns the handshake span — the
      // responder's M~.2 attempt opened none.
      obs::Tracer::global().async_end("peer_handshake", "handshake",
                                      peer_span_id(from, to),
                                      sim_us(sim_.now()), {{"timed_out", 1}});
    }
  }
  if (access)
    uit->second.attempt.reset();
  else
    peer_attempts_.erase(pit);
}

void MeshNetwork::on_m2(NodeId me, NodeId from, const Bytes& wire) {
  auto m2 = parse<proto::AccessRequest>(wire);
  if (!m2.has_value()) return;
  const auto r = routers_.find(me);
  if (r == routers_.end() || r->second.router == nullptr) return;
  // Arrivals enqueue; the first one in a tick schedules a same-time drain
  // (FIFO among same-time events puts it after every arrival of the tick),
  // so all M.2s landing together verify as one batch.
  std::vector<PendingAuth>& pending = pending_auth_[me];
  pending.push_back(PendingAuth{from, std::move(*m2)});
  if (pending.size() == 1)
    sim_.schedule_in(0, [this, me] { drain_auth_batch(me); });
}

void MeshNetwork::on_m3(NodeId user_node, NodeId router_node,
                        const Bytes& wire) {
  const auto m3 = parse<proto::AccessConfirm>(wire);
  if (!m3.has_value()) return;
  const auto uit = users_.find(user_node);
  if (uit == users_.end()) return;  // roamed away while the M.3 flew
  UserNode& unode = uit->second;
  // A duplicate M.3 after completion is a no-op: the pending-handshake
  // entry was consumed, so process_access_confirm returns nullopt.
  auto session = unode.user->process_access_confirm(*m3);
  if (!session.has_value()) return;
  unode.uplink_session_id = session->id();
  unode.uplink = std::move(*session);
  unode.serving = static_cast<proto::RouterId>(router_node);
  unode.serving_node = router_node;
  unode.rekey_pending = false;
  unode.attempt.reset();
  obs::Tracer::global().async_end("access_handshake", "handshake", user_node,
                                  sim_us(sim_.now()),
                                  {{"router", router_node}});
  if (unode.last_failed_router.has_value() &&
      *unode.last_failed_router != router_node)
    record_event(MeshEvent::kFailover, user_node, router_node);
  unode.last_failed_router.reset();
}

void MeshNetwork::drain_auth_batch(NodeId router_node) {
  std::vector<PendingAuth> batch = std::move(pending_auth_[router_node]);
  pending_auth_.erase(router_node);
  if (batch.empty()) return;
  const auto rit = routers_.find(router_node);
  if (rit == routers_.end() || rit->second.router == nullptr) return;

  std::vector<proto::AccessRequest> requests;
  requests.reserve(batch.size());
  for (const PendingAuth& p : batch) requests.push_back(p.m2);
  auto outcomes =
      rit->second.router->handle_access_requests(requests, sim_.now());

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const NodeId user_node = batch[i].user_node;
    // A rejected request sends nothing back; the user's RTO timer
    // retransmits and eventually abandons the attempt.
    if (!outcomes[i].has_value()) continue;
    transmit("m3", outcomes[i]->confirm.to_bytes(), router_node, user_node,
             [this, user_node, router_node](const Bytes& w) {
               on_m3(user_node, router_node, w);
             });
  }
}

void MeshNetwork::establish_peer_links() {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (auto it = users_.begin(); it != users_.end(); ++it) {
    auto jt = it;
    for (++jt; jt != users_.end(); ++jt) {
      if (distance(it->second.pos, jt->second.pos) <= radio_.user_range)
        pairs.emplace_back(it->first, jt->first);
    }
  }
  for (const auto& [a, b] : pairs) {
    sim_.schedule_in(1, [this, a = a, b = b] { start_peer_handshake(a, b); });
  }
}

void MeshNetwork::start_peer_handshake(NodeId a, NodeId b) {
  const auto ait = users_.find(a);
  if (ait == users_.end() || !users_.contains(b)) return;
  UserNode& na = ait->second;
  if (na.peer_sessions.contains(b)) return;
  if (peer_attempts_.contains({a, b})) return;  // already in flight

  // Both need a generator g from a beacon; use the serving router's, or the
  // canonical generator when not yet attached.
  const curve::G1 g = curve::Bn254::get().g1_gen;
  const proto::PeerHello hello = na.user->make_peer_hello(g, sim_.now());
  Attempt& attempt =
      peer_attempts_
          .emplace(std::make_pair(a, b),
                   Attempt{Attempt::Frame::kPeerHello, hello.to_bytes(), a, b,
                           0, ++attempt_seq_})
          .first->second;
  obs::Tracer::global().async_begin("peer_handshake", "handshake",
                                    peer_span_id(a, b), sim_us(sim_.now()),
                                    {{"initiator", a}, {"responder", b}});
  send_attempt(attempt);
}

void MeshNetwork::on_peer_hello(NodeId me, NodeId from, const Bytes& wire) {
  const auto hello = parse<proto::PeerHello>(wire);
  if (!hello.has_value()) return;
  const auto mit = users_.find(me);
  if (mit == users_.end()) return;
  UserNode& nb = mit->second;
  // A duplicate hello is answered from the user's reply cache
  // (byte-identical M~.2, no new DH share).
  auto reply = nb.user->process_peer_hello(*hello, sim_.now());
  if (!reply.has_value()) return;
  const Bytes reply_wire = reply->to_bytes();
  if (!nb.peer_sessions.contains(from)) {
    const auto [it, inserted] = peer_attempts_.try_emplace(
        std::make_pair(me, from),
        Attempt{Attempt::Frame::kPeerReply, reply_wire, me, from, 0,
                ++attempt_seq_});
    if (inserted) {
      // First hello: the reply rides the responder's own RTO timer, since a
      // lost M~.3 is recovered by retransmitting M~.2.
      send_attempt(it->second);
      return;
    }
  }
  // Duplicate hello while the attempt (or a finished session) exists: send
  // the reply once more without disturbing the running timer.
  transmit("peer2", reply_wire, me, from,
           [this, me, from](const Bytes& w) { on_peer_reply(from, me, w); });
}

void MeshNetwork::on_peer_reply(NodeId me, NodeId from, const Bytes& wire) {
  const auto reply = parse<proto::PeerReply>(wire);
  if (!reply.has_value()) return;
  const auto mit = users_.find(me);
  if (mit == users_.end()) return;
  UserNode& na = mit->second;
  auto established = na.user->process_peer_reply(*reply, sim_.now());
  if (established.has_value()) {
    na.peer_sessions.emplace(from, std::move(established->session));
    peer_attempts_.erase({me, from});  // initiator attempt complete
    obs::Tracer::global().async_end("peer_handshake", "handshake",
                                    peer_span_id(me, from),
                                    sim_us(sim_.now()));
    transmit("peer3", established->confirm.to_bytes(), me, from,
             [this, me, from](const Bytes& w) { on_peer_confirm(from, me, w); });
    return;
  }
  // Duplicate M~.2 — the responder retransmitted because our M~.3 was lost.
  // The initiator's resend cache returns the byte-identical confirmation.
  if (auto confirm = na.user->cached_peer_confirm(*reply);
      confirm.has_value()) {
    // No try count: M~.3 has no timer of its own.
    record_event(MeshEvent::kRetransmit, me);
    transmit("peer3", confirm->to_bytes(), me, from,
             [this, me, from](const Bytes& w) { on_peer_confirm(from, me, w); });
  }
}

void MeshNetwork::on_peer_confirm(NodeId me, NodeId from, const Bytes& wire) {
  const auto confirm = parse<proto::PeerConfirm>(wire);
  if (!confirm.has_value()) return;
  const auto mit = users_.find(me);
  if (mit == users_.end()) return;
  UserNode& nb = mit->second;
  // A duplicate M~.3 is a no-op: the pending-responder entry was consumed.
  auto session = nb.user->process_peer_confirm(*confirm);
  if (!session.has_value()) return;
  nb.peer_sessions.emplace(from, std::move(*session));
  peer_attempts_.erase({me, from});  // responder attempt complete
}

std::optional<NodeId> MeshNetwork::next_relay_hop(NodeId from,
                                                  const Vec2& target) {
  const UserNode& node = users_.at(from);
  const double own = distance(node.pos, target);
  std::optional<NodeId> best;
  double best_dist = own;
  for (const auto& [peer, _] : node.peer_sessions) {
    if (link_blocked(from, peer)) continue;  // route around partitions
    const double d = distance(users_.at(peer).pos, target);
    if (d < best_dist) {
      best_dist = d;
      best = peer;
    }
  }
  return best;
}

void MeshNetwork::start_rekey(NodeId user_id) {
  UserNode& node = users_.at(user_id);
  if (!node.uplink.has_value() || node.rekey_pending) return;
  record_event(MeshEvent::kRekey, user_id);
  node.rekey_pending = true;
  // The retired session keeps draining in-flight frames; the next beacon
  // starts a fresh anonymous handshake (never a resumption).
  node.old_uplink = std::move(node.uplink);
  node.uplink.reset();
  node.old_uplink_session_id = std::move(node.uplink_session_id);
  node.uplink_session_id.clear();
  const Bytes old_id = node.old_uplink_session_id;
  const NodeId router_node = node.serving_node.value_or(0);
  sim_.schedule_in(reliability_.drain_window_ms,
                   [this, user_id, router_node, old_id] {
    if (const auto r = routers_.find(router_node);
        r != routers_.end() && r->second.router != nullptr)
      r->second.router->close_session(old_id);
    const auto u = users_.find(user_id);
    if (u == users_.end()) return;
    if (u->second.old_uplink_session_id == old_id) {
      u->second.old_uplink.reset();
      u->second.old_uplink_session_id.clear();
    }
  });
}

void MeshNetwork::rekey(NodeId user_id) {
  if (!users_.contains(user_id)) throw Error("mesh: no such user");
  start_rekey(user_id);
}

void MeshNetwork::maybe_rekey(NodeId user_id, UserNode& node) {
  if (!node.uplink.has_value() || node.rekey_pending) return;
  const bool exhausted = node.uplink->seq_exhausted();
  const bool frames_spent =
      reliability_.rekey_after_frames > 0 &&
      node.uplink->frames_sent() >= reliability_.rekey_after_frames;
  if (exhausted || frames_spent) start_rekey(user_id);
}

bool MeshNetwork::send_data(NodeId user_id, BytesView payload) {
  UserNode& origin = users_.at(user_id);
  // Rekey policy first: a retired uplink moves to the drain window and this
  // very frame already rides the old session while the fresh handshake runs.
  maybe_rekey(user_id, origin);
  const bool on_old = !origin.uplink.has_value();
  proto::Session* uplink = origin.uplink.has_value() ? &*origin.uplink
                           : origin.old_uplink.has_value()
                               ? &*origin.old_uplink
                               : nullptr;
  if (uplink == nullptr || !origin.serving_node.has_value()) {
    ++stats_.data_undeliverable;
    return false;
  }
  const Bytes& session_id =
      on_old ? origin.old_uplink_session_id : origin.uplink_session_id;
  const NodeId router_node = *origin.serving_node;
  const Vec2 rpos = routers_.at(router_node).pos;

  // End-to-end protection with the router session (relays see ciphertext).
  // try_seal refuses at sequence exhaustion — surfaced as a rekey trigger,
  // never an exception on the data path.
  auto frame = uplink->try_seal(payload);
  if (!frame.has_value()) {
    if (!on_old) {
      start_rekey(user_id);
    } else {
      origin.old_uplink.reset();
      origin.old_uplink_session_id.clear();
    }
    ++stats_.data_undeliverable;
    return false;
  }
  Bytes wire = frame->to_bytes();

  if (node_down(router_node)) {
    // The serving router is dead (crash, no beacons): abandon the uplink so
    // the next beacon — from whichever router — re-authenticates.
    origin.last_failed_router = router_node;
    reassociate(user_id);
    ++stats_.data_undeliverable;
    return false;
  }

  // Greedy geographic relay until within user_range of the router. The
  // data path is synchronous, so of the fault plan only loss, corruption,
  // and partitions apply per hop (duplication/reorder are meaningless for
  // an inline delivery).
  NodeId current = user_id;
  std::uint64_t hops = 0;
  const auto hop_survives = [&](NodeId from, NodeId to) {
    observe("data", wire);
    if (link_blocked(from, to) || node_down(to)) {
      ++stats_.frames_partitioned;
      return false;
    }
    const FaultVerdict verdict = faults_.judge(rng_);
    if (verdict.lost) {
      ++stats_.frames_lost;
      return false;
    }
    if (verdict.corrupt) FaultInjector::corrupt(wire, rng_);
    return true;
  };
  while (distance(users_.at(current).pos, rpos) > radio_.user_range) {
    const auto next = next_relay_hop(current, rpos);
    if (!next.has_value()) {
      ++stats_.data_undeliverable;
      return false;
    }
    if (!hop_survives(current, *next)) return false;
    current = *next;
    ++hops;
  }
  if (!hop_survives(current, router_node)) return false;
  const auto rit = routers_.find(router_node);
  proto::Session* rsession = rit->second.router == nullptr
                                 ? nullptr
                                 : rit->second.router->session(session_id);
  if (rsession == nullptr) {
    // The router lost the session (crash/restart): drop the stale uplink so
    // the next beacon re-authenticates — possibly to another router.
    origin.last_failed_router = router_node;
    reassociate(user_id);
    ++stats_.data_undeliverable;
    return false;
  }
  const auto parsed = parse<DataFrame>(wire);
  if (!parsed.has_value()) {
    ++stats_.data_undeliverable;
    return false;
  }
  const auto got = rsession->open(*parsed);
  if (!got.has_value()) {
    ++stats_.data_undeliverable;
    return false;
  }
  stats_.relay_hops_total += hops;
  ++stats_.data_delivered;
  return true;
}

NodeId MeshNetwork::add_access_point(Vec2 pos) {
  const NodeId id = next_id_++;
  access_points_.emplace(id, pos);
  return id;
}

const Bytes& MeshNetwork::backbone_key(NodeId a, NodeId b) {
  const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  auto it = backbone_keys_.find(key);
  if (it == backbone_keys_.end()) {
    it = backbone_keys_.emplace(key, rng_.bytes(32)).first;
  }
  return it->second;
}

std::vector<NodeId> MeshNetwork::backbone_neighbors(NodeId node) const {
  Vec2 pos;
  if (const auto r = routers_.find(node); r != routers_.end()) {
    pos = r->second.pos;
  } else if (const auto a = access_points_.find(node);
             a != access_points_.end()) {
    pos = a->second;
  } else {
    throw Error("mesh: not a backbone node");
  }
  std::vector<NodeId> out;
  for (const auto& [id, rn] : routers_) {
    if (id != node && distance(pos, rn.pos) <= kBackboneRange)
      out.push_back(id);
  }
  for (const auto& [id, ap_pos] : access_points_) {
    if (id != node && distance(pos, ap_pos) <= kBackboneRange)
      out.push_back(id);
  }
  return out;
}

std::vector<NodeId> MeshNetwork::backbone_path_to_ap(
    NodeId router_node) const {
  std::map<NodeId, NodeId> parent{{router_node, router_node}};
  std::vector<NodeId> frontier{router_node};
  while (!frontier.empty()) {
    std::vector<NodeId> next;
    for (const NodeId node : frontier) {
      if (access_points_.contains(node)) {
        std::vector<NodeId> path{node};
        while (path.back() != router_node)
          path.push_back(parent.at(path.back()));
        std::reverse(path.begin(), path.end());
        return path;
      }
      for (const NodeId nb : backbone_neighbors(node))
        if (parent.emplace(nb, node).second) next.push_back(nb);
    }
    frontier = std::move(next);
  }
  return {};
}

std::optional<std::size_t> MeshNetwork::backbone_hops_to_ap(
    NodeId router_node) const {
  if (!routers_.contains(router_node)) throw Error("mesh: not a router");
  const std::vector<NodeId> path = backbone_path_to_ap(router_node);
  if (path.empty()) return std::nullopt;
  return path.size() - 1;
}

bool MeshNetwork::send_to_internet(NodeId user_id, BytesView payload) {
  // First leg: the standard user -> serving-router delivery.
  if (!send_data(user_id, payload)) return false;
  const NodeId router_node = *users_.at(user_id).serving_node;

  // Second leg: the shortest backbone path to the nearest AP; every hop
  // carries the (already session-encrypted) frame under the link's secure
  // channel.
  const std::vector<NodeId> path = backbone_path_to_ap(router_node);
  if (path.empty()) {
    ++stats_.data_undeliverable;
    return false;
  }

  // Each hop re-encrypts under the link's secure-channel key, so the air
  // interface carries only AEAD ciphertext even on the backbone.
  Bytes frame(payload.begin(), payload.end());
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Bytes& key = backbone_key(path[i], path[i + 1]);
    const Bytes nonce = rng_.bytes(crypto::kAeadNonceSize);
    const Bytes sealed = crypto::aead_seal(key, nonce, {}, frame);
    observe("backbone", sealed);
    const auto opened = crypto::aead_open(key, nonce, {}, sealed);
    if (!opened.has_value()) {
      ++stats_.backbone_mac_failures;  // unreachable with honest links
      return false;
    }
    frame = *opened;
    ++stats_.backbone_hops_total;
  }
  ++stats_.internet_delivered;
  return true;
}

void MeshNetwork::reassociate(NodeId user_id) {
  UserNode& node = users_.at(user_id);
  node.uplink.reset();
  node.uplink_session_id.clear();
  node.old_uplink.reset();
  node.old_uplink_session_id.clear();
  node.serving.reset();
  node.serving_node.reset();
  node.attempt.reset();  // pending RTO timers go stale via the generation
  node.rekey_pending = false;
}

bool MeshNetwork::is_connected(NodeId user_id) const {
  const auto it = users_.find(user_id);
  if (it == users_.end()) return false;
  // During a rekey's drain window the retired session still counts — the
  // user holds an authenticated uplink throughout.
  return it->second.uplink.has_value() || it->second.old_uplink.has_value();
}

std::optional<proto::RouterId> MeshNetwork::serving_router(
    NodeId user_id) const {
  const auto it = users_.find(user_id);
  if (it == users_.end()) return std::nullopt;
  return it->second.serving;
}

std::vector<NodeId> MeshNetwork::router_ids() const {
  std::vector<NodeId> out;
  for (const auto& [id, _] : routers_) out.push_back(id);
  return out;
}

std::vector<NodeId> MeshNetwork::user_ids() const {
  std::vector<NodeId> out;
  for (const auto& [id, _] : users_) out.push_back(id);
  return out;
}

void absorb_network_stats(const NetworkStats& totals,
                          std::uint64_t sim_events_processed) {
  obs::absorb(totals);
  obs::Registry::global()
      .counter("sim.events_processed")
      .set(sim_events_processed);
}

proto::RouterStats MeshNetwork::router_stats_total() const {
  // Crashed routers have no live MeshRouter, so their since-restart stats
  // are gone, exactly as stats() reporting always worked.
  proto::RouterStats totals;
  for (const auto& [id, node] : routers_) {
    if (node.router == nullptr) continue;
    totals = obs::sum(totals, node.router->stats());
  }
  return totals;
}

proto::UserStats MeshNetwork::user_stats_total() const {
  proto::UserStats totals;
  for (const auto& [id, node] : users_)
    totals = obs::sum(totals, node.user->stats());
  return totals;
}

groupsig::OpCounters MeshNetwork::verify_ops_total() const {
  groupsig::OpCounters totals;
  for (const auto& [id, node] : routers_) {
    if (node.router == nullptr) continue;
    totals.merge(node.router->verify_ops());
  }
  return totals;
}

void MeshNetwork::publish_metrics() const {
  // Mirror the deterministic stats structs into the registry (idempotent —
  // Counter::set of totals; see obs/fields.hpp).
  obs::absorb(router_stats_total());
  obs::absorb(user_stats_total());
  obs::absorb(verify_ops_total());
  if (revocation_ != nullptr) obs::absorb(revocation_->stats());
  absorb_network_stats(stats_, sim_.events_processed());
  // Flush any buffered security events to the trace sink alongside the
  // counter snapshot (single-network drivers; the metro barrier drains for
  // sharded runs).
  obs::drain_sec_events();
}

}  // namespace peace::mesh
