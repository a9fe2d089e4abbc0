#include "mesh/metro.hpp"

#include <algorithm>
#include <thread>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/sec_event.hpp"

namespace peace::mesh {

ShardId MetroSimulation::add_shard(std::string name, const std::string& seed,
                                   RadioConfig radio,
                                   proto::ProtocolConfig proto_config) {
  const ShardId id = static_cast<ShardId>(shards_.size());
  ShardConfig sc;
  sc.inbox_cap = config_.shard_inbox_cap;
  sc.frame_cap = config_.shard_frame_cap;
  sc.event_budget = config_.shard_event_budget;
  // The seed is used verbatim: a shard's DRBG stream depends only on its
  // own seed string, never on shard count or creation order — and a
  // single-shard metro seeded like a plain MeshNetwork draws the identical
  // stream (the bit-identity contract). Callers give each shard a distinct
  // seed (e.g. "metro/shard-3").
  shards_.push_back(std::make_unique<Shard>(id, std::move(name), sc,
                                            crypto::Drbg::from_string(seed),
                                            radio, proto_config));
  shard_links_.emplace_back();
  ticks_.emplace_back();
  return id;
}

void MetroSimulation::connect_shards(ShardId a, ShardId b) {
  if (a == b || a >= shards_.size() || b >= shards_.size())
    throw Error("metro: bad shard link");
  auto link = [&](ShardId x, ShardId y) {
    auto& adj = shard_links_[x];
    // Sorted adjacency keeps the relay BFS deterministic.
    auto it = std::lower_bound(adj.begin(), adj.end(), y);
    if (it == adj.end() || *it != y) adj.insert(it, y);
  };
  link(a, b);
  link(b, a);
}

void MetroSimulation::set_shard_link_blocked(ShardId a, ShardId b,
                                             bool blocked) {
  if (blocked)
    blocked_shard_links_.insert(ordered(a, b));
  else
    blocked_shard_links_.erase(ordered(a, b));
}

bool MetroSimulation::shard_link_blocked(ShardId a, ShardId b) const {
  return blocked_shard_links_.contains(ordered(a, b));
}

MetroUserId MetroSimulation::add_user(ShardId shard_id, Vec2 pos,
                                      std::unique_ptr<proto::User> user) {
  const NodeId node = shard(shard_id).net().add_user(pos, std::move(user));
  const MetroUserId id = next_user_id_++;
  users_[id] = UserRecord{shard_id, node, false};
  return id;
}

void MetroSimulation::roam_user(MetroUserId id, ShardId dest, Vec2 pos) {
  auto it = users_.find(id);
  if (it == users_.end()) throw Error("metro: unknown user");
  UserRecord& rec = it->second;
  if (rec.in_transit) throw Error("metro: user already in transit");
  if (rec.shard == dest) {
    // Intra-segment roaming: the ordinary move + reassociate path; the
    // next beacon re-authenticates to the best router at the new position.
    Shard& s = shard(dest);
    s.net().move_user(rec.node, pos);
    s.net().reassociate(rec.node);
    return;
  }
  Shard& src = shard(rec.shard);
  CrossShardMsg msg;
  msg.kind = CrossShardMsg::Kind::kUserHandoff;
  msg.from = rec.shard;
  msg.to = dest;
  msg.seq = stamp();
  msg.user = id;
  msg.pos = pos;
  msg.carried = src.net().remove_user(rec.node);
  src.emit(std::move(msg));
  rec.in_transit = true;
}

std::optional<MetroSimulation::UserLocation> MetroSimulation::locate_user(
    MetroUserId id) const {
  auto it = users_.find(id);
  if (it == users_.end() || it->second.in_transit) return std::nullopt;
  return UserLocation{it->second.shard, it->second.node};
}

bool MetroSimulation::user_in_transit(MetroUserId id) const {
  auto it = users_.find(id);
  return it != users_.end() && it->second.in_transit;
}

bool MetroSimulation::post_frame(ShardId from, ShardId to, BytesView payload,
                                 std::uint32_t tag) {
  Shard& src = shard(from);
  auto frame = src.arena().acquire_copy(payload);
  if (!frame) {
    ++tally(from).frames_shed;
    return false;
  }
  CrossShardMsg msg;
  msg.kind = CrossShardMsg::Kind::kFrame;
  msg.from = from;
  msg.to = to;
  msg.seq = stamp();
  msg.tag = tag;
  msg.frame = std::move(*frame);
  src.emit(std::move(msg));
  ++tally(from).frames_posted;
  return true;
}

bool MetroSimulation::relay_to_internet(ShardId from, BytesView payload) {
  Shard& src = shard(from);
  if (src.net().access_point_count() > 0) {
    // The segment has its own wired exit — no inter-shard hop needed. The
    // in-segment backbone path (send_to_internet) is the caller's business;
    // the metro layer only counts the delivery.
    ++tally(from).relay_delivered;
    return true;
  }
  const auto hop = next_hop_to_ap(from);
  if (!hop) {
    ++tally(from).relay_dropped;
    return false;
  }
  auto frame = src.arena().acquire_copy(payload);
  if (!frame) {
    ++tally(from).frames_shed;
    return false;
  }
  CrossShardMsg msg;
  msg.kind = CrossShardMsg::Kind::kInternetRelay;
  msg.from = from;
  msg.to = *hop;
  msg.seq = stamp();
  msg.frame = std::move(*frame);
  src.emit(std::move(msg));
  return true;
}

void MetroSimulation::announce_rl_deltas(const proto::RLDeltaAnnounce& announce,
                                         proto::NetworkOperator& no) {
  // Every segment holds its own RCU revocation state; the operator's
  // distribution channel reaches them all (paper III.A), each over its own
  // lossy radio draw.
  for (auto& s : shards_) s->net().announce_rl_deltas(announce, no);
}

proto::VerifyPool& MetroSimulation::pool() {
  if (pool_ == nullptr) {
    const unsigned wanted = config_.threads != 0
                                ? config_.threads
                                : std::thread::hardware_concurrency();
    const auto threads = static_cast<unsigned>(std::clamp<std::size_t>(
        wanted, 1, std::max<std::size_t>(1, shards_.size())));
    pool_ = std::make_unique<proto::VerifyPool>(threads);
  }
  return *pool_;
}

void MetroSimulation::run_shard(Shard& shard, SimTime barrier) {
  // One sample per busy shard per tick: the spread across a tick's samples
  // is the imbalance a parallel tick waits on.
  static obs::Histogram& tick_hist =
      obs::Registry::global().histogram("metro.shard_tick_us");
  ShardTick& tick = ticks_[shard.id()];
  // Ambient attribution for the security-event stream: everything the
  // shard's event loop emits (router rejects, timeouts, resyncs) is tagged
  // with this shard id and captured for the barrier. Observer state only.
  obs::set_current_shard(shard.id());
  obs::set_sec_capture(&tick.sec_events);
  try {
    obs::Span span("metro.shard_tick", "metro", &tick_hist);
    span.arg("shard", shard.id());
    shard.sim().run_until(barrier);
  } catch (...) {
    tick.error = std::current_exception();
  }
  obs::set_sec_capture(nullptr);
  obs::set_current_shard(0);
}

void MetroSimulation::run_shards(SimTime barrier) {
  busy_.clear();
  for (auto& s : shards_) {
    if (s->sim().has_due(barrier))
      busy_.push_back(s.get());
    else
      s->sim().run_until(barrier);  // nothing due: only the clock moves
  }
  // During a tick a shard touches only itself, read-only topology and
  // const operator reads; what it emits for the metro (stamps, MetroStats,
  // security events) waits in its ShardTick. So running busy shards on N
  // threads changes no result (docs/ARCHITECTURE.md §7.2). A tick with one
  // busy shard skips the pool's wake-up cost.
  in_tick_ = true;
  if (busy_.size() >= 2 && pool().threads() > 1) {
    ++parallel_ticks_;
    pool().run(busy_.size(),
               [&](std::size_t k) { run_shard(*busy_[k], barrier); });
  } else {
    for (Shard* s : busy_) run_shard(*s, barrier);
  }
  in_tick_ = false;

  // Fold in shard-id order: exactly the sequence one thread visiting the
  // shards in id order would have produced.
  std::exception_ptr error;
  for (ShardTick& tick : ticks_) {
    stats_ = obs::sum(stats_, tick.stats);
    tick.stats = {};
    obs::replay_sec_events(tick.sec_events);
    tick.sec_events.clear();
    if (error == nullptr) error = tick.error;
    tick.error = nullptr;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void MetroSimulation::run_until(SimTime end) {
  while (now_ < end) {
    const SimTime barrier = std::min(now_ + config_.tick_ms, end);
    run_shards(barrier);
    now_ = barrier;
    ++stats_.barriers;

    // Barrier phase 1 — route. Stamp the tick's messages in (shard id,
    // emission order) — the order one thread would have stamped them in —
    // then replay every outbox in global seq order, so routing decisions
    // (parking, cap drops) are independent of shard visit order.
    std::vector<CrossShardMsg> moving;
    for (auto& s : shards_) {
      for (CrossShardMsg& msg : s->take_outbox()) {
        if (msg.seq == kUnstamped) msg.seq = stamp();
        moving.push_back(std::move(msg));
      }
    }
    std::sort(moving.begin(), moving.end(),
              [](const CrossShardMsg& a, const CrossShardMsg& b) {
                return a.seq < b.seq;
              });
    retry_parked();  // older (parked) handoffs re-offer before new traffic
    for (auto& msg : moving) route(std::move(msg));

    // Barrier phase 2 — apply, shard by shard in id order, arrival order
    // within a shard. All shard clocks sit exactly at the barrier, so
    // everything a message schedules lands in the next tick.
    for (auto& s : shards_) {
      while (!s->inbox().empty()) {
        CrossShardMsg msg = std::move(s->inbox().front());
        s->inbox().pop_front();
        apply(*s, std::move(msg));
      }
    }

    // Barrier phase 3 — observe. Drain the tick's security events to the
    // trace sink and, when a HealthMonitor is attached, feed them into its
    // windows and advance its evaluation clock. Strictly read-only with
    // respect to the simulation: detaching the monitor changes nothing
    // upstream (DeterminismTest.TelemetryIsNeutral).
    if (health_ != nullptr) {
      std::vector<obs::SecEvent> drained;
      obs::drain_sec_events(&drained);
      for (const obs::SecEvent& e : drained) health_->ingest(e);
      health_->tick(now_);
    } else {
      obs::drain_sec_events();
    }
  }
}

void MetroSimulation::route(CrossShardMsg msg) {
  ++stats_.msgs_routed;
  const bool blocked = shard_link_blocked(msg.from, msg.to);
  if (msg.kind == CrossShardMsg::Kind::kUserHandoff) {
    Shard& dest = shard(msg.to);
    if (!blocked && !dest.inbox_full()) {
      dest.enqueue(std::move(msg));
      return;
    }
    // A handoff carries a live proto::User — park it rather than lose it.
    if (parked_.size() >= config_.pending_handoff_cap) {
      // Drop the OLDEST parked user: it has waited longest with no healed
      // path, and bounded memory beats unbounded queues. The user leaves
      // the metro (churn); its record disappears.
      users_.erase(parked_.front().msg.user);
      parked_.pop_front();
      ++stats_.handoffs_dropped;
    }
    parked_.push_back(ParkedHandoff{std::move(msg)});
    ++stats_.handoffs_parked;
    return;
  }
  if (blocked) {
    // Frames shed on a partitioned backbone link; the pooled buffer
    // returns to its origin arena as the message dies.
    if (msg.kind == CrossShardMsg::Kind::kInternetRelay)
      ++stats_.relay_dropped;
    else
      ++stats_.frames_dropped;
    return;
  }
  if (!shard(msg.to).enqueue(std::move(msg))) ++stats_.inbox_dropped;
}

void MetroSimulation::apply(Shard& dest, CrossShardMsg msg) {
  switch (msg.kind) {
    case CrossShardMsg::Kind::kUserHandoff: {
      ++stats_.handoffs_completed;
      const NodeId node = dest.net().add_user(msg.pos, std::move(msg.carried));
      auto it = users_.find(msg.user);
      if (it != users_.end()) it->second = UserRecord{dest.id(), node, false};
      break;
    }
    case CrossShardMsg::Kind::kFrame: {
      if (frame_handler_) frame_handler_(dest.id(), msg.tag, msg.frame.bytes());
      break;
    }
    case CrossShardMsg::Kind::kInternetRelay: {
      if (dest.net().access_point_count() > 0) {
        ++stats_.relay_delivered;
        break;
      }
      const auto hop = next_hop_to_ap(dest.id());
      if (!hop) {
        ++stats_.relay_dropped;
        break;
      }
      // One shard hop per tick: forward at the NEXT barrier.
      msg.from = dest.id();
      msg.to = *hop;
      msg.seq = stamp();
      dest.emit(std::move(msg));
      break;
    }
  }
}

void MetroSimulation::retry_parked() {
  // One pass over the parked FIFO in arrival order; survivors keep their
  // relative order for the next barrier.
  for (std::size_t n = parked_.size(); n-- > 0;) {
    ParkedHandoff p = std::move(parked_.front());
    parked_.pop_front();
    Shard& dest = shard(p.msg.to);
    if (!shard_link_blocked(p.msg.from, p.msg.to) && !dest.inbox_full())
      dest.enqueue(std::move(p.msg));
    else
      parked_.push_back(std::move(p));
  }
}

std::optional<ShardId> MetroSimulation::next_hop_to_ap(ShardId from) const {
  // BFS over the inter-shard backbone (sorted adjacency, blocked links
  // skipped) to the nearest shard owning an access point; returns the
  // first hop of that shortest path. Deterministic by construction.
  std::vector<ShardId> first_hop(shards_.size(), from);
  std::vector<bool> seen(shards_.size(), false);
  std::deque<ShardId> frontier;
  seen[from] = true;
  frontier.push_back(from);
  while (!frontier.empty()) {
    const ShardId at = frontier.front();
    frontier.pop_front();
    for (const ShardId next : shard_links_[at]) {
      if (seen[next] || shard_link_blocked(at, next)) continue;
      seen[next] = true;
      first_hop[next] = at == from ? next : first_hop[at];
      if (shards_[next]->net().access_point_count() > 0)
        return first_hop[next];
      frontier.push_back(next);
    }
  }
  return std::nullopt;
}

NetworkStats MetroSimulation::network_stats_total() const {
  NetworkStats totals;
  for (const auto& s : shards_) totals = obs::sum(totals, s->net().stats());
  return totals;
}

std::uint64_t MetroSimulation::sim_events_total() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->sim().events_processed();
  return total;
}

void MetroSimulation::publish_metrics() const {
  // Merge every per-shard stats struct with its field-wise sum, then
  // absorb the totals exactly as a single MeshNetwork would. Every merge
  // is commutative and associative, so shard visit order cannot leak into
  // the exported values (MetroTest.StatsMergeOrderIndependence).
  proto::RouterStats routers;
  proto::UserStats users;
  groupsig::OpCounters ops;
  revoke::SharedRevocationStats revocation;
  bool any_revocation = false;
  for (const auto& s : shards_) {
    routers = obs::sum(routers, s->net().router_stats_total());
    users = obs::sum(users, s->net().user_stats_total());
    ops = obs::sum(ops, s->net().verify_ops_total());
    if (s->net().revocation() != nullptr) {
      revocation = obs::sum(revocation, s->net().revocation()->stats());
      any_revocation = true;
    }
  }
  obs::absorb(routers);
  obs::absorb(users);
  obs::absorb(ops);
  if (any_revocation) obs::absorb(revocation);
  absorb_network_stats(network_stats_total(), sim_events_total());

  FrameArenaStats arena;
  std::size_t outstanding = 0;
  for (const auto& s : shards_) {
    arena = obs::sum(arena, s->arena().stats());
    outstanding += s->arena().outstanding();
  }

  auto& reg = obs::Registry::global();
  reg.gauge("metro.shards").set(static_cast<std::int64_t>(shards_.size()));
  reg.gauge("metro.users").set(static_cast<std::int64_t>(users_.size()));
  reg.gauge("metro.handoffs_pending")
      .set(static_cast<std::int64_t>(parked_.size()));
  reg.gauge("metro.arena.outstanding")
      .set(static_cast<std::int64_t>(outstanding));
  reg.counter("metro.parallel_ticks").set(parallel_ticks_);
  obs::absorb(stats_);
  obs::absorb(arena);

  // Flush any security events buffered since the last barrier, and refresh
  // the health.* gauges when a monitor is attached.
  obs::drain_sec_events();
  if (health_ != nullptr) health_->publish(reg);
}

}  // namespace peace::mesh
