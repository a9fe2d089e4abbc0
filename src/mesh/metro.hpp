// Metro-scale sharded simulation driver. A metropolitan deployment is too
// large for one event queue — and one segment's flash crowd must not be
// able to exhaust the whole city's memory — so MetroSimulation splits the
// mesh into per-segment Shards (each owning its own Simulator, MeshNetwork
// with VerifyPools and RCU revocation snapshot, and FrameArena) and drives
// them in lockstep over tick barriers:
//
//   while now < end:
//     barrier = min(now + tick_ms, end)
//     every shard with an event due: shard.sim().run_until(barrier)
//                                   (on the metro's VerifyPool, one job each)
//     stamp the tick's outbox messages in (shard id, emission order)
//     route every outbox message to its destination inbox   (global seq order)
//     for shard in id order:    apply the shard's inbox      (arrival order)
//
// Within a tick, shards never touch each other — all interaction funnels
// through CrossShardMsgs stamped with a global sequence number, and a
// shard's security events and MetroStats bumps stay shard-local until the
// barrier folds them in shard order — so every result is bit-identical at
// any thread count (MetroTest.ThreadCountDoesNotChangeTheDay). A tick with
// fewer than two busy shards runs inline. A single-shard metro is
// bit-identical to the plain single-loop MeshNetwork run: no mailbox
// traffic exists and chunked run_until calls visit events in the same
// order as one call.
//
// Cross-shard traffic:
//   * roam_user — a user leaves its segment (MeshNetwork::remove_user) and
//     rides a kUserHandoff to the destination, re-authenticating there on
//     the next beacon. Handoffs across a blocked inter-shard link are
//     parked in a bounded FIFO and retried each barrier until the
//     partition heals; overflow drops the OLDEST parked user (metro churn
//     — the user left the city), counted in MetroStats.
//   * post_frame — scenario-defined opaque payloads in arena-pooled
//     buffers, dispatched to the frame handler at the destination barrier.
//   * kInternetRelay — frames relayed over the wired inter-shard backbone
//     toward the nearest shard that has an access point, one shard hop per
//     tick (BFS over connect_shards topology).
#pragma once

#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "mesh/shard.hpp"
#include "obs/fields.hpp"
#include "peace/verify_pool.hpp"

namespace peace::obs {
class HealthMonitor;
}

namespace peace::mesh {

struct MetroConfig {
  /// Barrier spacing. Smaller ticks tighten cross-shard latency; larger
  /// ticks amortize barrier overhead. Cross-shard messages always take at
  /// least one tick.
  SimTime tick_ms = 100;
  /// Per-shard lifetime event budget (0 = unlimited). Exhaustion throws an
  /// Error naming the offending shard (Simulator::set_event_budget).
  std::uint64_t shard_event_budget = 10'000'000;
  /// Per-shard inbox / arena caps (ShardConfig).
  std::size_t shard_inbox_cap = 1 << 16;
  std::size_t shard_frame_cap = 1 << 16;
  /// Cap on handoffs parked across blocked shard links; overflow drops the
  /// oldest parked user.
  std::size_t pending_handoff_cap = 4096;
  /// Threads running a tick's shards (MetroSimulation::pool): 0 =
  /// hardware_concurrency; capped at the shard count. Results do not
  /// depend on it. Routers keep their own ProtocolConfig::verify_threads
  /// pools inside each shard, so set that to 0 or 1 when this is above 1.
  unsigned threads = 0;
};

struct MetroStats {
  std::uint64_t barriers = 0;          // tick barriers crossed
  std::uint64_t msgs_routed = 0;       // mailbox messages moved at barriers
  std::uint64_t frames_posted = 0;     // post_frame calls that got a buffer
  std::uint64_t frames_shed = 0;       // post_frame refused at the arena cap
  std::uint64_t frames_dropped = 0;    // kFrames lost to a blocked link
  std::uint64_t relay_delivered = 0;   // internet relays that reached an AP
  std::uint64_t relay_dropped = 0;     // relays dropped: no path to any AP
  std::uint64_t handoffs_parked = 0;   // handoffs waiting out a partition
  std::uint64_t handoffs_dropped = 0;  // parked users lost to the FIFO cap
  std::uint64_t handoffs_completed = 0;  // handoffs applied at a destination
  std::uint64_t inbox_dropped = 0;       // messages refused at an inbox cap
};

/// The registry counter each field is exported as (obs/fields.hpp).
constexpr auto field_table(const MetroStats*) {
  return std::to_array<obs::Field<MetroStats>>({
      {&MetroStats::barriers, "metro.barriers"},
      {&MetroStats::msgs_routed, "metro.msgs_routed"},
      {&MetroStats::frames_posted, "metro.frames_posted"},
      {&MetroStats::frames_shed, "metro.frames_shed"},
      {&MetroStats::frames_dropped, "metro.frames_dropped"},
      {&MetroStats::relay_delivered, "metro.relay_delivered"},
      {&MetroStats::relay_dropped, "metro.relay_dropped"},
      {&MetroStats::handoffs_parked, "metro.handoffs_parked"},
      {&MetroStats::handoffs_dropped, "metro.handoffs_dropped"},
      {&MetroStats::handoffs_completed, "metro.handoffs_completed"},
      {&MetroStats::inbox_dropped, "metro.inbox_dropped"},
  });
}

class MetroSimulation {
 public:
  explicit MetroSimulation(MetroConfig config = {}) : config_(config) {}
  MetroSimulation(const MetroSimulation&) = delete;
  MetroSimulation& operator=(const MetroSimulation&) = delete;

  // --- topology -----------------------------------------------------------
  /// Creates the next shard (ids are dense, in creation order). Each shard
  /// seeds its own DRBG from `seed`, so per-shard randomness is independent
  /// of shard count and visit order.
  ShardId add_shard(std::string name, const std::string& seed,
                    RadioConfig radio = {},
                    proto::ProtocolConfig proto_config = {});
  /// Declares a wired inter-shard backbone edge (roaming + relay route).
  void connect_shards(ShardId a, ShardId b);
  /// Partitions (or heals) an inter-shard link. Handoffs across a blocked
  /// link park; frames and relays across it drop (frames_partitioned-style
  /// shedding, counted in MetroStats::relay_dropped for relays).
  void set_shard_link_blocked(ShardId a, ShardId b, bool blocked);
  bool shard_link_blocked(ShardId a, ShardId b) const;

  std::size_t shard_count() const { return shards_.size(); }
  Shard& shard(ShardId id) { return *shards_.at(id); }
  const Shard& shard(ShardId id) const { return *shards_.at(id); }

  // --- users --------------------------------------------------------------
  /// Registers `user` in `shard` and returns its metro-wide id (stable
  /// across roaming; the per-shard NodeId changes with every handoff).
  MetroUserId add_user(ShardId shard, Vec2 pos,
                       std::unique_ptr<proto::User> user);
  /// Moves a user to `dest` at `pos`. Same shard: move + reassociate (the
  /// ordinary roaming path). Different shard: the user is extracted now and
  /// arrives at the next tick barrier (in transit until then), where the
  /// next beacon re-authenticates it.
  void roam_user(MetroUserId id, ShardId dest, Vec2 pos);
  /// Current placement, or nullopt while the user is in transit between
  /// shards (or was dropped by the parked-handoff cap).
  struct UserLocation {
    ShardId shard;
    NodeId node;
  };
  std::optional<UserLocation> locate_user(MetroUserId id) const;
  bool user_in_transit(MetroUserId id) const;
  std::size_t user_count() const { return users_.size(); }

  // --- cross-shard traffic ------------------------------------------------
  /// Posts an opaque scenario frame from `from`'s arena to `to`'s handler
  /// at the next barrier. Returns false (shedding, counted) when the
  /// origin arena is at its cap or the payload finds no buffer.
  bool post_frame(ShardId from, ShardId to, BytesView payload,
                  std::uint32_t tag);
  /// Called at the destination barrier for every arriving kFrame.
  using FrameHandler =
      std::function<void(ShardId at, std::uint32_t tag, BytesView payload)>;
  void set_frame_handler(FrameHandler handler) {
    frame_handler_ = std::move(handler);
  }
  /// Hands an internet-bound frame to the inter-shard backbone at `from`:
  /// it hops one shard per tick toward the nearest shard owning an access
  /// point (where it counts as delivered). Returns false when no AP shard
  /// is reachable at all or the arena sheds the frame.
  bool relay_to_internet(ShardId from, BytesView payload);

  // --- metro-wide operations ---------------------------------------------
  /// Delivers a revocation delta announcement to every shard's segment
  /// (each over its own lossy radio; see MeshNetwork::announce_rl_deltas).
  /// `no` must outlive the scheduled events.
  void announce_rl_deltas(const proto::RLDeltaAnnounce& announce,
                          proto::NetworkOperator& no);

  /// Runs every shard to `end` in tick-barrier lockstep (see file header).
  /// When shards exhaust their event budgets in the same tick, the error
  /// of the lowest shard id is rethrown.
  void run_until(SimTime end);
  /// The pool that runs busy shards' ticks; scenario set-up may fan its own
  /// independent jobs out over it between ticks. Built on first use with
  /// MetroConfig::threads, so call it once every shard exists. Records no
  /// pool.* telemetry (that family counts verify batches).
  proto::VerifyPool& pool();
  SimTime now() const { return now_; }
  const MetroConfig& config() const { return config_; }
  const MetroStats& stats() const { return stats_; }

  /// Cross-shard totals. Field-wise sums of per-shard stats — commutative
  /// merges, so the result is independent of shard visit order (asserted by
  /// MetroTest.StatsMergeOrderIndependence).
  NetworkStats network_stats_total() const;
  std::uint64_t sim_events_total() const;

  /// One aggregate publish of the whole metro into the obs registry:
  /// merged mesh.*/sim.*/router.*/user.*/groupsig.verify.*/revocation.*
  /// totals plus the metro.* counters below. Idempotent.
  void publish_metrics() const;

  /// Attaches (or detaches, with nullptr) an online anomaly detector: at
  /// every tick barrier the driver drains the security-event stream into
  /// the monitor and ticks its evaluation clock. Observer only — arming a
  /// monitor cannot change a single simulation byte. Must outlive the run.
  void set_health_monitor(obs::HealthMonitor* monitor) { health_ = monitor; }

 private:
  struct UserRecord {
    ShardId shard = 0;
    NodeId node = 0;
    bool in_transit = false;
  };
  /// A handoff waiting out a blocked shard link.
  struct ParkedHandoff {
    CrossShardMsg msg;
  };
  /// What a shard's tick produces for the metro, kept shard-local while
  /// the tick runs and folded in at the barrier in shard-id order.
  struct ShardTick {
    MetroStats stats;                     // post_frame / relay counts
    std::vector<obs::SecEvent> sec_events;  // captured security events
    std::exception_ptr error;             // e.g. event budget exhausted
  };
  /// Seq of a message emitted during a tick: stamped at the barrier.
  static constexpr std::uint64_t kUnstamped = ~std::uint64_t{0};

  /// Metro-wide seq; inside a tick, kUnstamped (the barrier stamps).
  std::uint64_t stamp() { return in_tick_ ? kUnstamped : next_msg_seq_++; }
  /// The stats an emission from `from` counts into: its ShardTick during a
  /// tick, the metro totals otherwise.
  MetroStats& tally(ShardId from) {
    return in_tick_ ? ticks_[from].stats : stats_;
  }
  /// Runs every shard with an event due by `barrier`, on the pool when two
  /// or more are, then folds their ShardTicks in shard-id order.
  void run_shards(SimTime barrier);
  /// One shard's tick, on whichever thread the pool gives it.
  void run_shard(Shard& shard, SimTime barrier);
  /// Routes one outbox message to its destination inbox (or parks/drops).
  void route(CrossShardMsg msg);
  /// Applies one arrived message inside `dest` at barrier time.
  void apply(Shard& dest, CrossShardMsg msg);
  /// Re-offers parked handoffs whose link healed.
  void retry_parked();
  /// Next hop from `from` toward the nearest shard with an access point,
  /// skipping blocked links. nullopt = unreachable.
  std::optional<ShardId> next_hop_to_ap(ShardId from) const;
  static std::pair<ShardId, ShardId> ordered(ShardId a, ShardId b) {
    return a < b ? std::pair{a, b} : std::pair{b, a};
  }

  MetroConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::vector<ShardId>> shard_links_;  // adjacency, id-sorted
  std::set<std::pair<ShardId, ShardId>> blocked_shard_links_;
  std::map<MetroUserId, UserRecord> users_;
  MetroUserId next_user_id_ = 1;
  std::uint64_t next_msg_seq_ = 0;
  std::deque<ParkedHandoff> parked_;
  FrameHandler frame_handler_;
  obs::HealthMonitor* health_ = nullptr;
  SimTime now_ = 0;
  MetroStats stats_;
  std::vector<ShardTick> ticks_;  // by shard id
  std::vector<Shard*> busy_;      // this tick's shards with events due
  bool in_tick_ = false;
  std::uint64_t parallel_ticks_ = 0;  // ticks that ran on the pool
  std::unique_ptr<proto::VerifyPool> pool_;
};

}  // namespace peace::mesh
