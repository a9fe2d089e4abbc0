// One shard of the metro-scale simulation: a mesh segment that owns its
// OWN discrete-event queue (Simulator), its own MeshNetwork — and through
// it the segment's VerifyPools (one per router, ProtocolConfig::
// verify_threads) and the segment's RCU SharedRevocationState snapshot —
// plus a FrameArena for in-flight cross-shard frames and an explicit
// mailbox pair (inbox/outbox) of CrossShardMsgs.
//
// Ownership and determinism contract (docs/ARCHITECTURE.md §7):
//
//  * Everything a shard owns is touched only by the thread running that
//    shard's tick (one metro pool job per busy shard) or by the metro
//    driver at the barrier; the only other threads inside a shard are its
//    routers' VerifyPool workers, which never escape it. No locks, no
//    cross-shard references.
//  * Shards interact ONLY through mailboxes, and mailboxes move ONLY at
//    tick barriers (MetroSimulation::run_until): during a tick a shard may
//    append to its own outbox; at the barrier the metro layer stamps the
//    tick's messages in (shard id, emission order), routes every outbox
//    message to its destination inbox and applies it before any event of
//    the next tick runs. Message order is globally deterministic at any
//    thread count.
//  * A topology that fits in one shard therefore produces a bit-identical
//    run to the pre-sharding single event loop: no mailbox traffic exists,
//    and run_until(T) tick-by-tick visits events in exactly the order one
//    run_until(T) call would (asserted by MetroTest.SingleShardBitIdentity).
//
// Bounded state: the inbox has a hard cap (overflow messages are dropped
// and counted, shedding load instead of growing), the arena caps frames
// outstanding, and the per-endpoint pending caps of PROTOCOL.md §10 bound
// everything inside the MeshNetwork — so per-shard memory stays bounded at
// 10^5–10^6 metro users.
#pragma once

#include <deque>
#include <memory>
#include <string>

#include "mesh/arena.hpp"
#include "mesh/network.hpp"
#include "mesh/simulator.hpp"
#include "obs/sec_event.hpp"

namespace peace::mesh {

using ShardId = std::uint32_t;
using MetroUserId = std::uint64_t;

struct ShardConfig {
  /// Hard cap on queued inbox messages; overflow is dropped and counted.
  std::size_t inbox_cap = 1 << 16;
  /// Hard cap on arena frames outstanding at once within the shard.
  std::size_t frame_cap = 1 << 16;
  /// Per-shard lifetime event budget (Simulator::set_event_budget);
  /// 0 = unlimited. A budget exhaustion throws an error naming the shard.
  std::uint64_t event_budget = 0;
};

/// One message crossing a shard boundary at a tick barrier.
struct CrossShardMsg {
  enum class Kind : std::uint8_t {
    /// A user roaming between segments: carries the proto::User itself
    /// (keys and credentials; never sessions — roaming re-authenticates).
    kUserHandoff,
    /// An internet-bound frame relayed over the wired backbone toward a
    /// shard with an access point (one shard hop per tick).
    kInternetRelay,
    /// Scenario-defined opaque payload, dispatched to the metro frame
    /// handler at the destination barrier.
    kFrame,
  };

  Kind kind = Kind::kFrame;
  ShardId from = 0;
  ShardId to = 0;
  std::uint64_t seq = 0;  // global emission order (deterministic replay)
  // kUserHandoff:
  MetroUserId user = 0;
  Vec2 pos{};
  std::unique_ptr<proto::User> carried;
  // kInternetRelay / kFrame: pooled payload (returns to the ORIGIN shard's
  // arena when the message dies) and a scenario-defined tag.
  std::uint32_t tag = 0;
  PooledFrame frame;
};

class Shard {
 public:
  Shard(ShardId id, std::string name, const ShardConfig& config,
        crypto::Drbg rng, RadioConfig radio = {},
        proto::ProtocolConfig proto_config = {})
      : id_(id),
        name_(std::move(name)),
        config_(config),
        arena_(config.frame_cap),
        net_(sim_, std::move(rng), radio, proto_config) {
    sim_.set_name(name_);
    sim_.set_event_budget(config.event_budget);
  }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  ShardId id() const { return id_; }
  const std::string& name() const { return name_; }
  const ShardConfig& config() const { return config_; }

  Simulator& sim() { return sim_; }
  const Simulator& sim() const { return sim_; }
  MeshNetwork& net() { return net_; }
  const MeshNetwork& net() const { return net_; }
  FrameArena& arena() { return arena_; }

  /// Appends to the outbox (called through MetroSimulation emission APIs,
  /// which stamp the global sequence number, or leave it for the barrier
  /// when called during a tick).
  void emit(CrossShardMsg msg) { outbox_.push_back(std::move(msg)); }

  /// Enqueues an arriving message, enforcing the inbox cap. Returns false
  /// (dropping the message; the caller counts the drop) on overflow.
  bool enqueue(CrossShardMsg msg) {
    if (inbox_.size() >= config_.inbox_cap) {
      obs::sec_emit_for_shard(obs::SecEventKind::kInboxShed, id_, sim_.now(),
                              id_, inbox_.size());
      return false;
    }
    inbox_.push_back(std::move(msg));
    return true;
  }

  bool inbox_full() const { return inbox_.size() >= config_.inbox_cap; }

  std::vector<CrossShardMsg> take_outbox() {
    std::vector<CrossShardMsg> out = std::move(outbox_);
    outbox_.clear();
    return out;
  }
  std::deque<CrossShardMsg>& inbox() { return inbox_; }

 private:
  ShardId id_;
  std::string name_;
  ShardConfig config_;
  Simulator sim_;
  FrameArena arena_;  // outlives net_: in-flight closures may hold frames
  MeshNetwork net_;
  std::vector<CrossShardMsg> outbox_;
  std::deque<CrossShardMsg> inbox_;
};

}  // namespace peace::mesh
