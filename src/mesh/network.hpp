// The metropolitan WMN substrate (paper Fig. 1): stationary mesh routers
// with one-hop downlink coverage, mobile users with shorter radios that
// authenticate directly (power-boosted uplink, paper footnote 3) and relay
// data through authenticated peer sessions, greedy-geographically, toward
// their serving router. Radios are unit-disk with configurable loss and
// latency. Every frame delivery can be observed by registered taps
// (adversaries, loggers).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "crypto/drbg.hpp"
#include "mesh/faults.hpp"
#include "mesh/simulator.hpp"
#include "obs/fields.hpp"
#include "peace/router.hpp"
#include "peace/user.hpp"

namespace peace::mesh {

using NodeId = std::uint32_t;

struct Vec2 {
  double x = 0;
  double y = 0;
};

double distance(const Vec2& a, const Vec2& b);

/// Long-range backbone links (WiMAX-class, paper Fig. 1): router-router
/// and router-AP edges exist within this distance and ride the operator's
/// pre-established secure channels.
inline constexpr double kBackboneRange = 500.0;

struct RadioConfig {
  double router_range = 250.0;  // downlink coverage (one hop, paper III.A)
  double user_range = 80.0;     // user-user data radio
  double loss_probability = 0.0;
  SimTime latency_ms = 2;
};

/// The handshake reliability layer (PROTOCOL.md §10): retransmission with
/// exponential backoff and a bounded retry budget for M.2 and the peer
/// handshake, failover away from unresponsive routers, and automatic
/// session rekey. The retransmission and failover timers are fixed
/// constants (network.cpp); these are the knobs a deployment tunes.
struct ReliabilityConfig {
  /// Rekey the uplink (a fresh anonymous handshake; the paper's privacy
  /// model forbids resumption) once it has sealed this many frames.
  /// 0 = only at hard sequence exhaustion.
  std::uint64_t rekey_after_frames = 0;
  /// In-flight frames keep draining on a retired session for this long
  /// before the router closes it.
  SimTime drain_window_ms = 2000;
};

/// What a delivery tap observes: enough for an eavesdropping adversary to
/// mount linkage attempts, nothing more than the air interface carries.
struct WireObservation {
  SimTime at = 0;
  const char* kind;  // "beacon", "m2", "m3", "peer1", "peer2", "peer3", "data"
  Bytes payload;     // serialized message exactly as transmitted
};

struct NetworkStats {
  std::uint64_t frames_transmitted = 0;
  std::uint64_t users_removed = 0;  // roaming handoffs out of this segment
  std::uint64_t frames_lost = 0;
  std::uint64_t data_delivered = 0;
  std::uint64_t data_undeliverable = 0;  // no route / no session
  std::uint64_t relay_hops_total = 0;
  std::uint64_t internet_delivered = 0;   // reached a wired access point
  std::uint64_t backbone_hops_total = 0;  // router-router hops used
  std::uint64_t backbone_mac_failures = 0;
  // Reliability layer / fault injection (PROTOCOL.md §10):
  std::uint64_t retransmissions = 0;      // handshake frames resent on RTO
  std::uint64_t handshake_timeouts = 0;   // attempts whose budget ran out
  std::uint64_t rekeys = 0;               // uplink sessions retired + redone
  std::uint64_t failovers = 0;            // reconnects to a different router
  std::uint64_t corrupted_rejected = 0;   // frames that failed to parse
  std::uint64_t frames_duplicated = 0;    // extra copies the radio delivered
  std::uint64_t frames_delayed = 0;       // frames given reorder jitter
  std::uint64_t frames_partitioned = 0;   // dropped on a blocked/dead link
};

/// The registry counter each field is exported as (obs/fields.hpp).
constexpr auto field_table(const NetworkStats*) {
  return std::to_array<obs::Field<NetworkStats>>({
      {&NetworkStats::frames_transmitted, "mesh.frames_transmitted"},
      {&NetworkStats::users_removed, "mesh.users_removed"},
      {&NetworkStats::frames_lost, "mesh.frames_lost"},
      {&NetworkStats::data_delivered, "mesh.data_delivered"},
      {&NetworkStats::data_undeliverable, "mesh.data_undeliverable"},
      {&NetworkStats::relay_hops_total, "mesh.relay_hops_total"},
      {&NetworkStats::internet_delivered, "mesh.internet_delivered"},
      {&NetworkStats::backbone_hops_total, "mesh.backbone_hops_total"},
      {&NetworkStats::backbone_mac_failures, "mesh.backbone_mac_failures"},
      {&NetworkStats::retransmissions, "mesh.retransmissions"},
      {&NetworkStats::handshake_timeouts, "mesh.handshake_timeouts"},
      {&NetworkStats::rekeys, "mesh.rekeys"},
      {&NetworkStats::failovers, "mesh.failovers"},
      {&NetworkStats::corrupted_rejected, "mesh.corrupted_rejected"},
      {&NetworkStats::frames_duplicated, "mesh.frames_duplicated"},
      {&NetworkStats::frames_delayed, "mesh.frames_delayed"},
      {&NetworkStats::frames_partitioned, "mesh.frames_partitioned"},
  });
}

/// The discrete reliability events (PROTOCOL.md §10). Each is defined once,
/// in network.cpp's event table: the NetworkStats counter it bumps, the
/// sim-time trace instant it records and, where one exists, the SecEvent it
/// emits.
enum class MeshEvent : std::uint8_t {
  kRetransmit,
  kHandshakeTimeout,
  kRekey,
  kFailover,
};

/// Mirrors a (possibly multi-shard) NetworkStats total plus the summed
/// simulator event count into the obs registry (mesh.* / sim.*).
/// Idempotent (Counter::set).
void absorb_network_stats(const NetworkStats& totals,
                          std::uint64_t sim_events_processed);

class MeshNetwork {
 public:
  /// `proto_config` is handed to every router this network creates — in
  /// particular verify_threads, which sizes each router's VerifyPool.
  /// `reliability` governs the handshake retransmission / rekey layer.
  MeshNetwork(Simulator& sim, crypto::Drbg rng, RadioConfig radio = {},
              proto::ProtocolConfig proto_config = {},
              ReliabilityConfig reliability = {});

  // --- construction -----------------------------------------------------
  NodeId add_router(Vec2 pos, proto::NetworkOperator& no,
                    proto::Timestamp cert_expires_at);
  NodeId add_user(Vec2 pos, std::unique_ptr<proto::User> user);
  /// Extracts a user from this segment for a cross-shard roaming handoff:
  /// drops its uplink (router side closed when the router is alive), peer
  /// sessions on both ends, pending handshake state and queued M.2s, and
  /// returns the proto::User so the destination shard can re-add it. Any
  /// in-flight timers or frames addressed to the departed node become
  /// no-ops (every delivery callback tolerates a vanished node). Sessions
  /// are never carried across segments — the privacy model mandates a
  /// fresh anonymous handshake after roaming anyway.
  std::unique_ptr<proto::User> remove_user(NodeId id);
  std::size_t user_count() const { return users_.size(); }
  /// Layer-1 of Fig. 1: a wired Internet entry point, reachable from
  /// routers within kBackboneRange over a secure channel.
  NodeId add_access_point(Vec2 pos);
  std::size_t access_point_count() const { return access_points_.size(); }

  proto::MeshRouter& router(NodeId id);
  proto::User& user(NodeId id);
  Vec2 position(NodeId id) const;
  void move_user(NodeId id, Vec2 pos);

  /// Pushes fresh revocation lists to every router over the operator's
  /// pre-established secure channels (paper III.A assumption). All routers
  /// of this network share one RCU revocation snapshot, so this is a single
  /// install regardless of router count.
  void push_revocation_lists(const proto::SignedRevocationList& crl,
                             const proto::SignedRevocationList& url);

  /// Metro-scale distribution: delivers a delta announcement to the
  /// segment's shared revocation state over the lossy radio (one latency
  /// hop). A chain gap — e.g. an earlier announcement was lost — triggers
  /// the full resync round-trip with `no` (request + response, each paying
  /// radio latency and loss). `no` must outlive the scheduled events.
  void announce_rl_deltas(const proto::RLDeltaAnnounce& announce,
                          proto::NetworkOperator& no);

  /// The revocation state shared by every router of this network (null
  /// until the first add_router).
  const std::shared_ptr<revoke::SharedRevocationState>& revocation() const {
    return revocation_;
  }

  // --- behaviour ---------------------------------------------------------
  /// Schedules periodic beacons from every router starting at `start`. A
  /// user without a session authenticates to the first router it hears.
  void start_beaconing(SimTime start, SimTime period, SimTime until);

  /// Runs the user-user handshake between every pair of users within
  /// user_range of each other (scheduled through the radio).
  void establish_peer_links();

  /// Sends an application payload from `user_id` to its serving router,
  /// relaying greedily through peer sessions when out of direct range.
  /// Returns false immediately when no route can exist.
  bool send_data(NodeId user_id, BytesView payload);

  /// Full three-layer delivery (paper Fig. 1): user -> serving router
  /// (send_data path), then across the multihop wireless backbone —
  /// shortest path, each hop authenticated on the pre-established secure
  /// channel — to the nearest wired access point.
  bool send_to_internet(NodeId user_id, BytesView payload);

  /// Backbone hop count from a router to the nearest AP, or nullopt when
  /// no AP is reachable.
  std::optional<std::size_t> backbone_hops_to_ap(NodeId router_node) const;

  /// True once `user_id` holds an authenticated router session.
  bool is_connected(NodeId user_id) const;
  std::optional<proto::RouterId> serving_router(NodeId user_id) const;

  /// Drops the user's uplink (and serving-router binding) so the next
  /// beacon triggers a fresh handshake — how a roaming client re-associates
  /// after moving out of its old router's coverage. Sessions are never
  /// resumed across associations (fresh identifiers per the privacy model).
  void reassociate(NodeId user_id);

  // --- fault injection (chaos harness) -----------------------------------
  /// Installs a fault plan on the user-facing radio (beacons, handshakes,
  /// data relay). RadioConfig.loss_probability keeps applying only if the
  /// caller folds it into the plan's loss_good; the backbone and the
  /// operator's control traffic stay on the plain loss model.
  void set_fault_plan(const FaultPlan& plan);

  /// Blocks (or heals) the radio link between two nodes — a partition.
  /// Frames sent across a blocked link are dropped (frames_partitioned).
  void set_link_blocked(NodeId a, NodeId b, bool blocked);

  /// Crashes a router: it stops beaconing, drops every established session,
  /// and answers nothing until restart_router. Its certificate and keys
  /// survive (stable identity across the restart).
  void crash_router(NodeId router_node);
  void restart_router(NodeId router_node);
  bool router_is_down(NodeId router_node) const;

  /// Forces an uplink rekey: the current session is retired (in-flight
  /// frames drain for drain_window_ms) and the next beacon triggers a fresh
  /// anonymous handshake. No-op when the user has no uplink or a rekey is
  /// already pending.
  void rekey(NodeId user_id);

  /// Registers an observer of every transmitted frame.
  void add_tap(std::function<void(const WireObservation&)> tap);

  const NetworkStats& stats() const { return stats_; }
  Simulator& sim() { return sim_; }

  /// Mirrors every deterministic stats struct of the stack (NetworkStats,
  /// summed RouterStats / UserStats / verify OpCounters, the shared
  /// revocation stats) into the obs metrics registry under the names
  /// catalogued in docs/OBSERVABILITY.md. Idempotent; call before
  /// Registry::to_json().
  void publish_metrics() const;

  /// Endpoint-stat totals over this segment's live routers/users — the
  /// inputs publish_metrics() absorbs, exposed so the metro layer can merge
  /// them across shards before one aggregate publish (docs/OBSERVABILITY.md
  /// §2). Sum-merges only, so shard visit order cannot matter.
  proto::RouterStats router_stats_total() const;
  proto::UserStats user_stats_total() const;
  groupsig::OpCounters verify_ops_total() const;

  /// All router node ids / user node ids, for sweeps.
  std::vector<NodeId> router_ids() const;
  std::vector<NodeId> user_ids() const;

 private:
  struct RouterNode {
    std::unique_ptr<proto::MeshRouter> router;  // null while crashed
    Vec2 pos;
    bool down = false;
    /// Provisioned identity, kept so a restart resurrects the same router.
    curve::EcdsaKeyPair keypair;
    proto::RouterCertificate certificate;
    proto::SystemParams params;
    unsigned restarts = 0;
  };
  /// A handshake frame its sender retransmits byte-identically on RTO until
  /// its side of the handshake completes or the retry budget runs out: the
  /// user's M.2 (one attempt = one M.2; the DH share and group signature
  /// are minted once), the initiator's M~.1 or the responder's M~.2. M~.3
  /// needs no timer — a responder retransmitting M~.2 pulls the cached M~.3
  /// back out of the initiator.
  struct Attempt {
    enum class Frame : std::uint8_t { kM2, kPeerHello, kPeerReply };
    Frame frame = Frame::kM2;
    Bytes wire;
    NodeId from = 0, to = 0;
    unsigned tries = 0;            // transmissions so far
    std::uint64_t generation = 0;  // stale-timer guard
  };
  struct UserNode {
    std::unique_ptr<proto::User> user;
    Vec2 pos;
    std::optional<proto::Session> uplink;     // to serving router
    Bytes uplink_session_id;
    std::optional<proto::RouterId> serving;
    std::optional<NodeId> serving_node;
    std::map<NodeId, proto::Session> peer_sessions;
    // --- reliability layer -----------------------------------------------
    std::optional<Attempt> attempt;  // the in-flight access handshake
    /// Retired uplink draining in-flight frames after a rekey.
    std::optional<proto::Session> old_uplink;
    Bytes old_uplink_session_id;
    bool rekey_pending = false;
    /// Routers to avoid until the deadline (failed attempts → failover).
    std::map<NodeId, SimTime> router_backoff_until;
    std::optional<NodeId> last_failed_router;
  };

  /// An M.2 that reached its router and awaits the end-of-tick batch drain.
  struct PendingAuth {
    NodeId user_node;
    proto::AccessRequest m2;
  };

  /// One occurrence of `event` concerning `user`: bumps its counter,
  /// records its instant ({"user", user}, plus the row's detail argument
  /// when the row names one and `detail` is nonzero) and emits its
  /// SecEvent (origin `user`, detail `detail`).
  void record_event(MeshEvent event, NodeId user, std::uint64_t detail = 0);
  bool radio_delivers();
  void observe(const char* kind, BytesView payload);
  /// One observed radio transmission: partition/outage checks, the fault
  /// plan (loss, duplication, jitter, corruption), then `deliver(wire)`
  /// per surviving copy after latency (+jitter).
  void transmit(const char* kind, const Bytes& wire, NodeId from, NodeId to,
                std::function<void(const Bytes&)> deliver);
  /// transmit() without the observe — deliver_beacon observes its broadcast
  /// once, then unicasts an independently-faulted copy per listener.
  void unicast(const Bytes& wire, NodeId from, NodeId to,
               std::function<void(const Bytes&)> deliver);
  bool link_blocked(NodeId a, NodeId b) const;
  bool node_down(NodeId node) const;
  /// Decodes a wire frame, counting a parse failure as corrupted_rejected.
  template <typename Msg>
  std::optional<Msg> parse(const Bytes& wire);

  void deliver_beacon(NodeId router_node, const proto::BeaconMessage& beacon);
  void user_hears_beacon(NodeId user_node, NodeId router_node,
                         const proto::BeaconMessage& beacon);
  /// Runs every access request that arrived at `router_node` this sim tick
  /// through the router's batch verification path, then continues each
  /// handshake (M.3 delivery) exactly as the per-request path used to.
  void drain_auth_batch(NodeId router_node);

  // --- handshake reliability ---------------------------------------------
  /// One (re)transmission of `attempt` and the RTO timer behind it, whose
  /// expiry retransmits, gives up or finds the attempt done.
  void send_attempt(Attempt& attempt);
  void on_attempt_timeout(Attempt::Frame frame, NodeId from, NodeId to,
                          std::uint64_t generation);
  void on_m2(NodeId me, NodeId from, const Bytes& wire);
  void on_m3(NodeId user_node, NodeId router_node, const Bytes& wire);
  /// Retires the current uplink into the drain window and leaves the user
  /// ready for a fresh handshake at the next beacon.
  void start_rekey(NodeId user_id);
  /// Applies the configured frame-count / age rekey policy before a send.
  void maybe_rekey(NodeId user_id, UserNode& node);

  void start_peer_handshake(NodeId a, NodeId b);
  void on_peer_hello(NodeId me, NodeId from, const Bytes& wire);
  void on_peer_reply(NodeId me, NodeId from, const Bytes& wire);
  void on_peer_confirm(NodeId me, NodeId from, const Bytes& wire);

  /// Next hop for greedy geographic relay, or nullopt when stuck.
  std::optional<NodeId> next_relay_hop(NodeId from, const Vec2& target);

  /// Pre-established secure channel between two backbone nodes: a shared
  /// MAC key (paper III.A assumes these exist out of band).
  const Bytes& backbone_key(NodeId a, NodeId b);
  /// Backbone adjacency (router/AP nodes within kBackboneRange).
  std::vector<NodeId> backbone_neighbors(NodeId node) const;
  /// BFS shortest backbone path from `router_node` to the nearest access
  /// point, both ends included; empty when no AP is reachable.
  std::vector<NodeId> backbone_path_to_ap(NodeId router_node) const;

  Simulator& sim_;
  crypto::Drbg rng_;
  RadioConfig radio_;
  proto::ProtocolConfig proto_config_;
  ReliabilityConfig reliability_;
  FaultInjector faults_;
  /// One snapshot state for the whole segment; created by the first
  /// add_router (it needs the NO's public key as list authority).
  std::shared_ptr<revoke::SharedRevocationState> revocation_;
  std::map<NodeId, std::vector<PendingAuth>> pending_auth_;
  std::map<NodeId, RouterNode> routers_;
  std::map<NodeId, UserNode> users_;
  std::map<NodeId, Vec2> access_points_;
  std::map<std::pair<NodeId, NodeId>, Bytes> backbone_keys_;
  /// In-flight peer-handshake frames with retransmission timers, keyed by
  /// (sender, receiver); erased when the sender's session exists.
  std::map<std::pair<NodeId, NodeId>, Attempt> peer_attempts_;
  std::set<std::pair<NodeId, NodeId>> blocked_links_;
  std::uint64_t attempt_seq_ = 0;  // generation source for stale timers
  NodeId next_id_ = 1;
  std::vector<std::function<void(const WireObservation&)>> taps_;
  NetworkStats stats_;
};

}  // namespace peace::mesh
