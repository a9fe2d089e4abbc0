// Chaos harness for the reliability layer (PROTOCOL.md §10): a metro
// segment lives through each fault class — burst loss, duplication,
// reordering, corruption, partitions, router crashes — and every reachable
// user must still end up holding an authenticated session, with pending
// state bounded and the pooled verifier bit-identical to the sequential
// one. Everything is driven by seeded DRBGs: same seed, same run.
#include "mesh/network.hpp"
#include "obs/health.hpp"
#include "obs/sec_event.hpp"
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>

namespace peace::mesh {
namespace {

constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;

/// Gilbert–Elliott plan averaging ~30% loss in bursts: good state is
/// clean, bad state drops 3 of 4 frames, dwell ~2 frames bad / ~5 good.
FaultPlan burst_loss_plan() {
  FaultPlan plan;
  plan.loss_good = 0.0;
  plan.loss_bad = 0.75;
  plan.p_good_to_bad = 0.2;
  plan.p_bad_to_good = 0.3;
  return plan;
}

/// One self-contained metro segment: two routers with overlapping
/// coverage and a row of users inside it.
struct ChaosWorld {
  explicit ChaosWorld(const std::string& seed, unsigned verify_threads = 0,
                      ReliabilityConfig reliability = {})
      : no(crypto::Drbg::from_string(seed + "-no")),
        gm(no.register_group("metro", 32, ttp)),
        net(sim, crypto::Drbg::from_string(seed + "-net"), RadioConfig{},
            make_proto_config(verify_threads), reliability) {
    r1 = net.add_router({0, 0}, no, kFarFuture);
    r2 = net.add_router({300, 0}, no, kFarFuture);
    for (int i = 0; i < 8; ++i) {
      auto user = std::make_unique<proto::User>(
          "u" + std::to_string(i), no.params(),
          crypto::Drbg::from_string(seed + "-u" + std::to_string(i)),
          make_proto_config(verify_threads));
      user->complete_enrollment(gm.enroll(user->uid(), ttp));
      users.push_back(
          net.add_user({40.0 + 30.0 * i, (i % 2) ? 15.0 : -15.0},
                       std::move(user)));
    }
  }

  static proto::ProtocolConfig make_proto_config(unsigned verify_threads) {
    proto::ProtocolConfig config;
    config.verify_threads = verify_threads;
    // Chaos runs span minutes of sim time; handshake freshness must follow.
    config.replay_window_ms = 60'000;
    return config;
  }

  std::size_t connected_count() const {
    std::size_t n = 0;
    for (const NodeId u : users) n += net.is_connected(u) ? 1 : 0;
    return n;
  }

  /// Acceptance floor: ≥99% of reachable users hold a session. With eight
  /// users that rounds up to all of them.
  void expect_converged() {
    for (const NodeId u : users)
      EXPECT_TRUE(net.is_connected(u)) << "user node " << u;
  }

  void expect_pending_bounded() {
    const std::size_t cap = make_proto_config(0).pending_cap;
    for (const NodeId u : users) {
      EXPECT_LE(net.user(u).pending_access_size(), cap);
      EXPECT_LE(net.user(u).pending_peer_size(), cap);
      EXPECT_LE(net.user(u).resend_cache_size(), cap);
    }
  }

  proto::NetworkOperator no;
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm;
  Simulator sim;
  MeshNetwork net;
  NodeId r1 = 0, r2 = 0;
  std::vector<NodeId> users;
};

class ChaosTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
};

TEST_F(ChaosTest, ConvergesThroughBurstLoss) {
  ChaosWorld w("chaos-burst");
  w.net.set_fault_plan(burst_loss_plan());
  w.net.start_beaconing(100, 1000, 40'000);
  w.sim.run_until(60'000);

  w.expect_converged();
  w.expect_pending_bounded();
  // The ~30% burst loss must have actually bitten — and been healed by the
  // RTO retransmission layer, not by luck.
  EXPECT_GT(w.net.stats().frames_lost, 0u);
  EXPECT_GT(w.net.stats().retransmissions, 0u);
}

TEST_F(ChaosTest, DuplicationIsIdempotent) {
  ChaosWorld w("chaos-dup");
  FaultPlan plan;
  plan.duplicate_probability = 0.5;
  w.net.set_fault_plan(plan);
  w.net.start_beaconing(100, 1000, 10'000);
  w.sim.run_until(20'000);

  w.expect_converged();
  EXPECT_GT(w.net.stats().frames_duplicated, 0u);
  // Duplicated M.2s hit the routers' resend caches — never a second
  // session for the same handshake, never a protocol error.
  std::size_t sessions = 0, resent = 0;
  for (const NodeId r : {w.r1, w.r2}) {
    sessions += w.net.router(r).session_count();
    resent += w.net.router(r).stats().confirms_resent;
  }
  EXPECT_EQ(sessions, w.users.size());
  EXPECT_GT(resent, 0u);
  // Duplicated M.3s land on a consumed pending entry: a no-op.
  for (const NodeId u : w.users)
    EXPECT_EQ(w.net.user(u).stats().sessions_established, 1u);
}

TEST_F(ChaosTest, ReorderingTolerated) {
  ChaosWorld w("chaos-reorder");
  FaultPlan plan;
  plan.reorder_probability = 0.5;
  plan.reorder_max_jitter_ms = 50;
  w.net.set_fault_plan(plan);
  w.net.start_beaconing(100, 1000, 10'000);
  w.sim.run_until(20'000);

  w.expect_converged();
  EXPECT_GT(w.net.stats().frames_delayed, 0u);
}

TEST_F(ChaosTest, CorruptionRejectedCleanly) {
  ChaosWorld w("chaos-corrupt");
  FaultPlan plan;
  plan.corrupt_probability = 0.25;
  w.net.set_fault_plan(plan);
  w.net.start_beaconing(100, 1000, 40'000);
  w.sim.run_until(60'000);

  w.expect_converged();
  // Corrupted frames fail to parse or fail verification — counted, never
  // fatal, and retransmission recovers the handshake.
  EXPECT_GT(w.net.stats().corrupted_rejected, 0u);
  w.expect_pending_bounded();

  // Data under corruption: every send is either delivered intact or
  // accounted as undeliverable; AEAD makes corrupted-but-accepted
  // impossible, and nothing throws on the data path.
  const std::uint64_t delivered_before = w.net.stats().data_delivered;
  const std::uint64_t undeliverable_before = w.net.stats().data_undeliverable;
  std::uint64_t sent = 0, ok = 0;
  for (const NodeId u : w.users)
    for (int i = 0; i < 4; ++i) {
      ++sent;
      ok += w.net.send_data(u, as_bytes("x")) ? 1 : 0;
    }
  EXPECT_EQ(w.net.stats().data_delivered - delivered_before, ok);
  EXPECT_EQ(w.net.stats().data_delivered - delivered_before +
                (w.net.stats().data_undeliverable - undeliverable_before),
            sent);
  EXPECT_GT(w.net.stats().data_delivered, delivered_before);
}

TEST_F(ChaosTest, PartitionHealsAndTrafficResumes) {
  ChaosWorld w("chaos-part");
  w.net.start_beaconing(100, 1000, 30'000);
  w.sim.run_until(5000);
  w.expect_converged();

  // Users that reach their serving router directly — with no peer links
  // established, these are the ones whose data path the partition severs.
  std::vector<NodeId> direct;
  for (const NodeId u : w.users) {
    const auto serving = w.net.serving_router(u);
    ASSERT_TRUE(serving.has_value());
    if (distance(w.net.position(u),
                 w.net.position(static_cast<NodeId>(*serving))) <=
        RadioConfig{}.user_range)
      direct.push_back(u);
  }
  ASSERT_FALSE(direct.empty());

  // Partition each such user from its router: data stops dead.
  for (const NodeId u : direct)
    w.net.set_link_blocked(u, static_cast<NodeId>(*w.net.serving_router(u)),
                           true);
  const auto before = w.net.stats().frames_partitioned;
  for (const NodeId u : direct)
    EXPECT_FALSE(w.net.send_data(u, as_bytes("x")));
  EXPECT_EQ(w.net.stats().frames_partitioned, before + direct.size());

  // Heal: the sessions were never torn down, traffic flows again at once.
  for (const NodeId u : direct)
    w.net.set_link_blocked(u, static_cast<NodeId>(*w.net.serving_router(u)),
                           false);
  for (const NodeId u : direct)
    EXPECT_TRUE(w.net.send_data(u, as_bytes("y")));
}

TEST_F(ChaosTest, RouterCrashFailsOverAndRestartRejoins) {
  ChaosWorld w("chaos-crash");
  w.net.start_beaconing(100, 1000, 60'000);
  w.sim.run_until(5000);
  w.expect_converged();

  // Kill r1. Its users discover the outage on their next send, drop the
  // stale uplink, and the failover logic steers them to r2 (r1 is silent).
  w.net.crash_router(w.r1);
  ASSERT_TRUE(w.net.router_is_down(w.r1));
  EXPECT_THROW(w.net.router(w.r1), Error);
  for (const NodeId u : w.users) (void)w.net.send_data(u, as_bytes("probe"));
  w.sim.run_until(25'000);

  for (const NodeId u : w.users) {
    if (!w.net.is_connected(u)) continue;  // out of r2's coverage: excused
    EXPECT_EQ(w.net.serving_router(u), w.net.router(w.r2).id());
  }
  EXPECT_GT(w.net.stats().failovers, 0u);
  // Users beyond r2's range are unreachable while r1 is down — the ≥99%
  // floor applies to reachable users only. Restart brings r1 back with its
  // old identity and everyone reconverges.
  w.net.restart_router(w.r1);
  ASSERT_FALSE(w.net.router_is_down(w.r1));
  w.sim.run_until(60'000);
  w.expect_converged();
}

TEST_F(ChaosTest, RekeyOnFrameBudgetKeepsDataFlowing) {
  ReliabilityConfig reliability;
  reliability.rekey_after_frames = 3;
  reliability.drain_window_ms = 1500;
  ChaosWorld w("chaos-rekey", 0, reliability);
  w.net.start_beaconing(100, 500, 60'000);
  w.sim.run_until(3000);
  w.expect_converged();

  // Every send beyond the budget retires the uplink into its drain window
  // and rides the old session while the fresh handshake runs — data never
  // stops, the session id underneath changes.
  const NodeId u = w.users.front();
  std::uint64_t delivered = 0;
  for (int i = 0; i < 12; ++i) {
    delivered += w.net.send_data(u, as_bytes("stream")) ? 1 : 0;
    w.sim.run_until(w.sim.now() + 1000);
  }
  EXPECT_EQ(delivered, 12u);
  EXPECT_GE(w.net.stats().rekeys, 2u);
  EXPECT_TRUE(w.net.is_connected(u));
}

TEST_F(ChaosTest, ExplicitRekeyAndSeqExhaustionRecovery) {
  ChaosWorld w("chaos-exhaust");
  w.net.start_beaconing(100, 500, 30'000);
  w.sim.run_until(3000);
  w.expect_converged();
  const NodeId u = w.users.front();

  // Forced rekey: one retired session, fresh handshake at the next beacon.
  w.net.rekey(u);
  EXPECT_EQ(w.net.stats().rekeys, 1u);
  EXPECT_TRUE(w.net.send_data(u, as_bytes("on the old session")));  // drains
  w.sim.run_until(10'000);
  EXPECT_TRUE(w.net.is_connected(u));
  EXPECT_TRUE(w.net.send_data(u, as_bytes("on the new session")));
  EXPECT_THROW(w.net.rekey(999'999), Error);
}

TEST_F(ChaosTest, DeterministicUnderSameSeed) {
  auto run = [](const std::string& seed, obs::HealthMonitor* monitor = nullptr) {
    ChaosWorld w(seed);
    w.net.set_fault_plan(burst_loss_plan());
    w.net.start_beaconing(100, 1000, 20'000);
    if (monitor != nullptr) {
      // Drive the monitor the way the metro barrier loop does: run in
      // chunks, drain the security-event stream into it, evaluate. The
      // monitor is a pure consumer, so arming it must not perturb the run.
      for (SimTime t = 1000; t <= 30'000; t += 1000) {
        w.sim.run_until(t);
        std::vector<obs::SecEvent> drained;
        obs::drain_sec_events(&drained);
        for (const obs::SecEvent& e : drained) monitor->ingest(e);
        monitor->tick(t);
      }
    } else {
      w.sim.run_until(30'000);
    }
    for (const NodeId u : w.users) (void)w.net.send_data(u, as_bytes("d"));
    return w.net.stats();
  };
  const NetworkStats a = run("chaos-det");
  const NetworkStats b = run("chaos-det");
  EXPECT_EQ(a.frames_transmitted, b.frames_transmitted);
  EXPECT_EQ(a.frames_lost, b.frames_lost);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.handshake_timeouts, b.handshake_timeouts);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.corrupted_rejected, b.corrupted_rejected);

  // Telemetry neutrality under faults: the same chaotic run with span
  // tracing enabled is bit-identical on every deterministic observable.
  obs::enable(true);
  const NetworkStats c = run("chaos-det");
  obs::enable(false);
  obs::Tracer::global().clear();
  EXPECT_EQ(a.frames_transmitted, c.frames_transmitted);
  EXPECT_EQ(a.frames_lost, c.frames_lost);
  EXPECT_EQ(a.retransmissions, c.retransmissions);
  EXPECT_EQ(a.handshake_timeouts, c.handshake_timeouts);
  EXPECT_EQ(a.data_delivered, c.data_delivered);
  EXPECT_EQ(a.corrupted_rejected, c.corrupted_rejected);

  // And again with a HealthMonitor armed on the security-event stream:
  // live anomaly detection over the same chaotic run changes nothing.
  obs::enable(true);
  obs::HealthMonitor monitor;
  const NetworkStats d = run("chaos-det", &monitor);
  obs::enable(false);
  obs::Tracer::global().clear();
  EXPECT_EQ(a.frames_transmitted, d.frames_transmitted);
  EXPECT_EQ(a.frames_lost, d.frames_lost);
  EXPECT_EQ(a.retransmissions, d.retransmissions);
  EXPECT_EQ(a.handshake_timeouts, d.handshake_timeouts);
  EXPECT_EQ(a.data_delivered, d.data_delivered);
  EXPECT_EQ(a.corrupted_rejected, d.corrupted_rejected);
#ifndef PEACE_OBS_DISABLED
  // Bursty loss forces handshake retries; each timeout rides the stream
  // and must have reached the monitor.
  if (a.handshake_timeouts > 0) {
    EXPECT_GT(monitor.events_ingested(), 0u);
  }
#endif
}

TEST_F(ChaosTest, PooledVerifierMatchesSequentialUnderFaults) {
  auto run = [](unsigned verify_threads) {
    ChaosWorld w("chaos-pool", verify_threads);
    FaultPlan plan = burst_loss_plan();
    plan.duplicate_probability = 0.2;
    plan.corrupt_probability = 0.1;
    w.net.set_fault_plan(plan);
    w.net.start_beaconing(100, 1000, 20'000);
    w.sim.run_until(30'000);
    std::vector<bool> connected;
    for (const NodeId u : w.users) connected.push_back(w.net.is_connected(u));
    return std::make_pair(w.net.stats(), connected);
  };
  const auto [seq_stats, seq_conn] = run(0);
  const auto [pool_stats, pool_conn] = run(4);
  // Bit-identity: the pool only parallelises signature checks inside the
  // sequential batch protocol, so every observable matches exactly.
  EXPECT_EQ(seq_conn, pool_conn);
  EXPECT_EQ(seq_stats.frames_transmitted, pool_stats.frames_transmitted);
  EXPECT_EQ(seq_stats.frames_lost, pool_stats.frames_lost);
  EXPECT_EQ(seq_stats.retransmissions, pool_stats.retransmissions);
  EXPECT_EQ(seq_stats.handshake_timeouts, pool_stats.handshake_timeouts);
  EXPECT_EQ(seq_stats.corrupted_rejected, pool_stats.corrupted_rejected);
  EXPECT_EQ(seq_stats.frames_duplicated, pool_stats.frames_duplicated);
}

TEST_F(ChaosTest, PeerLinksSurviveLossyHandshakes) {
#ifndef PEACE_OBS_DISABLED
  // Traced, so the trace can be checked against the counters below.
  obs::Tracer::global().clear();
  obs::enable(true);
#endif
  ChaosWorld w("chaos-peer");
  w.net.set_fault_plan(burst_loss_plan());
  w.net.start_beaconing(100, 1000, 20'000);
  w.sim.run_until(25'000);
  w.expect_converged();

  // Peer handshakes ride the same faulty radio; the M~.1/M~.2 timers and
  // the M~.3-from-cache recovery must still converge every adjacent pair.
  // A second discovery round retries any pair whose retry budget ran out
  // (establish_peer_links skips pairs already established or in flight).
  w.net.establish_peer_links();
  w.sim.run_until(60'000);
  w.net.establish_peer_links();
  w.sim.run_until(90'000);
  // Adjacent users are 30–34m apart (< 80m user radio): the relay chain
  // must work end to end, which proves the peer sessions exist.
  w.net.set_fault_plan(FaultPlan{});  // quiesce the radio for the probe
  std::uint64_t ok = 0;
  for (const NodeId u : w.users) ok += w.net.send_data(u, as_bytes("relay"));
  EXPECT_EQ(ok, w.users.size());
  w.expect_pending_bounded();

#ifndef PEACE_OBS_DISABLED
  // Every discrete reliability event records exactly one trace instant per
  // counted occurrence — including the M~.3 resent from the cache.
  obs::enable(false);
  obs::drain_sec_events();
  std::map<std::string, std::uint64_t> instants;
  for (const obs::TraceEvent& e : obs::Tracer::global().events())
    if (e.ph == 'i') ++instants[e.name];
  obs::Tracer::global().clear();
  const NetworkStats& s = w.net.stats();
  EXPECT_GT(s.retransmissions, 0u);
  EXPECT_EQ(instants["mesh.retransmit"], s.retransmissions);
  EXPECT_EQ(instants["mesh.handshake_timeout"], s.handshake_timeouts);
  EXPECT_EQ(instants["mesh.rekey"], s.rekeys);
  EXPECT_EQ(instants["mesh.failover"], s.failovers);
#endif
}

}  // namespace
}  // namespace peace::mesh
