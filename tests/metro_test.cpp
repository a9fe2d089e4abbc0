// The metro-scale sharded simulation driver (docs/ARCHITECTURE.md §7):
// the bit-identity contract (a 1-shard metro replays the pre-sharding
// single event loop exactly), cross-shard roaming through mailbox
// handoffs, partition park-and-retry, backbone internet relay, the
// bounded inbox/arena/parked-handoff caps, per-shard event budgets, the
// order-independent cross-shard stats merges the obs layer relies on, and
// thread-count independence of a whole metro_city day.
#include <array>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "mesh/metro.hpp"
#include "mesh/metro_scenario.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace peace::mesh {
namespace {

constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;

class MetroTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { curve::Bn254::init(); }
};

/// Operator-side state for one run. Seeded, so two Worlds built from the
/// same seed issue byte-identical credentials.
struct World {
  explicit World(const std::string& seed)
      : no(crypto::Drbg::from_string(seed + "-no")),
        gm(no.register_group("G", 8, ttp)) {}
  std::unique_ptr<proto::User> make_user(const std::string& seed,
                                         const std::string& uid) {
    auto user = std::make_unique<proto::User>(
        uid, no.params(), crypto::Drbg::from_string(seed + "-" + uid));
    user->complete_enrollment(gm.enroll(uid, ttp));
    return user;
  }
  proto::NetworkOperator no;
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm;
};

/// One observed transmission, for byte-exact run comparison.
struct Frame {
  std::string kind;
  Bytes payload;
  bool operator==(const Frame&) const = default;
};

void log_frames(MeshNetwork& net, std::vector<Frame>& log) {
  net.add_tap([&log](const WireObservation& obs) {
    log.push_back(Frame{obs.kind, obs.payload});
  });
}

TEST_F(MetroTest, SingleShardBitIdentity) {
  // The contract from shard.hpp: a topology that fits in one shard runs
  // bit-identically to the plain single-loop MeshNetwork — same DRBG seed,
  // same event order (chunked run_until visits events exactly as one call
  // would), hence byte-identical wire traffic under 20% radio loss.
  const std::string seed = "metro-bitid";
  const RadioConfig radio{.router_range = 250,
                          .user_range = 80,
                          .loss_probability = 0.2,
                          .latency_ms = 2};

  std::vector<Frame> plain_log;
  std::uint64_t plain_events = 0;
  NetworkStats plain_stats;
  std::size_t plain_connected = 0;
  {
    World w(seed);
    Simulator sim;
    MeshNetwork net(sim, crypto::Drbg::from_string(seed + "-net"), radio);
    net.add_router({0, 0}, w.no, kFarFuture);
    for (int i = 0; i < 3; ++i)
      net.add_user({30.0 * (i + 1), 0},
                   w.make_user(seed, "u" + std::to_string(i)));
    log_frames(net, plain_log);
    net.start_beaconing(100, 500, 3000);
    sim.run_until(5000);
    plain_events = sim.events_processed();
    plain_stats = net.stats();
    for (const NodeId id : net.user_ids())
      plain_connected += net.is_connected(id) ? 1 : 0;
  }

  std::vector<Frame> metro_log;
  {
    World w(seed);
    MetroConfig mc;
    mc.tick_ms = 250;  // chunk the identical timeline into 20 barriers
    MetroSimulation metro(mc);
    const ShardId sid = metro.add_shard("seg", seed + "-net", radio);
    MeshNetwork& net = metro.shard(sid).net();
    net.add_router({0, 0}, w.no, kFarFuture);
    for (int i = 0; i < 3; ++i)
      metro.add_user(sid, {30.0 * (i + 1), 0},
                     w.make_user(seed, "u" + std::to_string(i)));
    log_frames(net, metro_log);
    net.start_beaconing(100, 500, 3000);
    metro.run_until(5000);

    EXPECT_EQ(metro.sim_events_total(), plain_events);
    EXPECT_EQ(net.stats().frames_transmitted, plain_stats.frames_transmitted);
    EXPECT_EQ(net.stats().frames_lost, plain_stats.frames_lost);
    std::size_t connected = 0;
    for (const NodeId id : net.user_ids())
      connected += net.is_connected(id) ? 1 : 0;
    EXPECT_EQ(connected, plain_connected);
    // No mailbox traffic can exist with one shard.
    EXPECT_EQ(metro.stats().msgs_routed, 0u);
    EXPECT_GT(metro.stats().barriers, 1u);
  }

  ASSERT_FALSE(plain_log.empty());
  // Every frame, byte for byte, down to each nonce and loss draw.
  EXPECT_EQ(metro_log, plain_log);
}

TEST_F(MetroTest, CrossShardRoamingReauthenticatesAndDeltasReachEveryShard) {
  const std::string seed = "metro-roam";
  World w(seed);
  const RadioConfig radio{.router_range = 250,
                          .user_range = 80,
                          .loss_probability = 0.0,
                          .latency_ms = 2};
  MetroSimulation metro;
  const ShardId east = metro.add_shard("east", seed + "/east", radio);
  const ShardId west = metro.add_shard("west", seed + "/west", radio);
  metro.connect_shards(east, west);
  metro.shard(east).net().add_router({0, 0}, w.no, kFarFuture);
  metro.shard(west).net().add_router({0, 0}, w.no, kFarFuture);
  const MetroUserId commuter =
      metro.add_user(east, {50, 0}, w.make_user(seed, "commuter"));
  metro.shard(east).net().start_beaconing(100, 500, 20000);
  metro.shard(west).net().start_beaconing(100, 500, 20000);

  metro.run_until(3000);
  {
    const auto loc = metro.locate_user(commuter);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(loc->shard, east);
    EXPECT_TRUE(metro.shard(east).net().is_connected(loc->node));
  }

  // Roam east -> west: extracted now, in transit until the next barrier.
  metro.roam_user(commuter, west, {60, 0});
  EXPECT_TRUE(metro.user_in_transit(commuter));
  EXPECT_FALSE(metro.locate_user(commuter).has_value());
  EXPECT_EQ(metro.shard(east).net().stats().users_removed, 1u);
  EXPECT_EQ(metro.shard(east).net().user_count(), 0u);

  metro.run_until(3000 + metro.config().tick_ms);
  const auto arrived = metro.locate_user(commuter);
  ASSERT_TRUE(arrived.has_value());
  EXPECT_EQ(arrived->shard, west);
  EXPECT_FALSE(metro.user_in_transit(commuter));
  EXPECT_EQ(metro.stats().handoffs_completed, 1u);
  EXPECT_GE(metro.stats().msgs_routed, 1u);
  EXPECT_EQ(metro.stats().handoffs_parked, 0u);

  // Sessions never cross segments: the user re-authenticates on the next
  // west beacon (a fresh anonymous handshake, per the privacy model).
  EXPECT_FALSE(metro.shard(west).net().is_connected(arrived->node));
  metro.run_until(8000);
  EXPECT_TRUE(metro.shard(west).net().is_connected(arrived->node));

  // A revocation wave reaches every segment's RCU snapshot (loss 0, so one
  // announcement converges both shards deterministically).
  const auto v0 = metro.shard(east).net().revocation()->url_version();
  EXPECT_EQ(metro.shard(west).net().revocation()->url_version(), v0);
  w.no.revoke_user_key(w.gm.enroll("mallory", w.ttp).index, metro.now());
  const auto announce = w.no.make_delta_announcement(0, 0);
  metro.announce_rl_deltas(announce, w.no);
  metro.run_until(9000);
  const auto east_v = metro.shard(east).net().revocation()->url_version();
  const auto west_v = metro.shard(west).net().revocation()->url_version();
  EXPECT_GT(east_v, v0);
  EXPECT_EQ(east_v, west_v);
  EXPECT_EQ(east_v, w.no.current_url().version);
}

TEST_F(MetroTest, PartitionParksHandoffsUntilHealed) {
  // The chaos variant: a user roams across a partitioned backbone link —
  // the handoff parks (never silently dies), survives the partition, and
  // the user reconverges after the heal.
  const std::string seed = "metro-chaos";
  World w(seed);
  const RadioConfig radio{.router_range = 250,
                          .user_range = 80,
                          .loss_probability = 0.0,
                          .latency_ms = 2};
  MetroSimulation metro;
  const ShardId a = metro.add_shard("seg-a", seed + "/a", radio);
  const ShardId b = metro.add_shard("seg-b", seed + "/b", radio);
  metro.connect_shards(a, b);
  metro.shard(a).net().add_router({0, 0}, w.no, kFarFuture);
  metro.shard(b).net().add_router({0, 0}, w.no, kFarFuture);
  const MetroUserId uid = metro.add_user(a, {40, 0}, w.make_user(seed, "u"));
  metro.shard(a).net().start_beaconing(100, 500, 30000);
  metro.shard(b).net().start_beaconing(100, 500, 30000);
  metro.run_until(2000);

  metro.set_shard_link_blocked(a, b, true);
  metro.roam_user(uid, b, {45, 0});
  metro.run_until(2000 + 3 * metro.config().tick_ms);
  // Parked, not dropped: the user is in limbo but alive.
  EXPECT_GE(metro.stats().handoffs_parked, 1u);
  EXPECT_EQ(metro.stats().handoffs_dropped, 0u);
  EXPECT_TRUE(metro.user_in_transit(uid));
  EXPECT_FALSE(metro.locate_user(uid).has_value());
  EXPECT_EQ(metro.stats().handoffs_completed, 0u);
  EXPECT_EQ(metro.user_count(), 1u);

  metro.set_shard_link_blocked(a, b, false);
  metro.run_until(metro.now() + metro.config().tick_ms);
  const auto loc = metro.locate_user(uid);
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->shard, b);
  // Reconverged: authenticated in the new segment after the heal.
  metro.run_until(metro.now() + 5000);
  EXPECT_TRUE(metro.shard(b).net().is_connected(loc->node));
  EXPECT_EQ(metro.stats().handoffs_dropped, 0u);
}

TEST_F(MetroTest, ParkedHandoffCapDropsOldestUser) {
  // cap + 1 handoffs park behind a blocked link: the oldest parked user
  // leaves the metro, the rest arrive once the link heals.
  const std::string seed = "metro-park-cap";
  World w(seed);
  MetroConfig mc;
  mc.pending_handoff_cap = 2;
  MetroSimulation metro(mc);
  const ShardId a = metro.add_shard("seg-a", seed + "/a");
  const ShardId b = metro.add_shard("seg-b", seed + "/b");
  metro.connect_shards(a, b);
  std::vector<MetroUserId> users;
  for (std::size_t i = 0; i <= mc.pending_handoff_cap; ++i)
    users.push_back(metro.add_user(
        a, {10.0 * static_cast<double>(i), 0},
        w.make_user(seed, "u" + std::to_string(i))));

  metro.set_shard_link_blocked(a, b, true);
  for (const MetroUserId uid : users) metro.roam_user(uid, b, {20, 0});
  metro.run_until(3 * metro.config().tick_ms);
  EXPECT_EQ(metro.stats().handoffs_parked, users.size());
  EXPECT_EQ(metro.stats().handoffs_dropped, 1u);
  EXPECT_FALSE(metro.locate_user(users[0]).has_value());
  EXPECT_FALSE(metro.user_in_transit(users[0]));
  EXPECT_EQ(metro.user_count(), mc.pending_handoff_cap);
  for (std::size_t i = 1; i < users.size(); ++i)
    EXPECT_TRUE(metro.user_in_transit(users[i])) << "user " << i;

  metro.set_shard_link_blocked(a, b, false);
  metro.run_until(metro.now() + metro.config().tick_ms);
  EXPECT_EQ(metro.stats().handoffs_completed, mc.pending_handoff_cap);
  EXPECT_EQ(metro.stats().handoffs_dropped, 1u);
  for (std::size_t i = 1; i < users.size(); ++i) {
    const auto loc = metro.locate_user(users[i]);
    ASSERT_TRUE(loc.has_value()) << "user " << i;
    EXPECT_EQ(loc->shard, b);
  }
}

TEST_F(MetroTest, CrossShardRunsAreReproducible) {
  // Two-shard determinism: the mailbox/barrier machinery adds no hidden
  // nondeterminism — identical seeds give byte-identical wire traffic on
  // every shard, including across a roaming handoff, whether both shards
  // tick on one thread or on two. A tap runs on the thread running its
  // shard's tick, so each shard logs into its own vector.
  const auto run = [](const std::string& seed, unsigned threads) {
    World w(seed);
    const RadioConfig radio{.router_range = 250,
                            .user_range = 80,
                            .loss_probability = 0.1,
                            .latency_ms = 2};
    MetroConfig mc;
    mc.threads = threads;
    MetroSimulation metro(mc);
    const ShardId s0 = metro.add_shard("s0", seed + "/s0", radio);
    const ShardId s1 = metro.add_shard("s1", seed + "/s1", radio);
    metro.connect_shards(s0, s1);
    metro.shard(s0).net().add_router({0, 0}, w.no, kFarFuture);
    metro.shard(s1).net().add_router({0, 0}, w.no, kFarFuture);
    const MetroUserId uid =
        metro.add_user(s0, {50, 0}, w.make_user(seed, "u"));
    std::array<std::vector<Frame>, 2> logs;
    log_frames(metro.shard(s0).net(), logs[0]);
    log_frames(metro.shard(s1).net(), logs[1]);
    metro.shard(s0).net().start_beaconing(100, 500, 6000);
    metro.shard(s1).net().start_beaconing(100, 500, 6000);
    metro.run_until(2000);
    metro.roam_user(uid, s1, {30, 0});
    metro.run_until(7000);
    return std::pair{std::move(logs), metro.sim_events_total()};
  };
  const auto first = run("metro-repro", 1);
  const auto second = run("metro-repro", 1);
  const auto parallel = run("metro-repro", 2);
  ASSERT_FALSE(first.first[0].empty());
  ASSERT_FALSE(first.first[1].empty());
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, parallel);
}

TEST_F(MetroTest, InboxCapShedsOverflow) {
  MetroConfig mc;
  mc.shard_inbox_cap = 2;
  MetroSimulation metro(mc);
  const ShardId src = metro.add_shard("src", "inbox-src");
  const ShardId dst = metro.add_shard("dst", "inbox-dst");
  metro.connect_shards(src, dst);
  std::size_t handled = 0;
  metro.set_frame_handler(
      [&](ShardId, std::uint32_t, BytesView) { ++handled; });
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(metro.post_frame(src, dst, as_bytes("overflow"), 7));
  metro.run_until(metro.config().tick_ms);
  // Two fit the inbox; three shed at the cap instead of growing memory.
  EXPECT_EQ(handled, 2u);
  EXPECT_EQ(metro.stats().inbox_dropped, 3u);
}

TEST_F(MetroTest, ArenaCapShedsPostedFrames) {
  MetroConfig mc;
  mc.shard_frame_cap = 2;
  MetroSimulation metro(mc);
  const ShardId src = metro.add_shard("src", "arena-src");
  const ShardId dst = metro.add_shard("dst", "arena-dst");
  metro.connect_shards(src, dst);
  EXPECT_TRUE(metro.post_frame(src, dst, as_bytes("a"), 1));
  EXPECT_TRUE(metro.post_frame(src, dst, as_bytes("b"), 1));
  // The origin arena is at its cap: shedding, counted, no growth.
  EXPECT_FALSE(metro.post_frame(src, dst, as_bytes("c"), 1));
  EXPECT_EQ(metro.stats().frames_posted, 2u);
  EXPECT_EQ(metro.stats().frames_shed, 1u);
  metro.run_until(metro.config().tick_ms);
  // Delivered frames return their buffers; posting works again.
  EXPECT_TRUE(metro.post_frame(src, dst, as_bytes("d"), 1));
}

TEST_F(MetroTest, InternetRelayHopsTowardApShard) {
  MetroSimulation metro;
  const ShardId s0 = metro.add_shard("s0", "relay-0");
  const ShardId s1 = metro.add_shard("s1", "relay-1");
  const ShardId s2 = metro.add_shard("s2", "relay-2");
  metro.connect_shards(s0, s1);
  metro.connect_shards(s1, s2);
  metro.shard(s2).net().add_access_point({0, 0});

  // One shard hop per tick: s0 -> s1 -> s2 (the AP shard) in two barriers.
  EXPECT_TRUE(metro.relay_to_internet(s0, as_bytes("uplink")));
  metro.run_until(metro.config().tick_ms);
  EXPECT_EQ(metro.stats().relay_delivered, 0u);
  metro.run_until(2 * metro.config().tick_ms);
  EXPECT_EQ(metro.stats().relay_delivered, 1u);

  // A segment with its own AP delivers without touching the backbone.
  EXPECT_TRUE(metro.relay_to_internet(s2, as_bytes("local")));
  EXPECT_EQ(metro.stats().relay_delivered, 2u);

  // Partition the only path to an AP: the relay is refused and counted.
  metro.set_shard_link_blocked(s1, s2, true);
  EXPECT_FALSE(metro.relay_to_internet(s0, as_bytes("stranded")));
  EXPECT_EQ(metro.stats().relay_dropped, 1u);
}

TEST_F(MetroTest, EventBudgetExhaustionNamesShard) {
  // Two shards run away in the same tick: at any thread count the error
  // names the lower shard id, never the other runaway or the quiet one.
  for (const unsigned threads : {1u, 3u}) {
    MetroConfig mc;
    mc.shard_event_budget = 25;
    mc.threads = threads;
    MetroSimulation metro(mc);
    metro.add_shard("quiet-seg", "budget-quiet");
    const ShardId noisy = metro.add_shard("overload-seg", "budget-noisy");
    const ShardId other = metro.add_shard("runaway-seg", "budget-runaway");
    std::array<std::function<void()>, 2> forever;
    for (std::size_t k = 0; k < 2; ++k) {
      Simulator& sim = metro.shard(k == 0 ? noisy : other).sim();
      forever[k] = [&sim, &f = forever[k]] { sim.schedule_in(1, f); };
      sim.schedule(0, forever[k]);
    }
    try {
      metro.run_until(1000);
      FAIL() << "expected the per-shard event budget to throw";
    } catch (const Error& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("overload-seg"), std::string::npos) << msg;
      EXPECT_NE(msg.find("event budget exhausted"), std::string::npos) << msg;
      EXPECT_EQ(msg.find("quiet-seg"), std::string::npos) << msg;
      EXPECT_EQ(msg.find("runaway-seg"), std::string::npos) << msg;
    }
  }
}

TEST_F(MetroTest, StatsMergeOrderIndependence) {
  // Satellite 3: cross-shard aggregation must not depend on shard visit
  // order. Generate real per-shard traffic, fold every stats family
  // forward and reverse, and demand identical merged values — including
  // through the obs registry snapshot the aggregate publish produces.
  const std::string seed = "metro-merge";
  World w(seed);
  const RadioConfig radio{.router_range = 250,
                          .user_range = 80,
                          .loss_probability = 0.1,
                          .latency_ms = 2};
  MetroSimulation metro;
  for (int i = 0; i < 3; ++i) {
    const std::string label = "seg-" + std::to_string(i);
    const ShardId id = metro.add_shard(label, seed + "/" + label, radio);
    metro.shard(id).net().add_router({0, 0}, w.no, kFarFuture);
    if (i > 0) metro.connect_shards(0, id);
  }
  metro.add_user(0, {40, 0}, w.make_user(seed, "u0"));
  metro.add_user(1, {60, 0}, w.make_user(seed, "u1"));
  for (std::size_t i = 0; i < metro.shard_count(); ++i)
    metro.shard(static_cast<ShardId>(i))
        .net()
        .start_beaconing(100, 500, 4000);
  metro.run_until(5000);

  // Every tabled stats struct folds through the generic field-wise sum.
  NetworkStats fwd, rev;
  proto::RouterStats rf, rr;
  proto::UserStats uf, ur;
  groupsig::OpCounters of, orev;
  revoke::SharedRevocationStats sf, sr;
  for (std::size_t i = 0; i < metro.shard_count(); ++i) {
    const auto& net = metro.shard(static_cast<ShardId>(i)).net();
    fwd = obs::sum(fwd, net.stats());
    rf = obs::sum(rf, net.router_stats_total());
    uf = obs::sum(uf, net.user_stats_total());
    of = obs::sum(of, net.verify_ops_total());
    sf = obs::sum(sf, net.revocation()->stats());
  }
  for (std::size_t i = metro.shard_count(); i-- > 0;) {
    const auto& net = metro.shard(static_cast<ShardId>(i)).net();
    rev = obs::sum(rev, net.stats());
    rr = obs::sum(rr, net.router_stats_total());
    ur = obs::sum(ur, net.user_stats_total());
    orev = obs::sum(orev, net.verify_ops_total());
    sr = obs::sum(sr, net.revocation()->stats());
  }
  EXPECT_EQ(std::memcmp(&fwd, &rev, sizeof(NetworkStats)), 0);
  EXPECT_EQ(std::memcmp(&rf, &rr, sizeof(proto::RouterStats)), 0);
  EXPECT_EQ(std::memcmp(&uf, &ur, sizeof(proto::UserStats)), 0);
  EXPECT_EQ(std::memcmp(&of, &orev, sizeof(groupsig::OpCounters)), 0);
  EXPECT_EQ(std::memcmp(&sf, &sr, sizeof(revoke::SharedRevocationStats)), 0);
  EXPECT_GT(fwd.frames_transmitted, 0u);
  EXPECT_GT(of.pairings, 0u);
  EXPECT_GT(sf.snapshots_published, 0u);

  // Registry snapshots built from the two folds agree bit for bit.
  auto& reg = obs::Registry::global();
  reg.reset();
  obs::absorb(rf);
  obs::absorb(uf);
  obs::absorb(of);
  obs::absorb(sf);
  absorb_network_stats(fwd, metro.sim_events_total());
  const std::string snap_fwd = reg.to_json();
  reg.reset();
  obs::absorb(rr);
  obs::absorb(ur);
  obs::absorb(orev);
  obs::absorb(sr);
  absorb_network_stats(rev, metro.sim_events_total());
  const std::string snap_rev = reg.to_json();
  EXPECT_EQ(snap_fwd, snap_rev);

  // And the one-call aggregate publish is idempotent.
  metro.publish_metrics();
  const std::string once = reg.to_json();
  metro.publish_metrics();
  EXPECT_EQ(reg.to_json(), once);
}

TEST_F(MetroTest, TickMessagesRouteInSerialOrderAtAnyThreadCount) {
  // Three segments post frames to a fourth in the same ticks, past its
  // inbox cap. Stamping the tick's messages at the barrier in (shard id,
  // emission order) gives the one-thread arrival order — and sheds the
  // same frames — at any thread count.
  const auto run = [](unsigned threads) {
    MetroConfig mc;
    mc.threads = threads;
    mc.shard_inbox_cap = 24;
    MetroSimulation metro(mc);
    const ShardId dst = metro.add_shard("dst", "order-dst");
    for (std::uint32_t k = 1; k <= 3; ++k) {
      const ShardId src = metro.add_shard("src-" + std::to_string(k),
                                          "order-src-" + std::to_string(k));
      metro.connect_shards(src, dst);
      Simulator& sim = metro.shard(src).sim();
      for (std::uint32_t i = 0; i < 140; ++i)
        sim.schedule(1 + 7 * i, [&metro, src, dst, tag = 1000 * k + i] {
          (void)metro.post_frame(src, dst, as_bytes("ordered"), tag);
        });
    }
    std::vector<std::uint32_t> arrivals;
    metro.set_frame_handler([&arrivals](ShardId, std::uint32_t tag,
                                        BytesView) { arrivals.push_back(tag); });
    metro.run_until(1000);
    return std::pair{arrivals, metro.stats().inbox_dropped};
  };
  const auto serial = run(1);
  ASSERT_GT(serial.second, 0u);
  EXPECT_EQ(run(4), serial);
}

/// The security events drained since the tracer was last cleared, in drain
/// order: the drain forwards each one to the tracer as a "sec" or "health"
/// instant on the sim-time track. Clears the tracer.
std::vector<std::string> take_sec_stream() {
  std::vector<std::string> stream;
  for (const obs::TraceEvent& e : obs::Tracer::global().events()) {
    const std::string cat = e.cat;
    if (e.pid != obs::Tracer::kSimPid || (cat != "sec" && cat != "health"))
      continue;
    std::string line = cat + " " + e.name + " @" + std::to_string(e.ts_us);
    for (std::size_t i = 0; i < e.nargs; ++i)
      line += std::string(" ") + e.args[i].key + "=" +
              std::to_string(e.args[i].value);
    stream.push_back(std::move(line));
  }
  obs::Tracer::global().clear();
  return stream;
}

#ifndef PEACE_OBS_DISABLED  // the stream carries records only with obs on

TEST_F(MetroTest, TiedSecurityEventsDrainInShardOrder) {
  // Four shards emit a security event at the same sim times in every tick.
  // Whichever threads run the shards, the drained stream lists each tie in
  // shard-id order — the order one thread visiting the shards would emit.
  const auto run = [](unsigned threads) {
    MetroConfig mc;
    mc.threads = threads;
    MetroSimulation metro(mc);
    for (int k = 0; k < 4; ++k) {
      const ShardId id = metro.add_shard("tie-" + std::to_string(k),
                                         "tie-" + std::to_string(k));
      Simulator& sim = metro.shard(id).sim();
      for (SimTime t = 5; t < 3000; t += 10)
        sim.schedule(t, [&sim, id] {
          obs::sec_emit(obs::SecEventKind::kSessionRekey, sim.now(), id);
        });
    }
    obs::drain_sec_events();
    obs::Tracer::global().clear();
    obs::enable(true);
    metro.run_until(3000);
    obs::enable(false);
    return take_sec_stream();
  };
  const std::vector<std::string> serial = run(1);
  ASSERT_EQ(serial.size(), 4u * 300);
  EXPECT_EQ(run(4), serial);
}

#endif  // PEACE_OBS_DISABLED

/// Everything a metro_city day produces that must not depend on threads.
struct CityDay {
  MetroCityReport report;
  std::string counters_and_gauges;  // registry export, histograms cut
  std::uint64_t parallel_ticks = 0;
  std::vector<std::string> sec_stream;  // drained events, in drain order
  std::vector<std::string> alerts;
  std::vector<std::vector<Frame>> taps;  // by shard
};

CityDay run_city_day(unsigned threads) {
  MetroCityConfig config;
  config.shards = 4;
  config.synthetic_users = 2'000;
  config.cohort_users = 8;
  config.day_ms = 8'640'000;
  config.revocation_waves = 2;
  config.seed = "metro-threads";
  config.forgery_burst = true;
  config.revoked_burst = true;
  config.threads = threads;
  obs::HealthMonitor monitor;
  config.health = &monitor;
  CityDay day;
  day.taps.resize(config.shards);
  config.tap = [&day](ShardId shard, const WireObservation& o) {
    day.taps[shard].push_back(Frame{o.kind, o.payload});
  };

  auto& reg = obs::Registry::global();
  reg.reset();
  obs::drain_sec_events();
  obs::Tracer::global().clear();
  obs::enable(true);
  day.report = run_metro_city(config);
  obs::enable(false);

  day.sec_stream = take_sec_stream();
  for (const obs::HealthAlert& a : monitor.alerts())
    day.alerts.push_back(std::string(a.rule) + " " + a.label + " shard=" +
                         std::to_string(a.shard) + " @" +
                         std::to_string(a.sim_ms) + " n=" +
                         std::to_string(a.window_count) + " ewma=" +
                         std::to_string(a.ewma));

  // Counters and gauges, minus the one counter that reports how the ticks
  // were scheduled; histograms hold wall-clock timings.
  day.parallel_ticks = reg.counter("metro.parallel_ticks").value();
  reg.counter("metro.parallel_ticks").reset();
  const std::string json = reg.to_json();
  day.counters_and_gauges = json.substr(0, json.find("\"histograms\""));
  reg.reset();
  return day;
}

TEST_F(MetroTest, ThreadCountDoesNotChangeTheDay) {
  // The thread-per-shard contract on a whole day — commute roams, the
  // flash crowd, revocation waves, a forged-M.2 burst and a revoked mole
  // with an armed HealthMonitor: every report field (but wall time), every
  // counter and gauge, the drained security-event stream, the health
  // alerts and each shard's wire bytes are identical at 1 to 4 threads.
  const CityDay base = run_city_day(1);
  EXPECT_EQ(base.parallel_ticks, 0u);
  ASSERT_EQ(base.report.cohort_connected, base.report.cohort_users);
  for (const auto& tap : base.taps) ASSERT_FALSE(tap.empty());
#ifndef PEACE_OBS_DISABLED  // PEACE_OBS=OFF records no stream or alerts
  ASSERT_FALSE(base.sec_stream.empty());
  ASSERT_FALSE(base.alerts.empty());
#endif
  for (const unsigned threads : {2u, 3u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const CityDay day = run_city_day(threads);
    EXPECT_GT(day.parallel_ticks, 0u);
    const MetroCityReport& a = base.report;
    const MetroCityReport& b = day.report;
    EXPECT_EQ(a.total_users, b.total_users);
    EXPECT_EQ(a.cohort_connected, b.cohort_connected);
    EXPECT_EQ(a.cohort_roams, b.cohort_roams);
    EXPECT_EQ(a.sim_ms, b.sim_ms);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.revocation_waves, b.revocation_waves);
    EXPECT_EQ(a.url_version, b.url_version);
    EXPECT_EQ(a.health_alerts, b.health_alerts);
    EXPECT_EQ(std::memcmp(&a.metro, &b.metro, sizeof(MetroStats)), 0);
    EXPECT_EQ(std::memcmp(&a.net, &b.net, sizeof(NetworkStats)), 0);
    EXPECT_EQ(std::memcmp(&a.synthetic, &b.synthetic, sizeof(SyntheticStats)),
              0);
    EXPECT_EQ(base.counters_and_gauges, day.counters_and_gauges);
    EXPECT_EQ(base.sec_stream, day.sec_stream);
    EXPECT_EQ(base.alerts, day.alerts);
    EXPECT_EQ(base.taps, day.taps);
  }
}

TEST_F(MetroTest, ShardPoolEmitsNoVerifyPoolCounters) {
  // pool.* counts verify batches only: the metro's own pool runs shard
  // ticks and cohort enrollment without touching pool.jobs or
  // pool.batches, and the day's routers verify inline.
  MetroCityConfig config;
  config.shards = 2;
  config.synthetic_users = 200;
  config.cohort_users = 4;
  config.day_ms = 3'600'000;
  config.revocation_waves = 1;
  config.seed = "metro-pool-telemetry";
  config.threads = 2;
  auto& reg = obs::Registry::global();
  reg.reset();
  const MetroCityReport report = run_metro_city(config);
  EXPECT_EQ(report.cohort_connected, report.cohort_users);
  EXPECT_GT(reg.counter("metro.parallel_ticks").value(), 0u);
  EXPECT_EQ(reg.counter("pool.jobs").value(), 0u);
  EXPECT_EQ(reg.counter("pool.batches").value(), 0u);
  reg.reset();
}

}  // namespace
}  // namespace peace::mesh
