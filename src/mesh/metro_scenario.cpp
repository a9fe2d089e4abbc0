#include "mesh/metro_scenario.hpp"

#include <algorithm>
#include <chrono>

#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/sec_event.hpp"

namespace peace::mesh {

namespace {

// Cross-shard frame tags (CrossShardMsg::tag) used by the scenario.
constexpr std::uint32_t kTagMove = 1;  // payload: u64-LE population count
constexpr std::uint32_t kTagData = 2;  // modeled background data frame

constexpr proto::Timestamp kCertLifetimeMs = 1000ull * 86400 * 365;

constexpr SimTime kSyntheticStepMs = 60'000;  // each shard's activity step
constexpr std::size_t kForgeryBurstSize = 48;  // forged M.2s in one batch
constexpr std::size_t kRevokedBurstSize = 24;  // the mole's handshakes

Bytes encode_u64(std::uint64_t v) {
  Bytes out(8);
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  return out;
}

std::uint64_t decode_u64(BytesView b) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8 && i < b.size(); ++i)
    v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

/// Revocation epochs of 15 simulated minutes: the city trades linkability
/// within an epoch for O(1) revocation checks (PROTOCOL.md §3.1), and an
/// hour-long day crosses several epoch boundaries.
constexpr proto::Timestamp kRevocationEpochMs = 15 * 60'000;

proto::ProtocolConfig city_protocol_config() {
  proto::ProtocolConfig config;
  config.replay_window_ms = 60'000;
  config.revocation_epoch_ms = kRevocationEpochMs;
  return config;
}

/// Synthetic background population of one shard: a head count plus a DRBG
/// that models its activity. No crypto — the point is engine load.
struct SyntheticSegment {
  std::uint64_t population = 0;
  crypto::Drbg rng;
  SyntheticStats stats;

  explicit SyntheticSegment(crypto::Drbg r) : rng(std::move(r)) {}
};

struct CohortMember {
  MetroUserId id = 0;
  ShardId home = 0;
};

struct City {
  const MetroCityConfig& cfg;
  proto::NetworkOperator no;
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm;
  MetroSimulation metro;
  std::vector<SyntheticSegment> synthetic;
  std::vector<CohortMember> cohort;
  std::uint64_t cohort_roams = 0;
  unsigned waves_pushed = 0;

  explicit City(const MetroCityConfig& c)
      : cfg(c),
        no(crypto::Drbg::from_string(c.seed + "/no")),
        gm(no.register_group("metro-city",
                             // headroom: +1 spare, +1 attacker, +1 mole
                             c.cohort_users + c.revocation_waves + 3, ttp)),
        metro([&] {
          MetroConfig mc;
          mc.tick_ms = c.tick_ms;
          mc.shard_event_budget = c.shard_event_budget;
          mc.threads = c.threads;
          return mc;
        }()) {
    RadioConfig radio;
    radio.loss_probability = cfg.loss_probability;
    for (std::size_t i = 0; i < cfg.shards; ++i) {
      const std::string label = "shard-" + std::to_string(i);
      const ShardId id = metro.add_shard(label, cfg.seed + "/" + label, radio,
                                         city_protocol_config());
      MeshNetwork& net = metro.shard(id).net();
      net.add_router({0, 0}, no, kCertLifetimeMs);
      net.add_router({400, 0}, no, kCertLifetimeMs);
      // Wired exits at city hall (shard 0) and mid-town: relays from every
      // other segment hop the inter-shard backbone toward one of them.
      if (i == 0 || (cfg.shards > 2 && i == cfg.shards / 2))
        net.add_access_point({200, 300});
      if (cfg.tap)
        net.add_tap([tap = cfg.tap, id](const WireObservation& o) {
          tap(id, o);
        });
      synthetic.emplace_back(
          crypto::Drbg::from_string(cfg.seed + "/synthetic-" + label));
    }
    for (std::size_t i = 0; i + 1 < cfg.shards; ++i)
      metro.connect_shards(static_cast<ShardId>(i),
                           static_cast<ShardId>(i + 1));
    if (cfg.shards > 2)  // close the ring
      metro.connect_shards(static_cast<ShardId>(cfg.shards - 1), 0);

    // Synthetic population spread evenly; remainder to downtown.
    const std::uint64_t per = cfg.synthetic_users / cfg.shards;
    for (std::size_t i = 0; i < cfg.shards; ++i)
      synthetic[i].population = per;
    synthetic[0].population += cfg.synthetic_users - per * cfg.shards;

    // The real-crypto cohort, spread round-robin over home shards. The
    // group manager issues credentials in index order; each user, with its
    // own DRBG, then builds its keys and checks its credential on the
    // metro's pool.
    const auto uid = [](std::size_t i) {
      return "resident-" + std::to_string(i);
    };
    std::vector<proto::GroupManager::Enrollment> enrollments;
    enrollments.reserve(cfg.cohort_users);
    for (std::size_t i = 0; i < cfg.cohort_users; ++i)
      enrollments.push_back(gm.enroll(uid(i), ttp));
    const proto::SystemParams params = no.params();
    std::vector<std::unique_ptr<proto::User>> users(cfg.cohort_users);
    metro.pool().run(users.size(), [&](std::size_t i) {
      users[i] = std::make_unique<proto::User>(
          uid(i), params,
          crypto::Drbg::from_string(cfg.seed + "/" + uid(i)),
          city_protocol_config());
      users[i]->complete_enrollment(enrollments[i]);
    });
    for (std::size_t i = 0; i < cfg.cohort_users; ++i) {
      const ShardId home = static_cast<ShardId>(i % cfg.shards);
      const double col = static_cast<double>(i / cfg.shards % 10);
      const MetroUserId id = metro.add_user(
          home, {30.0 + 35.0 * col, (i % 2) != 0 ? 15.0 : -15.0},
          std::move(users[i]));
      cohort.push_back({id, home});
    }

    metro.set_frame_handler(
        [this](ShardId at, std::uint32_t tag, BytesView payload) {
          if (tag == kTagMove) {
            const std::uint64_t n = decode_u64(payload);
            synthetic[at].population += n;
            synthetic[at].stats.moved += n;
          }
          // kTagData frames exist to push bytes through the arena and the
          // mailboxes; arrival is the whole story.
        });
  }

  /// Beacon burst: every shard's routers beacon each second for 15 s. Can
  /// be scheduled upfront (absolute times) for any window of the day.
  void beacon_burst(SimTime start) {
    for (std::size_t i = 0; i < cfg.shards; ++i)
      metro.shard(static_cast<ShardId>(i))
          .net()
          .start_beaconing(start, 1'000, start + 15'000);
  }

  /// One synthetic activity step for shard `i`; reschedules itself until
  /// the end of the day.
  void synthetic_step(ShardId i) {
    SyntheticSegment& seg = synthetic[i];
    if (seg.population > 0) {
      // Modeled per-step activity, DRBG-jittered around population-scaled
      // means: a slice associates, a larger slice pushes data, a slice
      // browses the internet.
      seg.stats.associations += seg.rng.uniform(seg.population / 20 + 1);
      seg.stats.data_frames += seg.rng.uniform(seg.population / 4 + 1);
      const std::uint64_t internet = seg.rng.uniform(seg.population / 10 + 1);
      seg.stats.internet_frames += internet;
      // A bounded number of REAL frames per step ride the engine: pooled
      // buffers, mailboxes, barrier routing, backbone relay BFS.
      if (cfg.shards > 1) {
        const auto peer = static_cast<ShardId>(
            (i + 1 + seg.rng.uniform(cfg.shards - 1)) % cfg.shards);
        (void)metro.post_frame(i, peer, as_bytes("synthetic data"), kTagData);
      }
      if (internet > 0)
        (void)metro.relay_to_internet(i, as_bytes("synthetic internet"));
    }
    Simulator& sim = metro.shard(i).sim();
    if (sim.now() + kSyntheticStepMs < cfg.day_ms)
      sim.schedule_in(kSyntheticStepMs, [this, i] { synthetic_step(i); });
  }

  /// Moves `fraction` of `from`'s synthetic population to `to` through a
  /// kTagMove mailbox frame (arrives at the next barrier).
  void move_synthetic(ShardId from, ShardId to, double fraction) {
    if (from == to) return;
    auto& seg = synthetic[from];
    const auto n = static_cast<std::uint64_t>(
        static_cast<double>(seg.population) * fraction);
    if (n == 0) return;
    if (metro.post_frame(from, to, encode_u64(n), kTagMove))
      seg.population -= n;
  }

  /// Cross-shard cohort roam, skipping members still in transit.
  void roam_cohort(const std::function<std::optional<ShardId>(
                       const CohortMember&, ShardId current)>& dest_for) {
    for (const CohortMember& m : cohort) {
      const auto loc = metro.locate_user(m.id);
      if (!loc) continue;
      const auto dest = dest_for(m, loc->shard);
      if (!dest || *dest == loc->shard) continue;
      metro.roam_user(m.id, *dest, {60.0 + 10.0 * (m.id % 20), 0.0});
      ++cohort_roams;
    }
  }

  /// Every located cohort member pushes one probe toward the internet:
  /// in-segment when the shard has a wired exit, over the inter-shard
  /// backbone otherwise.
  void cohort_probes() {
    for (const CohortMember& m : cohort) {
      const auto loc = metro.locate_user(m.id);
      if (!loc) continue;
      MeshNetwork& net = metro.shard(loc->shard).net();
      if (!net.send_to_internet(loc->node, as_bytes("cohort traffic")))
        (void)metro.relay_to_internet(loc->shard, as_bytes("cohort traffic"));
    }
  }

  /// Chaos injection: kForgeryBurstSize forged M.2s — minted by an
  /// enrolled attacker against a real beacon, then broken post-signing
  /// (ts2 shift, so they parse and stay fresh but the group signature no
  /// longer covers the payload) — hit `target`'s first router as ONE
  /// batch. The randomized batch check fails, bisection pinpoints every
  /// forgery, and each rejection emits batch_forgery_attributed +
  /// auth_reject events attributed to `target`.
  void forgery_burst(ShardId target) {
    MeshNetwork& net = metro.shard(target).net();
    proto::MeshRouter& router = net.router(net.router_ids().front());
    const auto now = static_cast<proto::Timestamp>(
        metro.shard(target).sim().now());
    const proto::BeaconMessage beacon = router.make_beacon(now);
    proto::User attacker(
        "attacker", no.params(),
        crypto::Drbg::from_string(cfg.seed + "/attacker"),
        city_protocol_config());
    attacker.complete_enrollment(gm.enroll("attacker", ttp));
    std::vector<proto::AccessRequest> batch;
    batch.reserve(kForgeryBurstSize);
    for (std::size_t i = 0; i < kForgeryBurstSize; ++i) {
      auto m2 = attacker.process_beacon(beacon, now);
      if (!m2.has_value()) continue;
      m2->ts2 += 1;  // signature no longer covers the message
      batch.push_back(std::move(*m2));
    }
    // The injection happens inside `target`'s segment; tag its events so.
    obs::set_current_shard(target);
    (void)router.handle_access_requests(batch, now);
    obs::set_current_shard(0);
  }

  /// Chaos injection: a mole's credential is revoked, the fresh URL is
  /// installed at `target`, and the mole then attempts kRevokedBurstSize
  /// valid-signature handshakes — each one a revocation_hit at the
  /// scanning router.
  void revoked_burst(ShardId target) {
    proto::User mole("mole", no.params(),
                     crypto::Drbg::from_string(cfg.seed + "/mole"),
                     city_protocol_config());
    const auto credential = gm.enroll("mole", ttp);
    mole.complete_enrollment(credential);
    no.revoke_user_key(credential.index, metro.now());
    MeshNetwork& net = metro.shard(target).net();
    net.push_revocation_lists(no.current_crl(), no.current_url());
    proto::MeshRouter& router = net.router(net.router_ids().front());
    const auto now = static_cast<proto::Timestamp>(
        metro.shard(target).sim().now());
    const proto::BeaconMessage beacon = router.make_beacon(now);
    std::vector<proto::AccessRequest> batch;
    batch.reserve(kRevokedBurstSize);
    for (std::size_t i = 0; i < kRevokedBurstSize; ++i) {
      auto m2 = mole.process_beacon(beacon, now);
      if (m2.has_value()) batch.push_back(std::move(*m2));
    }
    obs::set_current_shard(target);
    (void)router.handle_access_requests(batch, now);
    obs::set_current_shard(0);
  }

  /// One rolling revocation wave: a key is revoked and the operator
  /// announces the delta to every segment over its lossy radio (announced
  /// twice — the second copy usually heals a lost first one; stragglers
  /// resync on the next wave's chain gap).
  void revocation_wave() {
    const std::string victim = "revoked-" + std::to_string(waves_pushed);
    no.revoke_user_key(gm.enroll(victim, ttp).index, metro.now());
    const auto announce = no.make_delta_announcement(0, waves_pushed);
    metro.announce_rl_deltas(announce, no);
    metro.announce_rl_deltas(announce, no);
    ++waves_pushed;
  }
};

}  // namespace

MetroCityReport run_metro_city(const MetroCityConfig& config) {
  const auto wall_start = std::chrono::steady_clock::now();
  City city(config);
  if (config.health != nullptr) city.metro.set_health_monitor(config.health);
  const SimTime day = config.day_ms;
  const auto frac = [day](double f) {
    return static_cast<SimTime>(static_cast<double>(day) * f);
  };
  const ShardId downtown = 0;
  const auto stadium = static_cast<ShardId>(config.shards - 1);

  // Beacon windows are known upfront (absolute times): dawn association,
  // the two commute waves, and the flash crowd.
  city.beacon_burst(frac(0.01));
  city.beacon_burst(frac(0.20));
  if (config.flash_crowd) city.beacon_burst(frac(0.50));
  city.beacon_burst(frac(0.75));

  // Synthetic activity steps start with the day.
  for (std::size_t i = 0; i < config.shards; ++i)
    city.metro.shard(static_cast<ShardId>(i))
        .sim()
        .schedule_in(kSyntheticStepMs, [&city, i] {
          city.synthetic_step(static_cast<ShardId>(i));
        });

  // The day's timeline, executed in order between run_until calls.
  struct Action {
    SimTime at;
    std::function<void()> fn;
  };
  std::vector<Action> timeline;

  // Morning commute (20% of the day): odd (residential) shards pour into
  // their even (commercial) neighbor; half the cohort rides along.
  timeline.push_back({frac(0.20), [&] {
    for (std::size_t i = 1; i < config.shards; i += 2)
      city.move_synthetic(static_cast<ShardId>(i),
                          static_cast<ShardId>(i - 1), 0.4);
    city.roam_cohort([&](const CohortMember& m, ShardId at) {
      return m.home % 2 == 1 ? std::optional<ShardId>(
                                   static_cast<ShardId>(m.home - 1))
                             : std::nullopt;
      (void)at;
    });
  }});
  timeline.push_back({frac(0.40), [&] { city.cohort_probes(); }});

  // Stadium flash crowd at midday: every shard sends a surge to the last
  // one; a quarter of the cohort attends.
  if (config.flash_crowd && config.shards > 1) {
    timeline.push_back({frac(0.50), [&] {
      for (std::size_t i = 0; i + 1 < config.shards; ++i)
        city.move_synthetic(static_cast<ShardId>(i), stadium, 0.3);
      city.roam_cohort([&](const CohortMember& m, ShardId at) {
        return m.id % 4 == 0 && at != stadium ? std::optional<ShardId>(stadium)
                                              : std::nullopt;
      });
    }});
    timeline.push_back({frac(0.55), [&] { city.cohort_probes(); }});
  }

  // Chaos injections: forged batch at the stadium during the flash crowd,
  // the revoked mole at downtown shortly after.
  if (config.forgery_burst && config.shards > 0) {
    timeline.push_back({frac(0.50), [&] { city.forgery_burst(stadium); }});
  }
  if (config.revoked_burst && config.shards > 0) {
    timeline.push_back({frac(0.62), [&] { city.revoked_burst(downtown); }});
  }

  // Rolling revocation waves across the day.
  for (unsigned k = 0; k < config.revocation_waves; ++k) {
    const double f =
        static_cast<double>(k + 1) / (config.revocation_waves + 1);
    timeline.push_back({frac(f), [&] { city.revocation_wave(); }});
  }

  // Evening commute: everyone heads home.
  timeline.push_back({frac(0.75), [&] {
    for (std::size_t i = 1; i < config.shards; i += 2)
      city.move_synthetic(static_cast<ShardId>(i - 1),
                          static_cast<ShardId>(i), 0.35);
    if (config.flash_crowd && config.shards > 1)
      for (std::size_t i = 0; i + 1 < config.shards; ++i)
        city.move_synthetic(stadium, static_cast<ShardId>(i),
                            0.2 / static_cast<double>(config.shards));
    city.roam_cohort([&](const CohortMember& m, ShardId at) {
      return at != m.home ? std::optional<ShardId>(m.home) : std::nullopt;
    });
    (void)downtown;
  }});
  timeline.push_back({frac(0.90), [&] { city.cohort_probes(); }});

  std::stable_sort(timeline.begin(), timeline.end(),
                   [](const Action& a, const Action& b) { return a.at < b.at; });
  for (const Action& action : timeline) {
    city.metro.run_until(action.at);
    action.fn();
  }
  city.metro.run_until(day);

  // Segments that lost both radio copies of a late announcement resync
  // over the operator's secure channel (the pre-delta fallback).
  std::uint64_t url_version = 0;
  for (std::size_t i = 0; i < config.shards; ++i) {
    const auto& rev = city.metro.shard(static_cast<ShardId>(i)).net()
                          .revocation();
    if (rev == nullptr) continue;
    if (rev->url_version() < city.no.current_url().version)
      city.metro.shard(static_cast<ShardId>(i))
          .net()
          .push_revocation_lists(city.no.current_crl(), city.no.current_url());
    url_version = std::max(url_version, rev->url_version());
  }

  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  MetroCityReport report;
  report.shards = config.shards;
  report.total_users = config.synthetic_users + config.cohort_users;
  report.cohort_users = config.cohort_users;
  for (const CohortMember& m : city.cohort) {
    const auto loc = city.metro.locate_user(m.id);
    if (loc && city.metro.shard(loc->shard).net().is_connected(loc->node))
      ++report.cohort_connected;
  }
  report.cohort_roams = city.cohort_roams;
  report.sim_ms = city.metro.now();
  report.wall_seconds = wall_seconds;
  report.events = city.metro.sim_events_total();
  report.revocation_waves = city.waves_pushed;
  report.url_version = url_version;
  if (config.health != nullptr)
    report.health_alerts = config.health->alerts_total();
  report.metro = city.metro.stats();
  report.net = city.metro.network_stats_total();
  for (const SyntheticSegment& seg : city.synthetic)
    report.synthetic = obs::sum(report.synthetic, seg.stats);

  // Mirror the metro into the obs registry for --metrics/CI smoke checks.
  city.metro.publish_metrics();
  obs::absorb(report.synthetic);
  auto& reg = obs::Registry::global();
  reg.counter("metro_city.cohort.roams").set(report.cohort_roams);
  reg.counter("metro_city.cohort.connected").set(report.cohort_connected);
  return report;
}

}  // namespace peace::mesh
