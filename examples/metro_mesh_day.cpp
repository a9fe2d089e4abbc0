// A day in a metropolitan mesh (the paper's motivating scenario, Sec. I):
// three mesh routers cover a downtown strip; a dozen citizens — employees,
// students, club members — authenticate anonymously, form peer relay links,
// and push traffic through the mesh while a global eavesdropper records
// every frame and finds nothing to link.
//
// Run: ./build/examples/metro_mesh_day
//
// With --chaos, the same day is lived under the fault-injection harness
// (PROTOCOL.md §10): burst loss, duplication, reordering, corruption,
// partitions, and a router crash, each as its own phase. The reliability
// layer must converge every reachable resident and keep the delivery rate
// above each phase's floor; exit status reports the verdict.
//
// Telemetry (docs/OBSERVABILITY.md): --trace=PATH writes a Chrome
// trace_event JSON of the day (load in chrome://tracing or Perfetto),
// --jsonl=PATH the same events one JSON object per line, --metrics=PATH
// the metrics-registry snapshot. Any of the three enables tracing; none
// leaves telemetry off, and the day's protocol bytes are identical either
// way (determinism_test asserts this).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "mesh/adversary.hpp"
#include "obs/sec_event.hpp"
#include "obs/trace.hpp"

using namespace peace;

namespace {

struct ObsOptions {
  std::string trace_path, metrics_path, jsonl_path;
  bool any() const {
    return !trace_path.empty() || !metrics_path.empty() || !jsonl_path.empty();
  }
};

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

int write_obs_outputs(const ObsOptions& opts) {
  bool ok = true;
  if (!opts.trace_path.empty()) {
    ok &= obs::Tracer::global().write_chrome(opts.trace_path);
    std::printf("trace: %zu events -> %s\n",
                obs::Tracer::global().event_count(), opts.trace_path.c_str());
  }
  if (!opts.jsonl_path.empty())
    ok &= obs::Tracer::global().write_jsonl(opts.jsonl_path);
  if (!opts.metrics_path.empty()) {
    ok &= write_text_file(opts.metrics_path, obs::Registry::global().to_json());
    std::printf("metrics: -> %s\n", opts.metrics_path.c_str());
  }
  if (!ok) std::fprintf(stderr, "failed to write telemetry output\n");
  return ok ? 0 : 1;
}

constexpr proto::Timestamp kYearMs = 1000ull * 86400 * 365;

/// One disposable metro segment for a chaos phase: three routers on a
/// downtown strip, twelve residents spaced so greedy relay chains work.
struct ChaosSegment {
  explicit ChaosSegment(const std::string& seed)
      : no(crypto::Drbg::from_string(seed + "-no")),
        gm(no.register_group("metro", 16, ttp)),
        net(sim, crypto::Drbg::from_string(seed + "-net"), mesh::RadioConfig{},
            [] {
              proto::ProtocolConfig config;
              config.replay_window_ms = 60'000;
              return config;
            }(),
            [] {
              mesh::ReliabilityConfig reliability;
              reliability.rekey_after_frames = 8;  // exercised by the probes
              return reliability;
            }()) {
    routers.push_back(net.add_router({0, 0}, no, kYearMs));
    routers.push_back(net.add_router({400, 0}, no, kYearMs));
    routers.push_back(net.add_router({800, 0}, no, kYearMs));
    for (int i = 0; i < 12; ++i) {
      auto user = std::make_unique<proto::User>(
          "resident" + std::to_string(i), no.params(),
          crypto::Drbg::from_string(seed + "-r" + std::to_string(i)),
          [] {
            proto::ProtocolConfig config;
            config.replay_window_ms = 60'000;
            return config;
          }());
      user->complete_enrollment(gm.enroll(user->uid(), ttp));
      users.push_back(net.add_user(
          {30.0 + 50.0 * i, (i % 2) ? 12.0 : -12.0}, std::move(user)));
    }
  }

  std::size_t connected() const {
    std::size_t n = 0;
    for (const mesh::NodeId u : users) n += net.is_connected(u) ? 1 : 0;
    return n;
  }

  /// Sends `per_user` probes from every resident; returns the fraction
  /// delivered (faults stay active — this is the in-storm delivery rate).
  double probe(int per_user) {
    std::size_t sent = 0, ok = 0;
    for (const mesh::NodeId u : users)
      for (int i = 0; i < per_user; ++i) {
        ++sent;
        ok += net.send_data(u, as_bytes("chaos probe")) ? 1 : 0;
        sim.run_until(sim.now() + 50);
      }
    return sent == 0 ? 0.0 : static_cast<double>(ok) / sent;
  }

  proto::NetworkOperator no;
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm;
  mesh::Simulator sim;
  mesh::MeshNetwork net;
  std::vector<mesh::NodeId> routers;
  std::vector<mesh::NodeId> users;
};

/// The chaos day's telemetry: every disposable segment's stats, folded as
/// its phase ends and published once for the whole day.
struct ChaosTotals {
  mesh::NetworkStats net;
  proto::RouterStats routers;
  proto::UserStats users;
  groupsig::OpCounters ops;
  revoke::SharedRevocationStats revocation;
  std::uint64_t sim_events = 0;

  void fold(const ChaosSegment& seg) {
    net = obs::sum(net, seg.net.stats());
    routers = obs::sum(routers, seg.net.router_stats_total());
    users = obs::sum(users, seg.net.user_stats_total());
    ops = obs::sum(ops, seg.net.verify_ops_total());
    revocation = obs::sum(revocation, seg.net.revocation()->stats());
    sim_events += seg.sim.events_processed();
  }

  void publish() const {
    obs::absorb(routers);
    obs::absorb(users);
    obs::absorb(ops);
    obs::absorb(revocation);
    mesh::absorb_network_stats(net, sim_events);
    obs::drain_sec_events();
  }
};

bool chaos_phase(ChaosTotals& totals, const char* name,
                 const std::string& seed, const mesh::FaultPlan& plan,
                 double delivery_floor) {
  ChaosSegment seg(seed);
  seg.net.set_fault_plan(plan);
  seg.net.start_beaconing(100, 1000, 60'000);
  seg.sim.run_until(50'000);
  seg.net.establish_peer_links();
  seg.sim.run_until(80'000);
  seg.net.establish_peer_links();  // retry pairs whose budget ran out
  seg.sim.run_until(110'000);

  const std::size_t connected = seg.connected();
  const double rate = seg.probe(4);
  const auto& s = seg.net.stats();
  const bool ok = connected == seg.users.size() && rate >= delivery_floor;
  std::printf(
      "%-11s %2zu/%zu sessions, delivery %.0f%% (floor %.0f%%) | retx %llu, "
      "timeouts %llu, rekeys %llu, corrupt-rejected %llu, dup %llu, "
      "delayed %llu, lost %llu  %s\n",
      name, connected, seg.users.size(), 100 * rate, 100 * delivery_floor,
      static_cast<unsigned long long>(s.retransmissions),
      static_cast<unsigned long long>(s.handshake_timeouts),
      static_cast<unsigned long long>(s.rekeys),
      static_cast<unsigned long long>(s.corrupted_rejected),
      static_cast<unsigned long long>(s.frames_duplicated),
      static_cast<unsigned long long>(s.frames_delayed),
      static_cast<unsigned long long>(s.frames_lost), ok ? "ok" : "FAIL");
  totals.fold(seg);
  return ok;
}

bool chaos_crash_phase(ChaosTotals& totals) {
  ChaosSegment seg("chaos-day-crash");
  seg.net.start_beaconing(100, 1000, 120'000);
  seg.sim.run_until(5'000);
  const std::size_t before = seg.connected();

  // The middle router dies mid-morning. Residents discover the outage on
  // their next send, drop the stale uplink, and fail over to whichever
  // living router still covers them; the rest wait out the outage.
  seg.net.crash_router(seg.routers[1]);
  for (const mesh::NodeId u : seg.users)
    (void)seg.net.send_data(u, as_bytes("outage probe"));
  seg.sim.run_until(40'000);
  const std::size_t during = seg.connected();

  // Lunchtime repair: the router returns with its old identity and the
  // whole strip reconverges.
  seg.net.restart_router(seg.routers[1]);
  seg.sim.run_until(90'000);
  const std::size_t after = seg.connected();

  const auto& s = seg.net.stats();
  const bool ok = before == seg.users.size() && during > 0 &&
                  after == seg.users.size() && s.failovers > 0;
  std::printf(
      "crash       %2zu/%zu before, %zu during outage, %zu after restart | "
      "failovers %llu, partition-dropped %llu  %s\n",
      before, seg.users.size(), during, after,
      static_cast<unsigned long long>(s.failovers),
      static_cast<unsigned long long>(s.frames_partitioned), ok ? "ok" : "FAIL");
  totals.fold(seg);
  return ok;
}

bool chaos_partition_phase(ChaosTotals& totals) {
  ChaosSegment seg("chaos-day-part");
  seg.net.start_beaconing(100, 1000, 30'000);
  seg.sim.run_until(5'000);
  seg.net.establish_peer_links();
  seg.sim.run_until(10'000);
  bool ok = seg.connected() == seg.users.size();

  // Sever every user-router radio link (relay chains still stand, but the
  // last hop is always user -> router): traffic stops dead. Heal, and the
  // untouched sessions carry traffic again without a single new handshake.
  const auto partition = [&](bool blocked) {
    for (const mesh::NodeId u : seg.users)
      for (const mesh::NodeId r : seg.routers)
        seg.net.set_link_blocked(u, r, blocked);
  };
  partition(true);
  const double rate_blocked = seg.probe(1);
  partition(false);
  const double rate_healed = seg.probe(4);
  ok = ok && rate_blocked == 0.0 && rate_healed >= 0.9;
  std::printf(
      "partition   %2zu/%zu sessions, delivery %.0f%% severed -> %.0f%% "
      "healed | partition-dropped %llu  %s\n",
      seg.connected(), seg.users.size(), 100 * rate_blocked, 100 * rate_healed,
      static_cast<unsigned long long>(seg.net.stats().frames_partitioned),
      ok ? "ok" : "FAIL");
  totals.fold(seg);
  return ok;
}

int run_chaos_day(ChaosTotals& totals) {
  std::printf("a chaotic day in the metro mesh — every phase rides the "
              "reliability layer (PROTOCOL.md 10)\n\n");
  mesh::FaultPlan burst;
  burst.loss_bad = 0.75;
  burst.p_good_to_bad = 0.2;
  burst.p_bad_to_good = 0.3;  // ~30% loss in bursts
  mesh::FaultPlan duplication;
  duplication.duplicate_probability = 0.5;
  mesh::FaultPlan reorder;
  reorder.reorder_probability = 0.5;
  reorder.reorder_max_jitter_ms = 50;
  mesh::FaultPlan corruption;
  corruption.corrupt_probability = 0.2;

  bool ok = true;
  // Floors reflect the physics: probes ride relay chains of up to four
  // radio hops, so ~30% per-hop loss compounds to ~0.7^4 for the far users.
  ok &= chaos_phase(totals, "burst-loss", "chaos-day-burst", burst, 0.35);
  ok &= chaos_phase(totals, "duplication", "chaos-day-dup", duplication, 0.9);
  ok &= chaos_phase(totals, "reordering", "chaos-day-reorder", reorder, 0.9);
  ok &= chaos_phase(totals, "corruption", "chaos-day-corrupt", corruption,
                    0.4);
  ok &= chaos_partition_phase(totals);
  ok &= chaos_crash_phase(totals);
  std::printf("\nchaos day: %s\n", ok ? "every phase converged" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  curve::Bn254::init();
  bool chaos = false;
  ObsOptions obs_opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chaos") {
      chaos = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      obs_opts.trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      obs_opts.metrics_path = arg.substr(10);
    } else if (arg.rfind("--jsonl=", 0) == 0) {
      obs_opts.jsonl_path = arg.substr(8);
    } else {
      std::fprintf(stderr,
                   "usage: metro_mesh_day [--chaos] [--trace=out.json] "
                   "[--metrics=out.json] [--jsonl=out.jsonl]\n");
      return 2;
    }
  }
  if (obs_opts.any()) obs::enable(true);
  if (chaos) {
    ChaosTotals totals;
    const int rc = run_chaos_day(totals);
    int obs_rc = 0;
    if (obs_opts.any()) {
      totals.publish();
      obs_rc = write_obs_outputs(obs_opts);
    }
    return rc != 0 ? rc : obs_rc;
  }
  constexpr proto::Timestamp kYear = kYearMs;

  proto::NetworkOperator no(crypto::Drbg::from_string("metro-demo"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager company = no.register_group("Company XYZ", 16, ttp);
  proto::GroupManager university = no.register_group("University Z", 16, ttp);
  proto::GroupManager golf_club = no.register_group("Golf Club V", 16, ttp);

  mesh::Simulator sim;
  mesh::MeshNetwork net(sim, crypto::Drbg::from_string("metro-net"),
                        mesh::RadioConfig{.router_range = 250.0, .user_range = 80.0, .loss_probability = 0.05, .latency_ms = 2});

  // Downtown strip: routers every 400 m, one wired access point at city
  // hall (the paper's layer-1 Internet entry).
  net.add_router({0, 0}, no, kYear);
  net.add_router({400, 0}, no, kYear);
  net.add_router({800, 0}, no, kYear);
  net.add_access_point({400, 300});

  // Citizens scattered along the strip, enrolled via their social roles.
  struct Resident {
    const char* uid;
    proto::GroupManager* gm;
    mesh::Vec2 pos;
  };
  std::vector<Resident> residents = {
      {"alice@company", &company, {30, 20}},
      {"bob@company", &company, {90, -10}},
      {"carol@university", &university, {160, 25}},
      {"dave@university", &university, {230, -30}},
      {"erin@golf", &golf_club, {380, 15}},
      {"frank@company", &company, {430, -20}},
      {"grace@university", &university, {520, 30}},
      {"heidi@golf", &golf_club, {610, -15}},
      {"ivan@company", &company, {700, 10}},
      {"judy@university", &university, {790, -25}},
      {"mallory@golf", &golf_club, {840, 20}},
      {"niaj@company", &company, {870, -10}},
  };
  std::vector<mesh::NodeId> ids;
  for (const Resident& r : residents) {
    auto user = std::make_unique<proto::User>(
        r.uid, no.params(), crypto::Drbg::from_string(r.uid));
    user->complete_enrollment(r.gm->enroll(r.uid, ttp));
    ids.push_back(net.add_user(r.pos, std::move(user)));
  }

  // A global passive adversary taps every radio frame.
  mesh::Eavesdropper eve;
  eve.attach(net);

  // Morning: routers beacon every second for ten seconds; everyone joins.
  net.start_beaconing(100, 1000, 10'000);
  sim.run_until(12'000);

  std::size_t connected = 0;
  for (const mesh::NodeId id : ids)
    if (net.is_connected(id)) ++connected;
  std::printf("morning: %zu/%zu residents authenticated anonymously\n",
              connected, ids.size());

  // Midday: neighbors authenticate each other for relaying.
  net.establish_peer_links();
  sim.run_until(13'000);

  // Afternoon: everyone browses the Internet; out-of-radio-range users
  // relay via peers, then the traffic crosses the wireless backbone to the
  // wired access point.
  std::size_t sent = 0, delivered = 0;
  for (const mesh::NodeId id : ids) {
    for (int k = 0; k < 3; ++k) {
      ++sent;
      if (net.send_to_internet(id, as_bytes("encrypted citizen traffic")))
        ++delivered;
    }
  }
  std::printf("afternoon: %zu/%zu transfers reached the Internet "
              "(%llu peer relay hops, %llu backbone hops, %llu frames lost "
              "to radio)\n",
              delivered, sent,
              static_cast<unsigned long long>(net.stats().relay_hops_total),
              static_cast<unsigned long long>(net.stats().backbone_hops_total),
              static_cast<unsigned long long>(net.stats().frames_lost));

  // Late afternoon: the golf club reports mallory's device stolen and the
  // club's second key lapses too. The NO revokes both and distributes the
  // changes as signed deltas over the lossy radio — deliberately newest
  // announcement first, so the segment sees a chain gap and heals it with
  // a resync round-trip before the older (now stale) announcement arrives.
  no.revoke_user_key(company.enroll("stolen@company", ttp).index, 14'000);
  no.revoke_user_key(golf_club.enroll("lapsed@golf", ttp).index, 14'500);
  net.announce_rl_deltas(no.make_delta_announcement(0, 1), no);  // v2 only
  net.announce_rl_deltas(no.make_delta_announcement(0, 1), no);  // retransmit
  net.announce_rl_deltas(no.make_delta_announcement(0, 0), no);  // full log
  sim.run_until(16'000);
  if (net.revocation()->url_version() < no.current_url().version)
    // Both radio deliveries lost: the operator falls back to its secure
    // channel, exactly as for the pre-delta full-list pushes.
    net.push_revocation_lists(no.current_crl(), no.current_url());

  const auto& rs = net.revocation()->stats();
  unsigned long long resyncs = 0;
  for (const mesh::NodeId rid : net.router_ids())
    resyncs += net.router(rid).stats().rl_resyncs_completed;
  std::printf("\nlate afternoon: URL v%llu distributed by delta "
              "(%llu applied, %llu stale, %llu gaps, %llu resyncs)\n",
              static_cast<unsigned long long>(net.revocation()->url_version()),
              static_cast<unsigned long long>(rs.deltas_applied),
              static_cast<unsigned long long>(rs.deltas_stale),
              static_cast<unsigned long long>(rs.deltas_gap), resyncs);

  // Evening: the eavesdropper files its report.
  std::printf("\neavesdropper saw %zu frames, %zu access requests\n",
              eve.frames_seen(), eve.access_requests_seen());
  std::printf("  repeated (linkable) protocol fields ....... %zu\n",
              eve.repeated_field_count());
  std::printf("  identities observed on the air ............ %s\n",
              [&] {
                for (const Resident& r : residents)
                  if (eve.saw_bytes(as_bytes(r.uid))) return "SOME (BUG!)";
                return "none";
              }());
  std::printf("  plaintexts recovered from data frames ...... %zu\n",
              eve.recovered_plaintexts().size());

  std::printf("\nsimulator: %llu events, virtual time %llu ms\n",
              static_cast<unsigned long long>(sim.events_processed()),
              static_cast<unsigned long long>(sim.now()));

  int obs_rc = 0;
  if (obs_opts.any()) {
    net.publish_metrics();
    obs_rc = write_obs_outputs(obs_opts);
  }
  return connected == ids.size() ? obs_rc : 1;
}
