// metro_day: one mesh::run_metro_city call — 8 shards, a real-crypto cohort
// of 256 users (at the full run length) plus a synthetic background
// population, revocation waves and the stadium flash crowd. The only
// workload that exercises the simulator, shards, tick barriers, mailboxes
// and retransmits. The cohort is enrolled inside the call, so its
// handshakes_per_s includes enrollment.
#include <algorithm>
#include <cstdio>
#include <map>

#include "layers.hpp"
#include "mesh/metro_scenario.hpp"
#include "obs/trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace peace;

constexpr std::size_t kShards = 8;
constexpr std::uint64_t kSynthetic = 20'000;
constexpr mesh::SimTime kDayMs = 3'600'000;  // one simulated hour
constexpr double kCohortPerSecond = 25.6;  // a 256-user cohort at 10 s
constexpr std::size_t kMinCohort = 16;
constexpr std::size_t kWarmCohort = 16;     // set-up: warm-up day cohort
constexpr mesh::SimTime kWarmDayMs = 900'000;  // and length

class MetroDay final : public Workload {
 public:
  explicit MetroDay(const RunOptions& opt) : opt_(opt) {
    const std::size_t cohort = op_budget(opt, kCohortPerSecond, kMinCohort);
    config_.shards = kShards;
    config_.cohort_users = cohort / kShards * kShards;
    config_.synthetic_users = kSynthetic;
    config_.day_ms = kDayMs;
    config_.flash_crowd = true;
    config_.seed = seed_label(opt, "city");
  }

  /// The metro builds its deployment inside run_metro_city, so set-up is a
  /// warm-up day of the same shape (shards, synthetic population, flash
  /// crowd) with a smaller cohort and a shorter day: it enrolls users,
  /// provisions every shard and runs every layer once.
  void setup() override {
    mesh::MetroCityConfig warm = config_;
    warm.cohort_users = kWarmCohort;
    warm.day_ms = kWarmDayMs;
    warm.revocation_waves = 1;
    warm.seed = seed_label(opt_, "warm-up");
    mesh::run_metro_city(warm);
  }

  PassResult run(std::size_t, SpanLog& spans, Tally& tally) override {
    if (spans.enabled()) {
      obs::Tracer::global().clear();
      obs::enable(true);
      // Marks the calling thread's id on the obs track.
      obs::Tracer::global().instant("perfbench.day", "perfbench");
    }
    const OpSnapshot curve_before = OpSnapshot::take();
    const auto t0 = Clock::now();
    report_ = spans.call("mesh.run_metro_city", 0,
                         [&] { return mesh::run_metro_city(config_); });
    PassResult out;
    out.wall_s = seconds_between(t0, Clock::now());
    obs::enable(false);
    out.op_ms.add(out.wall_s * 1000);

    // run_metro_city publishes the metro's merged totals to the registry.
    out.accepted = registry_counter("router.accepted");
    out.requests = registry_counter("router.requests_received");
    for (std::size_t i = 0; i < report_.cohort_users; ++i)
      tally.expect(true, i < report_.cohort_connected,
                   "cohort user connected at day end");
    const std::uint64_t bad = registry_counter("router.rejected_bad_signature");
    for (std::uint64_t i = 0; i < out.requests; ++i)
      tally.expect(true, i + bad < out.requests,
                   "honest M.2 passes signature verification");
    groupsig::OpCounters verify;
    verify.pairings = registry_counter("groupsig.verify.pairings");
    verify.g1_exp = registry_counter("groupsig.verify.g1_exp");
    verify.g2_exp = registry_counter("groupsig.verify.g2_exp");
    verify.gt_exp = registry_counter("groupsig.verify.gt_exp");
    per_request_ops(verify, {}, curve_before, out.requests, counts_);
    return out;
  }

  void layers(const PassResult& traced, const SpanLog&, Tally&,
              Layers& out) override {
    out.set("metro.barriers", static_cast<double>(report_.metro.barriers));
    out.set("metro.msgs_routed",
            static_cast<double>(report_.metro.msgs_routed));
    out.set("sim.events", static_cast<double>(report_.events));
    out.set("mesh.retransmissions",
            static_cast<double>(report_.net.retransmissions));
    out.set("mesh.handshake_timeouts",
            static_cast<double>(report_.net.handshake_timeouts));
    out.set("metro.cohort_connected_ratio",
            report_.cohort_users > 0
                ? static_cast<double>(report_.cohort_connected) /
                      static_cast<double>(report_.cohort_users)
                : 0);
    counts_.add_to(out);
    obs_spans(traced, out);
  }

  UnitInputs unit_inputs() override {
    // run_metro_city keeps its deployment to itself: draw the unit inputs
    // from a small deployment of the same kind, 8 of its 24 users revoked.
    Deployment d(seed_label(opt_, "unit-world"), 24);
    d.enroll("u", 24);
    for (std::size_t i = 16; i < 24; ++i)
      d.no.revoke_user_key(d.members[i].index, 100);
    return unit_inputs_from(d.no.gpk(), d.members, d.no.current_url(), 16, 16,
                            seed_label(opt_, "unit"));
  }

  const char* op_name() const override { return "day"; }

 private:
  /// Per-span totals from the obs tracer of the traced pass, and the share
  /// of the call's wall time no span on the calling thread covers.
  void obs_spans(const PassResult& traced, Layers& out) const {
    struct Total {
      double ms = 0;
      std::uint64_t count = 0;
    };
    std::map<std::string, Total> totals;
    Samples m2_build;
    const auto events = obs::Tracer::global().events();
    std::uint32_t main_tid = 0;
    for (const auto& e : events)
      if (e.ph == 'i' && std::string(e.name) == "perfbench.day")
        main_tid = e.tid;
    for (const auto& e : events)
      if (e.ph == 'X' && e.pid == obs::Tracer::kWallPid) {
        Total& t = totals[e.name];
        t.ms += static_cast<double>(e.dur_us) / 1000;
        ++t.count;
        if (std::string(e.name) == "user.m2_build")
          m2_build.add(static_cast<double>(e.dur_us) / 1000);
      }
    // Union of the calling thread's span intervals.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
    for (const auto& e : events)
      if (e.ph == 'X' && e.pid == obs::Tracer::kWallPid && e.tid == main_tid)
        spans.push_back({e.ts_us, e.ts_us + e.dur_us});
    std::sort(spans.begin(), spans.end());
    double covered_us = 0;
    std::uint64_t reach = 0;
    for (const auto& [a, b] : spans) {
      const std::uint64_t from = std::max(a, reach);
      if (b > from) covered_us += static_cast<double>(b - from);
      reach = std::max(reach, b);
    }
    const double wall_us = traced.wall_s * 1e6;
    const double unattributed =
        wall_us > 0 ? std::max(0.0, 100.0 * (1 - covered_us / wall_us)) : 0;
    const double requests = static_cast<double>(std::max<std::uint64_t>(
        1, registry_counter("router.requests_received")));
    out.set("metro.m2_build_ms", m2_build.median());
    out.set("metro.m2_batch_per_request_ms",
            totals["router.m2_batch"].ms / requests);
    out.set("metro.unattributed_pct", unattributed);

    std::printf("obs spans of the traced metro day (wall %.3f s):\n",
                traced.wall_s);
    for (const auto& [name, t] : totals)
      std::printf("  %-24s %8llu spans %12.3f ms\n", name.c_str(),
                  static_cast<unsigned long long>(t.count), t.ms);
    std::printf("  unattributed on the calling thread: %.2f %%\n",
                unattributed);
  }

  RunOptions opt_;
  mesh::MetroCityConfig config_;
  mesh::MetroCityReport report_;
  OpCounts counts_;
};

}  // namespace

std::unique_ptr<Workload> make_metro_day(const RunOptions& opt) {
  return std::make_unique<MetroDay>(opt);
}

}  // namespace perfbench
