// metro_city — one simulated day of a sharded metropolitan deployment at
// populations up to (and beyond) 100k users: per-segment shards with their
// own event queues, commute waves roaming users between segments, a
// stadium flash crowd, and rolling revocation waves from the operator.
// See mesh/metro_scenario.hpp for the hybrid population model (a real
// BN254-crypto cohort over a synthetic background population).
//
// Run: ./build/examples/metro_city [--users=N] [--cohort=N] [--shards=N]
//        [--threads=N] [--day-ms=N] [--budget=N] [--waves=N]
//        [--no-flash-crowd]
//        [--trace=out.jsonl] [--trace-rotate=BYTES] [--metrics=out.json]
//        [--health=out.json] [--forgery-burst] [--revoked-burst]
//
// --threads sets how many threads run the shards' ticks and the cohort's
// enrollment (default 0: one per core, at most one per shard); the day's
// results are the same at any count.
//
// --trace streams events through the bounded-memory JSONL sink
// (obs::Tracer::stream_to) — memory stays flat however long the day; the
// file is valid input for tools/trace_report.py. The summary's throughput
// line counts the handshakes routers accepted per wall-clock second; the
// repo benchmark's metro_day workload (perfbench/) is the measured form.
//
// --health arms the obs::HealthMonitor for the whole day (drained and
// evaluated at every tick barrier) and writes its summary JSON — input for
// tools/health_report.py. --forgery-burst / --revoked-burst inject the
// scenario's chaos bursts (a forged M.2 batch at the stadium, a revoked
// mole at downtown) so the detectors have something real to catch.
#include <cstdio>
#include <string>

#include "mesh/metro_scenario.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

using namespace peace;

namespace {

bool write_text_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

bool parse_u64(const std::string& arg, const char* prefix, std::uint64_t& out) {
  const std::string p = prefix;
  if (arg.rfind(p, 0) != 0) return false;
  out = std::stoull(arg.substr(p.size()));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  curve::Bn254::init();
  mesh::MetroCityConfig config;
  std::uint64_t total_users = 100'000;
  std::uint64_t trace_rotate = 0;
  std::string trace_path, metrics_path, health_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t v = 0;
    if (parse_u64(arg, "--users=", total_users)) {
    } else if (parse_u64(arg, "--cohort=", v)) {
      config.cohort_users = static_cast<std::size_t>(v);
    } else if (parse_u64(arg, "--shards=", v)) {
      config.shards = static_cast<std::size_t>(v);
    } else if (parse_u64(arg, "--threads=", v)) {
      config.threads = static_cast<unsigned>(v);
    } else if (parse_u64(arg, "--day-ms=", v)) {
      config.day_ms = v;
    } else if (parse_u64(arg, "--budget=", v)) {
      config.shard_event_budget = v;
    } else if (parse_u64(arg, "--waves=", v)) {
      config.revocation_waves = static_cast<unsigned>(v);
    } else if (arg == "--no-flash-crowd") {
      config.flash_crowd = false;
    } else if (arg == "--forgery-burst") {
      config.forgery_burst = true;
    } else if (arg == "--revoked-burst") {
      config.revoked_burst = true;
    } else if (parse_u64(arg, "--trace-rotate=", trace_rotate)) {
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics_path = arg.substr(10);
    } else if (arg.rfind("--health=", 0) == 0) {
      health_path = arg.substr(9);
    } else {
      std::fprintf(stderr,
                   "usage: metro_city [--users=N] [--cohort=N] [--shards=N] "
                   "[--threads=N] [--day-ms=N] [--budget=N] [--waves=N] [--no-flash-crowd] "
                   "[--trace=out.jsonl] [--trace-rotate=BYTES] "
                   "[--metrics=out.json] [--health=out.json] "
                   "[--forgery-burst] [--revoked-burst]\n");
      return 2;
    }
  }
  if (config.shards == 0 || config.cohort_users > total_users) {
    std::fprintf(stderr, "metro_city: need shards >= 1, cohort <= users\n");
    return 2;
  }
  config.synthetic_users = total_users - config.cohort_users;

  if (!trace_path.empty()) {
    obs::enable(true);
    obs::StreamSinkOptions sink;
    sink.rotate_bytes = trace_rotate;
    if (!obs::Tracer::global().stream_to(trace_path, sink)) {
      std::fprintf(stderr, "metro_city: cannot open %s\n", trace_path.c_str());
      return 1;
    }
  } else if (!metrics_path.empty() || !health_path.empty()) {
    obs::enable(true);
  }

  // The monitor lives in main (the scenario only borrows it), so the
  // summary survives the run.
  obs::HealthMonitor monitor;
  if (!health_path.empty()) config.health = &monitor;

  std::printf("metro_city: %llu users (%zu real-crypto cohort) across %zu "
              "shards, %llu ms simulated day\n",
              static_cast<unsigned long long>(total_users), config.cohort_users,
              config.shards, static_cast<unsigned long long>(config.day_ms));

  mesh::MetroCityReport report;
  try {
    report = mesh::run_metro_city(config);
  } catch (const Error& e) {
    // e.g. a shard exhausting its event budget — the message names it.
    std::fprintf(stderr, "metro_city: %s\n", e.what());
    return 1;
  }

  // run_metro_city publishes the metro's merged totals to the registry.
  const std::uint64_t accepted =
      obs::Registry::global().counter("router.accepted").value();
  std::printf(
      "day complete: %llu sim-ms in %.1f s wall — %llu handshakes accepted, "
      "%.1f per wall-s\n",
      static_cast<unsigned long long>(report.sim_ms), report.wall_seconds,
      static_cast<unsigned long long>(accepted),
      report.wall_seconds > 0
          ? static_cast<double>(accepted) / report.wall_seconds
          : 0.0);
  std::printf("  events ............ %llu across %zu shards\n",
              static_cast<unsigned long long>(report.events), report.shards);
  std::printf("  cohort ............ %zu/%zu connected at day end, "
              "%llu cross-shard roams\n",
              report.cohort_connected, report.cohort_users,
              static_cast<unsigned long long>(report.cohort_roams));
  std::printf("  mailboxes ......... %llu msgs routed, %llu handoffs parked, "
              "%llu dropped\n",
              static_cast<unsigned long long>(report.metro.msgs_routed),
              static_cast<unsigned long long>(report.metro.handoffs_parked),
              static_cast<unsigned long long>(report.metro.handoffs_dropped));
  std::printf("  backbone .......... %llu relays delivered, %llu dropped\n",
              static_cast<unsigned long long>(report.metro.relay_delivered),
              static_cast<unsigned long long>(report.metro.relay_dropped));
  std::printf("  synthetic load .... %llu modeled associations, %llu data "
              "frames, %llu moved\n",
              static_cast<unsigned long long>(report.synthetic.associations),
              static_cast<unsigned long long>(report.synthetic.data_frames),
              static_cast<unsigned long long>(report.synthetic.moved));
  std::printf("  revocation ........ %u waves pushed, URL v%llu\n",
              report.revocation_waves,
              static_cast<unsigned long long>(report.url_version));
  if (config.health != nullptr)
    std::printf("  health ............ %llu alerts from %llu events "
                "(%llu shed)\n",
                static_cast<unsigned long long>(monitor.alerts_total()),
                static_cast<unsigned long long>(monitor.events_ingested()),
                static_cast<unsigned long long>(obs::sec_events_shed()));

  bool ok = report.cohort_connected == report.cohort_users;
  if (!ok)
    std::fprintf(stderr, "metro_city: cohort did not fully reconnect\n");
  if (!trace_path.empty()) {
    const std::uint64_t streamed = obs::Tracer::global().streamed_event_count();
    if (!obs::Tracer::global().stop_streaming()) {
      std::fprintf(stderr, "metro_city: trace stream write failed\n");
      ok = false;
    }
    std::printf("trace: %llu events streamed -> %s\n",
                static_cast<unsigned long long>(streamed), trace_path.c_str());
  }
  if (!metrics_path.empty() &&
      !write_text_file(metrics_path, obs::Registry::global().to_json())) {
    std::fprintf(stderr, "metro_city: cannot write %s\n", metrics_path.c_str());
    ok = false;
  }
  if (!health_path.empty() &&
      !write_text_file(health_path, monitor.summary_json())) {
    std::fprintf(stderr, "metro_city: cannot write %s\n", health_path.c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}
