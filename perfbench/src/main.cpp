// peace_perfbench: runs one benchmark workload and prints its metrics.
//
//   peace_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--flip-verdict]
//
// --trace 0 runs the workload's fixed operation sequence once with tracing
// off and prints the end-to-end metrics. --trace 1 runs it twice, untraced
// and then traced (the driver's own spans around every call it makes), adds
// the unit-cost phase, and prints the per-layer metrics. The last line of
// standard output is the JSON result. --flip-verdict expects the first
// checked verdict the wrong way round, so a correct program reports one
// failure (the self-check of the verdict accounting).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "curve/bn254.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

// Set-up is timed at least kSetups times and for at least kSetupSeconds in
// all, and reported as the median: a 0.2 s build timed five times samples
// too little of the host's speed swings.
constexpr std::size_t kSetups = 5;
constexpr double kSetupSeconds = 4;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "peace_perfbench: %s\nusage: peace_perfbench --workload "
               "connect|admission|revocation_churn|metro_day --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--flip-verdict]\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--flip-verdict") {
      opt.flip_verdict = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") opt.workload = value;
    else if (arg == "--seed") opt.seed = std::stoull(value);
    else if (arg == "--seconds") opt.seconds = std::stod(value);
    else if (arg == "--trace") opt.trace = value == "1";
    else if (arg == "--work-dir") opt.work_dir = value;
    else usage(("unknown argument " + arg).c_str());
  }
  if (opt.work_dir.empty()) usage("--work-dir is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

std::unique_ptr<Workload> make(const RunOptions& opt) {
  if (opt.workload == "connect") return make_connect(opt);
  if (opt.workload == "admission") return make_admission(opt);
  if (opt.workload == "revocation_churn") return make_revocation_churn(opt);
  if (opt.workload == "metro_day") return make_metro_day(opt);
  usage(("unknown workload " + opt.workload).c_str());
}

double rate(const PassResult& r) {
  return r.wall_s > 0 ? static_cast<double>(r.accepted) / r.wall_s : 0;
}

/// The p50 and p90 of the unit operation, each only where at least ten
/// samples lie beyond it: p50 from 20 samples, p90 from 100.
std::vector<std::pair<std::string, double>> quantiles(const std::string& op,
                                                      const Samples& s) {
  std::vector<std::pair<std::string, double>> out;
  if (op == "day") return out;
  if (s.size() >= 20) out.push_back({op + "_p50_ms", s.median()});
  if (s.size() >= 100) out.push_back({op + "_p90_ms", s.quantile(0.9)});
  return out;
}

int run(const RunOptions& opt) {
  std::filesystem::create_directories(opt.work_dir);
  const double calib_start = opt.trace ? calibration_ms() : 0;
  peace::curve::Bn254::init();
  auto workload = make(opt);

  Samples setup_s;
  double setup_total = 0;
  while (setup_s.size() < kSetups || setup_total < kSetupSeconds) {
    const auto t0 = Clock::now();
    workload->setup();
    const double took = seconds_between(t0, Clock::now());
    setup_s.add(took);
    setup_total += took;
  }

  Tally tally(opt.flip_verdict);
  SpanLog untraced(false);
  const PassResult base = workload->run(0, untraced, tally);
  const std::string op = workload->op_name();

  std::printf("workload %s, seed %llu, %zu %s samples, %llu handshakes in "
              "%.3f s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              base.op_ms.size(), op.c_str(),
              static_cast<unsigned long long>(base.accepted), base.wall_s);
  for (const auto& [name, ms] : quantiles(op, base.op_ms))
    std::printf("  %s = %.4f ms\n", name.c_str(), ms);
  std::printf("  peak_rss_mb = %.4f MB\n", peak_rss_mb());

  Report report;
  if (!opt.trace) {
    report.add("handshakes_per_s", rate(base), "1/s");
    report.add("setup_s", setup_s.median(), "s");
  } else {
    SpanLog spans(true);
    const PassResult traced = workload->run(1, spans, tally);
    Layers layers;
    for (const auto& [name, ms] : quantiles(op, base.op_ms))
      if (layers.has(name)) layers.set(name, ms);
    workload->layers(traced, spans, tally, layers);
    measure_unit_costs(workload->unit_inputs(), tally, layers);
    const double untraced_rate = rate(base);
    layers.set("obs.trace_overhead_pct",
               untraced_rate > 0
                   ? 100 * (untraced_rate - rate(traced)) / untraced_rate
                   : 0);
    layers.set("host.calib_ms", calib_start);
    layers.set("host.calib_end_ms", calibration_ms());
    layers.set("host.peak_rss_mb", peak_rss_mb());
    layers.add_to(report);
    const std::string path = opt.work_dir + "/spans-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!spans.write_jsonl(path))
      std::fprintf(stderr, "peace_perfbench: cannot write %s\n", path.c_str());
    std::printf("  %zu driver spans written to %s\n", spans.spans().size(),
                path.c_str());
  }

  for (const std::string& note : tally.first_failures())
    std::printf("  FAILED: %s\n", note.c_str());
  std::cout << report.text() << report.json(tally) << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "peace_perfbench: %s\n", e.what());
    return 1;
  }
}
