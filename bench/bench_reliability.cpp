// Handshake convergence under radio loss: how long (virtual time) and how
// many frames it takes the reliability layer (PROTOCOL.md §10) to get every
// user of a segment into an authenticated session at 0%, 10%, and 30% loss.
// Wall time measures the simulation itself; the interesting outputs are the
// per-run counters (sim_ms_to_converge, frames, retransmissions).
#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

#include "mesh/network.hpp"

namespace peace::bench {
namespace {

constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;
constexpr mesh::SimTime kDeadline = 120'000;

struct Segment {
  explicit Segment(const std::string& seed)
      : no(crypto::Drbg::from_string(seed + "-no")),
        gm(no.register_group("bench", 8, ttp)),
        net(sim, crypto::Drbg::from_string(seed + "-net"), mesh::RadioConfig{},
            [] {
              proto::ProtocolConfig config;
              config.replay_window_ms = 60'000;
              return config;
            }()) {
    net.add_router({0, 0}, no, kFarFuture);
    net.add_router({300, 0}, no, kFarFuture);
    for (int i = 0; i < 6; ++i) {
      auto user = std::make_unique<proto::User>(
          "u" + std::to_string(i), no.params(),
          crypto::Drbg::from_string(seed + "-u" + std::to_string(i)));
      user->complete_enrollment(gm.enroll(user->uid(), ttp));
      users.push_back(net.add_user({40.0 + 40.0 * i, (i % 2) ? 15.0 : -15.0},
                                   std::move(user)));
    }
  }

  bool all_connected() const {
    for (const mesh::NodeId u : users)
      if (!net.is_connected(u)) return false;
    return true;
  }

  proto::NetworkOperator no;
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm;
  mesh::Simulator sim;
  mesh::MeshNetwork net;
  std::vector<mesh::NodeId> users;
};

void BM_HandshakeConvergence(benchmark::State& state) {
  curve::Bn254::init();
  const int loss_percent = static_cast<int>(state.range(0));
  std::uint64_t sim_ms = 0, frames = 0, retransmissions = 0, converged = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    state.PauseTiming();  // the crypto world setup is not the handshake
    Segment seg("bench-rel-" + std::to_string(loss_percent) + "-" +
                std::to_string(runs));
    mesh::FaultPlan plan;
    plan.loss_good = loss_percent / 100.0;
    seg.net.set_fault_plan(plan);
    state.ResumeTiming();

    seg.net.start_beaconing(100, 1000, kDeadline);
    while (!seg.all_connected() && seg.sim.now() < kDeadline)
      seg.sim.run_until(seg.sim.now() + 500);

    ++runs;
    sim_ms += seg.sim.now();
    frames += seg.net.stats().frames_transmitted;
    retransmissions += seg.net.stats().retransmissions;
    converged += seg.all_connected() ? 1 : 0;
  }
  const double n = static_cast<double>(runs);
  state.counters["loss_pct"] = loss_percent;
  state.counters["sim_ms_to_converge"] = static_cast<double>(sim_ms) / n;
  state.counters["frames"] = static_cast<double>(frames) / n;
  state.counters["retransmissions"] = static_cast<double>(retransmissions) / n;
  state.counters["converged_ratio"] = static_cast<double>(converged) / n;
}
BENCHMARK(BM_HandshakeConvergence)
    ->Arg(0)
    ->Arg(10)
    ->Arg(30)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace peace::bench

// BENCHMARK_MAIN, plus a default JSON report (BENCH_reliability.json in the
// working directory) when the caller didn't pick an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_reliability.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    has_out |= std::string_view(argv[i]).starts_with("--benchmark_out=");
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
