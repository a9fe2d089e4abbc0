// E10 — network-scale behaviour (paper Sec. V.C: "a mesh router [performs]
// mutual authentication with every network user within its coverage for
// each different session"): router load vs population, and multihop relay
// cost vs chain depth, on the discrete-event WMN substrate.
#include <benchmark/benchmark.h>

#include "mesh/network.hpp"

namespace peace::mesh {
namespace {

constexpr proto::Timestamp kFarFuture = 1000ull * 86400 * 365;

struct ScaleWorld {
  // Curve init must precede the member initializers below, which already
  // do curve arithmetic.
  bool curve_ready = (curve::Bn254::init(), true);

  ScaleWorld()
      : no(crypto::Drbg::from_string("e10-no")),
        gm(no.register_group("metro", 512, ttp)) {}
  static ScaleWorld& get() {
    static ScaleWorld w;
    return w;
  }
  std::unique_ptr<proto::User> make_user(const std::string& uid) {
    auto user = std::make_unique<proto::User>(
        uid, no.params(), crypto::Drbg::from_string("e10-" + uid));
    user->complete_enrollment(gm.enroll(uid, ttp));
    return user;
  }
  proto::NetworkOperator no;
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm;
  std::uint64_t uid_counter = 0;
};

void BM_RouterAuthLoad(benchmark::State& state) {
  // One router, N users in coverage, one beacon round: total router work
  // to authenticate the whole population.
  ScaleWorld& w = ScaleWorld::get();
  const int n_users = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    MeshNetwork net(sim, crypto::Drbg::from_string("e10-net"));
    const NodeId r = net.add_router({0, 0}, w.no, kFarFuture);
    for (int i = 0; i < n_users; ++i) {
      std::string uid = "u";
      uid += std::to_string(w.uid_counter++);
      net.add_user({10.0 + i, 0}, w.make_user(uid));
    }
    state.ResumeTiming();

    net.start_beaconing(100, 1000, 1100);
    sim.run_until(5000);

    state.PauseTiming();
    std::size_t connected = 0;
    for (const NodeId u : net.user_ids())
      if (net.is_connected(u)) ++connected;
    state.counters["connected"] = static_cast<double>(connected);
    state.counters["router_sig_verifies"] =
        static_cast<double>(net.router(r).stats().signature_verifications);
    state.ResumeTiming();
  }
  state.counters["users"] = static_cast<double>(n_users);
}
BENCHMARK(BM_RouterAuthLoad)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_MultihopRelay(benchmark::State& state) {
  // Data delivery cost vs relay-chain depth (users spaced 70 m apart with
  // an 80 m data radio; the router 250 m coverage authenticates them all).
  ScaleWorld& w = ScaleWorld::get();
  const int depth = static_cast<int>(state.range(0));
  Simulator sim;
  MeshNetwork net(sim, crypto::Drbg::from_string("e10-hop"),
                  RadioConfig{.router_range = 1000.0, .user_range = 80.0, .loss_probability = 0.0, .latency_ms = 2});
  net.add_router({0, 0}, w.no, kFarFuture);
  std::vector<NodeId> chain;
  for (int i = 0; i <= depth; ++i) {
    chain.push_back(net.add_user(
        {70.0 * (i + 1), 0},
        w.make_user(std::string("hop") + std::to_string(w.uid_counter++))));
  }
  net.start_beaconing(100, 1000, 1100);
  sim.run_until(3000);
  net.establish_peer_links();
  sim.run_until(4000);

  const NodeId tail = chain.back();
  std::size_t delivered = 0;
  for (auto _ : state) {
    if (net.send_data(tail, as_bytes("payload through the mesh")))
      ++delivered;
  }
  state.counters["chain_depth"] = static_cast<double>(depth);
  state.counters["delivered"] = static_cast<double>(delivered);
  state.counters["avg_hops"] =
      static_cast<double>(net.stats().relay_hops_total) /
      std::max<double>(1.0, static_cast<double>(net.stats().data_delivered));
}
BENCHMARK(BM_MultihopRelay)->Arg(0)->Arg(1)->Arg(2)->Arg(4);

void BM_PeerLinkEstablishment(benchmark::State& state) {
  // Cost of pairwise user-user mutual authentication in a cluster of N
  // users (every pair within radio range): N(N-1)/2 three-way handshakes.
  ScaleWorld& w = ScaleWorld::get();
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    Simulator sim;
    MeshNetwork net(sim, crypto::Drbg::from_string("e10-peers"));
    for (int i = 0; i < n; ++i) {
      std::string uid = "p";
      uid += std::to_string(w.uid_counter++);
      net.add_user({static_cast<double>(i), 0}, w.make_user(uid));
    }
    state.ResumeTiming();
    net.establish_peer_links();
    sim.run_all();
  }
  state.counters["users"] = static_cast<double>(n);
  state.counters["handshakes"] = static_cast<double>(n * (n - 1) / 2);
}
BENCHMARK(BM_PeerLinkEstablishment)
    ->Arg(2)
    ->Arg(3)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace peace::mesh

// BENCHMARK_MAIN, plus a default JSON report (BENCH_mesh_scale.json in the
// working directory) when the caller didn't pick an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_mesh_scale.json";
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
