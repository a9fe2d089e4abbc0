// Telemetry overhead (docs/OBSERVABILITY.md §6): the full user-router
// handshake hot path with tracing disabled vs enabled, plus the raw cost
// of the primitives the layer adds to hot code (a crypto-op hook, a span,
// a histogram record). The acceptance bar is <3% on the handshake path
// with tracing enabled and zero added work when PEACE_OBS=OFF compiles
// spans out; BENCH_obs.json carries the numbers for CI.
#include "bench_common.hpp"

#include "obs/health.hpp"
#include "obs/sec_event.hpp"
#include "obs/trace.hpp"

namespace peace::bench {
namespace {

/// One full M.1 -> M.2 -> M.3 handshake over serialized messages — the same
/// loop as bench_auth_protocol's E5, parameterized on the runtime telemetry
/// toggle so the two states are directly comparable from one binary.
void BM_HandshakeObs(benchmark::State& state) {
  World& w = World::instance();
  const bool on = state.range(0) != 0;
  obs::enable(on);
  proto::Timestamp now = 10'000;
  for (auto _ : state) {
    now += 10'000;
    const auto beacon = w.router->make_beacon(now);
    auto m2 = w.user->process_beacon(
        proto::BeaconMessage::from_bytes(beacon.to_bytes()), now);
    auto outcome = w.router->handle_access_request(
        proto::AccessRequest::from_bytes(m2->to_bytes()), now + 1);
    auto session = w.user->process_access_confirm(
        proto::AccessConfirm::from_bytes(outcome->confirm.to_bytes()));
    benchmark::DoNotOptimize(session);
  }
  obs::enable(false);
  obs::Tracer::global().clear();  // don't let event storage grow run-to-run
  state.counters["obs_enabled"] = on ? 1 : 0;
}
BENCHMARK(BM_HandshakeObs)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Name("BM_Handshake/obs");

/// The per-operation cost of a crypto-op hook: one relaxed atomic add when
/// tracing is off (identical to the pre-registry bare global), plus a
/// thread-local tally bump when on.
void BM_OpHook(benchmark::State& state) {
  obs::enable(state.range(0) != 0);
  for (auto _ : state) obs::note(obs::Op::kPairing);
  obs::enable(false);
}
BENCHMARK(BM_OpHook)->Arg(0)->Arg(1)->Name("BM_OpHook/obs");

/// Span construction + close. Disabled: one atomic load and a branch.
/// Enabled: two clock reads, a tally diff, and a mutex-guarded vector push.
void BM_Span(benchmark::State& state) {
  obs::enable(state.range(0) != 0);
  for (auto _ : state) {
    obs::Span span("bench.span", "bench");
    benchmark::DoNotOptimize(span.active());
  }
  obs::enable(false);
  obs::Tracer::global().clear();
}
BENCHMARK(BM_Span)->Arg(0)->Arg(1)->Name("BM_Span/obs");

/// sec_emit — the security-event stream's hot-path cost. Disabled: one
/// relaxed atomic add (the always-on per-kind counter). Enabled: the add
/// plus a fixed-size record pushed onto the thread's SPSC ring.
void BM_SecEmit(benchmark::State& state) {
  obs::enable(state.range(0) != 0);
  std::uint64_t t = 0;
  for (auto _ : state) {
    obs::sec_emit(obs::SecEventKind::kAuthReject, ++t, 7, 2);
    // Keep the ring from saturating into the shed path mid-measurement
    // (and the tracer's in-memory event store from growing with it).
    if ((t & 2047) == 0) {
      obs::drain_sec_events();
      obs::Tracer::global().clear();
    }
  }
  obs::enable(false);
  obs::drain_sec_events();
  obs::Tracer::global().clear();
}
BENCHMARK(BM_SecEmit)->Arg(0)->Arg(1)->Name("BM_SecEmit/obs");

/// Drain + HealthMonitor ingest + evaluation for one barrier's worth of
/// events — the per-tick cost the metro driver pays with --health on.
void BM_HealthBarrier(benchmark::State& state) {
  obs::enable(true);
  const std::uint64_t burst = static_cast<std::uint64_t>(state.range(0));
  obs::HealthMonitor monitor;
  std::uint64_t sim_ms = 0;
  std::vector<obs::SecEvent> drained;
  for (auto _ : state) {
    sim_ms += 500;
    for (std::uint64_t i = 0; i < burst; ++i)
      obs::sec_emit_for_shard(obs::SecEventKind::kAuthReject,
                              static_cast<std::uint32_t>(i & 7), sim_ms, i);
    drained.clear();
    obs::drain_sec_events(&drained);
    obs::Tracer::global().clear();
    for (const obs::SecEvent& e : drained) monitor.ingest(e);
    monitor.tick(sim_ms);
  }
  obs::enable(false);
  obs::Tracer::global().clear();
  state.counters["events_per_tick"] = static_cast<double>(burst);
  state.counters["alerts"] = static_cast<double>(monitor.alerts_total());
}
BENCHMARK(BM_HealthBarrier)
    ->Arg(16)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond)
    ->Name("BM_HealthBarrier/events");

/// Histogram::record — two relaxed atomic adds, the full hot-path cost of
/// a latency sample.
void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram hist;
  std::uint64_t v = 1;
  for (auto _ : state) {
    hist.record(v);
    v = (v * 33) % 100'000;
  }
  benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

}  // namespace
}  // namespace peace::bench

// BENCHMARK_MAIN, plus a default JSON report (BENCH_obs.json in the working
// directory) when the caller didn't pick an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_obs.json";
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
