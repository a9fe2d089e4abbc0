// E6 — the asymmetric-symmetric hybrid (paper Sec. V.C): group signatures
// only at session establishment, MAC/AEAD per message afterwards. This
// bench shows the orders-of-magnitude gap that justifies the design, by
// comparing the hybrid per-message path against signing every message.
#include "bench_common.hpp"

namespace peace::bench {
namespace {

proto::Session make_session(const char* seed) {
  crypto::Drbg rng = crypto::Drbg::from_string(seed);
  const auto shared = curve::Bn254::get().g1_gen * curve::random_fr(rng);
  return proto::Session::establish(shared, as_bytes("bench-session"),
                                   proto::Session::Role::kInitiator);
}

void BM_HybridAeadPerMessage(benchmark::State& state) {
  curve::Bn254::init();
  proto::Session session = make_session("e6-aead");
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto frame = session.seal(payload);
    benchmark::DoNotOptimize(frame);
    bytes += payload.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
  state.counters["payload_bytes"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_HybridAeadPerMessage)->Arg(64)->Arg(512)->Arg(1500);

void BM_HybridMacPerMessage(benchmark::State& state) {
  curve::Bn254::init();
  proto::Session session = make_session("e6-mac");
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto tag = session.mac(payload);
    benchmark::DoNotOptimize(tag);
    bytes += payload.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_HybridMacPerMessage)->Arg(64)->Arg(512)->Arg(1500);

void BM_GroupSigPerMessage(benchmark::State& state) {
  // The design PEACE avoids: a group signature on every data message.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e6-gs");
  const auto& key = w.user->credential(w.gm.id());
  const Bytes payload(static_cast<std::size_t>(state.range(0)), 0x5a);
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto sig = groupsig::sign(w.no.params().gpk, key, payload, rng);
    benchmark::DoNotOptimize(sig);
    bytes += payload.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_GroupSigPerMessage)->Arg(1500)->Unit(benchmark::kMillisecond);

void BM_SessionRoundTrip(benchmark::State& state) {
  // Seal + open, both directions, as the protocol actually runs.
  curve::Bn254::init();
  crypto::Drbg rng = crypto::Drbg::from_string("e6-rt");
  const auto shared = curve::Bn254::get().g1_gen * curve::random_fr(rng);
  auto a = proto::Session::establish(shared, as_bytes("s"),
                                     proto::Session::Role::kInitiator);
  auto b = proto::Session::establish(shared, as_bytes("s"),
                                     proto::Session::Role::kResponder);
  const Bytes payload(1024, 0x11);
  for (auto _ : state) {
    auto frame = a.seal(payload);
    auto got = b.open(frame);
    benchmark::DoNotOptimize(got);
  }
}
BENCHMARK(BM_SessionRoundTrip);

void BM_SessionEstablishFromDh(benchmark::State& state) {
  // Key-schedule cost alone (HKDF): amortized once per session.
  curve::Bn254::init();
  crypto::Drbg rng = crypto::Drbg::from_string("e6-est");
  const auto shared = curve::Bn254::get().g1_gen * curve::random_fr(rng);
  for (auto _ : state) {
    auto s = proto::Session::establish(shared, as_bytes("sid"),
                                       proto::Session::Role::kInitiator);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SessionEstablishFromDh);

}  // namespace
}  // namespace peace::bench

BENCHMARK_MAIN();
