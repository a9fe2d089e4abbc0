// E4 — revocation-check scaling (paper Sec. V.C).
// Paper: verification cost grows linearly in |URL| (2 pairings per token);
// the "far more efficient revocation check algorithm ... whose running time
// is independent of |URL|" trades per-epoch linkability for O(1) lookups.
// This bench regenerates both curves and their crossover.
#include "bench_common.hpp"

namespace peace::bench {
namespace {

std::vector<groupsig::RevocationToken> make_url(const groupsig::Issuer& issuer,
                                                crypto::Drbg& rng, int n) {
  std::vector<groupsig::RevocationToken> url;
  url.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    url.push_back({issuer.issue(curve::random_fr(rng), rng).a});
  return url;
}

std::vector<groupsig::RevocationToken> make_url_fast(std::size_t n) {
  // Distinct small multiples of the generator: well-formed G1 tokens no
  // bench signer owns, one group add each — cheap enough to build the
  // 10^5-entry URLs the large-scale scan benches need (make_url's issuer
  // path pays a scalar multiplication per token).
  std::vector<groupsig::RevocationToken> url;
  url.reserve(n);
  const curve::G1 g = curve::Bn254::get().g1_gen;
  curve::G1 a = g;
  for (std::size_t i = 0; i < n; ++i) {
    a = a + g;
    url.push_back({a});
  }
  return url;
}

void BM_LinearScanRevocation(benchmark::State& state) {
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4", state.range(0));
  const auto& key = w.user->credential(w.gm.id());
  const auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("m"), rng);
  const auto issuer = groupsig::Issuer::create(rng);
  const auto url = make_url(issuer, rng, static_cast<int>(state.range(0)));
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    // Revocation scan only (proof verification measured separately in E3).
    bool hit = false;
    for (const auto& token : url) {
      hit |= groupsig::matches_token(w.no.params().gpk, as_bytes("m"), sig,
                                     token, &ops);
    }
    benchmark::DoNotOptimize(hit);
  }
  state.counters["url_size"] = static_cast<double>(state.range(0));
  state.counters["pairings_per_check"] =
      state.range(0) == 0
          ? 0
          : static_cast<double>(ops.pairings) /
                static_cast<double>(state.range(0));
}
BENCHMARK(BM_LinearScanRevocation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void BM_FastEpochRevocation(benchmark::State& state) {
  // The |URL|-independent variant: cost is flat across list sizes.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4f", state.range(0));
  const auto& key = w.user->credential(w.gm.id());
  const groupsig::Epoch epoch = 12;
  const auto sig =
      groupsig::sign(w.no.params().gpk, key, as_bytes("m"), rng, epoch);
  const auto issuer = groupsig::Issuer::create(rng);
  const auto url = make_url(issuer, rng, static_cast<int>(state.range(0)));
  const groupsig::EpochRevocationIndex index(w.no.params().gpk, epoch, url);
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    bool revoked = index.is_revoked(sig, &ops);
    benchmark::DoNotOptimize(revoked);
  }
  state.counters["url_size"] = static_cast<double>(state.range(0));
  state.counters["pairings"] = static_cast<double>(ops.pairings);
}
BENCHMARK(BM_FastEpochRevocation)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_FullVerifyWithUrlPrepared(benchmark::State& state) {
  // Full verify (proof + URL scan) against a PreparedGroupPublicKey —
  // compare against BM_GroupVerifyWithUrl in bench_sign_verify for the
  // prepared-vs-unprepared delta at each list size.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4p", state.range(0));
  const auto& key = w.user->credential(w.gm.id());
  const auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("m"), rng);
  const auto issuer = groupsig::Issuer::create(rng);
  const auto url = make_url(issuer, rng, static_cast<int>(state.range(0)));
  const groupsig::PreparedGroupPublicKey pgpk(w.no.params().gpk);
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    bool ok = groupsig::verify(pgpk, as_bytes("m"), sig, url, &ops);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["url_size"] = static_cast<double>(state.range(0));
  state.counters["pairings"] = static_cast<double>(ops.pairings);
}
BENCHMARK(BM_FullVerifyWithUrlPrepared)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PooledUrlScan(benchmark::State& state) {
  // The linear URL scan fanned out over a VerifyPool: one token check per
  // job, 16-entry list, at 1/2/4/8 threads. Hit/miss results are asserted
  // identical to the sequential scan.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4pool");
  const auto& key = w.user->credential(w.gm.id());
  const auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("m"), rng);
  const auto issuer = groupsig::Issuer::create(rng);
  const auto url = make_url(issuer, rng, 16);
  std::vector<char> expected(url.size()), got(url.size());
  for (std::size_t i = 0; i < url.size(); ++i)
    expected[i] =
        groupsig::matches_token(w.no.params().gpk, as_bytes("m"), sig, url[i]);
  proto::VerifyPool pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    pool.run(url.size(), [&](std::size_t i) {
      got[i] = groupsig::matches_token(w.no.params().gpk, as_bytes("m"), sig,
                                       url[i]);
    });
    if (got != expected)
      state.SkipWithError("pooled URL scan diverged from sequential");
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(url.size()));
  state.counters["threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_PooledUrlScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_EpochIndexRebuild(benchmark::State& state) {
  // The amortized cost the fast variant pays once per epoch: one pairing
  // per URL token. This is the "full rebuild" column — compare with
  // BM_EpochIndexIncrementalDelta, which advances an existing index.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4r", state.range(0));
  const auto issuer = groupsig::Issuer::create(rng);
  const auto url = make_url(issuer, rng, static_cast<int>(state.range(0)));
  const std::uint64_t pairings_before = curve::pairing_op_count();
  std::uint64_t builds = 0;
  for (auto _ : state) {
    groupsig::EpochRevocationIndex index(w.no.params().gpk, 7, url);
    benchmark::DoNotOptimize(index.size());
    ++builds;
  }
  state.counters["url_size"] = static_cast<double>(state.range(0));
  state.counters["pairings_per_update"] =
      static_cast<double>(curve::pairing_op_count() - pairings_before) /
      static_cast<double>(builds);
}
BENCHMARK(BM_EpochIndexRebuild)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_EpochIndexIncrementalDelta(benchmark::State& state) {
  // The incremental column: a one-token delta lands on an existing
  // |URL|-sized index as clone + add_token — exactly what the snapshot
  // publisher does — paying 1 pairing regardless of |URL|, where the full
  // rebuild above pays |URL| + 1.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4i", state.range(0));
  const auto issuer = groupsig::Issuer::create(rng);
  const auto url = make_url(issuer, rng, static_cast<int>(state.range(0)));
  const groupsig::RevocationToken fresh{
      issuer.issue(curve::random_fr(rng), rng).a};
  const groupsig::EpochRevocationIndex base(w.no.params().gpk, 7, url);
  const std::uint64_t pairings_before = curve::pairing_op_count();
  std::uint64_t updates = 0;
  for (auto _ : state) {
    groupsig::EpochRevocationIndex next = base;  // snapshot clone, 0 pairings
    next.add_token(fresh);
    benchmark::DoNotOptimize(next.size());
    ++updates;
  }
  state.counters["url_size"] = static_cast<double>(state.range(0));
  state.counters["pairings_per_update"] =
      static_cast<double>(curve::pairing_op_count() - pairings_before) /
      static_cast<double>(updates);
}
BENCHMARK(BM_EpochIndexIncrementalDelta)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_UrlScanPreparedBases(benchmark::State& state) {
  // Cached-v_hat column for the linear scan: derive the message's bases
  // (and prepare v_hat) once, then run every token against the prepared
  // form. Compare with BM_LinearScanRevocation, whose per-token
  // matches_token re-derives the bases and re-walks v_hat's Miller loop
  // 2|URL| times. g2_prepared counts the one-shot tables built.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4c", state.range(0));
  const auto& key = w.user->credential(w.gm.id());
  const auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("m"), rng);
  const auto issuer = groupsig::Issuer::create(rng);
  const auto url = make_url(issuer, rng, static_cast<int>(state.range(0)));
  const std::uint64_t prepared_before = curve::g2_prepared_count();
  std::uint64_t scans = 0;
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    const groupsig::PreparedBases prepared =
        groupsig::prepare_bases(w.no.params().gpk, as_bytes("m"), sig, &ops);
    bool hit = false;
    for (const auto& token : url)
      hit |= groupsig::matches_token(prepared, sig, token, &ops);
    benchmark::DoNotOptimize(hit);
    ++scans;
  }
  state.counters["url_size"] = static_cast<double>(state.range(0));
  state.counters["pairings_per_check"] =
      static_cast<double>(ops.pairings) / static_cast<double>(state.range(0));
  state.counters["g2_prepared_per_scan"] =
      static_cast<double>(curve::g2_prepared_count() - prepared_before) /
      static_cast<double>(scans);
}
BENCHMARK(BM_UrlScanPreparedBases)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_UrlScanBatched(benchmark::State& state) {
  // The batched scan path (groupsig::scan_tokens): bases prepared once per
  // scan, ONE Miller factor e(-v, T_hat) shared across the list, one token
  // Miller loop each, and a single Montgomery-batched easy-part inversion
  // for the whole scan. Per-verification cost vs |URL| up to 10^5 — compare
  // per-token with BM_LinearScanRevocation (the seed base-rederiving path)
  // and BM_UrlScanPreparedBases (the seed cached-v_hat path).
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4b", state.range(0));
  const auto& key = w.user->credential(w.gm.id());
  const auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("m"), rng);
  const auto url = make_url_fast(static_cast<std::size_t>(state.range(0)));
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    const groupsig::PreparedBases prepared =
        groupsig::prepare_bases(w.no.params().gpk, as_bytes("m"), sig, &ops);
    const std::size_t hit = groupsig::scan_tokens(prepared, sig, url, &ops);
    if (hit != groupsig::TokenScan::npos)
      state.SkipWithError("clean URL reported a match");
    benchmark::DoNotOptimize(hit);
  }
  state.counters["url_size"] = static_cast<double>(state.range(0));
  state.counters["tokens_per_s"] = benchmark::Counter(
      static_cast<double>(state.range(0)),
      benchmark::Counter::kIsIterationInvariantRate);
  state.counters["pairings_per_check"] =
      static_cast<double>(ops.pairings) / static_cast<double>(state.range(0));
}
BENCHMARK(BM_UrlScanBatched)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_PerRouterIndexes(benchmark::State& state) {
  // N routers each maintaining a private epoch index: N full builds per
  // epoch roll (the pre-subsystem deployment model).
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e4n");
  const auto issuer = groupsig::Issuer::create(rng);
  const auto url = make_url(issuer, rng, 16);
  const auto routers = static_cast<std::size_t>(state.range(0));
  const std::uint64_t pairings_before = curve::pairing_op_count();
  std::uint64_t rolls = 0;
  for (auto _ : state) {
    for (std::size_t r = 0; r < routers; ++r) {
      groupsig::EpochRevocationIndex index(w.no.params().gpk, 7, url);
      benchmark::DoNotOptimize(index.size());
    }
    ++rolls;
  }
  state.counters["routers"] = static_cast<double>(routers);
  state.counters["pairings_per_roll"] =
      static_cast<double>(curve::pairing_op_count() - pairings_before) /
      static_cast<double>(rolls);
}
BENCHMARK(BM_PerRouterIndexes)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void BM_SharedSnapshotIndex(benchmark::State& state) {
  // The shared-snapshot column: the same N routers behind one
  // SharedRevocationState — an epoch roll builds one index and publishes
  // one pointer; every router (and its VerifyPool workers) reads the same
  // immutable snapshot. Cost is flat in N.
  World::instance();  // ensures curve init when this bench runs first
  // A local operator whose URL carries 16 revoked members, matching the
  // per-router bench's list size.
  proto::NetworkOperator no(crypto::Drbg::from_string("e4s"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm = no.register_group("fleet", 16, ttp);
  for (int i = 0; i < 16; ++i)
    no.revoke_user_key(gm.enroll("u" + std::to_string(i), ttp).index, 1);

  const auto routers = static_cast<std::size_t>(state.range(0));
  auto shared = std::make_shared<revoke::SharedRevocationState>(no.npk());
  shared->install_full(no.current_crl(), no.current_url());
  std::vector<std::unique_ptr<proto::MeshRouter>> fleet;
  for (std::size_t r = 0; r < routers; ++r) {
    auto provision = no.provision_router(static_cast<proto::RouterId>(100 + r),
                                         ~proto::Timestamp{0});
    fleet.push_back(std::make_unique<proto::MeshRouter>(
        static_cast<proto::RouterId>(100 + r), provision.keypair,
        provision.certificate, no.params(),
        crypto::Drbg::from_string("bench-fleet", static_cast<int>(r)),
        proto::ProtocolConfig{}, shared));
  }
  const std::uint64_t pairings_before = curve::pairing_op_count();
  std::uint64_t rolls = 0;
  groupsig::Epoch epoch = 1;
  for (auto _ : state) {
    // One build, N readers.
    fleet[0]->revocation()->set_epoch(no.gpk(), ++epoch);
    for (const auto& r : fleet)
      benchmark::DoNotOptimize(r->revocation()->snapshot());
    ++rolls;
  }
  state.counters["routers"] = static_cast<double>(routers);
  state.counters["pairings_per_roll"] =
      static_cast<double>(curve::pairing_op_count() - pairings_before) /
      static_cast<double>(rolls);
}
BENCHMARK(BM_SharedSnapshotIndex)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace peace::bench

// BENCHMARK_MAIN, plus a default JSON report (BENCH_revocation.json in the
// working directory) when the caller didn't pick an output file.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_revocation.json";
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
