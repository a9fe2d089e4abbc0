// E2/E3 — "Computational Overhead" (paper Sec. V.C).
// Paper: signing = ~8 exponentiations + 2 pairings; verification =
// 6 exponentiations + (3 + 2|URL|) pairings. We measure wall-clock AND the
// instrumented operation counts (the Type-3 adaptation adds the T_hat
// carrier: one extra exponentiation per side; same-base pairings folded).
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "../tests/groupsig_reference.hpp"
#include "bench_common.hpp"

namespace peace::bench {
namespace {

void BM_GroupSign(benchmark::State& state) {
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e2");
  const auto& key = w.user->credential(w.gm.id());
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("msg"), rng, 0,
                              &ops);
    benchmark::DoNotOptimize(sig);
  }
  state.counters["exponentiations"] = static_cast<double>(ops.total_exp());
  state.counters["pairings"] = static_cast<double>(ops.pairings);
  state.counters["paper_exp"] = 8;
  state.counters["paper_pairings"] = 2;
}
BENCHMARK(BM_GroupSign)->Unit(benchmark::kMillisecond);

void BM_GroupVerifyProof(benchmark::State& state) {
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e3");
  const auto& key = w.user->credential(w.gm.id());
  const auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("msg"), rng);
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    bool ok = groupsig::verify_proof(w.no.params().gpk, as_bytes("msg"), sig,
                                     &ops);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["exponentiations"] = static_cast<double>(ops.total_exp());
  state.counters["pairings"] = static_cast<double>(ops.pairings);
  state.counters["paper_exp"] = 6;
  state.counters["paper_pairings_no_url"] = 3;
}
BENCHMARK(BM_GroupVerifyProof)->Unit(benchmark::kMillisecond);

void BM_GroupVerifyProofPrepared(benchmark::State& state) {
  // Same check with the fixed G2 arguments (g2, w) prepared once outside
  // the loop — the router's steady-state configuration.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e3");
  const auto& key = w.user->credential(w.gm.id());
  const auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("msg"), rng);
  const groupsig::PreparedGroupPublicKey pgpk(w.no.params().gpk);
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    bool ok = groupsig::verify_proof(pgpk, as_bytes("msg"), sig, &ops);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["exponentiations"] = static_cast<double>(ops.total_exp());
  state.counters["pairings"] = static_cast<double>(ops.pairings);
}
BENCHMARK(BM_GroupVerifyProofPrepared)->Unit(benchmark::kMillisecond);

void BM_GroupSignPrepared(benchmark::State& state) {
  // The signer users run (M.2, M~.1, M~.2): R2's two pairings reuse the
  // prepared g2 / w lines. Same bytes and op counts as BM_GroupSign.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e2");
  const auto& key = w.user->credential(w.gm.id());
  const groupsig::PreparedGroupPublicKey pgpk(w.no.params().gpk);
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    auto sig = groupsig::sign(pgpk, key, as_bytes("msg"), rng, 0, &ops);
    benchmark::DoNotOptimize(sig);
  }
  state.counters["exponentiations"] = static_cast<double>(ops.total_exp());
  state.counters["pairings"] = static_cast<double>(ops.pairings);
  state.counters["paper_exp"] = 8;
  state.counters["paper_pairings"] = 2;
}
BENCHMARK(BM_GroupSignPrepared)->Unit(benchmark::kMillisecond);

void BM_VerifyPoolBatch(benchmark::State& state) {
  // Aggregate throughput of a 16-signature batch over the VerifyPool at
  // 1/2/4/8 threads. Accept/reject results are asserted identical to the
  // sequential prepared path every iteration.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e3-pool");
  const auto& key = w.user->credential(w.gm.id());
  constexpr std::size_t kBatch = 16;
  std::vector<groupsig::Signature> sigs;
  std::vector<bool> expected;
  for (std::size_t i = 0; i < kBatch; ++i) {
    auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("msg"), rng);
    if (i % 4 == 3) sig.s_x = sig.s_x + curve::Fr::one();  // corrupt every 4th
    expected.push_back(
        groupsig::verify_proof(w.no.params().gpk, as_bytes("msg"), sig));
    sigs.push_back(std::move(sig));
  }
  const groupsig::PreparedGroupPublicKey pgpk(w.no.params().gpk);
  proto::VerifyPool pool(static_cast<unsigned>(state.range(0)));
  std::vector<char> got(kBatch);
  for (auto _ : state) {
    pool.run(kBatch, [&](std::size_t i) {
      got[i] = groupsig::verify_proof(pgpk, as_bytes("msg"), sigs[i]);
    });
    for (std::size_t i = 0; i < kBatch; ++i)
      if (static_cast<bool>(got[i]) != expected[i])
        state.SkipWithError("pooled verify diverged from sequential");
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["sigs_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(kBatch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VerifyPoolBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_BatchVerify(benchmark::State& state) {
  // Randomized batch verification (docs/CRYPTO.md §4): batch sizes 1/4/16/64
  // in three regimes — all-good (one shared final exponentiation), one-bad
  // (bisection finds it), and k-bad (~N/4 corrupted, the bisection-heavy
  // regime). per_sig_ms is the figure to compare against
  // BM_GroupVerifyProofPrepared; speedup_vs_sequential is measured against a
  // sequential prepared verify of the same batch inside this run.
  World& w = World::instance();
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto bad = static_cast<std::size_t>(state.range(1));
  crypto::Drbg rng = crypto::Drbg::from_string(
      "e3-batch", static_cast<std::uint64_t>(state.range(0) * 1000 +
                                             state.range(1)));
  const auto& key = w.user->credential(w.gm.id());
  std::vector<Bytes> messages;
  std::vector<groupsig::Signature> sigs;
  for (std::size_t i = 0; i < n; ++i) {
    messages.push_back(to_bytes("batch-msg-" + std::to_string(i)));
    sigs.push_back(
        groupsig::sign(w.no.params().gpk, key, messages.back(), rng));
  }
  // Spread the `bad` corruptions evenly across the batch.
  for (std::size_t b = 0; b < bad && b < n; ++b) {
    const std::size_t i = b * n / bad;
    sigs[i].s_x = sigs[i].s_x + curve::Fr::one();
  }
  std::vector<groupsig::BatchItem> items(n);
  for (std::size_t i = 0; i < n; ++i) items[i] = {messages[i], &sigs[i]};
  const groupsig::PreparedGroupPublicKey pgpk(w.no.params().gpk);
  const Bytes salt = rng.bytes(32);

  // Sequential prepared reference: expected results plus the baseline
  // timing for the speedup counter, measured once outside the loop.
  std::vector<char> expected(n);
  const auto seq_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < n; ++i)
    expected[i] = groupsig::verify_proof(pgpk, messages[i], sigs[i]);
  const double seq_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - seq_start)
                            .count();

  const auto batch_start = std::chrono::steady_clock::now();
  std::size_t timed_runs = 0;
  for (auto _ : state) {
    const std::vector<char> got =
        groupsig::batch_verify_proof(pgpk, items, salt);
    if (got != expected)
      state.SkipWithError("batch verify diverged from sequential");
    benchmark::DoNotOptimize(got);
    ++timed_runs;
  }
  const double batch_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - batch_start)
                              .count() /
                          static_cast<double>(timed_runs == 0 ? 1 : timed_runs);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["batch_size"] = static_cast<double>(n);
  state.counters["bad_sigs"] = static_cast<double>(bad);
  state.counters["sequential_batch_ms"] = seq_ms;
  state.counters["batch_ms"] = batch_ms;
  if (batch_ms > 0)
    state.counters["speedup_vs_sequential"] = seq_ms / batch_ms;
  state.counters["per_sig_ms"] = batch_ms / static_cast<double>(n);
}
BENCHMARK(BM_BatchVerify)
    ->ArgsProduct({{1, 4, 16, 64}, {0}})
    ->Args({4, 1})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({16, 4})
    ->Args({64, 16})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_GroupVerifyWithUrl(benchmark::State& state) {
  // Total verification cost as |URL| grows: pairings = base + 2|URL|.
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e3-url", state.range(0));
  const auto& key = w.user->credential(w.gm.id());
  const auto sig = groupsig::sign(w.no.params().gpk, key, as_bytes("msg"), rng);
  std::vector<groupsig::RevocationToken> url;
  const auto issuer_view = groupsig::Issuer::create(rng);  // unrelated tokens
  for (int i = 0; i < state.range(0); ++i)
    url.push_back({issuer_view.issue(curve::random_fr(rng), rng).a});
  groupsig::OpCounters ops;
  for (auto _ : state) {
    ops.reset();
    bool ok =
        groupsig::verify(w.no.params().gpk, as_bytes("msg"), sig, url, &ops);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["url_size"] = static_cast<double>(state.range(0));
  state.counters["pairings"] = static_cast<double>(ops.pairings);
  state.counters["paper_pairings"] =
      static_cast<double>(3 + 2 * state.range(0));
}
BENCHMARK(BM_GroupVerifyWithUrl)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_MemberKeyIssue(benchmark::State& state) {
  // Setup-side cost: one SDH tuple per member (NO's step 3).
  World& w = World::instance();
  crypto::Drbg rng = crypto::Drbg::from_string("e2-issue");
  const auto issuer = groupsig::Issuer::create(rng);
  const auto grp = issuer.new_group_secret(rng);
  for (auto _ : state) {
    auto key = issuer.issue(grp, rng);
    benchmark::DoNotOptimize(key);
  }
  (void)w;
}
BENCHMARK(BM_MemberKeyIssue)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace peace::bench

// BENCHMARK_MAIN, plus a default JSON report (BENCH_batch_verify.json in
// the working directory) when the caller didn't pick an output file — the
// E2/E3 cost tables and the batch-verification speedup gate read it.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_batch_verify.json";
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
