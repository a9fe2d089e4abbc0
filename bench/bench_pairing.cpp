// E9 — primitive microbenchmarks: the building blocks whose counts the
// paper's analysis is phrased in (pairings, exponentiations, hash-to-group),
// plus the ate-vs-Tate ablation called out in DESIGN.md.
#include <benchmark/benchmark.h>

#include "crypto/drbg.hpp"
#include "curve/ecdsa.hpp"
#include "curve/hash_to_curve.hpp"
#include "curve/pairing.hpp"

namespace peace::curve {
namespace {

struct Fixture {
  Fixture() : rng(crypto::Drbg::from_string("e9")) {
    Bn254::init();
    p = Bn254::get().g1_gen * random_fr(rng);
    q = Bn254::get().g2_gen * random_fr(rng);
    gt = pairing(p, q);
    scalar = random_fr(rng);
  }
  static Fixture& get() {
    static Fixture f;
    return f;
  }
  crypto::Drbg rng;
  G1 p;
  G2 q;
  GT gt;
  Fr scalar;
};

void BM_PairingOptimalAte(benchmark::State& state) {
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto e = pairing(f.p, f.q);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_PairingOptimalAte)->Unit(benchmark::kMillisecond);

void BM_PairingTateReference(benchmark::State& state) {
  // Ablation: the textbook Tate loop over r (254 iterations, untwisted
  // Fp12 arithmetic) vs the 65-iteration optimal ate above.
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto e = pairing_reference(f.p, f.q);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_PairingTateReference)->Unit(benchmark::kMillisecond);

void BM_MillerLoopOnly(benchmark::State& state) {
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto m = miller_loop(f.p, f.q);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MillerLoopOnly)->Unit(benchmark::kMillisecond);

void BM_FinalExponentiationOnly(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const auto m = miller_loop(f.p, f.q);
  for (auto _ : state) {
    auto e = final_exponentiation(m);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_FinalExponentiationOnly)->Unit(benchmark::kMillisecond);

void BM_FinalExponentiationGeneric(benchmark::State& state) {
  // Ablation: generic 762-bit square-and-multiply vs the BN hard-part
  // addition chain used by final_exponentiation() above.
  Fixture& f = Fixture::get();
  const auto m = miller_loop(f.p, f.q);
  for (auto _ : state) {
    auto e = final_exponentiation_generic(m);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_FinalExponentiationGeneric)->Unit(benchmark::kMillisecond);

void BM_MultiPairing2(benchmark::State& state) {
  // The folded two-pairing product used by R2 and Eq.3: cheaper than two
  // separate pairings because the final exponentiation is shared.
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto e = multi_pairing({{f.p, f.q}, {-f.p, f.q}});
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_MultiPairing2)->Unit(benchmark::kMillisecond);

void BM_G1ScalarMul(benchmark::State& state) {
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto r = f.p * f.scalar;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G1ScalarMul);

void BM_G1ScalarMulPlain(benchmark::State& state) {
  // Ablation: the plain 254-bit wNAF ladder the GLV split replaced as the
  // operator* fast path (docs/CRYPTO.md §6.1).
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto r = f.p.mul_windowed(f.scalar.to_u256());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G1ScalarMulPlain);

void BM_G1GeneratorMul(benchmark::State& state) {
  // k G from the fixed-base table (docs/CRYPTO.md §6.6): what ECDSA, the
  // beacon shares and credential issuance pay, against BM_G1ScalarMul's
  // GLV ladder on a variable base.
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto r = g1_generator_mul(f.scalar);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G1GeneratorMul);

void BM_G2ScalarMul(benchmark::State& state) {
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto r = f.q * f.scalar;
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G2ScalarMul);

void BM_G2ScalarMulGls(benchmark::State& state) {
  // The 4-dimensional GLS split (docs/CRYPTO.md §6.2) — opt-in for points
  // known to lie in the order-r subgroup, as all protocol G2 points do.
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto r = g2_mul_gls(f.q, f.scalar.to_u256());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G2ScalarMulGls);

void BM_G1Msm(benchmark::State& state) {
  // Endomorphism-split interleaved wNAF multi-exponentiation at the sizes
  // the verification equations use (2-, 3-term) and larger fold sizes the
  // revocation scan reaches.
  Fixture& f = Fixture::get();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<G1> pts(n);
  std::vector<math::U256> ks(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = Bn254::get().g1_gen * random_fr(f.rng);
    ks[i] = random_fr(f.rng).to_u256();
  }
  for (auto _ : state) {
    auto r = g1_msm(std::span<const G1>(pts), std::span<const math::U256>(ks));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G1Msm)->Arg(2)->Arg(3)->Arg(8)->Arg(16);

void BM_G2Msm(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<G2> pts(n);
  std::vector<math::U256> ks(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = Bn254::get().g2_gen * random_fr(f.rng);
    ks[i] = random_fr(f.rng).to_u256();
  }
  for (auto _ : state) {
    auto r = g2_msm(std::span<const G2>(pts), std::span<const math::U256>(ks));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G2Msm)->Arg(2)->Arg(4);

void BM_G2ClearCofactor(benchmark::State& state) {
  // Psi-identity cofactor clearing ([t] psi(Q) + [t-1] Q - psi^2(Q)) vs the
  // raw [2p - r] ladder it replaced — the hash_to_g2 tail.
  Fixture& f = Fixture::get();
  // A raw curve point with the cofactor still in it.
  G2 raw;
  for (std::uint64_t c = 1;; ++c) {
    const math::Fp2 x(math::Fp::from_u64(c), math::Fp::from_u64(1));
    const math::Fp2 rhs = x.square() * x + G2Traits::b();
    math::Fp2 y;
    if (!rhs.sqrt(y)) continue;
    raw = G2(x, y);
    break;
  }
  (void)f;
  for (auto _ : state) {
    auto r = g2_clear_cofactor(raw);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_G2ClearCofactor);

void BM_G2SubgroupCheck(benchmark::State& state) {
  // psi(Q) == [6u^2] Q membership test — the g2_from_bytes gate, formerly
  // a full [r] Q ladder.
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    bool ok = g2_in_subgroup(f.q);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_G2SubgroupCheck);

void BM_MultiPairing2Prepared(benchmark::State& state) {
  // The exact shape of the verification equation Eq.2: a fused two-pair
  // product with both G2 arguments prepared.
  Fixture& f = Fixture::get();
  const G2Prepared prep1(f.q);
  const G2Prepared prep2(Bn254::get().g2_gen);
  const std::pair<G1, const G2Prepared*> pairs[] = {{f.p, &prep1},
                                                    {-f.p, &prep2}};
  for (auto _ : state) {
    auto e = multi_pairing(pairs);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_MultiPairing2Prepared)->Unit(benchmark::kMillisecond);

void BM_HashToBases(benchmark::State& state) {
  // Per-signature base derivation (two hash_to_g1, one hash_to_g2) — paid
  // by both sign and verify before any equation work.
  std::uint64_t n = 0;
  for (auto _ : state) {
    Bytes seed = {static_cast<std::uint8_t>(n++), 9, 9};
    auto b = hash_to_bases(seed);
    benchmark::DoNotOptimize(b);
  }
}
BENCHMARK(BM_HashToBases);

void BM_GtExponentiation(benchmark::State& state) {
  Fixture& f = Fixture::get();
  for (auto _ : state) {
    auto r = f.gt.pow(f.scalar.to_u256());
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GtExponentiation);

void BM_HashToG1(benchmark::State& state) {
  Fixture& f = Fixture::get();
  std::uint64_t n = 0;
  for (auto _ : state) {
    Bytes msg = {static_cast<std::uint8_t>(n++), 1, 2, 3};
    auto p = hash_to_g1("bench", msg);
    benchmark::DoNotOptimize(p);
  }
  (void)f;
}
BENCHMARK(BM_HashToG1);

void BM_HashToG2(benchmark::State& state) {
  std::uint64_t n = 0;
  for (auto _ : state) {
    Bytes msg = {static_cast<std::uint8_t>(n++), 1, 2, 3};
    auto q = hash_to_g2("bench", msg);
    benchmark::DoNotOptimize(q);
  }
}
BENCHMARK(BM_HashToG2)->Unit(benchmark::kMillisecond);

void BM_FpInverseFast(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const math::Fp a = math::Fp::from_bytes_reduce(f.rng.bytes(32));
  for (auto _ : state) {
    auto inv = a.inverse();
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_FpInverseFast);

void BM_FpInverseFermat(benchmark::State& state) {
  // Ablation: the exponentiation-based inverse the fast path replaced.
  Fixture& f = Fixture::get();
  const math::Fp a = math::Fp::from_bytes_reduce(f.rng.bytes(32));
  for (auto _ : state) {
    auto inv = a.inverse_fermat();
    benchmark::DoNotOptimize(inv);
  }
}
BENCHMARK(BM_FpInverseFermat);

void BM_EcdsaSign(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const auto kp = EcdsaKeyPair::generate(f.rng);
  for (auto _ : state) {
    auto sig = kp.sign(as_bytes("beacon payload"), f.rng);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  Fixture& f = Fixture::get();
  const auto kp = EcdsaKeyPair::generate(f.rng);
  const auto sig = kp.sign(as_bytes("beacon payload"), f.rng);
  for (auto _ : state) {
    bool ok = ecdsa_verify(kp.public_key(), as_bytes("beacon payload"), sig);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_EcdsaVerify);

}  // namespace
}  // namespace peace::curve

// BENCHMARK_MAIN, plus a default JSON report (BENCH_pairing.json in the
// working directory) when the caller didn't pick an output file — the
// curve-layer speedup gates and the E1/E3/E5 cost tables read it.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_pairing.json";
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
