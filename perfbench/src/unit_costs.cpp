// The unit-cost phase of a traced run: direct calls into the groupsig, curve
// and math layers on the workload's own signatures and URL. Each cost is the
// median over several timed blocks.
#include "curve/ecdsa.hpp"
#include "curve/pairing.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace peace;

/// Median over `blocks` of the per-call time (ms) of `n` calls of `fn`.
template <typename Fn>
double per_call_ms(std::size_t blocks, std::size_t n, Fn&& fn) {
  Samples s;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) fn(i);
    s.add(ms_between(t0, Clock::now()) / static_cast<double>(n));
  }
  return s.median();
}

}  // namespace

void measure_unit_costs(const UnitInputs& in, Tally& tally, Layers& out) {
  const auto& sigs = in.signatures;
  const groupsig::PreparedGroupPublicKey pgpk(in.gpk);
  crypto::Drbg rng = crypto::Drbg::from_string(in.seed);

  // groupsig: sign, prepared verify, batch verify, URL scan.
  const Bytes message = sigs.front().message;
  out.set("groupsig.sign_ms", per_call_ms(4, 2, [&](std::size_t) {
            groupsig::sign(in.gpk, in.signer, message, rng);
          }));
  out.set("groupsig.verify_ms", per_call_ms(4, 2, [&](std::size_t i) {
            const auto& s = sigs[i % sigs.size()];
            tally.expect(true,
                         groupsig::verify_proof(pgpk, s.message, s.signature),
                         "unit-cost signature verifies");
          }));
  std::vector<groupsig::BatchItem> items;
  for (std::size_t i = 0; i < in.batch_size; ++i) {
    const auto& s = sigs[i % sigs.size()];
    items.push_back({s.message, &s.signature});
  }
  const Bytes salt = rng.bytes(32);
  out.set("groupsig.batch_per_sig_ms",
          per_call_ms(4, 1, [&](std::size_t) {
            const auto ok = groupsig::batch_verify_proof(pgpk, items, salt);
            for (char v : ok)
              tally.expect(true, v != 0, "unit-cost batch member verifies");
          }) / static_cast<double>(items.size()));
  if (!in.url.empty()) {
    const auto& s = sigs.front();
    const auto prepared =
        groupsig::prepare_bases(in.gpk, s.message, s.signature);
    out.set("groupsig.scan_per_token_ms",
            per_call_ms(3, 1, [&](std::size_t) {
              tally.expect(true,
                           groupsig::scan_tokens(prepared, s.signature,
                                                 in.url) ==
                               groupsig::TokenScan::npos,
                           "unit-cost signer is not on the URL");
            }) / static_cast<double>(in.url.size()));
  }

  // curve: pairing pieces and scalar multiplications on signature points.
  const auto& sig = sigs.front().signature;
  out.set("curve.pairing_ms", per_call_ms(5, 2, [&](std::size_t) {
            curve::pairing(sig.t2, sig.t_hat);
          }));
  const math::Fp12 f = curve::miller_loop(sig.t2, sig.t_hat);
  out.set("curve.miller_loop_ms", per_call_ms(5, 2, [&](std::size_t) {
            curve::miller_loop(sig.t2, sig.t_hat);
          }));
  out.set("curve.final_exp_ms", per_call_ms(5, 2, [&](std::size_t) {
            curve::final_exponentiation(f);
          }));
  curve::G1 g1 = sig.t1;
  out.set("curve.g1_mul_us", 1000 * per_call_ms(5, 20, [&](std::size_t) {
                               g1 = g1 * sig.s_alpha;
                             }));
  curve::G2 g2 = sig.t_hat;
  out.set("curve.g2_mul_us", 1000 * per_call_ms(5, 10, [&](std::size_t) {
                               g2 = g2 * sig.s_x;
                             }));
  const auto key = curve::EcdsaKeyPair::generate(rng);
  const auto ecdsa = key.sign(message, rng);
  out.set("curve.ecdsa_sign_us", 1000 * per_call_ms(5, 20, [&](std::size_t) {
                                   key.sign(message, rng);
                                 }));
  out.set("curve.ecdsa_verify_us",
          1000 * per_call_ms(5, 20, [&](std::size_t) {
            tally.expect(true,
                         curve::ecdsa_verify(key.public_key(), message, ecdsa),
                         "unit-cost ECDSA signature verifies");
          }));

  // math: dependent chains, so no call can be skipped or overlapped.
  math::Fp x = sig.t1.x, y = sig.t2.y;
  out.set("math.fp_mul_ns", 1e6 * per_call_ms(5, 200'000, [&](std::size_t) {
                              x = x * y;
                            }));
  math::Fp12 h = f;
  out.set("math.fp12_mul_ns", 1e6 * per_call_ms(5, 2'000, [&](std::size_t) {
                                h = h * f;
                              }));
  out.set("math.fp12_square_ns",
          1e6 * per_call_ms(5, 2'000, [&](std::size_t) { h = h.square(); }));
  out.set("math.fp_inverse_ns",
          1e6 * per_call_ms(5, 2'000, [&](std::size_t) {
            x = (x + y).inverse();
          }));
  // Consume the chains so they stay live.
  static volatile std::uint8_t sink;
  sink = static_cast<std::uint8_t>(x.to_bytes()[0] ^ h.to_bytes()[0] ^
                                   curve::g1_to_bytes(g1)[0] ^
                                   curve::g2_to_bytes(g2)[0]);
}

}  // namespace perfbench
