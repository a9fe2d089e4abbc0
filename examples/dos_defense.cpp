// The DoS analysis of paper Sec. V.A, executed: a flooder hammers a mesh
// router with bogus access requests. Without the client-puzzle defence the
// router burns a pairing-heavy signature verification per request; with it,
// unsolved requests die at a single hash, and an attacker who pays the
// brute-force price is rate-limited by its own compute budget — while a
// legitimate user still gets in.
//
// Run: ./build/examples/dos_defense
#include <chrono>
#include <cstdio>

#include "mesh/adversary.hpp"

using namespace peace;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  curve::Bn254::init();

  proto::NetworkOperator no(crypto::Drbg::from_string("dos-demo"));
  proto::TrustedThirdParty ttp;
  proto::GroupManager gm = no.register_group("city", 8, ttp);

  auto provision = no.provision_router(1, 1000ull * 86400 * 365);
  proto::MeshRouter router(1, provision.keypair, provision.certificate,
                           no.params(), crypto::Drbg::from_string("dos-r"));
  router.install_revocation_lists(no.current_crl(), no.current_url());

  proto::User alice("alice", no.params(), crypto::Drbg::from_string("dos-a"));
  alice.complete_enrollment(gm.enroll("alice", ttp));

  mesh::DosFlooder flooder(crypto::Drbg::from_string("dos-flooder"));
  constexpr std::size_t kFlood = 40;

  // --- Phase 1: undefended router ----------------------------------------
  auto beacon = router.make_beacon(1000);
  auto t0 = std::chrono::steady_clock::now();
  auto undefended = flooder.flood(router, beacon, 1001, kFlood, false);
  const double undefended_ms = ms_since(t0);
  std::printf("phase 1 — no defence:\n");
  std::printf("  bogus requests sent .............. %zu\n", undefended.sent);
  std::printf("  accepted (must be 0) ............. %zu\n",
              undefended.accepted);
  std::printf("  router signature verifications ... %llu (pairing-heavy!)\n",
              static_cast<unsigned long long>(
                  undefended.router_sig_verifications));
  std::printf("  wall-clock (forge+router) ........ %.1f ms (%.2f ms/request)\n",
              undefended_ms, undefended_ms / kFlood);

  // --- Phase 2: puzzle defence, attacker refuses to pay -------------------
  router.set_under_attack(true, /*difficulty=*/12);
  beacon = router.make_beacon(2000);
  t0 = std::chrono::steady_clock::now();
  auto cheap = flooder.flood(router, beacon, 2001, kFlood, false);
  const double cheap_ms = ms_since(t0);
  std::printf("\nphase 2 — puzzles on (12 bits), attacker skips them:\n");
  std::printf("  router signature verifications ... %llu\n",
              static_cast<unsigned long long>(cheap.router_sig_verifications));
  std::printf("  wall-clock (forge+router) ........ %.1f ms total "
              "(puzzle check is one hash)\n",
              cheap_ms);

  // --- Phase 3: attacker pays, budget runs dry -----------------------------
  t0 = std::chrono::steady_clock::now();
  auto paying = flooder.flood(router, beacon, 2002, kFlood, true,
                              /*hash_budget=*/8 * 4096);
  std::printf("\nphase 3 — attacker solves puzzles (budget 32768 hashes):\n");
  std::printf("  requests it could afford ......... %zu of %zu\n",
              paying.sent, kFlood);
  std::printf("  attacker hash work paid .......... %llu\n",
              static_cast<unsigned long long>(paying.attacker_hash_work));
  std::printf("  accepted (must be 0) ............. %zu\n", paying.accepted);
  std::printf("  attacker wall-clock .............. %.1f ms\n", ms_since(t0));

  // --- Phase 4: legitimate user during the attack --------------------------
  // The beacon and the M.2 cross the air as wire bytes, the puzzle and its
  // solution nested in them.
  beacon =
      proto::BeaconMessage::from_bytes(router.make_beacon(3000).to_bytes());
  t0 = std::chrono::steady_clock::now();
  auto m2 = alice.process_beacon(beacon, 3000);
  const bool connected =
      m2.has_value() &&
      router
          .handle_access_request(
              proto::AccessRequest::from_bytes(m2->to_bytes()), 3001)
          .has_value();
  std::printf("\nphase 4 — legitimate user under active attack:\n");
  std::printf("  solved puzzle + authenticated .... %s (%.1f ms, "
              "%llu hashes spent)\n",
              connected ? "yes" : "NO (BUG!)", ms_since(t0),
              static_cast<unsigned long long>(alice.stats().puzzle_hashes));

  return connected && undefended.accepted == 0 && paying.accepted == 0 ? 0 : 1;
}
