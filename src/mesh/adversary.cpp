#include "mesh/adversary.hpp"

#include <cstring>

namespace peace::mesh {

using curve::g1_to_bytes;
using curve::random_fr;
using proto::AccessRequest;
using proto::BeaconMessage;

// --- Eavesdropper -------------------------------------------------------------

void Eavesdropper::attach(MeshNetwork& net) {
  net.add_tap([this](const WireObservation& obs) { on_frame(obs); });
}

void Eavesdropper::on_frame(const WireObservation& obs) {
  frames_.push_back(obs);
  if (std::strcmp(obs.kind, "m2") == 0 &&
      m2_wires_.insert(obs.payload).second) {
    // Extract the fields a linkage attacker would index on.
    const AccessRequest m2 = AccessRequest::from_bytes(obs.payload);
    ++field_occurrences_["g_rj:" + to_hex(g1_to_bytes(m2.g_rj))];
    ++field_occurrences_["t1:" + to_hex(g1_to_bytes(m2.signature.t1))];
    ++field_occurrences_["t2:" + to_hex(g1_to_bytes(m2.signature.t2))];
    ++field_occurrences_["that:" +
                         to_hex(curve::g2_to_bytes(m2.signature.t_hat))];
    ++field_occurrences_["nonce:" +
                         to_hex(curve::fr_to_bytes(m2.signature.nonce))];
  }
  // Data frames: the adversary records ciphertext; without keys nothing is
  // recoverable, so recovered_ is only ever appended on a crypto failure.
}

std::size_t Eavesdropper::repeated_field_count() const {
  std::size_t repeats = 0;
  for (const auto& [field, n] : field_occurrences_) {
    if (n > 1) ++repeats;
  }
  return repeats;
}

bool Eavesdropper::saw_bytes(BytesView needle) const {
  if (needle.empty()) return false;
  for (const WireObservation& obs : frames_) {
    const auto it = std::search(obs.payload.begin(), obs.payload.end(),
                                needle.begin(), needle.end());
    if (it != obs.payload.end()) return true;
  }
  return false;
}

// --- BogusInjector ----------------------------------------------------------------

AccessRequest BogusInjector::forge_request(const BeaconMessage& beacon,
                                           proto::Timestamp now) {
  const auto& bn = curve::Bn254::get();
  AccessRequest m2;
  m2.g_rj = bn.g1_gen * random_fr(rng_);
  m2.g_rr = beacon.g_rr;
  m2.ts2 = now;
  // Structurally valid signature fields with no knowledge of any gsk.
  m2.signature.nonce = random_fr(rng_);
  m2.signature.t1 = bn.g1_gen * random_fr(rng_);
  m2.signature.t2 = bn.g1_gen * random_fr(rng_);
  m2.signature.t_hat = bn.g2_gen * random_fr(rng_);
  m2.signature.r1 = bn.g1_gen * random_fr(rng_);
  // A wire-plausible R2: random pairing value, so it passes the cyclotomic
  // subgroup check yet satisfies no verification equation.
  m2.signature.r2 =
      curve::pairing(bn.g1_gen * random_fr(rng_), bn.g2_gen);
  m2.signature.r3 = bn.g1_gen * random_fr(rng_);
  m2.signature.r4 = bn.g2_gen * random_fr(rng_);
  m2.signature.s_alpha = random_fr(rng_);
  m2.signature.s_x = random_fr(rng_);
  m2.signature.s_delta = random_fr(rng_);
  return m2;
}

// --- DosFlooder --------------------------------------------------------------------

DosFlooder::FloodReport DosFlooder::flood(proto::MeshRouter& router,
                                          const BeaconMessage& beacon,
                                          proto::Timestamp now,
                                          std::size_t count,
                                          bool solve_puzzles,
                                          std::uint64_t hash_budget) {
  BogusInjector injector(rng_.fork("flood"));
  FloodReport report;
  const std::uint64_t before = router.stats().signature_verifications;
  for (std::size_t i = 0; i < count; ++i) {
    AccessRequest m2 = injector.forge_request(beacon, now);
    if (beacon.puzzle.has_value() && solve_puzzles) {
      const auto cost = static_cast<std::uint64_t>(
          proto::puzzle_expected_work(beacon.puzzle->difficulty_bits));
      if (report.attacker_hash_work + cost > hash_budget) break;  // exhausted
      m2.puzzle_solution =
          proto::solve_puzzle(*beacon.puzzle, g1_to_bytes(m2.g_rj));
      report.attacker_hash_work += cost;
    }
    ++report.sent;
    if (router.handle_access_request(m2, now).has_value()) ++report.accepted;
  }
  report.router_sig_verifications =
      router.stats().signature_verifications - before;
  return report;
}

}  // namespace peace::mesh
