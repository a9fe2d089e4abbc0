// Radio fault injection for the metro mesh: a declarative FaultPlan turns
// the flat loss model into a harness covering every fault class the
// reliability layer (PROTOCOL.md §10) must survive — Gilbert–Elliott burst
// loss, frame duplication, bounded reorder jitter, and bit corruption.
// Link partitions and router crash/restart are topology-level faults and
// live on MeshNetwork itself. All randomness flows through the network's
// seeded Drbg, so every chaos run is bit-reproducible.
#pragma once

#include <cstdint>

#include "common/bytes.hpp"
#include "crypto/drbg.hpp"

namespace peace::mesh {

/// Per-frame fault probabilities. The default-constructed plan is the
/// identity: every frame is delivered verbatim after nominal latency, and
/// judging it consumes no randomness at all (bit-compatibility with the
/// plain loss model when a RadioConfig loss rate is folded into loss_good).
struct FaultPlan {
  // Gilbert–Elliott burst loss: the channel sits in a good or a bad state,
  // each with its own loss rate, and transitions once per judged frame.
  // Average loss = loss at the chain's stationary distribution; e.g.
  // loss_bad=0.75, p_good_to_bad=0.2, p_bad_to_good=0.3 gives bursty ~30%.
  double loss_good = 0.0;
  double loss_bad = 0.0;
  double p_good_to_bad = 0.0;  // per-frame transition probabilities
  double p_bad_to_good = 1.0;

  /// Probability a delivered frame is delivered twice (MAC-layer
  /// duplicate; the copy is clean and arrives 1 ms after the original).
  double duplicate_probability = 0.0;
  /// Probability a delivered frame picks up extra delay, uniform in
  /// [1, reorder_max_jitter_ms] — enough to overtake later frames.
  double reorder_probability = 0.0;
  std::uint64_t reorder_max_jitter_ms = 10;
  /// Probability a delivered frame has 1–3 random bits flipped in flight.
  double corrupt_probability = 0.0;
};

/// What the injector decided for one frame.
struct FaultVerdict {
  bool lost = false;
  bool duplicate = false;
  bool corrupt = false;
  std::uint64_t extra_delay_ms = 0;
};

class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(const FaultPlan& plan) : plan_(plan) {}


  /// Draws the fate of one frame. Randomness is consumed only by fault
  /// classes with nonzero probability (and the burst chain only once it can
  /// ever leave the good state), so a plan carrying nothing but loss_good
  /// draws exactly one uniform per frame — the legacy loss model's stream.
  FaultVerdict judge(crypto::Drbg& rng);

  /// Flips 1–3 random bits of `wire` in place (no-op on an empty frame).
  static void corrupt(Bytes& wire, crypto::Drbg& rng);

 private:
  FaultPlan plan_;
  bool burst_bad_ = false;
};

}  // namespace peace::mesh
