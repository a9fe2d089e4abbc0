// The metro_city scenario: one simulated day of a sharded metropolitan
// deployment — commute waves that roam users between segments, a stadium
// flash crowd that slams one shard, and rolling revocation waves from the
// operator — at populations up to and beyond 100k users.
//
// Population model (docs/ARCHITECTURE.md §7.4): real BN254 group-signature
// crypto costs ~10 ms per enrollment and ~6 ms per verification, so a
// 100k-user day with full crypto per user is ~weeks of CPU — and would
// measure the pairing library, not the engine this scenario exists to
// exercise. metro_city therefore runs a HYBRID population:
//
//   * a cohort of real proto::Users (default 64) running the full PEACE
//     protocol — anonymous access handshakes, roaming re-authentication,
//     revocation checks — spread over every shard, and
//   * a synthetic background population (the other ~100k) whose load is
//     modeled: per-shard DRBG-driven activity steps that move population
//     between shards through arena-pooled mailbox frames, relay traffic
//     toward access-point shards, and exercise every cap and counter of
//     the sharded engine without paying a pairing per body.
//
// Everything — cohort handshakes, synthetic draws, wave timing — derives
// from MetroCityConfig::seed, so a run is bit-reproducible.
#pragma once

#include <functional>
#include <string>

#include "mesh/metro.hpp"
#include "peace/entities.hpp"

namespace peace::obs {
class HealthMonitor;
}

namespace peace::mesh {

struct MetroCityConfig {
  std::size_t shards = 8;
  /// Synthetic background population, spread evenly over the shards.
  std::uint64_t synthetic_users = 100'000 - 64;
  /// Real-crypto residents (full PEACE protocol), spread over the shards.
  std::size_t cohort_users = 64;
  SimTime day_ms = 86'400'000;  // one simulated day
  SimTime tick_ms = 500;        // metro barrier spacing
  std::uint64_t shard_event_budget = 10'000'000;
  std::string seed = "metro-city";
  /// Rolling revocation waves pushed by the operator across the day.
  unsigned revocation_waves = 4;
  /// Stadium flash crowd at midday (synthetic surge + cohort roams).
  bool flash_crowd = true;
  /// Radio loss for every segment.
  double loss_probability = 0.02;
  /// Threads running shards and cohort enrollment (MetroConfig::threads:
  /// 0 = hardware_concurrency, capped at the shard count). The day's
  /// results do not depend on it.
  unsigned threads = 0;
  /// Observer only: when set, every shard's wire traffic is tapped into it
  /// (MeshNetwork::add_tap), called on the thread running that shard's
  /// tick — keep per-shard state apart.
  std::function<void(ShardId, const WireObservation&)> tap;
  /// Online anomaly detection: when non-null, attached to the metro driver
  /// for the whole day (drained + ticked at every barrier). Observer only.
  obs::HealthMonitor* health = nullptr;
  /// Chaos injection: a midday burst of forged M.2s (valid-looking group
  /// signatures broken post-signing) slammed at the stadium shard's router
  /// in one batch — exercising batch bisection attribution and the
  /// forgery_spike detector.
  bool forgery_burst = false;
  /// Chaos injection: a revoked credential ("the mole") replays valid
  /// handshakes at downtown after its key lands on the URL — exercising
  /// revocation scanning and the revocation_storm detector.
  bool revoked_burst = false;
};

/// Synthetic-population counters (per shard, summed for the report).
struct SyntheticStats {
  std::uint64_t associations = 0;    // modeled anonymous handshakes
  std::uint64_t data_frames = 0;     // modeled in-segment data traffic
  std::uint64_t internet_frames = 0; // modeled internet-bound traffic
  std::uint64_t moved = 0;           // users moved between shards
};

/// The registry counter each field is exported as (obs/fields.hpp).
constexpr auto field_table(const SyntheticStats*) {
  return std::to_array<obs::Field<SyntheticStats>>({
      {&SyntheticStats::associations, "metro_city.synthetic.associations"},
      {&SyntheticStats::data_frames, "metro_city.synthetic.data_frames"},
      {&SyntheticStats::internet_frames,
       "metro_city.synthetic.internet_frames"},
      {&SyntheticStats::moved, "metro_city.synthetic.moved"},
  });
}

struct MetroCityReport {
  std::size_t shards = 0;
  std::uint64_t total_users = 0;     // cohort + synthetic
  std::size_t cohort_users = 0;
  std::size_t cohort_connected = 0;  // cohort uplinks live at day end
  std::uint64_t cohort_roams = 0;    // cross-shard roam_user calls issued
  SimTime sim_ms = 0;
  double wall_seconds = 0;
  std::uint64_t events = 0;          // summed over shard simulators
  unsigned revocation_waves = 0;
  std::uint64_t url_version = 0;     // max URL version any shard reached
  std::uint64_t health_alerts = 0;   // HealthMonitor firings (0 = detached)
  MetroStats metro;
  NetworkStats net;
  SyntheticStats synthetic;
};

/// Runs one full simulated day and returns the report. Throws Error if a
/// shard exhausts its event budget (the error names the shard).
MetroCityReport run_metro_city(const MetroCityConfig& config);

}  // namespace peace::mesh
