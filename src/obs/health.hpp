// Rule-based online anomaly detection over the security-event stream
// (docs/OBSERVABILITY.md §4.3). A HealthMonitor ingests drained SecEvents
// into per-(shard, kind) WindowStats and, on each evaluation tick, fires
// rules of two forms against every shard's trailing window:
//
//   * threshold  — window_count >= threshold (absolute burst);
//   * ewma       — window_count >= min_count AND window_count >
//                  ewma_factor × (per-bucket EWMA × buckets), i.e. the
//                  window runs ewma_factor× hotter than the pre-spike
//                  baseline.
//
// A firing rule emits a health_alert SecEvent naming the shard and the
// underlying kind (so alerts ride the same stream, JSONL sink, and
// health_report.py path as the raw events), appends to a capped in-memory
// alert log, and enters a per-(shard, kind) cooldown so a sustained storm
// yields one alert per cooldown window, not one per tick. Every evaluation
// also publishes the per-shard HealthSnapshot gauges (health.*) into the
// registry.
//
// The monitor is an observer like the rest of obs: it draws no randomness
// and touches no protocol state, so arming it cannot perturb wire bytes or
// stats (DeterminismTest.TelemetryIsNeutral runs with it armed). It sees
// events only when obs::enabled() — under PEACE_OBS_DISABLED the stream
// carries no records and the detectors stay silent (documented exemption).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/fields.hpp"
#include "obs/window.hpp"

namespace peace::obs {

/// One detector rule. threshold and ewma_factor are independent arms;
/// either at 0 disables that arm.
struct HealthRule {
  SecEventKind kind = SecEventKind::kAuthReject;
  const char* label = "";        // stable rule name for alerts/reports
  std::uint64_t threshold = 0;   // absolute window-count trigger (0 = off)
  double ewma_factor = 0;        // deviation trigger multiplier (0 = off)
  std::uint64_t min_count = 0;   // deviation arm floor (suppresses noise)
};

/// The shipped detector set: forgery-rate spikes, revocation storms,
/// handshake-failure bursts, replay storms, shed-rate saturation.
std::vector<HealthRule> default_health_rules();

struct HealthAlert {
  std::uint32_t shard = 0;
  SecEventKind kind = SecEventKind::kAuthReject;
  std::uint64_t sim_ms = 0;
  std::uint64_t window_count = 0;
  double ewma = 0;            // baseline at firing time (per bucket)
  const char* rule = "";      // "threshold" | "ewma"
  const char* label = "";     // HealthRule::label
};

struct HealthMonitorOptions {
  WindowOptions window;
  /// Evaluation spacing; tick() calls inside the spacing only ingest time.
  std::uint64_t eval_every_ms = 5'000;
  /// Per-(shard, kind) refractory period after an alert.
  std::uint64_t cooldown_ms = 60'000;
  /// In-memory alert log cap; overflow increments alerts_dropped().
  std::size_t alert_log_cap = 1024;
  /// Empty = default_health_rules().
  std::vector<HealthRule> rules;
};

/// The monitor's event counts (obs/fields.hpp).
struct HealthCounts {
  std::uint64_t alerts = 0;           // rules fired
  std::uint64_t alerts_dropped = 0;   // fired with the alert log full
  std::uint64_t events_ingested = 0;  // health_alert events not counted
};

constexpr auto field_table(const HealthCounts*) {
  return std::to_array<Field<HealthCounts>>({
      {&HealthCounts::alerts, "health.alerts"},
      {&HealthCounts::alerts_dropped, "health.alerts_dropped"},
      {&HealthCounts::events_ingested, "health.events_ingested"},
  });
}

/// Point-in-time per-shard view, also published as health.* gauges.
struct HealthSnapshot {
  std::uint32_t shard = 0;
  std::uint64_t alerts = 0;  // alerts fired for this shard so far
  std::array<std::uint64_t, kSecEventKindCount> window_counts{};
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthMonitorOptions options = {});

  /// Feeds one drained event into the windows. health_alert events are
  /// skipped (the monitor never reacts to its own output).
  void ingest(const SecEvent& event);

  /// Rolls the windows to `sim_ms` and, at most once per eval_every_ms,
  /// evaluates every rule for every shard seen, emits health_alert events
  /// for firings, and publishes the health.* snapshot gauges.
  void tick(std::uint64_t sim_ms);

  std::uint64_t events_ingested() const { return counts_.events_ingested; }
  std::uint64_t alerts_total() const { return counts_.alerts; }
  std::uint64_t alerts_dropped() const { return counts_.alerts_dropped; }
  /// The capped alert log, in firing order.
  const std::vector<HealthAlert>& alerts() const { return alerts_; }

  HealthSnapshot snapshot(std::uint32_t shard) const;

  /// Publishes the HealthCounts counters plus per-shard health.s<id>.*
  /// gauges for every ruled kind. Called by tick() on each evaluation;
  /// idempotent.
  void publish(Registry& registry) const;

  /// {"schema": "peace.health.v1", ...}: options, per-shard window counts
  /// and alert totals, and the alert log — the metro_city --health= output
  /// and tools/health_report.py input.
  std::string summary_json() const;

 private:
  void evaluate(std::uint64_t sim_ms);

  HealthMonitorOptions options_;
  std::vector<HealthRule> rules_;
  WindowStats windows_;
  std::vector<HealthAlert> alerts_;
  std::map<std::uint32_t, std::uint64_t> alerts_by_shard_;
  std::map<std::pair<std::uint32_t, std::uint8_t>, std::uint64_t>
      cooldown_until_;
  HealthCounts counts_;
  bool evaluated_once_ = false;
  std::uint64_t last_eval_ms_ = 0;
};

}  // namespace peace::obs
