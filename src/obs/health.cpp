#include "obs/health.hpp"

#include <cstdio>

namespace peace::obs {

std::vector<HealthRule> default_health_rules() {
  // Thresholds are per trailing window (default: one minute). The ewma arm
  // catches slow-building anomalies the absolute arm would miss at small
  // populations; min_count keeps it quiet while the baseline is cold.
  return {
      // Forgery-rate spike: any attributed batch forgery is hostile, so
      // the absolute bar sits low; auth_reject needs room for benign noise
      // (stale timestamps near the replay window, beacon races).
      {SecEventKind::kBatchForgeryAttributed, "forgery_spike", 8, 4.0, 4},
      {SecEventKind::kAuthReject, "auth_reject_burst", 32, 6.0, 8},
      // Replay storm: a handful of replays is retransmission fallout; a
      // windowful is an attack (or a broken reliability layer).
      {SecEventKind::kReplayDetected, "replay_storm", 32, 6.0, 8},
      // Revocation storm: revoked credentials attempting access in bulk.
      {SecEventKind::kRevocationHit, "revocation_storm", 8, 4.0, 4},
      {SecEventKind::kRlResync, "rl_resync_storm", 16, 0, 0},
      // Handshake-failure burst: partitions, crashed routers, or loss far
      // above the engineered rate.
      {SecEventKind::kHandshakeTimeout, "handshake_failure_burst", 16, 4.0, 8},
      // Shed-rate saturation: the shard inbox cap is actively dropping
      // cross-shard traffic.
      {SecEventKind::kInboxShed, "shed_saturation", 16, 0, 0},
  };
}

HealthMonitor::HealthMonitor(HealthMonitorOptions options)
    : options_(std::move(options)),
      rules_(options_.rules.empty() ? default_health_rules() : options_.rules),
      windows_(options_.window) {}

void HealthMonitor::ingest(const SecEvent& event) {
  if (event.kind == SecEventKind::kHealthAlert) return;
  ++counts_.events_ingested;
  windows_.add(event.shard, event.kind, event.sim_ms);
}

void HealthMonitor::tick(std::uint64_t sim_ms) {
  if (evaluated_once_ && sim_ms < last_eval_ms_ + options_.eval_every_ms)
    return;
  evaluated_once_ = true;
  last_eval_ms_ = sim_ms;
  evaluate(sim_ms);
  publish(Registry::global());
}

void HealthMonitor::evaluate(std::uint64_t sim_ms) {
  windows_.roll_to(sim_ms);
  for (const std::uint32_t shard : windows_.shards()) {
    for (const HealthRule& rule : rules_) {
      const std::uint64_t count = windows_.window_count(shard, rule.kind);
      if (count == 0) continue;
      const double baseline = windows_.ewma(shard, rule.kind);
      const char* fired = nullptr;
      if (rule.threshold > 0 && count >= rule.threshold) {
        fired = "threshold";
      } else if (rule.ewma_factor > 0 && count >= rule.min_count &&
                 static_cast<double>(count) >
                     rule.ewma_factor * baseline *
                         static_cast<double>(windows_.options().buckets)) {
        fired = "ewma";
      }
      if (fired == nullptr) continue;
      const auto key =
          std::make_pair(shard, static_cast<std::uint8_t>(rule.kind));
      const auto cd = cooldown_until_.find(key);
      if (cd != cooldown_until_.end() && sim_ms < cd->second) continue;
      cooldown_until_[key] = sim_ms + options_.cooldown_ms;
      ++counts_.alerts;
      ++alerts_by_shard_[shard];
      if (alerts_.size() < options_.alert_log_cap)
        alerts_.push_back(HealthAlert{shard, rule.kind, sim_ms, count,
                                      baseline, fired, rule.label});
      else
        ++counts_.alerts_dropped;
      // The alert rides the event stream itself: origin names the shard,
      // detail the underlying kind. Drained to the trace like any event.
      sec_emit_for_shard(SecEventKind::kHealthAlert, shard, sim_ms, shard,
                         static_cast<std::uint64_t>(rule.kind));
    }
  }
}

HealthSnapshot HealthMonitor::snapshot(std::uint32_t shard) const {
  HealthSnapshot snap;
  snap.shard = shard;
  const auto it = alerts_by_shard_.find(shard);
  snap.alerts = it == alerts_by_shard_.end() ? 0 : it->second;
  for (std::size_t k = 0; k < kSecEventKindCount; ++k)
    snap.window_counts[k] =
        windows_.window_count(shard, static_cast<SecEventKind>(k));
  return snap;
}

void HealthMonitor::publish(Registry& registry) const {
  absorb(counts_, registry);
  for (const std::uint32_t shard : windows_.shards()) {
    const std::string prefix = "health.s" + std::to_string(shard) + ".";
    const auto it = alerts_by_shard_.find(shard);
    registry.gauge(prefix + "alerts")
        .set(static_cast<std::int64_t>(
            it == alerts_by_shard_.end() ? 0 : it->second));
    for (const HealthRule& rule : rules_)
      registry.gauge(prefix + sec_event_name(rule.kind) + ".window")
          .set(static_cast<std::int64_t>(
              windows_.window_count(shard, rule.kind)));
  }
}

std::string HealthMonitor::summary_json() const {
  std::string out = "{\"schema\": \"peace.health.v1\"";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ", \"window_ms\": %llu, \"eval_every_ms\": %llu, "
                "\"cooldown_ms\": %llu, \"events_ingested\": %llu, "
                "\"alerts\": %llu, \"alerts_dropped\": %llu",
                static_cast<unsigned long long>(windows_.window_ms()),
                static_cast<unsigned long long>(options_.eval_every_ms),
                static_cast<unsigned long long>(options_.cooldown_ms),
                static_cast<unsigned long long>(counts_.events_ingested),
                static_cast<unsigned long long>(counts_.alerts),
                static_cast<unsigned long long>(counts_.alerts_dropped));
  out += buf;
  out += ", \"shards\": [";
  bool first_shard = true;
  for (const std::uint32_t shard : windows_.shards()) {
    const HealthSnapshot snap = snapshot(shard);
    if (!first_shard) out += ", ";
    first_shard = false;
    std::snprintf(buf, sizeof(buf), "{\"shard\": %u, \"alerts\": %llu",
                  shard, static_cast<unsigned long long>(snap.alerts));
    out += buf;
    out += ", \"window\": {";
    bool first_kind = true;
    for (std::size_t k = 0; k < kSecEventKindCount; ++k) {
      if (snap.window_counts[k] == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu",
                    first_kind ? "" : ", ",
                    sec_event_name(static_cast<SecEventKind>(k)),
                    static_cast<unsigned long long>(snap.window_counts[k]));
      out += buf;
      first_kind = false;
    }
    out += "}}";
  }
  out += "], \"alert_log\": [";
  for (std::size_t i = 0; i < alerts_.size(); ++i) {
    const HealthAlert& a = alerts_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"sim_ms\": %llu, \"shard\": %u, \"kind\": \"%s\", "
                  "\"rule\": \"%s\", \"label\": \"%s\", "
                  "\"window_count\": %llu, \"ewma\": %.3f}",
                  i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(a.sim_ms), a.shard,
                  sec_event_name(a.kind), a.rule, a.label,
                  static_cast<unsigned long long>(a.window_count), a.ewma);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace peace::obs
