#include "layers.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace perfbench {

namespace {

// Every per-layer metric the traced run prints, with its unit. The list in
// BENCHMARK.json must match it (run.py --self-check verifies that).
constexpr std::pair<const char*, const char*> kLayerTable[] = {
    // End-to-end latencies, from the traced run's untraced pass. There is no
    // revoke_p90_ms: a run makes too few revocations for a p90.
    {"connect_p50_ms", "ms"},
    {"connect_p90_ms", "ms"},
    {"batch_p50_ms", "ms"},
    {"batch_p90_ms", "ms"},
    {"revoke_p50_ms", "ms"},
    // peace/user, peace/router, peace/session: timed calls.
    {"user.process_beacon_ms", "ms"},
    {"user.confirm_ms", "ms"},
    {"router.make_beacon_ms", "ms"},
    {"router.access_request_ms", "ms"},
    {"session.frame_us", "us"},
    {"router.batch_per_request_ms", "ms"},
    {"router.forged_batch_cost_ratio", "ratio"},
    // peace/verify_pool.
    {"verify_pool.speedup", "ratio"},
    // peace/revoke, peace/persist.
    {"router.rl_announce_ms", "ms"},
    {"persist.revoke_ms", "ms"},
    {"persist.wal_bytes_per_revoke", "bytes"},
    {"persist.wal_syncs_per_revoke", "count"},
    {"scan.tokens_per_check", "count"},
    // groupsig and curve op counts per access request.
    {"groupsig.pairings_per_request", "count"},
    {"groupsig.exps_per_request", "count"},
    {"curve.miller_loops_per_request", "count"},
    {"curve.final_exps_per_request", "count"},
    {"curve.msm_terms_per_request", "count"},
    {"curve.g2_prepared_builds_per_request", "count"},
    {"curve.fp12_inverses_per_request", "count"},
    {"curve.field_inversions_per_request", "count"},
    // Unit costs on the workload's own inputs.
    {"groupsig.sign_ms", "ms"},
    {"groupsig.verify_ms", "ms"},
    {"groupsig.batch_per_sig_ms", "ms"},
    {"groupsig.scan_per_token_ms", "ms"},
    {"curve.pairing_ms", "ms"},
    {"curve.miller_loop_ms", "ms"},
    {"curve.final_exp_ms", "ms"},
    {"curve.g1_mul_us", "us"},
    {"curve.g2_mul_us", "us"},
    {"curve.ecdsa_sign_us", "us"},
    {"curve.ecdsa_verify_us", "us"},
    {"math.fp_mul_ns", "ns"},
    {"math.fp12_mul_ns", "ns"},
    {"math.fp12_square_ns", "ns"},
    {"math.fp_inverse_ns", "ns"},
    // mesh and the metro driver.
    {"metro.barriers", "count"},
    {"metro.msgs_routed", "count"},
    {"sim.events", "count"},
    {"mesh.retransmissions", "count"},
    {"mesh.handshake_timeouts", "count"},
    {"metro.cohort_connected_ratio", "ratio"},
    {"metro.m2_build_ms", "ms"},
    {"metro.m2_batch_per_request_ms", "ms"},
    {"metro.unattributed_pct", "%"},
    // obs and the host.
    {"obs.trace_overhead_pct", "%"},
    {"host.calib_ms", "ms"},
    {"host.calib_end_ms", "ms"},
    {"host.peak_rss_mb", "MB"},
};

}  // namespace

Layers::Layers() {
  for (const auto& [name, unit] : kLayerTable) rows_.push_back({name, unit, 0});
}

void Layers::set(const std::string& name, double value) {
  for (Row& r : rows_)
    if (r.name == name) {
      r.value = value;
      return;
    }
  throw std::logic_error("perfbench: unknown per-layer metric " + name);
}

bool Layers::has(const std::string& name) const {
  for (const Row& r : rows_)
    if (r.name == name) return true;
  return false;
}

void Layers::add_to(Report& report) const {
  for (const Row& r : rows_) report.add(r.name, r.value, r.unit);
}

std::uint64_t registry_counter(const std::string& name) {
  return peace::obs::Registry::global().counter(name).value();
}

OpSnapshot OpSnapshot::take() {
  OpSnapshot s;
  for (std::size_t i = 0; i < kNames.size(); ++i)
    s.v[i] = registry_counter(std::string("curve.") + kNames[i]);
  return s;
}

void OpSnapshot::skip(const OpSnapshot& from, const OpSnapshot& to) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] += to.v[i] - from.v[i];
}

void per_request_ops(const peace::groupsig::OpCounters& verify_after,
                     const peace::groupsig::OpCounters& verify_before,
                     const OpSnapshot& curve_before, std::uint64_t requests,
                     OpCounts& counts) {
  const double n = requests > 0 ? static_cast<double>(requests) : 1.0;
  counts.pairings =
      static_cast<double>(verify_after.pairings - verify_before.pairings) / n;
  counts.exps = static_cast<double>(verify_after.total_exp() -
                                    verify_before.total_exp()) /
                n;
  const OpSnapshot now = OpSnapshot::take();
  for (std::size_t i = 0; i < now.v.size(); ++i)
    counts.curve[i] = static_cast<double>(now.v[i] - curve_before.v[i]) / n;
}

void OpCounts::add_to(Layers& out) const {
  out.set("groupsig.pairings_per_request", pairings);
  out.set("groupsig.exps_per_request", exps);
  for (std::size_t i = 0; i < curve.size(); ++i)
    out.set(std::string("curve.") + OpSnapshot::kNames[i] + "_per_request",
            curve[i]);
}

}  // namespace perfbench
