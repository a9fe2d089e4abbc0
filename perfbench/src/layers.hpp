// Op-count deltas per access request, from the router's groupsig counters
// and the process-wide curve.* registry counters.
#pragma once

#include <array>

#include "groupsig/groupsig.hpp"
#include "workload.hpp"

namespace perfbench {

/// The curve.* registry counters at one instant.
struct OpSnapshot {
  static constexpr std::array<const char*, 6> kNames = {
      "miller_loops",       "final_exps",    "msm_terms",
      "g2_prepared_builds", "fp12_inverses", "field_inversions"};
  std::array<std::uint64_t, kNames.size()> v{};
  static OpSnapshot take();
  /// Leaves the counts made between `from` and `to` out of every later
  /// delta against this snapshot.
  void skip(const OpSnapshot& from, const OpSnapshot& to);
};

/// Per-request operation counts of one pass.
struct OpCounts {
  double pairings = 0;
  double exps = 0;
  std::array<double, OpSnapshot::kNames.size()> curve{};
  void add_to(Layers& out) const;
};

/// Fills `counts` with (after - before) / requests for the router's
/// verification counters and the curve registry counters.
void per_request_ops(const peace::groupsig::OpCounters& verify_after,
                     const peace::groupsig::OpCounters& verify_before,
                     const OpSnapshot& curve_before, std::uint64_t requests,
                     OpCounts& counts);

/// Registry counter value by name (0 when never registered).
std::uint64_t registry_counter(const std::string& name);

}  // namespace perfbench
