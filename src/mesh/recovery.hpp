// Recovery drill: the headline crash scenario of docs/ARCHITECTURE.md §8.
//
// An operator control plane runs a rolling revocation wave (enrollments,
// user-key and router revocations, and a master-key rotation in the
// middle) while mesh router segments consume its delta chain. At a
// configurable record cadence the operator "dies" — the in-memory site is
// destroyed and rebuilt from its durable log — and the routers then resync
// off the recovered delta chain. The drill checks the two properties that
// make recovery correct end-to-end:
//
//   1. No rollback: a recovered operator never publishes a list version or
//      delta the routers have already moved past (anti-rollback on the
//      receiver side would brick the segment otherwise).
//   2. Byte-identical state: the final operator state equals a reference
//      run of the same scenario that never crashed — down to the DRBG, so
//      even future randomness is unchanged.
#pragma once

#include <cstdint>
#include <string>

namespace peace::mesh {

struct RecoveryDrillConfig {
  /// Working directory; the drill creates `<dir>/live` and `<dir>/ref`.
  std::string dir;
  std::uint64_t seed = 1;
  std::size_t members = 10;        // enrollments per era
  std::size_t revocations = 6;     // rolling wave size per era
  /// Crash + recover the operator after every Nth WAL record (0 = never —
  /// that is what the reference run uses).
  std::size_t crash_every = 3;
  std::size_t router_segments = 3; // independent delta-chain receivers
  std::size_t snapshot_every = 8;  // control-plane auto-snapshot cadence
};

struct RecoveryDrillReport {
  std::uint64_t records = 0;          // WAL records the live run wrote
  std::uint64_t crashes = 0;          // operator kill+recover cycles
  std::uint64_t deltas_applied = 0;   // across all router segments
  std::uint64_t resyncs = 0;          // full-list resyncs routers needed
  std::uint64_t rollback_violations = 0;  // must stay 0
  std::uint64_t final_url_version = 0;
  bool converged = false;             // every segment reached final versions
  bool state_matches_reference = false;  // byte-identical to no-crash run
};

RecoveryDrillReport run_recovery_drill(const RecoveryDrillConfig& config);

}  // namespace peace::mesh
