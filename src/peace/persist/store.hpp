// DurableStore: a directory of WAL segments plus snapshots, managed as one
// append-only, hash-chained history (docs/ARCHITECTURE.md §8).
//
//   dir/wal-<base_seq>.wal   segments; base_seq = seq of the record *before*
//                            the segment's first (0 for the genesis segment)
//   dir/snap-<seq>.snap      full-state images cut after record <seq>
//
// A snapshot rotates the log: the active segment is closed and a new one
// anchored at (seq, chain) starts. Rotated segments are never deleted — in
// an accountability system the log IS the evidence archive (enrollment
// receipts, GRT entries, delta chains), so compaction bounds *recovery
// replay*, not disk. Recovery picks the newest intact snapshot, replays
// the chain-verified records after it, and truncates any damaged tail;
// damage confined to pre-snapshot archive segments is reported but does
// not block state recovery.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "peace/persist/snapshot.hpp"
#include "peace/persist/wal.hpp"

namespace peace::persist {

/// The persist.* registry counters (docs/OBSERVABILITY.md).
enum class Counter : std::uint8_t {
  kWalAppends,
  kWalBytes,
  kWalSyncs,
  kSnapshotsWritten,
  kSnapshotBytes,
  kControlRecoveries,
  kRecordsRecovered,
  kBytesTruncated,
  kSnapshotsDiscarded,
  kArchiveDamage,
  kCount,  // sentinel — not a counter
};

struct CounterRow {
  Counter counter;
  const char* metric;
};

/// The one definition of every persist.* counter name, in Counter order.
inline constexpr std::array<CounterRow, static_cast<std::size_t>(
                                            Counter::kCount)>
    kCounters{{
        {Counter::kWalAppends, "persist.wal_appends"},
        {Counter::kWalBytes, "persist.wal_bytes"},
        {Counter::kWalSyncs, "persist.wal_syncs"},
        {Counter::kSnapshotsWritten, "persist.snapshots_written"},
        {Counter::kSnapshotBytes, "persist.snapshot_bytes"},
        {Counter::kControlRecoveries, "persist.control_recoveries"},
        {Counter::kRecordsRecovered, "persist.records_recovered"},
        {Counter::kBytesTruncated, "persist.bytes_truncated"},
        {Counter::kSnapshotsDiscarded, "persist.snapshots_discarded"},
        {Counter::kArchiveDamage, "persist.archive_damage"},
    }};

/// Adds `n` to counter `c` in the global registry.
void count(Counter c, std::uint64_t n = 1);

struct RecoveryReport {
  std::uint64_t snapshot_seq = 0;       // seq of the snapshot restored from
  std::uint64_t snapshots_discarded = 0;  // damaged snapshots skipped
  std::uint64_t records_scanned = 0;    // intact records across all segments
  std::uint64_t tail_records = 0;       // records replayed after the snapshot
  std::uint64_t bytes_truncated = 0;    // damaged suffix dropped from the log
  std::uint64_t segments = 0;
  /// The log is damaged before the snapshot: some archived evidence is
  /// unreadable, but the recovered state is intact.
  bool archive_damage = false;
  std::string damage;           // first damage kind, "" when clean
};

struct StoreOptions {
  /// fsync after every append (write-ahead durability: a record is on disk
  /// before its effects are announced). Benches may turn this off.
  bool sync_each_append = true;
  /// Snapshot files retained per store (segments are always retained).
  std::size_t keep_snapshots = 2;
};

struct StoreRecovery;

class DurableStore {
 public:
  using Recovered = StoreRecovery;

  /// Initializes an empty directory (created if missing; must not already
  /// contain a store).
  static DurableStore create(const std::string& dir, StoreOptions opts = {});

  /// Opens an existing store: validates snapshots newest-first, scans every
  /// segment, truncates damaged tails, and returns the newest usable
  /// snapshot plus the chain-verified records after it.
  static StoreRecovery open(const std::string& dir, StoreOptions opts = {});

  DurableStore(DurableStore&&) = default;
  DurableStore& operator=(DurableStore&&) = default;

  /// Appends one record (fsynced per StoreOptions).
  void append(std::uint8_t type, BytesView payload);
  void sync();

  /// Writes a snapshot of the current position and rotates to a fresh
  /// segment. Older snapshots beyond keep_snapshots are pruned.
  void write_snapshot(BytesView payload);

  std::uint64_t last_seq() const { return active_.last_seq(); }

 private:
  DurableStore(std::string dir, StoreOptions opts, WalSegment active)
      : dir_(std::move(dir)), opts_(opts), active_(std::move(active)) {}

  static std::string segment_path(const std::string& dir,
                                  std::uint64_t base_seq);
  std::string snapshot_path(std::uint64_t seq) const;

  std::string dir_;
  StoreOptions opts_;
  WalSegment active_;
};

struct StoreRecovery {
  DurableStore store;
  Bytes snapshot;  // payload of the snapshot restored from
  std::vector<WalRecord> tail;
  RecoveryReport report;
};

}  // namespace peace::persist
