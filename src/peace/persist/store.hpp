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
// replay* and *memory*, not disk. Recovery picks the newest intact
// snapshot, replays the chain-verified records after it, and truncates any
// damaged tail; damage confined to pre-snapshot archive segments is
// reported but does not block state recovery.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "peace/persist/snapshot.hpp"
#include "peace/persist/wal.hpp"

namespace peace::persist {

/// Durable location of a record — stable across restarts, used by the
/// spill/audit index to stream archived records back from disk.
struct RecordRef {
  std::uint64_t seq = 0;
  std::uint64_t segment_base = 0;  // segment file identity
  std::uint64_t offset = 0;        // frame offset within the segment
  std::uint8_t type = 0;

  static void fields(auto& io, auto& s) {
    io(s.seq, s.segment_base, s.offset, s.type);
  }
};

struct RecoveryReport {
  std::uint64_t snapshot_seq = 0;       // seq of the snapshot restored from
  std::uint64_t snapshots_discarded = 0;  // damaged snapshots skipped
  std::uint64_t records_scanned = 0;    // intact records across all segments
  std::uint64_t tail_records = 0;       // records replayed after the snapshot
  std::uint64_t bytes_truncated = 0;    // damaged suffix dropped from the log
  std::uint64_t segments = 0;
  bool archive_damage = false;  // damage before the snapshot (state intact)
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
  /// segment (rebuild hook `on_record` sees each intact record with its
  /// ref), truncates damaged tails, and returns the newest usable snapshot
  /// plus the chain-verified records after it.
  static StoreRecovery open(
      const std::string& dir, StoreOptions opts = {},
      const std::function<void(const RecordRef&, const WalRecord&)>&
          on_record = {});

  DurableStore(DurableStore&&) = default;
  DurableStore& operator=(DurableStore&&) = default;

  /// Appends one record (fsynced per StoreOptions); returns its ref.
  RecordRef append(std::uint8_t type, BytesView payload);
  void sync();

  /// Writes a snapshot of the current position and rotates to a fresh
  /// segment. Older snapshots beyond keep_snapshots are pruned.
  void write_snapshot(BytesView payload);

  /// Validated random-access read (spill path). Nullopt if the record's
  /// segment or frame is damaged or the ref is unknown.
  std::optional<WalRecord> read(const RecordRef& ref) const;

  std::uint64_t last_seq() const { return active_.last_seq(); }
  std::uint64_t last_snapshot_seq() const { return last_snapshot_seq_; }
  const Bytes& chain() const { return active_.chain(); }
  const std::string& dir() const { return dir_; }

 private:
  DurableStore(std::string dir, StoreOptions opts, WalSegment active)
      : dir_(std::move(dir)), opts_(opts), active_(std::move(active)) {}

  std::string segment_path(std::uint64_t base_seq) const;
  std::string snapshot_path(std::uint64_t seq) const;

  std::string dir_;
  StoreOptions opts_;
  WalSegment active_;
  std::uint64_t last_snapshot_seq_ = 0;
};

/// A replay-tail record together with its durable location (the ref feeds
/// the spill/audit index rebuild).
struct TailRecord {
  RecordRef ref;
  WalRecord record;
};

struct StoreRecovery {
  DurableStore store;
  Bytes snapshot;  // payload of the snapshot restored from
  std::vector<TailRecord> tail;
  RecoveryReport report;
};

}  // namespace peace::persist
