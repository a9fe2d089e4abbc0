#include "peace/persist/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace peace::persist {

namespace fs = std::filesystem;

namespace {

std::string padded(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%020llu",
                static_cast<unsigned long long>(v));
  return buf;
}

struct DirListing {
  // (base_seq, path), ascending by base_seq
  std::vector<std::pair<std::uint64_t, std::string>> segments;
  // (wal_seq, path), descending by wal_seq
  std::vector<std::pair<std::uint64_t, std::string>> snapshots;
};

std::optional<std::uint64_t> parse_numbered(const std::string& name,
                                            const char* prefix,
                                            const char* suffix) {
  const std::string pre(prefix), suf(suffix);
  if (name.size() != pre.size() + 20 + suf.size()) return std::nullopt;
  if (name.compare(0, pre.size(), pre) != 0) return std::nullopt;
  if (name.compare(name.size() - suf.size(), suf.size(), suf) != 0)
    return std::nullopt;
  std::uint64_t v = 0;
  for (std::size_t i = pre.size(); i < pre.size() + 20; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    v = v * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return v;
}

DirListing list_dir(const std::string& dir) {
  DirListing out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (auto base = parse_numbered(name, "wal-", ".wal"))
      out.segments.emplace_back(*base, entry.path().string());
    else if (auto seq = parse_numbered(name, "snap-", ".snap"))
      out.snapshots.emplace_back(*seq, entry.path().string());
  }
  std::sort(out.segments.begin(), out.segments.end());
  std::sort(out.snapshots.begin(), out.snapshots.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

/// Moves a dead-branch segment aside so a future rotation can never collide
/// with its name; the bytes stay on disk for forensics.
void orphan_segment(const std::string& path) {
  std::string target = path + ".orphan";
  for (int i = 1; fs::exists(target); ++i)
    target = path + ".orphan" + std::to_string(i);
  fs::rename(path, target);
}

constexpr bool counters_in_enum_order() {
  for (std::size_t i = 0; i < kCounters.size(); ++i)
    if (static_cast<std::size_t>(kCounters[i].counter) != i) return false;
  return true;
}
static_assert(counters_in_enum_order(),
              "kCounters rows must follow the Counter order");

}  // namespace

void count(Counter c, std::uint64_t n) {
  obs::Registry::global()
      .counter(kCounters[static_cast<std::size_t>(c)].metric)
      .add(n);
}

std::string DurableStore::segment_path(const std::string& dir,
                                       std::uint64_t base_seq) {
  return dir + "/wal-" + padded(base_seq) + ".wal";
}

std::string DurableStore::snapshot_path(std::uint64_t seq) const {
  return dir_ + "/snap-" + padded(seq) + ".snap";
}

DurableStore DurableStore::create(const std::string& dir, StoreOptions opts) {
  fs::create_directories(dir);
  const DirListing listing = list_dir(dir);
  if (!listing.segments.empty() || !listing.snapshots.empty())
    throw Error("persist: directory already contains a store: " + dir);
  WalSegment active =
      WalSegment::create(segment_path(dir, 0), 0, genesis_chain());
  return DurableStore(dir, opts, std::move(active));
}

DurableStore::Recovered DurableStore::open(const std::string& dir,
                                           StoreOptions opts) {
  obs::Span span("persist.recover", "persist");
  const DirListing listing = list_dir(dir);
  if (listing.segments.empty())
    throw Error("persist: no wal segments in " + dir);

  RecoveryReport report;
  report.segments = listing.segments.size();

  // Parse every snapshot up front (there are at most keep_snapshots + 1);
  // damaged ones are skipped, older intact ones remain candidates.
  std::vector<SnapshotData> snaps;
  for (const auto& [seq, path] : listing.snapshots) {
    if (auto s = read_snapshot_file(path)) {
      snaps.push_back(std::move(*s));
    } else {
      ++report.snapshots_discarded;
    }
  }
  const std::uint64_t min_snap_seq = snaps.empty() ? 0 : snaps.back().wal_seq;

  // Scan every segment. Each is internally verified from its own header;
  // linkage between consecutive segments is verified separately so damage
  // in an old archive segment cannot silently corrupt newer state.
  struct SegState {
    std::uint64_t base = 0;
    std::string path;
    WalScanResult scan;
    bool linked = false;  // chains from the previous segment (or genesis)
    std::vector<WalRecord> records;  // kept only for base >= min_snap_seq
  };
  std::vector<SegState> segs;
  for (const auto& [base, path] : listing.segments) {
    SegState s;
    s.base = base;
    s.path = path;
    const bool keep_payloads = base >= min_snap_seq;
    try {
      s.scan = WalSegment::scan_file(
          path, [&](const WalRecord& rec, std::uint64_t) {
            if (keep_payloads) s.records.push_back(rec);
          });
    } catch (const Error&) {
      // Unreadable header: the segment contributes nothing.
      s.scan.damage = WalDamage::kBadMagic;
      s.scan.base_seq = base;
    }
    report.records_scanned += s.scan.records;
    if (s.scan.damage != WalDamage::kNone && report.damage.empty())
      report.damage = wal_damage_name(s.scan.damage);
    segs.push_back(std::move(s));
  }
  // Linkage: segment i chains from segment i-1 iff its header anchor equals
  // the predecessor's end-of-scan position; the first segment must anchor
  // at genesis.
  for (std::size_t i = 0; i < segs.size(); ++i) {
    if (i == 0) {
      segs[i].linked = segs[i].scan.base_seq == 0 &&
                       segs[i].scan.base_chain == genesis_chain();
    } else {
      segs[i].linked = segs[i - 1].scan.damage == WalDamage::kNone &&
                       segs[i].scan.base_seq == segs[i - 1].scan.last_seq &&
                       segs[i].scan.base_chain == segs[i - 1].scan.last_chain;
    }
  }

  // Choose the newest snapshot that anchors into the scanned history:
  // either a segment rotation begins exactly at its (seq, chain), or it was
  // cut at the very end of a segment (crash between snapshot and rotation).
  const SnapshotData* chosen = nullptr;
  std::size_t anchor_idx = 0;  // segment the replay starts in
  bool anchor_at_end = false;
  for (const SnapshotData& s : snaps) {
    bool found = false;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      if (segs[i].scan.base_seq == s.wal_seq &&
          segs[i].scan.base_chain == s.wal_chain) {
        chosen = &s;
        anchor_idx = i;
        anchor_at_end = false;
        found = true;
        break;
      }
      if (segs[i].scan.damage == WalDamage::kNone &&
          segs[i].scan.last_seq == s.wal_seq &&
          segs[i].scan.last_chain == s.wal_chain) {
        chosen = &s;
        anchor_idx = i;
        anchor_at_end = true;
        found = true;
        break;
      }
    }
    if (found) break;
    ++report.snapshots_discarded;
  }

  Bytes snapshot_payload;
  std::uint64_t snapshot_seq = 0;
  if (chosen != nullptr) {
    snapshot_payload = chosen->payload;
    snapshot_seq = chosen->wal_seq;
  } else if (snaps.empty() && segs[0].linked) {
    // No intact snapshot file at all: implicit empty state at genesis
    // (bare stores and unit tests; ControlPlane always writes a genesis
    // snapshot at create).
    anchor_idx = 0;
  } else {
    // Snapshots exist but none anchors into the scanned history (or the
    // genesis segment is gone): refusing is the only safe move — guessing
    // would surface partial or forked state.
    throw Error("persist: no usable snapshot or genesis segment in " + dir);
  }
  report.snapshot_seq = snapshot_seq;

  // Walk forward from the anchor while segments stay linked; collect the
  // replay tail and find the segment that becomes the active one.
  std::vector<WalRecord> tail;
  std::size_t active_idx = anchor_idx;
  for (std::size_t i = anchor_idx; i < segs.size(); ++i) {
    if (i > anchor_idx && !segs[i].linked) break;
    active_idx = i;
    for (const WalRecord& rec : segs[i].records)
      if (rec.seq > snapshot_seq) tail.push_back(rec);
    if (segs[i].scan.damage != WalDamage::kNone) break;  // truncated tail
  }

  // Damage before the replay region is archive damage: evidence records in
  // that area are unreadable, but recovered state is unaffected.
  for (std::size_t i = 0; i < active_idx; ++i) {
    if (segs[i].scan.damage != WalDamage::kNone || !segs[i].linked)
      report.archive_damage = true;
  }

  // Orphan dead-branch segments past the active one so future rotations
  // cannot collide with their names.
  for (std::size_t i = active_idx + 1; i < segs.size(); ++i) {
    orphan_segment(segs[i].path);
    report.bytes_truncated +=
        segs[i].scan.good_bytes + segs[i].scan.dropped_bytes;
    report.archive_damage = true;
  }
  if (segs.size() > active_idx + 1 && report.damage.empty())
    report.damage = "segment_chain_break";

  // Re-open the active segment for appending (this truncates its damaged
  // tail, if any). A snapshot cut at the end of the active segment means the
  // crash came before its rotated segment existed: finish the rotation, so
  // new records land past the snapshot's anchor and it still anchors on the
  // next open.
  WalScanResult active_scan;
  WalSegment active =
      anchor_at_end && active_idx == anchor_idx
          ? WalSegment::create(segment_path(dir, snapshot_seq), snapshot_seq,
                               chosen->wal_chain)
          : WalSegment::open(segs[active_idx].path, active_scan);
  report.bytes_truncated += active_scan.dropped_bytes;

  report.tail_records = tail.size();
  span.arg("snapshot_seq", snapshot_seq);
  span.arg("tail_records", report.tail_records);
  span.arg("bytes_truncated", report.bytes_truncated);
  count(Counter::kRecordsRecovered, report.tail_records);
  count(Counter::kBytesTruncated, report.bytes_truncated);
  count(Counter::kSnapshotsDiscarded, report.snapshots_discarded);
  if (report.archive_damage) count(Counter::kArchiveDamage);

  DurableStore store(dir, opts, std::move(active));
  return Recovered{std::move(store), std::move(snapshot_payload),
                   std::move(tail), std::move(report)};
}

void DurableStore::append(std::uint8_t type, BytesView payload) {
  active_.append(type, payload);
  if (opts_.sync_each_append) sync();
  count(Counter::kWalAppends);
  count(Counter::kWalBytes, payload.size() + 53);
}

void DurableStore::sync() {
  active_.sync();
  count(Counter::kWalSyncs);
}

void DurableStore::write_snapshot(BytesView payload) {
  obs::Span span("persist.snapshot", "persist");
  // Make every record the snapshot covers durable before the snapshot
  // itself can claim to cover it.
  sync();
  const std::uint64_t seq = active_.last_seq();
  const Bytes chain = active_.chain();
  write_snapshot_file(snapshot_path(seq), seq, chain, payload);
  // Rotate: subsequent records land in a fresh segment anchored at the
  // cut. An empty active segment is already that segment (e.g. the genesis
  // snapshot, or back-to-back snapshots) — rotating would collide with its
  // own file name.
  if (seq != active_.base_seq())
    active_ = WalSegment::create(segment_path(dir_, seq), seq, chain);
  span.arg("seq", seq);
  span.arg("bytes", payload.size());
  count(Counter::kSnapshotsWritten);
  count(Counter::kSnapshotBytes, payload.size());
  // Prune old snapshot files (segments are the permanent archive).
  DirListing listing = list_dir(dir_);
  for (std::size_t i = opts_.keep_snapshots; i < listing.snapshots.size(); ++i)
    fs::remove(listing.snapshots[i].second);
}

}  // namespace peace::persist
