// Append-only, hash-chained, CRC-framed write-ahead log segment — the
// durable substrate of the operator control plane (docs/ARCHITECTURE.md §8).
//
// A segment file is a fixed header followed by framed records:
//
//   header:  magic 'PWAL' | u8 version | u64 base_seq | base_chain[32] | crc32
//   record:  magic 'PREC' | u64 seq | u8 type | u32 len | payload
//            | chain[32] | crc32
//
// All integers big-endian; crc32 is the IEEE/zlib polynomial over every
// preceding byte of the frame. The chain field is
//
//   chain_i = SHA-256(chain_{i-1} || be64(seq) || u8(type) || be32(len)
//                     || payload)
//
// with chain_{base_seq} given by the header (the genesis chain for the
// first segment, the snapshot cut for rotated ones). A record is accepted
// only if its magic, CRC, seq (= predecessor + 1) and chain all check out —
// so a truncated tail, a flipped bit, a forked rewrite of history, or a
// duplicated splice each invalidate the frame where the damage starts and
// everything after it. Recovery truncates to the last good record and
// reports what it dropped; it never surfaces partial state.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace peace::persist {

/// CRC-32 (reflected, polynomial 0xEDB88320 — bit-compatible with
/// Python's zlib.crc32, which tools/log_inspect.py uses).
std::uint32_t crc32(BytesView data, std::uint32_t crc = 0);

/// chain_{base} of the very first segment of a store.
Bytes genesis_chain();

/// Advances the hash chain over one record.
Bytes chain_next(BytesView prev_chain, std::uint64_t seq, std::uint8_t type,
                 BytesView payload);

struct WalRecord {
  std::uint64_t seq = 0;
  std::uint8_t type = 0;
  Bytes payload;
};

/// Why a segment scan stopped before end-of-file.
enum class WalDamage {
  kNone,         // clean end of file
  kTruncated,    // partial frame at the tail (torn write)
  kBadMagic,     // frame marker gone
  kBadCrc,       // checksum mismatch (bit rot / corruption)
  kBadSeq,       // sequence break (spliced or duplicated frames)
  kBadChain,     // hash chain mismatch (forked history)
};

const char* wal_damage_name(WalDamage d);

struct WalScanResult {
  std::uint64_t base_seq = 0;       // header anchor: seq before the first record
  Bytes base_chain;                 // header anchor: chain at base_seq
  std::uint64_t records = 0;        // intact records seen
  std::uint64_t last_seq = 0;       // seq of the last intact record
  Bytes last_chain;                 // chain value after the last record
  std::uint64_t good_bytes = 0;     // file prefix covered by intact frames
  std::uint64_t dropped_bytes = 0;  // damaged suffix length
  WalDamage damage = WalDamage::kNone;
};

/// One segment file. The writer keeps the fd open and appends framed
/// records; open() scans an existing file, truncating any damaged tail.
class WalSegment {
 public:
  static constexpr std::uint32_t kHeaderMagic = 0x5057414Cu;  // 'PWAL'
  static constexpr std::uint32_t kRecordMagic = 0x50524543u;  // 'PREC'
  static constexpr std::uint8_t kVersion = 1;
  static constexpr std::size_t kHeaderSize = 4 + 1 + 8 + 32 + 4;

  WalSegment(const WalSegment&) = delete;
  WalSegment& operator=(const WalSegment&) = delete;
  WalSegment(WalSegment&& o) noexcept;
  WalSegment& operator=(WalSegment&& o) noexcept;
  ~WalSegment();

  /// Creates a fresh segment anchored at (base_seq, base_chain).
  static WalSegment create(const std::string& path, std::uint64_t base_seq,
                           BytesView base_chain);

  /// Opens an existing segment for appending: validates the header, scans
  /// every record (invoking `on_record` with the record and its file
  /// offset), and truncates the file after the last intact record. Throws
  /// Error on an unreadable or header-corrupt file — the store treats that
  /// segment as unusable rather than guessing.
  static WalSegment open(
      const std::string& path, WalScanResult& scan,
      const std::function<void(const WalRecord&, std::uint64_t offset)>&
          on_record = {});

  /// Read-only scan that never mutates the file (archive segments).
  static WalScanResult scan_file(
      const std::string& path,
      const std::function<void(const WalRecord&, std::uint64_t offset)>&
          on_record = {});

  /// Appends one record; returns its seq. The frame is written with a
  /// single write(2); sync() makes it durable.
  std::uint64_t append(std::uint8_t type, BytesView payload);
  void sync();

  std::uint64_t base_seq() const { return base_seq_; }
  std::uint64_t last_seq() const { return last_seq_; }
  const Bytes& chain() const { return chain_; }
  const std::string& path() const { return path_; }

 private:
  WalSegment() = default;

  int fd_ = -1;
  std::string path_;
  std::uint64_t base_seq_ = 0;
  std::uint64_t last_seq_ = 0;
  Bytes chain_;
};

}  // namespace peace::persist
