#include "peace/persist/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/serde.hpp"
#include "crypto/sha256.hpp"

namespace peace::persist {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 3; i >= 0; --i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 7; i >= 0; --i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} << 24 | std::uint32_t{p[1]} << 16 |
         std::uint32_t{p[2]} << 8 | std::uint32_t{p[3]};
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return std::uint64_t{get_u32(p)} << 32 | get_u32(p + 4);
}

Bytes read_whole_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw Error("persist: cannot open " + path);
  Bytes data;
  std::uint8_t buf[1 << 16];
  ssize_t n;
  while ((n = ::read(fd, buf, sizeof buf)) > 0)
    data.insert(data.end(), buf, buf + n);
  const int err = n < 0 ? errno : 0;
  ::close(fd);
  if (err != 0) throw Error("persist: read failed for " + path);
  return data;
}

void write_all(int fd, BytesView data, const std::string& path) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw Error("persist: write failed for " + path);
    }
    done += static_cast<std::size_t>(n);
  }
}

/// Parses one frame at `off`; on success fills `rec`/`frame_len`, else
/// reports why. Does not check the chain (the caller owns the running
/// chain value).
WalDamage parse_frame(BytesView data, std::size_t off, WalRecord& rec,
                      std::size_t& frame_len) {
  constexpr std::size_t kFixed = 4 + 8 + 1 + 4;  // magic..len
  if (data.size() - off < kFixed) return WalDamage::kTruncated;
  const std::uint8_t* p = data.data() + off;
  if (get_u32(p) != WalSegment::kRecordMagic) return WalDamage::kBadMagic;
  const std::uint64_t seq = get_u64(p + 4);
  const std::uint8_t type = p[12];
  const std::uint32_t len = get_u32(p + 13);
  // 32-byte chain + 4-byte crc after the payload.
  if (data.size() - off - kFixed < static_cast<std::size_t>(len) + 36)
    return WalDamage::kTruncated;
  frame_len = kFixed + len + 36;
  const std::uint32_t stored_crc = get_u32(p + kFixed + len + 32);
  if (crc32({p, kFixed + len + 32}) != stored_crc) return WalDamage::kBadCrc;
  rec.seq = seq;
  rec.type = type;
  rec.payload.assign(p + kFixed, p + kFixed + len);
  return WalDamage::kNone;
}

struct HeaderInfo {
  std::uint64_t base_seq = 0;
  Bytes base_chain;
};

HeaderInfo parse_header(BytesView data, const std::string& path) {
  if (data.size() < WalSegment::kHeaderSize)
    throw Error("persist: short wal header in " + path);
  if (get_u32(data.data()) != WalSegment::kHeaderMagic)
    throw Error("persist: bad wal magic in " + path);
  if (data[4] != WalSegment::kVersion)
    throw Error("persist: unsupported wal version in " + path);
  if (crc32(data.first(WalSegment::kHeaderSize - 4)) !=
      get_u32(data.data() + WalSegment::kHeaderSize - 4))
    throw Error("persist: wal header crc mismatch in " + path);
  HeaderInfo h;
  h.base_seq = get_u64(data.data() + 5);
  h.base_chain.assign(data.begin() + 13, data.begin() + 45);
  return h;
}

WalScanResult scan_bytes(
    BytesView data, const HeaderInfo& header,
    const std::function<void(const WalRecord&, std::uint64_t)>& on_record) {
  WalScanResult scan;
  scan.base_seq = header.base_seq;
  scan.base_chain = header.base_chain;
  scan.last_seq = header.base_seq;
  scan.last_chain = header.base_chain;
  scan.good_bytes = WalSegment::kHeaderSize;
  std::size_t off = WalSegment::kHeaderSize;
  while (off < data.size()) {
    WalRecord rec;
    std::size_t frame_len = 0;
    const WalDamage d = parse_frame(data, off, rec, frame_len);
    if (d != WalDamage::kNone) {
      scan.damage = d;
      break;
    }
    if (rec.seq != scan.last_seq + 1) {
      scan.damage = WalDamage::kBadSeq;
      break;
    }
    const Bytes chain =
        chain_next(scan.last_chain, rec.seq, rec.type, rec.payload);
    // The stored chain sits right after the payload.
    const std::uint8_t* stored = data.data() + off + 17 + rec.payload.size();
    if (!std::equal(chain.begin(), chain.end(), stored)) {
      scan.damage = WalDamage::kBadChain;
      break;
    }
    if (on_record) on_record(rec, off);
    ++scan.records;
    scan.last_seq = rec.seq;
    scan.last_chain = chain;
    off += frame_len;
    scan.good_bytes = off;
  }
  scan.dropped_bytes = data.size() - scan.good_bytes;
  return scan;
}

}  // namespace

std::uint32_t crc32(BytesView data, std::uint32_t crc) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  crc = ~crc;
  for (const std::uint8_t b : data) crc = table[(crc ^ b) & 0xFF] ^ (crc >> 8);
  return ~crc;
}

Bytes genesis_chain() {
  return crypto::Sha256::hash(as_bytes("peace/wal-genesis"));
}

Bytes chain_next(BytesView prev_chain, std::uint64_t seq, std::uint8_t type,
                 BytesView payload) {
  Bytes buf;
  buf.reserve(prev_chain.size() + 13 + payload.size());
  buf.assign(prev_chain.begin(), prev_chain.end());
  put_u64(buf, seq);
  buf.push_back(type);
  put_u32(buf, static_cast<std::uint32_t>(payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());
  return crypto::Sha256::hash(buf);
}

const char* wal_damage_name(WalDamage d) {
  switch (d) {
    case WalDamage::kNone: return "none";
    case WalDamage::kTruncated: return "truncated";
    case WalDamage::kBadMagic: return "bad_magic";
    case WalDamage::kBadCrc: return "bad_crc";
    case WalDamage::kBadSeq: return "bad_seq";
    case WalDamage::kBadChain: return "bad_chain";
  }
  return "unknown";
}

WalSegment::WalSegment(WalSegment&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)),
      path_(std::move(o.path_)),
      base_seq_(o.base_seq_),
      last_seq_(o.last_seq_),
      chain_(std::move(o.chain_)) {}

WalSegment& WalSegment::operator=(WalSegment&& o) noexcept {
  if (this != &o) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(o.fd_, -1);
    path_ = std::move(o.path_);
    base_seq_ = o.base_seq_;
    last_seq_ = o.last_seq_;
    chain_ = std::move(o.chain_);
  }
  return *this;
}

WalSegment::~WalSegment() {
  if (fd_ >= 0) ::close(fd_);
}

WalSegment WalSegment::create(const std::string& path, std::uint64_t base_seq,
                              BytesView base_chain) {
  if (base_chain.size() != 32) throw Error("persist: bad base chain length");
  const int fd =
      ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
  if (fd < 0) throw Error("persist: cannot create " + path);
  Bytes header;
  put_u32(header, kHeaderMagic);
  header.push_back(kVersion);
  put_u64(header, base_seq);
  header.insert(header.end(), base_chain.begin(), base_chain.end());
  put_u32(header, crc32(header));
  write_all(fd, header, path);
  WalSegment w;
  w.fd_ = fd;
  w.path_ = path;
  w.base_seq_ = w.last_seq_ = base_seq;
  w.chain_.assign(base_chain.begin(), base_chain.end());
  return w;
}

WalSegment WalSegment::open(
    const std::string& path, WalScanResult& scan,
    const std::function<void(const WalRecord&, std::uint64_t)>& on_record) {
  const Bytes data = read_whole_file(path);
  const HeaderInfo header = parse_header(data, path);
  scan = scan_bytes(data, header, on_record);
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) throw Error("persist: cannot reopen " + path);
  if (scan.dropped_bytes > 0 &&
      ::ftruncate(fd, static_cast<off_t>(scan.good_bytes)) != 0) {
    ::close(fd);
    throw Error("persist: cannot truncate damaged tail of " + path);
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    ::close(fd);
    throw Error("persist: cannot seek " + path);
  }
  WalSegment w;
  w.fd_ = fd;
  w.path_ = path;
  w.base_seq_ = header.base_seq;
  w.last_seq_ = scan.last_seq;
  w.chain_ = scan.last_chain;
  return w;
}

WalScanResult WalSegment::scan_file(
    const std::string& path,
    const std::function<void(const WalRecord&, std::uint64_t)>& on_record) {
  const Bytes data = read_whole_file(path);
  return scan_bytes(data, parse_header(data, path), on_record);
}

std::uint64_t WalSegment::append(std::uint8_t type, BytesView payload) {
  const std::uint64_t seq = last_seq_ + 1;
  const Bytes chain = chain_next(chain_, seq, type, payload);
  Bytes frame;
  frame.reserve(53 + payload.size());
  put_u32(frame, kRecordMagic);
  put_u64(frame, seq);
  frame.push_back(type);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  frame.insert(frame.end(), chain.begin(), chain.end());
  put_u32(frame, crc32(frame));
  write_all(fd_, frame, path_);
  last_seq_ = seq;
  chain_ = chain;
  return seq;
}

void WalSegment::sync() {
  if (fd_ >= 0 && ::fsync(fd_) != 0)
    throw Error("persist: fsync failed for " + path_);
}

}  // namespace peace::persist
