// Pooled allocation for in-flight simulation frames. At metro scale
// (10^5–10^6 users) the naive pattern — a fresh heap Bytes per frame per
// hop — dominates the event loop with allocator traffic and leaves memory
// unbounded under a flash crowd. FrameArena recycles frame buffers through
// a freelist (capacity-preserving, so steady state performs zero heap
// allocation) and enforces a hard cap on frames outstanding at once: when
// the cap is hit, acquire() refuses and the caller sheds load (counted,
// never queued), which is what keeps per-shard memory bounded however many
// users pile into one segment.
//
// Not thread-safe by design: each shard owns one arena and touches it only
// from its own event loop (docs/ARCHITECTURE.md §7 ownership rules).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "obs/fields.hpp"

namespace peace::mesh {

class FrameArena;

/// Move-only handle to a pooled buffer; returns it to the arena's freelist
/// on destruction. The buffer keeps its heap capacity across reuse cycles.
class PooledFrame {
 public:
  PooledFrame() = default;
  PooledFrame(PooledFrame&& o) noexcept { *this = std::move(o); }
  PooledFrame& operator=(PooledFrame&& o) noexcept;
  PooledFrame(const PooledFrame&) = delete;
  PooledFrame& operator=(const PooledFrame&) = delete;
  ~PooledFrame() { release(); }

  bool valid() const { return arena_ != nullptr; }
  Bytes& bytes() { return buf_; }
  const Bytes& bytes() const { return buf_; }
  /// Early return to the pool (idempotent).
  void release();

 private:
  friend class FrameArena;
  PooledFrame(FrameArena* arena, Bytes buf)
      : arena_(arena), buf_(std::move(buf)) {}

  FrameArena* arena_ = nullptr;
  Bytes buf_;
};

struct FrameArenaStats {
  std::uint64_t acquired = 0;        // successful acquire() calls
  std::uint64_t reused = 0;          // served from the freelist
  std::uint64_t allocated = 0;       // served by a fresh heap allocation
  std::uint64_t cap_rejections = 0;  // refused at the outstanding cap
};

/// The registry counter each field is exported as (obs/fields.hpp).
constexpr auto field_table(const FrameArenaStats*) {
  return std::to_array<obs::Field<FrameArenaStats>>({
      {&FrameArenaStats::acquired, "metro.arena.acquired"},
      {&FrameArenaStats::reused, "metro.arena.reused"},
      {&FrameArenaStats::allocated, "metro.arena.allocated"},
      {&FrameArenaStats::cap_rejections, "metro.arena.cap_rejections"},
  });
}

class FrameArena {
 public:
  /// `cap` bounds frames outstanding at once (0 = unbounded — tests only;
  /// every shard configures a real cap). `max_pooled_capacity` bounds the
  /// buffer capacity the freelist retains — a rare jumbo frame is freed on
  /// release instead of pinning its allocation forever.
  explicit FrameArena(std::size_t cap = 0,
                      std::size_t max_pooled_capacity = 64 * 1024)
      : cap_(cap), max_pooled_capacity_(max_pooled_capacity) {}
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena();

  /// A zero-sized frame with at least `reserve` capacity, or nullopt when
  /// the outstanding cap is reached (the caller drops the frame and counts
  /// the shed — bounded memory beats unbounded queues at metro scale).
  std::optional<PooledFrame> acquire(std::size_t reserve = 0);
  /// acquire() + copy of `payload` into the frame.
  std::optional<PooledFrame> acquire_copy(BytesView payload);

  std::size_t cap() const { return cap_; }
  /// Live PooledFrames right now.
  std::size_t outstanding() const { return outstanding_; }
  const FrameArenaStats& stats() const { return stats_; }

 private:
  friend class PooledFrame;
  void give_back(Bytes buf);

  std::size_t cap_;
  std::size_t max_pooled_capacity_;
  std::vector<Bytes> free_;
  std::size_t outstanding_ = 0;
  FrameArenaStats stats_;
};

}  // namespace peace::mesh
