#include "mesh/arena.hpp"

namespace peace::mesh {

PooledFrame& PooledFrame::operator=(PooledFrame&& o) noexcept {
  if (this != &o) {
    release();
    arena_ = o.arena_;
    buf_ = std::move(o.buf_);
    o.arena_ = nullptr;
    o.buf_.clear();
  }
  return *this;
}

void PooledFrame::release() {
  if (arena_ == nullptr) return;
  FrameArena* arena = arena_;
  arena_ = nullptr;
  arena->give_back(std::move(buf_));
  buf_ = Bytes{};
}

FrameArena::~FrameArena() = default;

std::optional<PooledFrame> FrameArena::acquire(std::size_t reserve) {
  if (cap_ != 0 && outstanding_ >= cap_) {
    ++stats_.cap_rejections;
    return std::nullopt;
  }
  Bytes buf;
  if (!free_.empty()) {
    buf = std::move(free_.back());
    free_.pop_back();
    ++stats_.reused;
  } else {
    ++stats_.allocated;
  }
  buf.clear();
  if (reserve > 0) buf.reserve(reserve);
  ++stats_.acquired;
  ++outstanding_;
  return PooledFrame(this, std::move(buf));
}

std::optional<PooledFrame> FrameArena::acquire_copy(BytesView payload) {
  auto frame = acquire(payload.size());
  if (frame.has_value())
    frame->bytes().assign(payload.begin(), payload.end());
  return frame;
}

void FrameArena::give_back(Bytes buf) {
  // outstanding can hit 0 only via arena misuse; guard anyway so a stray
  // double-release in a test cannot underflow the gauge.
  if (outstanding_ > 0) --outstanding_;
  if (buf.capacity() <= max_pooled_capacity_) free_.push_back(std::move(buf));
}

}  // namespace peace::mesh
