#include "obs/stream_sink.hpp"

#include "obs/trace.hpp"

namespace peace::obs {

bool JsonlStreamSink::open(const std::string& path,
                           StreamSinkOptions options) {
  close();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  file_ = f;
  path_ = path;
  options_ = options;
  buffer_.clear();
  buffer_.reserve(options_.flush_bytes + 512);
  file_bytes_ = events_written_ = rotations_ = 0;
  ok_ = true;
  return true;
}

void JsonlStreamSink::write(const TraceEvent& event) {
  if (file_ == nullptr) return;
  append_event_json(buffer_, event);
  buffer_ += '\n';
  ++events_written_;
  if (buffer_.size() < options_.flush_bytes) return;
  // Rotation happens only at flush boundaries, so no line ever splits
  // across files.
  if (options_.rotate_bytes > 0 &&
      file_bytes_ + buffer_.size() > options_.rotate_bytes && file_bytes_ > 0)
    rotate();
  flush();
}

bool JsonlStreamSink::flush() {
  if (file_ == nullptr) return ok_;
  if (!buffer_.empty()) {
    const std::size_t n =
        std::fwrite(buffer_.data(), 1, buffer_.size(), file_);
    ok_ = ok_ && n == buffer_.size();
    file_bytes_ += n;
    buffer_.clear();
  }
  ok_ = ok_ && std::fflush(file_) == 0;
  return ok_;
}

void JsonlStreamSink::rotate() {
  flush();
  std::fclose(file_);
  file_ = nullptr;
  const std::string rotated =
      path_ + "." + std::to_string(rotations_ + 1);
  if (std::rename(path_.c_str(), rotated.c_str()) != 0) {
    // Rename failed (e.g. permissions): keep streaming by appending to the
    // existing file rather than truncating it.
    ok_ = false;
    file_ = std::fopen(path_.c_str(), "a");
    return;
  }
  ++rotations_;
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    ok_ = false;
    return;
  }
  file_ = f;
  file_bytes_ = 0;
}

bool JsonlStreamSink::close() {
  if (file_ == nullptr) return ok_;
  flush();
  ok_ = std::fclose(file_) == 0 && ok_;
  file_ = nullptr;
  return ok_;
}

}  // namespace peace::obs
