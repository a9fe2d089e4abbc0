// Streaming JSONL trace sink (docs/OBSERVABILITY.md §3.4). The in-memory
// Tracer retains every event until export — fine for a demo day, fatal for
// a metro-scale day that emits millions of events. A JsonlStreamSink wired
// into the Tracer (Tracer::stream_to) writes each event through to disk as
// it is recorded and retains NOTHING in the tracer, bounding trace memory
// at one flush buffer regardless of run length.
//
// Semantics:
//
//  * Buffering/flush: lines accumulate in an in-memory buffer and are
//    written to the file whenever the buffer reaches `flush_bytes` (and on
//    rotation and close). Memory use is bounded by flush_bytes plus one
//    line; a crash can lose at most the unflushed tail.
//  * Rotation: with `rotate_bytes` > 0, when the current file would exceed
//    that size at a flush boundary it is closed and renamed to
//    "<path>.<n>" (n = 1, 2, ... in completion order) and a fresh file is
//    opened at <path>. Lines are never split across files, and <path> is
//    always the newest data. rotate_bytes = 0 (default) never rotates.
//  * Ownership/threading: not thread-safe on its own — the Tracer calls
//    write() under its record mutex; standalone users must serialize.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

namespace peace::obs {

struct TraceEvent;

struct StreamSinkOptions {
  /// Flush the buffer to disk once it holds this many bytes.
  std::size_t flush_bytes = 64 * 1024;
  /// Rotate the file when it would exceed this size (0 = never rotate).
  std::uint64_t rotate_bytes = 0;
};

class JsonlStreamSink {
 public:
  JsonlStreamSink() = default;
  JsonlStreamSink(const JsonlStreamSink&) = delete;
  JsonlStreamSink& operator=(const JsonlStreamSink&) = delete;
  ~JsonlStreamSink() { close(); }

  /// Opens (truncates) `path`. Returns false on failure.
  bool open(const std::string& path, StreamSinkOptions options = {});
  bool is_open() const { return file_ != nullptr; }

  /// Serializes one event as a JSONL line into the buffer, flushing (and
  /// rotating) per the options above.
  void write(const TraceEvent& event);

  /// Flushes buffered lines to the file immediately.
  bool flush();
  /// Flush + fclose. Idempotent; returns false if any write failed.
  bool close();

  std::uint64_t events_written() const { return events_written_; }
  /// Completed rotations so far ("<path>.1" ... "<path>.<n>").
  std::uint64_t rotations() const { return rotations_; }

 private:
  void rotate();

  std::FILE* file_ = nullptr;
  std::string path_;
  StreamSinkOptions options_;
  std::string buffer_;
  std::uint64_t file_bytes_ = 0;  // flushed into the CURRENT file
  std::uint64_t events_written_ = 0;
  std::uint64_t rotations_ = 0;
  bool ok_ = true;
};

}  // namespace peace::obs
