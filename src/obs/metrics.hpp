// The metrics half of the observability layer (docs/OBSERVABILITY.md): a
// process-wide registry of named monotonic counters, gauges, and
// fixed-bucket latency histograms.
//
// Design contract:
//
//  * Hot paths are lock-free. A metric handle is looked up once (the
//    registry mutex covers registration only) and cached — typically in a
//    function-local static — after which every update is a single relaxed
//    atomic op. Handles are stable for the registry's lifetime: the backing
//    std::map never moves nodes and reset() zeroes values in place.
//
//  * Counters are the substrate of the crypto op-count API (obs::op_count
//    in trace.hpp) and of the correctness assertions tests build on them,
//    so they are compiled unconditionally — PEACE_OBS=OFF removes span
//    tracing and timing (see trace.hpp), not the relaxed-atomic counter
//    adds that predate this layer as bare globals.
//
//  * Deterministic counters stay deterministic: an atomic add per performed
//    operation gives the same total whatever thread interleaving performed
//    the operations, which is what keeps pooled and sequential runs
//    metric-identical for every count-of-work metric.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace peace::obs {

/// Monotonic event count. set() exists for the absorb-at-export path (stats
/// structs mirrored into the registry; see docs/OBSERVABILITY.md §2) and
/// makes that path idempotent — hot paths only ever add().
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void set(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// A value that can go up and down (queue depths, cache sizes).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency histogram over microseconds. Buckets are powers of
/// two: bucket i counts samples in (2^(i-1), 2^i] µs (bucket 0 covers
/// [0, 1] µs), 32 buckets reach ~36 minutes, the last bucket absorbs
/// overflow. record() is two relaxed atomic adds — no allocation, no lock —
/// so workers record concurrently; quantiles are derived at export time by
/// linear interpolation inside the covering bucket (p50/p95/p99 resolution
/// is the bucket width, which a power-of-two ladder keeps at ~2x — plenty
/// for "did the handshake path regress" questions).
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 32;

  void record(std::uint64_t micros) {
    buckets_[bucket_for(micros)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(micros, std::memory_order_relaxed);
  }

  std::uint64_t count() const;
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound (µs) of bucket i.
  static std::uint64_t bucket_bound(std::size_t i) {
    return i + 1 >= kBuckets ? ~std::uint64_t{0} : (std::uint64_t{1} << i);
  }
  /// q in [0, 1]; 0 on an empty histogram.
  double quantile(double q) const;
  void reset();

 private:
  static std::size_t bucket_for(std::uint64_t micros) {
    std::size_t i = 0;
    while (i + 1 < kBuckets && bucket_bound(i) < micros) ++i;
    return i;
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Name -> metric registry. One process-global instance serves the whole
/// stack; tests may build private instances. Metric names are stable
/// dot-separated identifiers catalogued in docs/OBSERVABILITY.md — they are
/// the machine-readable contract of the metrics JSON export.
class Registry {
 public:
  static Registry& global();

  /// Finds or creates. The returned reference stays valid (and keeps its
  /// identity across reset()) for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zeroes every registered metric in place — the per-scope reset tests
  /// and benches use to measure deltas without capturing before-values.
  void reset();

  /// The metrics export: {"schema": "peace.metrics.v1", "counters": {...},
  /// "gauges": {...}, "histograms": {name: {count, sum_us, p50_us, p90_us,
  /// p95_us, p99_us, buckets: [{le_us, count}, ...]}}}. Names sort
  /// lexicographically; empty histograms emit no buckets array.
  std::string to_json() const;

 private:
  mutable std::mutex mutex_;  // registration and export only — never updates
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace peace::obs
