// Measurement plumbing shared by every workload: sample sets, verdict
// accounting, the driver's own span log, and the result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// A set of measurements. Quantiles interpolate linearly between order
/// statistics (numpy's default), so a median of an even count is the mean
/// of the two middle samples.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Counts operations against their expected verdicts. `flip_first` is the
/// self-check's deliberately wrong expectation: the first verdict checked
/// is expected the other way round, so a correct program must fail it.
class Tally {
 public:
  explicit Tally(bool flip_first = false) : flip_(flip_first) {}

  /// One operation whose outcome must equal `expected`. Returns `actual`.
  bool expect(bool expected, bool actual, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& first_failures() const { return notes_; }

 private:
  bool flip_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> notes_;
};

/// The driver's own trace: one span per public call it makes, with name,
/// start, end, parent span and request id, kept in memory and written out
/// once at exit. Disabled (the timed runs) it records nothing.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;  // index of the enclosing span, -1 at top level
    std::uint64_t request;
  };

  explicit SpanLog(bool enabled = false) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }

  /// Runs `fn`, recording a span around it when enabled.
  template <typename Fn>
  decltype(auto) call(const char* name, std::uint64_t request, Fn&& fn) {
    if (!enabled_) return fn();
    Scope scope(*this, name, request);
    return fn();
  }

  /// Median duration (ms) of the spans called `name`, 0 when none.
  double median_ms(const char* name) const;
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span. Returns false on an I/O error.
  bool write_jsonl(const std::string& path) const;

 private:
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Named metrics with units, in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json(const Tally& tally) const;
  /// One "name = value unit" line per metric.
  std::string text() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> m_;
};

/// Options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool flip_verdict = false;
  std::string work_dir;  // scratch space inside the checkout
};

/// Seeded DRBG label for one role of one run: identical seeds give
/// identical inputs, distinct roles get independent streams.
std::string seed_label(const RunOptions& opt, const std::string& role);

/// Number of operations a run of `opt.seconds` performs: `per_second` is a
/// fixed nominal rate, not a measured one, so the work done depends on the
/// arguments alone and every build does the same sequence.
std::size_t op_budget(const RunOptions& opt, double per_second,
                      std::size_t minimum);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// A fixed integer loop timed in ms: a diagnostic of host speed, never used
/// to normalise anything.
double calibration_ms();

}  // namespace perfbench
