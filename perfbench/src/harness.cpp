#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

bool Tally::expect(bool expected, bool actual, const std::string& what) {
  if (flip_) {
    expected = !expected;
    flip_ = false;
  }
  ++attempted_;
  if (expected != actual) {
    ++failed_;
    if (notes_.size() < 8)
      notes_.push_back(what + (expected ? ": expected yes, got no"
                                        : ": expected no, got yes"));
  }
  return actual;
}

SpanLog::Scope::Scope(SpanLog& log, const char* name, std::uint64_t request)
    : log_(log), index_(static_cast<int>(log.spans_.size())) {
  const int parent = log.open_.empty() ? -1 : log.open_.back();
  log.spans_.push_back(Span{name, log.now_us(), 0, parent, request});
  log.open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  log_.spans_[static_cast<std::size_t>(index_)].end_us = log_.now_us();
  log_.open_.pop_back();
}

double SpanLog::median_ms(const char* name) const {
  Samples out;
  const std::string key = name;
  for (const Span& s : spans_)
    if (key == s.name) out.add((s.end_us - s.start_us) / 1000.0);
  return out.median();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  char line[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"parent\":%d,\"request\":%llu}\n",
                  i, s.name, s.start_us, s.end_us, s.parent,
                  static_cast<unsigned long long>(s.request));
    out << line;
  }
  return static_cast<bool>(out);
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  m_.push_back({name, value, unit});
}

std::string Report::json(const Tally& tally) const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
      << ", \"attempted\": " << tally.attempted()
      << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < m_.size(); ++i) {
    const double v = std::isfinite(m_[i].value) ? m_[i].value : 0;
    out << (i ? ", " : "") << '"' << m_[i].name << "\": {\"value\": " << v
        << ", \"unit\": \"" << m_[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

std::string Report::text() const {
  std::ostringstream out;
  for (const Metric& m : m_)
    out << "  " << m.name << " = " << m.value << ' ' << m.unit << '\n';
  return out.str();
}

std::string seed_label(const RunOptions& opt, const std::string& role) {
  return "perfbench/" + opt.workload + "/" + std::to_string(opt.seed) + "/" +
         role;
}

std::size_t op_budget(const RunOptions& opt, double per_second,
                      std::size_t minimum) {
  const double n = std::round(opt.seconds * per_second);
  return std::max(minimum, static_cast<std::size_t>(std::max(0.0, n)));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double calibration_ms() {
  const auto t0 = Clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return ms_between(t0, Clock::now());
}

}  // namespace perfbench
