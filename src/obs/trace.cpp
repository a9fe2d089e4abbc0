#include "obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>

namespace peace::obs {

namespace {

constexpr bool ops_in_enum_order() {
  for (std::size_t i = 0; i < kOpCount; ++i)
    if (static_cast<std::size_t>(kOps[i].op) != i) return false;
  return true;
}
static_assert(ops_in_enum_order(), "kOps rows must follow the Op order");

/// The always-on op counters, resolved once and indexed by Op. References
/// stay valid across Registry::reset(), so caching them here is safe for
/// the process lifetime.
const std::array<Counter*, kOpCount>& op_counters() {
  static const auto counters = [] {
    std::array<Counter*, kOpCount> out{};
    for (std::size_t i = 0; i < kOpCount; ++i)
      out[i] = &Registry::global().counter(kOps[i].metric);
    return out;
  }();
  return counters;
}

#ifndef PEACE_OBS_DISABLED
std::atomic<bool> g_enabled{false};
thread_local CryptoTally t_tally{};
#endif

std::chrono::steady_clock::time_point process_epoch() {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

#ifndef PEACE_OBS_DISABLED
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void enable(bool on) {
  (void)process_epoch();  // pin the epoch no later than first enable
  g_enabled.store(on, std::memory_order_relaxed);
}
#endif

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - process_epoch())
          .count());
}

// The tally update rides behind the runtime toggle: with tracing off a
// hook is exactly the relaxed atomic add the pre-registry bare globals
// performed. With PEACE_OBS_DISABLED the branch itself folds away.
void note(Op op, std::uint64_t n) {
  const auto i = static_cast<std::size_t>(op);
  op_counters()[i]->add(n);
#ifndef PEACE_OBS_DISABLED
  if (enabled()) t_tally[i] += n;
#endif
}

std::uint64_t op_count(Op op) {
  return op_counters()[static_cast<std::size_t>(op)]->value();
}

// --- Tracer ---------------------------------------------------------------

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

std::uint32_t Tracer::tid_for_current_thread() {
  // Called with mutex_ held.
  static std::unordered_map<std::thread::id, std::uint32_t> ids;
  const auto [it, inserted] =
      ids.emplace(std::this_thread::get_id(), next_tid_);
  if (inserted) ++next_tid_;
  return it->second;
}

void Tracer::record(TraceEvent event) {
  if (!enabled()) return;
  std::lock_guard lock(mutex_);
  if (event.tid == 0) event.tid = tid_for_current_thread();
  if (sink_ != nullptr && sink_->is_open()) {
    // Streaming mode: write through, retain nothing (bounded memory).
    sink_->write(event);
    ++streamed_events_;
    return;
  }
  events_.push_back(event);
}

bool Tracer::stream_to(const std::string& path, StreamSinkOptions options) {
  std::lock_guard lock(mutex_);
  auto sink = std::make_unique<JsonlStreamSink>();
  if (!sink->open(path, options)) return false;
  sink_ = std::move(sink);
  streamed_events_ = 0;
  return true;
}

bool Tracer::stop_streaming() {
  std::lock_guard lock(mutex_);
  if (sink_ == nullptr) return true;
  const bool ok = sink_->close();
  sink_.reset();
  return ok;
}

bool Tracer::streaming() const {
  std::lock_guard lock(mutex_);
  return sink_ != nullptr && sink_->is_open();
}

std::uint64_t Tracer::streamed_event_count() const {
  std::lock_guard lock(mutex_);
  return streamed_events_;
}

void Tracer::instant(const char* name, const char* cat) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.ts_us = now_us();
  record(e);
}

void Tracer::instant_at(const char* name, const char* cat,
                        std::uint64_t sim_us,
                        std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'i';
  e.pid = kSimPid;
  e.ts_us = sim_us;
  for (const TraceArg& a : args) e.add_arg(a.key, a.value);
  record(e);
}

void Tracer::async_begin(const char* name, const char* cat, std::uint64_t id,
                         std::uint64_t sim_us,
                         std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'b';
  e.pid = kSimPid;
  e.id = id;
  e.ts_us = sim_us;
  for (const TraceArg& a : args) e.add_arg(a.key, a.value);
  record(e);
}

void Tracer::async_end(const char* name, const char* cat, std::uint64_t id,
                       std::uint64_t sim_us,
                       std::initializer_list<TraceArg> args) {
  TraceEvent e;
  e.name = name;
  e.cat = cat;
  e.ph = 'e';
  e.pid = kSimPid;
  e.id = id;
  e.ts_us = sim_us;
  for (const TraceArg& a : args) e.add_arg(a.key, a.value);
  record(e);
}

std::size_t Tracer::event_count() const {
  std::lock_guard lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lock(mutex_);
  return events_;
}

void Tracer::clear() {
  std::lock_guard lock(mutex_);
  events_.clear();
}

namespace {

void append(std::string& out, const char* fmt, auto... args) {
  char buf[192];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  if (n < static_cast<int>(sizeof(buf))) {
    out += buf;
    return;
  }
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  std::snprintf(big.data(), big.size(), fmt, args...);
  big.resize(static_cast<std::size_t>(n));
  out += big;
}

}  // namespace

void append_event_json(std::string& out, const TraceEvent& e) {
  append(out, "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%c\"", e.name,
         e.cat, e.ph);
  append(out, ", \"ts\": %llu", static_cast<unsigned long long>(e.ts_us));
  if (e.ph == 'X')
    append(out, ", \"dur\": %llu", static_cast<unsigned long long>(e.dur_us));
  if (e.ph == 'b' || e.ph == 'e')
    append(out, ", \"id\": %llu", static_cast<unsigned long long>(e.id));
  if (e.ph == 'i') out += ", \"s\": \"t\"";
  append(out, ", \"pid\": %u, \"tid\": %u", e.pid, e.tid);
  if (e.nargs > 0) {
    out += ", \"args\": {";
    for (std::size_t i = 0; i < e.nargs; ++i)
      append(out, "%s\"%s\": %llu", i == 0 ? "" : ", ", e.args[i].key,
             static_cast<unsigned long long>(e.args[i].value));
    out += "}";
  }
  out += "}";
}

std::string Tracer::chrome_json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
  // Metadata: name the two clock tracks so the viewer labels them.
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, "
         "\"args\": {\"name\": \"wall-clock\"}},\n";
  out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, "
         "\"args\": {\"name\": \"sim-time\"}}";
  for (const TraceEvent& e : events_) {
    out += ",\n";
    append_event_json(out, e);
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::jsonl() const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const TraceEvent& e : events_) {
    append_event_json(out, e);
    out += "\n";
  }
  return out;
}

namespace {

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

bool Tracer::write_chrome(const std::string& path) const {
  return write_file(path, chrome_json());
}

bool Tracer::write_jsonl(const std::string& path) const {
  return write_file(path, jsonl());
}

// --- Span -----------------------------------------------------------------

#ifndef PEACE_OBS_DISABLED

Span::Span(const char* name, const char* cat, Histogram* hist) {
  if (!enabled()) return;
  active_ = true;
  hist_ = hist;
  event_.name = name;
  event_.cat = cat;
  start_tally_ = t_tally;
  start_us_ = now_us();
}

std::uint64_t Span::close() {
  if (!active_) return 0;
  active_ = false;
  const std::uint64_t end_us = now_us();
  const std::uint64_t dur = end_us - start_us_;
  event_.ph = 'X';
  event_.ts_us = start_us_;
  event_.dur_us = dur;
  for (std::size_t i = 0; i < kOpCount; ++i)
    if (t_tally[i] > start_tally_[i])
      event_.add_arg(kOps[i].span_key, t_tally[i] - start_tally_[i]);
  Tracer::global().record(event_);
  if (hist_ != nullptr) hist_->record(dur);
  return dur;
}

#endif  // PEACE_OBS_DISABLED

}  // namespace peace::obs
