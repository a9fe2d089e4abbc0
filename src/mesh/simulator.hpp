// Minimal discrete-event simulation core: a virtual millisecond clock and
// an ordered event queue. Deterministic given deterministic callbacks —
// ties are broken by insertion order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace peace::mesh {

using SimTime = std::uint64_t;  // milliseconds
using EventFn = std::function<void()>;

class Simulator {
 public:
  SimTime now() const { return now_; }
  std::uint64_t events_processed() const { return processed_; }
  std::size_t pending() const { return queue_.size(); }

  /// Names this simulator in diagnostics — a metro shard sets its shard
  /// label here so a budget exhaustion names the shard that tripped it.
  void set_name(std::string name) { name_ = std::move(name); }

  /// Lifetime event budget enforced by run_until AND run_all; 0 (the
  /// default) leaves run_until unbounded and run_all on its `max_events`
  /// argument — the pre-sharding behaviour. Metro shards set an explicit
  /// per-shard budget (MetroConfig::shard_event_budget) so runaway load in
  /// one segment fails loudly, naming the shard, instead of spinning.
  void set_event_budget(std::uint64_t budget) { budget_ = budget; }
  std::uint64_t event_budget() const { return budget_; }

  /// Schedules `fn` at absolute time `at` (must not be in the past).
  void schedule(SimTime at, EventFn fn);
  /// Convenience: `delay` from now.
  void schedule_in(SimTime delay, EventFn fn) {
    schedule(now_ + delay, std::move(fn));
  }

  /// True when an event is scheduled at or before `end`, i.e. when
  /// run_until(end) would run anything (the metro driver skips idle shards).
  bool has_due(SimTime end) const {
    return !queue_.empty() && queue_.front().at <= end;
  }

  /// Runs events up to and including `end`; the clock then rests at `end`.
  void run_until(SimTime end);
  /// Runs until the queue drains (or `max_events` as a runaway guard; an
  /// explicit set_event_budget overrides the argument).
  void run_all(std::uint64_t max_events = 10'000'000);

 private:
  struct Event {
    SimTime at;
    std::uint64_t seq;  // FIFO among same-time events
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  [[noreturn]] void throw_budget_exhausted(std::uint64_t budget) const;
  /// Moves the earliest event out of the queue (a binary heap ordered by
  /// Later, so front() is the next event) and advances the clock to it.
  Event pop_next();

  std::vector<Event> queue_;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t budget_ = 0;
  std::string name_;
};

}  // namespace peace::mesh
