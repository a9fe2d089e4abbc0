#include "mesh/simulator.hpp"

#include <algorithm>

namespace peace::mesh {

void Simulator::schedule(SimTime at, EventFn fn) {
  if (at < now_) throw Error("simulator: scheduling into the past");
  queue_.push_back(Event{at, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Simulator::throw_budget_exhausted(std::uint64_t budget) const {
  std::string who = name_.empty() ? std::string("simulator")
                                  : "simulator [" + name_ + "]";
  throw Error(who + ": event budget exhausted (" +
              std::to_string(processed_) + " events, budget " +
              std::to_string(budget) + ") — runaway load, or raise the budget");
}

Simulator::Event Simulator::pop_next() {
  // pop_heap parks the earliest event at the back, from where it moves out
  // with its callback and captures (no copy of a captured wire buffer).
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.at;
  ++processed_;
  return ev;
}

void Simulator::run_until(SimTime end) {
  while (has_due(end)) {
    if (budget_ != 0 && processed_ >= budget_) throw_budget_exhausted(budget_);
    pop_next().fn();
  }
  now_ = end;
}

void Simulator::run_all(std::uint64_t max_events) {
  const std::uint64_t budget = budget_ != 0 ? budget_ : max_events;
  while (!queue_.empty()) {
    if (processed_ >= budget) throw_budget_exhausted(budget);
    pop_next().fn();
  }
}

}  // namespace peace::mesh
