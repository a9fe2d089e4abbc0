#include "obs/sec_event.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <mutex>

#include "obs/trace.hpp"

namespace peace::obs {

namespace {

constexpr std::array<const char*, kSecEventKindCount> kKindNames = {
    "auth_reject",      "batch_forgery_attributed",
    "replay_detected",  "revocation_hit",
    "rl_resync",        "session_rekey",
    "handshake_timeout", "inbox_shed",
    "health_alert",
};

/// The always-on per-kind counters plus the shed counter, resolved once
/// (handles stay valid across Registry::reset(), like trace.cpp's core()).
struct SecCounters {
  std::array<Counter*, kSecEventKindCount> per_kind{};
  Counter& shed = Registry::global().counter("sec.events_shed");

  SecCounters() {
    for (std::size_t i = 0; i < kSecEventKindCount; ++i) {
      std::string name = std::string("sec.") + kKindNames[i];
      per_kind[i] = &Registry::global().counter(name);
    }
  }
};

SecCounters& counters() {
  static SecCounters c;
  return c;
}

/// One emitting thread's bounded SPSC ring. The owning thread is the only
/// producer; drain_sec_events (any thread, serialized by the registry
/// mutex) is the only consumer. Rings are never freed — a thread that dies
/// leaves its (drained, empty) ring behind, which bounds total ring memory
/// at kSecRingCapacity × peak thread count.
struct SecRing {
  std::array<SecEvent, kSecRingCapacity> slots;
  std::atomic<std::uint64_t> head{0};  // next write (producer only)
  std::atomic<std::uint64_t> tail{0};  // next read (consumer only)
};

struct RingRegistry {
  std::mutex mutex;  // registration and drain; never the emit path
  std::vector<std::unique_ptr<SecRing>> rings;
};

RingRegistry& ring_registry() {
  static RingRegistry* reg = new RingRegistry;  // never destroyed: emitting
  return *reg;  // threads may outlive static teardown order
}

SecRing& thread_ring() {
  thread_local SecRing* ring = [] {
    auto owned = std::make_unique<SecRing>();
    SecRing* raw = owned.get();
    RingRegistry& reg = ring_registry();
    std::lock_guard lock(reg.mutex);
    reg.rings.push_back(std::move(owned));
    return raw;
  }();
  return *ring;
}

thread_local std::uint32_t t_current_shard = 0;
thread_local std::vector<SecEvent>* t_capture = nullptr;

void push_record(const SecEvent& event) {
  SecRing& ring = thread_ring();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  const std::uint64_t tail = ring.tail.load(std::memory_order_acquire);
  if (head - tail >= kSecRingCapacity) {
    // Bounded memory beats completeness: shed the newest record (the
    // counters still saw it) and account for the loss.
    counters().shed.add(1);
    return;
  }
  ring.slots[head % kSecRingCapacity] = event;
  ring.head.store(head + 1, std::memory_order_release);
}

}  // namespace

const char* sec_event_name(SecEventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < kSecEventKindCount ? kKindNames[i] : "unknown";
}

void set_current_shard(std::uint32_t shard) { t_current_shard = shard; }
std::uint32_t current_shard() { return t_current_shard; }

void sec_emit_for_shard(SecEventKind kind, std::uint32_t shard,
                        std::uint64_t sim_ms, std::uint64_t origin,
                        std::uint64_t detail) {
  // The deterministic half: one relaxed add per event performed, whatever
  // thread performs it — pooled and sequential runs agree per kind.
  counters().per_kind[static_cast<std::size_t>(kind)]->add(1);
  // The record half rides the runtime toggle (and folds away entirely
  // under PEACE_OBS_DISABLED, where enabled() is constexpr false).
  if (!enabled()) return;
  const SecEvent event{kind, shard, sim_ms, origin, detail};
  if (t_capture != nullptr)
    t_capture->push_back(event);
  else
    push_record(event);
}

void sec_emit(SecEventKind kind, std::uint64_t sim_ms, std::uint64_t origin,
              std::uint64_t detail) {
  sec_emit_for_shard(kind, t_current_shard, sim_ms, origin, detail);
}

void set_sec_capture(std::vector<SecEvent>* sink) { t_capture = sink; }

void replay_sec_events(const std::vector<SecEvent>& records) {
  for (const SecEvent& event : records) push_record(event);
}

std::uint64_t sec_event_count(SecEventKind kind) {
  return counters().per_kind[static_cast<std::size_t>(kind)]->value();
}

std::uint64_t sec_events_shed() { return counters().shed.value(); }

std::size_t drain_sec_events(std::vector<SecEvent>* out) {
  std::vector<SecEvent> drained;
  {
    RingRegistry& reg = ring_registry();
    std::lock_guard lock(reg.mutex);
    for (const auto& ring : reg.rings) {
      const std::uint64_t head = ring->head.load(std::memory_order_acquire);
      std::uint64_t tail = ring->tail.load(std::memory_order_relaxed);
      for (; tail != head; ++tail)
        drained.push_back(ring->slots[tail % kSecRingCapacity]);
      ring->tail.store(tail, std::memory_order_release);
    }
  }
  if (drained.empty()) return 0;
  // Protocol code emits in its sequential passes and metro shard ticks
  // replay their captures onto the driver's ring, so in practice one ring
  // holds the stream in a fixed order; the stable sim-time sort keeps the
  // export monotonic should another thread emit too.
  std::stable_sort(drained.begin(), drained.end(),
                   [](const SecEvent& a, const SecEvent& b) {
                     return a.sim_ms < b.sim_ms;
                   });
  for (const SecEvent& e : drained) {
    const char* cat = e.kind == SecEventKind::kHealthAlert ? "health" : "sec";
    Tracer::global().instant_at(sec_event_name(e.kind), cat, e.sim_ms * 1000,
                                {{"shard", e.shard},
                                 {"origin", e.origin},
                                 {"detail", e.detail}});
  }
  if (out != nullptr)
    out->insert(out->end(), drained.begin(), drained.end());
  return drained.size();
}

}  // namespace peace::obs
