// The security-event stream (docs/OBSERVABILITY.md §4): a structured,
// bounded channel for the discrete security-relevant moments of a run —
// auth rejections, attributed batch forgeries, replay hits, revocation
// hits, resyncs, rekeys, handshake timeouts, shard inbox shedding — each
// carrying sim-time, the shard it happened in, an origin id (router/user),
// and one kind-specific detail word.
//
// Like every obs surface, the stream is strictly an observer: emitting an
// event draws no DRBG randomness, touches no protocol state, and never
// influences a verdict or a wire byte. Two layers, mirroring trace.hpp:
//
//  * The per-kind sec.<kind> registry counters are ALWAYS on (one relaxed
//    atomic add per event, the same always-compiled substrate as the
//    curve.* op counters). Every emission happens in a sequential protocol
//    pass, so the per-kind counts are identical between pooled and
//    sequential verification — the event-count half of the
//    telemetry-neutrality invariant (ObsTest.
//    PooledAndSequentialSecEventCountsMatch).
//  * The event *records* ride a bounded lock-free (SPSC) ring per emitting
//    thread, only when obs::enabled(). A metro shard tick captures its
//    records instead (set_sec_capture) on whichever worker runs it, and
//    the driver replays them onto its own ring in shard order at the
//    barrier, so the stream is the same at any thread count.
//    drain_sec_events() consumes every ring and forwards each record to
//    the Tracer as a cat="sec" (or "health") instant on the sim-time
//    track, which streams through the JSONL sink like any other event.
//    Ring overflow sheds the NEWEST event
//    and counts it (sec.events_shed) — memory stays bounded under any
//    sustained burst. Under PEACE_OBS_DISABLED the ring push folds away
//    entirely (enabled() is constexpr false); the counters remain.
#pragma once

#include <cstdint>
#include <vector>

namespace peace::obs {

/// Fixed vocabulary of security-event kinds. Kinds are DISJOINT by primary
/// cause (a revoked credential emits kRevocationHit, not also kAuthReject),
/// so per-kind counts partition the rejection stream cleanly.
enum class SecEventKind : std::uint8_t {
  kAuthReject = 0,             // M.2 rejected: detail 1=unknown_beacon,
                               // 2=stale, 3=puzzle, 4=bad_signature
  kBatchForgeryAttributed,     // bisection pinned a bad signature in a batch
  kReplayDetected,             // replay-cache hit (detail 1=precheck,
                               // 2=in-batch apply)
  kRevocationHit,              // valid signature from a revoked credential
                               // (detail = signature epoch)
  kRlResync,                   // chain gap -> full-list resync request
                               // (detail = list kind)
  kSessionRekey,               // uplink session retired for rekey
  kHandshakeTimeout,           // retry budget exhausted (access or peer)
  kInboxShed,                  // shard inbox cap dropped a cross-shard msg
  kHealthAlert,                // HealthMonitor rule fired (detail = the
                               // underlying SecEventKind)
  kCount,                      // sentinel — not a kind
};

inline constexpr std::size_t kSecEventKindCount =
    static_cast<std::size_t>(SecEventKind::kCount);

/// Stable snake_case name ("auth_reject", ...) — the JSONL record name and
/// the suffix of the sec.<kind> counter. Static storage; never freed.
const char* sec_event_name(SecEventKind kind);

/// One recorded security event. Fixed-size payload by design: the stream
/// must stay bounded-memory however hostile the run.
struct SecEvent {
  SecEventKind kind = SecEventKind::kAuthReject;
  std::uint32_t shard = 0;    // ambient shard id (0 outside a metro run)
  std::uint64_t sim_ms = 0;   // simulator time of the event
  std::uint64_t origin = 0;   // router/user id (kHealthAlert: alerted shard)
  std::uint64_t detail = 0;   // kind-specific (see SecEventKind comments)
};

/// Per-emitting-thread ring capacity (power of two). A full ring sheds the
/// newest event into sec_events_shed() instead of growing.
inline constexpr std::size_t kSecRingCapacity = 4096;

// --- ambient shard attribution --------------------------------------------
// The metro driver tags the shard whose event loop is running; emissions
// from protocol code pick it up without the protocol layer knowing about
// shards. Thread-local, observer-only, 0 outside a metro run.
void set_current_shard(std::uint32_t shard);
std::uint32_t current_shard();

// --- emission -------------------------------------------------------------

/// Emits one event: always bumps the per-kind sec.<kind> counter; when
/// obs::enabled(), also pushes the record onto this thread's ring for the
/// next drain. The shard is taken from the ambient thread-local.
void sec_emit(SecEventKind kind, std::uint64_t sim_ms, std::uint64_t origin,
              std::uint64_t detail = 0);

/// Emission with an explicit shard (used where the destination shard is
/// known but is not the ambient one, e.g. inbox shedding at a barrier).
void sec_emit_for_shard(SecEventKind kind, std::uint32_t shard,
                        std::uint64_t sim_ms, std::uint64_t origin,
                        std::uint64_t detail = 0);

/// Diverts this thread's event records into `sink` (nullptr restores its
/// ring); the sec.<kind> counters still count at emission. Records wait in
/// `sink` until replay_sec_events pushes them onto a ring.
void set_sec_capture(std::vector<SecEvent>* sink);

/// Pushes captured records onto this thread's ring in order, shedding at a
/// full ring exactly as emission would.
void replay_sec_events(const std::vector<SecEvent>& records);

/// Value of the always-on per-kind counter.
std::uint64_t sec_event_count(SecEventKind kind);

/// Events shed at full rings since process start (always-on counter).
std::uint64_t sec_events_shed();

// --- drain ----------------------------------------------------------------

/// Consumes every thread's ring: each drained record is forwarded to the
/// Tracer as an instant on the sim-time track (cat "sec"; kHealthAlert uses
/// cat "health") carrying {shard, origin, detail} args, and appended to
/// `out` when non-null (the HealthMonitor ingestion path). Records are
/// merged across rings in sim-time order (stable within a ring). Returns
/// the number of events drained. Called by the metro driver at every tick
/// barrier and by the publish_metrics paths before export.
std::size_t drain_sec_events(std::vector<SecEvent>* out = nullptr);

}  // namespace peace::obs
