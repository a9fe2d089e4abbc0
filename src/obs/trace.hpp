// The tracing half of the observability layer (docs/OBSERVABILITY.md):
// wall-clock spans with per-span crypto-op attribution, simulator-time
// handshake spans, and instant events, exportable as Chrome trace_event
// JSON and as a JSONL event log.
//
// Telemetry is strictly an observer: it draws no DRBG randomness, touches
// no protocol state, and never influences accept/reject decisions or wire
// bytes (tests/obs_test.cpp and determinism_test assert this). Two layers
// of disablement:
//
//  * Runtime: obs::enable(false) (the default). Span construction is one
//    relaxed atomic load and a branch; hooks fall through to their bare
//    counter add.
//  * Compile time: -DPEACE_OBS=OFF defines PEACE_OBS_DISABLED, making
//    enabled() a constexpr false — Span bodies, tallies, and Tracer
//    recording fold away entirely. obs::note keeps its registry counter
//    adds (they are the crypto op-count API; see metrics.hpp).
//
// All name/category/key strings passed into this API must be string
// literals (or otherwise outlive the Tracer) — events store the pointers.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/stream_sink.hpp"

namespace peace::obs {

// --- runtime toggle -------------------------------------------------------

#ifdef PEACE_OBS_DISABLED
constexpr bool enabled() { return false; }
inline void enable(bool) {}
#else
bool enabled();
void enable(bool on);
#endif

/// Microseconds on the steady clock since the process's tracing epoch.
std::uint64_t now_us();

// --- crypto-op hooks (called from curve:: / groupsig::) -------------------
//
// note() bumps the op's process-global registry counter (always — this is
// what op_count() reads and tests assert on) and, when tracing is enabled,
// a thread-local tally that open spans diff to attribute crypto work to
// themselves.

enum class Op : std::uint8_t {
  kPairing,
  kMillerLoop,
  kFinalExp,
  kG2Prepared,
  kMsmCall,
  kMsmTerm,
  kGtPow,
  /// One Fp12 inversion of a final-exponentiation easy part: one per
  /// final_exponentiation call, one per final_exp_easy_batch whatever its
  /// size.
  kFp12Inverse,
  /// One coordinate-field (Fp/Fp2) inversion on the curve path: a to_affine
  /// of a Z != 1 point, a batch_normalize pass (however many points it
  /// covers), a Miller-loop line table, or a reference-Tate step.
  kFieldInversion,
  kGlvDecomposition,
  kGlsDecomposition,
  /// One curve::g1_generator_mul: a k * G from the generator table.
  kFixedBaseMul,
  kCount,  // sentinel — not an op
};

inline constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

struct OpRow {
  Op op;
  const char* metric;    // the always-on registry counter
  const char* span_key;  // the span argument carrying the per-span delta
};

/// The one definition of every crypto op: its counter and its span key, in
/// the order Span attaches the deltas.
inline constexpr std::array<OpRow, kOpCount> kOps{{
    {Op::kPairing, "curve.pairings", "pairings"},
    {Op::kMillerLoop, "curve.miller_loops", "miller_loops"},
    {Op::kFinalExp, "curve.final_exps", "final_exps"},
    {Op::kG2Prepared, "curve.g2_prepared_builds", "g2_prepared"},
    {Op::kMsmCall, "curve.msm_calls", "msm_calls"},
    {Op::kMsmTerm, "curve.msm_terms", "msm_terms"},
    {Op::kGtPow, "curve.gt_pows", "gt_pows"},
    {Op::kFp12Inverse, "curve.fp12_inverses", "fp12_inverses"},
    {Op::kFieldInversion, "curve.field_inversions", "field_inversions"},
    {Op::kGlvDecomposition, "curve.glv_decompositions", "glv_decompositions"},
    {Op::kGlsDecomposition, "curve.gls_decompositions", "gls_decompositions"},
    {Op::kFixedBaseMul, "curve.fixed_base_muls", "fixed_base_muls"},
}};

void note(Op op, std::uint64_t n = 1);
/// Fast read of an op's always-on counter; tests diff it across a call to
/// pin how many of each op the call performs.
std::uint64_t op_count(Op op);

/// Per-thread crypto-op tally, indexed by Op. Spans snapshot it at open and
/// diff at close; crypto work and the span observing it share a thread by
/// construction (VerifyPool jobs run their own spans on the worker).
using CryptoTally = std::array<std::uint64_t, kOpCount>;

// --- events and spans -----------------------------------------------------

struct TraceArg {
  const char* key = nullptr;
  std::uint64_t value = 0;
};

/// One recorded event, already flattened to Chrome trace_event semantics.
struct TraceEvent {
  /// A delta per kOps row plus one explicit arg (a shard tick's `shard`).
  static constexpr std::size_t kMaxArgs = kOpCount + 1;

  const char* name = nullptr;
  const char* cat = nullptr;
  char ph = 'X';            // 'X' span, 'i' instant, 'b'/'e' async pair
  std::uint64_t ts_us = 0;  // wall clock (pid 1) or sim time (pid 2)
  std::uint64_t dur_us = 0; // 'X' only
  std::uint32_t pid = 1;    // 1 = wall-clock track, 2 = simulator-time track
  std::uint32_t tid = 0;
  std::uint64_t id = 0;     // async correlation ('b'/'e')
  std::size_t nargs = 0;
  TraceArg args[kMaxArgs];

  void add_arg(const char* key, std::uint64_t value) {
    if (nargs < kMaxArgs) args[nargs++] = {key, value};
  }
};

/// Appends one event as a JSON object (no trailing newline) — the shared
/// serializer behind chrome_json(), jsonl(), and the streaming sink.
void append_event_json(std::string& out, const TraceEvent& e);

/// Collects events from every thread; export at end of run. Recording is a
/// short mutex-guarded vector push per completed span — spans close at the
/// granularity of pairing work (milliseconds), so contention is noise.
class Tracer {
 public:
  static Tracer& global();

  static constexpr std::uint32_t kWallPid = 1;
  static constexpr std::uint32_t kSimPid = 2;

  void record(TraceEvent event);  // fills tid for the calling thread
  /// Instant event on the wall-clock track.
  void instant(const char* name, const char* cat);
  /// Instant event on the simulator-time track.
  void instant_at(const char* name, const char* cat, std::uint64_t sim_us,
                  std::initializer_list<TraceArg> args = {});
  /// Async span on the simulator-time track, correlated by (cat, id).
  void async_begin(const char* name, const char* cat, std::uint64_t id,
                   std::uint64_t sim_us,
                   std::initializer_list<TraceArg> args = {});
  void async_end(const char* name, const char* cat, std::uint64_t id,
                 std::uint64_t sim_us,
                 std::initializer_list<TraceArg> args = {});

  std::size_t event_count() const;
  /// Snapshot of the recorded events (tests).
  std::vector<TraceEvent> events() const;
  void clear();

  /// Chrome trace_event JSON ("traceEvents" array object format; load via
  /// chrome://tracing or https://ui.perfetto.dev).
  std::string chrome_json() const;
  /// One JSON object per line, same fields — the grep/jq-friendly log.
  std::string jsonl() const;
  bool write_chrome(const std::string& path) const;
  bool write_jsonl(const std::string& path) const;

  // --- streaming (bounded memory; docs/OBSERVABILITY.md §3.4) -------------
  /// Streams every SUBSEQUENT event to `path` as JSONL instead of
  /// retaining it: event_count()/events()/the batch exporters see only
  /// events recorded outside the streaming window, so trace memory stays
  /// bounded however long the run. Events already retained are untouched.
  /// Returns false if the file cannot be opened.
  bool stream_to(const std::string& path, StreamSinkOptions options = {});
  /// Flushes and closes the stream; returns false if any write failed.
  bool stop_streaming();
  bool streaming() const;
  /// Events written through the active (or last) stream.
  std::uint64_t streamed_event_count() const;

 private:
  std::uint32_t tid_for_current_thread();

  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::unique_ptr<JsonlStreamSink> sink_;
  std::uint64_t streamed_events_ = 0;
  std::uint32_t next_tid_ = 1;
};

#ifdef PEACE_OBS_DISABLED

/// Compiled-out span: every member folds to nothing.
class Span {
 public:
  explicit Span(const char*, const char* = "crypto", Histogram* = nullptr) {}
  bool active() const { return false; }
  void arg(const char*, std::uint64_t) {}
  std::uint64_t close() { return 0; }
};

#else

/// RAII wall-clock span. When tracing is enabled at construction it records
/// on destruction (or close()) a 'X' event carrying its duration, the
/// crypto-op delta observed on this thread while it was open (one arg per
/// kOps row — only nonzero deltas are attached), and any explicit args. An
/// optional histogram receives the duration in µs, sharing the span's clock
/// reads.
class Span {
 public:
  explicit Span(const char* name, const char* cat = "crypto",
                Histogram* hist = nullptr);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { close(); }

  bool active() const { return active_; }
  void arg(const char* key, std::uint64_t value) {
    if (active_) event_.add_arg(key, value);
  }
  /// Records now (idempotent); returns the duration in µs (0 if inactive).
  std::uint64_t close();

 private:
  bool active_ = false;
  std::uint64_t start_us_ = 0;
  CryptoTally start_tally_;
  Histogram* hist_ = nullptr;
  TraceEvent event_;
};

#endif  // PEACE_OBS_DISABLED

}  // namespace peace::obs
