// Fixed worker pool for pairing-heavy batch work, and the group-signature
// batch check the router's M.2 pipeline runs on it. Pooled results stay
// bit-identical to sequential execution regardless of thread count. The
// metro driver runs its shard ticks and the metro_city cohort's
// enrollment on a pool of its own (docs/ARCHITECTURE.md §3).
//
// verify_group_signatures decides how a batch is verified: the
// embarrassingly-parallel groupsig::BatchVerifier::prepare(i) calls, each
// fold's fixed list of independent jobs (the G1 sum, the G2 sum's parts,
// Eq.2's left side and its R2-power parts; a list's shape depends only on
// the fold's items, never on the thread count) and the survivors'
// revocation checks (one job per signature, never split across workers)
// fan out here, while the bisection order stays sequential on the calling
// thread. It also emits the pool.* telemetry, so pool.* counts verify
// batches only. Threading model of its caller: a sequential
// precheck pass feeds the check, and a sequential in-order apply pass
// consumes its verdicts — all rng draws and state mutation happen in the
// sequential passes, which is what keeps results independent of the worker
// count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "groupsig/groupsig.hpp"

namespace peace::proto {

/// A fixed pool of std::jthread workers that executes indexed batch jobs.
/// Index distribution is a single atomic fetch_add over [0, count) — no
/// per-job queue nodes or locks on the hot path; the mutex/condvar pair is
/// only used to park idle workers between batches and to signal completion.
/// The calling thread participates in the batch, so a pool built with
/// `threads` runs at most `threads` jobs concurrently.
///
/// Nesting: a job may run a batch on a *different* pool (a metro shard
/// tick runs its routers' verify batches), never on the pool it runs in.
class VerifyPool {
 public:
  /// `threads` <= 1 spawns no workers: run() then executes inline.
  explicit VerifyPool(unsigned threads);
  VerifyPool(const VerifyPool&) = delete;
  VerifyPool& operator=(const VerifyPool&) = delete;

  unsigned threads() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Invokes body(i) for every i in [0, count), distributing indices over
  /// the workers plus the calling thread; returns once all completed.
  /// `body` must tolerate concurrent invocation (distinct indices). If any
  /// invocation throws, every remaining index still runs and the first
  /// exception (in completion order) is rethrown here after the batch has
  /// fully drained — run() never returns or throws mid-batch.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  /// Per-batch state, heap-allocated and shared with every worker that wakes
  /// for it. A worker that reads the batch for generation N but is
  /// descheduled until generation N+1 has been published only ever touches
  /// its own (kept-alive) Batch — never a newer batch's indices or a
  /// destroyed caller frame.
  struct Batch {
    std::function<void(std::size_t)> body;
    std::size_t count = 0;
    std::atomic<std::size_t> next_index{0};
    std::size_t completed = 0;          // guarded by the pool mutex
    std::exception_ptr error;           // first failure; guarded by mutex
  };

  void worker_loop(std::stop_token st);
  /// Claims and runs indices until the batch is exhausted; returns how many
  /// this thread completed. Catches per-index exceptions into `error`.
  std::size_t drain(Batch& batch, std::exception_ptr& error);
  /// Folds one participant's completions (and first error) into the batch
  /// under the pool mutex; signals cv_done_ when the batch fully drains.
  void finish(const std::shared_ptr<Batch>& batch, std::size_t done,
              std::exception_ptr error);

  std::mutex mutex_;
  std::condition_variable_any cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;  // bumps once per batch; wakes workers
  std::shared_ptr<Batch> current_batch_;  // guarded by mutex_
  std::vector<std::jthread> workers_;
};

/// Outcome of one group signature under verify_group_signatures.
enum class SigVerdict : std::uint8_t { kOk, kBadProof, kRevoked };

struct SigBatch {
  std::vector<SigVerdict> verdicts;  // one per item, positionally
  bool folded = false;  // n > 1: bad proofs were attributed by bisection
};

/// Step 3.3 for item `i` once its proof holds: true when the signer is
/// revoked. `bases` are the ones its proof was checked over. Runs on
/// whichever thread claimed the item.
using RevokedCheck =
    std::function<bool(std::size_t i, const curve::SignatureBases& bases)>;

/// Paper steps 3.2 + 3.3 for a batch of group signatures, verdicts
/// bit-identical to checking each item on its own. One item runs
/// verify_proof; more fold into a BatchVerifier whose prepare() calls and
/// fold jobs fan out over `pool` (null: inline); its finalize() runs on
/// the calling thread, never inside a job. The survivors' revocation
/// checks fan out too, one job per survivor, each handed the bases its
/// proof check derived (on the worker that prepared it) rather than
/// hashing them again.
/// `item_ops` (one per item) gets per-item proof costs, `batch_ops` the
/// fold's batch-global costs.
SigBatch verify_group_signatures(
    const groupsig::PreparedGroupPublicKey& pgpk, BytesView salt,
    std::span<const groupsig::BatchItem> items, VerifyPool* pool,
    std::span<groupsig::OpCounters* const> item_ops,
    groupsig::OpCounters& batch_ops, const RevokedCheck& revoked);

}  // namespace peace::proto
