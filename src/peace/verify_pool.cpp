#include "peace/verify_pool.hpp"

#include <optional>

#include "obs/trace.hpp"

namespace peace::proto {

VerifyPool::VerifyPool(unsigned threads) {
  if (threads <= 1) return;
  workers_.reserve(threads - 1);
  for (unsigned i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this](std::stop_token st) { worker_loop(st); });
}

std::size_t VerifyPool::drain(Batch& batch, std::exception_ptr& error) {
  std::size_t done = 0;
  for (;;) {
    const std::size_t i =
        batch.next_index.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch.count) return done;
    // Exception barrier: a throwing body (e.g. an Error escaping groupsig
    // code) must neither std::terminate a worker thread nor let run()
    // unwind while other participants still execute the body. The index
    // still counts as completed so the batch drains; the first recorded
    // error is rethrown by run() once everyone has parked.
    try {
      batch.body(i);
    } catch (...) {
      if (error == nullptr) error = std::current_exception();
    }
    ++done;
  }
}

void VerifyPool::finish(const std::shared_ptr<Batch>& batch, std::size_t done,
                        std::exception_ptr error) {
  std::lock_guard lock(mutex_);
  batch->completed += done;
  if (error != nullptr && batch->error == nullptr)
    batch->error = std::move(error);
  if (batch->completed == batch->count) cv_done_.notify_all();
}

void VerifyPool::worker_loop(std::stop_token st) {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, st, [&] { return generation_ != seen; });
      if (st.stop_requested()) return;
      seen = generation_;
      batch = current_batch_;
    }
    // From here on only the shared Batch is touched: even if this worker is
    // descheduled and run() returns (the batch's indices all claimed by
    // others), the shared_ptr keeps this generation's state alive, and a
    // newer batch has its own next_index — a straggler can neither claim a
    // new batch's index nor invoke a destroyed body.
    std::exception_ptr error;
    const std::size_t done = drain(*batch, error);
    finish(batch, done, std::move(error));
  }
}

void VerifyPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  auto batch = std::make_shared<Batch>();
  batch->body = body;  // copied: workers never see the caller's temporary
  batch->count = count;
  {
    std::lock_guard lock(mutex_);
    current_batch_ = batch;
    ++generation_;
  }
  cv_start_.notify_all();
  std::exception_ptr error;
  const std::size_t done = drain(*batch, error);
  finish(batch, done, std::move(error));
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [&] { return batch->completed == batch->count; });
  // completed == count implies every claimed index has run and been
  // accounted; stragglers that wake later find the batch exhausted and only
  // touch its heap state, so unwinding the caller's frame now is safe.
  if (batch->error != nullptr) std::rethrow_exception(batch->error);
}

namespace {

/// body(i) for i in [0, count): on the pool's workers for more than one
/// job, else inline. Only a pooled dispatch emits pool.*, which describe
/// execution shape (who ran what, for how long) and so, unlike the
/// protocol counters, differ between pooled and sequential runs. Each
/// pool.job span runs on whichever thread claimed the job, so traces show
/// per-worker occupancy (by tid) and each job's crypto-op attribution.
void run_jobs(VerifyPool* pool, std::size_t count,
              const std::function<void(std::size_t)>& body) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  static obs::Counter& batches =
      obs::Registry::global().counter("pool.batches");
  static obs::Counter& jobs = obs::Registry::global().counter("pool.jobs");
  static obs::Histogram& job_hist =
      obs::Registry::global().histogram("pool.job_us");
  batches.add(1);
  obs::Span span("pool.batch", "pool");
  span.arg("jobs", count);
  span.arg("workers", pool->threads());
  pool->run(count, [&](std::size_t i) {
    jobs.add(1);
    obs::Span job("pool.job", "pool", &job_hist);
    job.arg("index", i);
    body(i);
  });
}

}  // namespace

SigBatch verify_group_signatures(
    const groupsig::PreparedGroupPublicKey& pgpk, BytesView salt,
    std::span<const groupsig::BatchItem> items, VerifyPool* pool,
    std::span<groupsig::OpCounters* const> item_ops,
    groupsig::OpCounters& batch_ops, const RevokedCheck& revoked) {
  SigBatch out;
  out.verdicts.assign(items.size(), SigVerdict::kBadProof);
  std::vector<std::size_t> survivors;
  curve::SignatureBases single_bases;
  std::optional<groupsig::BatchVerifier> verifier;
  if (items.size() == 1) {
    if (groupsig::verify_proof(pgpk, items[0].message, *items[0].sig,
                               item_ops[0], items[0].bases, &single_bases))
      survivors.push_back(0);
  } else if (items.size() > 1) {
    // Per-item preparation fans out. The bisection runs here, and each of
    // its folds hands its fixed job list back to the pool (one final
    // exponentiation when every proof holds).
    out.folded = true;
    verifier.emplace(pgpk, items, salt);
    run_jobs(pool, items.size(),
             [&](std::size_t i) { verifier->prepare(i, item_ops[i]); });
    const std::vector<char>& ok = verifier->finalize(
        &batch_ops, [pool](std::size_t count,
                           const std::function<void(std::size_t)>& body) {
          run_jobs(pool, count, body);
        });
    for (std::size_t i = 0; i < items.size(); ++i)
      if (ok[i]) survivors.push_back(i);
  }
  run_jobs(pool, survivors.size(), [&](std::size_t k) {
    const std::size_t i = survivors[k];
    const curve::SignatureBases& bases =
        verifier ? verifier->bases(i) : single_bases;
    out.verdicts[i] =
        revoked(i, bases) ? SigVerdict::kRevoked : SigVerdict::kOk;
  });
  return out;
}

}  // namespace peace::proto
