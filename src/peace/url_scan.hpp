// Pool-sharded URL scanning: splits one large revocation scan (one
// signature against many tokens) across VerifyPool workers, with
// cross-shard early exit on the first match.
//
// The verdict is bit-identical to the sequential batched scan
// (groupsig::scan_tokens): "revoked" means SOME token matches Eq.3, and
// set membership is independent of evaluation order, so sharding and early
// exit can never flip an accept/reject decision. What early exit DOES make
// timing-dependent is the amount of work performed on a revoked signature
// — op counters over a sharded scan that hits are therefore a lower bound,
// not a reproducible constant (docs/OBSERVABILITY.md §1 lists the
// exemption). Clean scans (no match) always run every token on every
// shard, so their counts stay deterministic.
//
// Sharding must only be requested from a SEQUENTIAL context: VerifyPool
// batches do not nest, so a revocation check already running on a pool
// worker passes pool == nullptr and falls back to the sequential batched
// scan. verify_group_signatures enforces this by handing the pool only to
// a revocation check that runs on the calling thread.
#pragma once

#include <span>

#include "groupsig/groupsig.hpp"
#include "peace/verify_pool.hpp"

namespace peace::proto {

/// URLs below this size run sequentially even when a pool is offered: the
/// per-token cost is ~2 ms, so a small scan finishes before sharding pays
/// for itself, and keeping small scans sequential keeps their op counters
/// deterministic for the pooled-equals-sequential telemetry contract.
constexpr std::size_t kMinShardedUrlScan = 256;

/// True if some token of `url` matches the signer of `sig` (i.e. the signer
/// is revoked). With a null `pool` — or a URL shorter than
/// kMinShardedUrlScan — this is exactly groupsig::scan_tokens. Otherwise
/// the URL is split into contiguous chunks fanned out over the pool; each
/// chunk runs the batched scan blockwise, polling a shared first-hit flag
/// between blocks and between hard parts so every worker stops promptly
/// once any shard has matched.
bool url_scan_revoked(const groupsig::PreparedBases& prepared,
                      const groupsig::Signature& sig,
                      std::span<const groupsig::RevocationToken> url,
                      VerifyPool* pool,
                      groupsig::OpCounters* ops = nullptr);

}  // namespace peace::proto
