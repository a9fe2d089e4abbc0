#include "peace/revoke/shared.hpp"

#include <algorithm>

namespace peace::revoke {

namespace {

/// Applies a delta's URL edit to a parsed-token vector, mirroring exactly
/// how RevocationStore edits the byte entries (std::remove keeps order;
/// appends deduplicate), so the vector stays aligned with the list.
void edit_tokens(std::vector<RevocationToken>& tokens,
                 const proto::RLDelta& delta) {
  for (const Bytes& gone : delta.removed) {
    const RevocationToken t = RevocationToken::from_bytes(gone);
    tokens.erase(std::remove(tokens.begin(), tokens.end(), t), tokens.end());
  }
  for (const Bytes& entry : delta.added) {
    const RevocationToken t = RevocationToken::from_bytes(entry);
    if (std::find(tokens.begin(), tokens.end(), t) == tokens.end())
      tokens.push_back(t);
  }
}

std::vector<RevocationToken> parse_tokens(
    const proto::SignedRevocationList& url) {
  std::vector<RevocationToken> tokens;
  tokens.reserve(url.entries.size());
  for (const Bytes& e : url.entries)
    tokens.push_back(RevocationToken::from_bytes(e));
  return tokens;
}

/// Installs a new full URL into `next` (already a copy of `prev`): reparses
/// the token vector and, in epoch mode, diffs the carried index instead of
/// rebuilding it — only genuinely new tokens pay a pairing.
void refresh_url(RevocationSnapshot& next, const RevocationSnapshot& prev,
                 const proto::SignedRevocationList& url,
                 SharedRevocationStats& stats) {
  next.url = url;
  next.url_tokens = parse_tokens(url);
  if (prev.epoch == 0) return;
  auto index = std::make_shared<groupsig::EpochRevocationIndex>(*prev.index);
  for (const RevocationToken& t : prev.url_tokens)
    if (std::find(next.url_tokens.begin(), next.url_tokens.end(), t) ==
        next.url_tokens.end())
      index->remove_token(t);
  for (const RevocationToken& t : next.url_tokens)
    if (index->add_token(t)) ++stats.tokens_retagged;
  next.index = std::move(index);
}

}  // namespace

SharedRevocationState::SharedRevocationState(curve::G1 authority)
    : crl_store_(ListKind::kCrl, authority),
      url_store_(ListKind::kUrl, authority),
      head_(std::make_shared<const RevocationSnapshot>()) {}

std::shared_ptr<const RevocationSnapshot> SharedRevocationState::snapshot()
    const {
  std::lock_guard lock(head_mutex_);
  return head_;
}

void SharedRevocationState::publish(
    std::shared_ptr<const RevocationSnapshot> next) {
  {
    std::lock_guard lock(head_mutex_);
    head_.swap(next);
  }
  ++stats_.snapshots_published;
}  // the replaced snapshot is released here, outside head_mutex_

void SharedRevocationState::install_full(
    const proto::SignedRevocationList& crl,
    const proto::SignedRevocationList& url) {
  std::lock_guard lock(mutex_);
  // Validate both lists before committing either, preserving the historical
  // all-or-nothing install_revocation_lists contract and its exact errors.
  if (!curve::ecdsa_verify(crl_store_.authority(), crl.signed_payload(),
                           crl.signature) ||
      !curve::ecdsa_verify(url_store_.authority(), url.signed_payload(),
                           url.signature))
    throw Error("router: revocation list not signed by NO");
  if (crl.version < crl_store_.version() || url.version < url_store_.version())
    throw Error("router: stale revocation list");
  crl_store_.install_full(crl);
  url_store_.install_full(url);

  const auto prev = snapshot();
  auto next = std::make_shared<RevocationSnapshot>(*prev);
  next->crl = crl_store_.list();
  refresh_url(*next, *prev, url_store_.list(), stats_);
  ++stats_.full_installs;
  publish(std::move(next));
}

RevocationStore::InstallResult SharedRevocationState::install_one(
    ListKind kind, const proto::SignedRevocationList& full) {
  std::lock_guard lock(mutex_);
  RevocationStore& store = kind == ListKind::kCrl ? crl_store_ : url_store_;
  const auto result = store.install_full(full);
  if (result != RevocationStore::InstallResult::kInstalled) return result;
  const auto prev = snapshot();
  auto next = std::make_shared<RevocationSnapshot>(*prev);
  if (kind == ListKind::kCrl)
    next->crl = store.list();
  else
    refresh_url(*next, *prev, store.list(), stats_);
  ++stats_.full_installs;
  publish(std::move(next));
  return result;
}

DeltaResult SharedRevocationState::apply_delta(const proto::RLDelta& delta) {
  std::lock_guard lock(mutex_);
  RevocationStore& store =
      delta.kind == ListKind::kCrl ? crl_store_ : url_store_;
  const DeltaResult result = store.apply_delta(delta);
  switch (result) {
    case DeltaResult::kApplied:
      ++stats_.deltas_applied;
      break;
    case DeltaResult::kStale:
      ++stats_.deltas_stale;
      return result;
    case DeltaResult::kGap:
      ++stats_.deltas_gap;
      return result;
    default:
      ++stats_.deltas_rejected;
      return result;
  }

  // Successor snapshot: copy the previous one (cheap — lists and token
  // vector; the index is carried by pointer) and edit only what changed.
  const auto prev = snapshot();
  auto next = std::make_shared<RevocationSnapshot>(*prev);
  if (delta.kind == ListKind::kCrl) {
    next->crl = store.list();
  } else {
    next->url = store.list();
    edit_tokens(next->url_tokens, delta);
    if (next->index != nullptr) {
      auto index =
          std::make_shared<groupsig::EpochRevocationIndex>(*next->index);
      for (const Bytes& gone : delta.removed)
        index->remove_token(RevocationToken::from_bytes(gone));
      for (const Bytes& entry : delta.added)
        if (index->add_token(RevocationToken::from_bytes(entry)))
          ++stats_.tokens_retagged;
      next->index = std::move(index);
    }
  }
  publish(std::move(next));
  return result;
}

void SharedRevocationState::set_epoch(const groupsig::GroupPublicKey& gpk,
                                      groupsig::Epoch epoch) {
  std::lock_guard lock(mutex_);
  roll_locked(gpk, epoch);
}

void SharedRevocationState::advance_epoch(const groupsig::GroupPublicKey& gpk,
                                          groupsig::Epoch epoch) {
  std::lock_guard lock(mutex_);
  if (epoch >= snapshot()->epoch) roll_locked(gpk, epoch);
}

void SharedRevocationState::roll_locked(const groupsig::GroupPublicKey& gpk,
                                        groupsig::Epoch epoch) {
  const auto prev = snapshot();
  if (prev->epoch == epoch &&
      (epoch == 0 || prev->index->covers(gpk, epoch)))
    return;
  auto next = std::make_shared<RevocationSnapshot>(*prev);
  next->epoch = epoch;
  if (epoch == 0) {
    next->index = nullptr;
  } else if (prev->index != nullptr) {
    auto index = std::make_shared<groupsig::EpochRevocationIndex>(*prev->index);
    index->roll_epoch(gpk, epoch);
    stats_.tokens_retagged += index->size();
    next->index = std::move(index);
  } else {
    next->index = std::make_shared<groupsig::EpochRevocationIndex>(
        gpk, epoch, next->url_tokens);
    stats_.tokens_retagged += next->url_tokens.size();
  }
  ++stats_.epoch_rolls;
  publish(std::move(next));
}

std::uint64_t SharedRevocationState::crl_version() const {
  std::lock_guard lock(mutex_);
  return crl_store_.version();
}

std::uint64_t SharedRevocationState::url_version() const {
  std::lock_guard lock(mutex_);
  return url_store_.version();
}

Bytes SharedRevocationState::state_hash(ListKind kind) const {
  std::lock_guard lock(mutex_);
  return kind == ListKind::kCrl ? crl_store_.state_hash()
                                : url_store_.state_hash();
}

SharedRevocationStats SharedRevocationState::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace peace::revoke
