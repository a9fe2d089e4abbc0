#pragma once

#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

#include "peace/messages.hpp"

namespace peace::proto {

/// The container behind every piece of handshake state (PROTOCOL.md §10.2):
/// an insertion-ordered map of at most `cap` (≥ 1) entries, each stamped
/// with its insertion time. Inserting a new key at the cap evicts the
/// oldest entry, in O(1); overwriting a key makes it the newest. `insert`
/// and `reap` return how many entries they removed, for the owner's
/// counters. The const lookups only read the index, so threads may share
/// them while no thread mutates. Not copyable: the index points into the
/// entry list.
template <typename K, typename V>
class BoundedMap {
 public:
  explicit BoundedMap(std::size_t cap) : cap_(cap) {
    if (cap_ == 0) throw Error("BoundedMap: cap must be at least 1");
  }
  BoundedMap(const BoundedMap&) = delete;
  BoundedMap& operator=(const BoundedMap&) = delete;
  BoundedMap(BoundedMap&&) = default;
  BoundedMap& operator=(BoundedMap&&) = default;

  /// Returns the number of entries evicted to make room (0 or 1).
  std::size_t insert(const K& key, V value, Timestamp now) {
    erase(key);
    const bool evict = index_.size() >= cap_;
    if (evict) {
      index_.erase(order_.front().key);
      order_.pop_front();
    }
    order_.push_back(Entry{key, std::move(value), now});
    index_.emplace(key, std::prev(order_.end()));
    return evict ? 1 : 0;
  }

  /// Drops every entry with `now - created > ttl` (one stamped after `now`
  /// never expires); returns how many.
  std::size_t reap(Timestamp now, Timestamp ttl) {
    const std::size_t before = order_.size();
    for (auto it = order_.begin(); it != order_.end();) {
      if (now >= it->created && now - it->created > ttl) {
        index_.erase(it->key);
        it = order_.erase(it);
      } else {
        ++it;
      }
    }
    return before - order_.size();
  }

  const V* find(const K& key) const {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->value;
  }
  V* find(const K& key) {
    return const_cast<V*>(std::as_const(*this).find(key));
  }
  bool contains(const K& key) const { return index_.contains(key); }

  bool erase(const K& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  std::size_t size() const { return index_.size(); }
  void clear() {
    index_.clear();
    order_.clear();
  }

 private:
  struct Entry {
    K key;
    V value;
    Timestamp created;
  };
  std::size_t cap_;
  std::list<Entry> order_;  // oldest first
  std::unordered_map<K, typename std::list<Entry>::iterator> index_;
};

}  // namespace peace::proto
