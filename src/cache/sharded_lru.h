#ifndef OPINEDB_CACHE_SHARDED_LRU_H_
#define OPINEDB_CACHE_SHARDED_LRU_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace opinedb::cache {

/// FNV-1a 64-bit fingerprint of a cache key: ShardedLru's shard selector.
inline uint64_t Fingerprint(std::string_view key) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// The caching layers' one eviction implementation: a sharded,
/// byte-budgeted LRU map from string keys to epoch-tagged values.
///
/// A key lives in shard Fingerprint(key) % num_shards. Each shard owns
/// byte_budget / num_shards bytes and its own mutex + LRU list, so
/// eviction pressure in one shard never touches entries in another, and
/// the resident total never exceeds the budget. The caller supplies each
/// value's byte charge; a value charged more than one shard's budget is
/// never cached. A lookup is exclusive per shard (a hit moves the entry
/// to the front of its list) and copies the value out, so no reference
/// escapes the lock. A lookup at another epoch is a miss and drops the
/// stale entry.
template <typename Value>
class ShardedLru {
 public:
  /// `num_shards` is clamped to at least 1; the count is fixed for the
  /// cache's lifetime.
  ShardedLru(size_t byte_budget, size_t num_shards)
      : byte_budget_(byte_budget),
        shard_budget_(byte_budget / std::max<size_t>(1, num_shards)),
        shards_(std::max<size_t>(1, num_shards)) {}
  ShardedLru(const ShardedLru&) = delete;
  ShardedLru& operator=(const ShardedLru&) = delete;

  /// Copies the value for `key` into `*out` and returns true on an
  /// epoch-matching hit, which also makes it the shard's most recent.
  bool Lookup(const std::string& key, uint64_t epoch, Value* out) {
    Shard& shard = ShardFor(key);
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(key);
      if (it != shard.map.end()) {
        if (it->second.epoch == epoch) {
          shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
          *out = it->second.value;
          hits_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
        EraseLocked(&shard, it);
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Inserts (or replaces, without charging twice) the value for `key`
  /// as the shard's most recent, then evicts from the shard's LRU tail
  /// until it is back under budget. Returns the number of entries
  /// evicted (0 when the value was too large to cache at all).
  size_t Insert(const std::string& key, uint64_t epoch, Value value,
                size_t bytes) {
    if (bytes > shard_budget_) return 0;  // Never cacheable.
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) EraseLocked(&shard, it);
    shard.lru.push_front(key);
    Entry entry;
    entry.value = std::move(value);
    entry.epoch = epoch;
    entry.bytes = bytes;
    entry.lru_it = shard.lru.begin();
    shard.map.emplace(key, std::move(entry));
    shard.bytes += bytes;
    bytes_.fetch_add(bytes, std::memory_order_relaxed);
    size_t evicted = 0;
    while (shard.bytes > shard_budget_ && shard.lru.size() > 1) {
      EraseLocked(&shard, shard.map.find(shard.lru.back()));
      ++evicted;
    }
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    return evicted;
  }

  /// Drops every entry.
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      bytes_.fetch_sub(shard.bytes, std::memory_order_relaxed);
      shard.bytes = 0;
      shard.lru.clear();
      shard.map.clear();
    }
  }

  /// Calls fn(key, value) for every resident entry, shard by shard,
  /// under that shard's lock. Touches no recency.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
        fn(*it, shard.map.find(*it)->second.value);
      }
    }
  }

  size_t size() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t byte_budget() const { return byte_budget_; }
  size_t num_shards() const { return shards_.size(); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Value value;
    uint64_t epoch = 0;
    size_t bytes = 0;
    /// Position in the shard's LRU list (front = most recent).
    std::list<std::string>::iterator lru_it;
  };

  struct Shard {
    mutable std::mutex mu;
    std::list<std::string> lru;
    std::unordered_map<std::string, Entry> map;
    size_t bytes = 0;
  };

  using MapIterator = typename std::unordered_map<std::string, Entry>::iterator;

  Shard& ShardFor(const std::string& key) {
    return shards_[Fingerprint(key) % shards_.size()];
  }

  /// Erases `it` from `shard` and updates byte accounting. Requires
  /// shard->mu held.
  void EraseLocked(Shard* shard, MapIterator it) {
    shard->bytes -= it->second.bytes;
    bytes_.fetch_sub(it->second.bytes, std::memory_order_relaxed);
    shard->lru.erase(it->second.lru_it);
    shard->map.erase(it);
  }

  const size_t byte_budget_;
  const size_t shard_budget_;
  /// Sized once at construction; never resized (shards own mutexes).
  std::vector<Shard> shards_;
  std::atomic<size_t> bytes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace opinedb::cache

#endif  // OPINEDB_CACHE_SHARDED_LRU_H_
