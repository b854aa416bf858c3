#ifndef OPINEDB_CACHE_RESULT_CACHE_H_
#define OPINEDB_CACHE_RESULT_CACHE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cache/sharded_lru.h"
#include "core/engine.h"

namespace opinedb::cache {

/// The cached portion of a QueryResult: the fields that are a pure
/// function of (query, database state at one epoch). Stats, trace and
/// plan_text are per-execution observability and are rebuilt fresh on a
/// hit; `plan` records the shape that produced the entry at fill time
/// and `watermark` the entities that fill scored (QueryResult::watermark).
struct CachedResult {
  std::vector<core::RankedResult> results;
  std::vector<core::PredicateInterpretation> interpretations;
  core::PlanKind plan = core::PlanKind::kDenseScan;
  size_t watermark = 0;
};

/// Sharded, byte-budgeted LRU over full query results (a ShardedLru),
/// keyed by the planner's canonical query key (see
/// core::CanonicalQueryKey) plus the engine's cache epoch. The engine
/// clears the cache wholesale on every epoch bump; the per-entry epoch
/// tag makes a stale entry a miss even if a clear raced a reader.
/// Entries larger than one shard's budget are never cached.
class ResultCache {
 public:
  /// `num_shards` is clamped to at least 1; the count is fixed for the
  /// cache's lifetime (the engine rebuilds the layer to change it).
  explicit ResultCache(size_t byte_budget, size_t num_shards = 8)
      : lru_(byte_budget, num_shards) {}

  /// Copies the cached result for `key` into `*out` and returns true on
  /// an epoch-matching hit (which also moves the entry to the front of
  /// its shard's LRU list).
  bool Lookup(const std::string& key, uint64_t epoch, CachedResult* out) {
    return lru_.Lookup(key, epoch, out);
  }

  /// Inserts (or replaces) the entry for `key`, then evicts from the
  /// shard's LRU tail until the shard is back under budget. Returns the
  /// number of entries evicted (0 when the value was too large to cache
  /// at all).
  size_t Insert(const std::string& key, uint64_t epoch, CachedResult value) {
    const size_t bytes = ApproxBytes(key, value);
    return lru_.Insert(key, epoch, std::move(value), bytes);
  }

  /// Drops every entry (the wholesale epoch-bump invalidation).
  void Clear() { lru_.Clear(); }

  size_t size() const { return lru_.size(); }
  size_t bytes() const { return lru_.bytes(); }
  size_t byte_budget() const { return lru_.byte_budget(); }
  size_t num_shards() const { return lru_.num_shards(); }

  uint64_t hits() const { return lru_.hits(); }
  uint64_t misses() const { return lru_.misses(); }
  uint64_t evictions() const { return lru_.evictions(); }

  /// FNV-1a 64-bit fingerprint of a canonical key — the shard selector,
  /// also exported as the root query span's `query_fingerprint`
  /// attribute so traces of the same logical query correlate.
  static uint64_t Fingerprint(std::string_view key) {
    return cache::Fingerprint(key);
  }

  /// The byte charge of one entry (key + results + interpretations +
  /// bookkeeping overhead) used for budget accounting.
  static size_t ApproxBytes(const std::string& key,
                            const CachedResult& value);

 private:
  ShardedLru<CachedResult> lru_;
};

}  // namespace opinedb::cache

#endif  // OPINEDB_CACHE_RESULT_CACHE_H_
