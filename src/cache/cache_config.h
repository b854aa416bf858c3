#ifndef OPINEDB_CACHE_CACHE_CONFIG_H_
#define OPINEDB_CACHE_CACHE_CONFIG_H_

#include <cstddef>

namespace opinedb::cache {

/// Engine-level caching knobs (see docs/CACHING.md). Both layers default
/// to OFF: caching is an opt-in serving optimization, and the default
/// engine keeps the exact pre-cache execution profile (trace goldens,
/// metric counts) of earlier releases.
struct CacheConfig {
  /// Memoize the Fig. 5 interpretation cascade per (normalized predicate
  /// text, epoch), in an LRU bounded by the fixed
  /// kInterpretationCacheBytes budget. Also persisted as the
  /// "interp_cache" snapshot section so a reopened database serves warm.
  bool enable_interpretation = false;
  /// Memoize full query results per (canonical query key, epoch) in a
  /// sharded, byte-budgeted LRU.
  bool enable_results = false;
  /// Total byte budget of the result cache, split evenly across its 8
  /// lock-striping shards. Entries larger than one shard's budget are
  /// never cached.
  size_t result_cache_bytes = 4u << 20;  // 4 MiB.
};

}  // namespace opinedb::cache

#endif  // OPINEDB_CACHE_CACHE_CONFIG_H_
