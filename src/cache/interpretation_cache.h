#ifndef OPINEDB_CACHE_INTERPRETATION_CACHE_H_
#define OPINEDB_CACHE_INTERPRETATION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/interpreter.h"
#include "embedding/phrase_rep.h"

namespace opinedb::cache {

/// Memoizes the interpretation prologue of ExecuteQuery per (normalized
/// predicate text, epoch): the Fig. 5 cascade output plus the query
/// embedding and sentiment the scoring phase needs. Safe to key on
/// NormalizePredicate(text) because every downstream consumer of the
/// predicate (PhraseEmbedder::Represent, Analyzer::ScorePhrase,
/// Interpreter::Interpret, the BM25 text fallback) tokenizes it with the
/// lowercasing, punctuation-dropping Tokenizer first — two predicates
/// with the same normalization are indistinguishable to all of them.
///
/// Entries are tagged with the engine's cache epoch; a lookup whose
/// epoch does not match is a miss, and the engine clears the cache
/// wholesale on every epoch bump (Reaggregate / OpenDatabase /
/// TrainMembership). Degraded interpretations are never inserted.
///
/// Thread-safe: sharded shared_mutex maps, same discipline as
/// core::DegreeCache. Lookups copy the entry out, so no references
/// escape a shard lock.
class InterpretationCache {
 public:
  struct Entry {
    core::PredicateInterpretation interpretation;
    embedding::Vec rep;
    double sentiment = 0.0;
    uint64_t epoch = 0;
  };

  /// `num_shards` is clamped to at least 1; the count is fixed for the
  /// cache's lifetime (the engine rebuilds the layer to change it).
  explicit InterpretationCache(size_t num_shards = 16);
  InterpretationCache(const InterpretationCache&) = delete;
  InterpretationCache& operator=(const InterpretationCache&) = delete;

  /// Copies the entry for `key` into `*out` and returns true when
  /// present with a matching epoch. A present-but-stale entry is a miss
  /// (the engine clears on every bump, so staleness here means a racing
  /// reader loaded before the clear — the epoch tag is the backstop).
  bool Lookup(const std::string& key, uint64_t epoch, Entry* out) const;

  /// Inserts (or overwrites) the entry for `key`. Callers must not
  /// insert degraded interpretations — the cache would happily serve
  /// them forever while the underlying fault is long gone.
  void Insert(const std::string& key, Entry entry);

  /// Drops every entry (under all shard locks).
  void Clear();

  /// Snapshot of all resident keys (per-shard shared locks, key-sorted
  /// for determinism). The ingest path uses it to re-derive entries at
  /// the new epoch instead of dropping the warm set wholesale.
  std::vector<std::string> Keys() const;

  /// Resident entries across all shards.
  size_t size() const;

  /// Lock-striping width this cache was built with.
  size_t num_shards() const { return shards_.size(); }

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  friend Status SaveInterpretationCache(const InterpretationCache& cache,
                                        std::ostream* out);
  friend Status LoadInterpretationCache(
      std::istream* in, uint64_t epoch, InterpretationCache* cache,
      const std::function<bool(const Entry&)>& accept);

  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, Entry> map;
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;

  /// Sized once at construction; never resized (shards own mutexes).
  std::vector<Shard> shards_;
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
};

/// Serializes the resident entries in a deterministic (key-sorted)
/// line-oriented text format — the "interp_cache" snapshot section
/// payload. Deterministic so save → open → save produces byte-identical
/// sections. Doubles are written with max_digits10, so a reloaded entry
/// is bit-exact.
Status SaveInterpretationCache(const InterpretationCache& cache,
                               std::ostream* out);

/// Reads a payload written by SaveInterpretationCache into `cache`,
/// tagging every entry with `epoch` (the engine's post-open epoch). When
/// `accept` is set, every decoded entry must pass it. On any parse error
/// or rejected entry the cache is cleared and the error returned — a
/// half-loaded cache never serves.
Status LoadInterpretationCache(
    std::istream* in, uint64_t epoch, InterpretationCache* cache,
    const std::function<bool(const InterpretationCache::Entry&)>& accept =
        nullptr);

}  // namespace opinedb::cache

#endif  // OPINEDB_CACHE_INTERPRETATION_CACHE_H_
