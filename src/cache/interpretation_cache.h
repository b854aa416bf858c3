#ifndef OPINEDB_CACHE_INTERPRETATION_CACHE_H_
#define OPINEDB_CACHE_INTERPRETATION_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "cache/sharded_lru.h"
#include "common/result.h"
#include "core/interpreter.h"
#include "embedding/phrase_rep.h"

namespace opinedb::cache {

/// Byte budget of the interpretation cache the engine builds: about 2.2k
/// entries at 48-dimension embeddings (ApproxBytes charges about 460
/// bytes per entry there). A constant, not a CacheConfig knob.
inline constexpr size_t kInterpretationCacheBytes = 1u << 20;  // 1 MiB.

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
/// epoch does not match is a miss and drops the stale entry. That is how
/// entries expire after AppendReviews, which bumps the epoch without
/// clearing: the next query of a predicate refills its entry. The
/// wholesale mutations (Reaggregate, OpenDatabase, InstallSummaries,
/// TrainMembership) clear the cache as well. Degraded interpretations
/// are never inserted.
///
/// Bounded: a ShardedLru (the same one ResultCache uses) evicts least
/// recently used entries once the resident entries' ApproxBytes charges
/// pass `byte_budget`, so serving a stream of fresh predicates cannot
/// grow memory without bound. Thread-safe; lookups copy the entry out,
/// so no references escape a shard lock.
class InterpretationCache {
 public:
  struct Entry {
    core::PredicateInterpretation interpretation;
    embedding::Vec rep;
    double sentiment = 0.0;
    uint64_t epoch = 0;
  };

  /// `num_shards` is clamped to at least 1 and fixed for the cache's
  /// lifetime; the engine uses the defaults, tests pass their own.
  /// `byte_budget` is split evenly across shards.
  explicit InterpretationCache(
      size_t num_shards = 16,
      size_t byte_budget = kInterpretationCacheBytes);

  /// Copies the entry for `key` into `*out` and returns true when
  /// present with a matching epoch; a hit makes the entry its shard's
  /// most recently used. A present-but-stale entry is a miss.
  bool Lookup(const std::string& key, uint64_t epoch, Entry* out);

  /// Inserts (or overwrites) the entry for `key` at `entry.epoch`, then
  /// evicts least recently used entries of its shard until the shard is
  /// within budget; returns how many were evicted. Callers must not
  /// insert degraded interpretations — the cache would happily serve
  /// them forever while the underlying fault is long gone.
  size_t Insert(const std::string& key, Entry entry);

  /// Drops every entry.
  void Clear();

  /// Resident entries across all shards.
  size_t size() const { return lru_.size(); }
  /// Sum of the resident entries' ApproxBytes charges (<= byte_budget()).
  size_t bytes() const { return lru_.bytes(); }
  size_t byte_budget() const { return lru_.byte_budget(); }

  /// Lock-striping width this cache was built with.
  size_t num_shards() const { return lru_.num_shards(); }

  uint64_t hits() const { return lru_.hits(); }
  uint64_t misses() const { return lru_.misses(); }
  uint64_t evictions() const { return lru_.evictions(); }

  /// The byte charge of one entry (key, atoms and embedding plus
  /// bookkeeping overhead) used for budget accounting.
  static size_t ApproxBytes(const std::string& key, const Entry& entry);

 private:
  friend Status SaveInterpretationCache(const InterpretationCache& cache,
                                        uint64_t epoch, std::ostream* out);

  ShardedLru<Entry> lru_;
};

/// Serializes the resident entries tagged with `epoch` (the engine's
/// current epoch; older entries are stale and would be served as
/// current once loaded) in a deterministic (key-sorted) line-oriented
/// text format — the "interp_cache" snapshot section payload.
/// Deterministic so save → open → save produces byte-identical
/// sections. Doubles are written with max_digits10, so a reloaded entry
/// is bit-exact.
Status SaveInterpretationCache(const InterpretationCache& cache,
                               uint64_t epoch, std::ostream* out);

/// Reads a payload written by SaveInterpretationCache into `cache`,
/// tagging every entry with `epoch` (the engine's post-open epoch). When
/// `accept` is set, every decoded entry must pass it. On any parse error
/// or rejected entry the cache is cleared and the error returned — a
/// half-loaded cache never serves. A section larger than the cache's
/// budget loads like any other stream of inserts: the LRU bound evicts
/// as it goes, and the later (key-sorted) entries stay resident.
Status LoadInterpretationCache(
    std::istream* in, uint64_t epoch, InterpretationCache* cache,
    const std::function<bool(const InterpretationCache::Entry&)>& accept =
        nullptr);

}  // namespace opinedb::cache

#endif  // OPINEDB_CACHE_INTERPRETATION_CACHE_H_
