#include "cache/interpretation_cache.h"

#include <utility>

namespace opinedb::cache {

InterpretationCache::InterpretationCache(size_t num_shards,
                                         size_t byte_budget)
    : lru_(byte_budget, num_shards) {}

size_t InterpretationCache::ApproxBytes(const std::string& key,
                                        const Entry& entry) {
  // Same doctrine as ResultCache::ApproxBytes: flat struct size plus the
  // owned heap payloads, and a fixed 128 bytes for the map node, LRU
  // node and allocator slack.
  return 128 + key.size() + sizeof(Entry) +
         entry.interpretation.atoms.size() *
             sizeof(core::AtomInterpretation) +
         entry.rep.size() * sizeof(float);
}

bool InterpretationCache::Lookup(const std::string& key, uint64_t epoch,
                                 Entry* out) {
  return lru_.Lookup(key, epoch, out);
}

size_t InterpretationCache::Insert(const std::string& key, Entry entry) {
  const size_t bytes = ApproxBytes(key, entry);
  const uint64_t epoch = entry.epoch;
  return lru_.Insert(key, epoch, std::move(entry), bytes);
}

void InterpretationCache::Clear() { lru_.Clear(); }

}  // namespace opinedb::cache
