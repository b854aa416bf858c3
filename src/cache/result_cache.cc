#include "cache/result_cache.h"

namespace opinedb::cache {

size_t ResultCache::ApproxBytes(const std::string& key,
                                const CachedResult& value) {
  // Flat struct sizes plus owned heap payloads; the fixed 128-byte
  // overhead stands in for the map node, LRU node and allocator slack so
  // many tiny entries cannot blow past the budget "for free".
  size_t total = 128 + key.size() + sizeof(CachedResult);
  for (const auto& r : value.results) {
    total += sizeof(core::RankedResult) + r.entity_name.size();
  }
  for (const auto& i : value.interpretations) {
    total += sizeof(core::PredicateInterpretation) +
             i.atoms.size() * sizeof(core::AtomInterpretation);
  }
  return total;
}

}  // namespace opinedb::cache
