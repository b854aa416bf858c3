#ifndef OPINEDB_CORE_MARKER_INDUCTION_H_
#define OPINEDB_CORE_MARKER_INDUCTION_H_

#include <string>
#include <vector>

#include "core/schema.h"
#include "embedding/phrase_rep.h"
#include "sentiment/analyzer.h"

namespace opinedb::core {

/// Automatic marker suggestion (Section 4.2.1).
///
/// Linearly-ordered domains: phrases are sorted by sentiment score and the
/// domain is divided into k equal buckets; the phrase at the center of
/// each bucket becomes a marker.
MarkerSummaryType InduceLinearMarkers(const std::string& attribute_name,
                                      const std::vector<std::string>& domain,
                                      size_t k,
                                      const sentiment::Analyzer& analyzer);

/// Categorical domains: k-means over phrase embeddings; the medoid phrase
/// of each cluster becomes a marker.
MarkerSummaryType InduceCategoricalMarkers(
    const std::string& attribute_name, const std::vector<std::string>& domain,
    size_t k, const embedding::PhraseEmbedder& embedder, uint64_t seed = 42);

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_MARKER_INDUCTION_H_
