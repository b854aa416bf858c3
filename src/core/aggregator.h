#ifndef OPINEDB_CORE_AGGREGATOR_H_
#define OPINEDB_CORE_AGGREGATOR_H_

#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "core/attribute_classifier.h"
#include "core/columnar.h"
#include "core/schema.h"
#include "embedding/phrase_rep.h"
#include "extract/pipeline.h"
#include "sentiment/analyzer.h"
#include "text/corpus.h"

namespace opinedb::core {

/// Options controlling how phrases aggregate onto markers
/// (Section 4.2.2).
struct AggregationOptions {
  /// When true, a phrase contributes fractionally to its two closest
  /// markers of a linearly-ordered summary; when false (the paper's
  /// implementation) it contributes wholly to the single best marker.
  bool fractional = false;
  /// Minimum cosine similarity between a phrase and its best marker; the
  /// phrase counts as unmatched below this.
  double match_threshold = 0.15;
  /// Reviews older than this date are ignored (supports "reviews after
  /// 2010"-style query filters). Unset = no filter.
  std::optional<int32_t> min_date;
  /// Only reviews by reviewers with at least this many reviews count
  /// (supports "reviewers who reviewed >= 10 hotels"). Unset = no filter.
  std::optional<int32_t> min_reviewer_reviews;
};

/// Marker summaries for every (attribute, entity) pair, plus the
/// extraction provenance that produced them.
struct SubjectiveTables {
  /// The marker summary of every (attribute, entity) pair.
  ColumnarSummaryStore summaries;
  /// The extraction relation, with each opinion's assigned attribute
  /// (-1 when the classifier had nothing to say).
  std::vector<extract::ExtractedOpinion> extractions;
  std::vector<int> extraction_attribute;
  /// The marker each extraction's phrase mapped to (-1 = unmatched or
  /// filtered out).
  std::vector<int> extraction_marker;
  /// Attribute-classification confidence margin per extraction; phrases
  /// with tiny margins are excluded from the linguistic-variation table.
  std::vector<double> extraction_margin;
};

/// Aggregates extracted opinions onto marker summaries (the
/// "Extractor+Aggregator" box of Fig. 4).
class Aggregator {
 public:
  Aggregator(const SubjectiveSchema* schema,
             const AttributeClassifier* classifier,
             const embedding::PhraseEmbedder* embedder,
             const sentiment::Analyzer* analyzer);

  /// Builds summaries for all entities of `corpus` from `extractions`.
  /// With a pool, the per-extraction classification, marker matching and
  /// phrase embedding fan out across workers, and so does the final
  /// ColumnarSummaryStore::Refresh; the summary fold stays serial in
  /// extraction order, so the result is bit-identical to the serial
  /// build.
  SubjectiveTables Build(const text::ReviewCorpus& corpus,
                         std::vector<extract::ExtractedOpinion> extractions,
                         const AggregationOptions& options,
                         ThreadPool* pool = nullptr) const;

  /// Incrementally folds one opinion into existing summaries
  /// (Section 4.2.2: "the marker summaries can be incrementally
  /// computed") and refreshes the (attribute, entity) it touched.
  /// `opinion.entity` must be one of the store's entities.
  void AddOpinion(const extract::ExtractedOpinion& opinion,
                  const text::ReviewCorpus& corpus,
                  const AggregationOptions& options,
                  SubjectiveTables* tables) const;

  /// Marker weight vector for a phrase against attribute `a`'s markers:
  /// one-hot (or fractional) by embedding similarity; empty if below the
  /// match threshold.
  std::vector<double> MarkerWeights(size_t attribute,
                                    const std::string& phrase,
                                    const AggregationOptions& options) const;

 private:
  const SubjectiveSchema* schema_;
  const AttributeClassifier* classifier_;
  const embedding::PhraseEmbedder* embedder_;
  const sentiment::Analyzer* analyzer_;
  /// Precomputed marker phrase embeddings per attribute.
  std::vector<std::vector<embedding::Vec>> marker_vecs_;
  /// Precomputed marker sentiment per attribute (linear scales).
  std::vector<std::vector<double>> marker_senti_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_AGGREGATOR_H_
