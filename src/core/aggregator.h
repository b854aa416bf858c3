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
  /// extraction_lists[a][e]: indices into `extractions` of the phrases
  /// classified to attribute a of entity e, in relation order — what the
  /// no-marker scan path (Table 7 ablation) reads at query time. Empty
  /// unless the tables were built with lists.
  std::vector<std::vector<std::vector<size_t>>> extraction_lists;

  /// Drops the extraction relation and empties the no-marker lists; the
  /// summaries stay.
  void ClearRelation();
};

/// Aggregates extracted opinions onto marker summaries (the
/// "Extractor+Aggregator" box of Fig. 4).
class Aggregator {
 public:
  Aggregator(const SubjectiveSchema* schema,
             const AttributeClassifier* classifier,
             const embedding::PhraseEmbedder* embedder,
             const sentiment::Analyzer* analyzer);

  /// Builds summaries for all entities of `corpus` from `extractions`:
  /// Append onto all-zero summaries from extraction 0. With
  /// `extraction_lists` the tables also keep the no-marker lists.
  SubjectiveTables Build(const text::ReviewCorpus& corpus,
                         std::vector<extract::ExtractedOpinion> extractions,
                         const AggregationOptions& options,
                         ThreadPool* pool = nullptr,
                         bool extraction_lists = false) const;

  /// The one fold (Section 4.2.2: "the marker summaries can be
  /// incrementally computed"): classifies, matches and embeds
  /// extractions [first, end) of `tables->extractions` — across `pool`
  /// when there is one — then folds them onto the summaries serially in
  /// extraction order, extends the no-marker lists when the tables keep
  /// them, and refreshes every (attribute, entity) it touched. Folding
  /// [0, n) then [n, m) is therefore bit-identical to folding [0, m).
  /// Every extraction's entity must be one of the store's entities.
  void Append(const text::ReviewCorpus& corpus,
              const AggregationOptions& options, size_t first,
              SubjectiveTables* tables, ThreadPool* pool = nullptr) const;

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
