// Row-path reference for OpineDB summaries and scoring. The engine keeps
// one copy of the marker summaries, core::ColumnarSummaryStore, and
// scores every subjective condition with core::ConditionScorer, a sweep
// over it. This oracle keeps the per-object form the engine used before:
// a MarkerSummary per (attribute, entity) whose MarkerCells each own a
// centroid and a provenance list. It rebuilds those rows independently
// (its own AddPhrase fold over a built engine's extraction relation),
// computes the same degrees one entity at a time through the row
// MembershipFeatures formula (or the extracted phrases), and evaluates
// objective leaves with BoundColumnPredicate::Matches on the source
// table. The `scale` suite requires raw-double equality between the two.
// It also keeps the serial column featurization the K-specialized
// kernels replaced (ReferenceMarkerFeatures), which every instantiation
// of core::MarkerFeatures must match bit for bit.
#ifndef OPINEDB_TESTS_ORACLE_ROW_ORACLE_H_
#define OPINEDB_TESTS_ORACLE_ROW_ORACLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "storage/table.h"

namespace opinedb::oracle {

/// One marker's aggregate within a row summary.
struct MarkerCell {
  /// Total (possibly fractional) phrase mass assigned to this marker.
  double count = 0.0;
  /// Mean sentiment of contributing phrases.
  double mean_sentiment = 0.0;
  /// Centroid of contributing phrase embeddings.
  embedding::Vec centroid;
  /// Reviews that contributed phrases to this marker, in fold order.
  std::vector<text::ReviewId> provenance;
};

/// The record instance of one (attribute, entity) marker summary as one
/// object: a histogram over the markers plus per-cell sentiment means
/// and phrase centroids.
class MarkerSummary {
 public:
  MarkerSummary() = default;
  MarkerSummary(size_t num_markers, size_t embedding_dim);

  size_t num_markers() const { return cells_.size(); }
  const MarkerCell& cell(size_t marker) const { return cells_[marker]; }
  MarkerCell& mutable_cell(size_t marker) { return cells_[marker]; }
  double count(size_t marker) const { return cells_[marker].count; }

  /// Total phrase mass across markers (in-order sum).
  double total_count() const;
  /// Count of extracted phrases that matched no marker confidently.
  double unmatched_count() const { return unmatched_; }

  /// Adds a phrase contribution: `weights[m]` is the phrase's mass on
  /// marker m; `sentiment` and `vec` describe the phrase; `review` is
  /// the provenance.
  void AddPhrase(const std::vector<double>& weights, double sentiment,
                 const embedding::Vec& vec, text::ReviewId review);
  /// Records a phrase that matched no marker.
  void AddUnmatched() { unmatched_ += 1.0; }
  void SetUnmatchedCount(double count) { unmatched_ = count; }

 private:
  std::vector<MarkerCell> cells_;
  double unmatched_ = 0.0;
};

/// The membership-function feature vector of Section 3.3 computed from
/// one row summary: marker sizes, average sentiments, phrase-centroid
/// similarities.
std::vector<double> MembershipFeatures(const MarkerSummary& summary,
                                       int marker,
                                       const embedding::Vec& query_rep,
                                       double query_sentiment);

/// The column featurization before the K-specialized kernels: the cells
/// one after another, each cosine through embedding::CosineWithNorms
/// over the float query, and f[0] = std::log1p(total) computed inline.
/// core::MarkerFeatures<kK> must write the same doubles for every kK.
void ReferenceMarkerFeatures(const core::AttributeColumns& cols,
                             size_t entity, size_t marker,
                             const float* query_rep, double query_norm,
                             double query_sentiment, double* f);

/// ConditionScorer::Score of a marker interpretation (not the text
/// fallback, at least one atom) through ReferenceMarkerFeatures: each
/// atom's features go through the engine's membership model (the vector
/// overload) or HeuristicMembershipDegree, are clamped to [0, 1], and
/// fold in atom order with the interpretation's connective.
double ReferenceMarkerScore(const core::OpineDb& db,
                            const core::PredicateInterpretation& interpretation,
                            const embedding::Vec& query_rep,
                            double query_sentiment, size_t entity);

/// Row (attribute, entity) of `store`, provenance included.
MarkerSummary RowFromStore(const core::ColumnarSummaryStore& store,
                           size_t attribute, size_t entity);

/// The row form of an engine's summaries. An engine with a non-empty
/// extraction relation is taken to be built from it (Build, Reaggregate,
/// appends): its rows are an independent fold of that relation through
/// Aggregator::MarkerWeights, the phrase embedding and each opinion's
/// sentiment. An engine without one (InstallSummaries, OpenDatabase) is
/// read back from its store, row by row on demand.
class RowSummaries {
 public:
  explicit RowSummaries(const core::OpineDb& db);

  /// The row summary of (attribute, entity).
  MarkerSummary Get(size_t attribute, text::EntityId entity) const;

  /// True when the rows were folded from the extraction relation.
  bool folded() const { return !folded_.empty(); }

 private:
  const core::OpineDb* db_;
  std::vector<std::vector<MarkerSummary>> folded_;
};

/// Compares the engine's store with RowSummaries(db) cell by cell: count,
/// mean sentiment and centroid bits, centroid_norm against
/// embedding::Norm of the row centroid, total against total_count(),
/// log1p_total against std::log1p of it, unmatched, and each cell's
/// provenance. Returns the first mismatch, or an empty string when every
/// value is bit-identical.
std::string CompareStoreToRows(const core::OpineDb& db);

/// Every scan column of `store` (count, mean_sentiment, centroid,
/// centroid_norm, total, log1p_total, unmatched) and every provenance
/// log, as raw bytes: two stores are byte-identical exactly when their
/// images are.
std::string StoreImage(const core::ColumnarSummaryStore& store);

/// One subjective predicate, interpreted and embedded the way the
/// engine's query prologue does it, scored per entity over row objects.
class RowPredicate {
 public:
  /// `rows` defaults to RowSummaries(db).
  RowPredicate(const core::OpineDb& db, std::string predicate,
               std::shared_ptr<const RowSummaries> rows = nullptr);

  /// Degree of truth for one entity: the text-retrieval score when the
  /// predicate is uninterpretable, otherwise the per-atom membership
  /// degrees folded in atom order with the interpretation's connective.
  double Degree(text::EntityId entity) const;

  const core::PredicateInterpretation& interpretation() const {
    return interpretation_;
  }

 private:
  double AtomDegree(const core::AtomInterpretation& atom,
                    text::EntityId entity) const;

  const core::OpineDb* db_;
  std::string predicate_;
  std::shared_ptr<const RowSummaries> rows_;
  core::PredicateInterpretation interpretation_;
  embedding::Vec rep_;
  double sentiment_ = 0.0;
};

/// Ranks per-entity WHERE scores the way the engine answers: entities
/// scoring <= 0 dropped, score descending then entity id ascending, cut
/// at `limit`, names from the corpus.
std::vector<core::RankedResult> Rank(const core::OpineDb& db,
                                     const std::vector<double>& scores,
                                     size_t limit);

/// Whole answer of one subjective SQL statement: every entity scored
/// against every condition (subjective leaves through RowPredicate,
/// objective leaves through Matches on `table`, the rows the engine's
/// objective table was registered from), combined with the WHERE tree,
/// then ranked by Rank.
Result<std::vector<core::RankedResult>> Execute(const core::OpineDb& db,
                                                const storage::Table& table,
                                                const std::string& sql);

}  // namespace opinedb::oracle

#endif  // OPINEDB_TESTS_ORACLE_ROW_ORACLE_H_
