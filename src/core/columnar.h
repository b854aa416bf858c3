#ifndef OPINEDB_CORE_COLUMNAR_H_
#define OPINEDB_CORE_COLUMNAR_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/membership.h"
#include "core/schema.h"
#include "embedding/vector_ops.h"
#include "fuzzy/logic.h"
#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "storage/table.h"
#include "text/corpus.h"

namespace opinedb::core {

struct PredicateInterpretation;

/// One entry of an attribute's provenance log: `review` contributed a
/// phrase to marker `marker` of entity `entity`.
struct ProvenanceEntry {
  uint32_t entity = 0;
  uint32_t marker = 0;
  text::ReviewId review = 0;
};

/// One attribute's marker summaries (Section 2) in structure-of-arrays
/// layout: a histogram over the K markers per entity, with each cell's
/// mean phrase sentiment and phrase centroid. Every quantity the
/// membership features read lives in its own contiguous 64-byte-aligned
/// array, entity-major so one entity's cells are adjacent:
///
///   count[e*K + k], mean_sentiment[e*K + k], centroid_norm[e*K + k]
///   centroid[(e*K + k) * dim .. +dim)          (float, flattened)
///   total[e], log1p_total[e], unmatched[e]     (per entity)
///
/// count, mean_sentiment, centroid and unmatched are the folded state;
/// only they are persisted. The derived columns are computed from it by
/// ColumnarSummaryStore::RefreshEntity, so the features never recompute
/// them per query:
///
///   total          the in-order sum of the entity's K counts
///   log1p_total    std::log1p(total)
///   centroid_norm  embedding::Norm of each cell centroid
///
/// No derived column reads unmatched, which is why AddUnmatched refreshes
/// nothing; a derived column over unmatched would have to be refreshed
/// there too. The shape fields are set by the store's constructor.
struct AttributeColumns {
  size_t num_entities = 0;
  size_t num_markers = 0;
  size_t dim = 0;
  common::AlignedArray<double> count;
  common::AlignedArray<double> mean_sentiment;
  common::AlignedArray<double> centroid_norm;
  common::AlignedArray<float> centroid;
  common::AlignedArray<double> total;
  common::AlignedArray<double> log1p_total;
  common::AlignedArray<double> unmatched;
  /// Append-only, in fold order: one entry per marker a phrase gave
  /// positive weight. A cell's reviews are the entries naming it, in log
  /// order. Scoring never reads the log.
  std::vector<ProvenanceEntry> provenance;

  /// Total allocation footprint of this attribute's columns and log.
  size_t bytes() const;
  /// Bytes one atom evaluation streams per entity (all cell columns for
  /// K markers plus the three per-entity scalars) — the numerator of the
  /// bench's achieved-GB/s figure.
  size_t scan_bytes_per_entity() const;
};

/// The engine's marker summaries: one AttributeColumns per subjective
/// attribute, the only resident copy. The aggregator folds opinions into
/// it (Build, Reaggregate, AppendReviews); InstallSummaries and
/// OpenDatabase replace it wholesale — every mutation under the engine's
/// exclusive reconfiguration lock (docs/SCALING.md). Between mutations
/// it is read-only, so queries holding the shared lock may scan it from
/// any number of threads.
class ColumnarSummaryStore {
 public:
  ColumnarSummaryStore() = default;
  /// An all-zero store: for every attribute of `schema`, `num_entities`
  /// summaries over the attribute's markers with `dim`-wide centroids.
  ColumnarSummaryStore(const SubjectiveSchema& schema, size_t num_entities,
                       size_t dim);

  /// Folds one phrase into (attribute, entity) (Section 4.2.2):
  /// `weights[m]` is the phrase's mass on marker m (one-hot by default,
  /// fractional when enabled), `sentiment` and `vec` describe the phrase,
  /// `review` is its provenance. Running weighted means in double, then
  /// the float centroid stores. Leaves total and centroid_norm stale
  /// until RefreshEntity.
  void AddPhrase(size_t attribute, size_t entity,
                 const std::vector<double>& weights, double sentiment,
                 const embedding::Vec& vec, text::ReviewId review);

  /// Records a phrase of (attribute, entity) that matched no marker. No
  /// derived column reads unmatched, so nothing needs a refresh.
  void AddUnmatched(size_t attribute, size_t entity) {
    columns_[attribute].unmatched[entity] += 1.0;
  }

  /// Recomputes the derived values of (attribute, entity) from its
  /// cells: total (the in-order sum of the K counts), log1p_total and
  /// every cell's centroid_norm. Writes only that entity's slots.
  void RefreshEntity(size_t attribute, size_t entity);

  /// RefreshEntity over every (attribute, entity); entities fan out
  /// across `pool` when provided (equivalent to serial: each writes only
  /// its own slots).
  void Refresh(ThreadPool* pool);

  size_t num_attributes() const { return columns_.size(); }
  size_t num_entities() const { return num_entities_; }
  const AttributeColumns& attribute(size_t a) const { return columns_[a]; }
  /// Direct writes into the folded arrays (the scale fixture synthesizes
  /// histograms; the snapshot decoder fills column images). Callers
  /// Refresh before the store is scored.
  AttributeColumns& mutable_attribute(size_t a) { return columns_[a]; }

  /// Phrase mass on one marker, and across all markers.
  double count(size_t attribute, size_t entity, size_t marker) const {
    const AttributeColumns& cols = columns_[attribute];
    return cols.count[entity * cols.num_markers + marker];
  }
  double total(size_t attribute, size_t entity) const {
    return columns_[attribute].total[entity];
  }

  /// Reviews that contributed to one cell, in fold order.
  std::vector<text::ReviewId> Provenance(size_t attribute, size_t entity,
                                         size_t marker) const;

  /// Renders one histogram, e.g. "[very_clean: 20.0, average: 70.0]";
  /// `type` names the attribute's markers.
  std::string Histogram(const MarkerSummaryType& type, size_t attribute,
                        size_t entity) const;

  /// Total allocation footprint across all attributes.
  size_t bytes() const;

 private:
  std::vector<AttributeColumns> columns_;
  size_t num_entities_ = 0;
};

/// The membership-function features of Section 3.3 for `marker` of
/// `entity`, written to f[0, kMembershipFeatureDim): marker mass,
/// average sentiments and phrase-centroid similarities, all read from
/// the columns, so no scan of the extraction relation is needed.
/// `query` is the `cols.dim`-wide query embedding widened to double
/// (exact for floats) and `query_norm` its embedding::Norm. The one
/// featurization formula: ConditionScorer calls it per (entity, atom)
/// and membership training per labeled tuple; each call counts one
/// membership.marker_featurizations.
///
/// kK > 0 requires cols.num_markers == kK and runs the K cell dot
/// products side by side; kK = 0 runs them one cell after another, for
/// any K. Either way each dot product is summed in dimension order and
/// divided exactly as embedding::CosineWithNorms does, so every
/// instantiation writes the same doubles.
template <size_t kK>
inline void MarkerFeatures(const AttributeColumns& cols, size_t entity,
                           size_t marker, const double* query,
                           double query_norm, double query_sentiment,
                           double* f) {
  // Per-entity hot path (runs inside ParallelFor): counters only, no
  // spans — a span per entity would flood the per-query ring buffer.
  OPINEDB_METRIC_COUNT("membership.marker_featurizations", 1);
  for (size_t i = 0; i < kMembershipFeatureDim; ++i) f[i] = 0.0;
  const double total = cols.total[entity];
  f[0] = cols.log1p_total[entity];
  if (total <= 0.0) {
    f[9] = 1.0;  // Empty-summary indicator.
    return;
  }
  const size_t k = kK > 0 ? kK : cols.num_markers;
  const size_t dim = cols.dim;
  const size_t base = entity * k;
  const size_t m = marker;
  const double* count = cols.count.data() + base;
  const double* mean_sentiment = cols.mean_sentiment.data() + base;
  const double* centroid_norm = cols.centroid_norm.data() + base;
  const float* centroids = cols.centroid.data() + base * dim;
  f[1] = count[m] / total;  // Mass at the interpreted marker.
  // Unnormalized query-centroid dot products: for kK > 0 the K
  // independent add chains advance together, one dimension at a time.
  double dots[kK > 0 ? kK : 1] = {};
  if constexpr (kK > 0) {
    for (size_t d = 0; d < dim; ++d) {
      const double q = query[d];
      for (size_t j = 0; j < kK; ++j) {
        dots[j] += q * double(centroids[j * dim + d]);
      }
    }
  }
  double weighted_sentiment = 0.0;
  double weighted_similarity = 0.0;
  double mass_at_or_above = 0.0;  // Markers no further down the scale.
  double target_cosine = 0.0;
  for (size_t j = 0; j < k; ++j) {
    const double frac = count[j] / total;
    weighted_sentiment += frac * mean_sentiment[j];
    double cosine = 0.0;  // CosineWithNorms' zero-vector guard.
    if (query_norm != 0.0 && centroid_norm[j] != 0.0) {
      double dot = 0.0;
      if constexpr (kK > 0) {
        dot = dots[j];
      } else {
        const float* centroid = centroids + j * dim;
        for (size_t d = 0; d < dim; ++d) dot += query[d] * double(centroid[d]);
      }
      cosine = dot / (query_norm * centroid_norm[j]);
    }
    weighted_similarity += frac * cosine;
    if (j <= m) mass_at_or_above += frac;
    if (j == m) target_cosine = cosine;
  }
  f[2] = mass_at_or_above;
  f[3] = weighted_sentiment;
  f[4] = mean_sentiment[m];
  f[5] = target_cosine;
  f[6] = weighted_similarity;
  f[7] = cols.unmatched[entity] / (total + cols.unmatched[entity]);
  f[8] = 1.0 - std::abs(query_sentiment - weighted_sentiment) / 2.0;
  f[9] = 0.0;
}

class OpineDb;

/// The one scorer of subjective conditions (Section 3.3): binds an
/// interpreted predicate to the engine's current state once, then
/// Score(e) turns it into entity e's degree of truth. The shape is
/// fixed at bind time:
///
///   text fallback  method kTextFallback or no atoms:
///                  OpineDb::TextFallbackDegree (sigmoid(BM25 - c)) over
///                  the predicate bound to the entity index once
///                  (OpineDb::BindTextFallback);
///   no markers     EngineOptions::use_markers false (the Table 7
///                  ablation): MembershipFeaturesNoMarkers over the
///                  extracted phrases of (attribute, entity);
///   markers        MarkerFeatures over the ColumnarSummaryStore
///                  arrays.
///
/// Binding also fixes each marker atom's kernel: MarkerFeatures<K> for
/// an attribute of K = 1..8 markers, MarkerFeatures<0> otherwise, fed
/// the query widened to double once per scorer. Per-atom degrees go
/// through the membership model (or the heuristic when none is
/// trained), are clamped to [0, 1], and fold in atom order with the
/// interpretation's connective. The score.features fault site and the
/// membership.*_featurizations counters fire per (entity, atom) in that
/// order.
///
/// Every atom must lie inside the engine's schema (attribute in range,
/// marker in [0, K)) and the query embedding must have the phrase
/// embedder's width; the engine rejects anything else where it enters
/// (OpenDatabase, InstallSummaries, the interpretation-cache warm load).
/// tests/oracle/ keeps the per-object row arithmetic this is checked
/// against.
class ConditionScorer {
 public:
  /// `db` and `query_rep` must outlive the scorer, and `db` must not be
  /// reconfigured while it is in use.
  ConditionScorer(const OpineDb& db, const std::string& predicate,
                  const PredicateInterpretation& interpretation,
                  const embedding::Vec& query_rep, double query_sentiment);

  /// Degree of truth of the whole condition for one entity.
  double Score(size_t entity) const;

 private:
  struct BoundAtom;
  /// One atom's membership degree for one entity.
  using DegreeFn = double (ConditionScorer::*)(const BoundAtom&,
                                               size_t) const;
  struct BoundAtom {
    size_t attribute = 0;
    size_t marker = 0;
    const AttributeColumns* columns = nullptr;
    /// MarkerDegree<kK> for the attribute's marker count, or PhraseDegree.
    DegreeFn degree = nullptr;
  };

  /// Membership degree of one atom from the marker columns, through
  /// MarkerFeatures<kK>.
  template <size_t kK>
  double MarkerDegree(const BoundAtom& atom, size_t entity) const;
  /// Membership degree of one atom from the extracted phrases.
  double PhraseDegree(const BoundAtom& atom, size_t entity) const;
  /// Feature vector -> degree in [0, 1].
  double Membership(const double* features, size_t n) const;

  const OpineDb* db_;
  const embedding::Vec* query_rep_;
  /// *query_rep_ widened to double (exact), for the marker kernels.
  std::vector<double> query_;
  double query_sentiment_;
  /// Empty for the text-fallback shape.
  std::vector<BoundAtom> atoms_;
  bool conjunctive_ = true;
  fuzzy::Variant variant_ = fuzzy::Variant::kProduct;
  const MembershipModel* model_ = nullptr;
  double query_norm_ = 0.0;
  /// The text-fallback shape's predicate, bound to the entity index.
  index::InvertedIndex::BoundQuery text_query_;
};

/// The engine's objective table, held only as columns: numeric columns
/// as contiguous double arrays with a null bitmap, string columns
/// dictionary-encoded against a sorted distinct list (rank order ==
/// storage::Value string order, so comparing ranks is comparing
/// strings). SetObjectiveTable builds it once from the input rows and
/// keeps no rows; ObjectiveFilter and the 0/1 objective lists in
/// SubjectiveScore compile each predicate by column name and sweep the
/// arrays with Value::Compare's exact semantics (NULL never matches,
/// numbers before strings, NaN compares equal).
class ColumnarTable {
 public:
  explicit ColumnarTable(const storage::Table& table);

  size_t num_rows() const { return num_rows_; }
  size_t bytes() const;

  /// A predicate lowered onto the column arrays. `cmp_kind` selects how
  /// the three-way comparison against the literal is produced per row;
  /// `accept` maps cmp (-1/0/1) through the operator.
  struct CompiledPredicate {
    enum class CmpKind { kNumeric, kStringRank, kConstant };
    CmpKind cmp_kind = CmpKind::kConstant;
    const uint8_t* is_null = nullptr;
    const double* num = nullptr;
    const int32_t* code = nullptr;
    double num_literal = 0.0;
    int32_t rank = 0;          // String literal's dict rank / insert point.
    bool rank_exact = false;   // Literal present in the dictionary.
    int constant_cmp = 0;      // Type-mismatch comparisons are constant.
    bool accept[3] = {false, false, false};  // accept[cmp + 1].
  };

  /// Resolves the predicate's column by name and lowers it onto that
  /// column's arrays; NotFound for a column the table does not have.
  Result<CompiledPredicate> Compile(
      const storage::ColumnPredicate& predicate) const;

  /// Row-level evaluation, bit-identical to
  /// BoundColumnPredicate::Matches on the source rows.
  static bool Eval(const CompiledPredicate& predicate, size_t row) {
    if (predicate.is_null[row] != 0) return false;
    int cmp;
    switch (predicate.cmp_kind) {
      case CompiledPredicate::CmpKind::kNumeric: {
        // Same three-way comparison Value::Compare performs, including
        // its NaN behaviour (neither < nor > → "equal").
        const double x = predicate.num[row];
        cmp = x < predicate.num_literal ? -1
                                        : (x > predicate.num_literal ? 1 : 0);
        break;
      }
      case CompiledPredicate::CmpKind::kStringRank: {
        const int32_t c = predicate.code[row];
        cmp = predicate.rank_exact
                  ? (c < predicate.rank ? -1 : (c > predicate.rank ? 1 : 0))
                  : (c < predicate.rank ? -1 : 1);
        break;
      }
      case CompiledPredicate::CmpKind::kConstant:
      default:
        cmp = predicate.constant_cmp;
        break;
    }
    return predicate.accept[cmp + 1];
  }

  /// match[row] &= Eval(predicate, row) over every row — the dense AND
  /// sweep ObjectiveFilter runs per hard predicate.
  void FilterInto(const CompiledPredicate& predicate,
                  std::vector<uint8_t>* match) const;

 private:
  struct Column {
    std::string name;
    storage::ValueType type = storage::ValueType::kNull;
    common::AlignedArray<uint8_t> is_null;
    common::AlignedArray<double> num;     // kInt / kDouble columns.
    common::AlignedArray<int32_t> code;   // kString columns.
    std::vector<std::string> dict;        // Sorted distinct strings.
  };

  size_t num_rows_ = 0;
  std::vector<Column> columns_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_COLUMNAR_H_
