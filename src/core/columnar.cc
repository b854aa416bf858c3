#include "core/columnar.h"

#include <algorithm>
#include <cmath>

#include "common/fault.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace opinedb::core {

size_t AttributeColumns::bytes() const {
  return count.allocated_bytes() + mean_sentiment.allocated_bytes() +
         centroid_norm.allocated_bytes() + centroid.allocated_bytes() +
         provenance_count.allocated_bytes() + total.allocated_bytes() +
         unmatched.allocated_bytes();
}

size_t AttributeColumns::scan_bytes_per_entity() const {
  // One atom reads, per entity: K counts, K sentiments, K norms, K
  // centroids and the two per-entity scalars. The provenance column is
  // not touched by scoring.
  return num_markers * (2 * sizeof(double) + sizeof(double) +
                        dim * sizeof(float)) +
         2 * sizeof(double);
}

ColumnarSummaryStore::ColumnarSummaryStore(const SubjectiveTables& tables,
                                           size_t num_entities,
                                           ThreadPool* pool)
    : num_entities_(num_entities) {
  obs::TraceSpan span("columnar.build");
  columns_.resize(tables.summaries.size());
  for (size_t a = 0; a < tables.summaries.size(); ++a) {
    const auto& summaries = tables.summaries[a];
    AttributeColumns& cols = columns_[a];
    cols.num_entities = summaries.size();
    if (summaries.empty()) continue;
    cols.num_markers = summaries[0].num_markers();
    const size_t k = cols.num_markers;
    if (k == 0) continue;
    cols.dim = summaries[0].cell(0).centroid.size();
    cols.count.Reset(cols.num_entities * k);
    cols.mean_sentiment.Reset(cols.num_entities * k);
    cols.centroid_norm.Reset(cols.num_entities * k);
    cols.centroid.Reset(cols.num_entities * k * cols.dim);
    cols.provenance_count.Reset(cols.num_entities * k);
    cols.total.Reset(cols.num_entities);
    cols.unmatched.Reset(cols.num_entities);
    auto fill_range = [&](size_t begin, size_t end) {
      for (size_t e = begin; e < end; ++e) {
        const MarkerSummary& summary = summaries[e];
        const size_t base = e * k;
        // total_count() is the same in-order sum the row path performs
        // per featurization; freezing it here keeps the columnar f[0]
        // and the count/total fractions bit-identical.
        cols.total[e] = summary.total_count();
        cols.unmatched[e] = summary.unmatched_count();
        for (size_t m = 0; m < k && m < summary.num_markers(); ++m) {
          const MarkerCell& cell = summary.cell(m);
          cols.count[base + m] = cell.count;
          cols.mean_sentiment[base + m] = cell.mean_sentiment;
          cols.centroid_norm[base + m] = embedding::Norm(cell.centroid);
          cols.provenance_count[base + m] =
              static_cast<uint32_t>(cell.provenance.size());
          const size_t copy =
              std::min(cols.dim, cell.centroid.size());
          std::copy_n(cell.centroid.data(), copy,
                      cols.centroid.data() + (base + m) * cols.dim);
        }
      }
    };
    // Each entity writes only its own slots, so the parallel fill is
    // equivalent to serial.
    if (pool != nullptr) {
      pool->ParallelFor(0, cols.num_entities, fill_range, /*min_grain=*/64);
    } else {
      fill_range(0, cols.num_entities);
    }
  }
  span.AddAttribute("attributes", static_cast<uint64_t>(columns_.size()));
  span.AddAttribute("entities", static_cast<uint64_t>(num_entities_));
  span.AddAttribute("bytes", static_cast<uint64_t>(bytes()));
  OPINEDB_METRIC_GAUGE_SET("columnar.bytes", static_cast<double>(bytes()));
}

void ColumnarSummaryStore::UpdateEntities(
    const SubjectiveTables& tables,
    const std::vector<text::EntityId>& touched) {
  obs::TraceSpan span("columnar.delta_update");
  for (size_t a = 0; a < columns_.size() && a < tables.summaries.size();
       ++a) {
    const auto& summaries = tables.summaries[a];
    AttributeColumns& cols = columns_[a];
    const size_t k = cols.num_markers;
    if (k == 0) continue;
    for (const text::EntityId id : touched) {
      if (id < 0) continue;
      const size_t e = static_cast<size_t>(id);
      if (e >= cols.num_entities || e >= summaries.size()) continue;
      const MarkerSummary& summary = summaries[e];
      const size_t base = e * k;
      // The constructor's fill, verbatim, for one entity — the patched
      // row is what a full rebuild would have produced.
      cols.total[e] = summary.total_count();
      cols.unmatched[e] = summary.unmatched_count();
      for (size_t m = 0; m < k && m < summary.num_markers(); ++m) {
        const MarkerCell& cell = summary.cell(m);
        cols.count[base + m] = cell.count;
        cols.mean_sentiment[base + m] = cell.mean_sentiment;
        cols.centroid_norm[base + m] = embedding::Norm(cell.centroid);
        cols.provenance_count[base + m] =
            static_cast<uint32_t>(cell.provenance.size());
        const size_t copy = std::min(cols.dim, cell.centroid.size());
        std::copy_n(cell.centroid.data(), copy,
                    cols.centroid.data() + (base + m) * cols.dim);
      }
    }
  }
  span.AddAttribute("entities", static_cast<uint64_t>(touched.size()));
  OPINEDB_METRIC_COUNT("columnar.delta_updates", 1);
}

size_t ColumnarSummaryStore::bytes() const {
  size_t total = 0;
  for (const auto& cols : columns_) total += cols.bytes();
  return total;
}

ConditionScorer::ConditionScorer(const OpineDb& db,
                                 const std::string& predicate,
                                 const PredicateInterpretation& interpretation,
                                 const embedding::Vec& query_rep,
                                 double query_sentiment)
    : db_(&db),
      query_rep_(&query_rep),
      query_sentiment_(query_sentiment),
      use_markers_(db.options().use_markers),
      conjunctive_(interpretation.conjunctive),
      variant_(db.options().variant),
      model_(db.has_membership_model() ? &db.membership_model() : nullptr) {
  if (interpretation.method != InterpretMethod::kTextFallback) {
    const ColumnarSummaryStore& store = *db.columnar_store();
    atoms_.reserve(interpretation.atoms.size());
    for (const auto& atom : interpretation.atoms) {
      const auto a = static_cast<size_t>(atom.attribute);
      atoms_.push_back(BoundAtom{a, static_cast<size_t>(atom.marker),
                                 &store.attribute(a)});
    }
  }
  if (atoms_.empty()) {
    // Tokenize and resolve the terms once; Score(e) then only searches
    // the entity's postings.
    text_query_ = db.BindTextFallback(predicate);
    return;
  }
  // Same value Cosine recomputes per call: Norm(query_rep).
  if (use_markers_) query_norm_ = embedding::Norm(query_rep);
}

double ConditionScorer::Membership(const double* features, size_t n) const {
  const double d = model_ != nullptr
                       ? model_->DegreeOfTruth(features, n)
                       : HeuristicMembershipDegree(features, n);
  // Degrees of truth are [0, 1] by contract; one rogue NaN would
  // propagate through every ⊗/⊕ combine and corrupt the ranking
  // comparator's total order.
  if (!std::isfinite(d)) return 0.0;
  return std::clamp(d, 0.0, 1.0);
}

double ConditionScorer::MarkerDegree(const BoundAtom& atom,
                                     size_t entity) const {
  // Per-entity hot path (runs inside ParallelFor): counters only, no
  // spans — a span per entity would flood the per-query ring buffer.
  OPINEDB_FAULT("score.features");
  OPINEDB_METRIC_COUNT("membership.marker_featurizations", 1);
  const AttributeColumns& cols = *atom.columns;
  // The MembershipFeatures vector, computed from the columns.
  double f[kMembershipFeatureDim] = {0.0};
  const double total = cols.total[entity];
  f[0] = std::log1p(total);
  if (total <= 0.0) {
    f[9] = 1.0;  // Empty-summary indicator.
  } else {
    const size_t k = cols.num_markers;
    const size_t base = entity * k;
    const size_t m = atom.marker;
    f[1] = cols.count[base + m] / total;
    const float* centroids = cols.centroid.data() + base * cols.dim;
    double weighted_sentiment = 0.0;
    double weighted_similarity = 0.0;
    double mass_at_or_above = 0.0;
    double target_cosine = 0.0;
    for (size_t j = 0; j < k; ++j) {
      const double frac = cols.count[base + j] / total;
      weighted_sentiment += frac * cols.mean_sentiment[base + j];
      const double cosine = embedding::CosineWithNorms(
          query_rep_->data(), query_norm_, centroids + j * cols.dim,
          cols.centroid_norm[base + j], cols.dim);
      weighted_similarity += frac * cosine;
      if (j <= m) mass_at_or_above += frac;
      // MembershipFeatures recomputes Cosine(query, target) for f[5];
      // the deterministic recomputation equals the j == m loop value.
      if (j == m) target_cosine = cosine;
    }
    f[2] = mass_at_or_above;
    f[3] = weighted_sentiment;
    f[4] = cols.mean_sentiment[base + m];
    f[5] = target_cosine;
    f[6] = weighted_similarity;
    f[7] = cols.unmatched[entity] / (total + cols.unmatched[entity]);
    f[8] = 1.0 - std::abs(query_sentiment_ - weighted_sentiment) / 2.0;
    f[9] = 0.0;
  }
  return Membership(f, kMembershipFeatureDim);
}

double ConditionScorer::PhraseDegree(const BoundAtom& atom,
                                     size_t entity) const {
  OPINEDB_FAULT("score.features");
  const std::vector<double> f = MembershipFeaturesNoMarkers(
      db_->PhrasesOf(atom.attribute, static_cast<text::EntityId>(entity)),
      db_->phrase_embedder(), *query_rep_, query_sentiment_);
  return Membership(f.data(), f.size());
}

double ConditionScorer::Score(size_t entity) const {
  if (atoms_.empty()) {
    return db_->TextFallbackDegree(text_query_,
                                   static_cast<text::EntityId>(entity));
  }
  double acc = 0.0;
  for (size_t i = 0; i < atoms_.size(); ++i) {
    const double d = use_markers_ ? MarkerDegree(atoms_[i], entity)
                                  : PhraseDegree(atoms_[i], entity);
    if (i == 0) {
      acc = d;
    } else if (conjunctive_) {
      acc = fuzzy::And(variant_, acc, d);
    } else {
      acc = fuzzy::Or(variant_, acc, d);
    }
  }
  return acc;
}

ColumnarTable::ColumnarTable(const storage::Table& table)
    : num_rows_(table.num_rows()) {
  columns_.resize(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    Column& col = columns_[c];
    col.type = table.columns()[c].type;
    col.is_null.Reset(num_rows_);
    switch (col.type) {
      case storage::ValueType::kInt:
      case storage::ValueType::kDouble: {
        col.num.Reset(num_rows_);
        for (size_t r = 0; r < num_rows_; ++r) {
          const storage::Value& cell = table.at(r, c);
          if (cell.is_null()) {
            col.is_null[r] = 1;
          } else {
            // Same widening Value::Compare applies via AsNumber.
            col.num[r] = cell.AsNumber();
          }
        }
        break;
      }
      case storage::ValueType::kString: {
        col.code.Reset(num_rows_);
        for (size_t r = 0; r < num_rows_; ++r) {
          const storage::Value& cell = table.at(r, c);
          if (cell.is_null()) {
            col.is_null[r] = 1;
          } else {
            col.dict.push_back(cell.AsString());
          }
        }
        std::sort(col.dict.begin(), col.dict.end());
        col.dict.erase(std::unique(col.dict.begin(), col.dict.end()),
                       col.dict.end());
        for (size_t r = 0; r < num_rows_; ++r) {
          const storage::Value& cell = table.at(r, c);
          if (cell.is_null()) continue;
          col.code[r] = static_cast<int32_t>(
              std::lower_bound(col.dict.begin(), col.dict.end(),
                               cell.AsString()) -
              col.dict.begin());
        }
        break;
      }
      case storage::ValueType::kNull:
        // A kNull-typed column only ever holds nulls; the null bitmap
        // alone decides every predicate (to false).
        for (size_t r = 0; r < num_rows_; ++r) col.is_null[r] = 1;
        break;
    }
  }
}

size_t ColumnarTable::bytes() const {
  size_t total = 0;
  for (const auto& col : columns_) {
    total += col.is_null.allocated_bytes() + col.num.allocated_bytes() +
             col.code.allocated_bytes();
    for (const auto& s : col.dict) total += s.size();
  }
  return total;
}

ColumnarTable::CompiledPredicate ColumnarTable::Compile(
    const storage::BoundColumnPredicate& predicate) const {
  const Column& col = columns_[predicate.column()];
  const storage::Value& literal = predicate.literal();
  CompiledPredicate compiled;
  compiled.is_null = col.is_null.data();
  // Operator → accepted signs of cell.Compare(literal), exactly as
  // BoundColumnPredicate::Matches maps them.
  switch (predicate.op()) {
    case storage::CompareOp::kEq:
      compiled.accept[1] = true;
      break;
    case storage::CompareOp::kNe:
      compiled.accept[0] = compiled.accept[2] = true;
      break;
    case storage::CompareOp::kLt:
      compiled.accept[0] = true;
      break;
    case storage::CompareOp::kLe:
      compiled.accept[0] = compiled.accept[1] = true;
      break;
    case storage::CompareOp::kGt:
      compiled.accept[2] = true;
      break;
    case storage::CompareOp::kGe:
      compiled.accept[1] = compiled.accept[2] = true;
      break;
  }
  const storage::ValueType lit_type = literal.type();
  const bool lit_numeric = lit_type == storage::ValueType::kInt ||
                           lit_type == storage::ValueType::kDouble;
  switch (col.type) {
    case storage::ValueType::kInt:
    case storage::ValueType::kDouble:
      if (lit_numeric) {
        compiled.cmp_kind = CompiledPredicate::CmpKind::kNumeric;
        compiled.num = col.num.data();
        compiled.num_literal = literal.AsNumber();
      } else if (lit_type == storage::ValueType::kString) {
        // Value::Compare orders numbers before strings: constant -1.
        compiled.cmp_kind = CompiledPredicate::CmpKind::kConstant;
        compiled.constant_cmp = -1;
      } else {
        // Non-null cell vs null literal: constant 1.
        compiled.cmp_kind = CompiledPredicate::CmpKind::kConstant;
        compiled.constant_cmp = 1;
      }
      break;
    case storage::ValueType::kString:
      if (lit_type == storage::ValueType::kString) {
        compiled.cmp_kind = CompiledPredicate::CmpKind::kStringRank;
        compiled.code = col.code.data();
        const auto it = std::lower_bound(col.dict.begin(), col.dict.end(),
                                         literal.AsString());
        compiled.rank =
            static_cast<int32_t>(it - col.dict.begin());
        compiled.rank_exact =
            it != col.dict.end() && *it == literal.AsString();
      } else if (lit_numeric) {
        // String cell vs number literal: constant 1 (numbers first).
        compiled.cmp_kind = CompiledPredicate::CmpKind::kConstant;
        compiled.constant_cmp = 1;
      } else {
        compiled.cmp_kind = CompiledPredicate::CmpKind::kConstant;
        compiled.constant_cmp = 1;
      }
      break;
    case storage::ValueType::kNull:
      // All cells null — the null bitmap already rejects every row.
      compiled.cmp_kind = CompiledPredicate::CmpKind::kConstant;
      compiled.constant_cmp = 0;
      break;
  }
  return compiled;
}

void ColumnarTable::FilterInto(const CompiledPredicate& predicate,
                               std::vector<uint8_t>* match) const {
  uint8_t* out = match->data();
  const size_t n = std::min(match->size(), num_rows_);
  // Branch on the comparison kind once, then run a tight sweep.
  switch (predicate.cmp_kind) {
    case CompiledPredicate::CmpKind::kNumeric: {
      const double lit = predicate.num_literal;
      const double* num = predicate.num;
      const uint8_t* is_null = predicate.is_null;
      for (size_t r = 0; r < n; ++r) {
        const double x = num[r];
        const int cmp = x < lit ? -1 : (x > lit ? 1 : 0);
        out[r] = static_cast<uint8_t>(
            out[r] & static_cast<uint8_t>(is_null[r] == 0) &
            static_cast<uint8_t>(predicate.accept[cmp + 1]));
      }
      break;
    }
    case CompiledPredicate::CmpKind::kStringRank: {
      const int32_t rank = predicate.rank;
      const bool exact = predicate.rank_exact;
      const int32_t* code = predicate.code;
      const uint8_t* is_null = predicate.is_null;
      for (size_t r = 0; r < n; ++r) {
        const int32_t c = code[r];
        const int cmp =
            exact ? (c < rank ? -1 : (c > rank ? 1 : 0))
                  : (c < rank ? -1 : 1);
        out[r] = static_cast<uint8_t>(
            out[r] & static_cast<uint8_t>(is_null[r] == 0) &
            static_cast<uint8_t>(predicate.accept[cmp + 1]));
      }
      break;
    }
    case CompiledPredicate::CmpKind::kConstant: {
      const uint8_t pass =
          static_cast<uint8_t>(predicate.accept[predicate.constant_cmp + 1]);
      const uint8_t* is_null = predicate.is_null;
      for (size_t r = 0; r < n; ++r) {
        out[r] = static_cast<uint8_t>(
            out[r] & static_cast<uint8_t>(is_null[r] == 0) & pass);
      }
      break;
    }
  }
}

}  // namespace opinedb::core
