#include "core/columnar.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/fault.h"
#include "core/engine.h"
#include "core/interpreter.h"
#include "obs/metrics.h"

namespace opinedb::core {

size_t AttributeColumns::bytes() const {
  return count.allocated_bytes() + mean_sentiment.allocated_bytes() +
         centroid_norm.allocated_bytes() + centroid.allocated_bytes() +
         total.allocated_bytes() + unmatched.allocated_bytes() +
         provenance.capacity() * sizeof(ProvenanceEntry);
}

size_t AttributeColumns::scan_bytes_per_entity() const {
  // One atom reads, per entity: K counts, K sentiments, K norms, K
  // centroids and the two per-entity scalars.
  return num_markers * (2 * sizeof(double) + sizeof(double) +
                        dim * sizeof(float)) +
         2 * sizeof(double);
}

ColumnarSummaryStore::ColumnarSummaryStore(const SubjectiveSchema& schema,
                                           size_t num_entities, size_t dim)
    : num_entities_(num_entities) {
  columns_.resize(schema.num_attributes());
  for (size_t a = 0; a < columns_.size(); ++a) {
    AttributeColumns& cols = columns_[a];
    cols.num_entities = num_entities;
    cols.num_markers = schema.attributes[a].summary_type.num_markers();
    cols.dim = dim;
    const size_t cells = num_entities * cols.num_markers;
    cols.count.Reset(cells);
    cols.mean_sentiment.Reset(cells);
    cols.centroid_norm.Reset(cells);
    cols.centroid.Reset(cells * dim);
    cols.total.Reset(num_entities);
    cols.unmatched.Reset(num_entities);
  }
}

void ColumnarSummaryStore::AddPhrase(size_t attribute, size_t entity,
                                     const std::vector<double>& weights,
                                     double sentiment,
                                     const embedding::Vec& vec,
                                     text::ReviewId review) {
  AttributeColumns& cols = columns_[attribute];
  const size_t base = entity * cols.num_markers;
  const size_t dims = std::min(cols.dim, vec.size());
  for (size_t m = 0; m < cols.num_markers && m < weights.size(); ++m) {
    const double w = weights[m];
    if (w <= 0.0) continue;
    double& count = cols.count[base + m];
    double& mean = cols.mean_sentiment[base + m];
    float* centroid = cols.centroid.data() + (base + m) * cols.dim;
    const double new_count = count + w;
    // Running weighted means for sentiment and the centroid.
    mean = (mean * count + sentiment * w) / new_count;
    for (size_t d = 0; d < dims; ++d) {
      centroid[d] = static_cast<float>(
          (double(centroid[d]) * count + double(vec[d]) * w) / new_count);
    }
    count = new_count;
    cols.provenance.push_back(ProvenanceEntry{
        static_cast<uint32_t>(entity), static_cast<uint32_t>(m), review});
  }
}

void ColumnarSummaryStore::RefreshEntity(size_t attribute, size_t entity) {
  AttributeColumns& cols = columns_[attribute];
  const size_t base = entity * cols.num_markers;
  double total = 0.0;
  for (size_t m = 0; m < cols.num_markers; ++m) {
    total += cols.count[base + m];
    cols.centroid_norm[base + m] = embedding::Norm(
        cols.centroid.data() + (base + m) * cols.dim, cols.dim);
  }
  cols.total[entity] = total;
}

void ColumnarSummaryStore::Refresh(ThreadPool* pool) {
  for (size_t a = 0; a < columns_.size(); ++a) {
    auto refresh_range = [this, a](size_t begin, size_t end) {
      for (size_t e = begin; e < end; ++e) RefreshEntity(a, e);
    };
    if (pool != nullptr) {
      pool->ParallelFor(0, num_entities_, refresh_range, /*min_grain=*/64);
    } else {
      refresh_range(0, num_entities_);
    }
  }
}

std::vector<text::ReviewId> ColumnarSummaryStore::Provenance(
    size_t attribute, size_t entity, size_t marker) const {
  std::vector<text::ReviewId> reviews;
  for (const ProvenanceEntry& entry : columns_[attribute].provenance) {
    if (entry.entity == entity && entry.marker == marker) {
      reviews.push_back(entry.review);
    }
  }
  return reviews;
}

std::string ColumnarSummaryStore::Histogram(const MarkerSummaryType& type,
                                            size_t attribute,
                                            size_t entity) const {
  std::string out = "[";
  for (size_t m = 0; m < columns_[attribute].num_markers; ++m) {
    if (m > 0) out += ", ";
    out += type.markers[m];
    out += ": ";
    char buf[32];
    snprintf(buf, sizeof(buf), "%.1f", count(attribute, entity, m));
    out += buf;
  }
  out += "]";
  return out;
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
  OPINEDB_FAULT("score.features");
  double f[kMembershipFeatureDim];
  MarkerFeatures(*atom.columns, entity, atom.marker, query_rep_->data(),
                 query_norm_, query_sentiment_, f);
  return Membership(f, kMembershipFeatureDim);
}

double ConditionScorer::PhraseDegree(const BoundAtom& atom,
                                     size_t entity) const {
  OPINEDB_FAULT("score.features");
  const std::vector<double> f = MembershipFeaturesNoMarkers(
      db_->tables().extractions,
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
    col.name = table.columns()[c].name;
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

Result<ColumnarTable::CompiledPredicate> ColumnarTable::Compile(
    const storage::ColumnPredicate& predicate) const {
  // A repeated name resolves to its last column, as
  // storage::Table::ColumnIndex does.
  const auto it =
      std::find_if(columns_.rbegin(), columns_.rend(), [&](const Column& c) {
        return c.name == predicate.column;
      });
  if (it == columns_.rend()) {
    return Status::NotFound("column " + predicate.column);
  }
  const Column& col = *it;
  const storage::Value& literal = predicate.literal;
  CompiledPredicate compiled;
  compiled.is_null = col.is_null.data();
  // Operator → accepted signs of cell.Compare(literal), exactly as
  // BoundColumnPredicate::Matches maps them.
  switch (predicate.op) {
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
