#include "oracle/row_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/aggregator.h"
#include "core/columnar.h"
#include "core/membership.h"
#include "core/query.h"

namespace opinedb::oracle {

MarkerSummary::MarkerSummary(size_t num_markers, size_t embedding_dim)
    : cells_(num_markers) {
  for (auto& cell : cells_) cell.centroid = embedding::Zeros(embedding_dim);
}

double MarkerSummary::total_count() const {
  double total = 0.0;
  for (const auto& cell : cells_) total += cell.count;
  return total;
}

void MarkerSummary::AddPhrase(const std::vector<double>& weights,
                              double sentiment, const embedding::Vec& vec,
                              text::ReviewId review) {
  for (size_t m = 0; m < cells_.size() && m < weights.size(); ++m) {
    const double w = weights[m];
    if (w <= 0.0) continue;
    MarkerCell& cell = cells_[m];
    const double new_count = cell.count + w;
    // Running weighted means for sentiment and the centroid.
    cell.mean_sentiment =
        (cell.mean_sentiment * cell.count + sentiment * w) / new_count;
    for (size_t d = 0; d < cell.centroid.size() && d < vec.size(); ++d) {
      cell.centroid[d] = static_cast<float>(
          (double(cell.centroid[d]) * cell.count + double(vec[d]) * w) /
          new_count);
    }
    cell.count = new_count;
    cell.provenance.push_back(review);
  }
}

std::vector<double> MembershipFeatures(const MarkerSummary& summary,
                                       int marker,
                                       const embedding::Vec& query_rep,
                                       double query_sentiment) {
  std::vector<double> f(core::kMembershipFeatureDim, 0.0);
  const double total = summary.total_count();
  f[0] = std::log1p(total);
  if (total <= 0.0) {
    f[9] = 1.0;  // Empty-summary indicator.
    return f;
  }
  const size_t m = static_cast<size_t>(std::max(0, marker));
  const MarkerCell& target = summary.cell(m);
  f[1] = target.count / total;  // Mass at the interpreted marker.

  // Weighted aggregates over all markers.
  double weighted_sentiment = 0.0;
  double weighted_similarity = 0.0;
  double mass_at_or_above = 0.0;  // Markers no further down the scale.
  for (size_t k = 0; k < summary.num_markers(); ++k) {
    const MarkerCell& cell = summary.cell(k);
    const double frac = cell.count / total;
    weighted_sentiment += frac * cell.mean_sentiment;
    weighted_similarity +=
        frac * embedding::Cosine(query_rep, cell.centroid);
    if (k <= m) mass_at_or_above += frac;
  }
  f[2] = mass_at_or_above;
  f[3] = weighted_sentiment;
  f[4] = target.mean_sentiment;
  f[5] = embedding::Cosine(query_rep, target.centroid);
  f[6] = weighted_similarity;
  f[7] = summary.unmatched_count() /
         (total + summary.unmatched_count());
  f[8] = 1.0 - std::abs(query_sentiment - weighted_sentiment) / 2.0;
  f[9] = 0.0;
  return f;
}

void ReferenceMarkerFeatures(const core::AttributeColumns& cols,
                             size_t entity, size_t marker,
                             const float* query_rep, double query_norm,
                             double query_sentiment, double* f) {
  for (size_t i = 0; i < core::kMembershipFeatureDim; ++i) f[i] = 0.0;
  const double total = cols.total[entity];
  f[0] = std::log1p(total);
  if (total <= 0.0) {
    f[9] = 1.0;  // Empty-summary indicator.
    return;
  }
  const size_t k = cols.num_markers;
  const size_t base = entity * k;
  const size_t m = marker;
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
        query_rep, query_norm, centroids + j * cols.dim,
        cols.centroid_norm[base + j], cols.dim);
    weighted_similarity += frac * cosine;
    if (j <= m) mass_at_or_above += frac;
    if (j == m) target_cosine = cosine;
  }
  f[2] = mass_at_or_above;
  f[3] = weighted_sentiment;
  f[4] = cols.mean_sentiment[base + m];
  f[5] = target_cosine;
  f[6] = weighted_similarity;
  f[7] = cols.unmatched[entity] / (total + cols.unmatched[entity]);
  f[8] = 1.0 - std::abs(query_sentiment - weighted_sentiment) / 2.0;
  f[9] = 0.0;
}

double ReferenceMarkerScore(const core::OpineDb& db,
                            const core::PredicateInterpretation& interpretation,
                            const embedding::Vec& query_rep,
                            double query_sentiment, size_t entity) {
  const core::ColumnarSummaryStore& store = *db.columnar_store();
  const double query_norm = embedding::Norm(query_rep);
  double acc = 0.0;
  for (size_t i = 0; i < interpretation.atoms.size(); ++i) {
    const core::AtomInterpretation& atom = interpretation.atoms[i];
    const auto attribute = static_cast<size_t>(atom.attribute);
    std::vector<double> f(core::kMembershipFeatureDim);
    ReferenceMarkerFeatures(store.attribute(attribute), entity,
                            static_cast<size_t>(atom.marker),
                            query_rep.data(), query_norm, query_sentiment,
                            f.data());
    double d = db.has_membership_model()
                   ? db.membership_model().DegreeOfTruth(f)
                   : core::HeuristicMembershipDegree(f.data(), f.size());
    d = std::isfinite(d) ? std::clamp(d, 0.0, 1.0) : 0.0;
    if (i == 0) {
      acc = d;
    } else if (interpretation.conjunctive) {
      acc = fuzzy::And(db.options().variant, acc, d);
    } else {
      acc = fuzzy::Or(db.options().variant, acc, d);
    }
  }
  return acc;
}

MarkerSummary RowFromStore(const core::ColumnarSummaryStore& store,
                           size_t attribute, size_t entity) {
  const core::AttributeColumns& cols = store.attribute(attribute);
  MarkerSummary row(cols.num_markers, cols.dim);
  for (size_t m = 0; m < cols.num_markers; ++m) {
    const size_t cell = entity * cols.num_markers + m;
    MarkerCell& out = row.mutable_cell(m);
    out.count = cols.count[cell];
    out.mean_sentiment = cols.mean_sentiment[cell];
    std::copy_n(cols.centroid.data() + cell * cols.dim, cols.dim,
                out.centroid.begin());
    out.provenance = store.Provenance(attribute, entity, m);
  }
  row.SetUnmatchedCount(cols.unmatched[entity]);
  return row;
}

RowSummaries::RowSummaries(const core::OpineDb& db) : db_(&db) {
  const core::SubjectiveTables& tables = db.tables();
  if (tables.extractions.empty()) return;
  const core::SubjectiveSchema& schema = db.schema();
  const size_t dim = db.phrase_embedder().dim();
  folded_.resize(schema.num_attributes());
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    folded_[a].assign(
        db.corpus().num_entities(),
        MarkerSummary(schema.attributes[a].summary_type.num_markers(), dim));
  }
  const core::Aggregator aggregator(&schema, &db.attribute_classifier(),
                                    &db.phrase_embedder(), &db.analyzer());
  for (size_t i = 0; i < tables.extractions.size(); ++i) {
    const int a = tables.extraction_attribute[i];
    if (a < 0 || static_cast<size_t>(a) >= folded_.size()) continue;
    const extract::ExtractedOpinion& opinion = tables.extractions[i];
    MarkerSummary& row = folded_[a][opinion.entity];
    // A classified opinion without a marker matched none of them.
    if (tables.extraction_marker[i] < 0) {
      row.AddUnmatched();
      continue;
    }
    row.AddPhrase(aggregator.MarkerWeights(static_cast<size_t>(a),
                                           opinion.phrase,
                                           db.options().aggregation),
                  opinion.sentiment,
                  db.phrase_embedder().Represent(opinion.phrase),
                  opinion.review);
  }
}

MarkerSummary RowSummaries::Get(size_t attribute,
                                text::EntityId entity) const {
  if (folded()) return folded_[attribute][static_cast<size_t>(entity)];
  return RowFromStore(*db_->columnar_store(), attribute,
                      static_cast<size_t>(entity));
}

std::string CompareStoreToRows(const core::OpineDb& db) {
  const RowSummaries rows(db);
  const core::ColumnarSummaryStore& store = *db.columnar_store();
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    const core::AttributeColumns& cols = store.attribute(a);
    // Each cell's reviews, bucketed from the log in log order.
    std::vector<std::vector<text::ReviewId>> provenance(
        cols.num_entities * cols.num_markers);
    for (const core::ProvenanceEntry& entry : cols.provenance) {
      provenance[entry.entity * cols.num_markers + entry.marker].push_back(
          entry.review);
    }
    for (size_t e = 0; e < cols.num_entities; ++e) {
      const MarkerSummary row = rows.Get(a, static_cast<text::EntityId>(e));
      const std::string where =
          "attribute " + std::to_string(a) + " entity " + std::to_string(e);
      if (row.num_markers() != cols.num_markers) {
        return where + ": marker count";
      }
      if (cols.total[e] != row.total_count()) return where + ": total";
      if (cols.log1p_total[e] != std::log1p(row.total_count())) {
        return where + ": log1p_total";
      }
      if (cols.unmatched[e] != row.unmatched_count()) {
        return where + ": unmatched";
      }
      for (size_t m = 0; m < cols.num_markers; ++m) {
        const size_t cell = e * cols.num_markers + m;
        const MarkerCell& want = row.cell(m);
        const std::string at = where + " marker " + std::to_string(m);
        if (cols.count[cell] != want.count) return at + ": count";
        if (cols.mean_sentiment[cell] != want.mean_sentiment) {
          return at + ": mean_sentiment";
        }
        if (want.centroid.size() != cols.dim ||
            !std::equal(want.centroid.begin(), want.centroid.end(),
                        cols.centroid.data() + cell * cols.dim)) {
          return at + ": centroid";
        }
        if (cols.centroid_norm[cell] != embedding::Norm(want.centroid)) {
          return at + ": centroid_norm";
        }
        if (provenance[cell] != want.provenance) return at + ": provenance";
      }
    }
  }
  return "";
}

std::string StoreImage(const core::ColumnarSummaryStore& store) {
  std::string image;
  const auto append = [&image](const auto* data, size_t n) {
    if (n > 0) {
      image.append(reinterpret_cast<const char*>(data), n * sizeof(*data));
    }
  };
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    const core::AttributeColumns& cols = store.attribute(a);
    const size_t cells = cols.num_entities * cols.num_markers;
    image += "attribute " + std::to_string(a) + " " +
             std::to_string(cols.num_entities) + "x" +
             std::to_string(cols.num_markers) + "x" +
             std::to_string(cols.dim) + "\n";
    append(cols.count.data(), cells);
    append(cols.mean_sentiment.data(), cells);
    append(cols.centroid.data(), cells * cols.dim);
    append(cols.centroid_norm.data(), cells);
    append(cols.total.data(), cols.num_entities);
    append(cols.log1p_total.data(), cols.num_entities);
    append(cols.unmatched.data(), cols.num_entities);
    for (const core::ProvenanceEntry& entry : cols.provenance) {
      append(&entry.entity, 1);
      append(&entry.marker, 1);
      append(&entry.review, 1);
    }
  }
  return image;
}

RowPredicate::RowPredicate(const core::OpineDb& db, std::string predicate,
                           std::shared_ptr<const RowSummaries> rows)
    : db_(&db),
      predicate_(std::move(predicate)),
      rows_(rows != nullptr ? std::move(rows)
                            : std::make_shared<const RowSummaries>(db)),
      interpretation_(db.interpreter().Interpret(predicate_)),
      rep_(db.phrase_embedder().Represent(predicate_)),
      sentiment_(db.analyzer().ScorePhrase(predicate_)) {}

double RowPredicate::AtomDegree(const core::AtomInterpretation& atom,
                                text::EntityId entity) const {
  const auto attribute = static_cast<size_t>(atom.attribute);
  const std::vector<double> features =
      db_->options().use_markers
          ? MembershipFeatures(rows_->Get(attribute, entity), atom.marker,
                               rep_, sentiment_)
          : core::MembershipFeaturesNoMarkers(
                db_->tables().extractions, db_->PhrasesOf(attribute, entity),
                db_->phrase_embedder(), rep_, sentiment_);
  const double d =
      db_->has_membership_model()
          ? db_->membership_model().DegreeOfTruth(features)
          : core::HeuristicMembershipDegree(features.data(),
                                            features.size());
  if (!std::isfinite(d)) return 0.0;
  return std::clamp(d, 0.0, 1.0);
}

double RowPredicate::Degree(text::EntityId entity) const {
  if (interpretation_.method == core::InterpretMethod::kTextFallback ||
      interpretation_.atoms.empty()) {
    return db_->TextFallbackDegree(predicate_, entity);
  }
  const fuzzy::Variant variant = db_->options().variant;
  double acc = 0.0;
  bool first = true;
  for (const auto& atom : interpretation_.atoms) {
    const double d = AtomDegree(atom, entity);
    if (first) {
      acc = d;
      first = false;
    } else if (interpretation_.conjunctive) {
      acc = fuzzy::And(variant, acc, d);
    } else {
      acc = fuzzy::Or(variant, acc, d);
    }
  }
  return acc;
}

std::vector<core::RankedResult> Rank(const core::OpineDb& db,
                                     const std::vector<double>& scores,
                                     size_t limit) {
  std::vector<core::RankedResult> ranked;
  for (size_t e = 0; e < scores.size(); ++e) {
    if (scores[e] <= 0.0) continue;
    core::RankedResult result;
    result.entity = static_cast<text::EntityId>(e);
    result.entity_name = db.corpus().entity_name(result.entity);
    result.score = scores[e];
    ranked.push_back(std::move(result));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const core::RankedResult& a, const core::RankedResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  if (ranked.size() > limit) ranked.resize(limit);
  return ranked;
}

Result<std::vector<core::RankedResult>> Execute(const core::OpineDb& db,
                                                const storage::Table& table,
                                                const std::string& sql) {
  auto query = core::ParseSubjectiveSql(sql);
  if (!query.ok()) return query.status();
  const size_t n = db.corpus().num_entities();
  const auto rows = std::make_shared<const RowSummaries>(db);
  std::vector<std::vector<double>> leaves(query->conditions.size(),
                                          std::vector<double>(n, 0.0));
  for (size_t c = 0; c < query->conditions.size(); ++c) {
    const core::Condition& condition = query->conditions[c];
    if (condition.kind == core::Condition::Kind::kSubjective) {
      const RowPredicate predicate(db, condition.subjective, rows);
      for (size_t e = 0; e < n; ++e) {
        leaves[c][e] = predicate.Degree(static_cast<text::EntityId>(e));
      }
    } else {
      auto bound = condition.objective.Bind(table);
      if (!bound.ok()) return bound.status();
      for (size_t e = 0; e < n; ++e) {
        leaves[c][e] = bound->Matches(table, e) ? 1.0 : 0.0;
      }
    }
  }
  std::vector<double> scores(n, 1.0);
  if (query->where != nullptr) {
    for (size_t e = 0; e < n; ++e) {
      scores[e] = query->where->Evaluate(
          db.options().variant, [&](size_t c) { return leaves[c][e]; });
    }
  }
  return Rank(db, scores, query->limit);
}

}  // namespace opinedb::oracle
