#include "core/aggregator.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace opinedb::core {

Aggregator::Aggregator(const SubjectiveSchema* schema,
                       const AttributeClassifier* classifier,
                       const embedding::PhraseEmbedder* embedder,
                       const sentiment::Analyzer* analyzer)
    : schema_(schema),
      classifier_(classifier),
      embedder_(embedder),
      analyzer_(analyzer) {
  marker_vecs_.resize(schema_->num_attributes());
  marker_senti_.resize(schema_->num_attributes());
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const auto& markers = schema_->attributes[a].summary_type.markers;
    for (const auto& marker : markers) {
      marker_vecs_[a].push_back(embedder_->Represent(marker));
      marker_senti_[a].push_back(analyzer_->ScorePhrase(marker));
    }
  }
}

std::vector<double> Aggregator::MarkerWeights(
    size_t attribute, const std::string& phrase,
    const AggregationOptions& options) const {
  const auto& vecs = marker_vecs_[attribute];
  std::vector<double> weights(vecs.size(), 0.0);
  if (vecs.empty()) return weights;
  const embedding::Vec rep = embedder_->Represent(phrase);
  const double phrase_senti = analyzer_->ScorePhrase(phrase);
  const bool linear = schema_->attributes[attribute].summary_type.kind ==
                      SummaryKind::kLinearlyOrdered;

  std::vector<double> sims(vecs.size(), 0.0);
  for (size_t m = 0; m < vecs.size(); ++m) {
    double s = embedding::Cosine(rep, vecs[m]);
    if (linear) {
      // On a linear scale, sentiment agreement disambiguates markers that
      // are lexically close ("clean" vs "very clean" vs "dirty").
      const double senti_gap =
          std::abs(phrase_senti - marker_senti_[attribute][m]);
      s = 0.5 * s + 0.5 * (1.0 - senti_gap / 2.0);
    }
    sims[m] = s;
  }
  size_t best = 0;
  for (size_t m = 1; m < sims.size(); ++m) {
    if (sims[m] > sims[best]) best = m;
  }
  if (sims[best] < options.match_threshold) return weights;  // Unmatched.

  if (options.fractional && linear && sims.size() >= 2) {
    // Split mass between the best and runner-up markers proportionally.
    size_t second = best == 0 ? 1 : 0;
    for (size_t m = 0; m < sims.size(); ++m) {
      if (m != best && sims[m] > sims[second]) second = m;
    }
    const double s1 = std::max(0.0, sims[best]);
    const double s2 = std::max(0.0, sims[second]);
    const double total = s1 + s2;
    if (total > 0.0) {
      weights[best] = s1 / total;
      weights[second] = s2 / total;
      return weights;
    }
  }
  weights[best] = 1.0;
  return weights;
}

namespace {

bool PassesFilter(const text::Review& review,
                  const text::ReviewCorpus& corpus,
                  const AggregationOptions& options) {
  if (options.min_date.has_value() && review.date < *options.min_date) {
    return false;
  }
  if (options.min_reviewer_reviews.has_value() &&
      corpus.reviewer_review_count(review.reviewer) <
          *options.min_reviewer_reviews) {
    return false;
  }
  return true;
}

}  // namespace

void SubjectiveTables::ClearRelation() {
  extractions.clear();
  extraction_attribute.clear();
  extraction_marker.clear();
  extraction_margin.clear();
  for (auto& entities : extraction_lists) {
    for (auto& list : entities) list.clear();
  }
}

SubjectiveTables Aggregator::Build(
    const text::ReviewCorpus& corpus,
    std::vector<extract::ExtractedOpinion> extractions,
    const AggregationOptions& options, ThreadPool* pool,
    bool extraction_lists) const {
  SubjectiveTables tables;
  tables.summaries = ColumnarSummaryStore(*schema_, corpus.num_entities(),
                                          embedder_->dim());
  tables.extractions = std::move(extractions);
  if (extraction_lists) {
    tables.extraction_lists.assign(
        schema_->num_attributes(),
        std::vector<std::vector<size_t>>(corpus.num_entities()));
  }
  Append(corpus, options, 0, &tables, pool);
  return tables;
}

void Aggregator::Append(const text::ReviewCorpus& corpus,
                        const AggregationOptions& options, size_t first,
                        SubjectiveTables* tables, ThreadPool* pool) const {
  const size_t num_attrs = schema_->num_attributes();
  const size_t end = tables->extractions.size();
  tables->extraction_attribute.resize(end, -1);
  tables->extraction_marker.resize(end, -1);
  tables->extraction_margin.resize(end, 0.0);

  // Phase 1 (parallel): everything per-extraction and read-only — the
  // review filter, attribute classification, marker matching and the
  // phrase embedding. Each iteration writes only its own slots.
  struct Prepared {
    bool matched = false;
    bool unmatched_in_domain = false;  // Classified but below threshold.
    int best_marker = -1;
    std::vector<double> weights;
    embedding::Vec phrase_vec;
  };
  std::vector<Prepared> prepared(end - first);
  auto prepare_range = [&](size_t begin, size_t stop) {
    for (size_t i = begin; i < stop; ++i) {
      const auto& opinion = tables->extractions[i];
      const auto& review = corpus.review(opinion.review);
      if (!PassesFilter(review, corpus, options)) continue;
      const auto [a, margin] =
          classifier_->ClassifyWithMargin(opinion.aspect, opinion.opinion);
      tables->extraction_attribute[i] = a;
      tables->extraction_margin[i] = margin;
      if (a < 0 || static_cast<size_t>(a) >= num_attrs) continue;
      Prepared& prep = prepared[i - first];
      prep.weights = MarkerWeights(a, opinion.phrase, options);
      int best_marker = -1;
      double best_weight = 0.0;
      for (size_t m = 0; m < prep.weights.size(); ++m) {
        if (prep.weights[m] > best_weight) {
          best_weight = prep.weights[m];
          best_marker = static_cast<int>(m);
        }
      }
      if (best_marker < 0) {
        prep.unmatched_in_domain = true;
        continue;
      }
      prep.matched = true;
      prep.best_marker = best_marker;
      prep.phrase_vec = embedder_->Represent(opinion.phrase);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(first, end, prepare_range, /*min_grain=*/16);
  } else {
    prepare_range(first, end);
  }

  // Phase 2 (serial): fold onto the summaries in extraction order — the
  // same mutation sequence whatever the range boundaries or the pool,
  // hence bit-identical.
  const bool lists = !tables->extraction_lists.empty();
  std::vector<std::pair<size_t, size_t>> touched;
  for (size_t i = first; i < end; ++i) {
    const Prepared& prep = prepared[i - first];
    const auto& opinion = tables->extractions[i];
    const int a = tables->extraction_attribute[i];
    if (lists && a >= 0) {
      tables->extraction_lists[a][opinion.entity].push_back(i);
    }
    if (prep.unmatched_in_domain) {
      tables->summaries.AddUnmatched(a, opinion.entity);
      continue;
    }
    if (!prep.matched) continue;
    tables->extraction_marker[i] = prep.best_marker;
    tables->summaries.AddPhrase(a, opinion.entity, prep.weights,
                                opinion.sentiment, prep.phrase_vec,
                                opinion.review);
    touched.emplace_back(static_cast<size_t>(a),
                         static_cast<size_t>(opinion.entity));
  }

  // Refresh each touched (attribute, entity) once; every other cell's
  // derived values are still those of its unchanged folded state.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  auto refresh_range = [&](size_t begin, size_t stop) {
    for (size_t t = begin; t < stop; ++t) {
      tables->summaries.RefreshEntity(touched[t].first, touched[t].second);
    }
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, touched.size(), refresh_range, /*min_grain=*/64);
  } else {
    refresh_range(0, touched.size());
  }
}

}  // namespace opinedb::core
