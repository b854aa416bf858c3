#include "core/aggregator.h"

#include <algorithm>
#include <cmath>

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

SubjectiveTables Aggregator::Build(
    const text::ReviewCorpus& corpus,
    std::vector<extract::ExtractedOpinion> extractions,
    const AggregationOptions& options, ThreadPool* pool) const {
  SubjectiveTables tables;
  const size_t num_attrs = schema_->num_attributes();
  tables.summaries = ColumnarSummaryStore(*schema_, corpus.num_entities(),
                                          embedder_->dim());
  tables.extractions = std::move(extractions);
  const size_t num_extractions = tables.extractions.size();
  tables.extraction_attribute.assign(num_extractions, -1);
  tables.extraction_marker.assign(num_extractions, -1);
  tables.extraction_margin.assign(num_extractions, 0.0);

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
  std::vector<Prepared> prepared(num_extractions);
  auto prepare_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto& opinion = tables.extractions[i];
      const auto& review = corpus.review(opinion.review);
      if (!PassesFilter(review, corpus, options)) continue;
      const auto [a, margin] =
          classifier_->ClassifyWithMargin(opinion.aspect, opinion.opinion);
      tables.extraction_attribute[i] = a;
      tables.extraction_margin[i] = margin;
      if (a < 0 || static_cast<size_t>(a) >= num_attrs) continue;
      Prepared& prep = prepared[i];
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
    pool->ParallelFor(0, num_extractions, prepare_range, /*min_grain=*/16);
  } else {
    prepare_range(0, num_extractions);
  }

  // Phase 2 (serial): fold onto the summaries in extraction order — the
  // same mutation sequence as the serial build, hence bit-identical.
  for (size_t i = 0; i < num_extractions; ++i) {
    const Prepared& prep = prepared[i];
    const auto& opinion = tables.extractions[i];
    const int a = tables.extraction_attribute[i];
    if (prep.unmatched_in_domain) {
      tables.summaries.AddUnmatched(a, opinion.entity);
      continue;
    }
    if (!prep.matched) continue;
    tables.extraction_marker[i] = prep.best_marker;
    tables.summaries.AddPhrase(a, opinion.entity, prep.weights,
                               opinion.sentiment, prep.phrase_vec,
                               opinion.review);
  }
  tables.summaries.Refresh(pool);
  return tables;
}

void Aggregator::AddOpinion(const extract::ExtractedOpinion& opinion,
                            const text::ReviewCorpus& corpus,
                            const AggregationOptions& options,
                            SubjectiveTables* tables) const {
  const auto& review = corpus.review(opinion.review);
  tables->extractions.push_back(opinion);
  if (!PassesFilter(review, corpus, options)) {
    tables->extraction_attribute.push_back(-1);
    tables->extraction_marker.push_back(-1);
    tables->extraction_margin.push_back(0.0);
    return;
  }
  const auto [a, margin] =
      classifier_->ClassifyWithMargin(opinion.aspect, opinion.opinion);
  tables->extraction_attribute.push_back(a);
  tables->extraction_margin.push_back(margin);
  if (a < 0 || static_cast<size_t>(a) >= schema_->num_attributes()) {
    tables->extraction_marker.push_back(-1);
    return;
  }
  const auto weights = MarkerWeights(a, opinion.phrase, options);
  int best_marker = -1;
  double best_weight = 0.0;
  for (size_t m = 0; m < weights.size(); ++m) {
    if (weights[m] > best_weight) {
      best_weight = weights[m];
      best_marker = static_cast<int>(m);
    }
  }
  if (best_marker < 0) {
    tables->summaries.AddUnmatched(a, opinion.entity);
    tables->extraction_marker.push_back(-1);
    return;
  }
  tables->extraction_marker.push_back(best_marker);
  tables->summaries.AddPhrase(a, opinion.entity, weights, opinion.sentiment,
                              embedder_->Represent(opinion.phrase),
                              opinion.review);
  tables->summaries.RefreshEntity(a, opinion.entity);
}

}  // namespace opinedb::core
