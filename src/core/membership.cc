#include "core/membership.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace opinedb::core {

std::vector<double> MembershipFeatures(const MarkerSummary& summary,
                                       int marker,
                                       const embedding::Vec& query_rep,
                                       double query_sentiment) {
  // Per-entity hot path (runs inside ParallelFor): counters only, no
  // spans — a span per entity would flood the per-query ring buffer.
  OPINEDB_METRIC_COUNT("membership.marker_featurizations", 1);
  std::vector<double> f(kMembershipFeatureDim, 0.0);
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

std::vector<double> MembershipFeaturesNoMarkers(
    const std::vector<const extract::ExtractedOpinion*>& phrases,
    const embedding::PhraseEmbedder& embedder,
    const embedding::Vec& query_rep, double query_sentiment) {
  OPINEDB_METRIC_COUNT("membership.scan_featurizations", 1);
  OPINEDB_METRIC_COUNT("membership.phrases_embedded", phrases.size());
  std::vector<double> f(kMembershipFeatureDim, 0.0);
  const double total = static_cast<double>(phrases.size());
  f[0] = std::log1p(total);
  if (phrases.empty()) {
    f[9] = 1.0;
    return f;
  }
  double mean_sentiment = 0.0;
  double mean_similarity = 0.0;
  double max_similarity = -1.0;
  double similar_count = 0.0;
  double positive_count = 0.0;
  for (const auto* phrase : phrases) {
    // The expensive part the markers avoid: re-embedding every extracted
    // phrase at query time.
    const embedding::Vec rep = embedder.Represent(phrase->phrase);
    const double sim = embedding::Cosine(query_rep, rep);
    mean_similarity += sim;
    max_similarity = std::max(max_similarity, sim);
    if (sim > 0.5) similar_count += 1.0;
    mean_sentiment += phrase->sentiment;
    if (phrase->sentiment > 0.0) positive_count += 1.0;
  }
  mean_sentiment /= total;
  mean_similarity /= total;
  f[1] = similar_count / total;
  f[2] = positive_count / total;
  f[3] = mean_sentiment;
  f[4] = max_similarity;
  f[5] = mean_similarity;
  f[6] = similar_count > 0.0 ? 1.0 : 0.0;
  f[7] = 0.0;
  f[8] = 1.0 - std::abs(query_sentiment - mean_sentiment) / 2.0;
  f[9] = 0.0;
  return f;
}

Status ValidateFeatureVector(const std::vector<double>& features) {
  if (features.size() != kMembershipFeatureDim) {
    return Status::InvalidArgument(
        "feature vector has dimension " + std::to_string(features.size()) +
        ", expected " + std::to_string(kMembershipFeatureDim));
  }
  for (size_t i = 0; i < features.size(); ++i) {
    if (!std::isfinite(features[i])) {
      return Status::InvalidArgument("feature " + std::to_string(i) +
                                     " is not finite");
    }
  }
  return Status::OK();
}

MembershipModel MembershipModel::Train(
    const std::vector<LabeledTuple>& tuples, uint64_t seed) {
  MembershipModel model;
  std::vector<ml::Example> examples;
  examples.reserve(tuples.size());
  for (const auto& tuple : tuples) {
    ml::Example ex;
    ex.features = tuple.features;
    ex.label = tuple.label;
    examples.push_back(std::move(ex));
  }
  ml::LogRegOptions options;
  options.seed = seed;
  model.model_ = ml::LogisticRegression::Train(examples, options);
  return model;
}

double HeuristicMembershipDegree(const double* features, size_t n) {
  (void)n;
  // Matches the engine's historical closed-form fallback bit for bit:
  // the sigmoid here is intentionally unclamped (unlike ml::Sigmoid) so
  // existing goldens and the scorer/oracle differential stay exact.
  const double total = std::expm1(features[0]);
  // Mass at or above the interpreted marker: on a linear scale, rooms
  // "better than asked" satisfy the predicate too.
  const double mass = std::max(features[1], features[2]);
  const double similarity = features[6];
  const double agreement = features[8];
  const double base =
      1.0 / (1.0 + std::exp(-(4.0 * (0.6 * mass + 0.3 * similarity +
                                     0.5 * agreement - 0.45))));
  const double support = -std::expm1(-0.7 * total * mass);
  return base * support;
}

double MembershipModel::DegreeOfTruth(
    const std::vector<double>& features) const {
  return DegreeOfTruth(features.data(), features.size());
}

double MembershipModel::DegreeOfTruth(const double* features,
                                      size_t n) const {
  const double p = model_.Predict(features, n);
  // Degrees of truth live in [0, 1] by contract; a corrupt feature
  // vector (NaN sneaking past training-time validation) must not leak a
  // non-finite value into the fuzzy combines and ranking comparators.
  if (!std::isfinite(p)) return 0.0;
  return std::clamp(p, 0.0, 1.0);
}

double MembershipModel::Accuracy(
    const std::vector<LabeledTuple>& tuples) const {
  if (tuples.empty()) return 0.0;
  int correct = 0;
  for (const auto& tuple : tuples) {
    if ((DegreeOfTruth(tuple.features) >= 0.5 ? 1 : 0) == tuple.label) {
      ++correct;
    }
  }
  return static_cast<double>(correct) / static_cast<double>(tuples.size());
}

}  // namespace opinedb::core
