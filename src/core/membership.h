#ifndef OPINEDB_CORE_MEMBERSHIP_H_
#define OPINEDB_CORE_MEMBERSHIP_H_

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/status.h"
#include "embedding/phrase_rep.h"
#include "extract/pipeline.h"
#include "ml/logistic_regression.h"

namespace opinedb::core {

/// Number of features the marker-based membership model consumes; the
/// features themselves are core::MarkerFeatures (core/columnar.h).
inline constexpr size_t kMembershipFeatureDim = 10;

/// The "no markers" ablation of Table 7: equivalent engineered features
/// computed directly from the extracted phrases of (attribute, entity),
/// `phrases` indexing into `relation` — requires scanning the extraction
/// table at query time.
std::vector<double> MembershipFeaturesNoMarkers(
    const std::vector<extract::ExtractedOpinion>& relation,
    const std::vector<size_t>& phrases,
    const embedding::PhraseEmbedder& embedder,
    const embedding::Vec& query_rep, double query_sentiment);

/// Rejects feature vectors of the wrong dimension or containing NaN /
/// infinity. A single non-finite feature silently poisons every degree
/// of truth downstream (NaN propagates through ⊗/⊕ and breaks ranking
/// comparators), so training validates its inputs up front.
Status ValidateFeatureVector(const std::vector<double>& features);

/// Closed-form membership degree used when no model has been trained:
/// similarity-weighted mass plus sentiment agreement, squashed, and
/// discounted by the amount of supporting evidence. `features` is a
/// MarkerFeatures vector of length kMembershipFeatureDim. Shared by
/// ConditionScorer and the test oracle so both produce the same doubles
/// from the same features.
double HeuristicMembershipDegree(const double* features, size_t n);

/// A learned membership function: logistic regression over
/// MarkerFeatures whose probability output is the degree of truth.
class MembershipModel {
 public:
  /// Labeled tuple (S_i, p_i, y_i): precomputed features + binary label.
  struct LabeledTuple {
    std::vector<double> features;
    int label = 0;
  };

  static MembershipModel Train(const std::vector<LabeledTuple>& tuples,
                               uint64_t seed = 42);

  /// Degree of truth in [0, 1] for a feature vector.
  double DegreeOfTruth(const std::vector<double>& features) const;

  /// Allocation-free variant for the columnar scoring sweep, inline so
  /// it compiles into each scoring kernel; the vector overload forwards
  /// here.
  double DegreeOfTruth(const double* features, size_t n) const {
    const double p = model_.Predict(features, n);
    // Degrees of truth live in [0, 1] by contract; a corrupt feature
    // vector (NaN sneaking past training-time validation) must not leak
    // a non-finite value into the fuzzy combines and ranking
    // comparators.
    if (!std::isfinite(p)) return 0.0;
    return std::clamp(p, 0.0, 1.0);
  }

  /// Test accuracy on held-out tuples (the LR-accuracy of Table 7).
  double Accuracy(const std::vector<LabeledTuple>& tuples) const;

 private:
  ml::LogisticRegression model_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_MEMBERSHIP_H_
