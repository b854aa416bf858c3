#ifndef OPINEDB_ML_LOGISTIC_REGRESSION_H_
#define OPINEDB_ML_LOGISTIC_REGRESSION_H_

#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"

namespace opinedb::ml {

/// One binary-labeled training example with a dense feature vector.
struct Example {
  std::vector<double> features;
  int label = 0;  // 0 or 1.
};

/// 1 / (1 + e^-x), saturated to exactly 0 or 1 beyond |x| > 30.
inline double Sigmoid(double x) {
  if (x > 30.0) return 1.0;
  if (x < -30.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

/// Logistic-regression training options.
struct LogRegOptions {
  int epochs = 80;
  double learning_rate = 0.1;
  double l2 = 1e-4;
  uint64_t seed = 42;
  /// Standardize features to zero mean / unit variance before training
  /// (stored so inference applies the same transform).
  bool standardize = true;
};

/// Binary logistic regression trained with mini-SGD.
///
/// This is the membership-function model of Section 3.3: the probability
/// output P(y=1|x) is used directly as a degree of truth in [0, 1].
class LogisticRegression {
 public:
  /// Trains on `examples` (all feature vectors of equal length).
  static LogisticRegression Train(const std::vector<Example>& examples,
                                  const LogRegOptions& options);

  /// P(y = 1 | features) in [0, 1].
  double Predict(const std::vector<double>& features) const;

  /// Allocation-free variant over a raw feature buffer; the vector
  /// overload forwards here. The columnar scoring sweep calls this once
  /// per (entity, atom), so it must not touch the heap, and it is inline
  /// so it compiles into each scoring kernel.
  double Predict(const double* features, size_t n) const {
    if (weights_.empty()) return 0.5;
    assert(n == weights_.size());
    (void)n;
    double z = bias_;
    for (size_t j = 0; j < weights_.size(); ++j) {
      z += weights_[j] * (features[j] - mean_[j]) * inv_std_[j];
    }
    return Sigmoid(z);
  }

  /// Hard decision at 0.5.
  int Classify(const std::vector<double>& features) const {
    return Predict(features) >= 0.5 ? 1 : 0;
  }

  /// Fraction of `examples` classified correctly.
  double Accuracy(const std::vector<Example>& examples) const;

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }
  size_t dim() const { return weights_.size(); }

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
  // Standardization parameters (identity when standardize was false).
  std::vector<double> mean_;
  std::vector<double> inv_std_;
};

}  // namespace opinedb::ml

#endif  // OPINEDB_ML_LOGISTIC_REGRESSION_H_
