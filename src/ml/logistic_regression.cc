#include "ml/logistic_regression.h"

#include <cassert>
#include <cmath>

namespace opinedb::ml {

LogisticRegression LogisticRegression::Train(
    const std::vector<Example>& examples, const LogRegOptions& options) {
  LogisticRegression model;
  if (examples.empty()) return model;
  const size_t dim = examples[0].features.size();
  model.weights_.assign(dim, 0.0);
  model.mean_.assign(dim, 0.0);
  model.inv_std_.assign(dim, 1.0);

  if (options.standardize) {
    for (const auto& ex : examples) {
      assert(ex.features.size() == dim);
      for (size_t j = 0; j < dim; ++j) model.mean_[j] += ex.features[j];
    }
    for (size_t j = 0; j < dim; ++j) {
      model.mean_[j] /= static_cast<double>(examples.size());
    }
    std::vector<double> var(dim, 0.0);
    for (const auto& ex : examples) {
      for (size_t j = 0; j < dim; ++j) {
        const double d = ex.features[j] - model.mean_[j];
        var[j] += d * d;
      }
    }
    for (size_t j = 0; j < dim; ++j) {
      const double sd =
          std::sqrt(var[j] / static_cast<double>(examples.size()));
      model.inv_std_[j] = sd > 1e-9 ? 1.0 / sd : 1.0;
    }
  }

  Rng rng(options.seed);
  std::vector<size_t> order(examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  std::vector<double> x(dim);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    rng.Shuffle(&order);
    const double lr = options.learning_rate /
                      (1.0 + 0.05 * static_cast<double>(epoch));
    for (size_t idx : order) {
      const Example& ex = examples[idx];
      for (size_t j = 0; j < dim; ++j) {
        x[j] = (ex.features[j] - model.mean_[j]) * model.inv_std_[j];
      }
      double z = model.bias_;
      for (size_t j = 0; j < dim; ++j) z += model.weights_[j] * x[j];
      const double error = static_cast<double>(ex.label) - Sigmoid(z);
      for (size_t j = 0; j < dim; ++j) {
        model.weights_[j] +=
            lr * (error * x[j] - options.l2 * model.weights_[j]);
      }
      model.bias_ += lr * error;
    }
  }
  return model;
}

double LogisticRegression::Predict(
    const std::vector<double>& features) const {
  return Predict(features.data(), features.size());
}

double LogisticRegression::Accuracy(
    const std::vector<Example>& examples) const {
  if (examples.empty()) return 0.0;
  int correct = 0;
  for (const auto& ex : examples) {
    if (Classify(ex.features) == ex.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(examples.size());
}

}  // namespace opinedb::ml
