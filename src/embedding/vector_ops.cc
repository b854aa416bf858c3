#include "embedding/vector_ops.h"

#include <cassert>
#include <cmath>

namespace opinedb::embedding {

double Dot(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += double(a[i]) * double(b[i]);
  return sum;
}

double Norm(const Vec& a) { return Norm(a.data(), a.size()); }

double Norm(const float* a, size_t dim) {
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) sum += double(a[i]) * double(a[i]);
  return std::sqrt(sum);
}

double Cosine(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  return CosineWithNorms(a.data(), Norm(a), b.data(), Norm(b), a.size());
}

double SquaredDistance(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = double(a[i]) - double(b[i]);
    sum += d * d;
  }
  return sum;
}

void AxPy(double scale, const Vec& b, Vec* a) {
  assert(a->size() == b.size());
  for (size_t i = 0; i < b.size(); ++i) {
    (*a)[i] += static_cast<float>(scale * b[i]);
  }
}

void Scale(double s, Vec* a) {
  for (float& x : *a) x = static_cast<float>(x * s);
}

Vec Zeros(size_t dim) { return Vec(dim, 0.0f); }

Vec Mean(const std::vector<Vec>& vectors, size_t dim) {
  Vec mean = Zeros(dim);
  if (vectors.empty()) return mean;
  for (const Vec& v : vectors) AxPy(1.0, v, &mean);
  Scale(1.0 / static_cast<double>(vectors.size()), &mean);
  return mean;
}

}  // namespace opinedb::embedding
