#ifndef OPINEDB_EMBEDDING_VECTOR_OPS_H_
#define OPINEDB_EMBEDDING_VECTOR_OPS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace opinedb::embedding {

/// Dense embedding vector.
using Vec = std::vector<float>;

/// Dot product. Vectors must have equal dimension.
double Dot(const Vec& a, const Vec& b);

/// Euclidean norm.
double Norm(const Vec& a);

/// Norm over `dim` floats at `a`: the same in-order double-accumulated
/// sum of squares, so it equals Norm of the same values bit for bit.
double Norm(const float* a, size_t dim);

/// Cosine similarity in [-1, 1]; 0 if either vector is zero.
double Cosine(const Vec& a, const Vec& b);

/// Cosine with both norms supplied (each computed by Norm), for callers
/// that score one vector against many: the same zero-vector guard, the
/// same in-order double-accumulated dot product and the same final
/// division as Cosine, so the result equals Cosine(a, b) bit for bit.
inline double CosineWithNorms(const float* a, double norm_a, const float* b,
                              double norm_b, size_t dim) {
  if (norm_a == 0.0 || norm_b == 0.0) return 0.0;
  double sum = 0.0;
  for (size_t i = 0; i < dim; ++i) sum += double(a[i]) * double(b[i]);
  return sum / (norm_a * norm_b);
}

/// Squared Euclidean distance.
double SquaredDistance(const Vec& a, const Vec& b);

/// a += scale * b.
void AxPy(double scale, const Vec& b, Vec* a);

/// Scales `a` in place.
void Scale(double s, Vec* a);

/// Returns a zero vector of dimension `dim`.
Vec Zeros(size_t dim);

/// Element-wise mean of `vectors`; zero vector of `dim` if empty.
Vec Mean(const std::vector<Vec>& vectors, size_t dim);

}  // namespace opinedb::embedding

#endif  // OPINEDB_EMBEDDING_VECTOR_OPS_H_
