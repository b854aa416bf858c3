#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// The one percentile definition every metric of the benchmark uses:
/// nearest rank. For q in (0, 1] it is the smallest sample such that at
/// least q·n samples are <= it, i.e. sorted[ceil(q·n) - 1]; q <= 0 gives
/// the minimum. An empty sample has no percentile and yields 0 (callers
/// report the sample count beside it, so an empty cell is visible).
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  if (q <= 0.0) return samples.front();
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = std::min(samples.size(), static_cast<size_t>(rank));
  return samples[index == 0 ? 0 : index - 1];
}

/// Median and p99 of one timing, with the sample count behind them.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

inline Summary Summarize(const std::vector<double>& samples) {
  return Summary{samples.size(), Percentile(samples, 0.50),
                 Percentile(samples, 0.99)};
}
}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
