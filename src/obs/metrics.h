#ifndef OPINEDB_OBS_METRICS_H_
#define OPINEDB_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace opinedb::obs {

/// Process-wide metrics switch. All instrumentation call sites are gated
/// on this flag, so with metrics disabled (the default) an instrumented
/// hot path costs one relaxed atomic load and a predictable branch. The
/// engine flips it from EngineOptions::trace_level (see engine.h); it is
/// global, so the most recent engine to change trace level wins — fine
/// for the single-engine-per-process deployments we target, and tests
/// that need isolation save/restore it.
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

/// A process-wide registry of named counters, gauges and fixed-bucket
/// latency histograms with JSON export.
///
/// Lock discipline: registration (GetCounter / GetGauge / GetHistogram)
/// takes the registry mutex, but instruments are registered once and the
/// returned pointers are stable for the life of the registry, so hot
/// paths hold no locks at all — Counter::Add is one relaxed fetch_add on
/// a per-thread shard (16-way, cache-line padded, merged on scrape), and
/// Histogram::Observe is a bucket lookup plus two relaxed atomics.
/// Concurrent increments therefore sum exactly; see tests/obs_test.cc.
class MetricsRegistry {
 public:
  static constexpr size_t kNumShards = 16;

  /// Monotone counter, sharded across threads; merged on Value()/scrape.
  class Counter {
   public:
    void Add(uint64_t delta = 1) {
      shards_[ShardIndex()].value.fetch_add(delta, std::memory_order_relaxed);
    }
    uint64_t Value() const {
      uint64_t total = 0;
      for (const auto& shard : shards_) {
        total += shard.value.load(std::memory_order_relaxed);
      }
      return total;
    }
    void Reset() {
      for (auto& shard : shards_) {
        shard.value.store(0, std::memory_order_relaxed);
      }
    }

   private:
    struct alignas(64) Cell {
      std::atomic<uint64_t> value{0};
    };
    static size_t ShardIndex();
    std::array<Cell, kNumShards> shards_;
  };

  /// Last-write-wins instantaneous value (e.g. queue depth).
  class Gauge {
   public:
    void Set(double value) {
      value_.store(value, std::memory_order_relaxed);
    }
    void Add(double delta) {
      double cur = value_.load(std::memory_order_relaxed);
      while (!value_.compare_exchange_weak(cur, cur + delta,
                                           std::memory_order_relaxed)) {
      }
    }
    double Value() const { return value_.load(std::memory_order_relaxed); }
    void Reset() { value_.store(0.0, std::memory_order_relaxed); }

   private:
    std::atomic<double> value_{0.0};
  };

  /// Fixed-bucket histogram: bucket i counts observations <= bounds[i],
  /// with one implicit overflow bucket above the last bound.
  class Histogram {
   public:
    explicit Histogram(std::vector<double> bounds);

    void Observe(double value);
    /// Per-bucket counts (bounds.size() + 1 entries, overflow last).
    std::vector<uint64_t> Counts() const;
    const std::vector<double>& bounds() const { return bounds_; }
    uint64_t TotalCount() const;
    double Sum() const;
    void Reset();

   private:
    std::vector<double> bounds_;
    std::vector<std::atomic<uint64_t>> counts_;
    std::atomic<double> sum_{0.0};
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by library instrumentation.
  static MetricsRegistry& Global();

  /// Finds or creates an instrument. Pointers are stable until the
  /// registry is destroyed; call once per site and cache the pointer
  /// (the OPINEDB_METRIC_* macros below do exactly that).
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// `bounds` must be strictly increasing; it is fixed on first creation
  /// (later calls with the same name ignore the argument).
  Histogram* GetHistogram(const std::string& name,
                          std::vector<double> bounds);

  /// Default latency buckets (milliseconds, roughly exponential).
  static std::vector<double> LatencyBucketsMs();

  /// Scrape: renders every instrument as one JSON object
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} with keys
  /// sorted by name (deterministic output for golden tests).
  std::string ToJson() const;

  /// Zeroes every instrument (names stay registered). Intended for tests
  /// and benches; not safe concurrently with writers that expect exact
  /// sums.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  // Node-based maps: pointers into the mapped values are stable.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace opinedb::obs

/// Call-site helpers: one enabled-check branch, instrument resolved once
/// (function-local static) the first time the site fires while enabled.
#define OPINEDB_METRIC_COUNT(name, delta)                                   \
  do {                                                                      \
    if (::opinedb::obs::MetricsEnabled()) {                                 \
      static auto* _opinedb_counter =                                       \
          ::opinedb::obs::MetricsRegistry::Global().GetCounter(name);       \
      _opinedb_counter->Add(delta);                                         \
    }                                                                       \
  } while (0)

#define OPINEDB_METRIC_GAUGE_SET(name, value)                               \
  do {                                                                      \
    if (::opinedb::obs::MetricsEnabled()) {                                 \
      static auto* _opinedb_gauge =                                         \
          ::opinedb::obs::MetricsRegistry::Global().GetGauge(name);         \
      _opinedb_gauge->Set(value);                                           \
    }                                                                       \
  } while (0)

#define OPINEDB_METRIC_LATENCY_MS(name, value)                              \
  do {                                                                      \
    if (::opinedb::obs::MetricsEnabled()) {                                 \
      static auto* _opinedb_histogram =                                     \
          ::opinedb::obs::MetricsRegistry::Global().GetHistogram(           \
              name, ::opinedb::obs::MetricsRegistry::LatencyBucketsMs());   \
      _opinedb_histogram->Observe(value);                                   \
    }                                                                       \
  } while (0)

#endif  // OPINEDB_OBS_METRICS_H_
