#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "common/string_util.h"

namespace opinedb::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

/// Renders a double the way the BENCH_*.json writers do ("%g"), so the
/// JSON scrape is compact and locale-independent.
std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}


}  // namespace

bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

size_t MetricsRegistry::Counter::ShardIndex() {
  // One shard per thread (hashed): increments from different threads
  // usually land on different cache lines. The thread_local caches the
  // hash computation.
  static thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kNumShards;
  return shard;
}

MetricsRegistry::Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {}

void MetricsRegistry::Histogram::Observe(double value) {
  // lower_bound, not upper_bound: bucket i is inclusive of bounds[i]
  // (Prometheus "le" semantics), so an observation exactly on a boundary
  // lands in the bucket that boundary names.
  const size_t bucket =
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<uint64_t> MetricsRegistry::Histogram::Counts() const {
  std::vector<uint64_t> out(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

uint64_t MetricsRegistry::Histogram::TotalCount() const {
  uint64_t total = 0;
  for (const auto& count : counts_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

double MetricsRegistry::Histogram::Sum() const {
  return sum_.load(std::memory_order_relaxed);
}

void MetricsRegistry::Histogram::Reset() {
  for (auto& count : counts_) count.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Counter* MetricsRegistry::GetCounter(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

MetricsRegistry::Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

MetricsRegistry::Histogram* MetricsRegistry::GetHistogram(
    const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return slot.get();
}

std::vector<double> MetricsRegistry::LatencyBucketsMs() {
  return {0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0};
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
    JsonEscapeAppend(name, &out);
    out += ": " + std::to_string(counter->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
    JsonEscapeAppend(name, &out);
    out += ": " + FormatDouble(gauge->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    if (!first) out += ',';
    first = false;
    out += "\n    ";
    JsonEscapeAppend(name, &out);
    out += ": {\"bounds\": [";
    const auto& bounds = histogram->bounds();
    for (size_t i = 0; i < bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatDouble(bounds[i]);
    }
    out += "], \"counts\": [";
    const auto counts = histogram->Counts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(counts[i]);
    }
    out += "], \"count\": " + std::to_string(histogram->TotalCount());
    out += ", \"sum\": " + FormatDouble(histogram->Sum()) + "}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace opinedb::obs
