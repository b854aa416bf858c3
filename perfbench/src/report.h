#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// The traced run's layer split (replays of each layer's public entry
// point, attributed to the request that drove them) and the printed
// report: per-layer self-time tables and the final JSON line.

#include <map>
#include <string>
#include <vector>

#include "deployment.h"
#include "load.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// engine.cache.* counters scraped from GET /metrics.
struct CacheCounters {
  double hit = 0.0;
  double miss = 0.0;
  double interp_hit = 0.0;
  double interp_miss = 0.0;
};

/// Scrapes GET /metrics; false (counted as a failure) on any error.
bool ScrapeCacheCounters(uint16_t port, OpCounts* counts, CacheCounters* out);

struct TraceReport {
  /// Self time (ms) per layer over the sampled /query requests. The
  /// root's self time is the transport; server.handle's is unattributed.
  std::map<std::string, std::vector<double>> query_self;
  std::vector<double> client_ms;
  std::vector<double> handle_ms;
  std::vector<double> transport_ms;
  std::vector<double> interpret_per_predicate_ms;
  std::vector<double> entities_per_result;
  size_t sampled_queries = 0;
  double w2v_frac = 0.0;
  double cooccur_frac = 0.0;
  double text_fallback_frac = 0.0;
  double scan_gbps = 0.0;
  double result_hit_rate = 0.0;
  double interp_hit_rate = 0.0;
  // Write path (write workloads only).
  std::map<std::string, std::vector<double>> write_self;
  std::vector<double> writer_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> wal_append_ms;
  std::vector<double> sync_once_self_ms;
  std::vector<double> fetch_ms;
  double apply_record_ms = 0.0;
};

/// Replays the traced window's exchanges through each layer's public
/// entry point (HttpParser::Feed, JsonValue::Parse, ParseSubjectiveSql,
/// AnalyzeQuery + SelectPlan, ResultToJson), records every replay as a
/// child span of the request's server.handle span, adds the engine's
/// per-phase times from the documented stats section, and reduces the
/// span forest to per-layer self times.
TraceReport AnalyzeTrace(Deployment* deployment, const WindowResult& traced,
                         const CatchUp* catch_up, const RunConfig& config,
                         const CacheCounters& before,
                         const CacheCounters& after, SpanStore* spans,
                         OpCounts* counts);

/// Prints the per-layer self-time tables and the checks that the
/// workload still stresses the layer it was chosen for; false when a
/// check fails.
bool PrintTraceReport(const Workload& workload, const TraceReport& report,
                      double untraced_p50_ms, double traced_p50_ms);

/// The per-layer metrics of the final JSON line (--trace 1).
std::vector<Metric> PerLayerMetrics(const TraceReport& report);

/// Prints one `name value unit (n=...)` report line.
void PrintLine(const std::string& name, double value, const std::string& unit,
               const std::string& note = "");

/// The last line of standard output.
void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics);

/// Single-thread sequential read bandwidth of this host (GB/s), the
/// roofline beside core.scan_gbps.
double MeasureReadGbps();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
