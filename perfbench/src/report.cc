#include "report.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/columnar.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/result_json.h"
#include "server/httpd.h"
#include "server/json.h"
#include "storage/wal.h"

namespace perfbench {

namespace core = opinedb::core;
namespace srv = opinedb::server;

namespace {

/// Traced replays cover at most this many /query requests, evenly
/// strided over the window.
constexpr size_t kMaxReplayed = 1000;
/// Same-size WalWriter::Append calls in the scratch-directory probe.
constexpr int kWalProbeAppends = 64;

double Number(const srv::JsonValue* object, const char* key) {
  if (object == nullptr) return 0.0;
  const srv::JsonValue* value = object->Find(key);
  return value == nullptr ? 0.0 : value->AsNumber();
}

double Sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

/// Spans of the given requests only.
std::vector<Span> OfRequests(const std::vector<Span>& spans,
                             const std::set<uint64_t>& requests) {
  std::vector<Span> out;
  for (const Span& span : spans) {
    if (requests.count(span.request) != 0) out.push_back(span);
  }
  return out;
}

/// Durations of the spans named `name`.
std::vector<double> Durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) out.push_back(span.duration_ms());
  }
  return out;
}

}  // namespace

bool ScrapeCacheCounters(uint16_t port, OpCounts* counts, CacheCounters* out) {
  Connection connection(port);
  const Connection::Reply reply =
      connection.Send(WireRequest("GET", "/metrics", "", 0), counts);
  if (!reply.ok) return false;
  auto parsed = srv::JsonValue::Parse(reply.body);
  if (!parsed.ok()) {
    ++counts->bad_answers;
    ++counts->failed;
    return false;
  }
  const srv::JsonValue* counters = parsed->Find("counters");
  out->hit = Number(counters, "engine.cache.hit");
  out->miss = Number(counters, "engine.cache.miss");
  out->interp_hit = Number(counters, "engine.cache.interp_hit");
  out->interp_miss = Number(counters, "engine.cache.interp_miss");
  return true;
}

TraceReport AnalyzeTrace(Deployment* deployment, const WindowResult& traced,
                         const CatchUp* catch_up, const RunConfig& config,
                         const CacheCounters& before,
                         const CacheCounters& after, SpanStore* spans,
                         OpCounts* counts) {
  TraceReport report;
  core::OpineDb& db = *deployment->db;

  // server.handle span of every traced request.
  std::unordered_map<uint64_t, Span> handle;
  for (const Span& span : spans->spans()) {
    if (span.name == "server.handle") handle[span.request] = span;
  }

  std::vector<const Exchange*> queries;
  std::set<uint64_t> write_requests;
  std::set<uint64_t> checkpoint_requests;
  for (const Exchange& exchange : traced.exchanges) {
    if (!exchange.ok || handle.count(exchange.request_id) == 0) continue;
    if (exchange.target == "/query") {
      queries.push_back(&exchange);
    } else if (exchange.target == "/reviews") {
      write_requests.insert(exchange.request_id);
    } else {
      checkpoint_requests.insert(exchange.request_id);
    }
  }
  std::sort(queries.begin(), queries.end(),
            [](const Exchange* a, const Exchange* b) {
              return a->request_id < b->request_id;
            });
  const size_t stride = std::max<size_t>(1, queries.size() / kMaxReplayed);

  const core::ColumnarSummaryStore* store = db.columnar_store();
  std::set<uint64_t> sampled;
  double methods[3] = {0.0, 0.0, 0.0};
  double scan_bytes = 0.0;
  double scan_ms = 0.0;
  for (size_t i = 0; i < queries.size(); i += stride) {
    const Exchange& exchange = *queries[i];
    const uint64_t id = exchange.request_id;
    const Span& parent = handle[id];
    sampled.insert(id);

    double start = NowMs();
    srv::HttpParser parser;
    parser.Feed(exchange.wire);
    spans->Add("server.http_parse", id, id, start, NowMs());

    start = NowMs();
    auto body = srv::JsonValue::Parse(exchange.body);
    spans->Add("server.json_parse", parent.id, id, start, NowMs());

    start = NowMs();
    auto query = core::ParseSubjectiveSql(exchange.sql);
    spans->Add("core.sql_parse", parent.id, id, start, NowMs());

    auto response = srv::JsonValue::Parse(exchange.response);
    if (!body.ok() || !query.ok() || !response.ok()) {
      ++counts->bad_answers;
      ++counts->failed;
      continue;
    }
    const srv::JsonValue* stats = response->Find("stats");
    const srv::JsonValue* interpretations = response->Find("interpretations");
    const srv::JsonValue* results = response->Find("results");
    const srv::JsonValue* cache_hit =
        stats == nullptr ? nullptr : stats->Find("result_cache_hit");
    const bool result_cache_hit = cache_hit != nullptr && cache_hit->AsBool();

    // Cascade stage mix over the subjective conditions.
    size_t subjective = 0;
    for (size_t c = 0; c < query->conditions.size(); ++c) {
      if (query->conditions[c].kind != core::Condition::Kind::kSubjective ||
          interpretations == nullptr ||
          c >= interpretations->items().size()) {
        continue;
      }
      ++subjective;
      const auto method = interpretations->items()[c].GetString("method");
      const std::string name = method.value_or("");
      methods[name == "word2vec" ? 0 : name == "cooccurrence" ? 1 : 2] += 1.0;
    }

    if (!result_cache_hit) {
      start = NowMs();
      const core::LogicalPlan logical = core::AnalyzeQuery(*query);
      core::PlannerContext context;
      context.num_entities = db.corpus().num_entities();
      context.variant = db.options().variant;
      core::SelectPlan(*query, logical, context);
      const double plan_ms = NowMs() - start;
      spans->Add("core.plan", parent.id, id, start, start + plan_ms);

      // The engine's own phase times (the documented stats section),
      // laid end to end from the start of server.handle. The engine's
      // interpret phase starts with ExecuteQuery, so it also holds the
      // result-cache key and lookup and the planning replayed above: the
      // plan time comes off it once, here.
      const double interpret_ms =
          std::max(0.0, Number(stats, "interpret_ms") - plan_ms);
      double at = parent.start_ms;
      for (const auto& [name, ms] :
           {std::pair<const char*, double>{"core.interpret", interpret_ms},
            {"core.score", Number(stats, "scoring_ms")},
            {"core.rank", Number(stats, "rank_ms")}}) {
        spans->Add(name, parent.id, id, at, at + ms);
        at += ms;
      }
      if (subjective > 0) {
        report.interpret_per_predicate_ms.push_back(
            interpret_ms / static_cast<double>(subjective));
      }
      const double watermark = Number(&*response, "watermark");
      if (results != nullptr && !results->items().empty()) {
        report.entities_per_result.push_back(
            watermark / static_cast<double>(results->items().size()));
      }
      // Columnar bytes the scorer streams per entity, from the atoms the
      // interpreter bound (the scan_bytes_per_entity the scale bench
      // uses), times the entities scored.
      double bytes_per_entity = 0.0;
      for (size_t c = 0; store != nullptr && interpretations != nullptr &&
                         c < query->conditions.size() &&
                         c < interpretations->items().size();
           ++c) {
        if (query->conditions[c].kind != core::Condition::Kind::kSubjective) {
          continue;
        }
        const srv::JsonValue* atoms = interpretations->items()[c].Find("atoms");
        if (atoms == nullptr) continue;
        for (const srv::JsonValue& atom : atoms->items()) {
          const double a = Number(&atom, "attribute");
          if (a >= 0.0 && a < static_cast<double>(store->num_attributes())) {
            bytes_per_entity += static_cast<double>(
                store->attribute(static_cast<size_t>(a))
                    .scan_bytes_per_entity());
          }
        }
      }
      scan_bytes += bytes_per_entity * watermark;
      scan_ms += Number(stats, "scoring_ms");
    }

    // Render: the same answer re-executed in process (untimed; the
    // window's counters were scraped already), then ResultToJson timed.
    auto result = db.Execute(exchange.sql);
    if (result.ok()) {
      start = NowMs();
      const std::string rendered = core::ResultToJson(*result);
      spans->Add("core.render", parent.id, id, start, NowMs());
    }
  }

  // Write path: body parse replays under each /reviews server.handle.
  for (const Exchange& exchange : traced.exchanges) {
    if (write_requests.count(exchange.request_id) == 0) continue;
    const double start = NowMs();
    auto body = srv::JsonValue::Parse(exchange.body);
    spans->Add("server.json_parse", handle[exchange.request_id].id,
               exchange.request_id, start, NowMs());
  }

  if (catch_up != nullptr) {
    // repl.fetch: the GET /repl/wal round trip of every SyncOnce cycle,
    // replayed at the same base and offset (the segments stay pinned).
    Connection connection(deployment->door->port());
    for (size_t i = 0; i < catch_up->positions.size() &&
                       i < catch_up->cycle_spans.size();
         ++i) {
      const auto [base, offset] = catch_up->positions[i];
      const std::string target = "/repl/wal?base=" + std::to_string(base) +
                                 "&offset=" + std::to_string(offset);
      const Connection::Reply reply =
          connection.Send(WireRequest("GET", target, "", 0), counts);
      if (reply.ok) {
        spans->Add("repl.fetch", catch_up->cycle_spans[i],
                   catch_up->cycle_spans[i], reply.start_ms, reply.end_ms);
        report.fetch_ms.push_back(reply.end_ms - reply.start_ms);
      }
    }

    // storage.wal_append: same-size payloads, fsynced, in scratch.
    const std::string dir = config.scratch + "/wal-probe";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir, ec);
    auto writer = opinedb::storage::WalWriter::Open(
        dir + "/" + opinedb::storage::WalFileName(1), 1);
    if (writer.ok()) {
      const std::string payload(
          static_cast<size_t>(std::max(1.0, catch_up->wal_payload_bytes)),
          'r');
      for (int i = 0; i < kWalProbeAppends; ++i) {
        const double start = NowMs();
        if (!writer->Append(payload).ok()) break;
        report.wal_append_ms.push_back(NowMs() - start);
      }
    }
    std::filesystem::remove_all(dir, ec);
  }

  const std::vector<Span> all = spans->spans();
  const std::vector<Span> query_spans = OfRequests(all, sampled);
  report.sampled_queries = sampled.size();
  report.query_self = SelfTimesByName(query_spans);
  report.handle_ms = Durations(query_spans, "server.handle");
  report.client_ms = Durations(query_spans, "request");
  for (const Span& span : query_spans) {
    if (span.name == "request") {
      report.transport_ms.push_back(span.duration_ms() -
                                    handle[span.request].duration_ms());
    }
  }
  const double classified = methods[0] + methods[1] + methods[2];
  report.w2v_frac = Ratio(methods[0], classified);
  report.cooccur_frac = Ratio(methods[1], classified);
  report.text_fallback_frac = Ratio(methods[2], classified);
  report.scan_gbps = Ratio(scan_bytes, scan_ms * 1e6);
  report.result_hit_rate = Ratio(after.hit - before.hit,
                                 after.hit - before.hit + after.miss -
                                     before.miss);
  report.interp_hit_rate =
      Ratio(after.interp_hit - before.interp_hit,
            after.interp_hit - before.interp_hit + after.interp_miss -
                before.interp_miss);

  if (!write_requests.empty()) {
    const std::vector<Span> write_spans = OfRequests(all, write_requests);
    report.write_self = SelfTimesByName(write_spans);
    report.writer_ms = Durations(write_spans, "request");
    report.checkpoint_ms =
        Durations(OfRequests(all, checkpoint_requests), "server.handle");
  }
  if (catch_up != nullptr && !catch_up->cycle_spans.empty()) {
    std::unordered_map<uint64_t, double> fetched;
    for (const Span& span : all) {
      if (span.name == "repl.fetch") fetched[span.parent] += span.duration_ms();
    }
    double applied_self = 0.0;
    for (size_t i = 0; i < catch_up->cycle_spans.size(); ++i) {
      const uint64_t cycle = catch_up->cycle_spans[i];
      if (fetched.count(cycle) == 0) continue;  // Not a frame pull.
      const double self = catch_up->sync_once_ms[i] - fetched[cycle];
      report.sync_once_self_ms.push_back(self);
      applied_self += self;
    }
    // One WAL record per batch.
    const double records =
        static_cast<double>(catch_up->reviews_applied) /
        static_cast<double>(std::max<size_t>(1, deployment->workload->write_batch));
    report.apply_record_ms = Ratio(applied_self, records);
  }
  return report;
}

namespace {

void PrintRow(const std::string& layer, const std::vector<double>& ms,
              const std::string& note) {
  const Summary s = Summarize(ms);
  std::printf("  %-26s p50 %10.4f ms  p99 %10.4f ms  total %9.1f ms  n=%zu%s\n",
              layer.c_str(), s.p50, s.p99, Sum(ms), s.n, note.c_str());
}

const std::vector<double>& Get(const std::map<std::string, std::vector<double>>& m,
                               const std::string& key) {
  static const std::vector<double> empty;
  const auto it = m.find(key);
  return it == m.end() ? empty : it->second;
}

// Engine layers of a /query, in pipeline order, with the row names the
// table prints.
const std::pair<const char*, const char*> kQueryLayers[] = {
    {"server.json_parse", "server.json_parse"},
    {"core.sql_parse", "core.sql_parse"},
    {"core.plan", "core.plan"},
    {"core.interpret", "core.interpret"},
    {"core.score", "core.score"},
    {"core.rank", "core.rank"},
    {"core.render", "core.render"}};

}  // namespace

bool PrintTraceReport(const Workload& workload, const TraceReport& report,
                      double untraced_p50_ms, double traced_p50_ms) {
  std::printf("\nTraced run: per-layer self time over %zu sampled /query "
              "requests\n",
              report.sampled_queries);
  PrintRow("server.transport", Get(report.query_self, "request"),
           "  (queue wait + socket)");
  PrintRow("server.http_parse", Get(report.query_self, "server.http_parse"),
           "");
  for (const auto& [key, label] : kQueryLayers) {
    PrintRow(label, Get(report.query_self, key), "");
  }
  PrintRow("unattributed_ms", Get(report.query_self, "server.handle"),
           "  (server.handle not covered by a layer)");
  PrintRow("= client latency", report.client_ms, "");
  std::printf("  cache.result_hit_rate %.4f  cache.interp_hit_rate %.4f\n",
              report.result_hit_rate, report.interp_hit_rate);
  std::printf("  cascade mix: word2vec %.3f  cooccurrence %.3f  "
              "text_fallback %.3f\n",
              report.w2v_frac, report.cooccur_frac, report.text_fallback_frac);
  std::printf("  tracing overhead: client p50 %.4f ms traced vs %.4f ms "
              "untraced (%+.4f ms)\n",
              traced_p50_ms, untraced_p50_ms, traced_p50_ms - untraced_p50_ms);

  if (!report.writer_ms.empty()) {
    std::printf("\nTraced run: write path\n");
    PrintRow("server.transport", Get(report.write_self, "request"),
             "  (/reviews)");
    PrintRow("server.json_parse", Get(report.write_self, "server.json_parse"),
             "  (/reviews)");
    PrintRow("core.append", Get(report.write_self, "server.handle"),
             "  (handle self: AppendReviews + WAL)");
    PrintRow("= writer latency", report.writer_ms, "");
    PrintRow("storage.checkpoint", report.checkpoint_ms, "");
    PrintRow("storage.wal_append", report.wal_append_ms,
             "  (scratch-dir probe)");
    PrintRow("repl.fetch", report.fetch_ms, "");
    PrintRow("repl.sync_once self", report.sync_once_self_ms,
             "  (verify + apply)");
    std::printf("  repl.apply_record_ms %.4f\n", report.apply_record_ms);
  }

  // The checks that the workload still stresses the layer it was
  // chosen for.
  std::map<std::string, double> totals;
  for (const auto& [key, label] : kQueryLayers) {
    totals[label] = Sum(Get(report.query_self, key));
  }
  auto largest_except = [&](std::set<std::string> skip) {
    double best = 0.0;
    for (const auto& [name, total] : totals) {
      if (skip.count(name) == 0) best = std::max(best, total);
    }
    return best;
  };
  bool all_ok = true;
  auto check = [&all_ok](const std::string& what, bool ok) {
    std::printf("  %s: %s\n", what.c_str(), ok ? "ok" : "FAILED");
    all_ok = all_ok && ok;
  };
  std::printf("\nLayer checks (%s):\n", workload.name.c_str());
  if (workload.name == "hotel_adhoc") {
    check("core.interpret is the largest engine layer",
          totals["core.interpret"] >= largest_except({"core.interpret"}));
    check("cache.interp_hit_rate ~0 (< 0.1)", report.interp_hit_rate < 0.1);
  } else if (workload.name == "scale_scan") {
    check("core.score + core.rank is the largest",
          totals["core.score"] + totals["core.rank"] >=
              largest_except({"core.score", "core.rank"}));
    check("cache.interp_hit_rate ~1 (> 0.9)", report.interp_hit_rate > 0.9);
  }
  if (workload.write_batch > 0) {
    if (report.writer_ms.empty()) {
      check("core.append dominates the writer's time (no /reviews traced)",
            false);
    } else {
      const double share = Ratio(Sum(Get(report.write_self, "server.handle")),
                                 Sum(report.writer_ms));
      char what[96];
      std::snprintf(what, sizeof(what),
                    "core.append dominates the writer's time (%.3f > 0.5)",
                    share);
      check(what, share > 0.5);
    }
  }
  const size_t unattributed = Get(report.query_self, "server.handle").size();
  check("unattributed_ms reported for every sampled request (" +
            std::to_string(unattributed) + " of " +
            std::to_string(report.sampled_queries) + ")",
        report.sampled_queries > 0 && unattributed == report.sampled_queries);
  return all_ok;
}

std::vector<Metric> PerLayerMetrics(const TraceReport& report) {
  std::vector<Metric> metrics;
  auto timing = [&](const std::string& name, const std::vector<double>& ms,
                    double scale, const std::string& unit) {
    const Summary s = Summarize(ms);
    metrics.push_back({name + ".p50", s.p50 * scale, unit});
    metrics.push_back({name + ".p99", s.p99 * scale, unit});
  };
  const auto& self = report.query_self;
  timing("server.http_parse_us", Get(self, "server.http_parse"), 1e3, "us");
  timing("server.json_parse_us", Get(self, "server.json_parse"), 1e3, "us");
  timing("server.handle_ms", report.handle_ms, 1.0, "ms");
  timing("server.transport_ms", report.transport_ms, 1.0, "ms");
  timing("core.sql_parse_us", Get(self, "core.sql_parse"), 1e3, "us");
  timing("core.plan_us", Get(self, "core.plan"), 1e3, "us");
  timing("core.interpret_ms", report.interpret_per_predicate_ms, 1.0, "ms");
  metrics.push_back({"core.interpret.w2v_frac", report.w2v_frac, "ratio"});
  metrics.push_back(
      {"core.interpret.cooccur_frac", report.cooccur_frac, "ratio"});
  metrics.push_back({"core.interpret.text_fallback_frac",
                     report.text_fallback_frac, "ratio"});
  timing("core.score_ms", Get(self, "core.score"), 1.0, "ms");
  timing("core.rank_ms", Get(self, "core.rank"), 1.0, "ms");
  metrics.push_back({"core.entities_scored_per_result",
                     Percentile(report.entities_per_result, 0.5), "count"});
  metrics.push_back({"core.scan_gbps", report.scan_gbps, "GB/s"});
  timing("core.render_us", Get(self, "core.render"), 1e3, "us");
  metrics.push_back(
      {"cache.result_hit_rate", report.result_hit_rate, "ratio"});
  metrics.push_back(
      {"cache.interp_hit_rate", report.interp_hit_rate, "ratio"});
  timing("unattributed_ms", Get(self, "server.handle"), 1.0, "ms");
  return metrics;
}

void PrintLine(const std::string& name, double value, const std::string& unit,
               const std::string& note) {
  std::printf("  %-28s %14.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void PrintResultJson(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double MeasureReadGbps() {
  // 256 MiB: well past the last-level cache of any host this runs on.
  std::vector<uint64_t> buffer((256u << 20) / sizeof(uint64_t));
  for (size_t i = 0; i < buffer.size(); ++i) buffer[i] = i;
  double best = 0.0;
  volatile uint64_t sink = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const double start = NowMs();
    uint64_t sum = 0;
    for (const uint64_t value : buffer) sum += value;
    const double ms = NowMs() - start;
    sink = sink + sum;
    best = std::max(best, Ratio(static_cast<double>(buffer.size() *
                                                    sizeof(uint64_t)),
                                ms * 1e6));
  }
  return best;
}

}  // namespace perfbench
