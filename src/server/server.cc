#include "server/server.h"

#include <cstdint>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"
#include "core/result_json.h"
#include "obs/metrics.h"
#include "repl/protocol.h"
#include "repl/source.h"
#include "server/json.h"

namespace opinedb::server {

namespace {

/// Pulls a boolean request flag from the query string or the body
/// ("?stats=1" and {"stats": true} are equivalent).
bool RequestFlag(const HttpRequest& request, const JsonValue& body,
                 std::string_view key) {
  if (request.QueryFlag(key)) return true;
  if (const JsonValue* member = body.Find(key)) return member->AsBool(false);
  return false;
}

}  // namespace

QueryServer::QueryServer(core::OpineDb* db, QueryServerOptions options)
    : db_(db), options_(std::move(options)) {
  httpd_ = std::make_unique<Httpd>(
      options_.httpd,
      [this](const HttpRequest& request) { return Handle(request); });
}

Status QueryServer::Start() { return httpd_->Start(); }

void QueryServer::Stop() { httpd_->Stop(); }

HttpResponse QueryServer::Handle(const HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/query") {
    if (request.method != "POST") {
      return HttpResponse::Error(405, "POST required");
    }
    return HandleQuery(request);
  }
  if (path == "/explain") {
    if (request.method != "POST") {
      return HttpResponse::Error(405, "POST required");
    }
    return HandleExplain(request);
  }
  if (path == "/metrics") {
    if (request.method != "GET" && request.method != "HEAD") {
      return HttpResponse::Error(405, "GET required");
    }
    return HandleMetrics();
  }
  if (path == "/healthz") {
    if (request.method != "GET" && request.method != "HEAD") {
      return HttpResponse::Error(405, "GET required");
    }
    return HandleHealth();
  }
  if (path == "/reviews") {
    if (request.method != "POST") {
      return HttpResponse::Error(405, "POST required");
    }
    return HandleAppendReviews(request);
  }
  if (path == "/admin/snapshot/save" || path == "/admin/snapshot/open") {
    if (request.method != "POST") {
      return HttpResponse::Error(405, "POST required");
    }
    return HandleSnapshot(request, path == "/admin/snapshot/save");
  }
  if (path == "/admin/checkpoint") {
    if (request.method != "POST") {
      return HttpResponse::Error(405, "POST required");
    }
    return HandleCheckpoint();
  }
  if (path == "/admin/promote") {
    if (request.method != "POST") {
      return HttpResponse::Error(405, "POST required");
    }
    return HandlePromote();
  }
  if (path == repl::kWalRoute) {
    if (request.method != "GET") {
      return HttpResponse::Error(405, "GET required");
    }
    if (options_.replication_source == nullptr) {
      return HttpResponse::Error(404, "replication is not enabled");
    }
    return options_.replication_source->HandleWalFetch(request);
  }
  if (path.rfind(repl::kSnapshotRoutePrefix, 0) == 0) {
    if (request.method != "GET") {
      return HttpResponse::Error(405, "GET required");
    }
    if (options_.replication_source == nullptr) {
      return HttpResponse::Error(404, "replication is not enabled");
    }
    return options_.replication_source->HandleSnapshotFetch(request);
  }
  return HttpResponse::Error(404, "no such route: " + path);
}

HttpResponse QueryServer::HandleQuery(const HttpRequest& request) {
  Result<JsonValue> body = JsonValue::Parse(request.body);
  if (!body.ok()) {
    return HttpResponse::Error(400, body.status().message());
  }
  if (!body->is_object()) {
    return HttpResponse::Error(400, "request body must be a JSON object");
  }
  const std::optional<std::string> sql = body->GetString("sql");
  if (!sql.has_value() || sql->empty()) {
    return HttpResponse::Error(400, "missing required field: sql");
  }

  // Map the request budget onto QueryControl. An absent field means
  // no budget; an explicit 0 is a zero budget (the query expires at its
  // first checkpoint and returns a partial result); a request without
  // a budget or above the operator's ceiling gets the ceiling.
  std::optional<double> budget;
  if (const std::optional<double> requested = body->GetNumber("deadline_ms")) {
    if (!(*requested >= 0.0)) {  // Also rejects NaN.
      return HttpResponse::Error(400, "deadline_ms must be >= 0");
    }
    budget = *requested;
  }
  if (options_.max_deadline_ms > 0.0 &&
      (!budget.has_value() || *budget > options_.max_deadline_ms)) {
    budget = options_.max_deadline_ms;
  }
  core::QueryControl control;
  if (budget.has_value()) {
    control.deadline = QueryDeadline::AfterMillis(*budget);
  }

  // Bounded-staleness contract: a request naming `max_staleness_ms` on
  // a node with a lag probe (a follower) is checked against the probe.
  // Over budget, the default is to still answer — marked degraded — so
  // a partitioned follower stays useful for best-effort reads; under
  // `"strict": true` the request answers 412 instead.
  bool stale = false;
  double observed_lag_ms = 0.0;
  if (const std::optional<double> max_staleness =
          body->GetNumber("max_staleness_ms")) {
    if (!(*max_staleness >= 0.0)) {  // Also rejects NaN.
      return HttpResponse::Error(400, "max_staleness_ms must be >= 0");
    }
    if (options_.replication_lag_ms) {
      observed_lag_ms = options_.replication_lag_ms();
      stale = observed_lag_ms > *max_staleness;
    }
  }
  if (stale) {
    OPINEDB_METRIC_COUNT("server.staleness.exceeded", 1);
    if (RequestFlag(request, *body, "strict")) {
      return HttpResponse::Error(
          412, "replica is " + std::to_string(observed_lag_ms) +
                   " ms behind, over the requested max_staleness_ms");
    }
  }

  Result<core::QueryResult> result = db_->Execute(*sql, control);
  if (!result.ok()) {
    return HttpResponse::Error(400, result.status().message());
  }
  if (stale) result->degraded = true;
  if (result->partial) {
    OPINEDB_METRIC_COUNT("server.deadline_expired", 1);
  }

  core::ResultJsonOptions json_options;
  json_options.include_stats = RequestFlag(request, *body, "stats");
  json_options.include_trace = RequestFlag(request, *body, "trace");
  if (const JsonValue* member = body->Find("interpretations")) {
    json_options.include_interpretations = member->AsBool(true);
  }
  return HttpResponse::Json(200, core::ResultToJson(*result, json_options));
}

HttpResponse QueryServer::HandleExplain(const HttpRequest& request) {
  Result<JsonValue> body = JsonValue::Parse(request.body);
  if (!body.ok()) {
    return HttpResponse::Error(400, body.status().message());
  }
  std::optional<std::string> sql =
      body->is_object() ? body->GetString("sql") : std::nullopt;
  if (!sql.has_value() || sql->empty()) {
    return HttpResponse::Error(400, "missing required field: sql");
  }
  // /explain is sugar for an EXPLAIN statement; accept either spelling.
  std::string statement = *sql;
  const std::string lowered = ToLower(Trim(statement));
  if (lowered.rfind("explain", 0) != 0) {
    statement = "explain " + statement;
  }
  Result<core::QueryResult> result = db_->Execute(statement);
  if (!result.ok()) {
    return HttpResponse::Error(400, result.status().message());
  }
  std::string out = "{\n  \"plan\": ";
  JsonEscapeAppend(core::PlanKindName(result->plan), &out);
  out += ",\n  \"plan_text\": ";
  JsonEscapeAppend(result->plan_text, &out);
  out += "\n}\n";
  return HttpResponse::Json(200, std::move(out));
}

HttpResponse QueryServer::HandleMetrics() const {
  return HttpResponse::Json(200, obs::MetricsRegistry::Global().ToJson());
}

HttpResponse QueryServer::HandleHealth() const {
  // A broken WAL means acknowledged-durability is no longer being
  // promised; surface it as a degraded health status so orchestration
  // can stop routing writes here without waiting for one to fail.
  const bool wal_broken = db_->wal_broken();
  std::string out = "{\"status\": ";
  out += wal_broken ? "\"degraded\"" : "\"ok\"";
  out += ", \"entities\": " + std::to_string(db_->corpus().num_entities());
  out += ", \"snapshot_generation\": " +
         std::to_string(db_->snapshot_generation());
  out += ", \"cache_epoch\": " + std::to_string(db_->cache_epoch());
  out += ", \"role\": ";
  out += db_->read_only() ? "\"follower\"" : "\"primary\"";
  // Check broken first: a broken writer is closed, so wal_enabled()
  // is false for it too — "off" must mean "never attached".
  out += ", \"wal\": ";
  out += wal_broken ? "\"broken\""
                    : (db_->wal_enabled() ? "\"on\"" : "\"off\"");
  if (options_.replication_lag_ms) {
    out += ", \"replication_lag_ms\": " +
           std::to_string(options_.replication_lag_ms());
  }
  out += "}\n";
  return HttpResponse::Json(200, std::move(out));
}

HttpResponse QueryServer::HandleSnapshot(const HttpRequest& request,
                                         bool save) {
  std::string dir = options_.snapshot_dir;
  if (!request.body.empty()) {
    Result<JsonValue> body = JsonValue::Parse(request.body);
    if (!body.ok()) {
      return HttpResponse::Error(400, body.status().message());
    }
    if (body->is_object()) {
      if (const std::optional<std::string> requested = body->GetString("dir")) {
        dir = *requested;
      }
    }
  }
  if (dir.empty()) {
    return HttpResponse::Error(
        400, "no snapshot directory: pass {\"dir\": ...} or configure one");
  }
  const Status status = save ? db_->SaveDatabase(dir) : db_->OpenDatabase(dir);
  if (!status.ok()) {
    // A refused request (a WAL is attached, the engine is a follower,
    // the snapshot does not fit) is the client's, and a directory
    // without a snapshot is 404; a store that fails to verify or to
    // write is ours.
    int code = 500;
    if (status.code() == StatusCode::kInvalidArgument ||
        status.code() == StatusCode::kFailedPrecondition) {
      code = 400;
    } else if (status.code() == StatusCode::kNotFound) {
      code = 404;
    }
    return HttpResponse::Error(code, status.message());
  }
  std::string out = "{\"generation\": " +
                    std::to_string(db_->snapshot_generation()) + "}\n";
  return HttpResponse::Json(200, std::move(out));
}

HttpResponse QueryServer::HandleAppendReviews(const HttpRequest& request) {
  Result<JsonValue> body = JsonValue::Parse(request.body);
  if (!body.ok()) {
    return HttpResponse::Error(400, body.status().message());
  }
  if (!body->is_object()) {
    return HttpResponse::Error(400, "request body must be a JSON object");
  }
  const JsonValue* reviews_json = body->Find("reviews");
  if (reviews_json == nullptr || !reviews_json->is_array()) {
    return HttpResponse::Error(400, "missing required array field: reviews");
  }
  if (options_.max_ingest_batch > 0 &&
      reviews_json->items().size() > options_.max_ingest_batch) {
    OPINEDB_METRIC_COUNT("server.ingest.rejected_oversized", 1);
    return HttpResponse::Error(
        400, "batch of " + std::to_string(reviews_json->items().size()) +
                 " reviews exceeds max_ingest_batch=" +
                 std::to_string(options_.max_ingest_batch));
  }

  std::vector<text::Review> batch;
  batch.reserve(reviews_json->items().size());
  for (size_t i = 0; i < reviews_json->items().size(); ++i) {
    const JsonValue& item = reviews_json->items()[i];
    const std::string at = "reviews[" + std::to_string(i) + "]";
    if (!item.is_object()) {
      return HttpResponse::Error(400, at + " must be a JSON object");
    }
    text::Review review;
    review.id = 0;  // Assigned by the engine in append order.
    struct IntField {
      const char* name;
      int32_t* dest;
    };
    int32_t entity = 0;
    int32_t reviewer = 0;
    int32_t date = 0;
    for (const IntField& field : {IntField{"entity", &entity},
                                  IntField{"reviewer", &reviewer},
                                  IntField{"date", &date}}) {
      const std::optional<double> number = item.GetNumber(field.name);
      if (!number.has_value()) {
        return HttpResponse::Error(
            400, at + " missing required integer field: " + field.name);
      }
      if (!(*number >= INT32_MIN && *number <= INT32_MAX) ||
          *number != static_cast<double>(static_cast<int64_t>(*number))) {
        return HttpResponse::Error(
            400, at + "." + field.name + " must be a 32-bit integer");
      }
      *field.dest = static_cast<int32_t>(*number);
    }
    review.entity = entity;
    review.reviewer = reviewer;
    review.date = date;
    const std::optional<std::string> review_body = item.GetString("body");
    if (!review_body.has_value()) {
      return HttpResponse::Error(400,
                                 at + " missing required string field: body");
    }
    review.body = *review_body;
    batch.push_back(std::move(review));
  }

  const Status status = db_->AppendReviews(batch);
  if (!status.ok()) {
    // A malformed batch (unknown entity) or an engine configured so
    // that incremental aggregation cannot be exact is the client's
    // problem; anything else (WAL write failure) is ours.
    const bool client_fault =
        status.code() == StatusCode::kInvalidArgument ||
        status.code() == StatusCode::kFailedPrecondition;
    return HttpResponse::Error(client_fault ? 400 : 500, status.message());
  }
  OPINEDB_METRIC_COUNT("server.ingest.requests", 1);
  OPINEDB_METRIC_COUNT("server.ingest.reviews", batch.size());
  std::string out = "{\"appended\": " + std::to_string(batch.size()) +
                    ", \"cache_epoch\": " + std::to_string(db_->cache_epoch()) +
                    "}\n";
  return HttpResponse::Json(200, std::move(out));
}

HttpResponse QueryServer::HandleCheckpoint() {
  const Status status = db_->Checkpoint();
  if (!status.ok()) {
    // Checkpoint without an attached WAL is a client/operator mistake;
    // a failure folding or rotating the log is a server fault.
    const int code =
        status.code() == StatusCode::kFailedPrecondition ? 400 : 500;
    return HttpResponse::Error(code, status.message());
  }
  OPINEDB_METRIC_COUNT("server.ingest.checkpoints", 1);
  std::string out = "{\"generation\": " +
                    std::to_string(db_->snapshot_generation()) + "}\n";
  return HttpResponse::Json(200, std::move(out));
}

HttpResponse QueryServer::HandlePromote() {
  if (!options_.promote) {
    return HttpResponse::Error(
        404, "this node has no promote hook (not a follower)");
  }
  const Status status = options_.promote();
  if (!status.ok()) {
    // Promoting a node that is not a follower (or whose WAL is broken)
    // is an operator mistake; anything else is a server fault.
    const int code =
        status.code() == StatusCode::kFailedPrecondition ? 409 : 500;
    return HttpResponse::Error(code, status.message());
  }
  std::string out = "{\"role\": \"primary\", \"generation\": " +
                    std::to_string(db_->snapshot_generation()) + "}\n";
  return HttpResponse::Json(200, std::move(out));
}

}  // namespace opinedb::server
