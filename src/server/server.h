#ifndef OPINEDB_SERVER_SERVER_H_
#define OPINEDB_SERVER_SERVER_H_

#include <functional>
#include <memory>
#include <string>

#include "core/engine.h"
#include "server/httpd.h"

namespace opinedb::repl {
class ReplicationSource;
}  // namespace opinedb::repl

namespace opinedb::server {

/// Query-server configuration on top of the transport options.
struct QueryServerOptions {
  HttpdOptions httpd;
  /// Upper clamp on the per-request `deadline_ms` budget (0 = no
  /// clamp). A client asking for more gets the clamp, so one request
  /// can never hold a worker past the operator's ceiling.
  double max_deadline_ms = 0.0;
  /// Directory used by /admin/snapshot/{save,open} when the request
  /// body names none. Admin snapshot routes answer 400 when neither
  /// names a directory.
  std::string snapshot_dir;
  /// Admission cap on one POST /reviews batch. A batch larger than
  /// this answers 400 before touching the engine, so one oversized
  /// ingest request cannot monopolize the exclusive reconfiguration
  /// lock against live queries (0 = no cap).
  size_t max_ingest_batch = 1024;
  /// When set, the server exposes the primary-side replication routes
  /// (GET /repl/wal, GET /repl/snapshot/<gen>) off this source. The
  /// source must outlive the server. Null = routes answer 404.
  repl::ReplicationSource* replication_source = nullptr;
  /// Staleness probe for bounded-staleness reads on a follower:
  /// milliseconds since the replica was last caught up (typically
  /// ReplicationClient::lag_ms). When set, a /query carrying
  /// `max_staleness_ms` is checked against it — over budget the query
  /// still runs but the result is marked `degraded: true`, or answers
  /// 412 when the request also sets `"strict": true`. Null = the field
  /// is accepted and ignored (a primary is never stale).
  std::function<double()> replication_lag_ms;
  /// Failover hook for POST /admin/promote (typically
  /// OpineDb::Promote on the follower's engine, after stopping the
  /// pull loop). Null = the route answers 404.
  std::function<Status()> promote;
};

/// The OpineDB front door: routes HTTP onto one engine.
///
///   POST /query                  {"sql": ..., "deadline_ms"?, "stats"?}
///                                → core::ResultToJson document; honors
///                                  ?trace=1 / ?stats=1 request flags
///   POST /explain                {"sql": ...} → {"plan_text": ...}
///   GET  /metrics                MetricsRegistry::Global().ToJson()
///   GET  /healthz                {"status","entities",
///                                 "snapshot_generation","cache_epoch"}
///   POST /reviews                {"reviews": [{"entity", "reviewer",
///                                 "date", "body"}, ...]}
///                                → {"appended": N, "cache_epoch": E}
///   POST /admin/snapshot/save    {"dir"?} → {"generation": N}
///   POST /admin/snapshot/open    {"dir"?} → {"generation": N}
///   POST /admin/checkpoint       {} → {"generation": N} (WAL fold)
///   POST /admin/promote          {} → {"role": "primary",
///                                 "generation": N} (follower only)
///   GET  /repl/wal               WAL frame shipping (repl/protocol.h)
///   GET  /repl/snapshot/<gen>    snapshot container for catch-up
///
/// On a follower, /query accepts `max_staleness_ms` (and `strict`):
/// when the replication lag probe exceeds the budget, the result is
/// marked `degraded: true` — or the request answers 412 under strict.
/// /healthz additionally reports `role`, `wal`, and
/// `replication_lag_ms` when the corresponding hooks are configured.
///
/// Queries run on Httpd worker threads; the engine's shared
/// reconfiguration lock makes concurrent Execute calls safe, and the
/// admin snapshot routes serialize against in-flight queries inside
/// the engine itself. A request-level `deadline_ms` maps onto
/// core::QueryControl, so an over-budget query returns 200 with
/// `partial: true` and exact-prefix scores instead of an error (the
/// server.deadline_expired counter tracks how often). See
/// docs/SERVING.md for schemas and the admission-control ladder.
class QueryServer {
 public:
  /// `db` must outlive the server. The engine's trace level governs
  /// metrics publication and trace capture exactly as embedded.
  explicit QueryServer(core::OpineDb* db,
                       QueryServerOptions options = QueryServerOptions());

  Status Start();
  void Stop();
  uint16_t port() const { return httpd_->port(); }
  Httpd& httpd() { return *httpd_; }

  /// The routing function, exposed so tests can drive it without a
  /// socket (the loopback suites go through real sockets).
  HttpResponse Handle(const HttpRequest& request);

 private:
  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleExplain(const HttpRequest& request);
  HttpResponse HandleMetrics() const;
  HttpResponse HandleHealth() const;
  HttpResponse HandleSnapshot(const HttpRequest& request, bool save);
  HttpResponse HandleAppendReviews(const HttpRequest& request);
  HttpResponse HandleCheckpoint();
  HttpResponse HandlePromote();

  core::OpineDb* db_;
  QueryServerOptions options_;
  std::unique_ptr<Httpd> httpd_;
};

}  // namespace opinedb::server

#endif  // OPINEDB_SERVER_SERVER_H_
