#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

// Closed-loop load over the HTTP front door, with every attempted
// request counted: a transport error, a non-2xx status or a malformed
// answer is a failure; a close at the server's keep-alive cap is
// reopened and counted on its own line, never hidden.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "server/http_client.h"
#include "server/server.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

struct OpCounts {
  uint64_t attempted = 0;
  /// Every failure below, summed.
  uint64_t failed = 0;
  uint64_t transport_errors = 0;
  uint64_t http_errors = 0;
  /// 2xx answers that are incomplete or wrong (verification mismatches
  /// are counted here too).
  uint64_t bad_answers = 0;
  /// Closes at the server's keep-alive cap, reopened (not failures).
  uint64_t reopened = 0;

  void Merge(const OpCounts& other);
};

/// Request bytes exactly as sent: server::HttpClient's framing plus an
/// x-request-id header when `request_id` is nonzero.
std::string WireRequest(const std::string& method, const std::string& target,
                        const std::string& body, uint64_t request_id);

/// The /query body for `sql`; `stats` asks for the documented stats
/// section (traced runs only: it makes the answer nondeterministic).
std::string QueryBody(const std::string& sql, bool stats);

/// True when a /query response body is a complete, non-partial answer.
bool LooksLikeAnswer(const std::string& body);

/// The `appended` count of a POST /reviews answer (0 when absent).
uint64_t ParseAppended(const std::string& body);

/// One keep-alive client connection.
class Connection {
 public:
  struct Reply {
    bool ok = false;
    int status = 0;
    std::string body;
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  explicit Connection(uint16_t port) : port_(port) {}

  /// Sends `wire` (reconnecting first if needed) and reads the answer.
  /// Counts the attempt and any failure or keep-alive reopen.
  Reply Send(const std::string& wire, OpCounts* counts);

 private:
  uint16_t port_;
  opinedb::server::HttpClient http_;
};

/// One exchange kept by a traced run for the post-window replay.
struct Exchange {
  uint64_t request_id = 0;
  std::string target;
  std::string sql;
  std::string wire;
  std::string body;
  std::string response;
  bool ok = false;
};

/// The front door: a QueryServer on loopback. Traced, its routing
/// function is served through a wrapper that records a `server.handle`
/// span around QueryServer::Handle for every request carrying an
/// x-request-id; untraced, QueryServer::Start serves it directly.
class FrontDoor {
 public:
  FrontDoor(opinedb::core::OpineDb* db,
            opinedb::server::QueryServerOptions options, SpanStore* spans);
  ~FrontDoor();
  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  opinedb::Status Start();
  void Stop();
  uint16_t port() const;

 private:
  opinedb::server::QueryServer server_;
  SpanStore* spans_;
  std::unique_ptr<opinedb::server::Httpd> traced_;
};

/// Source of request ids (unique per process, starting at 1).
uint64_t NextRequestId();

/// What one window of load produced.
struct WindowResult {
  std::vector<double> query_ms;
  OpCounts queries;
  double elapsed_s = 0.0;
  // Writer side (write workloads only).
  std::vector<double> ingest_ms;
  std::vector<double> checkpoint_ms;
  OpCounts writes;
  uint64_t reviews_sent = 0;
  uint64_t reviews_acked = 0;
  uint64_t batches = 0;
  // Traced runs only.
  std::vector<Exchange> exchanges;
};

struct WindowPlan {
  uint16_t port = 0;
  double seconds = 0.0;
  /// One statement source per reader connection.
  std::vector<std::function<std::string()>> readers;
  /// Writer batch source; empty for read-only workloads.
  std::function<std::string()> writer;
  size_t checkpoint_every = 0;
  size_t write_batch = 0;
  /// Milliseconds between the starts of two writer batches.
  double write_interval_ms = 0.0;
  /// Called with the body of every successful checkpoint answer.
  std::function<void(const std::string&)> on_checkpoint;
  /// Non-null: traced run (stats on, spans and exchanges kept).
  SpanStore* spans = nullptr;
};

/// Runs the closed loop for `plan.seconds` and joins every client.
WindowResult RunWindow(const WindowPlan& plan);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
