#ifndef OPINEDB_SERVER_HTTPD_H_
#define OPINEDB_SERVER_HTTPD_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"

namespace opinedb::server {

/// One parsed HTTP/1.1 request.
struct HttpRequest {
  std::string method;  // Uppercase token, e.g. "GET", "POST".
  std::string target;  // Raw request target, e.g. "/query?trace=1".
  std::string path;    // Percent-decoded path component.
  /// Percent-decoded query parameters in source order.
  std::vector<std::pair<std::string, std::string>> query_params;
  /// Header fields with lower-cased names, in source order.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  /// Whether the connection may serve another request after this one
  /// (HTTP/1.1 default unless "Connection: close"; inverted for 1.0).
  bool keep_alive = true;

  /// First header value for `name` (lower-case), or "" if absent.
  std::string_view Header(std::string_view name) const;
  /// First query parameter value for `key`, or "" if absent.
  std::string_view QueryParam(std::string_view key) const;
  /// True when `key` is present and not "0"/"false" — the `?trace=1`
  /// style request flags.
  bool QueryFlag(std::string_view key) const;
};

/// One HTTP response. Content-Length and Connection headers are managed
/// by the serializer; `headers` carries extras (e.g. Retry-After).
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;

  static HttpResponse Json(int status, std::string body);
  /// A JSON error envelope: {"error": "<message>"}.
  static HttpResponse Error(int status, std::string_view message);
};

/// Reason phrase for the status codes the server emits.
const char* StatusReason(int status);

/// Hard input limits of the request parser. Exceeding a limit is a
/// protocol answer, never an allocation: oversized headers are 431,
/// oversized bodies 413, everything malformed 400.
inline constexpr size_t kMaxHeaderBytes = 16 * 1024;
inline constexpr size_t kMaxBodyBytes = 1 << 20;

/// Incremental HTTP/1.1 request parser. Feed it bytes as they arrive
/// from the socket (at any split points — the fuzz suite feeds single
/// bytes); it buffers internally and reports kComplete exactly when one
/// full request (headers + Content-Length body) is resident. Bytes
/// beyond the current request are retained for the next one
/// (pipelining); ResetForNext() consumes the parsed request and resumes
/// parsing on the leftover.
///
/// The parser is strict where it is cheap to be strict (single-space
/// request line, token-only header names, digits-only Content-Length,
/// no Transfer-Encoding) and always answers a malformed stream with a
/// typed error status: 400 (syntax), 413 (body too large) or 431
/// (header block too large).
class HttpParser {
 public:
  enum class State { kNeedMore, kComplete, kError };

  /// Appends bytes and advances the state machine.
  State Feed(std::string_view data);

  State state() const { return state_; }
  /// The parsed request; valid only in kComplete.
  const HttpRequest& request() const { return request_; }
  /// 400, 413 or 431; valid only in kError.
  int error_status() const { return error_status_; }
  const std::string& error_detail() const { return error_detail_; }

  /// Consumes the completed request and re-parses any buffered leftover
  /// (the next pipelined request may complete without another Feed).
  State ResetForNext();

  /// Bytes currently buffered (bounded by the limits plus one read's
  /// worth of slack; asserted by the fuzz suite).
  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  State Advance();
  State FailWith(int status, std::string detail);
  bool ParseHeaderBlock(std::string_view block);

  std::string buffer_;
  size_t body_begin_ = 0;   // Offset of the body within buffer_.
  size_t body_length_ = 0;  // Declared Content-Length.
  bool headers_done_ = false;
  State state_ = State::kNeedMore;
  int error_status_ = 0;
  std::string error_detail_;
  HttpRequest request_;
};

/// Percent-decodes a URL component; returns false on a malformed %
/// sequence. `plus_is_space` applies inside query strings.
bool PercentDecode(std::string_view in, bool plus_is_space,
                   std::string* out);

/// Configuration of the serving loop.
struct HttpdOptions {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral (read the bound port back via port()).
  uint16_t port = 0;
  /// Worker threads executing handlers (one connection at a time each).
  size_t num_workers = 4;
  /// Bounded admission queue of accepted-but-unserved connections. When
  /// the queue is full the acceptor sheds the connection with an
  /// immediate 429 instead of letting latency collapse.
  size_t queue_capacity = 64;
};

/// A dependency-free threaded HTTP/1.1 server: one acceptor thread, a
/// bounded connection queue (the admission-control ladder's first rung)
/// and a fixed worker pool. The handler runs on worker threads and may
/// block; exceptions escaping it become 500 responses, and injected
/// faults at the named server.* sites degrade exactly one request (see
/// common/fault.h and docs/SERVING.md).
class Httpd {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  Httpd(HttpdOptions options, Handler handler);
  ~Httpd();

  Httpd(const Httpd&) = delete;
  Httpd& operator=(const Httpd&) = delete;

  /// Binds, listens and starts the acceptor + workers.
  Status Start();
  /// Graceful stop: closes the listening socket first (new connection
  /// attempts are refused at once), wakes idle keep-alive connections,
  /// then gives in-flight requests up to 5 s to finish and flush — a
  /// slow /query started before Stop() completes normally.
  /// Connections still busy at the deadline are severed. Queued-but-
  /// unserved connections are closed. Joins every thread. Idempotent.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (after Start(); useful with ephemeral port 0).
  uint16_t port() const { return bound_port_; }

  // Serving counters for tests and admission-control probes; the same
  // quantities are published as server.* metrics when metrics are on.
  uint64_t accepted_count() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  uint64_t shed_count() const {
    return shed_.load(std::memory_order_relaxed);
  }
  uint64_t served_count() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  bool QueuePush(int fd);
  int QueuePop();
  static bool WriteAll(int fd, std::string_view data);
  static std::string Serialize(const HttpResponse& response, bool keep_alive,
                               bool head_request);

  HttpdOptions options_;
  Handler handler_;
  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::vector<std::thread> workers_;
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;
  // Connections currently inside ServeConnection. Stop() shuts these
  // down so a worker parked in recv() on an idle keep-alive socket
  // wakes immediately instead of riding out its read timeout.
  std::mutex active_mu_;
  std::vector<int> active_fds_;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> served_{0};
  std::atomic<int64_t> inflight_{0};
};

}  // namespace opinedb::server

#endif  // OPINEDB_SERVER_HTTPD_H_
