#include "server/httpd.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/fault.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "storage/coding.h"

namespace opinedb::server {

namespace {

/// Per-recv timeout: an idle keep-alive connection is closed after one
/// quiet interval, so parked clients cannot starve the workers.
constexpr int kReadTimeoutMs = 5000;
/// Requests served per connection before the server forces a close
/// (bounds how long one client can monopolize a worker).
constexpr size_t kMaxRequestsPerConnection = 1024;
/// Stop() drain budget: in-flight requests get this long to finish and
/// flush their response; connections still busy then are severed.
constexpr int kDrainGraceMs = 5000;

/// RFC 7230 token characters (header field names, methods).
bool IsTokenChar(unsigned char c) {
  if (std::isalnum(c)) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'':
    case '*': case '+': case '-': case '.': case '^': case '_':
    case '`': case '|': case '~':
      return true;
    default:
      return false;
  }
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return 10 + (c - 'a');
  if (c >= 'A' && c <= 'F') return 10 + (c - 'A');
  return -1;
}

/// Offset just past the first empty line (the header terminator), or
/// npos. Accepts both CRLF and bare LF line endings.
size_t FindHeaderEnd(std::string_view buffer) {
  for (size_t i = 0; i < buffer.size(); ++i) {
    if (buffer[i] != '\n') continue;
    if (i + 1 < buffer.size() && buffer[i + 1] == '\n') return i + 2;
    if (i + 2 < buffer.size() && buffer[i + 1] == '\r' &&
        buffer[i + 2] == '\n') {
      return i + 3;
    }
  }
  return std::string_view::npos;
}

}  // namespace

// --------------------------------------------------------- HttpRequest.

std::string_view HttpRequest::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

std::string_view HttpRequest::QueryParam(std::string_view key) const {
  for (const auto& [name, value] : query_params) {
    if (name == key) return value;
  }
  return {};
}

bool HttpRequest::QueryFlag(std::string_view key) const {
  for (const auto& [name, value] : query_params) {
    if (name == key) return value != "0" && value != "false";
  }
  return false;
}

// -------------------------------------------------------- HttpResponse.

HttpResponse HttpResponse::Json(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

HttpResponse HttpResponse::Error(int status, std::string_view message) {
  std::string body = "{\"error\": ";
  JsonEscapeAppend(message, &body);
  body += "}\n";
  return Json(status, std::move(body));
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 412: return "Precondition Failed";
    case 413: return "Payload Too Large";
    case 416: return "Range Not Satisfiable";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

// ------------------------------------------------------- PercentDecode.

bool PercentDecode(std::string_view in, bool plus_is_space,
                   std::string* out) {
  out->clear();
  out->reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '%') {
      if (i + 2 >= in.size()) return false;
      const int hi = HexDigit(in[i + 1]);
      const int lo = HexDigit(in[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out->push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else if (c == '+' && plus_is_space) {
      out->push_back(' ');
    } else {
      out->push_back(c);
    }
  }
  return true;
}

// ---------------------------------------------------------- HttpParser.

HttpParser::State HttpParser::Feed(std::string_view data) {
  if (state_ == State::kError) return state_;
  buffer_.append(data.data(), data.size());
  if (state_ == State::kComplete) return state_;  // Pipelined surplus.
  return Advance();
}

HttpParser::State HttpParser::FailWith(int status, std::string detail) {
  state_ = State::kError;
  error_status_ = status;
  error_detail_ = std::move(detail);
  return state_;
}

HttpParser::State HttpParser::Advance() {
  if (state_ != State::kNeedMore) return state_;
  if (!headers_done_) {
    const size_t end = FindHeaderEnd(buffer_);
    if (end == std::string_view::npos) {
      if (buffer_.size() > kMaxHeaderBytes) {
        return FailWith(431, "header block exceeds " +
                                 std::to_string(kMaxHeaderBytes) + " bytes");
      }
      return state_;
    }
    if (end > kMaxHeaderBytes) {
      return FailWith(431, "header block exceeds " +
                               std::to_string(kMaxHeaderBytes) + " bytes");
    }
    if (!ParseHeaderBlock(std::string_view(buffer_).substr(0, end))) {
      return state_;  // FailWith already ran.
    }
    headers_done_ = true;
    body_begin_ = end;
  }
  if (buffer_.size() - body_begin_ < body_length_) return state_;
  request_.body = buffer_.substr(body_begin_, body_length_);
  state_ = State::kComplete;
  return state_;
}

bool HttpParser::ParseHeaderBlock(std::string_view block) {
  // Split into lines; the final empty line terminates the block.
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start < block.size()) {
    size_t nl = block.find('\n', start);
    if (nl == std::string_view::npos) break;
    std::string_view line = block.substr(start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    lines.push_back(line);
    start = nl + 1;
  }
  if (lines.empty() || lines[0].empty()) {
    FailWith(400, "empty request line");
    return false;
  }

  // Request line: METHOD SP TARGET SP VERSION, single spaces.
  const std::string_view request_line = lines[0];
  const size_t sp1 = request_line.find(' ');
  const size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    FailWith(400, "malformed request line");
    return false;
  }
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target =
      request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (method.empty() || method.size() > 16) {
    FailWith(400, "bad method");
    return false;
  }
  for (const char c : method) {
    if (c < 'A' || c > 'Z') {
      FailWith(400, "bad method");
      return false;
    }
  }
  if (target.empty() || target[0] != '/' ||
      target.find(' ') != std::string_view::npos) {
    FailWith(400, "bad request target");
    return false;
  }
  bool http_11 = false;
  if (version == "HTTP/1.1") {
    http_11 = true;
  } else if (version != "HTTP/1.0") {
    FailWith(400, "unsupported HTTP version");
    return false;
  }
  request_.method = std::string(method);
  request_.target = std::string(target);

  // Split the target into path and query, percent-decoding both.
  const size_t qmark = target.find('?');
  const std::string_view raw_path =
      qmark == std::string_view::npos ? target : target.substr(0, qmark);
  if (!PercentDecode(raw_path, /*plus_is_space=*/false, &request_.path)) {
    FailWith(400, "bad percent-encoding in path");
    return false;
  }
  if (request_.path.find('\0') != std::string::npos) {
    FailWith(400, "NUL byte in path");
    return false;
  }
  if (qmark != std::string_view::npos) {
    std::string_view query = target.substr(qmark + 1);
    while (!query.empty()) {
      const size_t amp = query.find('&');
      const std::string_view pair =
          amp == std::string_view::npos ? query : query.substr(0, amp);
      query = amp == std::string_view::npos ? std::string_view()
                                            : query.substr(amp + 1);
      if (pair.empty()) continue;
      const size_t eq = pair.find('=');
      std::string key, value;
      const std::string_view raw_key =
          eq == std::string_view::npos ? pair : pair.substr(0, eq);
      const std::string_view raw_value =
          eq == std::string_view::npos ? std::string_view()
                                       : pair.substr(eq + 1);
      if (!PercentDecode(raw_key, /*plus_is_space=*/true, &key) ||
          !PercentDecode(raw_value, /*plus_is_space=*/true, &value)) {
        FailWith(400, "bad percent-encoding in query");
        return false;
      }
      request_.query_params.emplace_back(std::move(key), std::move(value));
    }
  }

  // Header fields.
  bool have_content_length = false;
  uint64_t content_length = 0;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) break;  // Terminator.
    if (line[0] == ' ' || line[0] == '\t') {
      FailWith(400, "obsolete header folding");
      return false;
    }
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      FailWith(400, "malformed header field");
      return false;
    }
    const std::string_view raw_name = line.substr(0, colon);
    for (const char c : raw_name) {
      if (!IsTokenChar(static_cast<unsigned char>(c))) {
        FailWith(400, "bad header name");
        return false;
      }
    }
    const std::string name = ToLower(raw_name);
    const std::string value(Trim(line.substr(colon + 1)));
    for (const char c : value) {
      if (static_cast<unsigned char>(c) < 0x20 && c != '\t') {
        FailWith(400, "control byte in header value");
        return false;
      }
    }
    if (name == "content-length") {
      uint64_t parsed = 0;
      if (value.size() > 19 || !storage::ParseDecimalU64(value, &parsed)) {
        FailWith(400, "bad content-length");
        return false;
      }
      if (have_content_length && parsed != content_length) {
        FailWith(400, "conflicting content-length");
        return false;
      }
      have_content_length = true;
      content_length = parsed;
    } else if (name == "transfer-encoding") {
      FailWith(400, "transfer-encoding not supported");
      return false;
    }
    request_.headers.emplace_back(name, std::move(value));
  }

  if (content_length > kMaxBodyBytes) {
    FailWith(413, "body of " + std::to_string(content_length) +
                      " bytes exceeds " + std::to_string(kMaxBodyBytes));
    return false;
  }
  body_length_ = content_length;

  // Connection persistence: HTTP/1.1 defaults to keep-alive, 1.0 to
  // close; an explicit Connection header overrides either way.
  request_.keep_alive = http_11;
  const std::string connection = ToLower(request_.Header("connection"));
  if (Contains(connection, "close")) {
    request_.keep_alive = false;
  } else if (Contains(connection, "keep-alive")) {
    request_.keep_alive = true;
  }
  return true;
}

HttpParser::State HttpParser::ResetForNext() {
  if (state_ != State::kComplete) return state_;
  buffer_.erase(0, body_begin_ + body_length_);
  request_ = HttpRequest();
  headers_done_ = false;
  body_begin_ = 0;
  body_length_ = 0;
  state_ = State::kNeedMore;
  return Advance();
}

// --------------------------------------------------------------- Httpd.

Httpd::Httpd(HttpdOptions options, Handler handler)
    : options_(std::move(options)), handler_(std::move(handler)) {}

Httpd::~Httpd() { Stop(); }

Status Httpd::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    const Status status =
        Status::Internal(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 256) != 0) {
    const Status status =
        Status::Internal(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  const size_t workers = options_.num_workers > 0 ? options_.num_workers : 1;
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Httpd::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stopping_.store(true, std::memory_order_release);
  if (acceptor_.joinable()) acceptor_.join();
  // New arrivals are refused from this instant: the acceptor is gone,
  // so closing the listening socket turns connection attempts during
  // the drain into refusals instead of parking them in the backlog.
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Wake workers parked in recv() on idle keep-alive connections:
  // SHUT_RD makes their pending read return 0 immediately, so Stop()
  // never rides out kReadTimeoutMs — but the write side stays open,
  // so a response in flight (a slow /query that started before the
  // stop) still reaches the client. stopping_ flips keep_alive off,
  // closing each drained connection after its current response.
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    for (const int fd : active_fds_) ::shutdown(fd, SHUT_RD);
  }
  queue_cv_.notify_all();
  // Drain grace: bounded wait for in-flight connections to finish.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(kDrainGraceMs);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(active_mu_);
      if (active_fds_.empty()) break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      // Budget exhausted: sever the stragglers both ways (their
      // response is abandoned mid-write — the bounded-teardown
      // contract beats delivery here).
      std::lock_guard<std::mutex> lock(active_mu_);
      for (const int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (const int fd : queue_) ::close(fd);
    queue_.clear();
  }
  running_.store(false, std::memory_order_release);
}

bool Httpd::QueuePush(int fd) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= options_.queue_capacity) return false;
    queue_.push_back(fd);
  }
  queue_cv_.notify_one();
  return true;
}

int Httpd::QueuePop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  queue_cv_.wait(lock, [this] {
    return !queue_.empty() || stopping_.load(std::memory_order_acquire);
  });
  // On shutdown the remaining queue is closed unserved by Stop();
  // serving it here could park this worker in recv() mid-teardown.
  if (stopping_.load(std::memory_order_acquire)) return -1;
  if (queue_.empty()) return -1;
  const int fd = queue_.front();
  queue_.pop_front();
  return fd;
}

void Httpd::AcceptLoop() {
  pollfd pfd{listen_fd_, POLLIN, 0};
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // A fault at the accept site drops exactly this connection; the
    // loop keeps serving everyone else.
    bool accept_fault = false;
    try {
      OPINEDB_FAULT("server.accept");
    } catch (const fault::FaultInjected&) {
      accept_fault = true;
    }
    if (accept_fault) {
      OPINEDB_METRIC_COUNT("server.errors", 1);
      ::close(fd);
      continue;
    }
    // Admission control: a full queue (or an armed shed site) answers
    // 429 immediately instead of queueing unbounded work. The write is
    // a few hundred bytes into a fresh socket buffer, so the acceptor
    // never blocks on a slow client here.
    bool shed = false;
    try {
      OPINEDB_FAULT("server.shed");
    } catch (const fault::FaultInjected&) {
      shed = true;
    }
    if (!shed && QueuePush(fd)) {
      accepted_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    shed_.fetch_add(1, std::memory_order_relaxed);
    OPINEDB_METRIC_COUNT("server.shed", 1);
    HttpResponse response = HttpResponse::Error(
        429, "server overloaded: admission queue full");
    response.headers.emplace_back("Retry-After", "1");
    WriteAll(fd, Serialize(response, /*keep_alive=*/false,
                           /*head_request=*/false));
    ::close(fd);
  }
}

void Httpd::WorkerLoop() {
  for (;;) {
    const int fd = QueuePop();
    if (fd < 0) return;
    ServeConnection(fd);
  }
}

void Httpd::ServeConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    // Registration and the stop check share one critical section so a
    // concurrent Stop() either sees this fd in its shutdown sweep or
    // we see stopping_ and bail before touching the socket.
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    active_fds_.push_back(fd);
  }
  timeval timeout{};
  timeout.tv_sec = kReadTimeoutMs / 1000;
  timeout.tv_usec = (kReadTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  HttpParser parser;
  size_t served_on_connection = 0;
  char buffer[8192];
  for (;;) {
    if (parser.state() == HttpParser::State::kNeedMore) {
      // A fault at the read site abandons the connection mid-request
      // (the client sees a close); the worker moves on cleanly.
      bool read_fault = false;
      try {
        OPINEDB_FAULT("server.read");
      } catch (const fault::FaultInjected&) {
        read_fault = true;
      }
      if (read_fault) {
        OPINEDB_METRIC_COUNT("server.errors", 1);
        break;
      }
      const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;  // EOF, timeout or error: close.
      parser.Feed(std::string_view(buffer, static_cast<size_t>(n)));
      continue;
    }
    if (parser.state() == HttpParser::State::kError) {
      OPINEDB_METRIC_COUNT("server.bad_requests", 1);
      const HttpResponse response =
          HttpResponse::Error(parser.error_status(), parser.error_detail());
      WriteAll(fd, Serialize(response, /*keep_alive=*/false,
                             /*head_request=*/false));
      // The client may still be sending (e.g. a 413 mid-upload):
      // closing with unread input would RST the socket and can destroy
      // the response in flight. Shut down our write side and drain
      // until EOF or timeout so the error frame is deliverable.
      ::shutdown(fd, SHUT_WR);
      size_t drained = 0;
      while (drained < kMaxBodyBytes + sizeof(buffer)) {
        const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
        if (n <= 0) break;  // EOF or timeout; a flood stops at the cap.
        drained += static_cast<size_t>(n);
      }
      break;
    }

    // One complete request is resident.
    const HttpRequest& request = parser.request();
    ++served_on_connection;
    served_.fetch_add(1, std::memory_order_relaxed);
    OPINEDB_METRIC_COUNT("server.requests", 1);
    OPINEDB_METRIC_GAUGE_SET(
        "server.inflight",
        static_cast<double>(
            inflight_.fetch_add(1, std::memory_order_relaxed) + 1));
    const auto start = std::chrono::steady_clock::now();
    HttpResponse response;
    try {
      response = handler_(request);
    } catch (const std::exception& e) {
      response = HttpResponse::Error(500, e.what());
    } catch (...) {
      response = HttpResponse::Error(500, "unknown handler failure");
    }
    OPINEDB_METRIC_GAUGE_SET(
        "server.inflight",
        static_cast<double>(
            inflight_.fetch_sub(1, std::memory_order_relaxed) - 1));

    const bool keep_alive =
        request.keep_alive &&
        served_on_connection < kMaxRequestsPerConnection &&
        !stopping_.load(std::memory_order_acquire);
    const bool head_request = request.method == "HEAD";
    // A fault at the write site degrades this response to a 500 but
    // must not poison the connection: the substituted response is a
    // well-formed frame, so the next request on the same connection is
    // served normally (asserted by tests/fault_injection_test.cc).
    std::string wire;
    try {
      OPINEDB_FAULT("server.write");
      wire = Serialize(response, keep_alive, head_request);
    } catch (const fault::FaultInjected& e) {
      response = HttpResponse::Error(500, e.what());
      wire = Serialize(response, keep_alive, head_request);
    }
    if (response.status >= 500) {
      OPINEDB_METRIC_COUNT("server.errors", 1);
    } else if (response.status >= 400) {
      OPINEDB_METRIC_COUNT("server.bad_requests", 1);
    }
    if (!WriteAll(fd, wire)) break;
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    OPINEDB_METRIC_LATENCY_MS("server.latency_ms", elapsed_ms);
    if (!keep_alive) break;
    parser.ResetForNext();
  }
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_fds_.erase(std::find(active_fds_.begin(), active_fds_.end(), fd));
  }
  ::close(fd);
}

bool Httpd::WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

std::string Httpd::Serialize(const HttpResponse& response, bool keep_alive,
                             bool head_request) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  if (!head_request) out += response.body;
  return out;
}

}  // namespace opinedb::server
