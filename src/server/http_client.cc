#include "server/http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/string_util.h"
#include "storage/coding.h"

namespace opinedb::server {

namespace {

/// Offset just past the first blank line, or npos (CRLF or bare LF).
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

std::string_view HttpClient::Response::Header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return value;
  }
  return {};
}

HttpClient::~HttpClient() { Close(); }

Status HttpClient::Connect(const std::string& host, uint16_t port,
                           int connect_timeout_ms, int read_timeout_ms) {
  Close();
  if (read_timeout_ms <= 0) read_timeout_ms = connect_timeout_ms;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  timeval timeout{};
  timeout.tv_sec = read_timeout_ms / 1000;
  timeout.tv_usec = (read_timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument("bad host: " + host);
  }
  // Non-blocking connect so the handshake honours its own budget
  // (SO_SNDTIMEO does not reliably bound connect() on all kernels): put
  // the socket in O_NONBLOCK, poll for writability, read the final
  // verdict from SO_ERROR, then restore blocking mode for the
  // timeout-governed request I/O.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno == EINPROGRESS) {
    pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLOUT;
    const int ready = ::poll(&pfd, 1, connect_timeout_ms);
    if (ready == 0) {
      Close();
      return Status::Unavailable("connect timed out after " +
                                 std::to_string(connect_timeout_ms) +
                                 " ms: " + host + ":" +
                                 std::to_string(port));
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (ready < 0 ||
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      const Status status = Status::Unavailable(
          std::string("connect: ") +
          std::strerror(so_error != 0 ? so_error : errno));
      Close();
      return status;
    }
  } else if (rc != 0) {
    const Status status =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    Close();
    return status;
  }
  ::fcntl(fd_, F_SETFL, flags);
  buffer_.clear();
  return Status::OK();
}

void HttpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status HttpClient::SendRaw(std::string_view bytes) {
  if (fd_ < 0) return Status::Internal("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Close();
      return Status::Unavailable("send timed out (peer stalled)");
    }
    if (n <= 0) {
      const Status status =
          Status::Internal(std::string("send: ") + std::strerror(errno));
      Close();
      return status;
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<HttpClient::Response> HttpClient::Request(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: opinedb\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  for (const auto& [name, value] : headers) {
    wire += name + ": " + value + "\r\n";
  }
  wire += "\r\n";
  wire += body;
  Status status = SendRaw(wire);
  if (!status.ok()) return status;
  return ReadResponse();
}

Result<HttpClient::Response> HttpClient::ReadResponse() {
  if (fd_ < 0) return Status::Internal("not connected");
  char chunk[8192];
  // Read until the header block is complete.
  size_t header_end;
  while ((header_end = FindHeaderEnd(buffer_)) == std::string_view::npos) {
    if (buffer_.size() > (1u << 20)) {
      Close();
      return Status::Internal("response header block too large");
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO expired against a stalled peer: typed so callers'
      // retry loops (the replication client) key on it.
      Close();
      return Status::Unavailable(
          "read timed out waiting for response headers");
    }
    if (n <= 0) {
      Close();
      return Status::Internal("connection closed before response headers");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }

  Response response;
  size_t content_length = 0;
  {
    const std::string_view block =
        std::string_view(buffer_).substr(0, header_end);
    size_t start = 0;
    bool first = true;
    while (start < block.size()) {
      size_t nl = block.find('\n', start);
      if (nl == std::string_view::npos) break;
      std::string_view line = block.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      start = nl + 1;
      if (first) {
        first = false;
        // "HTTP/1.1 200 OK"
        const size_t sp = line.find(' ');
        if (sp == std::string_view::npos || line.size() < sp + 4) {
          Close();
          return Status::ParseError("bad status line");
        }
        const size_t code_end = line.find(' ', sp + 1);
        uint64_t code = 0;
        if (!storage::ParseDecimalU64(line.substr(sp + 1, code_end - sp - 1),
                                      &code) ||
            code > 999) {
          Close();
          return Status::ParseError("bad status code");
        }
        response.status = static_cast<int>(code);
        continue;
      }
      if (line.empty()) break;
      const size_t colon = line.find(':');
      if (colon == std::string_view::npos) continue;
      const std::string name = ToLower(line.substr(0, colon));
      const std::string value(Trim(line.substr(colon + 1)));
      if (name == "content-length") {
        uint64_t parsed = 0;
        if (!storage::ParseDecimalU64(value, &parsed)) {
          Close();
          return Status::ParseError("bad content-length");
        }
        content_length = static_cast<size_t>(parsed);
      }
      response.headers.emplace_back(name, value);
    }
  }

  // Read the body.
  while (buffer_.size() - header_end < content_length) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      Close();
      return Status::Unavailable("read timed out mid-body (peer stalled)");
    }
    if (n <= 0) {
      Close();
      return Status::Internal("connection closed mid-body");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
  response.body = buffer_.substr(header_end, content_length);
  buffer_.erase(0, header_end + content_length);
  return response;
}

}  // namespace opinedb::server
