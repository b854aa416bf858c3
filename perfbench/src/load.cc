#include "load.h"

#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

namespace perfbench {

namespace srv = opinedb::server;

void OpCounts::Merge(const OpCounts& other) {
  attempted += other.attempted;
  failed += other.failed;
  transport_errors += other.transport_errors;
  http_errors += other.http_errors;
  bad_answers += other.bad_answers;
  reopened += other.reopened;
}

std::string WireRequest(const std::string& method, const std::string& target,
                        const std::string& body, uint64_t request_id) {
  std::string wire = method + " " + target + " HTTP/1.1\r\n";
  wire += "Host: opinedb\r\n";
  wire += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (request_id != 0) {
    wire += "x-request-id: " + std::to_string(request_id) + "\r\n";
  }
  wire += "\r\n";
  wire += body;
  return wire;
}

std::string QueryBody(const std::string& sql, bool stats) {
  std::string body = "{\"sql\": " + JsonString(sql);
  if (stats) body += ", \"stats\": true";
  body += "}";
  return body;
}

bool LooksLikeAnswer(const std::string& body) {
  return body.rfind("{\n  \"results\": [", 0) == 0 &&
         body.find("\n  \"partial\": false,") != std::string::npos;
}

Connection::Reply Connection::Send(const std::string& wire,
                                   OpCounts* counts) {
  Reply reply;
  reply.start_ms = NowMs();
  ++counts->attempted;
  opinedb::Status status = opinedb::Status::OK();
  if (!http_.connected()) status = http_.Connect("127.0.0.1", port_);
  if (status.ok()) status = http_.SendRaw(wire);
  if (status.ok()) {
    auto response = http_.ReadResponse();
    if (response.ok()) {
      reply.status = response->status;
      reply.body = std::move(response->body);
      if (response->Header("connection") == "close") {
        http_.Close();
        ++counts->reopened;
      }
    } else {
      status = response.status();
    }
  }
  reply.end_ms = NowMs();
  if (!status.ok()) {
    http_.Close();
    ++counts->transport_errors;
    ++counts->failed;
  } else if (reply.status < 200 || reply.status >= 300) {
    ++counts->http_errors;
    ++counts->failed;
  } else {
    reply.ok = true;
  }
  return reply;
}

FrontDoor::FrontDoor(opinedb::core::OpineDb* db,
                     srv::QueryServerOptions options, SpanStore* spans)
    : server_(db, options), spans_(spans) {
  if (spans_ == nullptr) return;
  traced_ = std::make_unique<srv::Httpd>(
      options.httpd, [this](const srv::HttpRequest& request) {
        const double start = NowMs();
        srv::HttpResponse response = server_.Handle(request);
        const double end = NowMs();
        const uint64_t id =
            std::strtoull(std::string(request.Header("x-request-id")).c_str(),
                          nullptr, 10);
        if (id != 0) spans_->Add("server.handle", id, id, start, end);
        return response;
      });
}

FrontDoor::~FrontDoor() { Stop(); }

opinedb::Status FrontDoor::Start() {
  return traced_ ? traced_->Start() : server_.Start();
}

void FrontDoor::Stop() {
  if (traced_) {
    traced_->Stop();
  } else {
    server_.Stop();
  }
}

uint16_t FrontDoor::port() const {
  return traced_ ? traced_->port() : server_.port();
}

uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t ParseAppended(const std::string& body) {
  const std::string key = "\"appended\": ";
  const size_t at = body.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(body.c_str() + at + key.size(), nullptr, 10);
}

namespace {

/// Sends one request on `connection`; traced, records its root span and
/// keeps the exchange.
Connection::Reply Exchange1(Connection* connection, const std::string& target,
                            const std::string& body, const std::string& sql,
                            SpanStore* spans, OpCounts* counts,
                            std::vector<Exchange>* exchanges) {
  const uint64_t id = spans != nullptr ? NextRequestId() : 0;
  std::string wire = WireRequest("POST", target, body, id);
  Connection::Reply reply = connection->Send(wire, counts);
  if (spans != nullptr) {
    spans->AddRoot("request", id, reply.start_ms, reply.end_ms);
    exchanges->push_back(Exchange{id, target, sql, std::move(wire), body,
                                  reply.body, reply.ok});
  }
  return reply;
}

}  // namespace

WindowResult RunWindow(const WindowPlan& plan) {
  WindowResult result;
  std::mutex mu;
  const double start = NowMs();
  const double deadline = start + plan.seconds * 1e3;
  std::vector<std::thread> threads;

  for (const auto& next_sql : plan.readers) {
    threads.emplace_back([&, next_sql] {
      Connection connection(plan.port);
      std::vector<double> latencies;
      std::vector<Exchange> exchanges;
      OpCounts counts;
      while (NowMs() < deadline) {
        const std::string sql = next_sql();
        Connection::Reply reply =
            Exchange1(&connection, "/query", QueryBody(sql, plan.spans != nullptr),
                      sql, plan.spans, &counts, &exchanges);
        if (!reply.ok) continue;
        if (!LooksLikeAnswer(reply.body)) {
          ++counts.bad_answers;
          ++counts.failed;
          continue;
        }
        latencies.push_back(reply.end_ms - reply.start_ms);
      }
      std::lock_guard<std::mutex> lock(mu);
      result.query_ms.insert(result.query_ms.end(), latencies.begin(),
                             latencies.end());
      result.queries.Merge(counts);
      for (Exchange& exchange : exchanges) {
        result.exchanges.push_back(std::move(exchange));
      }
    });
  }

  if (plan.writer) {
    threads.emplace_back([&] {
      Connection connection(plan.port);
      std::vector<Exchange> exchanges;
      double due = start;
      while (NowMs() < deadline) {
        // Paced: one batch per interval, never a catch-up burst after a
        // slow append.
        const double now = NowMs();
        if (due > now) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(due - now));
        }
        due = std::max(due, now) + plan.write_interval_ms;
        const Connection::Reply reply =
            Exchange1(&connection, "/reviews", plan.writer(), "", plan.spans,
                      &result.writes, &exchanges);
        result.reviews_sent += plan.write_batch;
        ++result.batches;
        if (reply.ok) {
          result.ingest_ms.push_back(reply.end_ms - reply.start_ms);
          result.reviews_acked += ParseAppended(reply.body);
        }
        if (plan.checkpoint_every > 0 &&
            result.batches % plan.checkpoint_every == 0) {
          const Connection::Reply fold =
              Exchange1(&connection, "/admin/checkpoint", "{}", "",
                        plan.spans, &result.writes, &exchanges);
          if (fold.ok) {
            result.checkpoint_ms.push_back(fold.end_ms - fold.start_ms);
            if (plan.on_checkpoint) plan.on_checkpoint(fold.body);
          }
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      for (Exchange& exchange : exchanges) {
        result.exchanges.push_back(std::move(exchange));
      }
    });
  }

  for (std::thread& thread : threads) thread.join();
  result.elapsed_s = (NowMs() - start) / 1e3;
  return result;
}

}  // namespace perfbench
