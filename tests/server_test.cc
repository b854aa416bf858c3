// End-to-end serving battery for the HTTP front door (src/server/).
//
// The load-bearing contract: a query served over the wire is
// *bit-identical* to the same query executed embedded — same entities,
// same %.17g-rendered scores, byte-for-byte the same JSON document
// (core::ResultToJson is the single renderer on both paths). On top of
// that: per-request deadlines surface as partial results with
// exact-prefix scores, admission control sheds with 429 once the
// bounded queue fills, concurrent clients never interleave responses
// (the TSan gate for the worker pool), and the /healthz + /metrics
// surfaces keep their pinned schemas.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "core/engine.h"
#include "core/result_json.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "server/http_client.h"
#include "server/httpd.h"
#include "server/json.h"
#include "server/server.h"
#include "storage/snapshot_store.h"

namespace opinedb {
namespace {

std::string JsonString(std::string_view s) {
  std::string out;
  JsonEscapeAppend(s, &out);
  return out;
}

/// {"sql": "<sql>"} plus any extra raw members.
std::string QueryBody(const std::string& sql, const std::string& extra = "") {
  std::string body = "{\"sql\": " + JsonString(sql);
  if (!extra.empty()) body += ", " + extra;
  body += "}";
  return body;
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 20;
    options.generator.min_reviews_per_entity = 8;
    options.generator.max_reviews_per_entity = 14;
    options.generator.seed = 61;
    options.seed = 61;
    options.extractor_training_sentences = 400;
    options.predicate_pool_size = 40;
    options.membership_training_tuples = 400;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));

    server::QueryServerOptions server_options;
    server_options.httpd.num_workers = 4;
    server_options.httpd.queue_capacity = 16;
    server_ = new server::QueryServer(artifacts_->db.get(), server_options);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  static void TearDownTestSuite() {
    server_->Stop();
    delete server_;
    server_ = nullptr;
    delete artifacts_;
    artifacts_ = nullptr;
  }

  void TearDown() override {
    db().SetTraceLevel(obs::TraceLevel::kOff);
  }

  static core::OpineDb& db() { return *artifacts_->db; }
  static uint16_t port() { return server_->port(); }

  static server::HttpClient Connected() {
    server::HttpClient client;
    const Status status = client.Connect("127.0.0.1", port());
    EXPECT_TRUE(status.ok()) << status.ToString();
    return client;
  }

  /// The embedded render the wire body must match byte for byte.
  static std::string EmbeddedJson(const std::string& sql) {
    auto result = db().Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return core::ResultToJson(*result);
  }

  static eval::DomainArtifacts* artifacts_;
  static server::QueryServer* server_;
};

eval::DomainArtifacts* ServerTest::artifacts_ = nullptr;
server::QueryServer* ServerTest::server_ = nullptr;

const char* const kQueries[] = {
    "select * from hotels where \"clean room\" limit 5",
    "select * from hotels where \"friendly staff\" limit 10",
    "select * from hotels where rating > 2.0 and \"clean room\" limit 5",
    "select * from hotels where \"clean room\" and \"friendly staff\" "
    "limit 3",
};

// ------------------------------------------------------- Bit identity.

TEST_F(ServerTest, LoopbackRoundTripBitIdenticalToEmbedded) {
  server::HttpClient client = Connected();
  for (const char* sql : kQueries) {
    SCOPED_TRACE(sql);
    const std::string expected = EmbeddedJson(sql);
    auto response = client.Post("/query", QueryBody(sql));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->Header("content-type"), "application/json");
    // The serving layer's core contract: the wire body IS the embedded
    // render, byte for byte (same %.17g doubles, same layout).
    EXPECT_EQ(response->body, expected);
  }
}

TEST_F(ServerTest, RepeatedServingIsDeterministic) {
  server::HttpClient client = Connected();
  const std::string body = QueryBody(kQueries[0]);
  auto first = client.Post("/query", body);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (int i = 0; i < 5; ++i) {
    auto again = client.Post("/query", body);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again->body, first->body);
  }
}

// -------------------------------------------------- Deadline partials.

TEST_F(ServerTest, ZeroDeadlineReturnsPartialWithExactPrefixScores) {
  // Embedded full run: the reference score of every entity.
  auto full = db().Execute(kQueries[1]);
  ASSERT_TRUE(full.ok());
  std::map<int64_t, double> full_scores;
  for (const auto& r : full->results) full_scores[r.entity] = r.score;

  server::HttpClient client = Connected();
  auto response =
      client.Post("/query", QueryBody(kQueries[1], "\"deadline_ms\": 0"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200);
  auto doc = server::JsonValue::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // A zero budget expires at the first checkpoint: deterministic
  // partial, never an error.
  EXPECT_EQ(doc->GetBool("partial"), std::make_optional(true));
  const auto watermark = doc->GetNumber("watermark");
  ASSERT_TRUE(watermark.has_value());
  EXPECT_LE(*watermark, static_cast<double>(db().corpus().num_entities()));
  // Prefix consistency over the wire: every emitted score is the exact
  // full score (%.17g round-trips doubles bit-exactly, so strtod on
  // the response recovers the same bits Execute produced).
  const server::JsonValue* results = doc->Find("results");
  ASSERT_NE(results, nullptr);
  for (const server::JsonValue& row : results->items()) {
    const auto entity = row.GetNumber("entity");
    const auto score = row.GetNumber("score");
    ASSERT_TRUE(entity.has_value() && score.has_value());
    const auto it = full_scores.find(static_cast<int64_t>(*entity));
    ASSERT_NE(it, full_scores.end());
    EXPECT_EQ(*score, it->second) << "entity " << *entity;
  }
}

TEST_F(ServerTest, GenerousDeadlineServesTheFullResult) {
  server::HttpClient client = Connected();
  auto response = client.Post(
      "/query", QueryBody(kQueries[0], "\"deadline_ms\": 60000"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, EmbeddedJson(kQueries[0]));
}

TEST_F(ServerTest, NegativeDeadlineRejected400) {
  server::HttpClient client = Connected();
  auto response =
      client.Post("/query", QueryBody(kQueries[0], "\"deadline_ms\": -5"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 400);
}

// ------------------------------------------------- Concurrent hammer.

// The TSan gate for the serving path: many clients, each on its own
// keep-alive connection, hammering the worker pool with a mixed query
// load. Every response must be intact and bit-identical to the
// embedded render — a torn or interleaved response is a framing bug,
// a data race is a TSan report.
TEST_F(ServerTest, ConcurrentClientsGetBitIdenticalResponses) {
  std::vector<std::string> expected;
  for (const char* sql : kQueries) expected.push_back(EmbeddedJson(sql));

  constexpr int kThreads = 8;
  constexpr int kRequestsPerThread = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &expected, &failures] {
      server::HttpClient client;
      if (!client.Connect("127.0.0.1", port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const size_t pick = static_cast<size_t>(t + i) % 4;
        auto response =
            client.Post("/query", QueryBody(kQueries[pick]));
        if (!response.ok() || response->status != 200 ||
            response->body != expected[pick]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

// ----------------------------------------------- Admission control.

// Saturate a one-worker server whose queue holds a single connection:
// the third concurrent client must be shed with an immediate 429 and
// Retry-After, while both admitted connections are served to
// completion once the worker unblocks.
TEST(ServerAdmissionTest, ShedsWith429WhenQueueFull) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> executing{0};
  server::HttpdOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  server::Httpd httpd(options, [&](const server::HttpRequest&) {
    executing.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return release; });
    return server::HttpResponse::Json(200, "{\"ok\": true}\n");
  });
  ASSERT_TRUE(httpd.Start().ok());

  // Connection A: admitted, popped by the worker, handler now blocked.
  server::HttpClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", httpd.port()).ok());
  ASSERT_TRUE(a.SendRaw("GET /a HTTP/1.1\r\nConnection: close\r\n\r\n").ok());
  while (executing.load() == 0) std::this_thread::yield();

  // Connection B: admitted into the (now empty) queue slot.
  server::HttpClient b;
  ASSERT_TRUE(b.Connect("127.0.0.1", httpd.port()).ok());
  ASSERT_TRUE(b.SendRaw("GET /b HTTP/1.1\r\nConnection: close\r\n\r\n").ok());
  while (httpd.accepted_count() < 2) std::this_thread::yield();

  // Connection C: queue full -> shed with 429, never served.
  server::HttpClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", httpd.port()).ok());
  ASSERT_TRUE(c.SendRaw("GET /c HTTP/1.1\r\n\r\n").ok());
  auto shed = c.ReadResponse();
  ASSERT_TRUE(shed.ok()) << shed.status().ToString();
  EXPECT_EQ(shed->status, 429);
  EXPECT_EQ(shed->Header("retry-after"), "1");
  EXPECT_EQ(httpd.shed_count(), 1u);

  // Unblock the worker: both admitted connections complete normally —
  // shedding was load shedding, not collateral damage.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  auto ra = a.ReadResponse();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  EXPECT_EQ(ra->status, 200);
  auto rb = b.ReadResponse();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(rb->status, 200);
  EXPECT_EQ(httpd.served_count(), 2u);
  httpd.Stop();
}

// ------------------------------------------------ Health and metrics.

TEST_F(ServerTest, HealthzSchemaPinned) {
  server::HttpClient client = Connected();
  auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  auto doc = server::JsonValue::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("status"), std::make_optional<std::string>("ok"));
  EXPECT_EQ(doc->GetNumber("entities"),
            std::make_optional(static_cast<double>(
                db().corpus().num_entities())));
  ASSERT_TRUE(doc->GetNumber("snapshot_generation").has_value());
  ASSERT_TRUE(doc->GetNumber("cache_epoch").has_value());
}

TEST_F(ServerTest, MetricsScrapeSchemaAndServerCounters) {
  db().SetTraceLevel(obs::TraceLevel::kStats);
  server::HttpClient client = Connected();
  // Drive at least one served request so the server.* families exist.
  auto query = client.Post("/query", QueryBody(kQueries[0]));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->status, 200);

  auto response = client.Get("/metrics");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  auto doc = server::JsonValue::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // Registry schema pin: the three metric families.
  const server::JsonValue* counters = doc->Find("counters");
  const server::JsonValue* gauges = doc->Find("gauges");
  const server::JsonValue* histograms = doc->Find("histograms");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(histograms, nullptr);
  ASSERT_TRUE(counters->is_object());
  ASSERT_TRUE(gauges->is_object());
  ASSERT_TRUE(histograms->is_object());
  // Serving metrics pin: request counter, inflight gauge, latency
  // histogram (docs/OBSERVABILITY.md "Serving metrics" table).
  const server::JsonValue* requests = counters->Find("server.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_GE(requests->AsNumber(), 1.0);
  EXPECT_NE(gauges->Find("server.inflight"), nullptr);
  EXPECT_NE(histograms->Find("server.latency_ms"), nullptr);
}

// ------------------------------------------------------- Error paths.

TEST_F(ServerTest, ErrorPathsAnswerTypedJsonEnvelopes) {
  server::HttpClient client = Connected();
  struct Case {
    const char* name;
    const char* method;
    const char* target;
    std::string body;
    int want_status;
  };
  const Case kCases[] = {
      {"unknown route", "GET", "/nope", "", 404},
      {"wrong method on /query", "GET", "/query", "", 405},
      {"wrong method on /metrics", "POST", "/metrics", "{}", 405},
      {"malformed body json", "POST", "/query", "{\"sql\": ", 400},
      {"body not an object", "POST", "/query", "[1,2,3]", 400},
      {"missing sql field", "POST", "/query", "{}", 400},
      {"unparseable sql", "POST", "/query",
       QueryBody("select pineapple frum"), 400},
  };
  for (const auto& test_case : kCases) {
    SCOPED_TRACE(test_case.name);
    auto response =
        client.Request(test_case.method, test_case.target, test_case.body);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, test_case.want_status);
    // Every error is a parseable {"error": ...} envelope.
    auto doc = server::JsonValue::Parse(response->body);
    ASSERT_TRUE(doc.ok()) << response->body;
    EXPECT_TRUE(doc->GetString("error").has_value());
  }
}

TEST_F(ServerTest, OversizedBodyRejected413) {
  server::HttpClient client = Connected();
  const std::string oversized((1 << 20) + 1, 'x');
  auto response = client.Post("/query", oversized);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 413);
}

TEST_F(ServerTest, OversizedHeaderBlockRejected431) {
  server::HttpClient client = Connected();
  std::string wire = "GET /healthz HTTP/1.1\r\n";
  wire += "X-Padding: " + std::string(17 * 1024, 'p') + "\r\n\r\n";
  ASSERT_TRUE(client.SendRaw(wire).ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 431);
}

TEST_F(ServerTest, MalformedRequestLineRejected400) {
  server::HttpClient client = Connected();
  ASSERT_TRUE(client.SendRaw("BOGUS\r\n\r\n").ok());
  auto response = client.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 400);
}

// ---------------------------------------------- Connection lifecycle.

TEST_F(ServerTest, KeepAliveServesManyThenHonorsConnectionClose) {
  server::HttpClient client = Connected();
  for (int i = 0; i < 5; ++i) {
    auto response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << "request " << i << ": "
                               << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->Header("connection"), "keep-alive");
  }
  auto final_response = client.Request("GET", "/healthz", "",
                                       {{"Connection", "close"}});
  ASSERT_TRUE(final_response.ok()) << final_response.status().ToString();
  EXPECT_EQ(final_response->status, 200);
  EXPECT_EQ(final_response->Header("connection"), "close");
  // The server hung up: the next request on this connection fails at
  // the transport layer instead of hanging.
  auto after_close = client.Get("/healthz");
  EXPECT_FALSE(after_close.ok());
}

TEST_F(ServerTest, PipelinedRequestsAreServedInOrder) {
  server::HttpClient client = Connected();
  ASSERT_TRUE(client
                  .SendRaw("GET /healthz HTTP/1.1\r\n\r\n"
                           "GET /metrics HTTP/1.1\r\n\r\n")
                  .ok());
  auto first = client.ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status, 200);
  auto doc = server::JsonValue::Parse(first->body);
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(doc->GetString("status").has_value());  // healthz first.
  auto second = client.ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status, 200);
  auto metrics = server::JsonValue::Parse(second->body);
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->Find("counters"), nullptr);  // metrics second.
}

// ------------------------------------------------------ Admin surface.

TEST_F(ServerTest, ExplainRouteMatchesEmbeddedPlanText) {
  const std::string sql = "select * from hotels where rating > 2.0 and "
                          "\"clean room\" limit 5";
  auto embedded = db().Execute("explain " + sql);
  ASSERT_TRUE(embedded.ok());
  server::HttpClient client = Connected();
  auto response = client.Post("/explain", QueryBody(sql));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200);
  auto doc = server::JsonValue::Parse(response->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("plan_text"),
            std::make_optional(embedded->plan_text));
  EXPECT_EQ(doc->GetString("plan"),
            std::make_optional<std::string>(
                core::PlanKindName(embedded->plan)));
}

TEST_F(ServerTest, AdminSnapshotSaveAndOpenRoundTrip) {
  const std::string dir =
      ::testing::TempDir() + "/opinedb_server_snapshot_test";
  server::HttpClient client = Connected();

  // No directory configured and none in the body: a typed 400.
  auto bad = client.Post("/admin/snapshot/save", "{}");
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->status, 400);

  auto saved = client.Post("/admin/snapshot/save",
                           "{\"dir\": " + JsonString(dir) + "}");
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->status, 200) << saved->body;
  auto saved_doc = server::JsonValue::Parse(saved->body);
  ASSERT_TRUE(saved_doc.ok());
  const auto generation = saved_doc->GetNumber("generation");
  ASSERT_TRUE(generation.has_value());
  EXPECT_GE(*generation, 1.0);

  auto opened = client.Post("/admin/snapshot/open",
                            "{\"dir\": " + JsonString(dir) + "}");
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_EQ(opened->status, 200) << opened->body;
  auto opened_doc = server::JsonValue::Parse(opened->body);
  ASSERT_TRUE(opened_doc.ok());
  EXPECT_EQ(opened_doc->GetNumber("generation"), generation);

  // /healthz reflects the open, and a query still serves bit-identical
  // to embedded after the snapshot round trip.
  auto health = client.Get("/healthz");
  ASSERT_TRUE(health.ok());
  auto health_doc = server::JsonValue::Parse(health->body);
  ASSERT_TRUE(health_doc.ok());
  EXPECT_EQ(health_doc->GetNumber("snapshot_generation"), generation);
  auto query = client.Post("/query", QueryBody(kQueries[0]));
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->status, 200);
  EXPECT_EQ(query->body, EmbeddedJson(kQueries[0]));
}

// A refused snapshot request is the client's (400), a directory without
// a snapshot is 404, and only a store that fails to verify is 500.
TEST_F(ServerTest, SnapshotRoutesAnswerRefusalsAsClientErrors) {
  const std::filesystem::path root =
      std::filesystem::path(::testing::TempDir()) /
      "opinedb_server_snapshot_refusals";
  std::filesystem::remove_all(root);
  const std::string wal_dir = (root / "wal").string();
  const std::string empty_dir = (root / "empty").string();
  const std::string corrupt_dir = (root / "corrupt").string();
  std::filesystem::create_directories(empty_dir);
  std::filesystem::create_directories(corrupt_dir);
  {
    std::ofstream out(std::filesystem::path(corrupt_dir) /
                      storage::SnapshotStore::GenerationFileName(1));
    out << "not a snapshot container";
  }
  const auto post = [](const std::string& route, const std::string& dir) {
    server::HttpClient client = Connected();
    auto response = client.Post(route, "{\"dir\": " + JsonString(dir) + "}");
    EXPECT_TRUE(response.ok()) << response.status().ToString();
    return response.ok() ? response->status : 0;
  };

  ASSERT_EQ(post("/admin/snapshot/save", wal_dir), 200);
  ASSERT_TRUE(db().EnableWal(wal_dir).ok());
  EXPECT_EQ(post("/admin/snapshot/save", wal_dir), 400)
      << "a save beside an attached WAL is refused";
  // The open detaches the WAL again.
  EXPECT_EQ(post("/admin/snapshot/open", wal_dir), 200);
  EXPECT_FALSE(db().wal_enabled());

  db().SetReadOnly(true);
  EXPECT_EQ(post("/admin/snapshot/save", wal_dir), 400)
      << "a follower refuses a save as it refuses a checkpoint";
  db().SetReadOnly(false);

  EXPECT_EQ(post("/admin/snapshot/open", empty_dir), 404);
  EXPECT_EQ(post("/admin/snapshot/open", corrupt_dir), 500);
  std::filesystem::remove_all(root);
}

// ---------------------------------------------- Optional sections.

TEST_F(ServerTest, StatsSectionIsOptInViaFlagOrBody) {
  server::HttpClient client = Connected();
  auto plain = client.Post("/query", QueryBody(kQueries[0]));
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->body.find("\"stats\""), std::string::npos);

  auto via_body =
      client.Post("/query", QueryBody(kQueries[0], "\"stats\": true"));
  ASSERT_TRUE(via_body.ok());
  EXPECT_NE(via_body->body.find("\"stats\""), std::string::npos);

  auto via_query = client.Post("/query?stats=1", QueryBody(kQueries[0]));
  ASSERT_TRUE(via_query.ok());
  EXPECT_NE(via_query->body.find("\"stats\""), std::string::npos);
  auto doc = server::JsonValue::Parse(via_query->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const server::JsonValue* stats = doc->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->GetNumber("entities_scored"),
            std::make_optional(static_cast<double>(
                db().corpus().num_entities())));
}

TEST_F(ServerTest, InterpretationsCanBeSuppressed) {
  server::HttpClient client = Connected();
  auto suppressed = client.Post(
      "/query", QueryBody(kQueries[0], "\"interpretations\": false"));
  ASSERT_TRUE(suppressed.ok());
  ASSERT_EQ(suppressed->status, 200);
  EXPECT_EQ(suppressed->body.find("\"interpretations\""),
            std::string::npos);
}

// ------------------------------------------------- Client timeouts.

// A stalled peer — accepted the request, never answers — must surface
// as the typed, retryable Status::Unavailable within the configured
// read budget, not hang the caller (the replication client's pull loop
// depends on this to notice a wedged primary).
TEST(HttpClientTimeoutTest, StalledServerSurfacesAsUnavailable) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  server::HttpdOptions options;
  options.num_workers = 1;
  server::Httpd httpd(options, [&](const server::HttpRequest&) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
    return server::HttpResponse::Json(200, "{\"ok\": true}\n");
  });
  ASSERT_TRUE(httpd.Start().ok());

  server::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", httpd.port(),
                             /*connect_timeout_ms=*/2000,
                             /*read_timeout_ms=*/200)
                  .ok());
  const auto before = std::chrono::steady_clock::now();
  auto stalled = client.Get("/never-answered");
  const auto elapsed = std::chrono::steady_clock::now() - before;
  ASSERT_FALSE(stalled.ok()) << "a stalled peer must not yield a response";
  EXPECT_EQ(stalled.status().code(), StatusCode::kUnavailable)
      << stalled.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "the read budget must bound the stall";

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  httpd.Stop();
}

// A status code that does not fit an int is a typed ParseError. The
// client used to accumulate it digit by digit into the int and hand
// back a wrapped status (signed overflow).
TEST(HttpClientStatusLineTest, OverlongStatusCodeIsAParseError) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  ASSERT_EQ(
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    char request[4096];
    ::recv(fd, request, sizeof(request), 0);
    const std::string reply =
        "HTTP/1.1 99999999999 OK\r\nContent-Length: 0\r\n\r\n";
    ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  server::HttpClient client;
  const Status connected = client.Connect("127.0.0.1", ntohs(addr.sin_port));
  StatusCode code = StatusCode::kOk;
  int status = 0;
  if (connected.ok()) {
    auto response = client.Get("/status");
    if (response.ok()) {
      status = response->status;
    } else {
      code = response.status().code();
    }
  }
  ::shutdown(listener, SHUT_RDWR);  // Ends a pending accept.
  peer.join();
  ::close(listener);
  ASSERT_TRUE(connected.ok()) << connected.ToString();
  EXPECT_EQ(code, StatusCode::kParseError) << "parsed status " << status;
}

// --------------------------------------------------- Graceful drain.

// Stop() must let a slow in-flight request finish (up to the drain
// grace) while refusing new connections immediately — a deploy rolls
// the server without truncating the response some client already paid
// for.
TEST(ServerDrainTest, StopDrainsInFlightRequestAndRefusesNewOnes) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> executing{0};
  server::HttpdOptions options;
  options.num_workers = 1;
  server::Httpd httpd(options, [&](const server::HttpRequest&) {
    executing.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return release; });
    return server::HttpResponse::Json(200, "{\"drained\": true}\n");
  });
  ASSERT_TRUE(httpd.Start().ok());
  const uint16_t port = httpd.port();

  // The slow in-flight request: admitted, handler now blocked.
  server::HttpClient slow;
  ASSERT_TRUE(slow.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(
      slow.SendRaw("GET /slow HTTP/1.1\r\nConnection: close\r\n\r\n").ok());
  while (executing.load() == 0) std::this_thread::yield();

  std::thread stopper([&] { httpd.Stop(); });

  // New arrivals are refused as soon as Stop() closes the listener.
  bool refused = false;
  for (int i = 0; i < 500 && !refused; ++i) {
    server::HttpClient probe;
    if (!probe.Connect("127.0.0.1", port, /*connect_timeout_ms=*/100).ok()) {
      refused = true;
      break;
    }
    // A connection that slipped in before the close may still be open;
    // give Stop() a beat and retry.
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(refused) << "Stop() must refuse new connections immediately";

  // Release the handler: the drained response arrives intact.
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  auto response = slow.ReadResponse();
  ASSERT_TRUE(response.ok())
      << "drain grace must let the in-flight response flush: "
      << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, "{\"drained\": true}\n");
  stopper.join();
}

}  // namespace
}  // namespace opinedb
