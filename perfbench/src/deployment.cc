#include "deployment.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "bench/bench_common.h"
#include "core/result_json.h"
#include "datagen/generator.h"
#include "repl/client.h"
#include "storage/wal.h"

namespace perfbench {

namespace core = opinedb::core;
namespace fs = std::filesystem;

namespace {

core::EngineOptions Engine() {
  core::EngineOptions engine;
  // One engine thread per query: concurrency comes from the server's
  // workers, so a query never competes with its own fan-out for CPUs.
  engine.num_threads = 1;
  engine.cache.enable_interpretation = true;
  engine.cache.enable_results = true;
  return engine;
}

eval::BuildOptions HotelOptions() {
  eval::BuildOptions options = opinedb::bench::HotelBuildOptions();
  options.engine = Engine();
  return options;
}

Vocabulary HotelVocabulary(const eval::DomainArtifacts& hotel) {
  Vocabulary vocabulary;
  vocabulary.table = hotel.db->schema().objective_table;
  for (const auto& predicate : hotel.pool) {
    vocabulary.predicates.push_back(predicate.text);
  }
  std::set<std::string> cities;
  vocabulary.price_min = INT64_MAX;
  vocabulary.price_max = INT64_MIN;
  vocabulary.rating_min = 1e300;
  vocabulary.rating_max = -1e300;
  for (const auto& entity : hotel.domain.entities) {
    cities.insert(entity.city);
    vocabulary.price_min = std::min(vocabulary.price_min, entity.price);
    vocabulary.price_max = std::max(vocabulary.price_max, entity.price);
    vocabulary.rating_min = std::min(vocabulary.rating_min, entity.rating);
    vocabulary.rating_max = std::max(vocabulary.rating_max, entity.rating);
  }
  vocabulary.cities.assign(cities.begin(), cities.end());
  vocabulary.entities =
      static_cast<int32_t>(hotel.db->corpus().num_entities());
  return vocabulary;
}

Vocabulary ScaledVocabulary(const datagen::ScaledFixture& fixture) {
  Vocabulary vocabulary;
  vocabulary.table = fixture.table_name;
  vocabulary.predicates = fixture.subjective_predicates;
  // The fixture draws price_pn uniformly from [40, 400) and clamps
  // rating to [1, 5] (datagen/scale.cc).
  vocabulary.price_min = 40;
  vocabulary.price_max = 399;
  vocabulary.rating_min = 1.0;
  vocabulary.rating_max = 5.0;
  vocabulary.entities =
      static_cast<int32_t>(fixture.db->corpus().num_entities());
  return vocabulary;
}

bool Check(const opinedb::Status& status, const char* what) {
  if (status.ok()) return true;
  std::fprintf(stderr, "set-up failed: %s: %s\n", what,
               status.ToString().c_str());
  return false;
}

std::vector<std::string> WarmupStatements(const Workload& workload,
                                          const Vocabulary& vocabulary,
                                          uint64_t seed) {
  std::vector<std::string> statements =
      StatementSet(workload, vocabulary, seed);
  if (workload.warm_every_predicate) {
    for (const std::string& predicate : vocabulary.predicates) {
      statements.push_back("select * from " + vocabulary.table +
                           " where \"" + predicate + "\" limit 10");
    }
  }
  StatementStream fresh(workload, vocabulary, StreamSeed(seed, 5, 0));
  for (size_t i = 0; i < workload.warmup_statements; ++i) {
    statements.push_back(fresh.Next());
  }
  return statements;
}

}  // namespace

std::vector<std::string> RenderReviewBodies(uint64_t seed) {
  datagen::GeneratorOptions options;
  options.num_entities = 100;
  options.min_reviews_per_entity = 6;
  options.max_reviews_per_entity = 10;
  options.seed = seed;
  const datagen::SyntheticDomain domain =
      datagen::GenerateDomain(datagen::HotelDomain(), options);
  std::vector<std::string> bodies;
  for (const auto& review : domain.corpus.reviews()) {
    bodies.push_back(review.body);
  }
  return bodies;
}

std::unique_ptr<Deployment> SetUp(const Workload& workload,
                                  const RunConfig& config) {
  auto d = std::make_unique<Deployment>();
  d->workload = &workload;
  const double build_start = NowMs();
  if (workload.dataset == Dataset::kHotelSeed) {
    d->hotel = eval::BuildArtifacts(datagen::HotelDomain(), HotelOptions());
    d->db = d->hotel.db.get();
    d->vocabulary = HotelVocabulary(d->hotel);
  } else {
    datagen::ScaleSpec spec;
    spec.num_entities = workload.entities;
    spec.num_threads = Engine().num_threads;
    d->scaled = datagen::BuildScaledFixture(spec);
    d->db = d->scaled.db.get();
    d->db->ConfigureCaches(Engine().cache);
    d->vocabulary = ScaledVocabulary(d->scaled);
  }
  if (workload.write_batch > 0) {
    // Primary: snapshot + WAL (every append fsynced before it is
    // acknowledged), its base generation pinned the way a lagging
    // follower's fetches pin it. Follower: a fresh engine over the same
    // domain that saves the same base generation and stays detached
    // until the catch-up after the window.
    d->primary_dir = config.scratch + "/primary";
    d->follower_dir = config.scratch + "/follower";
    std::error_code ec;
    fs::remove_all(d->primary_dir, ec);
    fs::remove_all(d->follower_dir, ec);
    if (!Check(d->db->SaveDatabase(d->primary_dir), "snapshot") ||
        !Check(d->db->EnableWal(d->primary_dir), "EnableWal")) {
      return nullptr;
    }
    d->db->generation_pins()->Pin(d->db->snapshot_generation());
    d->source = std::make_unique<opinedb::repl::ReplicationSource>(d->db);
    d->follower = eval::BuildArtifacts(datagen::HotelDomain(), HotelOptions());
    if (!Check(d->follower.db->SaveDatabase(d->follower_dir),
               "follower snapshot")) {
      return nullptr;
    }
  }
  d->times.build_s = (NowMs() - build_start) / 1e3;

  const double start_start = NowMs();
  d->server_options.httpd.num_workers = config.workers;
  d->server_options.replication_source = d->source.get();
  d->door = std::make_unique<FrontDoor>(d->db, d->server_options, nullptr);
  if (!Check(d->door->Start(), "front door start")) return nullptr;
  d->times.start_s = (NowMs() - start_start) / 1e3;

  const double warmup_start = NowMs();
  Connection connection(d->door->port());
  for (const std::string& sql :
       WarmupStatements(workload, d->vocabulary, config.seed)) {
    const Connection::Reply reply = connection.Send(
        WireRequest("POST", "/query", QueryBody(sql, false), 0), &d->warmup);
    if (reply.ok && !LooksLikeAnswer(reply.body)) {
      ++d->warmup.bad_answers;
      ++d->warmup.failed;
    }
  }
  d->times.warmup_s = (NowMs() - warmup_start) / 1e3;
  return d;
}

bool Restart(Deployment* deployment, SpanStore* spans) {
  deployment->door->Stop();
  deployment->door.reset();
  deployment->door = std::make_unique<FrontDoor>(
      deployment->db, deployment->server_options, spans);
  return Check(deployment->door->Start(), "front door restart");
}

namespace {

/// The answer without its `watermark` line (entities scored by this
/// execution: 0 when the result cache served it).
std::string WithoutWatermark(const std::string& body) {
  const size_t at = body.find("\n  \"watermark\": ");
  if (at == std::string::npos) return body;
  const size_t end = body.find('\n', at + 1);
  return body.substr(0, at) + body.substr(end);
}

/// " (first difference: <line of a> vs <line of b>)", for the report.
std::string FirstDifference(const std::string& a, const std::string& b) {
  size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  auto line = [at](const std::string& s) {
    const size_t begin = s.rfind('\n', at) == std::string::npos
                             ? 0
                             : s.rfind('\n', at) + 1;
    return s.substr(begin, std::min<size_t>(s.find('\n', at), s.size()) -
                               begin);
  };
  return " (first difference: '" + line(a) + "' vs '" + line(b) + "')";
}

}  // namespace

size_t VerifyAnswers(Deployment* deployment,
                     const std::vector<std::string>& sample,
                     core::OpineDb* follower, OpCounts* counts,
                     std::vector<std::string>* problems) {
  Connection connection(deployment->door->port());
  core::OpineDb& db = *deployment->db;
  auto fail = [&](const std::string& what, const std::string& sql) {
    ++counts->bad_answers;
    ++counts->failed;
    problems->push_back(what + ": " + sql);
  };
  auto ask = [&](const std::string& sql, std::string* body) {
    const Connection::Reply reply = connection.Send(
        WireRequest("POST", "/query", QueryBody(sql, false), 0), counts);
    *body = reply.body;
    if (!reply.ok) {
      problems->push_back("no answer (HTTP " + std::to_string(reply.status) +
                          ") for: " + sql);
    }
    return reply.ok;
  };

  // The answers as served, caches on.
  std::vector<std::string> served(sample.size());
  std::vector<bool> answered(sample.size());
  for (size_t i = 0; i < sample.size(); ++i) {
    answered[i] = ask(sample[i], &served[i]);
  }

  // Executed answers, caches off on both engines: over HTTP and
  // embedded they must match byte for byte, and the follower's too.
  db.ConfigureCaches(opinedb::cache::CacheConfig());
  if (follower != nullptr) follower->ConfigureCaches(opinedb::cache::CacheConfig());
  size_t watermark_only = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const std::string& sql = sample[i];
    const uint64_t epoch = db.cache_epoch();
    std::string executed;
    if (!answered[i] || !ask(sql, &executed)) continue;
    auto local = db.Execute(sql);
    if (!local.ok()) {
      fail("embedded execution failed: " + local.status().ToString(), sql);
    } else if (db.cache_epoch() != epoch) {
      fail("cache epoch moved during the check", sql);
    } else if (const std::string embedded = core::ResultToJson(*local);
               embedded != executed) {
      fail("/query answer differs from ResultToJson(Execute)" +
               FirstDifference(executed, embedded),
           sql);
    } else if (WithoutWatermark(served[i]) != WithoutWatermark(executed)) {
      fail("served (cached) answer differs from the executed one" +
               FirstDifference(served[i], executed),
           sql);
    } else if (follower != nullptr) {
      auto replica = follower->Execute(sql);
      const std::string replica_json =
          replica.ok() ? core::ResultToJson(*replica) : replica.status().ToString();
      if (replica_json != executed) {
        fail("follower answer differs from the primary's" +
                 FirstDifference(executed, replica_json),
             sql);
      }
    }
    if (served[i] != executed) ++watermark_only;
  }
  return watermark_only;
}

CatchUp RunCatchUp(Deployment* deployment, ReviewBatchStream* batches,
                   uint64_t window_reviews, SpanStore* spans,
                   OpCounts* counts, std::vector<std::string>* problems) {
  CatchUp out;
  // Check failures of the tail and catch-up count as wrong answers.
  auto fail = [&](std::string what) {
    ++counts->bad_answers;
    ++counts->failed;
    problems->push_back(std::move(what));
  };
  core::OpineDb& primary = *deployment->db;
  const Workload& workload = *deployment->workload;
  Connection connection(deployment->door->port());
  // A fixed tail in one segment: its acknowledged bytes give the WAL
  // bytes per review exactly.
  const uint64_t bytes_before = primary.wal_acknowledged_bytes();
  for (size_t i = 0; i < workload.tail_batches; ++i) {
    const Connection::Reply reply = connection.Send(
        WireRequest("POST", "/reviews", batches->Next(), 0), counts);
    out.reviews_sent += workload.write_batch;
    if (reply.ok) out.reviews_acked += ParseAppended(reply.body);
  }
  const uint64_t tail_bytes = primary.wal_acknowledged_bytes() - bytes_before;
  if (out.reviews_sent > 0 && workload.tail_batches > 0) {
    out.wal_bytes_per_review = static_cast<double>(tail_bytes) /
                               static_cast<double>(out.reviews_sent);
    out.wal_payload_bytes =
        static_cast<double>(tail_bytes) /
            static_cast<double>(workload.tail_batches) -
        static_cast<double>(opinedb::storage::kWalRecordHeaderSize);
  }

  core::OpineDb& follower = *deployment->follower.db;
  const size_t reviews_before = follower.corpus().num_reviews();
  opinedb::repl::ReplicationClientOptions options;
  options.primary_port = deployment->door->port();
  opinedb::repl::ReplicationClient client(&follower, deployment->follower_dir,
                                          options);
  const uint64_t request = spans != nullptr ? NextRequestId() : 0;
  const double start = NowMs();
  if (!Check(client.Initialize(), "follower Initialize")) {
    fail("follower failed to initialize");
    return out;
  }
  for (;;) {
    out.positions.emplace_back(follower.snapshot_generation(),
                               client.offset());
    const double cycle_start = NowMs();
    auto caught_up = client.SyncOnce();
    const double cycle_end = NowMs();
    out.sync_once_ms.push_back(cycle_end - cycle_start);
    if (spans != nullptr) {
      out.cycle_spans.push_back(spans->Add("repl.sync_once", request, request,
                                           cycle_start, cycle_end));
    }
    if (!caught_up.ok()) {
      fail("follower sync failed: " + caught_up.status().ToString());
      break;
    }
    if (*caught_up) break;
    if (NowMs() - start > 60e3) {
      fail("follower did not catch up within 60 s");
      break;
    }
  }
  const double end = NowMs();
  if (spans != nullptr) spans->AddRoot("repl.catchup", request, start, end);
  out.seconds = (end - start) / 1e3;
  out.reviews_applied = follower.corpus().num_reviews() - reviews_before;

  const uint64_t expected = window_reviews + out.reviews_acked;
  if (out.reviews_acked != out.reviews_sent) {
    fail("tail: " + std::to_string(out.reviews_acked) +
         " reviews appended of " + std::to_string(out.reviews_sent) +
         " sent");
  }
  if (out.reviews_applied != expected) {
    fail("follower applied " + std::to_string(out.reviews_applied) +
         " reviews of " + std::to_string(expected) + " appended");
  }
  if (follower.wal_acknowledged_bytes() != primary.wal_acknowledged_bytes() ||
      client.offset() + opinedb::storage::kWalHeaderSize !=
          primary.wal_acknowledged_bytes()) {
    fail("follower acknowledged offset " + std::to_string(client.offset()) +
         " does not match the primary's " +
         std::to_string(primary.wal_acknowledged_bytes()));
  }
  return out;
}

}  // namespace perfbench
