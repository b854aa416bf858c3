// Deterministic fault-injection sweep over the serving path.
//
// Every throw-and-degrade site of fault::kSites is armed against every
// plan shape (dense scan, text-fallback scan, filtered scan, a
// conjunction over a list precomputed under the armed site,
// result/interpretation-cached serving). The contract under test:
//
//  - no injected fault ever crashes, hangs, or leaks a query — every
//    Execute returns ok() with sane, finite scores (graceful
//    degradation, DESIGN.md §5e);
//  - a fault that never fires (site armed but off this shape's path, or
//    the N-th hit is never reached) perturbs nothing: results stay
//    bit-identical to the unfaulted run;
//  - after a fault storm the unfaulted path is fully recovered — and in
//    particular no precomputed degree list is ever built from a
//    degraded or failed preparation;
//  - the catalog is live: every throw-and-degrade site is reached by at
//    least one shape, and every server site through a live loopback
//    server (a stale catalog entry fails the sweep).
//
// The whole file self-skips in builds where OPINEDB_FAULT_INJECTION is
// off (plain Release): the macro compiles to nothing there.
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/result_json.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "server/http_client.h"
#include "server/server.h"

namespace opinedb {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 20;
    options.generator.min_reviews_per_entity = 8;
    options.generator.max_reviews_per_entity = 14;
    options.generator.seed = 51;
    options.seed = 51;
    options.extractor_training_sentences = 400;
    options.predicate_pool_size = 40;
    options.membership_training_tuples = 400;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  void SetUp() override {
    if (!fault::CompiledIn()) {
      GTEST_SKIP() << "fault injection compiled out (plain Release build)";
    }
    fault::DisarmAll();
  }

  void TearDown() override { fault::DisarmAll(); }

  static core::OpineDb& db() { return *artifacts_->db; }

  /// Pool predicates whose interpretation carries A.m atoms, so the
  /// feature-scoring sites are on their execution path.
  static std::vector<std::string> AtomPredicates(size_t want) {
    std::vector<std::string> out;
    for (const auto& p : artifacts_->pool) {
      const auto interp = db().interpreter().Interpret(p.text);
      if (interp.method != core::InterpretMethod::kTextFallback &&
          !interp.atoms.empty()) {
        out.push_back(p.text);
        if (out.size() == want) break;
      }
    }
    return out;
  }

  /// A predicate of out-of-vocabulary words: the word2vec stage cannot
  /// cover it, so the query exercises the co-occurrence stage, the
  /// inverted-index scan, and the per-entity text fallback.
  static std::string NonsensePredicate() { return "zorblatt quuxly vibes"; }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* FaultInjectionTest::artifacts_ = nullptr;

void ExpectBitIdentical(const core::QueryResult& reference,
                        const core::QueryResult& actual) {
  ASSERT_EQ(reference.results.size(), actual.results.size());
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].entity, actual.results[i].entity);
    EXPECT_EQ(reference.results[i].score, actual.results[i].score);
  }
}

// Degraded results may differ from the unfaulted ranking, but they must
// still be well-formed: finite unit-interval scores in ranking order.
void ExpectSane(const core::QueryResult& run) {
  for (size_t i = 0; i < run.results.size(); ++i) {
    const auto& r = run.results[i];
    EXPECT_TRUE(std::isfinite(r.score));
    EXPECT_GE(r.score, 0.0);
    EXPECT_LE(r.score, 1.0);
    if (i > 0) {
      const auto& prev = run.results[i - 1];
      EXPECT_TRUE(prev.score > r.score ||
                  (prev.score == r.score && prev.entity < r.entity));
    }
  }
}

/// One plan shape: `run(site)` rebuilds the shape's starting state from
/// scratch, arms `site` (empty = none) and executes the measured query,
/// leaving no caches or lists behind.
struct Shape {
  std::string name;
  std::function<Result<core::QueryResult>(const std::string& site)> run;
};

std::vector<Shape> MakeShapes(core::OpineDb& db,
                              const std::vector<std::string>& atom_preds,
                              const std::string& nonsense_pred) {
  const std::string dense_sql =
      "select * from hotels where \"" + atom_preds[0] + "\" limit 5";
  const std::string textfb_sql =
      "select * from hotels where \"" + nonsense_pred + "\" limit 5";
  const std::string filtered_sql = "select * from hotels where rating > 2.0 "
                                   "and \"" + atom_preds[0] + "\" limit 5";
  const std::string conj_sql = "select * from hotels where \"" +
                               atom_preds[0] + "\" and \"" + atom_preds[1] +
                               "\" limit 3";
  auto arm = [](const std::string& site) {
    if (!site.empty()) fault::Arm(site, 1);
  };
  auto plain = [&db, arm](std::string sql) {
    return [&db, arm, sql](const std::string& site) {
      db.mutable_options()->force_plan = core::PlanForce::kAuto;
      arm(site);
      return db.Execute(sql);
    };
  };
  std::vector<Shape> shapes;
  shapes.push_back({"dense", plain(dense_sql)});
  shapes.push_back({"text_fallback", plain(textfb_sql)});
  shapes.push_back({"filtered", plain(filtered_sql)});
  shapes.push_back({"precomputed", [&db, arm, conj_sql, atom_preds](
                                       const std::string& site) {
                      // The armed site may fire while the first conjunct's
                      // list is built (it then gets no list) or in the
                      // query, which serves that conjunct from the list
                      // and scores the second.
                      db.mutable_options()->force_plan =
                          core::PlanForce::kAuto;
                      arm(site);
                      db.PrecomputeDegrees({atom_preds[0]});
                      auto run = db.Execute(conj_sql);
                      db.PrecomputeDegrees({});
                      return run;
                    }});
  shapes.push_back(
      {"result_cached", [&db, arm, dense_sql](const std::string& site) {
         // Fresh result + interpretation caches; the first execution
         // walks the fill sites (interp_lookup miss, interp_insert,
         // result_lookup miss, result_insert), the measured second
         // execution serves the hit path. Cache faults leave the
         // measured result bit-identical either way: a fill fault only
         // forces the second execution back onto the full pipeline.
         cache::CacheConfig on;
         on.enable_interpretation = true;
         on.enable_results = true;
         db.ConfigureCaches(on);
         db.mutable_options()->force_plan = core::PlanForce::kAuto;
         arm(site);
         auto warm = db.Execute(dense_sql);
         EXPECT_TRUE(warm.ok()) << warm.status().ToString();
         auto run = db.Execute(dense_sql);
         db.ConfigureCaches(cache::CacheConfig());
         return run;
       }});
  return shapes;
}

TEST_F(FaultInjectionTest, SweepEverySiteAcrossEveryPlanShape) {
  const auto atom_preds = AtomPredicates(2);
  ASSERT_GE(atom_preds.size(), 2u)
      << "fixture produced no word2vec-interpretable predicates";
  auto shapes = MakeShapes(db(), atom_preds, NonsensePredicate());
  const auto sites = fault::SitesOfKind(fault::SiteKind::kDegrade);
  std::map<std::string, bool> covered;
  for (const char* site : sites) covered[site] = false;
  for (const auto& shape : shapes) {
    fault::DisarmAll();
    auto reference = shape.run("");
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    for (const char* site : sites) {
      SCOPED_TRACE(shape.name + " site=" + site);
      fault::DisarmAll();
      auto run = shape.run(site);
      const bool fired = fault::HitCount(site) > 0;
      fault::DisarmAll();
      // No fault ever surfaces as a crash or an error status: the
      // cascade degrades one stage and keeps serving.
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectSane(*run);
      if (fired) {
        covered[site] = true;
      } else {
        // Armed but never reached on this shape: zero perturbation.
        ExpectBitIdentical(*reference, *run);
        EXPECT_FALSE(run->degraded);
      }
    }
    // Recovery: once the storm passes, the shape is bit-identical again.
    fault::DisarmAll();
    auto after = shape.run("");
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ExpectBitIdentical(*reference, *after);
    EXPECT_FALSE(after->degraded);
  }
  for (const auto& [site, hit] : covered) {
    EXPECT_TRUE(hit) << "catalog entry never reached by any shape: " << site
                     << " (stale catalog entry or dead OPINEDB_FAULT site)";
  }
}

TEST_F(FaultInjectionTest, NthHitSemanticsAndUnreachedArming) {
  const auto atom_preds = AtomPredicates(1);
  ASSERT_FALSE(atom_preds.empty());
  const std::string sql =
      "select * from hotels where \"" + atom_preds[0] + "\" limit 5";
  auto reference = db().Execute(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // Fire on the 3rd hit: the first two entities score cleanly, the
  // third degrades, all later ones score cleanly again (one-shot).
  fault::Arm("score.features", 3);
  auto run = db().Execute(sql);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GE(fault::HitCount("score.features"), 3u);
  EXPECT_TRUE(run->degraded);
  ExpectSane(*run);
  fault::DisarmAll();
  // An N-th hit that is never reached must not perturb anything.
  fault::Arm("score.features", 1000000000);
  auto unfired = db().Execute(sql);
  ASSERT_TRUE(unfired.ok()) << unfired.status().ToString();
  EXPECT_FALSE(unfired->degraded);
  ExpectBitIdentical(*reference, *unfired);
}

TEST_F(FaultInjectionTest, DegradedFlagReportsEveryFallback) {
  const auto atom_preds = AtomPredicates(1);
  ASSERT_FALSE(atom_preds.empty());
  const std::string sql =
      "select * from hotels where \"" + atom_preds[0] + "\" limit 5";
  for (const char* site :
       {"interpret.embed", "interpret.w2v", "score.features"}) {
    SCOPED_TRACE(site);
    fault::Arm(site, 1);
    auto run = db().Execute(sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_GT(fault::HitCount(site), 0u);
    EXPECT_TRUE(run->degraded) << "fallback at " << site
                               << " not reported via QueryResult::degraded";
    fault::DisarmAll();
  }
}

// No precomputed list may be built from a degraded or failed
// preparation: with a fault armed inside PrecomputeDegrees — the
// embedding prologue, the word2vec stage, per-entity scoring — the
// predicate gets no list, and the next query scores it cleanly. An
// unfaulted rebuild then serves a list bit-identical to the unfaulted
// run. (The name is kept from the degree cache this test first covered.)
TEST_F(FaultInjectionTest, FaultsNeverPoisonTheDegreeCache) {
  const auto atom_preds = AtomPredicates(1);
  ASSERT_FALSE(atom_preds.empty());
  const std::string sql =
      "select * from hotels where \"" + atom_preds[0] + "\" limit 5";
  auto reference = db().Execute(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (const char* site :
       {"interpret.embed", "interpret.w2v", "score.features"}) {
    SCOPED_TRACE(site);
    fault::Arm(site, 1);
    EXPECT_EQ(db().PrecomputeDegrees({atom_preds[0]}), 0u);
    EXPECT_GT(fault::HitCount(site), 0u);
    EXPECT_EQ(db().precomputed_degrees(atom_preds[0]), nullptr);
    fault::DisarmAll();
    auto run = db().Execute(sql);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_EQ(run->stats.cache_misses, 1u);
    EXPECT_FALSE(run->degraded);
    ExpectBitIdentical(*reference, *run);
  }
  ASSERT_EQ(db().PrecomputeDegrees({atom_preds[0]}), 1u);
  auto served = db().Execute(sql);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->stats.cache_hits, 1u);
  EXPECT_FALSE(served->degraded);
  ExpectBitIdentical(*reference, *served);
  db().PrecomputeDegrees({});
}

// A fault at the result-cache fill site must leave the cache exactly as
// it was (the site sits before any mutation): the faulted query is
// still correct, nothing stale becomes resident, and the next unfaulted
// query repairs the cache with a clean entry that then serves
// bit-identical hits.
TEST_F(FaultInjectionTest, FaultsNeverPoisonTheResultCache) {
  const auto atom_preds = AtomPredicates(1);
  ASSERT_FALSE(atom_preds.empty());
  const std::string sql =
      "select * from hotels where \"" + atom_preds[0] + "\" limit 5";
  auto reference = db().Execute(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  cache::CacheConfig on;
  on.enable_results = true;
  db().ConfigureCaches(on);
  fault::Arm("cache.result_insert", 1);
  auto run = db().Execute(sql);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(fault::HitCount("cache.result_insert"), 0u);
  ExpectBitIdentical(*reference, *run);
  EXPECT_EQ(db().result_cache()->size(), 0u);
  EXPECT_EQ(db().result_cache()->bytes(), 0u);
  fault::DisarmAll();
  auto repaired = db().Execute(sql);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_FALSE(repaired->degraded);
  ExpectBitIdentical(*reference, *repaired);
  EXPECT_EQ(db().result_cache()->size(), 1u);
  auto hit = db().Execute(sql);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_TRUE(hit->stats.result_cache_hit);
  ExpectBitIdentical(*reference, *hit);
  db().ConfigureCaches(cache::CacheConfig());
}

// Same contract for the interpretation-cache fill, plus the lookup-side
// fault: a failed consult serves the answer by full execution (reported
// as degraded — off the preferred path) and never caches it.
TEST_F(FaultInjectionTest, FaultsNeverPoisonTheInterpretationCache) {
  const auto atom_preds = AtomPredicates(1);
  ASSERT_FALSE(atom_preds.empty());
  const std::string sql =
      "select * from hotels where \"" + atom_preds[0] + "\" limit 5";
  auto reference = db().Execute(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  cache::CacheConfig on;
  on.enable_interpretation = true;
  db().ConfigureCaches(on);
  fault::Arm("cache.interp_insert", 1);
  auto run = db().Execute(sql);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(fault::HitCount("cache.interp_insert"), 0u);
  EXPECT_FALSE(run->degraded);  // The fill failure is invisible.
  ExpectBitIdentical(*reference, *run);
  EXPECT_EQ(db().interpretation_cache()->size(), 0u);
  fault::DisarmAll();
  auto repaired = db().Execute(sql);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  ExpectBitIdentical(*reference, *repaired);
  EXPECT_EQ(db().interpretation_cache()->size(), 1u);
  db().ConfigureCaches(cache::CacheConfig());
}

// Result-cache lookup fault: the engine answers by full execution —
// complete, bit-identical, flagged degraded — and keeps the query out
// of the cache for this serving.
TEST_F(FaultInjectionTest, ResultCacheLookupFaultFallsBackToExecution) {
  const auto atom_preds = AtomPredicates(1);
  ASSERT_FALSE(atom_preds.empty());
  const std::string sql =
      "select * from hotels where \"" + atom_preds[0] + "\" limit 5";
  auto reference = db().Execute(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  cache::CacheConfig on;
  on.enable_results = true;
  db().ConfigureCaches(on);
  fault::Arm("cache.result_lookup", 1);
  auto run = db().Execute(sql);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(fault::HitCount("cache.result_lookup"), 0u);
  EXPECT_TRUE(run->degraded);
  EXPECT_FALSE(run->stats.result_cache_hit);
  ExpectBitIdentical(*reference, *run);
  EXPECT_EQ(db().result_cache()->size(), 0u);
  fault::DisarmAll();
  db().ConfigureCaches(cache::CacheConfig());
}

// ------------------------------------------------- Serving-layer sites.
// The server entries of the fault catalog (common/fault.h) are swept
// over a live loopback server. The blast-radius contract: a fired server
// site degrades exactly one connection or response — never the server,
// and never a *different* connection's request.

TEST_F(FaultInjectionTest, ServerAcceptFaultDropsOneConnectionOnly) {
  server::QueryServer query_server(&db());
  ASSERT_TRUE(query_server.Start().ok());
  fault::Arm("server.accept", 1);
  server::HttpClient dropped;
  ASSERT_TRUE(dropped.Connect("127.0.0.1", query_server.port()).ok());
  // The faulted accept closes the connection before any response.
  auto failed = dropped.Get("/healthz");
  EXPECT_FALSE(failed.ok());
  EXPECT_GT(fault::HitCount("server.accept"), 0u);
  // The very next connection is served normally.
  server::HttpClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", query_server.port()).ok());
  auto served = next.Get("/healthz");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->status, 200);
  query_server.Stop();
}

TEST_F(FaultInjectionTest, ServerReadFaultAbandonsOneRequestOnly) {
  server::QueryServer query_server(&db());
  ASSERT_TRUE(query_server.Start().ok());
  fault::Arm("server.read", 1);
  server::HttpClient dropped;
  ASSERT_TRUE(dropped.Connect("127.0.0.1", query_server.port()).ok());
  auto failed = dropped.Get("/healthz");
  EXPECT_FALSE(failed.ok());
  EXPECT_GT(fault::HitCount("server.read"), 0u);
  server::HttpClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", query_server.port()).ok());
  auto served = next.Get("/healthz");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->status, 200);
  query_server.Stop();
}

// The satellite contract named in the catalog: a fault during response
// write substitutes a well-formed 500 and must NOT poison the reused
// connection — the next request on the same keep-alive stream parses
// and serves normally, bit-identical to embedded execution.
TEST_F(FaultInjectionTest, ServerWriteFaultDoesNotPoisonReusedConnection) {
  const auto atom_preds = AtomPredicates(1);
  ASSERT_FALSE(atom_preds.empty());
  const std::string sql =
      "select * from hotels where \"" + atom_preds[0] + "\" limit 5";
  auto reference = db().Execute(sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string expected = core::ResultToJson(*reference);
  std::string body = "{\"sql\": ";
  JsonEscapeAppend(sql, &body);
  body += "}";

  server::QueryServer query_server(&db());
  ASSERT_TRUE(query_server.Start().ok());
  server::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", query_server.port()).ok());
  fault::Arm("server.write", 1);
  auto faulted = client.Post("/query", body);
  ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
  EXPECT_EQ(faulted->status, 500);
  EXPECT_GT(fault::HitCount("server.write"), 0u);
  fault::DisarmAll();
  // Same connection, next request: served as if nothing happened.
  auto repaired = client.Post("/query", body);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(repaired->status, 200);
  EXPECT_EQ(repaired->body, expected);
  query_server.Stop();
}

TEST_F(FaultInjectionTest, ServerShedFaultForcesThe429Path) {
  server::QueryServer query_server(&db());
  ASSERT_TRUE(query_server.Start().ok());
  fault::Arm("server.shed", 1);
  server::HttpClient shed;
  ASSERT_TRUE(shed.Connect("127.0.0.1", query_server.port()).ok());
  ASSERT_TRUE(shed.SendRaw("GET /healthz HTTP/1.1\r\n\r\n").ok());
  auto response = shed.ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 429);
  EXPECT_EQ(response->Header("retry-after"), "1");
  EXPECT_GT(fault::HitCount("server.shed"), 0u);
  EXPECT_EQ(query_server.httpd().shed_count(), 1u);
  // Admission recovers immediately once the site disarms (one-shot).
  server::HttpClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", query_server.port()).ok());
  auto served = next.Get("/healthz");
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->status, 200);
  query_server.Stop();
}

// Catalog liveness for the server kind, mirroring the throw-and-degrade
// sweep: every entry must be reachable through the loopback server — a
// stale entry or dead OPINEDB_FAULT site fails loudly.
TEST_F(FaultInjectionTest, EveryServerSiteIsReachable) {
  server::QueryServer query_server(&db());
  ASSERT_TRUE(query_server.Start().ok());
  for (const char* site : fault::SitesOfKind(fault::SiteKind::kServer)) {
    SCOPED_TRACE(site);
    fault::DisarmAll();
    fault::Arm(site, 1);
    server::HttpClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", query_server.port()).ok());
    // Whatever the site does to this request — drop, 500, 429 — it
    // must fire, and the server must keep serving afterwards.
    (void)client.Get("/healthz");
    EXPECT_GT(fault::HitCount(site), 0u)
        << "catalog entry never reached: " << site
        << " (stale catalog entry or dead OPINEDB_FAULT site)";
    fault::DisarmAll();
    server::HttpClient after;
    ASSERT_TRUE(after.Connect("127.0.0.1", query_server.port()).ok());
    auto served = after.Get("/healthz");
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->status, 200);
  }
  query_server.Stop();
}

}  // namespace
}  // namespace opinedb
