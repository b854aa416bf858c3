// Concurrency and determinism tests for the parallel execution layer:
// multi-threaded query execution must be bit-identical to serial on both
// integration fixtures, precomputed degree lists must be bit-identical
// at any thread count and stay coherent while queries and rebuilds
// hammer them, and the ThreadPool itself must partition
// deterministically. Run these under -DOPINEDB_SANITIZE=thread — they
// are the race-detection gate (see docs/SANITIZERS.md).
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/trace.h"

namespace opinedb {
namespace {

// ------------------------------------------------------------ ThreadPool.

TEST(ThreadPoolTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(1000);
  pool.ParallelFor(0, counts.size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) counts[i].fetch_add(1);
  });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(5, 5, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  const auto caller = std::this_thread::get_id();
  pool.ParallelFor(0, 100, [&](size_t, size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.ParallelFor(0, 16, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      // Nested loop from (possibly) a worker thread: must run inline
      // rather than waiting on the already-busy queue.
      pool.ParallelFor(0, 8, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    }
  });
  EXPECT_EQ(total.load(), 16 * 8);
}

TEST(ThreadPoolTest, ConcurrentLoopsFromManyThreads) {
  ThreadPool pool(4);
  std::vector<std::thread> callers;
  std::atomic<int> total{0};
  for (int t = 0; t < 8; ++t) {
    callers.emplace_back([&] {
      pool.ParallelFor(0, 100, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
      });
    });
  }
  for (auto& caller : callers) caller.join();
  EXPECT_EQ(total.load(), 8 * 100);
}

TEST(ThreadPoolTest, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(0, 100,
                       [&](size_t begin, size_t) {
                         if (begin == 0) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ResolveThreads) {
  EXPECT_EQ(ThreadPool::ResolveThreads(3), 3u);
  EXPECT_GE(ThreadPool::ResolveThreads(0), 1u);
}

// ----------------------------------------------- Determinism fixtures.

class ConcurrencyTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    {
      eval::BuildOptions options;
      options.generator.num_entities = 30;
      options.generator.min_reviews_per_entity = 10;
      options.generator.max_reviews_per_entity = 20;
      options.generator.seed = 21;
      options.seed = 21;
      options.extractor_training_sentences = 400;
      options.predicate_pool_size = 60;
      options.membership_training_tuples = 500;
      hotel_ = new eval::DomainArtifacts(
          eval::BuildArtifacts(datagen::HotelDomain(), options));
    }
    {
      eval::BuildOptions options;
      options.generator.num_entities = 25;
      options.generator.min_reviews_per_entity = 8;
      options.generator.max_reviews_per_entity = 16;
      options.generator.seed = 22;
      options.seed = 22;
      options.extractor_training_sentences = 400;
      options.predicate_pool_size = 60;
      options.membership_training_tuples = 500;
      restaurant_ = new eval::DomainArtifacts(
          eval::BuildArtifacts(datagen::RestaurantDomain(), options));
    }
  }

  static void TearDownTestSuite() {
    delete hotel_;
    hotel_ = nullptr;
    delete restaurant_;
    restaurant_ = nullptr;
  }

  static core::OpineDb& Fixture(const std::string& name) {
    return name == "hotel" ? *hotel_->db : *restaurant_->db;
  }

  static std::vector<std::string> Queries(const std::string& name) {
    if (name == "hotel") {
      return {
          "select * from hotels where \"clean room\" limit 10",
          "select * from hotels where \"clean room\" and \"friendly "
          "staff\" limit 8",
          "select * from hotels where \"comfortable bed\" or \"quiet "
          "street\" limit 30",
          "select * from hotels limit 5",
      };
    }
    return {
        "select * from restaurants where \"delicious food\" limit 10",
        "select * from restaurants where \"delicious food\" and \"great "
        "service\" limit 8",
        "select * from restaurants where \"cozy atmosphere\" or \"fast "
        "service\" limit 25",
    };
  }

  static eval::DomainArtifacts* hotel_;
  static eval::DomainArtifacts* restaurant_;
};

eval::DomainArtifacts* ConcurrencyTest::hotel_ = nullptr;
eval::DomainArtifacts* ConcurrencyTest::restaurant_ = nullptr;

// Bit-identical means EXPECT_EQ on the raw doubles — no tolerance.
void ExpectIdenticalResults(const core::QueryResult& serial,
                            const core::QueryResult& parallel) {
  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].entity, parallel.results[i].entity);
    EXPECT_EQ(serial.results[i].entity_name, parallel.results[i].entity_name);
    EXPECT_EQ(serial.results[i].score, parallel.results[i].score);
  }
}

TEST_P(ConcurrencyTest, ParallelQueriesBitIdenticalToSerial) {
  core::OpineDb& db = Fixture(GetParam());
  for (const auto& sql : Queries(GetParam())) {
    db.SetNumThreads(1);
    auto serial = db.Execute(sql);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(serial->stats.threads_used, 1u);
    for (size_t threads : {2, 4, 8}) {
      db.SetNumThreads(threads);
      auto parallel = db.Execute(sql);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->stats.threads_used, threads);
      ExpectIdenticalResults(*serial, *parallel);
    }
  }
  db.SetNumThreads(1);
}

// (The DegreeCache names below are kept from the shared per-predicate
// cache these tests first covered; they now pin precomputed lists.)
TEST_P(ConcurrencyTest, DegreeCacheContentsBitIdenticalToSerial) {
  core::OpineDb& db = Fixture(GetParam());
  const std::vector<std::string> markers = db.schema().Markers();
  db.SetNumThreads(1);
  ASSERT_EQ(db.PrecomputeDegrees(markers), markers.size());
  std::vector<std::vector<double>> serial;
  for (const auto& marker : markers) {
    serial.push_back(*db.precomputed_degrees(marker));
  }

  db.SetNumThreads(8);
  ASSERT_EQ(db.PrecomputeDegrees(markers), markers.size());
  for (size_t m = 0; m < markers.size(); ++m) {
    const std::vector<double>* parallel = db.precomputed_degrees(markers[m]);
    ASSERT_NE(parallel, nullptr) << markers[m];
    ASSERT_EQ(parallel->size(), serial[m].size());
    for (size_t e = 0; e < serial[m].size(); ++e) {
      EXPECT_EQ(serial[m][e], (*parallel)[e])
          << markers[m] << " entity " << e;
    }
  }
  db.PrecomputeDegrees({});
  db.SetNumThreads(1);
}

TEST_P(ConcurrencyTest, ExecutionStatsArepopulated) {
  core::OpineDb& db = Fixture(GetParam());
  db.SetNumThreads(2);
  auto result = db.Execute(Queries(GetParam()).front());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.threads_used, 2u);
  EXPECT_EQ(result->stats.entities_scored, db.corpus().num_entities());
  // Without precomputed lists every subjective condition is scored.
  EXPECT_EQ(result->stats.cache_hits, 0u);
  EXPECT_EQ(result->stats.cache_misses, 1u);
  EXPECT_GE(result->stats.total_ms, 0.0);
  EXPECT_GE(result->stats.scoring_ms, 0.0);
  db.SetNumThreads(1);
}

TEST_P(ConcurrencyTest, AttachedCacheServesHitsWithIdenticalResults) {
  core::OpineDb& db = Fixture(GetParam());
  db.SetNumThreads(2);
  const auto sql = Queries(GetParam()).front();
  auto computed = db.Execute(sql);
  ASSERT_TRUE(computed.ok());
  EXPECT_EQ(computed->stats.cache_misses, 1u);

  auto query = core::ParseSubjectiveSql(sql);
  ASSERT_TRUE(query.ok());
  std::vector<std::string> predicates;
  for (const auto& condition : query->conditions) {
    if (condition.kind == core::Condition::Kind::kSubjective) {
      predicates.push_back(condition.subjective);
    }
  }
  ASSERT_EQ(db.PrecomputeDegrees(predicates), 1u);
  auto served = db.Execute(sql);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(served->stats.cache_hits, 1u);
  EXPECT_EQ(served->stats.cache_misses, 0u);
  db.PrecomputeDegrees({});
  db.SetNumThreads(1);

  ExpectIdenticalResults(*computed, *served);
}

TEST_P(ConcurrencyTest, ReaggregateBitIdenticalAcrossThreadCounts) {
  core::OpineDb& db = Fixture(GetParam());
  const auto sql = Queries(GetParam()).front();
  core::AggregationOptions filtered;
  filtered.min_reviewer_reviews = 2;

  db.SetNumThreads(1);
  db.Reaggregate(filtered);
  auto serial = db.Execute(sql);
  ASSERT_TRUE(serial.ok());

  db.SetNumThreads(4);
  db.Reaggregate(filtered);
  auto parallel = db.Execute(sql);
  ASSERT_TRUE(parallel.ok());
  ExpectIdenticalResults(*serial, *parallel);

  // Restore the default aggregation for other tests.
  db.SetNumThreads(1);
  db.Reaggregate(core::AggregationOptions());
}

TEST_P(ConcurrencyTest, FullTracingPreservesBitIdentityContract) {
  // The observability layer must observe, never perturb: with the span
  // ring buffer on (trace_level=full), parallel execution stays
  // bit-identical to serial. Worker threads see no ambient trace
  // context, so this also exercises the span-free worker path under
  // -DOPINEDB_SANITIZE=thread.
  core::OpineDb& db = Fixture(GetParam());
  db.SetTraceLevel(obs::TraceLevel::kFull);
  for (const auto& sql : Queries(GetParam())) {
    db.SetNumThreads(1);
    auto serial = db.Execute(sql);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_NE(serial->trace, nullptr);
    for (size_t threads : {2, 4, 8}) {
      db.SetNumThreads(threads);
      auto parallel = db.Execute(sql);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectIdenticalResults(*serial, *parallel);
      ASSERT_NE(parallel->trace, nullptr);
      EXPECT_FALSE(parallel->trace->Snapshot().empty());
    }
  }
  db.SetTraceLevel(obs::TraceLevel::kOff);
  db.SetNumThreads(1);
}

// ------------------------------------------------------ Cache stress.

// Eight threads mix queries over the marker predicates with rebuilds of
// the lists (PrecomputeDegrees takes the exclusive lock while queries
// hold the shared one), so a query sees either a whole list or none.
TEST_P(ConcurrencyTest, SharedDegreeCacheSurvivesEightThreadHammer) {
  core::OpineDb& db = Fixture(GetParam());
  db.SetNumThreads(4);  // Workers live under the stress threads too.
  const std::vector<std::string> markers = db.schema().Markers();
  ASSERT_GE(markers.size(), 4u);
  const std::string table =
      std::string(GetParam()) == "hotel" ? "hotels" : "restaurants";
  auto sql_of = [&](size_t i) {
    return "select * from " + table + " where \"" +
           markers[i % markers.size()] + "\" and \"" +
           markers[(i + 1) % markers.size()] + "\" limit 5";
  };
  // Computed answers, before any list exists.
  std::vector<core::QueryResult> expected;
  for (size_t i = 0; i < markers.size(); ++i) {
    auto run = db.Execute(sql_of(i));
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    expected.push_back(std::move(*run));
  }

  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  std::vector<std::thread> hammers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    hammers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < markers.size(); ++i) {
          const size_t q = (i + static_cast<size_t>(t)) % markers.size();
          auto run = db.Execute(sql_of(q));
          if (!run.ok() || run->results.size() != expected[q].results.size()) {
            failures.fetch_add(1);
            continue;
          }
          for (size_t r = 0; r < run->results.size(); ++r) {
            if (run->results[r].entity != expected[q].results[r].entity ||
                run->results[r].score != expected[q].results[r].score) {
              failures.fetch_add(1);
            }
          }
        }
        if (t % 2 == 0) {
          // Rebuild a rotated half of the lists under the readers.
          std::vector<std::string> half;
          for (size_t i = 0; i < markers.size() / 2; ++i) {
            half.push_back(markers[(i + static_cast<size_t>(t + round)) %
                                   markers.size()]);
          }
          if (db.PrecomputeDegrees(half) != half.size()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& hammer : hammers) hammer.join();
  EXPECT_EQ(failures.load(), 0);

  // Coherence after the dust settles: every slot of every list equals
  // the degree PredicateDegreeOfTruth computes.
  db.SetNumThreads(1);
  ASSERT_EQ(db.PrecomputeDegrees(markers), markers.size());
  for (const auto& marker : markers) {
    const std::vector<double>* list = db.precomputed_degrees(marker);
    ASSERT_NE(list, nullptr) << marker;
    for (size_t e = 0; e < list->size(); ++e) {
      auto direct =
          db.PredicateDegreeOfTruth(marker, static_cast<text::EntityId>(e));
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      EXPECT_EQ((*list)[e], *direct) << marker << " entity " << e;
    }
  }
  db.PrecomputeDegrees({});
}

INSTANTIATE_TEST_SUITE_P(Domains, ConcurrencyTest,
                         ::testing::Values("hotel", "restaurant"));

}  // namespace
}  // namespace opinedb
