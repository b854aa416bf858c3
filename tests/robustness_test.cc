// Robustness regression tests (DESIGN.md §5e):
//
//  - Reaggregate and TrainMembership must drop the precomputed degree
//    lists. The lists were scored against the old summary tables or
//    membership model; served after the rebuild they would answer
//    queries with stale degrees.
//  - Reconfiguration (Reaggregate / SetNumThreads / SetTraceLevel) is
//    serialized against in-flight queries — before the fix,
//    SetNumThreads destroyed the worker pool a running query had
//    snapshotted (use-after-free under asan; racy under tsan).
//  - Non-finite guards: TrainMembership rejects NaN/Inf features with a
//    Status, and every degree of truth the engine emits is a finite
//    value in [0, 1].
//  - PredicateDegreeOfTruth answers an entity id outside the corpus with
//    InvalidArgument instead of reading past the summary columns.
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "core/engine.h"
#include "core/membership.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"

namespace opinedb {
namespace {

class RobustnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 20;
    options.generator.min_reviews_per_entity = 8;
    options.generator.max_reviews_per_entity = 14;
    options.generator.seed = 61;
    options.seed = 61;
    options.extractor_training_sentences = 400;
    options.predicate_pool_size = 30;
    options.membership_training_tuples = 400;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  static core::OpineDb& db() { return *artifacts_->db; }

  static std::string Sql() {
    return "select * from hotels where \"" + artifacts_->pool[0].text +
           "\" limit 5";
  }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* RobustnessTest::artifacts_ = nullptr;

void ExpectBitIdentical(const core::QueryResult& reference,
                        const core::QueryResult& actual) {
  ASSERT_EQ(reference.results.size(), actual.results.size());
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].entity, actual.results[i].entity);
    EXPECT_EQ(reference.results[i].score, actual.results[i].score);
  }
}

// Regression: lists scored against the old summaries must not survive a
// Reaggregate, or queries would keep ranking against summaries that no
// longer exist. (The name is kept from the attached degree cache this
// test first covered.)
TEST_F(RobustnessTest, ReaggregateInvalidatesAttachedDegreeCache) {
  const core::AggregationOptions original = db().options().aggregation;
  const std::string predicate = artifacts_->pool[0].text;
  ASSERT_EQ(db().PrecomputeDegrees({predicate}), 1u);
  const uint64_t epoch_before = db().cache_epoch();

  // Rebuild the summaries under a meaningfully different aggregation
  // policy (stricter extraction matching changes marker summaries).
  core::AggregationOptions changed = original;
  changed.match_threshold = original.match_threshold * 2.0;
  changed.fractional = !original.fractional;
  ASSERT_TRUE(db().Reaggregate(changed).ok());

  // The stale list must be gone, and the epoch must show it.
  EXPECT_EQ(db().precomputed_degrees(predicate), nullptr)
      << "Reaggregate left a stale degree list resident";
  EXPECT_GT(db().cache_epoch(), epoch_before);

  // End-to-end: a list precomputed over the new summaries serves what
  // scoring computes from them.
  auto computed = db().Execute(Sql());
  ASSERT_TRUE(computed.ok()) << computed.status().ToString();
  ASSERT_EQ(db().PrecomputeDegrees({predicate}), 1u);
  auto served = db().Execute(Sql());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->stats.cache_hits, 1u);
  ExpectBitIdentical(*computed, *served);

  // Restore the original aggregation for the other tests (the rebuild
  // is deterministic, so this reproduces the fixture state exactly).
  ASSERT_TRUE(db().Reaggregate(original).ok());
}

// Before the fix, SetNumThreads reset pool_ while a concurrent query
// could still be executing a ParallelFor on the old pool (use-after-
// free), and Reaggregate swapped tables mid-query. With the
// reconfiguration lock, this hammering is safe at any interleaving —
// asan/tsan runs of this test are the gate.
TEST_F(RobustnessTest, ReconfigurationSerializesAgainstInFlightQueries) {
  const core::AggregationOptions original = db().options().aggregation;
  const std::string sql = Sql();
  std::atomic<bool> done{false};
  std::atomic<int> queries_ok{0};
  std::thread querier([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto run = db().Execute(sql);
      // Results vary across reaggregations; validity must not.
      EXPECT_TRUE(run.ok()) << run.status().ToString();
      if (run.ok()) queries_ok.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int i = 0; i < 6; ++i) {
    db().SetNumThreads(i % 2 == 0 ? 4 : 1);
    core::AggregationOptions changed = original;
    changed.fractional = (i % 2 == 0);
    db().Reaggregate(changed);
  }
  done.store(true, std::memory_order_release);
  querier.join();
  EXPECT_GT(queries_ok.load(), 0);
  db().SetNumThreads(1);
  db().Reaggregate(original);
}

TEST_F(RobustnessTest, TrainMembershipRejectsNonFiniteFeatures) {
  auto tuple = [](double poison) {
    core::MembershipModel::LabeledTuple t;
    t.features.assign(core::kMembershipFeatureDim, 0.5);
    t.features[3] = poison;
    t.label = 1;
    return t;
  };
  for (const double poison :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    const Status status = db().TrainMembership({tuple(poison)});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << "non-finite feature " << poison << " accepted: "
        << status.ToString();
  }
  // Wrong dimensionality is rejected too.
  core::MembershipModel::LabeledTuple short_tuple;
  short_tuple.features.assign(core::kMembershipFeatureDim - 1, 0.5);
  EXPECT_EQ(db().TrainMembership({short_tuple}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RobustnessTest, ValidateFeatureVectorAcceptsFiniteVectors) {
  std::vector<double> good(core::kMembershipFeatureDim, 0.25);
  EXPECT_TRUE(core::ValidateFeatureVector(good).ok());
}

// Every degree the engine emits is finite and in [0, 1] — including the
// text-fallback path for predicates no interpreter stage can cover.
TEST_F(RobustnessTest, DegreesOfTruthStayInUnitInterval) {
  std::vector<std::string> predicates;
  for (size_t i = 0; i < 5 && i < artifacts_->pool.size(); ++i) {
    predicates.push_back(artifacts_->pool[i].text);
  }
  predicates.push_back("zorblatt quuxly vibes");
  const size_t n = db().corpus().num_entities();
  for (const auto& predicate : predicates) {
    for (size_t e = 0; e < n; ++e) {
      auto degree = db().PredicateDegreeOfTruth(
          predicate, static_cast<text::EntityId>(e));
      ASSERT_TRUE(degree.ok()) << degree.status().ToString();
      const double d = *degree;
      ASSERT_TRUE(std::isfinite(d)) << predicate << " entity " << e;
      ASSERT_GE(d, 0.0) << predicate << " entity " << e;
      ASSERT_LE(d, 1.0) << predicate << " entity " << e;
    }
  }
}

// Regression: an entity id outside the corpus used to index the summary
// columns unchecked (1 << 28 segfaulted; -1 read before the arrays). It
// is bad input, so it gets a typed error — on the marker path and on the
// text fallback alike.
TEST_F(RobustnessTest, PredicateDegreeOfTruthRejectsOutOfRangeEntities) {
  const std::string marker = db().schema().Markers().front();
  ASSERT_FALSE(db().interpreter().Interpret(marker).atoms.empty());
  const auto n = static_cast<text::EntityId>(db().corpus().num_entities());
  for (const std::string& predicate :
       {marker, std::string("zorblatt quuxly vibes")}) {
    for (const text::EntityId entity : {-1, n, text::EntityId{1} << 28}) {
      auto degree = db().PredicateDegreeOfTruth(predicate, entity);
      ASSERT_FALSE(degree.ok()) << predicate << " entity " << entity;
      EXPECT_EQ(degree.status().code(), StatusCode::kInvalidArgument);
    }
    auto last = db().PredicateDegreeOfTruth(predicate, n - 1);
    EXPECT_TRUE(last.ok()) << last.status().ToString();
  }
}

// Membership inference clamps even when the underlying model misfires:
// a freshly default-constructed model must still emit unit-interval
// degrees for extreme (but finite) inputs.
TEST_F(RobustnessTest, MembershipDegreeOfTruthClamps) {
  core::MembershipModel::LabeledTuple a;
  a.features.assign(core::kMembershipFeatureDim, 0.9);
  a.label = 1;
  core::MembershipModel::LabeledTuple b;
  b.features.assign(core::kMembershipFeatureDim, 0.1);
  b.label = 0;
  auto model = core::MembershipModel::Train({a, b, a, b}, 7);
  std::vector<double> extreme(core::kMembershipFeatureDim, 1e12);
  const double d = model.DegreeOfTruth(extreme);
  EXPECT_TRUE(std::isfinite(d));
  EXPECT_GE(d, 0.0);
  EXPECT_LE(d, 1.0);
}

// Regression (the epoch-audit fix): TrainMembership replaces the
// membership model — every precomputed degree list and cached query
// result was computed through the old model, so they must go exactly
// like on Reaggregate above.
TEST_F(RobustnessTest, TrainMembershipInvalidatesAttachedDegreeCache) {
  const std::string predicate = artifacts_->pool[0].text;
  ASSERT_EQ(db().PrecomputeDegrees({predicate}), 1u);
  const uint64_t epoch_before = db().cache_epoch();

  const auto tuples = eval::MakeMembershipTuples(
      db(), artifacts_->domain, artifacts_->pool, 200, 99);
  ASSERT_TRUE(db().TrainMembership(tuples, 9).ok());

  EXPECT_EQ(db().precomputed_degrees(predicate), nullptr)
      << "TrainMembership left a degree list scored through the old "
         "membership model resident";
  EXPECT_GT(db().cache_epoch(), epoch_before);

  // End-to-end: a list precomputed through the retrained model serves
  // what scoring computes through it.
  auto computed = db().Execute(Sql());
  ASSERT_TRUE(computed.ok()) << computed.status().ToString();
  ASSERT_EQ(db().PrecomputeDegrees({predicate}), 1u);
  auto served = db().Execute(Sql());
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ExpectBitIdentical(*computed, *served);
  db().PrecomputeDegrees({});
}

// The epoch audit, pinned: every mutation of served data bumps the
// cache epoch exactly once; execution-reconfig operations bump it
// exactly zero times. The differential harness relies on this contract
// (cache_equivalence_test tracks the epoch in lockstep across both
// engines); this is the narrow unit statement of the same rule.
TEST_F(RobustnessTest, EveryMutationBumpsCacheEpochExactlyOnce) {
  const core::AggregationOptions original = db().options().aggregation;
  uint64_t epoch = db().cache_epoch();

  // Reaggregate: +1, regardless of whether the options changed.
  db().Reaggregate(original);
  EXPECT_EQ(db().cache_epoch(), ++epoch);

  // TrainMembership: +1.
  const auto tuples = eval::MakeMembershipTuples(
      db(), artifacts_->domain, artifacts_->pool, 200, 42);
  ASSERT_TRUE(db().TrainMembership(tuples, 6).ok());
  EXPECT_EQ(db().cache_epoch(), ++epoch);

  // Execution reconfiguration: +0 — the served data did not change, so
  // warm caches stay valid across all of these.
  db().SetNumThreads(4);
  db().SetNumThreads(1);
  db().SetTraceLevel(obs::TraceLevel::kStats);
  db().SetTraceLevel(obs::TraceLevel::kOff);
  db().PrecomputeDegrees({artifacts_->pool[0].text});
  db().PrecomputeDegrees({});
  db().ConfigureCaches(cache::CacheConfig());
  EXPECT_EQ(db().cache_epoch(), epoch);

  // Queries: +0.
  auto run = db().Execute(Sql());
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(db().cache_epoch(), epoch);

  // AppendReviews: +1 per batch, however many entities it touches.
  text::Review review;
  review.entity = 1;
  review.reviewer = 901;
  review.date = 20260807;
  review.body = "the staff was friendly and the room was clean";
  ASSERT_TRUE(db().AppendReviews({review}).ok());
  EXPECT_EQ(db().cache_epoch(), ++epoch);

  // SaveDatabase alone: +0 (a consistent read). OpenDatabase: +1 — the
  // served tables were replaced wholesale.
  const auto dir =
      std::filesystem::path(::testing::TempDir()) / "epoch_audit_snapshot";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ASSERT_TRUE(db().SaveDatabase(dir.string()).ok());
  EXPECT_EQ(db().cache_epoch(), epoch);
  ASSERT_TRUE(db().OpenDatabase(dir.string()).ok());
  EXPECT_EQ(db().cache_epoch(), ++epoch);
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace opinedb
