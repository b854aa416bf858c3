// Deadline / cancellation tests for the serving path (DESIGN.md §5e):
//
//  - An expired or tiny budget makes ExecuteQuery return promptly with
//    partial = true and a prefix-consistent ranking — every emitted
//    score is the exact full score, never a fabricated one.
//  - A huge budget is indistinguishable from no deadline: bit-identical
//    results across 1/8 threads, trace off/full, every forced plan, with
//    and without precomputed degree lists (the §5b/§5c/§5d contracts
//    extended to the deadline machinery).
//  - A pre-cancelled CancellationToken behaves like an expired budget.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/trace.h"

namespace opinedb {
namespace {

class DeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 25;
    options.generator.min_reviews_per_entity = 8;
    options.generator.max_reviews_per_entity = 16;
    options.generator.seed = 31;
    options.seed = 31;
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

  static core::OpineDb& db() { return *artifacts_->db; }

  static std::vector<std::string> Queries() {
    const auto& pool = artifacts_->pool;
    std::vector<std::string> queries;
    queries.push_back("select * from hotels where \"" + pool[0].text +
                      "\" limit 5");
    queries.push_back("select * from hotels where \"" + pool[1].text +
                      "\" and \"" + pool[2].text + "\" limit 4");
    queries.push_back("select * from hotels where rating > 2.5 and \"" +
                      pool[0].text + "\" limit 6");
    return queries;
  }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* DeadlineTest::artifacts_ = nullptr;

void ExpectBitIdentical(const core::QueryResult& reference,
                        const core::QueryResult& actual) {
  ASSERT_EQ(reference.results.size(), actual.results.size());
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].entity, actual.results[i].entity);
    EXPECT_EQ(reference.results[i].entity_name,
              actual.results[i].entity_name);
    EXPECT_EQ(reference.results[i].score, actual.results[i].score);
  }
}

TEST_F(DeadlineTest, ExpiredBudgetReturnsPartialPromptly) {
  for (const auto& sql : Queries()) {
    SCOPED_TRACE(sql);
    core::QueryControl control;
    control.deadline = QueryDeadline::AfterMillis(0.0);
    auto run = db().Execute(sql, control);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run->partial);
    // Nothing was scored before expiry, so the consistent prefix is
    // empty — crucially, no fabricated scores are emitted.
    EXPECT_TRUE(run->results.empty());
    EXPECT_EQ(run->stats.entities_scored, 0u);
    // "Within 2x budget" with a scheduling-noise floor: an expired
    // deadline must never run the scoring fan-out.
    EXPECT_LT(run->stats.total_ms, 500.0);
  }
}

TEST_F(DeadlineTest, PreCancelledTokenBehavesLikeExpiredBudget) {
  CancellationToken token;
  token.Cancel();
  core::QueryControl control;
  control.deadline.set_token(&token);
  auto run = db().Execute(Queries()[0], control);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->partial);
  EXPECT_TRUE(run->results.empty());
}

// Partial results are prefix-consistent: whatever subset of the ranking
// survives an arbitrary mid-flight expiry, every emitted score must be
// the exact score the unbounded query computes for that entity.
TEST_F(DeadlineTest, PartialResultsCarryExactScores) {
  for (const auto& sql : Queries()) {
    // References: one with the query's own limit (for the exact-match
    // case) and one unlimited (a partial prefix's top-k may contain
    // entities the full ranking cuts off at `limit`, but every one of
    // them must still carry its exact full score).
    auto reference = db().Execute(sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string unlimited_sql =
        sql.substr(0, sql.rfind(" limit ")) + " limit 1000";
    auto unlimited = db().Execute(unlimited_sql);
    ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
    std::map<text::EntityId, double> exact;
    for (const auto& r : unlimited->results) exact[r.entity] = r.score;
    for (const double budget_ms : {0.0, 0.01, 0.05, 0.2, 1.0, 4.0}) {
      for (const size_t threads : {1, 8}) {
        SCOPED_TRACE(sql + " budget=" + std::to_string(budget_ms) +
                     " threads=" + std::to_string(threads));
        db().SetNumThreads(threads);
        core::QueryControl control;
        control.deadline = QueryDeadline::AfterMillis(budget_ms);
        auto run = db().Execute(sql, control);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        if (!run->partial) {
          // Budget happened to suffice: must match exactly.
          ExpectBitIdentical(*reference, *run);
          continue;
        }
        EXPECT_LE(run->results.size(), reference->results.size());
        for (size_t i = 0; i < run->results.size(); ++i) {
          const auto& r = run->results[i];
          auto it = exact.find(r.entity);
          ASSERT_NE(it, exact.end())
              << "partial result emitted entity " << r.entity
              << " the full query filters out";
          EXPECT_EQ(r.score, it->second)
              << "partial result fabricated a score for entity "
              << r.entity;
          if (i > 0) {
            // Same total order as the full ranking.
            const auto& prev = run->results[i - 1];
            EXPECT_TRUE(prev.score > r.score ||
                        (prev.score == r.score && prev.entity < r.entity));
          }
        }
      }
    }
  }
  db().SetNumThreads(1);
}

// A deadline that never fires must be invisible: bit-identical to the
// unbounded run across threads x trace x forced plans, with conditions
// scored and (second pass) mostly served from precomputed lists.
TEST_F(DeadlineTest, HugeBudgetBitIdenticalToUnbounded) {
  const auto& pool = artifacts_->pool;
  for (const bool lists : {false, true}) {
    db().PrecomputeDegrees(lists ? std::vector<std::string>{pool[0].text,
                                                            pool[1].text}
                                 : std::vector<std::string>{});
    for (const auto& sql : Queries()) {
      db().SetNumThreads(1);
      db().SetTraceLevel(obs::TraceLevel::kOff);
      db().mutable_options()->force_plan = core::PlanForce::kDenseScan;
      auto reference = db().Execute(sql);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      for (const auto force :
           {core::PlanForce::kAuto, core::PlanForce::kDenseScan,
            core::PlanForce::kFilteredScan}) {
        for (const size_t threads : {1, 8}) {
          for (const auto level :
               {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
            SCOPED_TRACE(sql + " lists=" + std::to_string(lists) +
                         " force=" +
                         std::to_string(static_cast<int>(force)) +
                         " threads=" + std::to_string(threads) +
                         " trace=" +
                         std::to_string(static_cast<int>(level)));
            db().SetNumThreads(threads);
            db().SetTraceLevel(level);
            db().mutable_options()->force_plan = force;
            CancellationToken token;  // Armed but never cancelled.
            core::QueryControl control;
            control.deadline = QueryDeadline::AfterMillis(1e9);
            control.deadline.set_token(&token);
            auto run = db().Execute(sql, control);
            ASSERT_TRUE(run.ok()) << run.status().ToString();
            EXPECT_FALSE(run->partial);
            EXPECT_FALSE(run->degraded);
            ExpectBitIdentical(*reference, *run);
          }
        }
      }
    }
  }
  db().PrecomputeDegrees({});
  db().mutable_options()->force_plan = core::PlanForce::kAuto;
  db().SetTraceLevel(obs::TraceLevel::kOff);
  db().SetNumThreads(1);
}

}  // namespace
}  // namespace opinedb
