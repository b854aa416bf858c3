// Plan-equivalence property test: the plan is a function of the query
// (filtered scan exactly when a hard objective predicate exists), and for
// randomized fixture queries whose mix selects both plan shapes, every
// run must return the row-path oracle's whole answer (tests/oracle/) bit
// for bit — same entities, same names, same raw doubles — at 1 and 8
// threads, with tracing off and full, with and without precomputed
// degree lists, including for an uninterpretable (text-fallback)
// predicate. This is the planner's §5b/§5c contract: plans trade work,
// never results. Run under -DOPINEDB_SANITIZE=thread like
// concurrency_test.
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "common/rng.h"
#include "core/planner.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/trace.h"
#include "oracle/row_oracle.h"

namespace opinedb {
namespace {

class PlanEquivalenceTest : public ::testing::TestWithParam<const char*> {
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

  static eval::DomainArtifacts& Fixture(const std::string& name) {
    return name == "hotel" ? *hotel_ : *restaurant_;
  }

  /// Randomized query workload over the fixture's predicate pool and
  /// its objective columns. Deterministic (fixed Rng seed) so failures
  /// reproduce; shapes cover the conditions of both plan shapes plus
  /// limit boundaries (0, < entities, > entities).
  static std::vector<std::string> MakeQueries(const std::string& name) {
    const eval::DomainArtifacts& artifacts = Fixture(name);
    const std::string table =
        name == "hotel" ? "hotels" : "restaurants";
    std::vector<std::string> phrases;
    for (const auto& predicate : artifacts.pool) {
      if (phrases.size() >= 6) break;
      phrases.push_back(predicate.text);
    }
    const std::vector<std::string> objectives =
        name == "hotel"
            ? std::vector<std::string>{"price_pn < 280", "price_pn >= 150",
                                       "city = 'london'", "rating > 2.5"}
            : std::vector<std::string>{"price_range <= 2",
                                       "cuisine = 'italian'", "rating > 2.5",
                                       "price_range >= 2"};
    Rng rng(1234);
    auto phrase = [&] {
      return "\"" + phrases[rng.Below(phrases.size())] + "\"";
    };
    auto objective = [&] { return objectives[rng.Below(objectives.size())]; };
    const size_t limits[] = {0, 3, 10, 1000};
    std::vector<std::string> queries;
    for (int i = 0; i < 10; ++i) {
      std::string where;
      switch (i % 5) {
        case 0:  // Single subjective leaf.
          where = phrase();
          break;
        case 1:  // Conjunctive all-subjective.
          where = phrase() + " and " + phrase();
          break;
        case 2:  // Hard objective + subjective (filtered scan).
          where = objective() + " and " + phrase();
          break;
        case 3:  // Objective under OR: not hard, second conjunct is.
          where = "(" + objective() + " or " + phrase() + ") and " +
                  phrase();
          break;
        case 4:  // Negation plus a hard objective conjunct.
          where = "not " + phrase() + " and " + objective();
          break;
      }
      queries.push_back("select * from " + table + " where " + where +
                        " limit " + std::to_string(limits[rng.Below(4)]));
    }
    queries.push_back("select * from " + table + " limit 7");
    // Uninterpretable: the text-retrieval fallback shape, alone and
    // behind a hard objective cut.
    queries.push_back("select * from " + table + " where \"" +
                      std::string(kNonsense) + "\" limit 5");
    queries.push_back("select * from " + table + " where " + objective() +
                      " and \"" + std::string(kNonsense) + "\" limit 1000");
    return queries;
  }

  static constexpr const char* kNonsense = "zorblatt quuxly vibes";

  static eval::DomainArtifacts* hotel_;
  static eval::DomainArtifacts* restaurant_;
};

eval::DomainArtifacts* PlanEquivalenceTest::hotel_ = nullptr;
eval::DomainArtifacts* PlanEquivalenceTest::restaurant_ = nullptr;

// Bit-identical means EXPECT_EQ on the raw doubles — no tolerance.
void ExpectBitIdentical(const std::vector<core::RankedResult>& reference,
                        const std::vector<core::RankedResult>& actual) {
  ASSERT_EQ(reference.size(), actual.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].entity, actual[i].entity);
    EXPECT_EQ(reference[i].entity_name, actual[i].entity_name);
    EXPECT_EQ(reference[i].score, actual[i].score);
  }
}

/// Every subjective predicate the queries name, for PrecomputeDegrees.
std::vector<std::string> SubjectivePredicates(
    const std::vector<std::string>& queries) {
  std::vector<std::string> predicates;
  for (const auto& sql : queries) {
    auto query = core::ParseSubjectiveSql(sql);
    EXPECT_TRUE(query.ok()) << sql;
    if (!query.ok()) continue;
    for (const auto& condition : query->conditions) {
      if (condition.kind == core::Condition::Kind::kSubjective) {
        predicates.push_back(condition.subjective);
      }
    }
  }
  return predicates;
}

/// The plan shape the query's WHERE tree implies: filtered exactly when
/// some objective leaf is reachable from the root through AND nodes.
core::PlanKind ExpectedPlan(const std::string& sql) {
  auto query = core::ParseSubjectiveSql(sql);
  EXPECT_TRUE(query.ok()) << sql;
  if (!query.ok()) return core::PlanKind::kDenseScan;
  return core::AnalyzeQuery(*query).hard_objective.empty()
             ? core::PlanKind::kDenseScan
             : core::PlanKind::kFilteredScan;
}

TEST_P(PlanEquivalenceTest, EveryEligiblePlanBitIdenticalToDense) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  core::OpineDb& db = *artifacts.db;
  // The nonsense predicate must really take the text-fallback shape.
  ASSERT_EQ(db.interpreter().Interpret(kNonsense).method,
            core::InterpretMethod::kTextFallback);
  const auto queries = MakeQueries(GetParam());
  const auto predicates = SubjectivePredicates(queries);
  std::set<core::PlanKind> plans_run;
  size_t served = 0;
  for (const bool lists : {false, true}) {
    // Second pass: every subjective condition served from its list.
    db.PrecomputeDegrees(lists ? predicates : std::vector<std::string>{});
    for (const auto& sql : queries) {
      // The row-path oracle's whole answer is the reference of every run.
      auto oracle_answer =
          oracle::Execute(db, artifacts.domain.objective_table, sql);
      ASSERT_TRUE(oracle_answer.ok())
          << sql << ": " << oracle_answer.status().ToString();
      const core::PlanKind expected_plan = ExpectedPlan(sql);
      for (const size_t threads : {1, 8}) {
        for (const auto level :
             {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
          SCOPED_TRACE(sql + " lists=" + std::to_string(lists) +
                       " threads=" + std::to_string(threads) + " trace=" +
                       std::to_string(static_cast<int>(level)));
          db.SetNumThreads(threads);
          db.SetTraceLevel(level);
          auto run = db.Execute(sql);
          ASSERT_TRUE(run.ok()) << run.status().ToString();
          EXPECT_EQ(run->plan, expected_plan);
          plans_run.insert(run->plan);
          served += run->stats.cache_hits;
          EXPECT_EQ(lists ? run->stats.cache_misses : run->stats.cache_hits,
                    0u);
          ExpectBitIdentical(*oracle_answer, run->results);
        }
      }
    }
  }
  // The query mix genuinely exercised both plan shapes (a silent
  // selection regression would funnel everything into dense) and
  // really served conditions from the lists.
  EXPECT_EQ(plans_run.size(), 2u);
  EXPECT_GT(served, 0u);

  db.PrecomputeDegrees({});
  db.SetTraceLevel(obs::TraceLevel::kOff);
  db.SetNumThreads(1);
}

// §5e extension of the equivalence contract: an armed-but-never-firing
// QueryDeadline must be invisible. Rerunning the randomized workload
// under an effectively unlimited budget, over precomputed lists for
// half the predicates, must still return the oracle's answer for both
// plan shapes × thread count × trace level, with partial never set.
TEST_P(PlanEquivalenceTest, HugeDeadlineBudgetIsInvisible) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  core::OpineDb& db = *artifacts.db;
  const auto queries = MakeQueries(GetParam());
  std::vector<std::string> half = SubjectivePredicates(queries);
  half.resize(half.size() / 2);
  db.PrecomputeDegrees(half);
  core::QueryControl control;
  control.deadline = QueryDeadline::AfterMillis(1e9);
  std::set<core::PlanKind> plans_run;
  for (const auto& sql : queries) {
    auto oracle_answer =
        oracle::Execute(db, artifacts.domain.objective_table, sql);
    ASSERT_TRUE(oracle_answer.ok())
        << sql << ": " << oracle_answer.status().ToString();
    for (const size_t threads : {1, 8}) {
      for (const auto level :
           {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
        SCOPED_TRACE(sql + " threads=" + std::to_string(threads) +
                     " trace=" + std::to_string(static_cast<int>(level)));
        db.SetNumThreads(threads);
        db.SetTraceLevel(level);
        auto run = db.Execute(sql, control);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        EXPECT_FALSE(run->partial);
        EXPECT_FALSE(run->degraded);
        plans_run.insert(run->plan);
        ExpectBitIdentical(*oracle_answer, run->results);
      }
    }
  }
  EXPECT_EQ(plans_run.size(), 2u);
  db.PrecomputeDegrees({});
  db.SetTraceLevel(obs::TraceLevel::kOff);
  db.SetNumThreads(1);
}

INSTANTIATE_TEST_SUITE_P(Domains, PlanEquivalenceTest,
                         ::testing::Values("hotel", "restaurant"));

}  // namespace
}  // namespace opinedb
