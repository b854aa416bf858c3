// Unit tests for the logical planner: condition classification, hard
// objective-predicate extraction, physical plan selection rules and the
// EXPLAIN renderer. These run on parsed
// queries alone — no engine build — so they pin the planner's behavior
// cheaply. End-to-end plan equivalence lives in
// plan_equivalence_test.cc.
#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/query.h"

namespace opinedb::core {
namespace {

SubjectiveQuery Parse(const std::string& sql) {
  auto query = ParseSubjectiveSql(sql);
  EXPECT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
  return query.ok() ? *query : SubjectiveQuery{};
}

PlannerContext Context(size_t num_entities = 100,
                       PlanForce force = PlanForce::kAuto) {
  PlannerContext context;
  context.num_entities = num_entities;
  context.force = force;
  return context;
}

// ------------------------------------------------------ AnalyzeQuery.

TEST(AnalyzeQueryTest, ClassifiesConditions) {
  const auto query = Parse(
      "select * from hotels where price_pn < 100 and \"clean room\" "
      "and city = 'london' limit 5");
  const auto logical = AnalyzeQuery(query);
  EXPECT_EQ(logical.objective_leaves, (std::vector<size_t>{0, 2}));
  EXPECT_EQ(logical.subjective_leaves, (std::vector<size_t>{1}));
}

TEST(AnalyzeQueryTest, HardObjectiveThroughNestedAnds) {
  // Both objective leaves sit on AND-only paths from the root, even
  // though one is inside a parenthesized group.
  const auto query = Parse(
      "select * from hotels where price_pn < 100 and "
      "(\"clean room\" and city = 'london')");
  const auto logical = AnalyzeQuery(query);
  EXPECT_EQ(logical.hard_objective, (std::vector<size_t>{0, 2}));
}

TEST(AnalyzeQueryTest, OrBlocksHardExtraction) {
  const auto query = Parse(
      "select * from hotels where (\"clean room\" or city = 'london') "
      "and price_pn < 100");
  const auto logical = AnalyzeQuery(query);
  // Only the price predicate is AND-reachable; the city predicate under
  // OR cannot force the WHERE to zero.
  EXPECT_EQ(logical.hard_objective, (std::vector<size_t>{2}));
}

TEST(AnalyzeQueryTest, NotBlocksHardExtraction) {
  const auto query =
      Parse("select * from hotels where not price_pn < 100");
  const auto logical = AnalyzeQuery(query);
  EXPECT_TRUE(logical.hard_objective.empty());
}

// All-subjective conjunctions, nested or flat, classify every leaf as
// subjective and push nothing down.
TEST(AnalyzeQueryTest, ConjunctiveLeavesOnlyShapes) {
  const auto conj = AnalyzeQuery(Parse(
      "select * from hotels where \"a\" and \"b\" and \"c\" limit 5"));
  EXPECT_EQ(conj.subjective_leaves, (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(conj.objective_leaves.empty());
  EXPECT_TRUE(conj.hard_objective.empty());

  const auto single =
      AnalyzeQuery(Parse("select * from hotels where \"a\""));
  EXPECT_EQ(single.subjective_leaves, (std::vector<size_t>{0}));
  EXPECT_TRUE(single.hard_objective.empty());

  const auto nested = AnalyzeQuery(
      Parse("select * from hotels where \"a\" and (\"b\" or \"c\")"));
  EXPECT_EQ(nested.subjective_leaves, (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(nested.hard_objective.empty());

  const auto no_where = AnalyzeQuery(Parse("select * from hotels limit 5"));
  EXPECT_TRUE(no_where.subjective_leaves.empty());
  EXPECT_TRUE(no_where.hard_objective.empty());
}

// -------------------------------------------------------- SelectPlan.

TEST(SelectPlanTest, DenseWhenNothingToPushDown) {
  const auto query =
      Parse("select * from hotels where \"a\" or \"b\" limit 5");
  const auto logical = AnalyzeQuery(query);
  const auto physical = SelectPlan(query, logical, Context());
  EXPECT_EQ(physical.kind, PlanKind::kDenseScan);
  EXPECT_FALSE(physical.filtered_eligible);
}

TEST(SelectPlanTest, FilteredWhenHardObjectivePresent) {
  const auto query = Parse(
      "select * from hotels where price_pn < 100 and \"a\" limit 5");
  const auto logical = AnalyzeQuery(query);
  const auto physical = SelectPlan(query, logical, Context());
  EXPECT_EQ(physical.kind, PlanKind::kFilteredScan);
  EXPECT_TRUE(physical.filtered_eligible);
}

TEST(SelectPlanTest, ForceDenseAlwaysWins) {
  const auto query = Parse(
      "select * from hotels where price_pn < 100 and \"a\" limit 5");
  const auto logical = AnalyzeQuery(query);
  const auto physical =
      SelectPlan(query, logical, Context(100, PlanForce::kDenseScan));
  EXPECT_EQ(physical.kind, PlanKind::kDenseScan);
  EXPECT_FALSE(physical.forced_fallback);
}

TEST(SelectPlanTest, IneligibleForcedPlanFallsBack) {
  // Filtered forced on a query without hard predicates: fall back to
  // the automatic choice, which is dense.
  const auto soft = Parse("select * from hotels where \"a\" or \"b\"");
  const auto soft_logical = AnalyzeQuery(soft);
  const auto soft_physical =
      SelectPlan(soft, soft_logical, Context(100, PlanForce::kFilteredScan));
  EXPECT_EQ(soft_physical.kind, PlanKind::kDenseScan);
  EXPECT_TRUE(soft_physical.forced_fallback);
}

// ----------------------------------------------------------- EXPLAIN.

TEST(ExplainPlanTest, RendersFilteredScan) {
  const auto query = Parse(
      "select * from hotels where city = 'london' and price_pn < 300 "
      "and \"friendly staff\" limit 40");
  const auto logical = AnalyzeQuery(query);
  const auto context = Context();
  const auto physical = SelectPlan(query, logical, context);
  const std::string text = ExplainPlan(query, logical, physical, context);
  EXPECT_NE(text.find("plan: filtered_scan"), std::string::npos) << text;
  EXPECT_NE(text.find("table: hotels  limit: 40"), std::string::npos);
  EXPECT_NE(text.find("city = 'london' [hard]"), std::string::npos);
  EXPECT_NE(text.find("price_pn < 300 [hard]"), std::string::npos);
  EXPECT_NE(text.find("subjective \"friendly staff\""), std::string::npos);
  EXPECT_NE(text.find("ObjectiveFilter(2 hard predicates)"),
            std::string::npos);
  EXPECT_NE(text.find("Rank(top 40, partial_sort)"), std::string::npos);
}

TEST(ExplainPlanTest, RendersDenseScanAndEmptyWhere) {
  const auto query = Parse("select * from hotels limit 5");
  const auto logical = AnalyzeQuery(query);
  const auto context = Context();
  const auto physical = SelectPlan(query, logical, context);
  const std::string text = ExplainPlan(query, logical, physical, context);
  EXPECT_NE(text.find("plan: dense_scan"), std::string::npos);
  EXPECT_NE(text.find("where: (none)"), std::string::npos);
  EXPECT_NE(text.find("conditions: (none)"), std::string::npos);
}

TEST(ExplainPlanTest, ParserSetsExplainFlag) {
  const auto query =
      Parse("explain select * from hotels where \"a\" limit 5");
  EXPECT_TRUE(query.explain);
  EXPECT_EQ(query.table, "hotels");
  const auto plain = Parse("select * from hotels where \"a\" limit 5");
  EXPECT_FALSE(plain.explain);
}

TEST(PlanKindNameTest, StableNames) {
  EXPECT_STREQ(PlanKindName(PlanKind::kDenseScan), "dense_scan");
  EXPECT_STREQ(PlanKindName(PlanKind::kFilteredScan), "filtered_scan");
}

}  // namespace
}  // namespace opinedb::core
