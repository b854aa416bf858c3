#include <gtest/gtest.h>

#include "core/columnar.h"
#include "core/marker_induction.h"
#include "core/query.h"
#include "core/schema.h"

namespace opinedb::core {
namespace {

// ---------------------------------- Marker summaries (the store fold).

MarkerSummaryType CleanlinessType() {
  MarkerSummaryType type;
  type.name = "room_cleanliness";
  type.markers = {"very clean", "average", "dirty", "very dirty"};
  type.kind = SummaryKind::kLinearlyOrdered;
  return type;
}

TEST(MarkerSummaryTypeTest, MarkerIndex) {
  auto type = CleanlinessType();
  EXPECT_EQ(type.MarkerIndex("average"), 1);
  EXPECT_EQ(type.MarkerIndex("missing"), -1);
  EXPECT_EQ(type.num_markers(), 4u);
}

/// A store over one attribute of type CleanlinessType(): the marker
/// summaries of `entities` entities with `dim`-wide centroids.
ColumnarSummaryStore CleanlinessStore(size_t entities, size_t dim) {
  SubjectiveSchema schema;
  SubjectiveAttribute attribute;
  attribute.name = "room_cleanliness";
  attribute.summary_type = CleanlinessType();
  schema.attributes.push_back(attribute);
  return ColumnarSummaryStore(schema, entities, dim);
}

TEST(MarkerSummaryTest, AddPhraseOneHot) {
  // Entity 1 of 2, so the fold must land at the entity's own offsets.
  ColumnarSummaryStore store = CleanlinessStore(2, 2);
  store.AddPhrase(0, 1, {1.0, 0.0, 0.0, 0.0}, 0.8, {1.0f, 0.0f}, 7);
  store.AddPhrase(0, 1, {1.0, 0.0, 0.0, 0.0}, 0.6, {0.0f, 1.0f}, 8);
  store.AddPhrase(0, 1, {0.0, 0.0, 1.0, 0.0}, -0.7, {0.5f, 0.5f}, 9);
  store.RefreshEntity(0, 1);
  EXPECT_DOUBLE_EQ(store.count(0, 1, 0), 2.0);
  EXPECT_DOUBLE_EQ(store.count(0, 1, 2), 1.0);
  EXPECT_DOUBLE_EQ(store.total(0, 1), 3.0);
  EXPECT_DOUBLE_EQ(store.total(0, 0), 0.0);
  const AttributeColumns& cols = store.attribute(0);
  const size_t cell = 1 * 4 + 0;
  EXPECT_NEAR(cols.mean_sentiment[cell], 0.7, 1e-12);
  EXPECT_FLOAT_EQ(cols.centroid[cell * 2], 0.5f);
  EXPECT_EQ(cols.centroid_norm[cell],
            embedding::Norm(embedding::Vec{cols.centroid[cell * 2],
                                           cols.centroid[cell * 2 + 1]}));
  EXPECT_EQ(store.Provenance(0, 1, 0), (std::vector<text::ReviewId>{7, 8}));
  EXPECT_EQ(store.Provenance(0, 1, 2), std::vector<text::ReviewId>{9});
  EXPECT_TRUE(store.Provenance(0, 0, 0).empty());
}

TEST(MarkerSummaryTest, FractionalContribution) {
  ColumnarSummaryStore store = CleanlinessStore(1, 1);
  store.AddPhrase(0, 0, {0.5, 0.5, 0.0, 0.0}, 0.4, {1.0f}, 1);
  store.RefreshEntity(0, 0);
  EXPECT_DOUBLE_EQ(store.count(0, 0, 0), 0.5);
  EXPECT_DOUBLE_EQ(store.count(0, 0, 1), 0.5);
  EXPECT_DOUBLE_EQ(store.total(0, 0), 1.0);
  // One log entry per marker with positive weight.
  EXPECT_EQ(store.attribute(0).provenance.size(), 2u);
  EXPECT_EQ(store.Provenance(0, 0, 1), std::vector<text::ReviewId>{1});
}

TEST(MarkerSummaryTest, UnmatchedTracked) {
  ColumnarSummaryStore store = CleanlinessStore(1, 1);
  store.AddUnmatched(0, 0);
  store.AddUnmatched(0, 0);
  store.RefreshEntity(0, 0);
  EXPECT_DOUBLE_EQ(store.attribute(0).unmatched[0], 2.0);
  EXPECT_DOUBLE_EQ(store.total(0, 0), 0.0);
  EXPECT_TRUE(store.attribute(0).provenance.empty());
}

TEST(MarkerSummaryTest, ToStringListsMarkers) {
  ColumnarSummaryStore store = CleanlinessStore(1, 1);
  store.AddPhrase(0, 0, {1, 0, 0, 0}, 0.5, {1.0f}, 0);
  EXPECT_EQ(store.Histogram(CleanlinessType(), 0, 0),
            "[very clean: 1.0, average: 0.0, dirty: 0.0, very dirty: 0.0]");
}

// --------------------------------------------------------------- Schema.

TEST(SchemaTest, AttributeIndex) {
  SubjectiveSchema schema;
  schema.attributes.resize(2);
  schema.attributes[0].name = "a";
  schema.attributes[1].name = "b";
  EXPECT_EQ(schema.AttributeIndex("b"), 1);
  EXPECT_EQ(schema.AttributeIndex("c"), -1);
}

// ----------------------------------------------------- Marker induction.

TEST(MarkerInductionTest, LinearMarkersFollowSentimentOrder) {
  sentiment::Analyzer analyzer;
  std::vector<std::string> domain = {
      "spotless", "very clean", "clean", "tidy",  "average",
      "dusty",    "dirty",      "filthy", "grimy", "stained"};
  auto type = InduceLinearMarkers("cleanliness", domain, 4, analyzer);
  ASSERT_EQ(type.markers.size(), 4u);
  EXPECT_EQ(type.kind, SummaryKind::kLinearlyOrdered);
  // Sentiment must decrease along the scale.
  for (size_t i = 0; i + 1 < type.markers.size(); ++i) {
    EXPECT_GE(analyzer.ScorePhrase(type.markers[i]),
              analyzer.ScorePhrase(type.markers[i + 1]));
  }
}

TEST(MarkerInductionTest, LinearMarkersAreDistinct) {
  sentiment::Analyzer analyzer;
  std::vector<std::string> domain = {"clean", "clean", "clean", "dirty"};
  auto type = InduceLinearMarkers("x", domain, 3, analyzer);
  for (size_t i = 0; i < type.markers.size(); ++i) {
    for (size_t j = i + 1; j < type.markers.size(); ++j) {
      EXPECT_NE(type.markers[i], type.markers[j]);
    }
  }
}

TEST(MarkerInductionTest, EmptyDomainYieldsNoMarkers) {
  sentiment::Analyzer analyzer;
  auto type = InduceLinearMarkers("x", {}, 4, analyzer);
  EXPECT_TRUE(type.markers.empty());
}

// ------------------------------------------------------------ SQL parse.

TEST(ParseSqlTest, SimpleSubjectiveQuery) {
  auto result = ParseSubjectiveSql(
      "select * from Hotels where price_pn < 150 and "
      "\"has really clean rooms\" and \"is a romantic getaway\"");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& query = *result;
  EXPECT_EQ(query.table, "Hotels");
  ASSERT_EQ(query.conditions.size(), 3u);
  EXPECT_EQ(query.conditions[0].kind, Condition::Kind::kObjective);
  EXPECT_EQ(query.conditions[0].objective.column, "price_pn");
  EXPECT_EQ(query.conditions[1].kind, Condition::Kind::kSubjective);
  EXPECT_EQ(query.conditions[1].subjective, "has really clean rooms");
  ASSERT_NE(query.where, nullptr);
  EXPECT_EQ(query.where->kind(), fuzzy::Expr::Kind::kAnd);
}

TEST(ParseSqlTest, StringLiteralWithSingleQuotes) {
  auto result = ParseSubjectiveSql(
      "select * from Hotels where city = 'london'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->conditions[0].objective.literal.AsString(), "london");
}

TEST(ParseSqlTest, OrAndParensAndNot) {
  auto result = ParseSubjectiveSql(
      "select * from T where (\"a\" or \"b\") and not x >= 2.5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->conditions.size(), 3u);
  EXPECT_EQ(result->conditions[2].objective.literal.AsDouble(), 2.5);
  EXPECT_EQ(result->where->ToString(), "((p0 OR p1) AND NOT p2)");
}

TEST(ParseSqlTest, LimitClause) {
  auto result = ParseSubjectiveSql("select * from T where \"x\" limit 25");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->limit, 25u);
}

TEST(ParseSqlTest, DefaultLimitIsTen) {
  auto result = ParseSubjectiveSql("select * from T");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->limit, 10u);
  EXPECT_EQ(result->where, nullptr);
}

TEST(ParseSqlTest, CaseInsensitiveKeywords) {
  auto result =
      ParseSubjectiveSql("SELECT * FROM Hotels WHERE \"clean\" LIMIT 5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table, "Hotels");
}

TEST(ParseSqlTest, NegativeAndFloatLiterals) {
  auto result = ParseSubjectiveSql("select * from T where x > -3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->conditions[0].objective.literal.AsInt(), -3);
}

TEST(ParseSqlTest, Errors) {
  EXPECT_FALSE(ParseSubjectiveSql("").ok());
  EXPECT_FALSE(ParseSubjectiveSql("select foo from T").ok());
  EXPECT_FALSE(ParseSubjectiveSql("select * from").ok());
  EXPECT_FALSE(ParseSubjectiveSql("select * from T where").ok());
  EXPECT_FALSE(ParseSubjectiveSql("select * from T where x <").ok());
  EXPECT_FALSE(
      ParseSubjectiveSql("select * from T where \"unterminated").ok());
  EXPECT_FALSE(ParseSubjectiveSql("select * from T where (\"a\"").ok());
  EXPECT_FALSE(ParseSubjectiveSql("select * from T trailing").ok());
}

TEST(ParseSqlTest, TrailingSemicolonOk) {
  EXPECT_TRUE(ParseSubjectiveSql("select * from T;").ok());
}

}  // namespace
}  // namespace opinedb::core
