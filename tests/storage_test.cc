#include <gtest/gtest.h>

#include "storage/table.h"
#include "storage/value.h"

namespace opinedb::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(int64_t{5}).type(), ValueType::kInt);
  EXPECT_EQ(Value(2.5).type(), ValueType::kDouble);
  EXPECT_EQ(Value(std::string("x")).type(), ValueType::kString);
  EXPECT_EQ(Value(int64_t{5}).AsInt(), 5);
  EXPECT_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value(std::string("x")).AsString(), "x");
}

TEST(ValueTest, NumericComparisonAcrossTypes) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(int64_t{3})), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value(std::string("a")).Compare(Value(std::string("b"))), 0);
  EXPECT_EQ(Value(std::string("a")).Compare(Value(std::string("a"))), 0);
}

TEST(ValueTest, NullComparesLowest) {
  EXPECT_EQ(Value().Compare(Value()), 0);
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_GT(Value(int64_t{0}).Compare(Value()), 0);
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(std::string("hi")).ToString(), "hi");
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = Table("hotels", {{"name", ValueType::kString},
                              {"city", ValueType::kString},
                              {"price", ValueType::kInt}});
    ASSERT_TRUE(table_
                    .Append({Value(std::string("a")),
                             Value(std::string("london")),
                             Value(int64_t{150})})
                    .ok());
    ASSERT_TRUE(table_
                    .Append({Value(std::string("b")),
                             Value(std::string("amsterdam")),
                             Value(int64_t{90})})
                    .ok());
  }

  Table table_;
};

TEST_F(TableTest, BasicShape) {
  EXPECT_EQ(table_.name(), "hotels");
  EXPECT_EQ(table_.num_rows(), 2u);
  EXPECT_EQ(table_.num_columns(), 3u);
  EXPECT_EQ(table_.ColumnIndex("city"), 1);
  EXPECT_EQ(table_.ColumnIndex("missing"), -1);
  EXPECT_EQ(table_.at(1, 2).AsInt(), 90);
}

TEST_F(TableTest, AppendChecksArity) {
  EXPECT_FALSE(table_.Append({Value(std::string("c"))}).ok());
}

TEST_F(TableTest, AppendChecksTypes) {
  auto status = table_.Append({Value(std::string("c")),
                               Value(std::string("london")),
                               Value(std::string("notanint"))});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(TableTest, NullsAlwaysPassTypeCheck) {
  EXPECT_TRUE(
      table_.Append({Value(std::string("c")), Value(), Value()}).ok());
}

TEST_F(TableTest, PredicateEvaluation) {
  ColumnPredicate cheap{"price", CompareOp::kLt, Value(int64_t{100})};
  auto row0 = cheap.Evaluate(table_, 0);
  auto row1 = cheap.Evaluate(table_, 1);
  ASSERT_TRUE(row0.ok());
  ASSERT_TRUE(row1.ok());
  EXPECT_FALSE(*row0);
  EXPECT_TRUE(*row1);
}

TEST_F(TableTest, PredicateOnStrings) {
  ColumnPredicate in_london{"city", CompareOp::kEq,
                            Value(std::string("london"))};
  EXPECT_TRUE(*in_london.Evaluate(table_, 0));
  EXPECT_FALSE(*in_london.Evaluate(table_, 1));
}

TEST_F(TableTest, PredicateUnknownColumnErrors) {
  ColumnPredicate bad{"nope", CompareOp::kEq, Value(int64_t{1})};
  EXPECT_EQ(bad.Evaluate(table_, 0).status().code(), StatusCode::kNotFound);
}

TEST_F(TableTest, PredicateOnNullIsFalse) {
  ASSERT_TRUE(
      table_.Append({Value(std::string("c")), Value(), Value()}).ok());
  ColumnPredicate any_city{"city", CompareOp::kNe,
                           Value(std::string("london"))};
  EXPECT_FALSE(*any_city.Evaluate(table_, 2));
}

TEST_F(TableTest, BindResolvesColumnOncePerPredicate) {
  // Regression for the per-entity column re-resolution bug: a predicate
  // bound once must agree with per-row Evaluate on every row.
  ColumnPredicate cheap{"price", CompareOp::kLt, Value(int64_t{100})};
  auto bound = cheap.Bind(table_);
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->column(), 2u);
  for (size_t row = 0; row < table_.num_rows(); ++row) {
    EXPECT_EQ(bound->Matches(table_, row), *cheap.Evaluate(table_, row))
        << "row " << row;
  }
}

TEST_F(TableTest, BindUnknownColumnErrors) {
  ColumnPredicate bad{"nope", CompareOp::kEq, Value(int64_t{1})};
  EXPECT_EQ(bad.Bind(table_).status().code(), StatusCode::kNotFound);
}

TEST_F(TableTest, BoundPredicateNullNeverMatches) {
  ASSERT_TRUE(
      table_.Append({Value(std::string("c")), Value(), Value()}).ok());
  ColumnPredicate any_city{"city", CompareOp::kNe,
                           Value(std::string("london"))};
  auto bound = any_city.Bind(table_);
  ASSERT_TRUE(bound.ok());
  EXPECT_FALSE(bound->Matches(table_, 2));
}

TEST(CompareOpTest, SymbolRoundTripsThroughParse) {
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    auto parsed = ParseCompareOp(CompareOpSymbol(op));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, op);
  }
}

TEST(CompareOpTest, AllOperatorsEvaluate) {
  Table t("t", {{"x", ValueType::kInt}});
  ASSERT_TRUE(t.Append({Value(int64_t{5})}).ok());
  struct Case {
    CompareOp op;
    int64_t literal;
    bool expected;
  } cases[] = {
      {CompareOp::kEq, 5, true},  {CompareOp::kNe, 5, false},
      {CompareOp::kLt, 6, true},  {CompareOp::kLe, 5, true},
      {CompareOp::kGt, 5, false}, {CompareOp::kGe, 5, true},
  };
  for (const auto& c : cases) {
    ColumnPredicate p{"x", c.op, Value(c.literal)};
    EXPECT_EQ(*p.Evaluate(t, 0), c.expected);
  }
}

TEST(ParseCompareOpTest, AllSpellings) {
  EXPECT_TRUE(ParseCompareOp("=").ok());
  EXPECT_TRUE(ParseCompareOp("==").ok());
  EXPECT_TRUE(ParseCompareOp("!=").ok());
  EXPECT_TRUE(ParseCompareOp("<>").ok());
  EXPECT_TRUE(ParseCompareOp("<").ok());
  EXPECT_TRUE(ParseCompareOp("<=").ok());
  EXPECT_TRUE(ParseCompareOp(">").ok());
  EXPECT_TRUE(ParseCompareOp(">=").ok());
  EXPECT_FALSE(ParseCompareOp("~").ok());
}

}  // namespace
}  // namespace opinedb::storage
