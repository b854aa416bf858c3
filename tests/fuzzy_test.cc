#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fuzzy/logic.h"

namespace opinedb::fuzzy {
namespace {

TEST(FuzzyLogicTest, ProductVariantDefinitions) {
  EXPECT_DOUBLE_EQ(And(Variant::kProduct, 0.5, 0.4), 0.2);
  EXPECT_DOUBLE_EQ(Or(Variant::kProduct, 0.5, 0.4), 1.0 - 0.5 * 0.6);
  EXPECT_DOUBLE_EQ(Not(0.3), 0.7);
}

TEST(FuzzyLogicTest, GodelVariantDefinitions) {
  EXPECT_DOUBLE_EQ(And(Variant::kGodel, 0.5, 0.4), 0.4);
  EXPECT_DOUBLE_EQ(Or(Variant::kGodel, 0.5, 0.4), 0.5);
}

// T-norm laws, checked over a random sample (property-style).
class TNormLawTest : public ::testing::TestWithParam<Variant> {};

TEST_P(TNormLawTest, IdentityAndAnnihilator) {
  const Variant variant = GetParam();
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform();
    EXPECT_NEAR(And(variant, x, 1.0), x, 1e-12);
    EXPECT_NEAR(And(variant, x, 0.0), 0.0, 1e-12);
    EXPECT_NEAR(Or(variant, x, 0.0), x, 1e-12);
    EXPECT_NEAR(Or(variant, x, 1.0), 1.0, 1e-12);
  }
}

TEST_P(TNormLawTest, Commutativity) {
  const Variant variant = GetParam();
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform();
    const double y = rng.Uniform();
    EXPECT_NEAR(And(variant, x, y), And(variant, y, x), 1e-12);
    EXPECT_NEAR(Or(variant, x, y), Or(variant, y, x), 1e-12);
  }
}

TEST_P(TNormLawTest, Monotonicity) {
  const Variant variant = GetParam();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    double x1 = rng.Uniform();
    double x2 = rng.Uniform();
    if (x1 > x2) std::swap(x1, x2);
    const double y = rng.Uniform();
    EXPECT_LE(And(variant, x1, y), And(variant, x2, y) + 1e-12);
    EXPECT_LE(Or(variant, x1, y), Or(variant, x2, y) + 1e-12);
  }
}

TEST_P(TNormLawTest, DeMorgan) {
  const Variant variant = GetParam();
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform();
    const double y = rng.Uniform();
    EXPECT_NEAR(Not(And(variant, x, y)), Or(variant, Not(x), Not(y)), 1e-12);
  }
}

TEST_P(TNormLawTest, AndBoundedByOperands) {
  const Variant variant = GetParam();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.Uniform();
    const double y = rng.Uniform();
    const double a = And(variant, x, y);
    EXPECT_LE(a, std::min(x, y) + 1e-12);
    const double o = Or(variant, x, y);
    EXPECT_GE(o, std::max(x, y) - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TNormLawTest,
                         ::testing::Values(Variant::kGodel,
                                           Variant::kProduct));

TEST(ExprTest, LeafEvaluation) {
  auto expr = Expr::Leaf(2);
  EXPECT_DOUBLE_EQ(
      expr->Evaluate(Variant::kProduct, [](size_t i) { return i * 0.1; }),
      0.2);
  EXPECT_EQ(expr->NumLeaves(), 3u);
}

TEST(ExprTest, AndOrNotTree) {
  // (p0 AND (p1 OR NOT p2))
  auto expr = Expr::MakeAnd(
      {Expr::Leaf(0),
       Expr::MakeOr({Expr::Leaf(1), Expr::MakeNot(Expr::Leaf(2))})});
  const std::vector<double> truths = {0.8, 0.3, 0.9};
  const double inner_or = 1.0 - (1.0 - 0.3) * (1.0 - 0.1);
  EXPECT_NEAR(expr->Evaluate(Variant::kProduct,
                             [&](size_t i) { return truths[i]; }),
              0.8 * inner_or, 1e-12);
  EXPECT_EQ(expr->NumLeaves(), 3u);
}

TEST(ExprTest, SingleChildCollapses) {
  auto expr = Expr::MakeAnd({Expr::Leaf(0)});
  EXPECT_EQ(expr->kind(), Expr::Kind::kLeaf);
}

TEST(ExprTest, ToStringIsReadable) {
  auto expr = Expr::MakeOr({Expr::Leaf(0), Expr::Leaf(1)});
  EXPECT_EQ(expr->ToString(), "(p0 OR p1)");
}

}  // namespace
}  // namespace opinedb::fuzzy
