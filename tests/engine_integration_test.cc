#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "core/columnar.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"

namespace opinedb {
namespace {

/// Builds one small hotel domain once and shares it across tests (the
/// build trains the extractor, embeddings, classifier and membership
/// model end-to-end).
class EngineIntegrationTest : public ::testing::Test {
 protected:
  static eval::BuildOptions Options() {
    eval::BuildOptions options;
    options.generator.num_entities = 40;
    options.generator.min_reviews_per_entity = 12;
    options.generator.max_reviews_per_entity = 25;
    options.generator.seed = 7;
    options.extractor_training_sentences = 500;
    options.predicate_pool_size = 80;
    options.membership_training_tuples = 600;
    return options;
  }

  static void SetUpTestSuite() {
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), Options()));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  const core::OpineDb& db() const { return *artifacts_->db; }
  const datagen::SyntheticDomain& domain() const {
    return artifacts_->domain;
  }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* EngineIntegrationTest::artifacts_ = nullptr;

TEST_F(EngineIntegrationTest, BuildPopulatesEverything) {
  EXPECT_EQ(db().corpus().num_entities(), 40u);
  EXPECT_GT(db().corpus().num_reviews(), 400u);
  EXPECT_GT(db().embeddings().size(), 50u);
  EXPECT_GT(db().tables().extractions.size(), 1000u);
  EXPECT_TRUE(db().has_membership_model());
  // Linguistic domains were discovered from the reviews.
  size_t with_domain = 0;
  for (const auto& attribute : db().schema().attributes) {
    if (!attribute.linguistic_domain.empty()) ++with_domain;
  }
  EXPECT_GE(with_domain, db().schema().attributes.size() - 1);
}

TEST_F(EngineIntegrationTest, SummariesReflectLatentQuality) {
  // For cleanliness, the cleanest entity's summary must have more mass on
  // the top marker than the dirtiest entity's.
  const int attr = db().schema().AttributeIndex("room_cleanliness");
  ASSERT_GE(attr, 0);
  int cleanest = 0;
  int dirtiest = 0;
  for (size_t e = 0; e < domain().entities.size(); ++e) {
    if (domain().entities[e].quality[attr] >
        domain().entities[cleanest].quality[attr]) {
      cleanest = static_cast<int>(e);
    }
    if (domain().entities[e].quality[attr] <
        domain().entities[dirtiest].quality[attr]) {
      dirtiest = static_cast<int>(e);
    }
  }
  const core::ColumnarSummaryStore& store = *db().columnar_store();
  ASSERT_GT(store.total(attr, cleanest), 0.0);
  ASSERT_GT(store.total(attr, dirtiest), 0.0);
  const double clean_top =
      store.count(attr, cleanest, 0) / store.total(attr, cleanest);
  const double dirty_top =
      store.count(attr, dirtiest, 0) / store.total(attr, dirtiest);
  EXPECT_GT(clean_top, dirty_top);
}

TEST_F(EngineIntegrationTest, ExecuteRanksCleanHotelsFirst) {
  auto result = db().Execute(
      "select * from hotels where \"clean room\" limit 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->results.size(), 10u);
  const int attr = db().schema().AttributeIndex("room_cleanliness");
  // Mean latent cleanliness of the top 10 must beat the corpus mean.
  double top_mean = 0.0;
  for (const auto& r : result->results) {
    top_mean += domain().entities[r.entity].quality[attr];
  }
  top_mean /= 10.0;
  double all_mean = 0.0;
  for (const auto& entity : domain().entities) {
    all_mean += entity.quality[attr];
  }
  all_mean /= static_cast<double>(domain().entities.size());
  EXPECT_GT(top_mean, all_mean + 0.1);
}

TEST_F(EngineIntegrationTest, ObjectivePredicateFiltersHard) {
  auto result = db().Execute(
      "select * from hotels where city = 'london' and price_pn < 300 "
      "and \"friendly staff\" limit 40");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const auto& r : result->results) {
    EXPECT_EQ(domain().entities[r.entity].city, "london");
    EXPECT_LT(domain().entities[r.entity].price, 300);
  }
}

TEST_F(EngineIntegrationTest, ScoresAreSortedAndInRange) {
  auto result = db().Execute(
      "select * from hotels where \"quiet street\" and \"comfortable bed\" "
      "limit 20");
  ASSERT_TRUE(result.ok());
  for (size_t i = 0; i < result->results.size(); ++i) {
    EXPECT_GE(result->results[i].score, 0.0);
    EXPECT_LE(result->results[i].score, 1.0);
    if (i > 0) {
      EXPECT_LE(result->results[i].score, result->results[i - 1].score);
    }
  }
}

TEST_F(EngineIntegrationTest, InterpreterMapsDirectPredicates) {
  const auto interpretation =
      db().interpreter().InterpretWord2VecOnly("clean room");
  ASSERT_FALSE(interpretation.atoms.empty());
  EXPECT_EQ(interpretation.atoms[0].attribute,
            db().schema().AttributeIndex("room_cleanliness"));
}

TEST_F(EngineIntegrationTest, CorrelatedConceptUsesCooccurrence) {
  const auto interpretation =
      db().interpreter().InterpretCooccurrenceOnly("romantic getaway");
  ASSERT_FALSE(interpretation.atoms.empty());
  // The concept triggers on staff_service and bathroom_style quality; the
  // mined interpretation must hit at least one trigger attribute.
  const int service = db().schema().AttributeIndex("staff_service");
  const int style = db().schema().AttributeIndex("bathroom_style");
  bool hit = false;
  for (const auto& atom : interpretation.atoms) {
    if (atom.attribute == service || atom.attribute == style) hit = true;
  }
  EXPECT_TRUE(hit);
}

TEST_F(EngineIntegrationTest, UnknownConceptFallsBackToText) {
  const auto interpretation =
      db().interpreter().Interpret("good for motorcyclists");
  EXPECT_EQ(interpretation.method, core::InterpretMethod::kTextFallback);
}

TEST_F(EngineIntegrationTest, TextFallbackDegreeInRange) {
  for (text::EntityId e = 0; e < 5; ++e) {
    const double d = db().TextFallbackDegree("romantic getaway", e);
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST_F(EngineIntegrationTest, ExecuteRejectsUnknownTable) {
  auto result = db().Execute("select * from nope where \"clean\"");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineIntegrationTest, ExecuteRejectsUnknownColumn) {
  auto result = db().Execute("select * from hotels where wombats > 3");
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineIntegrationTest, PredicateDegreeCorrelatesWithQuality) {
  const int attr = db().schema().AttributeIndex("breakfast_food");
  std::vector<std::pair<double, double>> pairs;  // (quality, degree)
  for (size_t e = 0; e < domain().entities.size(); ++e) {
    auto degree = db().PredicateDegreeOfTruth(
        "delicious breakfast", static_cast<text::EntityId>(e));
    ASSERT_TRUE(degree.ok()) << degree.status().ToString();
    pairs.emplace_back(domain().entities[e].quality[attr], *degree);
  }
  // Spearman-ish check: the top-quality third must have a higher average
  // degree than the bottom third.
  std::sort(pairs.begin(), pairs.end());
  const size_t third = pairs.size() / 3;
  double low = 0.0;
  double high = 0.0;
  for (size_t i = 0; i < third; ++i) low += pairs[i].second;
  for (size_t i = pairs.size() - third; i < pairs.size(); ++i) {
    high += pairs[i].second;
  }
  EXPECT_GT(high / third, low / third);
}

TEST_F(EngineIntegrationTest, ReaggregationWithReviewerFilterShrinksMass) {
  // Count total summary mass, then require prolific reviewers only.
  auto* db_mutable = artifacts_->db.get();
  const int attr = 0;
  double before = 0.0;
  for (size_t e = 0; e < domain().entities.size(); ++e) {
    before += db().columnar_store()->total(attr, e);
  }
  core::AggregationOptions filtered = db().options().aggregation;
  filtered.min_reviewer_reviews = 3;
  db_mutable->Reaggregate(filtered);
  double after = 0.0;
  for (size_t e = 0; e < domain().entities.size(); ++e) {
    after += db().columnar_store()->total(attr, e);
  }
  EXPECT_LT(after, before);
  EXPECT_GT(after, 0.0);
  // Restore for other tests.
  core::AggregationOptions unfiltered = db().options().aggregation;
  unfiltered.min_reviewer_reviews.reset();
  db_mutable->Reaggregate(unfiltered);
}

TEST_F(EngineIntegrationTest, LimitIsRespected) {
  auto result =
      db().Execute("select * from hotels where \"clean room\" limit 3");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->results.size(), 3u);
}

TEST_F(EngineIntegrationTest, LimitZeroReturnsNoRows) {
  auto result =
      db().Execute("select * from hotels where \"clean room\" limit 0");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->results.empty());
  // The query still ran: interpretations and stats are populated.
  EXPECT_EQ(result->interpretations.size(), 1u);
  EXPECT_EQ(result->stats.entities_scored, db().corpus().num_entities());
}

TEST_F(EngineIntegrationTest, LimitBeyondEntityCountReturnsAllPositives) {
  auto capped =
      db().Execute("select * from hotels where \"clean room\" limit 40");
  auto excess =
      db().Execute("select * from hotels where \"clean room\" limit 1000");
  ASSERT_TRUE(capped.ok());
  ASSERT_TRUE(excess.ok());
  ASSERT_EQ(excess->results.size(), capped->results.size());
  EXPECT_LE(excess->results.size(), db().corpus().num_entities());
  for (size_t i = 0; i < excess->results.size(); ++i) {
    EXPECT_EQ(excess->results[i].entity, capped->results[i].entity);
    EXPECT_EQ(excess->results[i].score, capped->results[i].score);
  }
}

TEST_F(EngineIntegrationTest, EmptyWhereReturnsEntitiesInIdOrder) {
  auto result = db().Execute("select * from hotels limit 1000");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), db().corpus().num_entities());
  for (size_t i = 0; i < result->results.size(); ++i) {
    // No WHERE: every entity scores exactly 1.0, so the score-desc /
    // entity-asc total order degenerates to entity-id order.
    EXPECT_EQ(result->results[i].entity, static_cast<text::EntityId>(i));
    EXPECT_EQ(result->results[i].score, 1.0);
  }
}

TEST_F(EngineIntegrationTest, ObjectivePushdownSkipsSubjectiveScoring) {
  // The filtered scan must only score survivors of the hard objective
  // predicates — the whole point of the pushdown.
  auto result = db().Execute(
      "select * from hotels where city = 'london' and price_pn < 300 "
      "and \"friendly staff\" limit 40");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan, core::PlanKind::kFilteredScan);
  size_t survivors = 0;
  for (const auto& entity : domain().entities) {
    if (entity.city == "london" && entity.price < 300) ++survivors;
  }
  ASSERT_LT(survivors, domain().entities.size());
  EXPECT_EQ(result->stats.entities_scored, survivors);
}

TEST_F(EngineIntegrationTest, ExplainPlansWithoutExecuting) {
  auto result = db().Execute(
      "explain select * from hotels where city = 'london' and "
      "\"friendly staff\" limit 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->results.empty());
  EXPECT_TRUE(result->interpretations.empty());
  EXPECT_EQ(result->plan, core::PlanKind::kFilteredScan);
  EXPECT_NE(result->plan_text.find("plan: filtered_scan"),
            std::string::npos)
      << result->plan_text;
  EXPECT_NE(result->plan_text.find("ObjectiveFilter(1 hard predicates)"),
            std::string::npos);
  // EXPLAIN never scores anything.
  EXPECT_EQ(result->stats.entities_scored, 0u);
}

TEST_F(EngineIntegrationTest, PlainQueriesLeavePlanTextEmpty) {
  auto result =
      db().Execute("select * from hotels where \"clean room\" limit 3");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->plan_text.empty());
  EXPECT_EQ(result->plan, core::PlanKind::kDenseScan);
}

TEST_F(EngineIntegrationTest, DisjunctionNeverBelowBestBranch) {
  // p OR q under the product variant: 1-(1-p)(1-q) >= max(p, q).
  auto both = db().Execute(
      "select * from hotels where (\"clean room\" or \"lively bar\") "
      "limit 40");
  auto clean = db().Execute(
      "select * from hotels where \"clean room\" limit 40");
  ASSERT_TRUE(both.ok());
  ASSERT_TRUE(clean.ok());
  // Compare per entity.
  std::vector<double> clean_score(domain().entities.size(), 0.0);
  for (const auto& r : clean->results) clean_score[r.entity] = r.score;
  for (const auto& r : both->results) {
    EXPECT_GE(r.score + 1e-9, clean_score[r.entity]);
  }
}

TEST_F(EngineIntegrationTest, NegatedPredicateInvertsPreference) {
  // NOT "clean room" should prefer low-cleanliness entities.
  auto result = db().Execute(
      "select * from hotels where not \"clean room\" limit 10");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), 10u);
  const int attr = db().schema().AttributeIndex("room_cleanliness");
  double top_mean = 0.0;
  for (const auto& r : result->results) {
    top_mean += domain().entities[r.entity].quality[attr];
  }
  top_mean /= 10.0;
  double all_mean = 0.0;
  for (const auto& entity : domain().entities) {
    all_mean += entity.quality[attr];
  }
  all_mean /= static_cast<double>(domain().entities.size());
  EXPECT_LT(top_mean, all_mean);
}

TEST_F(EngineIntegrationTest, GodelVariantStillRanksSanely) {
  // The variant is fixed at Build: the same database built with Gödel
  // connectives.
  eval::BuildOptions options = Options();
  options.engine.variant = fuzzy::Variant::kGodel;
  const eval::DomainArtifacts godel =
      eval::BuildArtifacts(datagen::HotelDomain(), options);
  auto result = godel.db->Execute(
      "select * from hotels where \"clean room\" and \"friendly staff\" "
      "limit 10");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), 10u);
  for (size_t i = 1; i < result->results.size(); ++i) {
    EXPECT_LE(result->results[i].score, result->results[i - 1].score);
  }
}

TEST_F(EngineIntegrationTest, ResultsCarryInterpretations) {
  auto result = db().Execute(
      "select * from hotels where price_pn > 0 and \"clean room\" "
      "limit 5");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->interpretations.size(), 2u);
  // The subjective condition's interpretation has atoms.
  EXPECT_FALSE(result->interpretations[1].atoms.empty());
}

TEST_F(EngineIntegrationTest, NoMarkerModeAgreesOnTopEntityQuality) {
  // The Table 7 ablation path: the same database built with no-marker
  // features still surfaces high-cleanliness entities for "clean room".
  eval::BuildOptions options = Options();
  options.engine.use_markers = false;
  const eval::DomainArtifacts no_markers =
      eval::BuildArtifacts(datagen::HotelDomain(), options);
  auto tuples = eval::MakeMembershipTuples(*no_markers.db, no_markers.domain,
                                           no_markers.pool, 500, 5);
  ASSERT_TRUE(no_markers.db->TrainMembership(tuples, 6).ok());
  auto result = no_markers.db->Execute(
      "select * from hotels where \"clean room\" limit 10");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->results.size(), 10u);
  const int attr = db().schema().AttributeIndex("room_cleanliness");
  double top_mean = 0.0;
  for (const auto& r : result->results) {
    top_mean += domain().entities[r.entity].quality[attr];
  }
  top_mean /= 10.0;
  double all_mean = 0.0;
  for (const auto& entity : domain().entities) {
    all_mean += entity.quality[attr];
  }
  all_mean /= static_cast<double>(domain().entities.size());
  EXPECT_GT(top_mean, all_mean);
}

}  // namespace
}  // namespace opinedb
