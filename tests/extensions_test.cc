// Tests for the extension features: precomputed degree lists,
// user-profile personalization, unexpectedness mining, and
// serialization round-trips.
#include <sstream>

#include <gtest/gtest.h>

#include "core/personalize.h"
#include "core/serialize.h"
#include "datagen/domain_spec.h"
#include "embedding/io.h"
#include "eval/experiment.h"
#include "oracle/row_oracle.h"

namespace opinedb {
namespace {

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 30;
    options.generator.min_reviews_per_entity = 10;
    options.generator.max_reviews_per_entity = 20;
    options.generator.seed = 21;
    options.seed = 21;
    options.extractor_training_sentences = 400;
    options.predicate_pool_size = 60;
    options.membership_training_tuples = 500;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  core::OpineDb& db() const { return *artifacts_->db; }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* ExtensionsTest::artifacts_ = nullptr;

// --------------------------------------------- Precomputed degrees.
// (The DegreeCache* names are kept from the lazily filled per-predicate
// cache these tests first covered; they now pin the engine's
// precomputed lists.)

TEST_F(ExtensionsTest, DegreeCacheMatchesDirectEvaluation) {
  ASSERT_EQ(db().PrecomputeDegrees({"clean room"}), 1u);
  const std::vector<double>* degrees = db().precomputed_degrees("clean room");
  ASSERT_NE(degrees, nullptr);
  ASSERT_EQ(degrees->size(), db().corpus().num_entities());
  // Both sides run ConditionScorer over the same interpretation, so the
  // doubles are identical, not merely close.
  for (size_t e = 0; e < degrees->size(); ++e) {
    auto direct = db().PredicateDegreeOfTruth(
        "clean room", static_cast<text::EntityId>(e));
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ((*degrees)[e], *direct);
  }
  db().PrecomputeDegrees({});
}

TEST_F(ExtensionsTest, DegreeCacheCachesByText) {
  EXPECT_EQ(db().precomputed_degrees("friendly staff"), nullptr);
  // Spellings that normalize alike collapse onto one list.
  EXPECT_EQ(db().PrecomputeDegrees({"friendly staff", "  Friendly\tSTAFF "}),
            1u);
  const std::vector<double>* list = db().precomputed_degrees("friendly staff");
  ASSERT_NE(list, nullptr);
  EXPECT_EQ(db().precomputed_degrees("FRIENDLY staff"), list);
  // Each call replaces the resident set; an empty one drops it.
  EXPECT_EQ(db().PrecomputeDegrees({"quiet street"}), 1u);
  EXPECT_EQ(db().precomputed_degrees("friendly staff"), nullptr);
  EXPECT_NE(db().precomputed_degrees("quiet street"), nullptr);
  EXPECT_EQ(db().PrecomputeDegrees({}), 0u);
  EXPECT_EQ(db().precomputed_degrees("quiet street"), nullptr);
}

TEST_F(ExtensionsTest, PrecomputeMarkersMaterializesEveryMarker) {
  const std::vector<std::string> markers = db().schema().Markers();
  size_t total = 0;
  for (const auto& attribute : db().schema().attributes) {
    total += attribute.summary_type.markers.size();
  }
  // Duplicated marker phrases across attributes are listed once.
  EXPECT_LE(markers.size(), total);
  ASSERT_GT(markers.size(), 0u);
  EXPECT_EQ(db().PrecomputeDegrees(markers), markers.size());
  for (const auto& marker : markers) {
    EXPECT_NE(db().precomputed_degrees(marker), nullptr) << marker;
  }
  db().PrecomputeDegrees({});
}

// ------------------------------------------------------- Personalizing.

TEST_F(ExtensionsTest, ProfileFromWeightsIgnoresUnknownNames) {
  auto profile = core::UserProfile::FromWeights(
      db(), {{"room_cleanliness", 1.0}, {"no_such_attr", 0.7}});
  ASSERT_EQ(profile.attribute_weights.size(),
            db().schema().num_attributes());
  const int attr = db().schema().AttributeIndex("room_cleanliness");
  EXPECT_EQ(profile.attribute_weights[attr], 1.0);
  double sum = 0.0;
  for (double w : profile.attribute_weights) sum += w;
  EXPECT_EQ(sum, 1.0);
}

TEST_F(ExtensionsTest, AffinityTracksLatentQuality) {
  const int attr = db().schema().AttributeIndex("breakfast_food");
  auto profile =
      core::UserProfile::FromWeights(db(), {{"breakfast_food", 1.0}});
  // Best vs worst breakfast by latent quality.
  int best = 0, worst = 0;
  const auto& entities = artifacts_->domain.entities;
  for (size_t e = 0; e < entities.size(); ++e) {
    if (entities[e].quality[attr] > entities[best].quality[attr]) {
      best = static_cast<int>(e);
    }
    if (entities[e].quality[attr] < entities[worst].quality[attr]) {
      worst = static_cast<int>(e);
    }
  }
  EXPECT_GT(core::ProfileAffinity(db(), profile, best),
            core::ProfileAffinity(db(), profile, worst));
}

TEST_F(ExtensionsTest, EmptyProfileHasZeroAffinity) {
  core::UserProfile profile;
  profile.attribute_weights.assign(db().schema().num_attributes(), 0.0);
  EXPECT_EQ(core::ProfileAffinity(db(), profile, 0), 0.0);
}

TEST_F(ExtensionsTest, PersonalizeReordersByBlendedScore) {
  auto result =
      db().Execute("select * from hotels where \"clean room\" limit 10");
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->results.size(), 2u);
  auto profile =
      core::UserProfile::FromWeights(db(), {{"bar_nightlife", 1.0}});
  auto personalized =
      core::PersonalizeResults(db(), profile, result->results, 1.0);
  // With blend = 1.0 the ordering is purely by affinity.
  for (size_t i = 1; i < personalized.size(); ++i) {
    EXPECT_GE(
        core::ProfileAffinity(db(), profile, personalized[i - 1].entity) +
            1e-12,
        core::ProfileAffinity(db(), profile, personalized[i].entity));
  }
  // With blend = 0.0 the original ordering is preserved.
  auto untouched =
      core::PersonalizeResults(db(), profile, result->results, 0.0);
  for (size_t i = 0; i < untouched.size(); ++i) {
    EXPECT_EQ(untouched[i].entity, result->results[i].entity);
  }
}

// ------------------------------------------------------ Unexpectedness.

TEST_F(ExtensionsTest, FindUnexpectedReturnsSortedFindings) {
  auto findings = core::FindUnexpected(
      db(), artifacts_->domain.objective_table, "price_pn", 10);
  ASSERT_TRUE(findings.ok()) << findings.status().ToString();
  ASSERT_FALSE(findings->empty());
  for (size_t i = 1; i < findings->size(); ++i) {
    EXPECT_GE(std::abs((*findings)[i - 1].surprise),
              std::abs((*findings)[i].surprise));
  }
  for (const auto& finding : *findings) {
    EXPECT_GE(finding.objective_percentile, 0.0);
    EXPECT_LE(finding.objective_percentile, 1.0);
    EXPECT_FALSE(finding.description.empty());
  }
}

TEST_F(ExtensionsTest, FindUnexpectedRejectsBadColumn) {
  auto findings = core::FindUnexpected(
      db(), artifacts_->domain.objective_table, "nope", 5);
  EXPECT_FALSE(findings.ok());
  auto string_col = core::FindUnexpected(
      db(), artifacts_->domain.objective_table, "city", 5);
  EXPECT_FALSE(string_col.ok());
}

// ------------------------------------------------------- Serialization.

TEST_F(ExtensionsTest, EmbeddingsRoundTrip) {
  std::stringstream buffer;
  ASSERT_TRUE(embedding::SaveEmbeddings(db().embeddings(), &buffer).ok());
  auto loaded = embedding::LoadEmbeddings(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), db().embeddings().size());
  EXPECT_EQ(loaded->dim(), db().embeddings().dim());
  const auto* original = db().embeddings().Get("clean");
  const auto* reloaded = loaded->Get("clean");
  ASSERT_NE(original, nullptr);
  ASSERT_NE(reloaded, nullptr);
  for (size_t d = 0; d < original->size(); ++d) {
    EXPECT_FLOAT_EQ((*original)[d], (*reloaded)[d]);
  }
  EXPECT_NEAR(loaded->Similarity("clean", "spotless"),
              db().embeddings().Similarity("clean", "spotless"), 1e-5);
}

TEST_F(ExtensionsTest, SchemaRoundTrip) {
  std::stringstream buffer;
  ASSERT_TRUE(core::SaveSchema(db().schema(), &buffer).ok());
  auto loaded = core::LoadSchema(&buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->objective_table, db().schema().objective_table);
  ASSERT_EQ(loaded->attributes.size(), db().schema().attributes.size());
  for (size_t a = 0; a < loaded->attributes.size(); ++a) {
    const auto& original = db().schema().attributes[a];
    const auto& reloaded = loaded->attributes[a];
    EXPECT_EQ(reloaded.name, original.name);
    EXPECT_EQ(reloaded.summary_type.kind, original.summary_type.kind);
    EXPECT_EQ(reloaded.summary_type.markers, original.summary_type.markers);
    EXPECT_EQ(reloaded.linguistic_domain, original.linguistic_domain);
    EXPECT_EQ(reloaded.seeds.aspect_terms, original.seeds.aspect_terms);
    EXPECT_EQ(reloaded.seeds.opinion_terms, original.seeds.opinion_terms);
  }
}

TEST_F(ExtensionsTest, SummariesRoundTrip) {
  const core::ColumnarSummaryStore& original = *db().columnar_store();
  auto loaded =
      core::DecodeSummaries(db().schema(), core::EncodeSummaries(original));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Saved columns, recomputed derived ones and provenance, byte for byte.
  EXPECT_TRUE(oracle::StoreImage(*loaded) == oracle::StoreImage(original));
}

TEST(SerializeErrorTest, RejectsGarbage) {
  std::stringstream garbage("not a schema at all");
  EXPECT_FALSE(core::LoadSchema(&garbage).ok());
  std::stringstream garbage2("nor embeddings");
  EXPECT_FALSE(embedding::LoadEmbeddings(&garbage2).ok());
  std::stringstream truncated("opinedb-schema 1\n6:hotels 4:name\n2\n");
  EXPECT_FALSE(core::LoadSchema(&truncated).ok());
}

TEST(SerializeErrorTest, RejectsWrongVersion) {
  std::stringstream future("opinedb-schema 99\n");
  auto result = core::LoadSchema(&future);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

}  // namespace
}  // namespace opinedb
