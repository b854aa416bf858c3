// Unit tests for core components that need small controlled fixtures:
// membership features, the aggregator, and seed expansion — independent
// of the full end-to-end build exercised in engine_integration_test.
#include <cmath>

#include <gtest/gtest.h>

#include "core/aggregator.h"
#include "core/attribute_classifier.h"
#include "core/columnar.h"
#include "core/membership.h"
#include "embedding/phrase_rep.h"
#include "embedding/word2vec.h"
#include "oracle/row_oracle.h"

namespace opinedb::core {
namespace {

/// Hand-built embeddings: axis-aligned vectors for a controlled space.
embedding::WordEmbeddings ToyEmbeddings() {
  text::Vocab vocab;
  vocab.AddCount("clean", 10);
  vocab.AddCount("spotless", 5);
  vocab.AddCount("dirty", 10);
  vocab.AddCount("room", 20);
  vocab.AddCount("staff", 20);
  vocab.AddCount("friendly", 10);
  vocab.AddCount("rude", 10);
  std::vector<embedding::Vec> vectors = {
      {1.0f, 0.0f, 0.0f, 0.1f},   // clean
      {0.95f, 0.05f, 0.0f, 0.1f}, // spotless
      {-1.0f, 0.0f, 0.0f, 0.1f},  // dirty
      {0.0f, 1.0f, 0.0f, 0.1f},   // room
      {0.0f, 0.0f, 1.0f, 0.1f},   // staff
      {0.3f, 0.0f, 0.9f, 0.1f},   // friendly
      {-0.3f, 0.0f, 0.9f, 0.1f},  // rude
  };
  return embedding::WordEmbeddings(std::move(vocab), std::move(vectors));
}

SubjectiveSchema ToySchema() {
  SubjectiveSchema schema;
  schema.objective_table = "hotels";
  schema.key_column = "name";
  SubjectiveAttribute cleanliness;
  cleanliness.name = "cleanliness";
  cleanliness.summary_type.name = "cleanliness";
  cleanliness.summary_type.kind = SummaryKind::kLinearlyOrdered;
  cleanliness.summary_type.markers = {"clean", "dirty"};
  cleanliness.seeds.aspect_terms = {"room"};
  cleanliness.seeds.opinion_terms = {"clean", "dirty", "spotless"};
  schema.attributes.push_back(cleanliness);
  SubjectiveAttribute service;
  service.name = "service";
  service.summary_type.name = "service";
  service.summary_type.kind = SummaryKind::kLinearlyOrdered;
  service.summary_type.markers = {"friendly", "rude"};
  service.seeds.aspect_terms = {"staff"};
  service.seeds.opinion_terms = {"friendly", "rude"};
  schema.attributes.push_back(service);
  return schema;
}

class AggregatorTest : public ::testing::Test {
 protected:
  AggregatorTest()
      : embeddings_(ToyEmbeddings()),
        embedder_(&embeddings_, nullptr),
        schema_(ToySchema()),
        classifier_(AttributeClassifier::Train(schema_, embeddings_,
                                               /*expansions_per_seed=*/0)),
        aggregator_(&schema_, &classifier_, &embedder_, &analyzer_) {}

  extract::ExtractedOpinion Opinion(text::EntityId entity,
                                    text::ReviewId review,
                                    const char* aspect, const char* opinion,
                                    double sentiment) {
    extract::ExtractedOpinion out;
    out.entity = entity;
    out.review = review;
    out.aspect = aspect;
    out.opinion = opinion;
    out.phrase = std::string(opinion) + " " + aspect;
    out.sentiment = sentiment;
    return out;
  }

  embedding::WordEmbeddings embeddings_;
  embedding::PhraseEmbedder embedder_;
  SubjectiveSchema schema_;
  sentiment::Analyzer analyzer_;
  AttributeClassifier classifier_;
  Aggregator aggregator_;
};

TEST_F(AggregatorTest, RoutesOpinionsToAttributesAndMarkers) {
  text::ReviewCorpus corpus;
  auto hotel = corpus.AddEntity("h");
  auto r0 = corpus.AddReview(hotel, 0, 0, "x");
  auto r1 = corpus.AddReview(hotel, 1, 0, "x");
  std::vector<extract::ExtractedOpinion> opinions = {
      Opinion(hotel, r0, "room", "clean", 0.7),
      Opinion(hotel, r0, "room", "spotless", 1.0),
      Opinion(hotel, r1, "room", "dirty", -0.7),
      Opinion(hotel, r1, "staff", "friendly", 0.7),
  };
  auto tables = aggregator_.Build(corpus, opinions, AggregationOptions());
  const auto& store = tables.summaries;
  EXPECT_DOUBLE_EQ(store.count(0, hotel, 0), 2.0);  // clean + spotless.
  EXPECT_DOUBLE_EQ(store.count(0, hotel, 1), 1.0);  // dirty.
  EXPECT_DOUBLE_EQ(store.total(0, hotel), 3.0);
  EXPECT_DOUBLE_EQ(store.count(1, hotel, 0), 1.0);
  EXPECT_DOUBLE_EQ(store.count(1, hotel, 1), 0.0);
  // Provenance recorded.
  EXPECT_EQ(store.Provenance(0, hotel, 0).size(), 2u);
  EXPECT_EQ(store.Provenance(0, hotel, 1)[0], r1);
}

TEST_F(AggregatorTest, IncrementalAddMatchesBatch) {
  // Folding [first, n) onto a build of [0, first) equals a build of
  // [0, n) — at a review boundary and mid-review, with one-hot and with
  // fractional weights — down to every column, the provenance log and
  // the no-marker lists.
  text::ReviewCorpus corpus;
  auto hotel = corpus.AddEntity("h");
  auto other = corpus.AddEntity("g");
  auto r0 = corpus.AddReview(hotel, 0, 0, "x");
  auto r1 = corpus.AddReview(other, 1, 0, "x");
  auto r2 = corpus.AddReview(hotel, 2, 0, "x");
  const std::vector<extract::ExtractedOpinion> opinions = {
      Opinion(hotel, r0, "room", "clean", 0.7),
      Opinion(hotel, r0, "staff", "rude", -0.8),
      Opinion(other, r1, "room", "spotless", 1.0),
      Opinion(hotel, r2, "room", "dirty", -0.7),
      Opinion(hotel, r2, "staff", "friendly", 0.6),
  };
  for (const bool fractional : {false, true}) {
    AggregationOptions options;
    options.fractional = fractional;
    const auto batch = aggregator_.Build(corpus, opinions, options,
                                         /*pool=*/nullptr,
                                         /*extraction_lists=*/true);
    // 2 and 3 are review boundaries; 1 and 4 split a review.
    for (const size_t first : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE("fractional " + std::to_string(fractional) + ", first " +
                   std::to_string(first));
      auto incremental = aggregator_.Build(
          corpus, {opinions.begin(), opinions.begin() + first}, options,
          /*pool=*/nullptr, /*extraction_lists=*/true);
      incremental.extractions.insert(incremental.extractions.end(),
                                     opinions.begin() + first,
                                     opinions.end());
      aggregator_.Append(corpus, options, first, &incremental);
      EXPECT_TRUE(oracle::StoreImage(batch.summaries) ==
                  oracle::StoreImage(incremental.summaries));
      EXPECT_EQ(batch.extraction_attribute, incremental.extraction_attribute);
      EXPECT_EQ(batch.extraction_marker, incremental.extraction_marker);
      EXPECT_EQ(batch.extraction_margin, incremental.extraction_margin);
      EXPECT_EQ(batch.extraction_lists, incremental.extraction_lists);
    }
  }
}

TEST_F(AggregatorTest, DateFilterExcludesOldReviews) {
  text::ReviewCorpus corpus;
  auto hotel = corpus.AddEntity("h");
  auto old_review = corpus.AddReview(hotel, 0, 100, "x");
  auto new_review = corpus.AddReview(hotel, 1, 900, "x");
  std::vector<extract::ExtractedOpinion> opinions = {
      Opinion(hotel, old_review, "room", "dirty", -0.7),
      Opinion(hotel, new_review, "room", "clean", 0.7),
  };
  AggregationOptions options;
  options.min_date = 500;
  auto tables = aggregator_.Build(corpus, opinions, options);
  EXPECT_DOUBLE_EQ(tables.summaries.count(0, hotel, 0), 1.0);
  EXPECT_DOUBLE_EQ(tables.summaries.count(0, hotel, 1), 0.0);
  EXPECT_EQ(tables.extraction_attribute[0], -1);  // Filtered out.
}

TEST_F(AggregatorTest, FractionalWeightsSumToOne) {
  AggregationOptions options;
  options.fractional = true;
  auto weights = aggregator_.MarkerWeights(0, "spotless room", options);
  double sum = 0.0;
  for (double w : weights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // The runner-up marker "dirty" has negative similarity to "spotless
  // room", so all mass stays on "clean": fractional assignment never
  // leaks mass onto dissimilar markers.
  EXPECT_NEAR(weights[0], 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(weights[1], 0.0);
}

TEST_F(AggregatorTest, FractionalSplitsBetweenSimilarMarkers) {
  // With markers "clean" and "spotless" (both similar to the phrase),
  // fractional mode splits the phrase's mass between them.
  auto schema = ToySchema();
  schema.attributes[0].summary_type.markers = {"clean", "spotless"};
  AttributeClassifier classifier =
      AttributeClassifier::Train(schema, embeddings_, 0);
  Aggregator aggregator(&schema, &classifier, &embedder_, &analyzer_);
  AggregationOptions options;
  options.fractional = true;
  auto weights = aggregator.MarkerWeights(0, "clean room", options);
  double sum = 0.0;
  int nonzero = 0;
  for (double w : weights) {
    sum += w;
    if (w > 0.0) ++nonzero;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(nonzero, 2);
  EXPECT_GT(weights[0], weights[1]);  // "clean" is the closer marker.
}

TEST_F(AggregatorTest, MatchThresholdProducesUnmatched) {
  AggregationOptions options;
  options.match_threshold = 2.0;  // Impossible: cosine <= 1.
  auto weights = aggregator_.MarkerWeights(0, "clean room", options);
  for (double w : weights) EXPECT_EQ(w, 0.0);
}

// --------------------------------------------------- MembershipFeatures.

/// A refreshed store over one two-marker attribute with 2-wide
/// centroids, and MarkerFeatures of its entity 0 against `query`.
ColumnarSummaryStore GoodBadStore() {
  SubjectiveSchema schema;
  SubjectiveAttribute attribute;
  attribute.summary_type.markers = {"good", "bad"};
  schema.attributes.push_back(attribute);
  return ColumnarSummaryStore(schema, 1, 2);
}

std::vector<double> Features(const ColumnarSummaryStore& store, size_t marker,
                             const embedding::Vec& query, double sentiment) {
  std::vector<double> f(kMembershipFeatureDim, -1.0);
  const std::vector<double> q(query.begin(), query.end());
  MarkerFeatures<0>(store.attribute(0), 0, marker, q.data(),
                    embedding::Norm(query), sentiment, f.data());
  return f;
}

TEST(MembershipFeaturesTest, EmptySummarySetsIndicator) {
  ColumnarSummaryStore store = GoodBadStore();
  store.Refresh(nullptr);
  auto f = Features(store, 0, {1.0f, 0.0f}, 0.5);
  ASSERT_EQ(f.size(), kMembershipFeatureDim);
  EXPECT_EQ(f[9], 1.0);
  EXPECT_EQ(f[0], 0.0);
  for (size_t i = 1; i < 9; ++i) EXPECT_EQ(f[i], 0.0) << i;
}

TEST(MembershipFeaturesTest, MassFractionsAndSentiment) {
  ColumnarSummaryStore store = GoodBadStore();
  store.AddPhrase(0, 0, {1, 0}, 0.8, {1.0f, 0.0f}, 0);
  store.AddPhrase(0, 0, {1, 0}, 0.6, {1.0f, 0.0f}, 1);
  store.AddPhrase(0, 0, {0, 1}, -0.9, {0.0f, 1.0f}, 2);
  store.Refresh(nullptr);
  auto f = Features(store, 0, {1.0f, 0.0f}, 0.7);
  EXPECT_NEAR(f[1], 2.0 / 3.0, 1e-9);       // Mass at marker 0.
  EXPECT_NEAR(f[2], 2.0 / 3.0, 1e-9);       // Mass at-or-above marker 0.
  EXPECT_NEAR(f[4], 0.7, 1e-9);             // Target mean sentiment.
  EXPECT_GT(f[5], 0.9);                     // Centroid similarity.
  auto f_bad = Features(store, 1, {1.0f, 0.0f}, 0.7);
  EXPECT_NEAR(f_bad[1], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(f_bad[2], 1.0, 1e-9);  // All markers at or above "bad".
}

TEST(MembershipFeaturesTest, NoMarkerVariantSeesPhrases) {
  embedding::WordEmbeddings embeddings = ToyEmbeddings();
  embedding::PhraseEmbedder embedder(&embeddings, nullptr);
  extract::ExtractedOpinion a;
  a.phrase = "clean room";
  a.sentiment = 0.7;
  extract::ExtractedOpinion b;
  b.phrase = "dirty room";
  b.sentiment = -0.7;
  auto f = MembershipFeaturesNoMarkers({a, b}, {0, 1}, embedder,
                                       embedder.Represent("clean room"),
                                       0.7);
  ASSERT_EQ(f.size(), kMembershipFeatureDim);
  EXPECT_NEAR(f[1], 0.5, 1e-9);  // One of two phrases is similar.
  EXPECT_NEAR(f[3], 0.0, 1e-9);  // Mean sentiment cancels out.
  EXPECT_GT(f[4], 0.99);         // Max similarity: the exact phrase.
}

TEST(MembershipModelTest, LearnsSeparableTuples) {
  std::vector<MembershipModel::LabeledTuple> tuples;
  Rng rng(4);
  for (int i = 0; i < 400; ++i) {
    MembershipModel::LabeledTuple tuple;
    tuple.features.assign(kMembershipFeatureDim, 0.0);
    const double mass = rng.Uniform();
    tuple.features[1] = mass;
    tuple.features[0] = std::log1p(10.0 * rng.Uniform());
    tuple.label = mass > 0.5 ? 1 : 0;
    tuples.push_back(std::move(tuple));
  }
  auto model = MembershipModel::Train(tuples);
  EXPECT_GT(model.Accuracy(tuples), 0.95);
  std::vector<double> good(kMembershipFeatureDim, 0.0);
  good[1] = 0.95;
  std::vector<double> bad(kMembershipFeatureDim, 0.0);
  bad[1] = 0.05;
  EXPECT_GT(model.DegreeOfTruth(good), model.DegreeOfTruth(bad));
}

// ------------------------------------------------------- Seed expansion.

TEST(SeedExpansionTest, AddsSimilarWordsOnly) {
  auto embeddings = ToyEmbeddings();
  auto expanded = ExpandSeeds({"clean"}, embeddings, 3, 0.9);
  // "spotless" is ~0.99 similar; "dirty" is opposite.
  bool has_spotless = false, has_dirty = false;
  for (const auto& term : expanded) {
    if (term == "spotless") has_spotless = true;
    if (term == "dirty") has_dirty = true;
  }
  EXPECT_TRUE(has_spotless);
  EXPECT_FALSE(has_dirty);
}

TEST(SeedExpansionTest, ZeroExpansionsKeepsSeeds) {
  auto embeddings = ToyEmbeddings();
  auto expanded = ExpandSeeds({"clean", "dirty"}, embeddings, 0);
  EXPECT_EQ(expanded.size(), 2u);
}

TEST(AttributeClassifierTest, ClassifiesSeededPairs) {
  auto embeddings = ToyEmbeddings();
  auto schema = ToySchema();
  auto classifier = AttributeClassifier::Train(schema, embeddings, 0);
  EXPECT_EQ(classifier.Classify("room", "clean"), 0);
  EXPECT_EQ(classifier.Classify("staff", "rude"), 1);
  const auto [label, margin] =
      classifier.ClassifyWithMargin("room", "spotless");
  EXPECT_EQ(label, 0);
  EXPECT_GT(margin, 0.5);
  // Unknown evidence gives a small margin.
  const auto [unknown_label, unknown_margin] =
      classifier.ClassifyWithMargin("zzz", "qqq");
  (void)unknown_label;
  EXPECT_LT(unknown_margin, margin);
}

TEST(AttributeClassifierTest, AccuracyOnLabeledTriples) {
  auto embeddings = ToyEmbeddings();
  auto classifier = AttributeClassifier::Train(ToySchema(), embeddings, 0);
  std::vector<std::tuple<std::string, std::string, int>> labeled = {
      {"room", "clean", 0}, {"staff", "friendly", 1}, {"room", "dirty", 0}};
  EXPECT_EQ(classifier.Accuracy(labeled), 1.0);
}

}  // namespace
}  // namespace opinedb::core
