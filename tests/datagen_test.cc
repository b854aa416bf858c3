#include <set>

#include <gtest/gtest.h>

#include "datagen/domain_spec.h"
#include "datagen/generator.h"
#include "datagen/queries.h"
#include "datagen/survey.h"
#include "sentiment/analyzer.h"

namespace opinedb::datagen {
namespace {

TEST(DomainSpecTest, HotelSpecIsWellFormed) {
  auto spec = HotelDomain();
  EXPECT_EQ(spec.name, "hotel");
  EXPECT_GE(spec.attributes.size(), 8u);
  for (const auto& attribute : spec.attributes) {
    EXPECT_FALSE(attribute.aspect_nouns.empty()) << attribute.name;
    EXPECT_GE(attribute.opinions.size(), 6u) << attribute.name;
    EXPECT_FALSE(attribute.markers.empty()) << attribute.name;
    for (const auto& opinion : attribute.opinions) {
      EXPECT_GE(opinion.polarity, -1.0);
      EXPECT_LE(opinion.polarity, 1.0);
    }
  }
  EXPECT_FALSE(spec.concepts.empty());
  EXPECT_FALSE(spec.hard_queries.empty());
  EXPECT_FALSE(spec.fillers.empty());
}

TEST(DomainSpecTest, ConceptTriggersReferToValidAttributes) {
  for (const auto& spec : {HotelDomain(), RestaurantDomain()}) {
    for (const auto& concept_spec : spec.concepts) {
      EXPECT_GE(concept_spec.gold_attribute, 0);
      EXPECT_LT(concept_spec.gold_attribute,
                static_cast<int>(spec.attributes.size()));
      for (int trigger : concept_spec.trigger_attributes) {
        EXPECT_GE(trigger, 0);
        EXPECT_LT(trigger, static_cast<int>(spec.attributes.size()));
      }
    }
  }
}

TEST(DomainSpecTest, OpinionWordsCoveredByLexicon) {
  // Marker induction sorts by sentiment; opinions the analyzer scores as
  // zero would collapse the scale. Most opinions must carry sentiment.
  sentiment::Analyzer analyzer;
  for (const auto& spec :
       {HotelDomain(), RestaurantDomain(), LaptopDomain()}) {
    size_t scored = 0;
    size_t total = 0;
    for (const auto& attribute : spec.attributes) {
      for (const auto& opinion : attribute.opinions) {
        ++total;
        if (analyzer.ScorePhrase(opinion.text) != 0.0 ||
            opinion.polarity == 0.0) {
          ++scored;
        }
      }
    }
    EXPECT_GT(static_cast<double>(scored) / total, 0.9) << spec.name;
  }
}

TEST(DomainSpecTest, LexiconPolarityAgreesWithSpecPolarity) {
  sentiment::Analyzer analyzer;
  for (const auto& attribute : HotelDomain().attributes) {
    for (const auto& opinion : attribute.opinions) {
      const double lex = analyzer.ScorePhrase(opinion.text);
      if (opinion.polarity > 0.3) {
        EXPECT_GT(lex, 0.0) << opinion.text;
      }
      if (opinion.polarity < -0.3) {
        EXPECT_LT(lex, 0.0) << opinion.text;
      }
    }
  }
}

class GeneratorTest : public ::testing::Test {
 protected:
  static SyntheticDomain MakeDomain() {
    GeneratorOptions options;
    options.num_entities = 25;
    options.min_reviews_per_entity = 5;
    options.max_reviews_per_entity = 10;
    options.seed = 3;
    return GenerateDomain(HotelDomain(), options);
  }
};

TEST_F(GeneratorTest, ShapesAndDeterminism) {
  auto a = MakeDomain();
  auto b = MakeDomain();
  EXPECT_EQ(a.entities.size(), 25u);
  EXPECT_EQ(a.corpus.num_entities(), 25u);
  EXPECT_GE(a.corpus.num_reviews(), 25u * 5);
  EXPECT_LE(a.corpus.num_reviews(), 25u * 10);
  EXPECT_EQ(a.corpus.num_reviews(), b.corpus.num_reviews());
  EXPECT_EQ(a.corpus.review(0).body, b.corpus.review(0).body);
  EXPECT_EQ(a.entities[7].quality, b.entities[7].quality);
}

TEST_F(GeneratorTest, ObjectiveTableMatchesEntities) {
  auto domain = MakeDomain();
  ASSERT_EQ(domain.objective_table.num_rows(), domain.entities.size());
  const int name_col = domain.objective_table.ColumnIndex("name");
  const int city_col = domain.objective_table.ColumnIndex("city");
  ASSERT_GE(name_col, 0);
  ASSERT_GE(city_col, 0);
  for (size_t e = 0; e < domain.entities.size(); ++e) {
    EXPECT_EQ(domain.objective_table.at(e, name_col).AsString(),
              domain.entities[e].name);
    EXPECT_EQ(domain.objective_table.at(e, city_col).AsString(),
              domain.entities[e].city);
  }
}

TEST_F(GeneratorTest, ReviewPolarityTracksLatentQuality) {
  // Entities with high cleanliness quality must produce reviews whose
  // bodies score more positively on cleanliness words.
  auto domain = MakeDomain();
  sentiment::Analyzer analyzer;
  double hi_senti = 0.0, lo_senti = 0.0;
  int hi_n = 0, lo_n = 0;
  for (size_t e = 0; e < domain.entities.size(); ++e) {
    double mean_quality = 0.0;
    for (double q : domain.entities[e].quality) mean_quality += q;
    mean_quality /= domain.entities[e].quality.size();
    for (auto review_id :
         domain.corpus.entity_reviews(static_cast<text::EntityId>(e))) {
      const double s =
          analyzer.ScoreDocument(domain.corpus.review(review_id).body);
      if (mean_quality > 0.6) {
        hi_senti += s;
        ++hi_n;
      } else if (mean_quality < 0.4) {
        lo_senti += s;
        ++lo_n;
      }
    }
  }
  ASSERT_GT(hi_n, 0);
  ASSERT_GT(lo_n, 0);
  EXPECT_GT(hi_senti / hi_n, lo_senti / lo_n + 0.1);
}

TEST_F(GeneratorTest, RatingCorrelatesWithMeanQuality) {
  auto domain = MakeDomain();
  double best_rating = 0.0, worst_rating = 6.0;
  double best_quality = 0.0, worst_quality = 0.0;
  for (const auto& entity : domain.entities) {
    double mean_quality = 0.0;
    for (double q : entity.quality) mean_quality += q;
    mean_quality /= entity.quality.size();
    if (entity.rating > best_rating) {
      best_rating = entity.rating;
      best_quality = mean_quality;
    }
    if (entity.rating < worst_rating) {
      worst_rating = entity.rating;
      worst_quality = mean_quality;
    }
  }
  EXPECT_GT(best_quality, worst_quality);
}

TEST(SampleOpinionTest, TracksQuality) {
  Rng rng(5);
  // The spec must outlive the reference: operator[] on a member of a
  // temporary does not extend the temporary's lifetime.
  const auto domain = HotelDomain();
  const auto& attribute = domain.attributes[0];
  double high_sum = 0.0, low_sum = 0.0;
  for (int i = 0; i < 300; ++i) {
    high_sum += SampleOpinion(attribute, 0.95, 0.2, &rng).polarity;
    low_sum += SampleOpinion(attribute, 0.05, 0.2, &rng).polarity;
  }
  EXPECT_GT(high_sum / 300, 0.4);
  EXPECT_LT(low_sum / 300, -0.4);
}

TEST(RealizeOpinionSentenceTest, TagsCoverSlotFillers) {
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    auto realized = RealizeOpinionSentence("room", "very clean", &rng);
    ASSERT_EQ(realized.tokens.size(), realized.tags.size());
    int aspects = 0, opinions = 0;
    for (size_t t = 0; t < realized.tokens.size(); ++t) {
      if (realized.tags[t] == extract::kAS) {
        ++aspects;
        EXPECT_EQ(realized.tokens[t], "room");
      }
      if (realized.tags[t] == extract::kOP) ++opinions;
    }
    EXPECT_EQ(aspects, 1);
    EXPECT_EQ(opinions, 2);  // "very clean".
  }
}

TEST(LabeledSentencesTest, OptionsControlNoiseAndHoldout) {
  LabeledSentenceOptions clean;
  auto a = GenerateLabeledSentences(HotelDomain(), 200, 1, clean);
  EXPECT_EQ(a.size(), 200u);

  LabeledSentenceOptions noisy;
  noisy.label_noise = 1.0;  // Every tag resampled uniformly.
  auto b = GenerateLabeledSentences(HotelDomain(), 200, 1, noisy);
  int differing = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tags != b[i].tags) ++differing;
  }
  EXPECT_GT(differing, 100);
}

TEST(LabeledSentencesTest, HoldoutVocabularyShrinks) {
  LabeledSentenceOptions all;
  LabeledSentenceOptions held;
  held.exclude_holdout_vocabulary = true;
  auto with_all = GenerateLabeledSentences(HotelDomain(), 800, 2, all);
  auto with_held = GenerateLabeledSentences(HotelDomain(), 800, 2, held);
  std::set<std::string> vocab_all, vocab_held;
  for (const auto& s : with_all) {
    vocab_all.insert(s.tokens.begin(), s.tokens.end());
  }
  for (const auto& s : with_held) {
    vocab_held.insert(s.tokens.begin(), s.tokens.end());
  }
  EXPECT_LT(vocab_held.size(), vocab_all.size());
}

TEST(PredicatePoolTest, SizeGoldLabelsAndDeterminism) {
  auto spec = HotelDomain();
  auto a = BuildPredicatePool(spec, 190, 1);
  auto b = BuildPredicatePool(spec, 190, 1);
  EXPECT_EQ(a.size(), 190u);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].text, b[i].text);
  std::set<std::string> texts;
  int correlated = 0;
  for (const auto& predicate : a) {
    EXPECT_TRUE(texts.insert(predicate.text).second) << predicate.text;
    EXPECT_LT(predicate.gold_attribute,
              static_cast<int>(spec.attributes.size()));
    if (predicate.correlated) ++correlated;
  }
  // Concepts + hard queries survive trimming.
  EXPECT_GE(correlated,
            static_cast<int>(spec.concepts.size() +
                             spec.hard_queries.size()) - 1);
}

TEST(GroundTruthTest, ThresholdSemantics) {
  SyntheticEntity entity;
  entity.quality = {0.9, 0.3};
  QueryPredicate high;
  high.quality_attributes = {0};
  high.threshold = 0.6;
  EXPECT_TRUE(SatisfiesGroundTruth(entity, high));
  QueryPredicate low;
  low.quality_attributes = {1};
  low.threshold = 0.6;
  EXPECT_FALSE(SatisfiesGroundTruth(entity, low));
  QueryPredicate both;
  both.quality_attributes = {0, 1};  // min(0.9, 0.3) < 0.6.
  EXPECT_FALSE(SatisfiesGroundTruth(entity, both));
  QueryPredicate none;
  EXPECT_FALSE(SatisfiesGroundTruth(entity, none));
}

TEST(WorkloadTest, ConjunctsAreDistinctAndDeterministic) {
  auto a = SampleWorkload(100, 4, 50, 9);
  auto b = SampleWorkload(100, 4, 50, 9);
  EXPECT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].predicate_indices, b[i].predicate_indices);
    std::set<size_t> unique(a[i].predicate_indices.begin(),
                            a[i].predicate_indices.end());
    EXPECT_EQ(unique.size(), 4u);
  }
}

TEST(WorkloadTest, ConjunctsClampedToPool) {
  auto workload = SampleWorkload(3, 7, 5, 1);
  for (const auto& query : workload) {
    EXPECT_EQ(query.predicate_indices.size(), 3u);
  }
}

TEST(SurveyTest, MatchesPaperProportions) {
  auto surveys = SurveyData();
  ASSERT_EQ(surveys.size(), 7u);
  struct Expected {
    const char* domain;
    double fraction;
  } expected[] = {
      {"Hotel", 0.690},  {"Restaurant", 0.643}, {"Vacation", 0.826},
      {"College", 0.774}, {"Home", 0.688},      {"Career", 0.658},
      {"Car", 0.560},
  };
  for (size_t i = 0; i < surveys.size(); ++i) {
    EXPECT_EQ(surveys[i].domain, expected[i].domain);
    EXPECT_NEAR(surveys[i].SubjectiveFraction(), expected[i].fraction,
                0.005)
        << surveys[i].domain;
  }
}

TEST(SurveyTest, ExamplesAreSubjective) {
  for (const auto& survey : SurveyData()) {
    auto examples = survey.ExampleSubjective(3);
    EXPECT_EQ(examples.size(), 3u);
  }
}

}  // namespace
}  // namespace opinedb::datagen
