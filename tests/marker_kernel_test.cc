// The K-specialized featurization kernels against the serial reference
// in tests/oracle/: for every marker count K in [1, 9] (K = 9 takes the
// run-time-K kernel) and centroid widths 1, 16 and 17, every
// instantiation of core::MarkerFeatures and ConditionScorer::Score must
// write exactly the bytes of the per-cell CosineWithNorms loop, with and
// without a trained membership model.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/columnar.h"
#include "core/engine.h"
#include "core/interpreter.h"
#include "datagen/domain_spec.h"
#include "datagen/generator.h"
#include "eval/experiment.h"
#include "extract/pipeline.h"
#include "oracle/row_oracle.h"

namespace opinedb {
namespace {

constexpr size_t kMaxMarkers = 9;
constexpr size_t kEntities = 24;

/// An engine over a small hotel corpus whose schema has one attribute
/// per marker count K = 1..9 and `dim`-wide embeddings, its summaries
/// replaced by a synthetic store. Entity 0 has total 0; entity 1 leaves
/// every odd cell empty; entity 2 has a zero-norm centroid under
/// positive mass; the rest are random.
std::unique_ptr<core::OpineDb> BuildKernelEngine(size_t dim) {
  datagen::GeneratorOptions generator;
  generator.num_entities = kEntities;
  generator.min_reviews_per_entity = 3;
  generator.max_reviews_per_entity = 5;
  generator.seed = 11;
  const datagen::SyntheticDomain domain =
      datagen::GenerateDomain(datagen::HotelDomain(), generator);
  std::vector<std::string> phrases;
  for (const auto& attribute : domain.schema.attributes) {
    for (const auto& marker : attribute.summary_type.markers) {
      phrases.push_back(marker);
    }
  }
  core::SubjectiveSchema schema = domain.schema;
  schema.attributes.clear();
  for (size_t k = 1; k <= kMaxMarkers; ++k) {
    core::SubjectiveAttribute attribute =
        domain.schema.attributes[(k - 1) % domain.schema.attributes.size()];
    attribute.name = "k" + std::to_string(k);
    attribute.summary_type.markers.clear();
    for (size_t m = 0; m < k; ++m) {
      attribute.summary_type.markers.push_back(
          phrases[(k + m) % phrases.size()]);
    }
    schema.attributes.push_back(attribute);
  }
  core::EngineOptions options;
  options.num_threads = 1;
  options.w2v.dim = dim;
  const extract::ExtractionPipeline pipeline(
      eval::TrainExtractor(datagen::HotelDomain(), 100, 11));
  auto db = core::OpineDb::Build(domain.corpus, schema, pipeline, options);

  core::ColumnarSummaryStore store(schema, kEntities, dim);
  Rng rng(dim);
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    core::AttributeColumns& cols = store.mutable_attribute(a);
    const size_t k = cols.num_markers;
    cols.unmatched[0] = 2.0;
    for (size_t e = 1; e < kEntities; ++e) {
      for (size_t m = 0; m < k; ++m) {
        if (e == 1 && m % 2 == 1) continue;
        const size_t cell = e * k + m;
        cols.count[cell] = rng.Uniform(0.0, 20.0);
        cols.mean_sentiment[cell] = rng.Uniform(-1.0, 1.0);
        if (e == 2 && m == k / 2) continue;
        for (size_t d = 0; d < dim; ++d) {
          cols.centroid[cell * dim + d] =
              static_cast<float>(rng.Gaussian(0.0, 1.0));
        }
      }
      cols.unmatched[e] = rng.Uniform(0.0, 5.0);
    }
  }
  const Status installed = db->InstallSummaries(std::move(store));
  EXPECT_TRUE(installed.ok()) << installed.ToString();
  return db;
}

using FeaturesFn = void (*)(const core::AttributeColumns&, size_t, size_t,
                           const double*, double, double, double*);

/// The instantiation ConditionScorer binds for `k` markers.
FeaturesFn SpecializedFeatures(size_t k) {
  switch (k) {
    case 1: return &core::MarkerFeatures<1>;
    case 2: return &core::MarkerFeatures<2>;
    case 3: return &core::MarkerFeatures<3>;
    case 4: return &core::MarkerFeatures<4>;
    case 5: return &core::MarkerFeatures<5>;
    case 6: return &core::MarkerFeatures<6>;
    case 7: return &core::MarkerFeatures<7>;
    case 8: return &core::MarkerFeatures<8>;
    default: return &core::MarkerFeatures<0>;
  }
}

bool SameBytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every feature vector and every scorer degree of `db` against the
/// reference, for a random and a zero-norm query.
void ExpectKernelsMatchReference(const core::OpineDb& db, size_t dim,
                                 const std::string& label) {
  const core::ColumnarSummaryStore& store = *db.columnar_store();
  Rng rng(dim + 100);
  embedding::Vec random(dim);
  for (float& x : random) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  const std::vector<embedding::Vec> queries = {random,
                                               embedding::Vec(dim, 0.0f)};
  const double sentiment = 0.3;
  size_t compared = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    const embedding::Vec& query = queries[q];
    const std::vector<double> query_d(query.begin(), query.end());
    const double norm = embedding::Norm(query);
    const std::string where = label + " dim " + std::to_string(dim) +
                              " query " + std::to_string(q);
    for (size_t a = 0; a < store.num_attributes(); ++a) {
      const core::AttributeColumns& cols = store.attribute(a);
      for (size_t m = 0; m < cols.num_markers; ++m) {
        core::PredicateInterpretation single;
        single.method = core::InterpretMethod::kWord2Vec;
        single.atoms.push_back(
            {static_cast<int>(a), static_cast<int>(m), 1.0});
        const core::ConditionScorer scorer(db, "p", single, query,
                                           sentiment);
        for (size_t e = 0; e < kEntities; ++e) {
          double want[core::kMembershipFeatureDim];
          double serial[core::kMembershipFeatureDim];
          double specialized[core::kMembershipFeatureDim];
          oracle::ReferenceMarkerFeatures(cols, e, m, query.data(), norm,
                                          sentiment, want);
          core::MarkerFeatures<0>(cols, e, m, query_d.data(), norm,
                                  sentiment, serial);
          SpecializedFeatures(cols.num_markers)(cols, e, m, query_d.data(),
                                                norm, sentiment, specialized);
          const std::string at = where + " K " +
                                 std::to_string(cols.num_markers) +
                                 " marker " + std::to_string(m) +
                                 " entity " + std::to_string(e);
          EXPECT_EQ(std::memcmp(serial, want, sizeof(want)), 0) << at;
          EXPECT_EQ(std::memcmp(specialized, want, sizeof(want)), 0) << at;
          EXPECT_TRUE(SameBytes(
              scorer.Score(e),
              oracle::ReferenceMarkerScore(db, single, query, sentiment, e)))
              << at;
          ++compared;
        }
      }
    }
    // One atom per attribute, folded both ways: every kernel in one
    // condition.
    for (const bool conjunctive : {true, false}) {
      core::PredicateInterpretation all;
      all.method = core::InterpretMethod::kCooccurrence;
      all.conjunctive = conjunctive;
      for (size_t a = 0; a < store.num_attributes(); ++a) {
        const size_t marker = a % store.attribute(a).num_markers;
        all.atoms.push_back(
            {static_cast<int>(a), static_cast<int>(marker), 1.0});
      }
      const core::ConditionScorer scorer(db, "p", all, query, sentiment);
      for (size_t e = 0; e < kEntities; ++e) {
        EXPECT_TRUE(SameBytes(
            scorer.Score(e),
            oracle::ReferenceMarkerScore(db, all, query, sentiment, e)))
            << where << " conjunctive " << conjunctive << " entity " << e;
      }
    }
  }
  // 2 queries x (1 + 2 + ... + 9) markers x kEntities.
  EXPECT_EQ(compared, 2 * 45 * kEntities);
}

class MarkerKernelTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MarkerKernelTest, EveryInstantiationMatchesTheSerialReference) {
  const size_t dim = GetParam();
  std::unique_ptr<core::OpineDb> db = BuildKernelEngine(dim);
  ASSERT_EQ(db->phrase_embedder().dim(), dim);
  ASSERT_FALSE(db->has_membership_model());
  ExpectKernelsMatchReference(*db, dim, "heuristic");

  // A model trained on reference features of random cells.
  const core::ColumnarSummaryStore& store = *db->columnar_store();
  Rng rng(dim + 7);
  embedding::Vec query(dim);
  for (float& x : query) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  std::vector<core::MembershipModel::LabeledTuple> tuples;
  for (size_t i = 0; i < 200; ++i) {
    const size_t a = rng.Below(store.num_attributes());
    const core::AttributeColumns& cols = store.attribute(a);
    core::MembershipModel::LabeledTuple tuple;
    tuple.features.resize(core::kMembershipFeatureDim);
    oracle::ReferenceMarkerFeatures(cols, rng.Below(kEntities),
                                    rng.Below(cols.num_markers), query.data(),
                                    embedding::Norm(query), 0.3,
                                    tuple.features.data());
    tuple.label = tuple.features[1] >= 0.3 ? 1 : 0;
    tuples.push_back(std::move(tuple));
  }
  ASSERT_TRUE(db->TrainMembership(tuples, 5).ok());
  ExpectKernelsMatchReference(*db, dim, "model");
}

INSTANTIATE_TEST_SUITE_P(Widths, MarkerKernelTest,
                         ::testing::Values(size_t{1}, size_t{16}, size_t{17}));

}  // namespace
}  // namespace opinedb
