#include "datagen/scale.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "core/columnar.h"
#include "datagen/generator.h"
#include "embedding/vector_ops.h"
#include "extract/opinion_tagger.h"
#include "extract/pipeline.h"
#include "storage/table.h"

namespace opinedb::datagen {

namespace {

constexpr uint64_t kEntityStride = 0x9e3779b97f4a7c15ull;

const char* const kCities[] = {"amsterdam", "berlin",  "chicago", "denver",
                               "eugene",    "fukuoka", "geneva",  "helsinki"};
constexpr size_t kNumCities = sizeof(kCities) / sizeof(kCities[0]);

double Clamp(double x, double lo, double hi) {
  return std::min(hi, std::max(lo, x));
}

}  // namespace

storage::Table ScaledObjectiveTable(const ScaledFixture& fixture) {
  const core::OpineDb& db = *fixture.db;
  storage::Table table(db.schema().objective_table,
                       {{"name", storage::ValueType::kString},
                        {"city", storage::ValueType::kString},
                        {"price_pn", storage::ValueType::kInt},
                        {"rating", storage::ValueType::kDouble}});
  Rng rng(fixture.spec.seed + 0x5eed);
  for (size_t e = 0; e < fixture.quality.size(); ++e) {
    const int64_t price = 40 + static_cast<int64_t>(rng.Below(360));
    const double rating = Clamp(
        2.0 + 3.0 * fixture.quality[e] + rng.Gaussian(0.0, 0.15), 1.0, 5.0);
    table
        .Append({storage::Value(
                     db.corpus().entity_name(static_cast<text::EntityId>(e))),
                 storage::Value(std::string(kCities[rng.Below(kNumCities)])),
                 storage::Value(price), storage::Value(rating)})
        .ok();
  }
  return table;
}

ScaledFixture BuildScaledFixture(const ScaleSpec& spec) {
  ScaledFixture fixture;
  fixture.spec = spec;
  fixture.domain = HotelDomain();
  const size_t num_entities = std::max<size_t>(1, spec.num_entities);
  const size_t vocab = std::min(std::max<size_t>(8, spec.vocab_entities),
                                num_entities);

  // 1. Small rendered sub-corpus: trains word2vec, the extractor and the
  // interpreter's variation table (schema markers seed variations, so
  // marker-phrase predicates interpret even after the extraction
  // relation is replaced below).
  GeneratorOptions vocab_options;
  vocab_options.num_entities = vocab;
  vocab_options.seed = spec.seed;
  SyntheticDomain small = GenerateDomain(fixture.domain, vocab_options);

  // 2. Full-size corpus: the vocab entities keep their rendered reviews,
  // the tail is review-less (their summaries are synthesized, not
  // aggregated, so extraction cost stays O(vocab)).
  text::ReviewCorpus corpus;
  for (size_t e = 0; e < num_entities; ++e) {
    if (e < vocab) {
      corpus.AddEntity(small.corpus.entity_name(
          static_cast<text::EntityId>(e)));
    } else {
      corpus.AddEntity("hotel_" + std::to_string(e));
    }
  }
  for (const auto& review : small.corpus.reviews()) {
    corpus.AddReview(review.entity, review.reviewer, review.date,
                     review.body);
  }

  auto tagger = extract::OpinionTagger::Train(GenerateLabeledSentences(
      fixture.domain, spec.extractor_sentences, spec.seed));
  extract::ExtractionPipeline pipeline(std::move(tagger));

  core::EngineOptions engine;
  engine.w2v.dim = std::max<size_t>(4, spec.embedding_dim);
  engine.num_threads = spec.num_threads;
  fixture.db = core::OpineDb::Build(corpus, small.schema, pipeline, engine);

  core::OpineDb& db = *fixture.db;
  const core::SubjectiveSchema& schema = db.schema();
  const size_t num_attributes = schema.num_attributes();
  const size_t dim = db.phrase_embedder().dim();

  // Marker-phrase centroid bases, one Represent() per (attribute,
  // marker). A marker whose words fell below word2vec's min_count gets a
  // deterministic pseudo-embedding so its cosine features stay
  // non-degenerate.
  std::vector<std::vector<embedding::Vec>> bases(num_attributes);
  for (size_t a = 0; a < num_attributes; ++a) {
    const auto& markers = schema.attributes[a].summary_type.markers;
    bases[a].reserve(markers.size());
    for (size_t m = 0; m < markers.size(); ++m) {
      embedding::Vec base = db.phrase_embedder().Represent(markers[m]);
      if (base.size() != dim) base.assign(dim, 0.0f);
      if (embedding::Norm(base) == 0.0) {
        Rng rng(spec.seed ^ (a * 131 + m + 1));
        for (auto& v : base) {
          v = static_cast<float>(rng.Gaussian(0.0, 0.3));
        }
      }
      bases[a].push_back(std::move(base));
    }
  }

  // Zipf attribute popularity, normalized.
  std::vector<double> attribute_weight(num_attributes);
  double weight_sum = 0.0;
  for (size_t a = 0; a < num_attributes; ++a) {
    attribute_weight[a] =
        1.0 / std::pow(static_cast<double>(a + 1), spec.zipf_exponent);
    weight_sum += attribute_weight[a];
  }
  for (auto& w : attribute_weight) w /= weight_sum;

  // 3. Synthesize the full-size summaries straight into a store. Per
  // entity: a latent quality q, opinion mass split across attributes by
  // the zipf weights, and a gaussian bump of mass centered at scale
  // position (1 - q) * (K - 1). Centroids are the marker bases with a
  // small jitter on the first two coordinates — an additive
  // perturbation, so per-entity cosines vary (a multiplicative one would
  // leave cosine invariant).
  core::ColumnarSummaryStore store(schema, num_entities, dim);
  fixture.quality.resize(num_entities);
  for (size_t e = 0; e < num_entities; ++e) {
    Rng rng(spec.seed ^ (kEntityStride * (e + 1)));
    const double q = rng.Uniform();
    fixture.quality[e] = q;
    const double mass =
        rng.Uniform(spec.min_opinion_mass, spec.max_opinion_mass);
    for (size_t a = 0; a < num_attributes; ++a) {
      core::AttributeColumns& cols = store.mutable_attribute(a);
      const size_t num_markers = cols.num_markers;
      if (num_markers == 0) continue;
      const double attr_mass = mass * attribute_weight[a];
      const double position =
          Clamp((1.0 - q) * static_cast<double>(num_markers - 1) +
                    rng.Gaussian(0.0, 0.35),
                0.0, static_cast<double>(num_markers - 1));
      std::vector<double> bump(num_markers);
      double bump_sum = 0.0;
      for (size_t m = 0; m < num_markers; ++m) {
        const double d = (static_cast<double>(m) - position) / 0.7;
        bump[m] = std::exp(-0.5 * d * d);
        bump_sum += bump[m];
      }
      for (size_t m = 0; m < num_markers; ++m) {
        const size_t cell = e * num_markers + m;
        const double count = attr_mass * bump[m] / bump_sum;
        // Cells below the mass floor stay zero (count, sentiment and
        // centroid), as the store was created.
        if (count <= 1e-6) continue;
        cols.count[cell] = count;
        const double polarity =
            num_markers > 1
                ? 1.0 - 2.0 * static_cast<double>(m) /
                            static_cast<double>(num_markers - 1)
                : 0.0;
        cols.mean_sentiment[cell] =
            Clamp(polarity + rng.Gaussian(0.0, 0.1), -1.0, 1.0);
        float* centroid = cols.centroid.data() + cell * dim;
        std::copy(bases[a][m].begin(), bases[a][m].end(), centroid);
        centroid[0] += static_cast<float>(rng.Gaussian(0.0, 0.05));
        if (dim > 1) {
          centroid[1] += static_cast<float>(rng.Gaussian(0.0, 0.05));
        }
      }
      cols.unmatched[e] = attr_mass * 0.05 * rng.Uniform();
    }
  }
  Status installed = db.InstallSummaries(std::move(store));
  (void)installed;

  // 4. Full-size objective table, one row per entity in id order.
  Status table_status = db.SetObjectiveTable(ScaledObjectiveTable(fixture));
  (void)table_status;

  // 5. Membership model, trained on tuples whose labels come from the
  // synthesis ground truth: a marker is "true" of an entity when it sits
  // within one step of the entity's expected scale position.
  if (spec.membership_tuples > 0) {
    Rng rng(spec.seed + 3);
    std::vector<core::MembershipModel::LabeledTuple> tuples;
    tuples.reserve(spec.membership_tuples);
    for (size_t i = 0; i < spec.membership_tuples; ++i) {
      const size_t a = rng.Below(num_attributes);
      const auto& markers = schema.attributes[a].summary_type.markers;
      if (markers.empty()) continue;
      const size_t m = rng.Below(markers.size());
      const size_t e = rng.Below(num_entities);
      const embedding::Vec rep = db.phrase_embedder().Represent(markers[m]);
      const double senti = db.analyzer().ScorePhrase(markers[m]);
      core::MembershipModel::LabeledTuple tuple;
      tuple.features.resize(core::kMembershipFeatureDim);
      const std::vector<double> query(rep.begin(), rep.end());
      core::MarkerFeatures<0>(db.columnar_store()->attribute(a), e, m,
                              query.data(), embedding::Norm(rep), senti,
                              tuple.features.data());
      const double expected =
          (1.0 - fixture.quality[e]) * static_cast<double>(markers.size() - 1);
      tuple.label =
          std::abs(static_cast<double>(m) - expected) <= 1.0 ? 1 : 0;
      tuples.push_back(std::move(tuple));
    }
    Status trained = db.TrainMembership(tuples, spec.seed + 4);
    (void)trained;
  }

  for (size_t a = 0; a < num_attributes; ++a) {
    for (const auto& marker : schema.attributes[a].summary_type.markers) {
      fixture.subjective_predicates.push_back(marker);
    }
  }
  fixture.table_name = schema.objective_table;
  return fixture;
}

}  // namespace opinedb::datagen
