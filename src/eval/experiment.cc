#include "eval/experiment.h"

#include <algorithm>

#include "core/columnar.h"
#include "eval/metrics.h"

namespace opinedb::eval {

extract::OpinionTagger TrainExtractor(const datagen::DomainSpec& spec,
                                      size_t sentences, uint64_t seed) {
  auto labeled = datagen::GenerateLabeledSentences(spec, sentences, seed);
  return extract::OpinionTagger::Train(labeled);
}

std::vector<core::MembershipModel::LabeledTuple> MakeMembershipTuples(
    const core::OpineDb& db, const datagen::SyntheticDomain& domain,
    const std::vector<datagen::QueryPredicate>& pool, size_t count,
    uint64_t seed) {
  Rng rng(seed);
  std::vector<core::MembershipModel::LabeledTuple> tuples;
  tuples.reserve(count);
  const auto& embedder = db.phrase_embedder();
  for (size_t i = 0; i < count; ++i) {
    const auto& predicate = pool[rng.Below(pool.size())];
    const auto entity =
        static_cast<text::EntityId>(rng.Below(domain.entities.size()));
    // Interpret through the same path the engine uses so training and
    // inference features are distributed identically.
    auto interpretation =
        db.interpreter().InterpretWord2VecOnly(predicate.text);
    if (interpretation.atoms.empty()) continue;
    const auto& atom = interpretation.atoms[0];
    const embedding::Vec rep = embedder.Represent(predicate.text);
    const double senti = db.analyzer().ScorePhrase(predicate.text);
    core::MembershipModel::LabeledTuple tuple;
    if (db.options().use_markers) {
      tuple.features.resize(core::kMembershipFeatureDim);
      const std::vector<double> query(rep.begin(), rep.end());
      core::MarkerFeatures<0>(
          db.columnar_store()->attribute(static_cast<size_t>(atom.attribute)),
          static_cast<size_t>(entity), static_cast<size_t>(atom.marker),
          query.data(), embedding::Norm(rep), senti, tuple.features.data());
    } else {
      tuple.features = core::MembershipFeaturesNoMarkers(
          db.tables().extractions, db.PhrasesOf(atom.attribute, entity),
          embedder, rep, senti);
    }
    tuple.label =
        datagen::SatisfiesGroundTruth(domain.entities[entity], predicate)
            ? 1
            : 0;
    tuples.push_back(std::move(tuple));
  }
  return tuples;
}

DomainArtifacts BuildArtifacts(const datagen::DomainSpec& spec,
                               const BuildOptions& options) {
  DomainArtifacts artifacts;
  artifacts.domain = datagen::GenerateDomain(spec, options.generator);

  auto tagger = TrainExtractor(spec, options.extractor_training_sentences,
                               options.seed);
  extract::ExtractionPipeline pipeline(std::move(tagger));

  artifacts.db =
      core::OpineDb::Build(artifacts.domain.corpus, artifacts.domain.schema,
                           pipeline, options.engine);
  // The engine keeps its own corpus copy; keep using the domain's.
  Status status =
      artifacts.db->SetObjectiveTable(artifacts.domain.objective_table);
  (void)status;

  artifacts.pool = datagen::BuildPredicatePool(
      spec, options.predicate_pool_size, options.seed + 1);

  auto tuples = MakeMembershipTuples(
      *artifacts.db, artifacts.domain, artifacts.pool,
      options.membership_training_tuples, options.seed + 2);
  artifacts.db->TrainMembership(tuples, options.seed + 3);

  artifacts.gz12 = std::make_unique<baselines::Gz12Ranker>(
      &artifacts.db->entity_index(), &artifacts.db->embeddings());

  std::vector<std::vector<double>> site_scores;
  std::vector<double> price;
  std::vector<double> rating;
  for (const auto& entity : artifacts.domain.entities) {
    site_scores.push_back(entity.site_scores);
    price.push_back(static_cast<double>(
        entity.price != 0 ? entity.price : entity.price_range));
    rating.push_back(entity.rating);
  }
  artifacts.attribute_baseline = std::make_unique<baselines::AttributeBaseline>(
      std::move(site_scores), std::move(price), std::move(rating));
  return artifacts;
}

double RankingQuality(const datagen::SyntheticDomain& domain,
                      const std::vector<datagen::QueryPredicate>& predicates,
                      const std::vector<int32_t>& ranking, size_t k) {
  std::vector<std::vector<bool>> satisfied;
  for (size_t j = 0; j < ranking.size() && j < k; ++j) {
    std::vector<bool> row;
    row.reserve(predicates.size());
    for (const auto& predicate : predicates) {
      row.push_back(datagen::SatisfiesGroundTruth(
          domain.entities[ranking[j]], predicate));
    }
    satisfied.push_back(std::move(row));
  }
  std::vector<int> counts;
  counts.reserve(domain.entities.size());
  for (const auto& entity : domain.entities) {
    int count = 0;
    for (const auto& predicate : predicates) {
      if (datagen::SatisfiesGroundTruth(entity, predicate)) ++count;
    }
    counts.push_back(count);
  }
  const double best = SatMax(counts, k, predicates.size());
  if (best <= 0.0) return 1.0;  // Nothing satisfiable: every ranking ties.
  return SatScore(satisfied) / best;
}

double RankingQualityFiltered(
    const datagen::SyntheticDomain& domain,
    const std::vector<datagen::QueryPredicate>& predicates,
    const std::vector<int32_t>& ranking, const std::vector<int32_t>& eligible,
    size_t k) {
  std::vector<std::vector<bool>> satisfied;
  for (size_t j = 0; j < ranking.size() && j < k; ++j) {
    std::vector<bool> row;
    for (const auto& predicate : predicates) {
      row.push_back(datagen::SatisfiesGroundTruth(
          domain.entities[ranking[j]], predicate));
    }
    satisfied.push_back(std::move(row));
  }
  std::vector<int> counts;
  for (int32_t e : eligible) {
    int count = 0;
    for (const auto& predicate : predicates) {
      if (datagen::SatisfiesGroundTruth(domain.entities[e], predicate)) {
        ++count;
      }
    }
    counts.push_back(count);
  }
  const double best = SatMax(counts, k, predicates.size());
  if (best <= 0.0) return 1.0;
  return SatScore(satisfied) / best;
}

std::vector<int32_t> EligibleEntities(
    const datagen::SyntheticDomain& domain,
    const std::function<bool(const datagen::SyntheticEntity&)>& filter) {
  std::vector<int32_t> eligible;
  for (size_t e = 0; e < domain.entities.size(); ++e) {
    if (filter(domain.entities[e])) {
      eligible.push_back(static_cast<int32_t>(e));
    }
  }
  return eligible;
}

}  // namespace opinedb::eval
