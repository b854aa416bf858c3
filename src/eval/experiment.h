#ifndef OPINEDB_EVAL_EXPERIMENT_H_
#define OPINEDB_EVAL_EXPERIMENT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/attribute_baseline.h"
#include "baselines/gz12.h"
#include "core/engine.h"
#include "datagen/generator.h"
#include "datagen/queries.h"

namespace opinedb::eval {

/// Everything one experiment domain needs: the synthetic ground truth,
/// the built engine, the predicate pool and the baselines.
struct DomainArtifacts {
  datagen::SyntheticDomain domain;
  std::unique_ptr<core::OpineDb> db;
  std::vector<datagen::QueryPredicate> pool;
  std::unique_ptr<baselines::Gz12Ranker> gz12;
  std::unique_ptr<baselines::AttributeBaseline> attribute_baseline;
};

/// End-to-end build of one domain: generate the corpus, train the
/// extractor on labeled sentences, build the engine, train the membership
/// model from latent-quality labels, and construct the baselines.
struct BuildOptions {
  datagen::GeneratorOptions generator;
  size_t extractor_training_sentences = 600;
  size_t predicate_pool_size = 190;
  size_t membership_training_tuples = 1000;
  core::EngineOptions engine;
  uint64_t seed = 42;
};

/// Builds artifacts for the hotel or restaurant domain.
DomainArtifacts BuildArtifacts(const datagen::DomainSpec& spec,
                               const BuildOptions& options);

/// Labeled membership tuples sampled from the predicate pool and the
/// latent ground truth, computed through the same feature path the engine
/// uses at query time (markers or no-markers, per the engine's
/// use_markers).
std::vector<core::MembershipModel::LabeledTuple> MakeMembershipTuples(
    const core::OpineDb& db, const datagen::SyntheticDomain& domain,
    const std::vector<datagen::QueryPredicate>& pool, size_t count,
    uint64_t seed);

/// Trains an opinion tagger for a spec.
extract::OpinionTagger TrainExtractor(const datagen::DomainSpec& spec,
                                      size_t sentences, uint64_t seed);

/// Evaluates a ranking (entity ids, best first) against the ground-truth
/// sat labels of the given predicates: returns sat(Q,E) / sat-max(Q).
double RankingQuality(const datagen::SyntheticDomain& domain,
                      const std::vector<datagen::QueryPredicate>& predicates,
                      const std::vector<int32_t>& ranking, size_t k);

/// Like RankingQuality but normalized by the best ranking available
/// among `eligible` entities only (objective-condition workloads).
double RankingQualityFiltered(
    const datagen::SyntheticDomain& domain,
    const std::vector<datagen::QueryPredicate>& predicates,
    const std::vector<int32_t>& ranking, const std::vector<int32_t>& eligible,
    size_t k);

/// Entities passing an objective filter, e.g. city == london.
std::vector<int32_t> EligibleEntities(
    const datagen::SyntheticDomain& domain,
    const std::function<bool(const datagen::SyntheticEntity&)>& filter);

}  // namespace opinedb::eval

#endif  // OPINEDB_EVAL_EXPERIMENT_H_
