// Voyageur: a miniature experiential travel search session (the paper's
// Section 7 application, powered by OpineDB). Demonstrates the
// forward-looking features on top of the core engine:
//   * user profiles re-ranking results by what this traveler cares about,
//   * expectation mining ("an expensive hotel with dirty rooms is worth
//     pointing out"),
//   * precomputed degrees of truth (Section 3.3) for a hot query, and
//   * persisting the subjective database to disk and reloading it.
//
// Also a checked smoke test (ctest examples.voyageur): it exits 1 unless
// the hot query answers identically cold and from precomputed lists,
// with both conditions served from the lists.
#include <cstdio>
#include <sstream>

#include "core/personalize.h"
#include "core/serialize.h"
#include "datagen/domain_spec.h"
#include "embedding/io.h"
#include "eval/experiment.h"

using namespace opinedb;

int main() {
  eval::BuildOptions options;
  options.generator.num_entities = 60;
  options.generator.seed = 31;
  options.seed = 31;
  printf("Voyageur: building the travel subjective database...\n\n");
  auto artifacts = eval::BuildArtifacts(datagen::HotelDomain(), options);
  auto& db = *artifacts.db;

  // A base experiential query.
  const char* sql =
      "select * from hotels where \"clean room\" and \"comfortable bed\" "
      "limit 5";
  printf("Query: %s\n", sql);
  auto result = db.Execute(sql);
  if (!result.ok()) {
    printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  for (const auto& r : result->results) {
    printf("  %-12s %.3f\n", r.entity_name.c_str(), r.score);
  }

  // The same traveler cares mostly about nightlife: personalize.
  printf("\nSame results re-ranked for a nightlife-focused traveler:\n");
  auto profile = core::UserProfile::FromWeights(
      db, {{"bar_nightlife", 1.0}, {"quietness", 0.1}});
  for (const auto& r :
       core::PersonalizeResults(db, profile, result->results, 0.5)) {
    printf("  %-12s %.3f (affinity %.3f)\n", r.entity_name.c_str(),
           r.score, core::ProfileAffinity(db, profile, r.entity));
  }

  // Expectation mining: surprises worth surfacing to the user.
  printf("\nUnexpected findings (price vs experience):\n");
  auto findings = core::FindUnexpected(
      db, artifacts.domain.objective_table, "price_pn", 3);
  if (findings.ok()) {
    for (const auto& finding : *findings) {
      printf("  %s\n", finding.description.c_str());
    }
  }

  // Precomputed degrees for a hot query: the same conjunction answered
  // cold (interpret + score every entity), then from lists precomputed
  // for both conditions.
  const char* hot_sql =
      "select * from hotels where \"friendly staff\" and "
      "\"delicious breakfast\" limit 3";
  printf("\nHot query, cold and from precomputed degree lists:\n  %s\n",
         hot_sql);
  auto cold = db.Execute(hot_sql);
  const size_t lists =
      db.PrecomputeDegrees({"friendly staff", "delicious breakfast"});
  auto served = db.Execute(hot_sql);
  if (!cold.ok() || !served.ok()) {
    const Status& failed = cold.ok() ? served.status() : cold.status();
    printf("error: %s\n", failed.ToString().c_str());
    return 1;
  }
  for (const auto& r : served->results) {
    printf("  %-12s %.3f\n", r.entity_name.c_str(), r.score);
  }
  printf("  (%zu lists; %zu of 2 conditions served from them)\n", lists,
         served->stats.cache_hits);
  bool same = cold->results.size() == served->results.size();
  for (size_t i = 0; same && i < cold->results.size(); ++i) {
    same = cold->results[i].entity == served->results[i].entity &&
           cold->results[i].score == served->results[i].score;
  }
  if (!same || served->stats.cache_hits != 2) {
    printf("error: the precomputed answer differs from the cold one, or "
           "a condition was not served from its list\n");
    return 1;
  }

  // Persist and reload the queryable state.
  std::stringstream schema_file, embeddings_file;
  const std::string summaries_file =
      core::EncodeSummaries(*db.columnar_store());
  if (core::SaveSchema(db.schema(), &schema_file).ok() &&
      embedding::SaveEmbeddings(db.embeddings(), &embeddings_file).ok()) {
    auto schema = core::LoadSchema(&schema_file);
    auto summaries =
        schema.ok() ? core::DecodeSummaries(*schema, summaries_file)
                    : Result<core::ColumnarSummaryStore>(schema.status());
    auto embeddings = embedding::LoadEmbeddings(&embeddings_file);
    printf("\nPersisted + reloaded: schema %s, summaries %s, embeddings "
           "%s (%zu words).\n",
           schema.ok() ? "ok" : "FAILED",
           summaries.ok() ? "ok" : "FAILED",
           embeddings.ok() ? "ok" : "FAILED",
           embeddings.ok() ? embeddings->size() : 0);
  }
  return 0;
}
