// Experiential hotel search: builds a full synthetic hotel domain (the
// Booking.com stand-in), trains every model end-to-end, and answers a set
// of experiential queries — including one interpreted via co-occurrence
// ("romantic getaway") and one only text retrieval can answer ("good for
// motorcyclists") — printing the interpretation each predicate received.
#include <cstdio>

#include "datagen/domain_spec.h"
#include "eval/experiment.h"

using namespace opinedb;

namespace {

const char* MethodName(core::InterpretMethod method) {
  switch (method) {
    case core::InterpretMethod::kWord2Vec:
      return "word2vec";
    case core::InterpretMethod::kCooccurrence:
      return "co-occurrence";
    case core::InterpretMethod::kTextFallback:
      return "text retrieval";
  }
  return "?";
}

void RunQuery(const core::OpineDb& db, const std::string& sql) {
  printf("----------------------------------------------------------\n");
  printf("Query: %s\n", sql.c_str());
  auto result = db.Execute(sql);
  if (!result.ok()) {
    printf("  error: %s\n", result.status().ToString().c_str());
    return;
  }
  // How each subjective predicate was interpreted.
  auto parsed = core::ParseSubjectiveSql(sql);
  for (size_t c = 0; c < result->interpretations.size(); ++c) {
    if (parsed.ok() &&
        parsed->conditions[c].kind != core::Condition::Kind::kSubjective) {
      continue;
    }
    const auto& interpretation = result->interpretations[c];
    printf("  \"%s\" -> %s", parsed->conditions[c].subjective.c_str(),
           MethodName(interpretation.method));
    for (const auto& atom : interpretation.atoms) {
      printf("  %s.\"%s\"",
             db.schema().attributes[atom.attribute].name.c_str(),
             db.schema()
                 .attributes[atom.attribute]
                 .summary_type.markers[atom.marker]
                 .c_str());
    }
    printf("\n");
  }
  printf("  %-14s %s\n", "hotel", "degree of truth");
  for (const auto& r : result->results) {
    printf("  %-14s %.3f\n", r.entity_name.c_str(), r.score);
  }
}

}  // namespace

int main() {
  eval::BuildOptions options;
  options.generator.num_entities = 60;
  options.generator.min_reviews_per_entity = 20;
  options.generator.max_reviews_per_entity = 40;
  printf("Building the hotel subjective database "
         "(extractor, embeddings, summaries, membership model)...\n");
  auto artifacts = eval::BuildArtifacts(datagen::HotelDomain(), options);
  const auto& db = *artifacts.db;
  printf("Built: %zu hotels, %zu reviews, %zu extracted opinions.\n\n",
         db.corpus().num_entities(), db.corpus().num_reviews(),
         db.tables().extractions.size());

  RunQuery(db,
           "select * from hotels where city = 'london' and price_pn < 300 "
           "and \"really clean rooms\" and \"friendly staff\" limit 5");
  RunQuery(db,
           "select * from hotels where \"romantic getaway\" limit 5");
  RunQuery(db,
           "select * from hotels where \"quiet street\" and "
           "(\"lively bar\" or \"delicious breakfast\") limit 5");
  RunQuery(db, "select * from hotels where \"good for motorcyclists\" "
               "limit 5");

  // Provenance: why was the top romantic hotel returned?
  auto romantic = db.Execute(
      "select * from hotels where \"romantic getaway\" limit 1");
  if (romantic.ok() && !romantic->results.empty()) {
    const auto winner = romantic->results[0].entity;
    const int service = db.schema().AttributeIndex("staff_service");
    const auto& summaries = *db.columnar_store();
    printf("\nEvidence for %s:\n  staff_service summary %s\n",
           romantic->results[0].entity_name.c_str(),
           summaries
               .Histogram(db.schema().attributes[service].summary_type,
                          service, winner)
               .c_str());
    const auto provenance = summaries.Provenance(service, winner, 0);
    if (!provenance.empty()) {
      const auto& review = db.corpus().review(provenance[0]);
      printf("  sample supporting review: \"%.90s...\"\n",
             review.body.c_str());
    }
  }
  return 0;
}
