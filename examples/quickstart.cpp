// Quickstart: build a tiny subjective database from a handful of raw
// reviews and run a subjective SQL query against it.
//
//   $ ./examples/quickstart
//
// This walks the full pipeline on toy data: train an opinion extractor,
// build the engine (embeddings, attribute classifier, marker summaries),
// register an objective table, and execute subjective SQL.
#include <cstdio>

#include "core/engine.h"
#include "datagen/domain_spec.h"
#include "datagen/generator.h"

using namespace opinedb;

int main() {
  // 1. Raw review data: three hotels with very different characters.
  text::ReviewCorpus corpus;
  auto grand = corpus.AddEntity("grand_plaza");
  auto budget = corpus.AddEntity("budget_inn");
  auto boutique = corpus.AddEntity("boutique_belle");
  struct Seeded {
    text::EntityId entity;
    const char* body;
  } reviews[] = {
      {grand, "the room was spotless. the staff was exceptional. "
              "the bathroom was luxurious."},
      {grand, "very clean sheets and a very comfortable bed. "
              "the service was very friendly."},
      {grand, "spotless carpet. the concierge was helpful. "
              "it felt like a romantic getaway."},
      {budget, "the carpet was filthy and the staff was rude. "
               "the mattress was lumpy."},
      {budget, "dirty room. the shower was dated. noisy street."},
      {budget, "the sheets were stained. the reception was unhelpful. "
               "cheap rate though."},
      {boutique, "the bathroom was modern and the room was clean. "
                 "the bed was firm."},
      {boutique, "stylish shower, tidy room, polite staff."},
      {boutique, "the lounge was lively and the street was quiet."},
  };
  // Each review is observed several times (different reviewers saying
  // similar things) so the tiny corpus still trains usable embeddings.
  int date = 0;
  for (int copy = 0; copy < 6; ++copy) {
    for (const auto& r : reviews) {
      corpus.AddReview(r.entity, /*reviewer=*/date % 9, /*date=*/date,
                       r.body);
      ++date;
    }
  }

  // 2. The designer's schema: attributes, seeds, markers. We reuse the
  //    hotel domain spec's schema as the designer's input.
  core::SubjectiveSchema schema =
      datagen::SchemaFromSpec(datagen::HotelDomain());

  // 3. Train an extractor (here: on synthetic labeled sentences; a real
  //    deployment labels a few hundred review sentences, Section 4.1).
  auto labeled =
      datagen::GenerateLabeledSentences(datagen::HotelDomain(), 400, 1);
  extract::ExtractionPipeline pipeline(
      extract::OpinionTagger::Train(labeled));

  // 4. Build the subjective database. Tiny corpus => tiny w2v model.
  core::EngineOptions options;
  options.w2v.min_count = 1;
  options.w2v.epochs = 25;
  auto db = core::OpineDb::Build(corpus, schema, pipeline, options);

  // 5. Objective table (row i == entity i).
  storage::Table hotels("hotels", {{"name", storage::ValueType::kString},
                                   {"price_pn", storage::ValueType::kInt}});
  (void)hotels.Append({storage::Value(std::string("grand_plaza")),
                       storage::Value(int64_t{320})});
  (void)hotels.Append({storage::Value(std::string("budget_inn")),
                       storage::Value(int64_t{70})});
  (void)hotels.Append({storage::Value(std::string("boutique_belle")),
                       storage::Value(int64_t{150})});
  Status status = db->SetObjectiveTable(hotels);
  if (!status.ok()) {
    printf("error: %s\n", status.ToString().c_str());
    return 1;
  }

  // 6. Subjective SQL.
  const char* sql =
      "select * from hotels where price_pn < 400 and "
      "\"really clean rooms\" and \"friendly staff\" limit 3";
  printf("Query: %s\n\n", sql);
  auto result = db->Execute(sql);
  if (!result.ok()) {
    printf("error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  printf("%-18s %s\n", "hotel", "degree of truth");
  for (const auto& r : result->results) {
    printf("%-18s %.3f\n", r.entity_name.c_str(), r.score);
  }

  // 7. Evidence: the cleanliness marker summary behind the top answer.
  const int attr = db->schema().AttributeIndex("room_cleanliness");
  if (attr >= 0 && !result->results.empty()) {
    printf("\nroom_cleanliness summary of %s: %s\n",
           result->results[0].entity_name.c_str(),
           db->columnar_store()
               ->Histogram(db->schema().attributes[attr].summary_type, attr,
                           result->results[0].entity)
               .c_str());
  }
  return 0;
}
