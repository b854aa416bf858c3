// The schema designer's workflow (Section 4): starting from raw reviews
// and a handful of seed phrases, watch OpineDB
//   1. expand the seeds with word2vec synonyms,
//   2. train the attribute classifier from the expanded cross product,
//   3. discover each attribute's linguistic domain from extractions, and
//   4. suggest markers automatically — sentiment bucketing for
//      linearly-ordered attributes, k-means medoids for categorical ones.
#include <cstdio>

#include "core/attribute_classifier.h"
#include "core/marker_induction.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"

using namespace opinedb;

int main() {
  // Build a hotel corpus but strip the designer-specified markers so the
  // engine must induce them.
  auto spec = datagen::HotelDomain();
  for (auto& attribute : spec.attributes) attribute.markers.clear();
  eval::BuildOptions options;
  options.generator.num_entities = 60;
  printf("Building (markers will be induced automatically)...\n\n");
  auto artifacts = eval::BuildArtifacts(spec, options);
  const auto& db = *artifacts.db;

  // 1. Seed expansion.
  printf("== Seed expansion (word2vec synonyms) ==\n");
  const auto& seeds = db.schema().attributes[0].seeds;
  printf("room_cleanliness aspect seeds:");
  for (const auto& seed : seeds.aspect_terms) printf(" %s", seed.c_str());
  printf("\nexpanded:");
  for (const auto& term :
       core::ExpandSeeds(seeds.aspect_terms, db.embeddings(), 3)) {
    printf(" %s", term.c_str());
  }
  printf("\n\n");

  // 2. Attribute classifier quality on a few hand-labeled pairs.
  printf("== Attribute classification of extracted pairs ==\n");
  struct Probe {
    const char* aspect;
    const char* opinion;
  } probes[] = {
      {"room", "very clean"},   {"staff", "rude"},
      {"bathroom", "luxurious"}, {"street", "noisy"},
      {"breakfast", "stale"},    {"bar", "lively"},
  };
  for (const auto& probe : probes) {
    const int attr = db.attribute_classifier().Classify(probe.aspect,
                                                        probe.opinion);
    printf("  (%s, %s) -> %s\n", probe.aspect, probe.opinion,
           db.schema().attributes[attr].name.c_str());
  }
  printf("  (training set built from %zu seed-expanded tuples)\n\n",
         db.attribute_classifier().training_set_size());

  // 3. Discovered linguistic domains.
  printf("== Discovered linguistic domains ==\n");
  for (size_t a = 0; a < db.schema().num_attributes() && a < 3; ++a) {
    const auto& attribute = db.schema().attributes[a];
    printf("  %s (%zu phrases):", attribute.name.c_str(),
           attribute.linguistic_domain.size());
    for (size_t p = 0; p < attribute.linguistic_domain.size() && p < 6;
         ++p) {
      printf(" \"%s\"", attribute.linguistic_domain[p].c_str());
    }
    printf(" ...\n");
  }
  printf("\n");

  // 4. Induced markers.
  printf("== Induced markers ==\n");
  for (const auto& attribute : db.schema().attributes) {
    printf("  %-16s (%s):",
           attribute.name.c_str(),
           attribute.summary_type.kind ==
                   core::SummaryKind::kLinearlyOrdered
               ? "linear"
               : "categorical");
    for (const auto& marker : attribute.summary_type.markers) {
      printf(" [%s]", marker.c_str());
    }
    printf("\n");
  }

  // 5. A resulting marker summary, with provenance counts.
  printf("\n== A marker summary (hotel 0, attribute 0) ==\n  %s\n",
         db.columnar_store()
             ->Histogram(db.schema().attributes[0].summary_type, 0, 0)
             .c_str());
  return 0;
}
