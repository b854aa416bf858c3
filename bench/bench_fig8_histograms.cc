// Reproduces Appendix D / Figure 8: for the query "quiet room", compare
// the quietness marker summary of the top hotel returned by the IR
// baseline with the top hotel returned by OpineDB. The IR winner's
// histogram contains contradicting negative mass (its reviews *mention*
// quietness words a lot, including "noisy"); OpineDB's winner is cleanly
// concentrated on the positive markers.
#include <cstdio>

#include "bench_common.h"
#include "datagen/domain_spec.h"

namespace opinedb {
namespace {

void PrintHistogram(const char* title, const core::OpineDb& db,
                    size_t attribute, text::EntityId entity) {
  printf("%s\n", title);
  const auto& markers = db.schema().attributes[attribute].summary_type.markers;
  for (size_t m = 0; m < markers.size(); ++m) {
    const double count = db.columnar_store()->count(attribute, entity, m);
    printf("  %-14s %6.1f  ", markers[m].c_str(), count);
    const int bars = static_cast<int>(count);
    for (int b = 0; b < bars && b < 60; ++b) printf("#");
    printf("\n");
  }
}

}  // namespace
}  // namespace opinedb

int main() {
  using namespace opinedb;
  auto artifacts = eval::BuildArtifacts(datagen::HotelDomain(),
                                        bench::HotelBuildOptions());
  const auto& db = *artifacts.db;
  const int attr = db.schema().AttributeIndex("quietness");
  if (attr < 0) {
    printf("quietness attribute missing\n");
    return 1;
  }
  const std::string query = "quiet street";

  // IR baseline winner.
  auto ir = artifacts.gz12->Rank({query}, 1);
  // OpineDB winner.
  auto result = db.Execute("select * from hotels where \"" + query +
                           "\" limit 1");
  if (ir.empty() || !result.ok() || result->results.empty()) {
    printf("no results\n");
    return 1;
  }
  const auto ir_winner = static_cast<text::EntityId>(ir[0].doc);
  const auto opine_winner = result->results[0].entity;

  printf("Figure 8: quietness summaries of the top hotel for \"%s\".\n\n",
         query.c_str());
  char title[128];
  snprintf(title, sizeof(title), "IR baseline winner: %s (latent quietness "
                                 "%.2f)",
           db.corpus().entity_name(ir_winner).c_str(),
           artifacts.domain.entities[ir_winner].quality[attr]);
  PrintHistogram(title, db, attr, ir_winner);
  printf("\n");
  snprintf(title, sizeof(title), "OpineDB winner: %s (latent quietness "
                                 "%.2f)",
           db.corpus().entity_name(opine_winner).c_str(),
           artifacts.domain.entities[opine_winner].quality[attr]);
  PrintHistogram(title, db, attr, opine_winner);

  // The figure's claim, quantified: fraction of negative-marker mass.
  auto negative_fraction = [&](text::EntityId entity) {
    const auto& summaries = *db.columnar_store();
    const auto& markers = db.schema().attributes[attr].summary_type.markers;
    double negative = 0.0;
    const double total = summaries.total(attr, entity);
    for (size_t m = 0; m < markers.size(); ++m) {
      if (db.analyzer().ScorePhrase(markers[m]) < 0.0) {
        negative += summaries.count(attr, entity, m);
      }
    }
    return total > 0.0 ? negative / total : 0.0;
  };
  printf("\nNegative-marker mass: IR winner %.2f vs OpineDB winner %.2f\n",
         negative_fraction(ir_winner), negative_fraction(opine_winner));
  printf("Expected shape: the IR winner carries contradicting negative "
         "mass; OpineDB's does not.\n");
  return 0;
}
