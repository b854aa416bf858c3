// An interactive subjective-SQL shell over a synthetic hotel domain.
//
//   $ ./examples/opinedb_shell
//   opinedb> select * from hotels where "clean room" limit 5
//   opinedb> \schema
//   opinedb> \summary hotel_003 room_cleanliness
//   opinedb> \explain romantic getaway
//   opinedb> \quit
//
// Reads from stdin (pipe a script for non-interactive use); exits on EOF.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

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

void PrintHelp() {
  printf(
      "Commands:\n"
      "  select * from hotels where ... — run subjective SQL\n"
      "  \\schema                        — list subjective attributes\n"
      "  \\entities [n]                  — list entities\n"
      "  \\summary <entity> <attribute>  — show a marker summary\n"
      "  \\explain <predicate>           — show how a predicate is "
      "interpreted\n"
      "  \\help                          — this text\n"
      "  \\quit                          — exit\n");
}

void ShowSchema(const core::OpineDb& db) {
  for (const auto& attribute : db.schema().attributes) {
    printf("  %-18s %-11s markers:", attribute.name.c_str(),
           attribute.summary_type.kind ==
                   core::SummaryKind::kLinearlyOrdered
               ? "linear"
               : "categorical");
    for (const auto& marker : attribute.summary_type.markers) {
      printf(" [%s]", marker.c_str());
    }
    printf("  (%zu variations)\n", attribute.linguistic_domain.size());
  }
}

void ShowEntities(const core::OpineDb& db, size_t n) {
  for (size_t e = 0; e < db.corpus().num_entities() && e < n; ++e) {
    printf("  %-14s %zu reviews\n",
           db.corpus().entity_name(static_cast<text::EntityId>(e)).c_str(),
           db.corpus().entity_reviews(static_cast<text::EntityId>(e))
               .size());
  }
}

void ShowSummary(const core::OpineDb& db, const std::string& entity_name,
                 const std::string& attribute_name) {
  const int attribute = db.schema().AttributeIndex(attribute_name);
  if (attribute < 0) {
    printf("unknown attribute: %s\n", attribute_name.c_str());
    return;
  }
  for (size_t e = 0; e < db.corpus().num_entities(); ++e) {
    const auto entity = static_cast<text::EntityId>(e);
    if (db.corpus().entity_name(entity) != entity_name) continue;
    const auto& summaries = *db.columnar_store();
    const auto& type = db.schema().attributes[attribute].summary_type;
    printf("  %s\n", summaries.Histogram(type, attribute, e).c_str());
    // Evidence: one supporting review per populated marker.
    for (size_t m = 0; m < type.num_markers(); ++m) {
      const auto provenance = summaries.Provenance(attribute, e, m);
      if (provenance.empty()) continue;
      const auto& review = db.corpus().review(provenance[0]);
      printf("  [%s] e.g.: \"%.70s...\"\n", type.markers[m].c_str(),
             review.body.c_str());
    }
    return;
  }
  printf("unknown entity: %s\n", entity_name.c_str());
}

void Explain(const core::OpineDb& db, const std::string& predicate) {
  const auto interpretation = db.interpreter().Interpret(predicate);
  printf("  method: %s\n", MethodName(interpretation.method));
  for (const auto& atom : interpretation.atoms) {
    printf("  -> %s.\"%s\" (score %.3f)\n",
           db.schema().attributes[atom.attribute].name.c_str(),
           db.schema()
               .attributes[atom.attribute]
               .summary_type.markers[atom.marker]
               .c_str(),
           atom.score);
  }
  if (interpretation.atoms.size() > 1) {
    printf("  combined with %s\n",
           interpretation.conjunctive ? "AND" : "OR");
  }
}

void RunSql(const core::OpineDb& db, const std::string& sql) {
  auto result = db.Execute(sql);
  if (!result.ok()) {
    printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (!result->plan_text.empty()) {  // EXPLAIN: plan only, no execution.
    printf("%s", result->plan_text.c_str());
    return;
  }
  printf("  %-16s %s\n", "entity", "degree of truth");
  for (const auto& r : result->results) {
    printf("  %-16s %.3f\n", r.entity_name.c_str(), r.score);
  }
  if (result->results.empty()) printf("  (no results)\n");
}

}  // namespace

int main() {
  eval::BuildOptions options;
  options.generator.num_entities = 50;
  printf("Building the hotel subjective database...\n");
  auto artifacts = eval::BuildArtifacts(datagen::HotelDomain(), options);
  const auto& db = *artifacts.db;
  printf("Ready: %zu hotels, %zu reviews. Type \\help for commands.\n",
         db.corpus().num_entities(), db.corpus().num_reviews());

  std::string line;
  while (true) {
    printf("opinedb> ");
    fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    std::istringstream tokens(line);
    std::string command;
    tokens >> command;
    if (command.empty()) continue;
    if (command == "\\quit" || command == "\\q") break;
    if (command == "\\help") {
      PrintHelp();
    } else if (command == "\\schema") {
      ShowSchema(db);
    } else if (command == "\\entities") {
      size_t n = 10;
      tokens >> n;
      ShowEntities(db, n);
    } else if (command == "\\summary") {
      std::string entity, attribute;
      tokens >> entity >> attribute;
      ShowSummary(db, entity, attribute);
    } else if (command == "\\explain") {
      std::string rest;
      std::getline(tokens, rest);
      while (!rest.empty() && rest.front() == ' ') rest.erase(0, 1);
      Explain(db, rest);
    } else {
      RunSql(db, line);
    }
  }
  printf("\nbye\n");
  return 0;
}
