#include "core/result_json.h"

#include <cstdio>

#include "common/string_util.h"
#include "core/planner.h"

namespace opinedb::core {

namespace {

/// %.17g round-trips every finite double bit-exactly, which is what
/// makes the rendered document part of the bit-identity contract.
std::string JsonDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void AppendInterpretation(const PredicateInterpretation& interp,
                          std::string* out) {
  *out += "{\"method\": ";
  JsonEscapeAppend(InterpretMethodName(interp.method), out);
  *out += ", \"confidence\": " + JsonDouble(interp.confidence);
  *out += ", \"conjunctive\": ";
  *out += interp.conjunctive ? "true" : "false";
  *out += ", \"degraded\": ";
  *out += interp.degraded ? "true" : "false";
  *out += ", \"atoms\": [";
  for (size_t i = 0; i < interp.atoms.size(); ++i) {
    const AtomInterpretation& atom = interp.atoms[i];
    if (i > 0) *out += ", ";
    *out += "{\"attribute\": " + std::to_string(atom.attribute);
    *out += ", \"marker\": " + std::to_string(atom.marker);
    *out += ", \"score\": " + JsonDouble(atom.score) + "}";
  }
  *out += "]}";
}

void AppendStats(const ExecutionStats& stats, std::string* out) {
  *out += "{\"threads_used\": " + std::to_string(stats.threads_used);
  *out += ", \"entities_scored\": " + std::to_string(stats.entities_scored);
  *out += ", \"cache_hits\": " + std::to_string(stats.cache_hits);
  *out += ", \"cache_misses\": " + std::to_string(stats.cache_misses);
  *out += ", \"result_cache_hit\": ";
  *out += stats.result_cache_hit ? "true" : "false";
  *out += ", \"interpret_ms\": " + JsonDouble(stats.interpret_ms);
  *out += ", \"scoring_ms\": " + JsonDouble(stats.scoring_ms);
  *out += ", \"rank_ms\": " + JsonDouble(stats.rank_ms);
  *out += ", \"total_ms\": " + JsonDouble(stats.total_ms) + "}";
}

}  // namespace

const char* InterpretMethodName(InterpretMethod method) {
  switch (method) {
    case InterpretMethod::kWord2Vec:
      return "word2vec";
    case InterpretMethod::kCooccurrence:
      return "cooccurrence";
    case InterpretMethod::kTextFallback:
      return "text_fallback";
  }
  return "unknown";
}

std::string ResultToJson(const QueryResult& result,
                         const ResultJsonOptions& options) {
  std::string out = "{\n  \"results\": [";
  for (size_t i = 0; i < result.results.size(); ++i) {
    const RankedResult& ranked = result.results[i];
    out += i > 0 ? ",\n    " : "\n    ";
    out += "{\"entity\": " + std::to_string(ranked.entity);
    out += ", \"name\": ";
    JsonEscapeAppend(ranked.entity_name, &out);
    out += ", \"score\": " + JsonDouble(ranked.score) + "}";
  }
  out += result.results.empty() ? "]" : "\n  ]";
  out += ",\n  \"partial\": ";
  out += result.partial ? "true" : "false";
  out += ",\n  \"degraded\": ";
  out += result.degraded ? "true" : "false";
  out += ",\n  \"watermark\": " + std::to_string(result.watermark);
  out += ",\n  \"plan\": ";
  JsonEscapeAppend(PlanKindName(result.plan), &out);
  if (!result.plan_text.empty()) {
    out += ",\n  \"plan_text\": ";
    JsonEscapeAppend(result.plan_text, &out);
  }
  if (options.include_interpretations) {
    out += ",\n  \"interpretations\": [";
    for (size_t i = 0; i < result.interpretations.size(); ++i) {
      out += i > 0 ? ",\n    " : "\n    ";
      AppendInterpretation(result.interpretations[i], &out);
    }
    out += result.interpretations.empty() ? "]" : "\n  ]";
  }
  if (options.include_stats) {
    out += ",\n  \"stats\": ";
    AppendStats(result.stats, &out);
  }
  if (options.include_trace && result.trace != nullptr) {
    out += ",\n  \"trace\": ";
    out += result.trace->ToJson();
  }
  out += "\n}\n";
  return out;
}

}  // namespace opinedb::core
