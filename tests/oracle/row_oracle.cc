#include "oracle/row_oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/membership.h"
#include "core/query.h"

namespace opinedb::oracle {

RowPredicate::RowPredicate(const core::OpineDb& db, std::string predicate)
    : db_(&db),
      predicate_(std::move(predicate)),
      interpretation_(db.interpreter().Interpret(predicate_)),
      rep_(db.phrase_embedder().Represent(predicate_)),
      sentiment_(db.analyzer().ScorePhrase(predicate_)) {}

double RowPredicate::AtomDegree(const core::AtomInterpretation& atom,
                                text::EntityId entity) const {
  const auto attribute = static_cast<size_t>(atom.attribute);
  const std::vector<double> features =
      db_->options().use_markers
          ? core::MembershipFeatures(db_->summary(attribute, entity),
                                     atom.marker, rep_, sentiment_)
          : core::MembershipFeaturesNoMarkers(
                db_->PhrasesOf(attribute, entity), db_->phrase_embedder(),
                rep_, sentiment_);
  const double d =
      db_->has_membership_model()
          ? db_->membership_model().DegreeOfTruth(features)
          : core::HeuristicMembershipDegree(features.data(),
                                            features.size());
  if (!std::isfinite(d)) return 0.0;
  return std::clamp(d, 0.0, 1.0);
}

double RowPredicate::Degree(text::EntityId entity) const {
  if (interpretation_.method == core::InterpretMethod::kTextFallback ||
      interpretation_.atoms.empty()) {
    return db_->TextFallbackDegree(predicate_, entity);
  }
  const fuzzy::Variant variant = db_->options().variant;
  double acc = 0.0;
  bool first = true;
  for (const auto& atom : interpretation_.atoms) {
    const double d = AtomDegree(atom, entity);
    if (first) {
      acc = d;
      first = false;
    } else if (interpretation_.conjunctive) {
      acc = fuzzy::And(variant, acc, d);
    } else {
      acc = fuzzy::Or(variant, acc, d);
    }
  }
  return acc;
}

std::vector<core::RankedResult> Rank(const core::OpineDb& db,
                                     const std::vector<double>& scores,
                                     size_t limit) {
  std::vector<core::RankedResult> ranked;
  for (size_t e = 0; e < scores.size(); ++e) {
    if (scores[e] <= 0.0) continue;
    core::RankedResult result;
    result.entity = static_cast<text::EntityId>(e);
    result.entity_name = db.corpus().entity_name(result.entity);
    result.score = scores[e];
    ranked.push_back(std::move(result));
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const core::RankedResult& a, const core::RankedResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  if (ranked.size() > limit) ranked.resize(limit);
  return ranked;
}

Result<std::vector<core::RankedResult>> Execute(const core::OpineDb& db,
                                                const storage::Table& table,
                                                const std::string& sql) {
  auto query = core::ParseSubjectiveSql(sql);
  if (!query.ok()) return query.status();
  const size_t n = db.corpus().num_entities();
  std::vector<std::vector<double>> leaves(query->conditions.size(),
                                          std::vector<double>(n, 0.0));
  for (size_t c = 0; c < query->conditions.size(); ++c) {
    const core::Condition& condition = query->conditions[c];
    if (condition.kind == core::Condition::Kind::kSubjective) {
      const RowPredicate predicate(db, condition.subjective);
      for (size_t e = 0; e < n; ++e) {
        leaves[c][e] = predicate.Degree(static_cast<text::EntityId>(e));
      }
    } else {
      auto bound = condition.objective.Bind(table);
      if (!bound.ok()) return bound.status();
      for (size_t e = 0; e < n; ++e) {
        leaves[c][e] = bound->Matches(table, e) ? 1.0 : 0.0;
      }
    }
  }
  std::vector<double> scores(n, 1.0);
  if (query->where != nullptr) {
    for (size_t e = 0; e < n; ++e) {
      scores[e] = query->where->Evaluate(
          db.options().variant, [&](size_t c) { return leaves[c][e]; });
    }
  }
  return Rank(db, scores, query->limit);
}

}  // namespace opinedb::oracle
