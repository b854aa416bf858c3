#include "core/personalize.h"

#include <algorithm>
#include <cmath>

#include "core/columnar.h"

namespace opinedb::core {

namespace {

/// Fraction of a summary's mass lying on positive-sentiment markers,
/// discounted by evidence volume (one phrase is weak evidence).
double PositiveMass(const OpineDb& db, size_t attribute,
                    text::EntityId entity) {
  const ColumnarSummaryStore& store = *db.columnar_store();
  const double total = store.total(attribute, entity);
  if (total <= 0.0) return 0.0;
  const auto& markers = db.schema().attributes[attribute].summary_type.markers;
  double positive = 0.0;
  for (size_t m = 0; m < markers.size(); ++m) {
    if (db.analyzer().ScorePhrase(markers[m]) > 0.0) {
      positive += store.count(attribute, entity, m);
    }
  }
  const double fraction = positive / total;
  const double support = -std::expm1(-0.4 * total);
  return fraction * support;
}

}  // namespace

UserProfile UserProfile::FromWeights(
    const OpineDb& db,
    const std::vector<std::pair<std::string, double>>& weights) {
  UserProfile profile;
  profile.attribute_weights.assign(db.schema().num_attributes(), 0.0);
  for (const auto& [name, weight] : weights) {
    const int attribute = db.schema().AttributeIndex(name);
    if (attribute >= 0) {
      profile.attribute_weights[attribute] =
          std::clamp(weight, 0.0, 1.0);
    }
  }
  return profile;
}

double ProfileAffinity(const OpineDb& db, const UserProfile& profile,
                       text::EntityId entity) {
  double weighted = 0.0;
  double weight_sum = 0.0;
  const size_t n = std::min(profile.attribute_weights.size(),
                            db.schema().num_attributes());
  for (size_t a = 0; a < n; ++a) {
    const double w = profile.attribute_weights[a];
    if (w <= 0.0) continue;
    weighted += w * PositiveMass(db, a, entity);
    weight_sum += w;
  }
  return weight_sum > 0.0 ? weighted / weight_sum : 0.0;
}

std::vector<RankedResult> PersonalizeResults(
    const OpineDb& db, const UserProfile& profile,
    const std::vector<RankedResult>& results, double blend) {
  std::vector<RankedResult> personalized = results;
  for (auto& result : personalized) {
    const double affinity = ProfileAffinity(db, profile, result.entity);
    result.score = (1.0 - blend) * result.score + blend * affinity;
  }
  std::sort(personalized.begin(), personalized.end(),
            [](const RankedResult& a, const RankedResult& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.entity < b.entity;
            });
  return personalized;
}

Result<std::vector<UnexpectedFinding>> FindUnexpected(
    const OpineDb& db, const storage::Table& objective,
    const std::string& column, size_t k) {
  const int col = objective.ColumnIndex(column);
  if (col < 0) return Status::NotFound("column " + column);
  const size_t n = objective.num_rows();
  if (n != db.corpus().num_entities()) {
    return Status::InvalidArgument(
        "objective table rows must match entities");
  }
  // Percentile of the numeric column per entity.
  std::vector<double> values(n);
  for (size_t e = 0; e < n; ++e) {
    const auto& cell = objective.at(e, col);
    if (cell.is_null() || cell.type() == storage::ValueType::kString) {
      return Status::InvalidArgument("column " + column +
                                     " must be numeric");
    }
    values[e] = cell.AsNumber();
  }
  std::vector<double> percentile(n);
  for (size_t e = 0; e < n; ++e) {
    size_t below = 0;
    for (size_t other = 0; other < n; ++other) {
      if (values[other] < values[e]) ++below;
    }
    percentile[e] = n > 1 ? static_cast<double>(below) /
                                static_cast<double>(n - 1)
                          : 0.5;
  }

  std::vector<UnexpectedFinding> findings;
  for (size_t e = 0; e < n; ++e) {
    for (size_t a = 0; a < db.schema().num_attributes(); ++a) {
      // Too little evidence.
      if (db.columnar_store()->total(a, e) < 3.0) continue;
      UnexpectedFinding finding;
      finding.entity = static_cast<text::EntityId>(e);
      finding.attribute = static_cast<int>(a);
      finding.objective_percentile = percentile[e];
      finding.subjective_score = PositiveMass(db, a, finding.entity);
      finding.surprise =
          finding.objective_percentile - finding.subjective_score;
      const auto& name = db.corpus().entity_name(finding.entity);
      const auto& attribute = db.schema().attributes[a].name;
      if (finding.surprise > 0.0) {
        finding.description = name + " is at the " +
                              std::to_string(static_cast<int>(
                                  100 * finding.objective_percentile)) +
                              "th " + column + " percentile but reviews " +
                              "rate its " + attribute + " poorly";
      } else {
        finding.description = name + " is at the " +
                              std::to_string(static_cast<int>(
                                  100 * finding.objective_percentile)) +
                              "th " + column + " percentile yet reviews " +
                              "praise its " + attribute;
      }
      findings.push_back(std::move(finding));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const UnexpectedFinding& a, const UnexpectedFinding& b) {
              return std::abs(a.surprise) > std::abs(b.surprise);
            });
  if (findings.size() > k) findings.resize(k);
  return findings;
}

}  // namespace opinedb::core
