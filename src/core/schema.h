#ifndef OPINEDB_CORE_SCHEMA_H_
#define OPINEDB_CORE_SCHEMA_H_

#include <string>
#include <vector>

namespace opinedb::core {

/// Whether a marker summary's markers form a linear scale or a set of
/// categories (Section 2).
enum class SummaryKind {
  kLinearlyOrdered,
  kCategorical,
};

/// The record *type* of a marker summary: a name plus its ordered marker
/// phrases, e.g. room_cleanliness : [very_clean, average, dirty,
/// very_dirty]. The instances, one histogram per (attribute, entity),
/// live in core::ColumnarSummaryStore.
struct MarkerSummaryType {
  std::string name;
  std::vector<std::string> markers;
  SummaryKind kind = SummaryKind::kLinearlyOrdered;

  size_t num_markers() const { return markers.size(); }
  int MarkerIndex(const std::string& marker) const;
};

/// Seed phrases the schema designer provides for one subjective attribute
/// (Section 4.2): aspect terms E and opinion terms P.
struct AttributeSeeds {
  std::vector<std::string> aspect_terms;
  std::vector<std::string> opinion_terms;
};

/// A subjective attribute: its marker-summary type, its linguistic domain
/// (phrases gathered from extractions), and the designer-provided seeds.
struct SubjectiveAttribute {
  std::string name;
  MarkerSummaryType summary_type;
  /// The linguistic domain: phrases observed for this attribute. Grown by
  /// the aggregation pipeline; not enumerated in advance (Section 2).
  std::vector<std::string> linguistic_domain;
  AttributeSeeds seeds;
};

/// The user-visible schema of a subjective database (Section 2): a main
/// objective relation plus one subjective attribute per auxiliary
/// relation, all keyed by the entity.
struct SubjectiveSchema {
  /// Name of the main objective table in the storage catalog.
  std::string objective_table;
  /// Key column of the objective table (entity name).
  std::string key_column;
  std::vector<SubjectiveAttribute> attributes;

  int AttributeIndex(const std::string& name) const;
  size_t num_attributes() const { return attributes.size(); }
  /// Every marker phrase of every attribute, each once, in schema order
  /// (the "variations in the linguistic domain" whose degrees Section
  /// 3.3 precomputes).
  std::vector<std::string> Markers() const;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_SCHEMA_H_
