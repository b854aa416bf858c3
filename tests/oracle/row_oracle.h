// Row-path reference for OpineDB scoring. The engine scores every
// subjective condition with core::ConditionScorer, a sweep over the
// columnar summary mirror; this oracle computes the same degrees one
// entity at a time from the MarkerSummary objects (or the extracted
// phrases) through core::MembershipFeatures, and evaluates objective
// leaves with BoundColumnPredicate::Matches on the source table. The
// `scale` suite requires raw-double equality between the two.
#ifndef OPINEDB_TESTS_ORACLE_ROW_ORACLE_H_
#define OPINEDB_TESTS_ORACLE_ROW_ORACLE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "storage/table.h"

namespace opinedb::oracle {

/// One subjective predicate, interpreted and embedded the way the
/// engine's query prologue does it, scored per entity over row objects.
class RowPredicate {
 public:
  RowPredicate(const core::OpineDb& db, std::string predicate);

  /// Degree of truth for one entity: the text-retrieval score when the
  /// predicate is uninterpretable, otherwise the per-atom membership
  /// degrees folded in atom order with the interpretation's connective.
  double Degree(text::EntityId entity) const;

  const core::PredicateInterpretation& interpretation() const {
    return interpretation_;
  }

 private:
  double AtomDegree(const core::AtomInterpretation& atom,
                    text::EntityId entity) const;

  const core::OpineDb* db_;
  std::string predicate_;
  core::PredicateInterpretation interpretation_;
  embedding::Vec rep_;
  double sentiment_ = 0.0;
};

/// Ranks per-entity WHERE scores the way the engine answers: entities
/// scoring <= 0 dropped, score descending then entity id ascending, cut
/// at `limit`, names from the corpus.
std::vector<core::RankedResult> Rank(const core::OpineDb& db,
                                     const std::vector<double>& scores,
                                     size_t limit);

/// Whole answer of one subjective SQL statement: every entity scored
/// against every condition (subjective leaves through RowPredicate,
/// objective leaves through Matches on `table`, the rows the engine's
/// objective table was registered from), combined with the WHERE tree,
/// then ranked by Rank.
Result<std::vector<core::RankedResult>> Execute(const core::OpineDb& db,
                                                const storage::Table& table,
                                                const std::string& sql);

}  // namespace opinedb::oracle

#endif  // OPINEDB_TESTS_ORACLE_ROW_ORACLE_H_
