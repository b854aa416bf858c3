#ifndef OPINEDB_CORE_EXEC_OPS_H_
#define OPINEDB_CORE_EXEC_OPS_H_

#include <atomic>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "core/columnar.h"
#include "core/engine.h"
#include "core/planner.h"

namespace opinedb::core {

/// Shared state threaded through the physical operator chain. The
/// engine fills the borrowed pointers (query, plan, interpretation
/// prologue), then each operator reads its inputs and writes its
/// outputs here:
///
///   ObjectiveFilter : entities            -> candidates
///   SubjectiveScore : candidates          -> degrees (per condition)
///   Rank            : degrees, candidates -> output->results
struct ExecContext {
  const OpineDb* db = nullptr;
  const SubjectiveQuery* query = nullptr;
  const LogicalPlan* logical = nullptr;
  /// The objective table the query names (OpineDb::SetObjectiveTable).
  const ColumnarTable* objective = nullptr;
  /// Destination: interpretations (already filled), stats, results.
  QueryResult* output = nullptr;
  /// Per-condition query representations from the interpret prologue
  /// (indexed by condition; objective slots are defaulted).
  const std::vector<embedding::Vec>* reps = nullptr;
  const std::vector<double>* sentis = nullptr;
  /// Per-condition precomputed degree lists (OpineDb::PrecomputeDegrees)
  /// found by the prologue; nullptr where none is resident, and empty
  /// when the engine holds no lists at all.
  std::vector<const std::vector<double>*> precomputed;

  size_t num_entities = 0;
  /// Selection vector of surviving entity ids, ascending. While
  /// candidates_are_all is true the implicit set is every entity and
  /// the vector stays empty (the dense fast path keeps the exact loop
  /// shapes of the pre-planner engine, preserving bit-identity).
  std::vector<size_t> candidates;
  bool candidates_are_all = true;

  size_t num_candidates() const {
    return candidates_are_all ? num_entities : candidates.size();
  }

  /// Degree lists: computed[c] owns lists built this query; degrees[c]
  /// points either there or at precomputed[c].
  std::vector<std::vector<double>> computed;
  std::vector<const std::vector<double>*> degrees;
  /// Combined WHERE score per candidate position (Rank scratch).
  std::vector<double> scores;

  /// Deadline / cancellation for this query; nullptr (or an inactive
  /// deadline) means unbounded. Operators poll it at chunk boundaries.
  const QueryDeadline* deadline = nullptr;
  /// Set by operators when the deadline stopped work early; the output
  /// then holds a prefix-consistent partial ranking (see watermark).
  bool partial = false;
  /// Candidate positions [0, watermark) have exact degrees in every
  /// condition list; Rank only ranks that prefix when partial. Only
  /// meaningful while partial is true.
  size_t watermark = 0;
  /// Set (possibly from pool workers, hence atomic) when any stage fell
  /// back to a cheaper path after a failure — the answer is complete
  /// but was not produced on the preferred path.
  std::atomic<bool> degraded{false};
};

/// Evaluates the hard objective predicates (AND-reachable from the
/// root) first, each compiled once onto its column, shrinking the
/// candidate set before any subjective scoring. A failing hard
/// predicate forces the WHERE to exactly 0.0 (0 is absorbing for ⊗ in
/// both variants), so dropped entities can never appear in the output.
Status ObjectiveFilter(ExecContext* ctx);

/// Materializes the per-condition degree lists restricted to the
/// candidate set: objective conditions as 0/1 vectors (each compiled
/// once onto its column), subjective conditions from their precomputed
/// list when one is resident or by a parallel slot-per-entity
/// computation otherwise.
Status SubjectiveScore(ExecContext* ctx);

/// Combines the WHERE tree per candidate (parallel, one slot per
/// candidate position), filters zero scores, and keeps the top k in one
/// pass through a k-entry heap (the score-desc/entity-asc total order
/// makes its sorted contents bit-identical to a full sort truncated to
/// k).
Status Rank(ExecContext* ctx);

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_EXEC_OPS_H_
