#ifndef OPINEDB_CORE_PLANNER_H_
#define OPINEDB_CORE_PLANNER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/query.h"
#include "fuzzy/logic.h"

namespace opinedb::core {

/// Physical plan shapes for ExecuteQuery. Every shape is bit-identical
/// to kDenseScan — the planner only ever trades work, never results
/// (see docs/QUERY_PLANNER.md for the equivalence arguments).
enum class PlanKind {
  /// The baseline: dense degree lists for every condition over every
  /// entity, full WHERE combine, sort, truncate.
  kDenseScan,
  /// Hard objective predicates evaluated first into a candidate set;
  /// subjective scoring and the WHERE combine restricted to survivors.
  kFilteredScan,
};

/// Operator-level override for plan selection (EngineOptions::force_plan).
/// Forcing a shape the query is not eligible for falls back to the
/// automatic choice — eligibility is a semantics question, not a cost
/// knob, so it cannot be overridden.
enum class PlanForce {
  kAuto,
  kDenseScan,
  kFilteredScan,
};

/// The normalized logical view of a parsed query: conditions classified,
/// the WHERE tree analyzed for the structures the physical plans need.
struct LogicalPlan {
  /// Condition indices by kind, ascending.
  std::vector<size_t> objective_leaves;
  std::vector<size_t> subjective_leaves;
  /// Objective leaves reachable from the root through AND nodes only.
  /// If any of these fails for an entity, the whole WHERE collapses to
  /// exactly 0.0 under both fuzzy variants (0 is absorbing for ⊗), so
  /// they may be evaluated first as hard filters.
  std::vector<size_t> hard_objective;
};

/// What SelectPlan needs to know about the execution environment.
struct PlannerContext {
  size_t num_entities = 0;
  PlanForce force = PlanForce::kAuto;
  fuzzy::Variant variant = fuzzy::Variant::kProduct;
};

/// The chosen physical plan plus the eligibility facts behind the
/// choice (recorded for EXPLAIN and tests).
struct PhysicalPlan {
  PlanKind kind = PlanKind::kDenseScan;
  bool filtered_eligible = false;
  /// True when a forced shape was ineligible and the automatic choice
  /// was used instead.
  bool forced_fallback = false;
};

/// Lowers the parsed query into its normalized logical view.
LogicalPlan AnalyzeQuery(const SubjectiveQuery& query);

/// Chooses the physical plan. kFilteredScan is eligible when the query
/// has at least one hard objective predicate, and the automatic choice
/// takes it whenever it is eligible; otherwise dense.
PhysicalPlan SelectPlan(const SubjectiveQuery& query,
                        const LogicalPlan& logical,
                        const PlannerContext& context);

/// Stable lowercase name of a plan shape ("dense_scan", ...).
const char* PlanKindName(PlanKind kind);

/// Renders the canonical cache key of a parsed query: table, limit and
/// the WHERE tree with every condition in canonical form — subjective
/// predicates normalized (NormalizePredicate), numeric literals rendered
/// through their numeric value (so `150` and `150.0` merge, exactly the
/// equivalence storage::Value::Compare already implements), strings
/// length-prefixed so no crafted literal can collide with the grammar.
/// Two queries with the same key are indistinguishable to execution at a
/// fixed epoch; the key deliberately preserves the WHERE tree's exact
/// structure and child order because the fuzzy fold order is
/// floating-point-significant (a ⊗ b ⊗ c reassociated changes bits).
/// EXPLAIN, trace level and force_plan are not part of the key — the
/// engine bypasses the result cache for EXPLAIN and forced plans, and
/// rebuilds observability fresh on every hit.
std::string CanonicalQueryKey(const SubjectiveQuery& query);

/// Renders the chosen plan as the multi-line EXPLAIN text (stable
/// format, pinned by trace_golden_test).
std::string ExplainPlan(const SubjectiveQuery& query,
                        const LogicalPlan& logical,
                        const PhysicalPlan& physical,
                        const PlannerContext& context);

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_PLANNER_H_
