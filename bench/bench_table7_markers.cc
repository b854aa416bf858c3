// Reproduces Table 7: OpineDB with marker summaries (10 markers per
// attribute) versus without markers (membership features computed by
// scanning and re-embedding the raw extraction phrases at query time).
// Reports the membership model's test accuracy (LR-accuracy), the query
// result quality (NDCG@10-style sat / sat-max) and the running time per
// 100 queries, per query set, plus the speedup.
#include <cstdio>
#include <functional>

#include "bench_common.h"
#include "common/timer.h"
#include "core/marker_induction.h"
#include "datagen/domain_spec.h"
#include "eval/metrics.h"

namespace opinedb {
namespace {

constexpr size_t kTopK = 10;

struct QuerySet {
  const char* name;
  std::function<bool(const datagen::SyntheticEntity&)> filter;
  std::string sql_prefix;
  bool hotel = true;
};

struct ConfigResult {
  std::vector<double> lr_accuracy;
  std::vector<double> ndcg;
  std::vector<double> runtime_s;
};

/// Evaluates one engine configuration (built with markers on or off) on
/// one query set.
void Evaluate(eval::DomainArtifacts* artifacts, const QuerySet& set,
              int queries, uint64_t seed, ConfigResult* out) {
  auto& db = *artifacts->db;
  const bool use_markers = db.options().use_markers;

  // Train the membership model on features from the matching path, with
  // a held-out test split for LR-accuracy (paper: 1000 labeled pairs).
  auto train = eval::MakeMembershipTuples(db, artifacts->domain,
                                          artifacts->pool, 1000, use_markers,
                                          seed);
  auto test = eval::MakeMembershipTuples(db, artifacts->domain,
                                         artifacts->pool, 400, use_markers,
                                         seed + 1);
  db.TrainMembership(train, seed + 2);
  out->lr_accuracy.push_back(db.membership_model().Accuracy(test));

  const auto eligible = eval::EligibleEntities(artifacts->domain, set.filter);
  auto workload = datagen::SampleWorkload(artifacts->pool.size(), 4,
                                          static_cast<size_t>(queries),
                                          seed + 3);
  double quality_sum = 0.0;
  Timer timer;
  for (const auto& query : workload) {
    std::vector<datagen::QueryPredicate> predicates;
    std::string sql = "select * from " +
                      artifacts->domain.schema.objective_table + " where " +
                      set.sql_prefix;
    for (size_t idx : query.predicate_indices) {
      predicates.push_back(artifacts->pool[idx]);
      sql += " and \"" + artifacts->pool[idx].text + "\"";
    }
    sql += " limit " + std::to_string(kTopK);
    auto result = db.Execute(sql);
    std::vector<int32_t> ranking;
    if (result.ok()) {
      for (const auto& r : result->results) ranking.push_back(r.entity);
    }
    quality_sum += eval::RankingQualityFiltered(
        artifacts->domain, predicates, ranking, eligible, kTopK);
  }
  const double elapsed = timer.ElapsedSeconds();
  out->ndcg.push_back(quality_sum / workload.size());
  // Normalize to "per 100 queries" as in the paper.
  out->runtime_s.push_back(elapsed * 100.0 / workload.size());
}

}  // namespace
}  // namespace opinedb

int main() {
  using namespace opinedb;
  const int repeats = bench::Repeats(3);
  const int queries = bench::QueriesPerCell(40);

  std::vector<QuerySet> sets = {
      {"London",
       [](const datagen::SyntheticEntity& e) {
         return e.city == "london" && e.price < 300;
       },
       "city = 'london' and price_pn < 300", true},
      {"Amsterdam",
       [](const datagen::SyntheticEntity& e) {
         return e.city == "amsterdam";
       },
       "city = 'amsterdam'", true},
      {"Low-Price",
       [](const datagen::SyntheticEntity& e) { return e.price_range == 1; },
       "price_range = 1", false},
      {"JP Cuisine",
       [](const datagen::SyntheticEntity& e) {
         return e.cuisine == "japanese";
       },
       "cuisine = 'japanese'", false},
  };

  // With 10 induced markers per attribute, as in the paper's Section
  // 5.4.2 ("we created 10 markers for each subjective attribute").
  auto hotel_options = bench::HotelBuildOptions();
  auto restaurant_options = bench::RestaurantBuildOptions();
  hotel_options.engine.induced_markers = 10;
  restaurant_options.engine.induced_markers = 10;

  std::vector<ConfigResult> with_markers(sets.size());
  std::vector<ConfigResult> no_markers(sets.size());
  for (int r = 0; r < repeats; ++r) {
    auto hopt = hotel_options;
    auto ropt = restaurant_options;
    hopt.generator.seed += static_cast<uint64_t>(r) * 613;
    hopt.seed += static_cast<uint64_t>(r) * 613;
    ropt.generator.seed += static_cast<uint64_t>(r) * 613;
    ropt.seed += static_cast<uint64_t>(r) * 613;
    // Strip the designer markers so the build induces 10 automatically.
    auto hotel_spec = datagen::HotelDomain();
    for (auto& attribute : hotel_spec.attributes) attribute.markers.clear();
    auto restaurant_spec = datagen::RestaurantDomain();
    for (auto& attribute : restaurant_spec.attributes) {
      attribute.markers.clear();
    }
    auto hotels = eval::BuildArtifacts(hotel_spec, hopt);
    auto restaurants = eval::BuildArtifacts(restaurant_spec, ropt);
    // Markers are a Build-time choice: the no-marker engines hold the
    // same database (same seeds) and score it from the raw phrases.
    hopt.engine.use_markers = false;
    ropt.engine.use_markers = false;
    auto hotels_no_markers = eval::BuildArtifacts(hotel_spec, hopt);
    auto restaurants_no_markers = eval::BuildArtifacts(restaurant_spec, ropt);
    for (size_t s = 0; s < sets.size(); ++s) {
      const uint64_t seed = 5000 + 17 * r + s;
      Evaluate(sets[s].hotel ? &hotels : &restaurants, sets[s], queries,
               seed, &with_markers[s]);
      Evaluate(sets[s].hotel ? &hotels_no_markers : &restaurants_no_markers,
               sets[s], queries, seed, &no_markers[s]);
    }
  }

  printf("Table 7: OpineDB with 10 induced markers vs no markers.\n");
  printf("Runtime is per 100 queries (seconds).\n\n");
  printf("%-10s %12s %12s %12s %12s\n", "", "London", "Amsterdam",
         "Low-Price", "JP Cuisine");
  auto row = [&](const char* label,
                 const std::function<double(const ConfigResult&)>& pick,
                 const std::vector<ConfigResult>& configs) {
    printf("%-24s", label);
    for (const auto& config : configs) printf(" %10.3f ", pick(config));
    printf("\n");
  };
  auto mean_of = [](const std::vector<double>& v) { return eval::Mean(v); };
  printf("---- 10-markers ----\n");
  row("  LR-accuracy",
      [&](const ConfigResult& c) { return mean_of(c.lr_accuracy); },
      with_markers);
  row("  NDCG@10", [&](const ConfigResult& c) { return mean_of(c.ndcg); },
      with_markers);
  row("  Runtime (s)",
      [&](const ConfigResult& c) { return mean_of(c.runtime_s); },
      with_markers);
  printf("---- no-markers ----\n");
  row("  LR-accuracy",
      [&](const ConfigResult& c) { return mean_of(c.lr_accuracy); },
      no_markers);
  row("  NDCG@10", [&](const ConfigResult& c) { return mean_of(c.ndcg); },
      no_markers);
  row("  Runtime (s)",
      [&](const ConfigResult& c) { return mean_of(c.runtime_s); },
      no_markers);
  printf("---- speedup (no-markers / 10-markers) ----\n");
  printf("%-24s", "  Speedup");
  for (size_t s = 0; s < sets.size(); ++s) {
    printf(" %9.2fx ", eval::Mean(no_markers[s].runtime_s) /
                           eval::Mean(with_markers[s].runtime_s));
  }
  printf("\n\nPaper reference: speedups 3.65x / 3.34x / 5.59x / 6.65x with "
         "LR-accuracy and\n  NDCG@10 essentially unchanged between "
         "configurations.\n");
  return 0;
}
