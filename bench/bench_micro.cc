// Micro-benchmarks (google-benchmark) for the core kernels: BM25 top-k,
// fuzzy evaluation (both t-norm variants — the DESIGN.md ablation),
// k-d tree search, logistic-regression inference, tokenization,
// marker-summary aggregation, the marker scoring kernel
// (BM_MarkerScore/<K>) and the observability primitives. After
// the google-benchmark run, a threads={1,2,4,8} sweep of
// PrecomputeDegrees over the schema's markers and of ExecuteQuery on the
// seed hotel dataset writes BENCH_parallel.json (skip with
// OPINEDB_SKIP_PARALLEL_SWEEP=1), and a trace_level={off,stats,full}
// sweep of the same query list writes BENCH_obs.json — the
// metrics-overhead numbers DESIGN.md "Observability" quotes (skip with
// OPINEDB_SKIP_OBS_SWEEP=1). Finally, a physical-plan sweep pits the
// dense scan against the objective-pushdown filtered scan across
// price_pn selectivities, and a cold dense scan of a conjunction
// against the same scan over precomputed degree lists, writing
// BENCH_planner.json (skip with OPINEDB_SKIP_PLANNER_SWEEP=1), and a
// snapshot-store sweep times
// SaveDatabase / OpenDatabase / corrupted-generation fallback recovery,
// writing BENCH_snapshot.json (skip with OPINEDB_SKIP_SNAPSHOT_SWEEP=1),
// and a result/interpretation-cache sweep times a zipfian repeat mix
// cold, warm and post-Reaggregate, writing BENCH_cache.json (skip with
// OPINEDB_SKIP_CACHE_SWEEP=1).
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/columnar.h"
#include "embedding/kdtree.h"
#include "fuzzy/logic.h"
#include "index/inverted_index.h"
#include "ml/logistic_regression.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/snapshot_store.h"
#include "text/tokenizer.h"

namespace opinedb {
namespace {

index::InvertedIndex BuildIndex(size_t docs, size_t words_per_doc) {
  Rng rng(1);
  index::InvertedIndex idx;
  const char* vocab[] = {"clean",  "dirty", "room",   "staff", "friendly",
                         "noisy",  "quiet", "bed",    "soft",  "lumpy",
                         "modern", "old",   "lovely", "cheap", "pricey"};
  for (size_t d = 0; d < docs; ++d) {
    std::vector<std::string> tokens;
    for (size_t w = 0; w < words_per_doc; ++w) {
      tokens.push_back(vocab[rng.Below(std::size(vocab))]);
    }
    idx.AddDocument(tokens);
  }
  return idx;
}

void BM_Bm25TopK(benchmark::State& state) {
  auto idx = BuildIndex(static_cast<size_t>(state.range(0)), 40);
  std::vector<std::string> query = {"clean", "quiet", "friendly"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(idx.TopK(query, 10));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Bm25TopK)->Arg(1000)->Arg(10000);

void BM_FuzzyEvaluate(benchmark::State& state) {
  const auto variant = static_cast<fuzzy::Variant>(state.range(0));
  // (p0 AND (p1 OR p2) AND NOT p3)
  auto expr = fuzzy::Expr::MakeAnd(
      {fuzzy::Expr::Leaf(0),
       fuzzy::Expr::MakeOr({fuzzy::Expr::Leaf(1), fuzzy::Expr::Leaf(2)}),
       fuzzy::Expr::MakeNot(fuzzy::Expr::Leaf(3))});
  Rng rng(2);
  std::vector<double> truths = {rng.Uniform(), rng.Uniform(), rng.Uniform(),
                                rng.Uniform()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr->Evaluate(
        variant, [&](size_t i) { return truths[i]; }));
  }
}
BENCHMARK(BM_FuzzyEvaluate)
    ->Arg(static_cast<int>(fuzzy::Variant::kGodel))
    ->Arg(static_cast<int>(fuzzy::Variant::kProduct));

void BM_KdTreeNearest(benchmark::State& state) {
  Rng rng(4);
  std::vector<embedding::Vec> points;
  for (int i = 0; i < state.range(0); ++i) {
    embedding::Vec p(16);
    for (auto& x : p) x = static_cast<float>(rng.Uniform());
    points.push_back(std::move(p));
  }
  auto tree = embedding::KdTree::Build(std::move(points));
  embedding::Vec query(16, 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Nearest(query));
  }
}
BENCHMARK(BM_KdTreeNearest)->Arg(1000)->Arg(10000);

void BM_LogisticPredict(benchmark::State& state) {
  Rng rng(5);
  std::vector<ml::Example> train;
  for (int i = 0; i < 200; ++i) {
    ml::Example ex;
    for (int j = 0; j < 10; ++j) ex.features.push_back(rng.Uniform());
    ex.label = ex.features[0] > 0.5 ? 1 : 0;
    train.push_back(std::move(ex));
  }
  auto model = ml::LogisticRegression::Train(train, ml::LogRegOptions());
  std::vector<double> features(10, 0.4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(features));
  }
}
BENCHMARK(BM_LogisticPredict);

void BM_Tokenize(benchmark::State& state) {
  text::Tokenizer tokenizer;
  const std::string body =
      "The room was very clean, well-decorated and the staff was "
      "incredibly friendly. Breakfast could've been fresher though!";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(body));
  }
}
BENCHMARK(BM_Tokenize);

void BM_MarkerSummaryAddPhrase(benchmark::State& state) {
  // The per-opinion store fold (one attribute, one entity, 48 dims).
  core::SubjectiveSchema schema;
  core::SubjectiveAttribute attribute;
  attribute.name = "cleanliness";
  attribute.summary_type.markers = {"very clean", "average", "dirty",
                                    "filthy"};
  schema.attributes.push_back(attribute);
  core::ColumnarSummaryStore store(schema, 1, 48);
  embedding::Vec vec(48, 0.1f);
  std::vector<double> weights = {1.0, 0.0, 0.0, 0.0};
  for (auto _ : state) {
    store.AddPhrase(0, 0, weights, 0.5, vec, 7);
    benchmark::DoNotOptimize(store.attribute(0).centroid.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MarkerSummaryAddPhrase);

// The per-(entity, atom) scoring kernel over a synthetic 20k-entity
// store of one K-marker attribute with 16-wide centroids, as
// ConditionScorer runs it for one atom: MarkerFeatures<4> for K = 4, the
// run-time-K MarkerFeatures<0> for K = 9, then a trained membership
// model. Items are entity-atoms; bytes are scan_bytes_per_entity per
// entity, the columns one atom streams.
void BM_MarkerScore(benchmark::State& state) {
  constexpr size_t kEntities = 20000;
  constexpr size_t kDim = 16;
  const auto k = static_cast<size_t>(state.range(0));
  core::SubjectiveSchema schema;
  core::SubjectiveAttribute attribute;
  attribute.name = "attribute";
  for (size_t m = 0; m < k; ++m) {
    attribute.summary_type.markers.push_back("m" + std::to_string(m));
  }
  schema.attributes.push_back(attribute);
  core::ColumnarSummaryStore store(schema, kEntities, kDim);
  core::AttributeColumns& cols = store.mutable_attribute(0);
  Rng rng(9);
  for (size_t cell = 0; cell < kEntities * k; ++cell) {
    cols.count[cell] = rng.Uniform(0.0, 20.0);
    cols.mean_sentiment[cell] = rng.Uniform(-1.0, 1.0);
    for (size_t d = 0; d < kDim; ++d) {
      cols.centroid[cell * kDim + d] =
          static_cast<float>(rng.Gaussian(0.0, 1.0));
    }
  }
  for (size_t e = 0; e < kEntities; ++e) {
    cols.unmatched[e] = rng.Uniform(0.0, 5.0);
  }
  store.Refresh(nullptr);
  embedding::Vec rep(kDim);
  for (float& x : rep) x = static_cast<float>(rng.Gaussian(0.0, 1.0));
  const std::vector<double> query(rep.begin(), rep.end());
  const double norm = embedding::Norm(rep);
  const auto features =
      k == 4 ? &core::MarkerFeatures<4> : &core::MarkerFeatures<0>;
  std::vector<core::MembershipModel::LabeledTuple> tuples(200);
  for (auto& tuple : tuples) {
    tuple.features.resize(core::kMembershipFeatureDim);
    features(cols, rng.Below(kEntities), rng.Below(k), query.data(), norm,
             0.3, tuple.features.data());
    tuple.label = tuple.features[1] >= 0.3 ? 1 : 0;
  }
  const core::MembershipModel model = core::MembershipModel::Train(tuples);
  const size_t marker = k / 2;
  for (auto _ : state) {
    double sum = 0.0;
    for (size_t e = 0; e < kEntities; ++e) {
      double f[core::kMembershipFeatureDim];
      features(cols, e, marker, query.data(), norm, 0.3, f);
      sum += model.DegreeOfTruth(f, core::kMembershipFeatureDim);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * kEntities);
  state.SetBytesProcessed(state.iterations() * kEntities *
                          cols.scan_bytes_per_entity());
}
BENCHMARK(BM_MarkerScore)->Arg(4)->Arg(9);

// --------------------------------------- Observability primitives.

void BM_MetricCountDisabled(benchmark::State& state) {
  obs::SetMetricsEnabled(false);
  // The trace_level=off cost of an instrumentation site: one relaxed
  // atomic load plus a predictable branch.
  for (auto _ : state) {
    OPINEDB_METRIC_COUNT("bench.count_disabled", 1);
  }
}
BENCHMARK(BM_MetricCountDisabled);

void BM_MetricCountEnabled(benchmark::State& state) {
  obs::SetMetricsEnabled(true);
  for (auto _ : state) {
    OPINEDB_METRIC_COUNT("bench.count_enabled", 1);
  }
  obs::SetMetricsEnabled(false);
}
BENCHMARK(BM_MetricCountEnabled);

void BM_HistogramObserve(benchmark::State& state) {
  obs::SetMetricsEnabled(true);
  double v = 0.0;
  for (auto _ : state) {
    OPINEDB_METRIC_LATENCY_MS("bench.hist_enabled", v);
    v = v < 900.0 ? v + 0.1 : 0.0;
  }
  obs::SetMetricsEnabled(false);
}
BENCHMARK(BM_HistogramObserve);

void BM_TraceSpanDisabled(benchmark::State& state) {
  // No ambient TraceBuffer: span construction is one thread_local read.
  for (auto _ : state) {
    obs::TraceSpan span("bench.span_disabled");
    benchmark::DoNotOptimize(span.active());
  }
}
BENCHMARK(BM_TraceSpanDisabled);

void BM_TraceSpanRecorded(benchmark::State& state) {
  obs::TraceBuffer buffer(256);
  obs::TraceScope scope(&buffer);
  for (auto _ : state) {
    obs::TraceSpan span("bench.span_recorded");
    span.AddAttribute("k", static_cast<uint64_t>(1));
  }
}
BENCHMARK(BM_TraceSpanRecorded);

// ------------------------------------------- Parallel execution sweep.

/// Times one invocation of `fn` in milliseconds.
template <typename Fn>
double TimeMs(const Fn& fn) {
  Timer timer;
  fn();
  return timer.ElapsedMillis();
}

/// Best-of-`repeats` wall time (minimum is the standard noise-resistant
/// estimator for throughput benchmarks).
template <typename Fn>
double BestOfMs(int repeats, const Fn& fn) {
  double best = TimeMs(fn);
  for (int r = 1; r < repeats; ++r) best = std::min(best, TimeMs(fn));
  return best;
}

void RunParallelSweep() {
  const std::vector<size_t> threads = {1, 2, 4, 8};
  printf("\nParallel sweep: PrecomputeDegrees(markers) + ExecuteQuery on "
         "the seed hotel dataset (threads = 1, 2, 4, 8)...\n");
  auto artifacts =
      eval::BuildArtifacts(datagen::HotelDomain(), bench::HotelBuildOptions());
  core::OpineDb& db = *artifacts.db;
  const std::vector<std::string> markers = db.schema().Markers();
  const std::vector<std::string> queries = {
      "select * from hotels where \"clean room\" limit 10",
      "select * from hotels where \"clean room\" and \"friendly staff\" "
      "limit 10",
      "select * from hotels where \"comfortable bed\" or \"quiet street\" "
      "limit 10",
  };
  const int repeats = bench::Repeats();

  std::vector<double> precompute_ms;
  std::vector<double> execute_ms;
  for (size_t t : threads) {
    db.SetNumThreads(t);
    precompute_ms.push_back(
        BestOfMs(repeats, [&] { db.PrecomputeDegrees(markers); }));
    // The queries below must score, not read lists.
    db.PrecomputeDegrees({});
    execute_ms.push_back(BestOfMs(repeats, [&] {
      for (const auto& sql : queries) {
        auto result = db.Execute(sql);
        if (!result.ok()) {
          fprintf(stderr, "query failed: %s\n",
                  result.status().ToString().c_str());
          std::exit(1);
        }
      }
    }));
    printf("  threads=%zu  PrecomputeDegrees %8.2f ms   ExecuteQuery(x%zu) "
           "%8.2f ms\n",
           t, precompute_ms.back(), queries.size(), execute_ms.back());
  }
  db.SetNumThreads(1);

  std::vector<double> precompute_speedup;
  std::vector<double> execute_speedup;
  for (size_t i = 0; i < threads.size(); ++i) {
    precompute_speedup.push_back(precompute_ms[0] / precompute_ms[i]);
    execute_speedup.push_back(execute_ms[0] / execute_ms[i]);
  }

  FILE* out = fopen("BENCH_parallel.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write BENCH_parallel.json\n");
    std::exit(1);
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"parallel_sweep\",\n");
  fprintf(out, "  \"dataset\": \"hotel_seed\",\n");
  bench::WriteHostFields(out, threads.back());
  fprintf(out, "  \"repeats\": %d,\n", repeats);
  fprintf(out, "  \"threads\": %s,\n", bench::JsonArray(threads).c_str());
  fprintf(out, "  \"precompute_markers_ms\": %s,\n",
          bench::JsonArray(precompute_ms).c_str());
  fprintf(out, "  \"execute_query_ms\": %s,\n",
          bench::JsonArray(execute_ms).c_str());
  fprintf(out, "  \"precompute_markers_speedup\": %s,\n",
          bench::JsonArray(precompute_speedup).c_str());
  fprintf(out, "  \"execute_query_speedup\": %s,\n",
          bench::JsonArray(execute_speedup).c_str());
  fprintf(out, "  \"speedup_precompute_4t\": %g,\n", precompute_speedup[2]);
  fprintf(out, "  \"speedup_execute_4t\": %g\n", execute_speedup[2]);
  fprintf(out, "}\n");
  fclose(out);
  printf("  wrote BENCH_parallel.json (4-thread speedups: "
         "PrecomputeDegrees %.2fx, ExecuteQuery %.2fx)\n",
         precompute_speedup[2], execute_speedup[2]);
}

// ----------------------------------------- Observability overhead sweep.

void RunObsOverheadSweep() {
  printf("\nObservability sweep: ExecuteQuery on the seed hotel dataset "
         "at trace_level = off, stats, full...\n");
  auto artifacts =
      eval::BuildArtifacts(datagen::HotelDomain(), bench::HotelBuildOptions());
  core::OpineDb& db = *artifacts.db;
  db.SetNumThreads(1);  // Serial: cleanest per-query-cost comparison.
  const std::vector<std::string> queries = {
      "select * from hotels where \"clean room\" limit 10",
      "select * from hotels where \"clean room\" and \"friendly staff\" "
      "limit 10",
      "select * from hotels where \"comfortable bed\" or \"quiet street\" "
      "limit 10",
  };
  const int repeats = std::max(bench::Repeats(), 5);
  auto sweep = [&] {
    for (const auto& sql : queries) {
      auto result = db.Execute(sql);
      if (!result.ok()) {
        fprintf(stderr, "query failed: %s\n",
                result.status().ToString().c_str());
        std::exit(1);
      }
    }
  };

  // Off is measured twice: their relative difference is the run-to-run
  // noise floor, which bounds how much the off-level instrumentation
  // sites (one relaxed atomic load + branch each) can possibly cost.
  db.SetTraceLevel(obs::TraceLevel::kOff);
  const double off_ms = BestOfMs(repeats, sweep);
  const double off_rerun_ms = BestOfMs(repeats, sweep);
  db.SetTraceLevel(obs::TraceLevel::kStats);
  const double stats_ms = BestOfMs(repeats, sweep);
  db.SetTraceLevel(obs::TraceLevel::kFull);
  const double full_ms = BestOfMs(repeats, sweep);
  db.SetTraceLevel(obs::TraceLevel::kOff);

  const double off_best = std::min(off_ms, off_rerun_ms);
  auto pct_vs_off = [off_best](double ms) {
    return (ms - off_best) / off_best * 100.0;
  };
  const double off_noise_pct =
      std::fabs(off_ms - off_rerun_ms) / off_best * 100.0;
  const double stats_pct = pct_vs_off(stats_ms);
  const double full_pct = pct_vs_off(full_ms);

  // Per-site cost of a disabled instrumentation point, in nanoseconds.
  constexpr int kOps = 2'000'000;
  obs::SetMetricsEnabled(false);
  const double disabled_count_ns = TimeMs([&] {
    for (int i = 0; i < kOps; ++i) {
      OPINEDB_METRIC_COUNT("obs_sweep.disabled", 1);
    }
  }) * 1e6 / kOps;
  const double disabled_span_ns = TimeMs([&] {
    for (int i = 0; i < kOps; ++i) {
      obs::TraceSpan span("obs_sweep.disabled");
      benchmark::DoNotOptimize(span.active());
    }
  }) * 1e6 / kOps;

  printf("  off   %8.2f ms (re-run %8.2f ms, noise %.2f%%)\n", off_ms,
         off_rerun_ms, off_noise_pct);
  printf("  stats %8.2f ms (%+.2f%% vs off)\n", stats_ms, stats_pct);
  printf("  full  %8.2f ms (%+.2f%% vs off)\n", full_ms, full_pct);
  printf("  disabled site: count %.1f ns, span %.1f ns\n",
         disabled_count_ns, disabled_span_ns);

  FILE* out = fopen("BENCH_obs.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write BENCH_obs.json\n");
    std::exit(1);
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"obs_overhead_sweep\",\n");
  fprintf(out, "  \"dataset\": \"hotel_seed\",\n");
  bench::WriteHostFields(out, bench::ResolvedThreads(0));
  fprintf(out, "  \"repeats\": %d,\n", repeats);
  fprintf(out, "  \"queries_per_sweep\": %zu,\n", queries.size());
  fprintf(out, "  \"execute_query_ms_off\": %g,\n", off_ms);
  fprintf(out, "  \"execute_query_ms_off_rerun\": %g,\n", off_rerun_ms);
  fprintf(out, "  \"execute_query_ms_stats\": %g,\n", stats_ms);
  fprintf(out, "  \"execute_query_ms_full\": %g,\n", full_ms);
  fprintf(out, "  \"trace_off_noise_floor_pct\": %g,\n", off_noise_pct);
  fprintf(out, "  \"overhead_stats_pct\": %g,\n", stats_pct);
  fprintf(out, "  \"overhead_full_pct\": %g,\n", full_pct);
  fprintf(out, "  \"disabled_metric_count_ns\": %g,\n", disabled_count_ns);
  fprintf(out, "  \"disabled_trace_span_ns\": %g\n", disabled_span_ns);
  fprintf(out, "}\n");
  fclose(out);
  printf("  wrote BENCH_obs.json (stats %+.2f%%, full %+.2f%% vs off)\n",
         stats_pct, full_pct);
}

// ------------------------------------------------ Planner plan sweep.

void RunPlannerSweep() {
  printf("\nPlanner sweep: dense scan vs objective pushdown, and cold vs "
         "precomputed degree lists, on the seed hotel dataset...\n");
  auto artifacts =
      eval::BuildArtifacts(datagen::HotelDomain(), bench::HotelBuildOptions());
  core::OpineDb& db = *artifacts.db;
  db.SetNumThreads(1);  // Serial: isolates plan work, not parallelism.
  const int repeats = std::max(bench::Repeats(), 5);
  const size_t num_entities = db.corpus().num_entities();

  auto time_query = [&](const std::string& sql, core::QueryResult* last) {
    return BestOfMs(repeats, [&] {
      auto result = db.Execute(sql);
      if (!result.ok()) {
        fprintf(stderr, "query failed: %s\n",
                result.status().ToString().c_str());
        std::exit(1);
      }
      if (last != nullptr) *last = std::move(*result);
    });
  };

  // Pushdown: one subjective predicate behind a price cut-off of
  // decreasing selectivity (the filtered plan), against the same
  // predicate without the cut-off (the dense plan over every entity).
  // No lists are precomputed, so subjective scoring really recomputes
  // per entity — the work the filter skips.
  const std::string dense_sql =
      "select * from hotels where \"friendly staff\" limit 10";
  const std::vector<int> cutoffs = {100, 200, 300, 400, 550};
  std::vector<double> dense_ms;
  std::vector<double> filtered_ms;
  std::vector<double> pushdown_speedup;
  std::vector<size_t> survivors;
  std::vector<double> selectivity;
  for (const int cutoff : cutoffs) {
    const std::string sql = "select * from hotels where price_pn < " +
                            std::to_string(cutoff) +
                            " and \"friendly staff\" limit 10";
    core::QueryResult dense_result;
    core::QueryResult filtered_result;
    dense_ms.push_back(time_query(dense_sql, &dense_result));
    filtered_ms.push_back(time_query(sql, &filtered_result));
    if (dense_result.plan != core::PlanKind::kDenseScan ||
        filtered_result.plan != core::PlanKind::kFilteredScan) {
      fprintf(stderr, "expected dense_scan and filtered_scan plans\n");
      std::exit(1);
    }
    pushdown_speedup.push_back(dense_ms.back() / filtered_ms.back());
    survivors.push_back(filtered_result.stats.entities_scored);
    selectivity.push_back(static_cast<double>(survivors.back()) /
                          static_cast<double>(num_entities));
    printf("  price_pn < %-3d  survivors %3zu/%zu  dense %7.2f ms  "
           "filtered %7.2f ms  speedup %.2fx\n",
           cutoff, survivors.back(), num_entities, dense_ms.back(),
           filtered_ms.back(), pushdown_speedup.back());
  }

  // Precomputed lists: a conjunctive subjective query scored cold, then
  // served from lists of both conjuncts (Section 3.3). Same dense plan
  // and answer; the delta is the per-entity scoring the lists replace.
  const std::string conj_sql =
      "select * from hotels where \"clean room\" and \"friendly staff\" "
      "limit 10";
  core::QueryResult cold_result;
  core::QueryResult precomputed_result;
  const double cold_ms = time_query(conj_sql, &cold_result);
  const size_t lists =
      db.PrecomputeDegrees({"clean room", "friendly staff"});
  const double precomputed_ms = time_query(conj_sql, &precomputed_result);
  db.PrecomputeDegrees({});
  if (lists != 2 || precomputed_result.stats.cache_hits != 2) {
    fprintf(stderr, "expected both conjuncts served from lists\n");
    std::exit(1);
  }
  const double precomputed_speedup = cold_ms / precomputed_ms;
  printf("  conjunction: cold %7.2f ms  precomputed lists %.2f ms  "
         "speedup %.2fx\n",
         cold_ms, precomputed_ms, precomputed_speedup);

  FILE* out = fopen("BENCH_planner.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write BENCH_planner.json\n");
    std::exit(1);
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"planner_sweep\",\n");
  fprintf(out, "  \"dataset\": \"hotel_seed\",\n");
  bench::WriteHostFields(out, bench::ResolvedThreads(0));
  fprintf(out, "  \"repeats\": %d,\n", repeats);
  fprintf(out, "  \"num_entities\": %zu,\n", num_entities);
  fprintf(out, "  \"price_cutoffs\": %s,\n",
          bench::JsonArray(cutoffs).c_str());
  fprintf(out, "  \"survivors\": %s,\n", bench::JsonArray(survivors).c_str());
  fprintf(out, "  \"selectivity\": %s,\n",
          bench::JsonArray(selectivity).c_str());
  fprintf(out, "  \"dense_ms\": %s,\n", bench::JsonArray(dense_ms).c_str());
  fprintf(out, "  \"filtered_ms\": %s,\n",
          bench::JsonArray(filtered_ms).c_str());
  fprintf(out, "  \"pushdown_speedup\": %s,\n",
          bench::JsonArray(pushdown_speedup).c_str());
  fprintf(out, "  \"conjunction_cold_ms\": %g,\n", cold_ms);
  fprintf(out, "  \"conjunction_precomputed_ms\": %g,\n", precomputed_ms);
  fprintf(out, "  \"precomputed_speedup\": %g\n", precomputed_speedup);
  fprintf(out, "}\n");
  fclose(out);
  printf("  wrote BENCH_planner.json (most selective pushdown %.2fx, "
         "precomputed lists %.2fx)\n",
         pushdown_speedup.front(), precomputed_speedup);
}

// ------------------------------------------------ Snapshot store sweep.

void RunSnapshotSweep() {
  printf("\nSnapshot sweep: SaveDatabase / OpenDatabase / corrupted-"
         "generation recovery on the seed hotel dataset...\n");
  namespace fs = std::filesystem;
  auto artifacts =
      eval::BuildArtifacts(datagen::HotelDomain(), bench::HotelBuildOptions());
  core::OpineDb& db = *artifacts.db;
  const int repeats = std::max(bench::Repeats(), 5);
  const fs::path dir = fs::temp_directory_path() / "opinedb_bench_snapshot";
  std::error_code ec;
  fs::remove_all(dir, ec);
  const std::string dir_str = dir.string();

  auto must_ok = [](const Status& status, const char* what) {
    if (!status.ok()) {
      fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
      std::exit(1);
    }
  };

  // Save: each call commits a fresh generation (GC keeps the directory
  // from growing across repeats).
  storage::SnapshotStore store(dir_str);
  const double save_ms = BestOfMs(repeats, [&] {
    must_ok(db.SaveDatabase(dir_str), "SaveDatabase");
    must_ok(store.GarbageCollect(2), "GarbageCollect");
  });
  const uint64_t generation = db.snapshot_generation();
  const auto snapshot_bytes = static_cast<size_t>(fs::file_size(
      dir / storage::SnapshotStore::GenerationFileName(generation)));

  // Open: verify every checksum, parse both payloads, swap engine state.
  const double open_ms = BestOfMs(repeats, [&] {
    must_ok(db.OpenDatabase(dir_str), "OpenDatabase");
  });

  // Recovery with fallback: the newest generation is bit-rotted, so
  // every open pays one failed verification before serving the older
  // generation. The delta over open_ms is the cost of skipping one
  // corrupt file.
  must_ok(db.SaveDatabase(dir_str), "SaveDatabase");
  const fs::path newest =
      dir / storage::SnapshotStore::GenerationFileName(db.snapshot_generation());
  {
    std::fstream file(newest, std::ios::binary | std::ios::in | std::ios::out);
    file.seekg(static_cast<std::streamoff>(snapshot_bytes / 2));
    char byte = 0;
    file.get(byte);
    file.seekp(static_cast<std::streamoff>(snapshot_bytes / 2));
    file.put(static_cast<char>(byte ^ 0x10));
  }
  const double fallback_ms = BestOfMs(repeats, [&] {
    must_ok(db.OpenDatabase(dir_str), "OpenDatabase (fallback)");
  });
  if (db.snapshot_generation() == 0) {
    fprintf(stderr, "fallback open served no generation\n");
    std::exit(1);
  }

  fs::remove_all(dir, ec);
  printf("  save %8.2f ms  open %8.2f ms  open+fallback %8.2f ms  "
         "(%zu snapshot bytes)\n",
         save_ms, open_ms, fallback_ms, snapshot_bytes);

  FILE* out = fopen("BENCH_snapshot.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write BENCH_snapshot.json\n");
    std::exit(1);
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"snapshot_sweep\",\n");
  fprintf(out, "  \"dataset\": \"hotel_seed\",\n");
  bench::WriteHostFields(out, bench::ResolvedThreads(0));
  fprintf(out, "  \"repeats\": %d,\n", repeats);
  fprintf(out, "  \"snapshot_bytes\": %zu,\n", snapshot_bytes);
  fprintf(out, "  \"save_database_ms\": %g,\n", save_ms);
  fprintf(out, "  \"open_database_ms\": %g,\n", open_ms);
  fprintf(out, "  \"open_with_fallback_ms\": %g,\n", fallback_ms);
  fprintf(out, "  \"fallback_overhead_ms\": %g\n", fallback_ms - open_ms);
  fprintf(out, "}\n");
  fclose(out);
  printf("  wrote BENCH_snapshot.json (fallback overhead %.2f ms)\n",
         fallback_ms - open_ms);
}

// ----------------------------------------------------- Cache sweep.

/// Cold / warm / post-Reaggregate timings of a zipfian repeat mix over
/// ~40 distinct queries (docs/CACHING.md). "Cold" is the cache-disabled
/// engine; "fill" is the first cache-enabled pass (misses + fills);
/// "warm" is the steady-state pass the result cache exists for; the
/// post-Reaggregate pass prices the recovery after a wholesale epoch
/// invalidation. Hit rates come from both the cache counters and the
/// engine.cache.* metrics (the sweep runs at trace_level=stats so the
/// counters publish).
void RunCacheSweep() {
  printf("\nCache sweep: zipfian repeat mix, cold vs warm vs "
         "post-Reaggregate on the seed hotel dataset...\n");
  auto artifacts =
      eval::BuildArtifacts(datagen::HotelDomain(), bench::HotelBuildOptions());
  core::OpineDb& db = *artifacts.db;
  db.SetTraceLevel(obs::TraceLevel::kStats);
  const int repeats = std::max(bench::Repeats(), 5);

  // ~40 distinct queries; zipfian rank weights 1/(rank+1) concentrate
  // most of the 400-execution stream on the head of the list.
  constexpr size_t kDistinct = 40;
  constexpr size_t kStream = 400;
  // Each predicate appears at two different LIMITs: distinct result-
  // cache keys, shared interpretation-cache keys — so the sweep
  // exercises both layers (an interp hit under a result miss).
  std::vector<std::string> queries;
  for (size_t i = 0; i < kDistinct; ++i) {
    const size_t limit = (i < kDistinct / 2) ? 5 + i % 3 : 10 + i % 3;
    queries.push_back(
        "select * from hotels where \"" +
        artifacts.pool[(i % (kDistinct / 2)) % artifacts.pool.size()].text +
        "\" limit " + std::to_string(limit));
  }
  std::vector<double> weights(kDistinct);
  double total_weight = 0.0;
  for (size_t i = 0; i < kDistinct; ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
    total_weight += weights[i];
  }
  std::vector<size_t> stream;
  stream.reserve(kStream);
  Rng rng(7);
  for (size_t q = 0; q < kStream; ++q) {
    double pick = rng.Uniform() * total_weight;
    size_t idx = 0;
    while (idx + 1 < kDistinct && pick > weights[idx]) {
      pick -= weights[idx];
      ++idx;
    }
    stream.push_back(idx);
  }

  auto run_stream = [&] {
    for (const size_t idx : stream) {
      auto result = db.Execute(queries[idx]);
      if (!result.ok()) {
        fprintf(stderr, "query failed: %s\n",
                result.status().ToString().c_str());
        std::exit(1);
      }
    }
  };

  // Cold: no caches at all — every execution pays the full cascade.
  const double cold_ms = BestOfMs(repeats, run_stream);

  // Fill: first cache-enabled pass (misses + insert cost), measured
  // once — repeating it would measure warm hits.
  cache::CacheConfig config;
  config.enable_interpretation = true;
  config.enable_results = true;
  config.result_cache_bytes = 32u << 20;
  db.ConfigureCaches(config);
  const double fill_ms = TimeMs(run_stream);

  // Warm: the steady state. Every repeat serves from the result cache.
  const double warm_ms = BestOfMs(repeats, run_stream);
  const uint64_t warm_hits = db.result_cache()->hits();
  const uint64_t warm_misses = db.result_cache()->misses();
  const uint64_t interp_hits = db.interpretation_cache()->hits();
  const uint64_t interp_misses = db.interpretation_cache()->misses();
  const double hit_rate =
      static_cast<double>(warm_hits) /
      static_cast<double>(std::max<uint64_t>(warm_hits + warm_misses, 1));

  // Post-Reaggregate: the epoch bump empties everything; one recovery
  // pass re-fills (same options, so the summaries are bit-identical —
  // this prices pure invalidation, not new data).
  db.Reaggregate(db.options().aggregation);
  if (db.result_cache()->size() != 0) {
    fprintf(stderr, "Reaggregate left the result cache populated\n");
    std::exit(1);
  }
  const double recovery_ms = TimeMs(run_stream);

  const double speedup = cold_ms / std::max(warm_ms, 1e-9);
  db.ConfigureCaches(cache::CacheConfig());
  db.SetTraceLevel(obs::TraceLevel::kOff);

  auto& metrics = obs::MetricsRegistry::Global();
  const double metric_hits = metrics.GetCounter("engine.cache.hit")->Value();
  const double metric_misses =
      metrics.GetCounter("engine.cache.miss")->Value();
  const double metric_interp_hits =
      metrics.GetCounter("engine.cache.interp_hit")->Value();

  printf("  cold %8.2f ms  fill %8.2f ms  warm %8.2f ms  "
         "post-reaggregate %8.2f ms  (warm speedup %.1fx, hit rate "
         "%.3f)\n",
         cold_ms, fill_ms, warm_ms, recovery_ms, speedup, hit_rate);
  if (speedup < 10.0) {
    fprintf(stderr,
            "warm speedup %.1fx below the 10x acceptance floor\n", speedup);
    std::exit(1);
  }

  FILE* out = fopen("BENCH_cache.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write BENCH_cache.json\n");
    std::exit(1);
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"cache_sweep\",\n");
  fprintf(out, "  \"dataset\": \"hotel_seed\",\n");
  bench::WriteHostFields(out, bench::ResolvedThreads(0));
  fprintf(out, "  \"repeats\": %d,\n", repeats);
  fprintf(out, "  \"distinct_queries\": %zu,\n", kDistinct);
  fprintf(out, "  \"stream_length\": %zu,\n", kStream);
  fprintf(out, "  \"result_cache_bytes\": %u,\n", 32u << 20);
  fprintf(out, "  \"cold_stream_ms\": %g,\n", cold_ms);
  fprintf(out, "  \"fill_stream_ms\": %g,\n", fill_ms);
  fprintf(out, "  \"warm_stream_ms\": %g,\n", warm_ms);
  fprintf(out, "  \"post_reaggregate_stream_ms\": %g,\n", recovery_ms);
  fprintf(out, "  \"warm_speedup\": %g,\n", speedup);
  fprintf(out, "  \"result_cache_hits\": %llu,\n",
          static_cast<unsigned long long>(warm_hits));
  fprintf(out, "  \"result_cache_misses\": %llu,\n",
          static_cast<unsigned long long>(warm_misses));
  fprintf(out, "  \"result_cache_hit_rate\": %g,\n", hit_rate);
  fprintf(out, "  \"interp_cache_hits\": %llu,\n",
          static_cast<unsigned long long>(interp_hits));
  fprintf(out, "  \"interp_cache_misses\": %llu,\n",
          static_cast<unsigned long long>(interp_misses));
  fprintf(out, "  \"metric_engine_cache_hit\": %g,\n", metric_hits);
  fprintf(out, "  \"metric_engine_cache_miss\": %g,\n", metric_misses);
  fprintf(out, "  \"metric_engine_cache_interp_hit\": %g\n",
          metric_interp_hits);
  fprintf(out, "}\n");
  fclose(out);
  printf("  wrote BENCH_cache.json (warm speedup %.1fx)\n", speedup);
}

}  // namespace
}  // namespace opinedb

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const char* skip = std::getenv("OPINEDB_SKIP_PARALLEL_SWEEP");
  if (skip == nullptr || skip[0] == '0') {
    opinedb::RunParallelSweep();
  }
  const char* skip_obs = std::getenv("OPINEDB_SKIP_OBS_SWEEP");
  if (skip_obs == nullptr || skip_obs[0] == '0') {
    opinedb::RunObsOverheadSweep();
  }
  const char* skip_planner = std::getenv("OPINEDB_SKIP_PLANNER_SWEEP");
  if (skip_planner == nullptr || skip_planner[0] == '0') {
    opinedb::RunPlannerSweep();
  }
  const char* skip_snapshot = std::getenv("OPINEDB_SKIP_SNAPSHOT_SWEEP");
  if (skip_snapshot == nullptr || skip_snapshot[0] == '0') {
    opinedb::RunSnapshotSweep();
  }
  const char* skip_cache = std::getenv("OPINEDB_SKIP_CACHE_SWEEP");
  if (skip_cache == nullptr || skip_cache[0] == '0') {
    opinedb::RunCacheSweep();
  }
  return 0;
}
