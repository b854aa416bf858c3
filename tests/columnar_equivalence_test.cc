// Scorer-vs-oracle differential harness (docs/SCALING.md). The engine
// keeps its marker summaries in one core::ColumnarSummaryStore and
// scores every subjective condition through core::ConditionScorer, a
// sweep over it; tests/oracle/ recomputes the same answers one entity
// at a time from row objects it folds itself (or reads back from an
// installed store), and Build's store must equal that fold bit for
// bit. For
// randomized fixture queries the engine must return exactly the
// oracle's RankedResult lists — same entities, same names, same raw
// doubles — at 1 and 8 threads, with tracing off and full: on the hotel
// and restaurant fixtures with markers, under the no-marker ablation and
// for an uninterpretable (text-fallback) predicate, and on a generated
// scale fixture (OPINEDB_SCALE_TEST_ENTITIES entities; CI runs the
// Release sweep at 100k and the sanitizer sweeps at 20k) as precomputed
// degree lists plus LIMIT 10 answers with and without an objective
// filter. Precomputed lists of the markers, pool predicates and a
// text-fallback predicate equal PredicateDegreeOfTruth and the oracle
// slot by slot at 1 and 8 threads. Also
// covers the ColumnarTable predicate sweep cell-by-cell against
// BoundColumnPredicate::Matches, the InstallSummaries validation rules,
// and the cache-shard widths. Built as its own binary labeled `scale`.
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/rng.h"
#include "core/columnar.h"
#include "core/engine.h"
#include "core/serialize.h"
#include "datagen/domain_spec.h"
#include "datagen/scale.h"
#include "eval/experiment.h"
#include "obs/trace.h"
#include "oracle/row_oracle.h"
#include "storage/table.h"

namespace opinedb {
namespace {

size_t ScaleTestEntities() {
  const char* env = std::getenv("OPINEDB_SCALE_TEST_ENTITIES");
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 20000;
}

/// Runs `restore` when the scope exits, also on the early return of a
/// failed ASSERT, so a test cannot leave engine state (threads, trace,
/// ablation flag, precomputed lists) behind for the suite's later tests.
class ScopeExit {
 public:
  explicit ScopeExit(std::function<void()> restore)
      : restore_(std::move(restore)) {}
  ~ScopeExit() { restore_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  std::function<void()> restore_;
};

// Bit-identical means EXPECT_EQ on the raw doubles — no tolerance.
void ExpectBitIdentical(const std::vector<core::RankedResult>& reference,
                        const std::vector<core::RankedResult>& actual) {
  ASSERT_EQ(reference.size(), actual.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(reference[i].entity, actual[i].entity);
    EXPECT_EQ(reference[i].entity_name, actual[i].entity_name);
    EXPECT_EQ(reference[i].score, actual[i].score);
  }
}

/// Runs `sql` at {1, 8} threads x {off, full} trace; every run must
/// return `reference` bit for bit.
void ExpectEveryConfiguration(
    core::OpineDb& db, const std::string& sql,
    const std::vector<core::RankedResult>& reference) {
  const ScopeExit reset([&] {
    db.SetNumThreads(1);
    db.SetTraceLevel(obs::TraceLevel::kOff);
  });
  for (const size_t threads : {1, 8}) {
    for (const auto level : {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
      SCOPED_TRACE(sql + " threads=" + std::to_string(threads) + " trace=" +
                   std::to_string(static_cast<int>(level)));
      db.SetNumThreads(threads);
      db.SetTraceLevel(level);
      auto run = db.Execute(sql);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      ExpectBitIdentical(reference, run->results);
    }
  }
}

/// The whole-answer sweep: each query's reference is the oracle's
/// answer over `table`, the rows the engine's objective table came from.
void RunOracleSweep(core::OpineDb& db, const storage::Table& table,
                    const std::vector<std::string>& queries) {
  for (const auto& sql : queries) {
    auto reference = oracle::Execute(db, table, sql);
    ASSERT_TRUE(reference.ok())
        << sql << ": " << reference.status().ToString();
    ExpectEveryConfiguration(db, sql, *reference);
  }
}

/// Single-predicate check against the oracle's per-entity degrees: the
/// precomputed list element by element at 1 and 8 threads, and the
/// LIMIT query's answer in every configuration, scored and served.
void ExpectPredicateMatchesOracle(core::OpineDb& db,
                                  const std::string& table_name,
                                  const std::string& predicate) {
  SCOPED_TRACE(predicate);
  const oracle::RowPredicate row(db, predicate);
  const size_t n = db.corpus().num_entities();
  std::vector<double> expected(n);
  for (size_t e = 0; e < n; ++e) {
    expected[e] = row.Degree(static_cast<text::EntityId>(e));
  }
  const ScopeExit reset([&] {
    db.SetNumThreads(1);
    db.PrecomputeDegrees({});
  });
  for (const size_t threads : {1, 8}) {
    db.SetNumThreads(threads);
    ASSERT_EQ(db.PrecomputeDegrees({predicate}), 1u);
    const std::vector<double>& degrees = *db.precomputed_degrees(predicate);
    ASSERT_EQ(degrees.size(), n);
    size_t mismatches = 0;
    for (size_t e = 0; e < n; ++e) {
      if (degrees[e] == expected[e]) continue;
      if (mismatches++ == 0) {
        ADD_FAILURE() << "threads=" << threads << " entity " << e
                      << ": scorer " << degrees[e] << " vs oracle "
                      << expected[e];
      }
    }
    EXPECT_EQ(mismatches, 0u) << "threads=" << threads;
  }
  db.SetNumThreads(1);
  const std::string sql = "select * from " + table_name + " where \"" +
                          predicate + "\" limit 10";
  const auto reference = oracle::Rank(db, expected, 10);
  ExpectEveryConfiguration(db, sql, reference);  // Served from the list.
  db.PrecomputeDegrees({});
  ExpectEveryConfiguration(db, sql, reference);  // Scored.
}

// ------------------------------------- Hotel / restaurant fixtures.

class ColumnarEquivalenceTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    {
      eval::BuildOptions options;
      options.generator.num_entities = 30;
      options.generator.min_reviews_per_entity = 10;
      options.generator.max_reviews_per_entity = 20;
      options.generator.seed = 31;
      options.seed = 31;
      options.extractor_training_sentences = 400;
      options.predicate_pool_size = 60;
      options.membership_training_tuples = 500;
      hotel_ = new eval::DomainArtifacts(
          eval::BuildArtifacts(datagen::HotelDomain(), options));
    }
    {
      eval::BuildOptions options;
      options.generator.num_entities = 25;
      options.generator.min_reviews_per_entity = 8;
      options.generator.max_reviews_per_entity = 16;
      options.generator.seed = 32;
      options.seed = 32;
      options.extractor_training_sentences = 400;
      options.predicate_pool_size = 60;
      options.membership_training_tuples = 500;
      restaurant_ = new eval::DomainArtifacts(
          eval::BuildArtifacts(datagen::RestaurantDomain(), options));
    }
  }

  static void TearDownTestSuite() {
    delete hotel_;
    hotel_ = nullptr;
    delete restaurant_;
    restaurant_ = nullptr;
  }

  static eval::DomainArtifacts& Fixture(const std::string& name) {
    return name == "hotel" ? *hotel_ : *restaurant_;
  }

  /// Deterministic randomized workload mixing subjective leaves,
  /// objective filters (every comparison op), boolean structure and
  /// limit boundaries.
  static std::vector<std::string> MakeQueries(const std::string& name) {
    const eval::DomainArtifacts& artifacts = Fixture(name);
    const std::string table = name == "hotel" ? "hotels" : "restaurants";
    std::vector<std::string> phrases;
    for (const auto& predicate : artifacts.pool) {
      if (phrases.size() >= 6) break;
      phrases.push_back(predicate.text);
    }
    const std::vector<std::string> objectives =
        name == "hotel"
            ? std::vector<std::string>{"price_pn < 280", "price_pn >= 150",
                                       "city = 'london'", "city != 'paris'",
                                       "rating > 2.5", "rating <= 4.0"}
            : std::vector<std::string>{"price_range <= 2",
                                       "cuisine = 'italian'",
                                       "cuisine != 'thai'", "rating > 2.5",
                                       "price_range >= 2", "rating < 4.5"};
    Rng rng(4321);
    auto phrase = [&] {
      return "\"" + phrases[rng.Below(phrases.size())] + "\"";
    };
    auto objective = [&] { return objectives[rng.Below(objectives.size())]; };
    const size_t limits[] = {0, 3, 10, 1000};
    std::vector<std::string> queries;
    for (int i = 0; i < 10; ++i) {
      std::string where;
      switch (i % 5) {
        case 0:  // Single subjective leaf (dense scan).
          where = phrase();
          break;
        case 1:  // Conjunctive all-subjective.
          where = phrase() + " and " + phrase();
          break;
        case 2:  // Hard objective + subjective (filtered scan, columnar
                 // predicate sweep).
          where = objective() + " and " + phrase();
          break;
        case 3:  // Two hard objectives + subjective.
          where = objective() + " and " + objective() + " and " + phrase();
          break;
        case 4:  // Objective under OR (soft) plus negation.
          where = "(" + objective() + " or " + phrase() + ") and not " +
                  phrase();
          break;
      }
      queries.push_back("select * from " + table + " where " + where +
                        " limit " + std::to_string(limits[rng.Below(4)]));
    }
    queries.push_back("select * from " + table + " limit 7");
    // Uninterpretable: the text-retrieval fallback shape.
    queries.push_back("select * from " + table + " where \"" +
                      std::string(kNonsense) + "\" limit 5");
    queries.push_back("select * from " + table + " where " + objective() +
                      " and \"" + std::string(kNonsense) + "\" limit 1000");
    return queries;
  }

  static constexpr const char* kNonsense = "zorblatt quuxly vibes";

  static eval::DomainArtifacts* hotel_;
  static eval::DomainArtifacts* restaurant_;
};

eval::DomainArtifacts* ColumnarEquivalenceTest::hotel_ = nullptr;
eval::DomainArtifacts* ColumnarEquivalenceTest::restaurant_ = nullptr;

TEST_P(ColumnarEquivalenceTest, ColumnarBitIdenticalToRow) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  core::OpineDb& db = *artifacts.db;
  // The store Build folded equals the oracle's independent row fold of
  // the same extraction relation, bit for bit.
  ASSERT_TRUE(oracle::RowSummaries(db).folded());
  EXPECT_EQ(oracle::CompareStoreToRows(db), "");
  // The nonsense predicate must really take the text-fallback shape.
  ASSERT_EQ(db.interpreter().Interpret(kNonsense).method,
            core::InterpretMethod::kTextFallback);
  RunOracleSweep(db, artifacts.domain.objective_table,
                 MakeQueries(GetParam()));
}

// The paper's Table 7 ablation: with use_markers off the scorer embeds
// every extracted phrase per (entity, atom) instead of reading markers.
TEST_P(ColumnarEquivalenceTest, NoMarkerAblationBitIdenticalToRow) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  core::OpineDb& db = *artifacts.db;
  db.mutable_options()->use_markers = false;
  const ScopeExit restore([&] { db.mutable_options()->use_markers = true; });
  RunOracleSweep(db, artifacts.domain.objective_table,
                 MakeQueries(GetParam()));
}

// Queries served from precomputed lists — every subjective predicate of
// the sweep has one — must match the oracle too. (The name is kept from
// the degree cache this test first covered.)
TEST_P(ColumnarEquivalenceTest, WarmDegreeCacheBitIdentical) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  core::OpineDb& db = *artifacts.db;
  const auto queries = MakeQueries(GetParam());
  std::vector<std::string> predicates;
  for (const auto& sql : queries) {
    auto query = core::ParseSubjectiveSql(sql);
    ASSERT_TRUE(query.ok()) << sql;
    for (const auto& condition : query->conditions) {
      if (condition.kind == core::Condition::Kind::kSubjective) {
        predicates.push_back(condition.subjective);
      }
    }
  }
  const ScopeExit drop([&] { db.PrecomputeDegrees({}); });
  ASSERT_GT(db.PrecomputeDegrees(predicates), 0u);
  RunOracleSweep(db, artifacts.domain.objective_table, queries);
}

// Every slot of every precomputed list — the markers, the pool
// predicates and a text-fallback predicate — equals both the degree
// PredicateDegreeOfTruth computes and the oracle's row-path degree, at 1
// and 8 threads, and the two thread counts build identical lists.
TEST_P(ColumnarEquivalenceTest, PrecomputedListsMatchScorerAndOracle) {
  eval::DomainArtifacts& artifacts = Fixture(GetParam());
  core::OpineDb& db = *artifacts.db;
  std::vector<std::string> predicates = db.schema().Markers();
  for (size_t i = 0; i < 12 && i < artifacts.pool.size(); ++i) {
    predicates.push_back(artifacts.pool[i].text);
  }
  predicates.push_back(kNonsense);
  const size_t n = db.corpus().num_entities();
  std::vector<std::vector<double>> expected;
  for (const auto& predicate : predicates) {
    const oracle::RowPredicate row(db, predicate);
    std::vector<double> degrees(n);
    for (size_t e = 0; e < n; ++e) {
      degrees[e] = row.Degree(static_cast<text::EntityId>(e));
      auto direct =
          db.PredicateDegreeOfTruth(predicate, static_cast<text::EntityId>(e));
      ASSERT_TRUE(direct.ok()) << direct.status().ToString();
      ASSERT_EQ(*direct, degrees[e]) << predicate << " entity " << e;
    }
    expected.push_back(std::move(degrees));
  }
  const ScopeExit reset([&] {
    db.SetNumThreads(1);
    db.PrecomputeDegrees({});
  });
  std::vector<std::vector<double>> serial;
  for (const size_t threads : {1, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    db.SetNumThreads(threads);
    ASSERT_GT(db.PrecomputeDegrees(predicates), 0u);
    for (size_t p = 0; p < predicates.size(); ++p) {
      const std::vector<double>* list =
          db.precomputed_degrees(predicates[p]);
      ASSERT_NE(list, nullptr) << predicates[p];
      EXPECT_TRUE(*list == expected[p]) << predicates[p];
      if (threads == 1) {
        serial.push_back(*list);
      } else {
        EXPECT_TRUE(*list == serial[p]) << predicates[p];
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, ColumnarEquivalenceTest,
                         ::testing::Values("hotel", "restaurant"));

// ------------------------------------------- Generated scale fixture.

class ScaleFixtureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    datagen::ScaleSpec spec;
    spec.num_entities = ScaleTestEntities();
    fixture_ = new datagen::ScaledFixture(datagen::BuildScaledFixture(spec));
  }

  static void TearDownTestSuite() {
    delete fixture_;
    fixture_ = nullptr;
  }

  static datagen::ScaledFixture* fixture_;
};

datagen::ScaledFixture* ScaleFixtureTest::fixture_ = nullptr;

TEST_F(ScaleFixtureTest, ColumnarBitIdenticalToRowAtScale) {
  core::OpineDb& db = *fixture_->db;
  ASSERT_EQ(db.corpus().num_entities(), fixture_->spec.num_entities);
  const storage::Table table = datagen::ScaledObjectiveTable(*fixture_);
  ASSERT_EQ(table.num_rows(), fixture_->spec.num_entities);
  Rng rng(99);
  for (int i = 0; i < 6; ++i) {
    const std::string& predicate = fixture_->subjective_predicates[rng.Below(
        fixture_->subjective_predicates.size())];
    ExpectPredicateMatchesOracle(db, fixture_->table_name, predicate);
    if (i % 2 == 0) continue;
    // A hard objective cut ahead of the subjective leaf: the filtered
    // plan, whose candidate list is split across the worker threads. The
    // whole answer also catches a dropped candidate the top 10 hides.
    for (const size_t limit : {size_t{10}, table.num_rows()}) {
      const std::string sql =
          "select * from " + fixture_->table_name + " where price_pn < " +
          std::to_string(80 + 40 * i) + " and \"" + predicate +
          "\" limit " + std::to_string(limit);
      SCOPED_TRACE(sql);
      auto reference = oracle::Execute(db, table, sql);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ASSERT_GE(reference->size(), 10u);
      auto run = db.Execute(sql);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->plan, core::PlanKind::kFilteredScan);
      ExpectEveryConfiguration(db, sql, *reference);
    }
  }
}

TEST_F(ScaleFixtureTest, FixtureIsDeterministic) {
  // Same spec, small entity count: summaries and rankings reproduce
  // exactly across independent builds.
  datagen::ScaleSpec spec;
  spec.num_entities = 500;
  datagen::ScaledFixture a = datagen::BuildScaledFixture(spec);
  datagen::ScaledFixture b = datagen::BuildScaledFixture(spec);
  ASSERT_EQ(a.quality.size(), b.quality.size());
  for (size_t e = 0; e < a.quality.size(); ++e) {
    ASSERT_EQ(a.quality[e], b.quality[e]);
  }
  const std::string sql = "select * from " + a.table_name + " where \"" +
                          a.subjective_predicates[0] + "\" limit 10";
  EXPECT_TRUE(oracle::StoreImage(*a.db->columnar_store()) ==
              oracle::StoreImage(*b.db->columnar_store()));
  auto ra = a.db->Execute(sql);
  auto rb = b.db->Execute(sql);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ExpectBitIdentical(ra->results, rb->results);
}

// -------------------------------- ColumnarTable predicate differential.

storage::Table MixedTable() {
  storage::Table table("mixed", {{"name", storage::ValueType::kString},
                                 {"score", storage::ValueType::kDouble},
                                 {"count", storage::ValueType::kInt}});
  Rng rng(7);
  const char* names[] = {"alpha", "beta", "gamma", "delta", ""};
  for (int i = 0; i < 200; ++i) {
    storage::Value name = rng.Below(10) == 0
                              ? storage::Value::Null()
                              : storage::Value(std::string(names[rng.Below(5)]));
    storage::Value score = rng.Below(10) == 0
                               ? storage::Value::Null()
                               : storage::Value(rng.Uniform(-2.0, 5.0));
    storage::Value count =
        rng.Below(10) == 0
            ? storage::Value::Null()
            : storage::Value(static_cast<int64_t>(rng.Below(50)));
    EXPECT_TRUE(
        table.Append({std::move(name), std::move(score), std::move(count)})
            .ok());
  }
  return table;
}

TEST(ColumnarTableTest, EvalMatchesRowPredicateEverywhere) {
  storage::Table table = MixedTable();
  core::ColumnarTable columns(table);
  ASSERT_EQ(columns.num_rows(), table.num_rows());

  const std::vector<storage::Value> literals = {
      storage::Value(std::string("beta")),
      storage::Value(std::string("zeta")), storage::Value(std::string("")),
      storage::Value(1.5),
      storage::Value(static_cast<int64_t>(25)),
      storage::Value(static_cast<int64_t>(-1)),
      storage::Value::Null()};
  const storage::CompareOp ops[] = {
      storage::CompareOp::kEq, storage::CompareOp::kNe,
      storage::CompareOp::kLt, storage::CompareOp::kLe,
      storage::CompareOp::kGt, storage::CompareOp::kGe};
  size_t compiled_predicates = 0;
  for (const auto& column : table.columns()) {
    for (const auto& literal : literals) {
      for (const auto op : ops) {
        storage::ColumnPredicate predicate{column.name, op, literal};
        auto bound = predicate.Bind(table);
        ASSERT_TRUE(bound.ok());
        const auto compiled = columns.Compile(*bound);
        ++compiled_predicates;
        std::vector<uint8_t> match(table.num_rows(), 1);
        columns.FilterInto(compiled, &match);
        for (size_t row = 0; row < table.num_rows(); ++row) {
          const bool expected = bound->Matches(table, row);
          SCOPED_TRACE(column.name + " " +
                       storage::CompareOpSymbol(op) + " " +
                       literal.ToString() + " row " + std::to_string(row));
          EXPECT_EQ(core::ColumnarTable::Eval(compiled, row), expected);
          EXPECT_EQ(match[row] != 0, expected);
        }
      }
    }
  }
  EXPECT_EQ(compiled_predicates, 3u * literals.size() * 6u);
}

// --------------------------------------- InstallSummaries validation.

TEST(InstallSummariesTest, RejectsWrongShapes) {
  datagen::ScaleSpec spec;
  spec.num_entities = 200;
  datagen::ScaledFixture fixture = datagen::BuildScaledFixture(spec);
  core::OpineDb& db = *fixture.db;
  const uint64_t epoch = db.cache_epoch();
  const size_t dim = db.phrase_embedder().dim();

  // Wrong attribute count.
  EXPECT_FALSE(db.InstallSummaries(core::ColumnarSummaryStore()).ok());

  // Wrong entity count.
  EXPECT_FALSE(
      db.InstallSummaries(core::ColumnarSummaryStore(db.schema(), 100, dim))
          .ok());

  // Another marker count, or centroids of another width than the phrase
  // embedder: the scorer could not bind either.
  core::SubjectiveSchema narrow = db.schema();
  narrow.attributes[0].summary_type.markers.pop_back();
  const auto expect_invalid = [&db](core::ColumnarSummaryStore bad) {
    const Status status = db.InstallSummaries(std::move(bad));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
  };
  expect_invalid(core::ColumnarSummaryStore(narrow, 200, dim));
  expect_invalid(core::ColumnarSummaryStore(db.schema(), 200, dim + 1));
  EXPECT_EQ(db.cache_epoch(), epoch) << "a rejected install mutated state";
}

TEST(InstallSummariesTest, InstallBumpsEpochAndServesNewData) {
  datagen::ScaleSpec spec;
  spec.num_entities = 200;
  datagen::ScaledFixture fixture = datagen::BuildScaledFixture(spec);
  core::OpineDb& db = *fixture.db;
  const uint64_t epoch = db.cache_epoch();

  ASSERT_TRUE(db.InstallSummaries(core::ColumnarSummaryStore(
                                      db.schema(), 200,
                                      db.phrase_embedder().dim()))
                  .ok());
  EXPECT_GT(db.cache_epoch(), epoch);
  // Queries still execute against the (now empty) summaries, matching
  // the oracle's row walk.
  ExpectPredicateMatchesOracle(db, fixture.table_name,
                               fixture.subjective_predicates[0]);
}

// Regression (silent-wipe bugfix): InstallSummaries clears the
// extraction relation, so a later Reaggregate would rebuild the just-
// installed summaries from nothing. It must refuse with
// FailedPrecondition — zero epoch movement, installed data untouched —
// instead of silently zeroing every histogram as it used to.
TEST(InstallSummariesTest, ReaggregateAfterInstallIsRefused) {
  datagen::ScaleSpec spec;
  spec.num_entities = 200;
  datagen::ScaledFixture fixture = datagen::BuildScaledFixture(spec);
  core::OpineDb& db = *fixture.db;

  // Same shape, same values: a copy through the snapshot codec.
  auto installed = core::DecodeSummaries(
      db.schema(), core::EncodeSummaries(*db.columnar_store()));
  ASSERT_TRUE(installed.ok()) << installed.status().ToString();
  ASSERT_TRUE(db.InstallSummaries(std::move(*installed)).ok());
  const uint64_t epoch = db.cache_epoch();
  const std::string image = oracle::StoreImage(*db.columnar_store());

  auto status = db.Reaggregate(db.options().aggregation);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.cache_epoch(), epoch)
      << "a refused mutation must not bump the epoch";
  EXPECT_TRUE(oracle::StoreImage(*db.columnar_store()) == image)
      << "the installed summaries were modified by a refused Reaggregate";
}

// ------------------------------------------------ Cache shard widths.

TEST(CacheShardKnobsTest, EngineHonorsConfiguredShardCounts) {
  eval::BuildOptions options;
  options.generator.num_entities = 12;
  options.generator.min_reviews_per_entity = 4;
  options.generator.max_reviews_per_entity = 8;
  options.seed = 77;
  options.generator.seed = 77;
  options.predicate_pool_size = 20;
  options.membership_training_tuples = 100;
  options.engine.cache.enable_results = true;
  options.engine.cache.enable_interpretation = true;
  auto artifacts = eval::BuildArtifacts(datagen::HotelDomain(), options);
  core::OpineDb& db = *artifacts.db;

  // The engine stripes its layers with fixed widths.
  ASSERT_NE(db.result_cache(), nullptr);
  EXPECT_EQ(db.result_cache()->num_shards(), 8u);
  ASSERT_NE(db.interpretation_cache(), nullptr);
  EXPECT_EQ(db.interpretation_cache()->num_shards(), 16u);
  db.ConfigureCaches(db.options().cache);
  ASSERT_NE(db.result_cache(), nullptr);
  EXPECT_EQ(db.result_cache()->num_shards(), 8u);

  // Degenerate counts clamp to one shard instead of crashing.
  cache::InterpretationCache standalone(0);
  EXPECT_EQ(standalone.num_shards(), 1u);
  cache::ResultCache standalone_results(1 << 20, 0);
  EXPECT_EQ(standalone_results.num_shards(), 1u);
}

}  // namespace
}  // namespace opinedb
