// Incremental-ingest battery (docs/PERSISTENCE.md §WAL): the
// differential proof that OpineDb::AppendReviews is an invisible
// optimization over rebuilding, plus the WAL-backed durability loop.
//
//  1. append ≡ rebuild: appending batches and then Reaggregate-ing the
//     extended extraction relation must not change a byte of any
//     answer — the additive fold is exact, not approximate — and after
//     every append round the answers equal the row-path oracle's
//     (tests/oracle/), text-fallback predicate included;
//  2. derived state after an append: one batch bumps the epoch once and
//     changes only its entities' summary rows, the derived summary
//     columns equal a full refresh after eight batches, the interpreter
//     equals a fresh
//     one over the extended relation (120-entity hotel domain, every
//     pool predicate), precomputed degree lists stay resident and equal
//     a fresh PrecomputeDegrees after every append (a list whose
//     interpretation is unchanged is patched, not rescored), a
//     checkpoint saves only the interpretations queried since the last
//     append, and refused mutations leave the epoch alone
//     (min_reviewer_reviews, unknown entities);
//  3. durability: EnableWal → append → reopen-from-snapshot → EnableWal
//     replays the tail bit-identically; Checkpoint folds the log into
//     the next snapshot generation and retires the segment; the
//     storage.wal_* crash sites (torn append, failed fsync, fold crash)
//     each leave a state recovery repairs without losing an
//     acknowledged batch, and every WAL entry of the fault catalog is
//     reached by a drill;
//  4. concurrency: appends and checkpoints under a live query hammer at
//     8 threads, with both caches on, keep answers bit-identical to a
//     single-threaded reference engine without caches fed the same
//     batches (the tsan gate for the ingest path's locking);
//  5. the HTTP front door: POST /reviews admission control and
//     POST /admin/checkpoint surface the same contracts over JSON.
//
// Crash-site tests self-skip when OPINEDB_FAULT_INJECTION is off.
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/serialize.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/trace.h"
#include "oracle/row_oracle.h"
#include "server/server.h"
#include "storage/wal.h"

namespace opinedb {
namespace {

namespace fs = std::filesystem;

/// One small, fully deterministic hotel-domain engine; every call with
/// the same seed yields bit-identical models, corpora and summaries.
eval::DomainArtifacts BuildEngine() {
  eval::BuildOptions options;
  options.generator.num_entities = 12;
  options.generator.min_reviews_per_entity = 5;
  options.generator.max_reviews_per_entity = 8;
  options.generator.seed = 83;
  options.seed = 83;
  options.extractor_training_sentences = 250;
  options.predicate_pool_size = 12;
  options.membership_training_tuples = 250;
  return eval::BuildArtifacts(datagen::HotelDomain(), options);
}

/// Deterministic review batches that actually extract opinions: bodies
/// reuse the hotel domain's vocabulary.
std::vector<text::Review> MakeBatch(uint64_t seed, int size,
                                    int32_t num_entities) {
  static const std::vector<std::string> kBodies = {
      "the room was very clean and the staff was friendly",
      "terrible noisy location but the bed was comfortable",
      "excellent breakfast and a spotless bathroom",
      "rude reception and the wifi never worked",
  };
  std::mt19937_64 rng(seed);
  std::vector<text::Review> batch;
  for (int i = 0; i < size; ++i) {
    text::Review review;
    review.entity = static_cast<int32_t>(rng() % num_entities);
    review.reviewer = 700 + static_cast<int32_t>(rng() % 9);
    review.date = 20260800 + static_cast<int32_t>(seed % 30);
    review.body = kBodies[rng() % kBodies.size()];
    batch.push_back(std::move(review));
  }
  return batch;
}

void ExpectBitIdentical(const core::QueryResult& want,
                        const core::QueryResult& got,
                        const std::string& context) {
  EXPECT_EQ(want.partial, got.partial) << context;
  EXPECT_EQ(want.degraded, got.degraded) << context;
  ASSERT_EQ(want.results.size(), got.results.size()) << context;
  for (size_t i = 0; i < want.results.size(); ++i) {
    EXPECT_EQ(want.results[i].entity, got.results[i].entity)
        << context << " rank " << i;
    EXPECT_EQ(want.results[i].score, got.results[i].score)
        << context << " rank " << i;  // Bit-exact doubles.
  }
}

class IngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    dir_ = fs::path(::testing::TempDir()) /
           ("ingest_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void TearDown() override {
    fault::DisarmAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir() const { return dir_.string(); }

  /// Journals `payloads` into the segment EnableWal(dir()) replays for
  /// `db`, framed and checksummed exactly as a live append would be.
  void WriteSegment(const core::OpineDb& db,
                    const std::vector<std::string>& payloads) {
    fs::create_directories(dir_);
    const uint64_t base = db.snapshot_generation();
    auto writer = storage::WalWriter::Open(
        (dir_ / storage::WalFileName(base)).string(), base);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(writer->Append(payload).ok());
    }
  }

  static std::vector<std::string> PoolQueries(
      const eval::DomainArtifacts& artifacts, size_t count) {
    std::vector<std::string> queries;
    const std::string table = artifacts.db->schema().objective_table;
    for (size_t i = 0; i < count && i < artifacts.pool.size(); ++i) {
      queries.push_back("select * from " + table + " where \"" +
                        artifacts.pool[i].text + "\" limit 10");
    }
    return queries;
  }

  static core::QueryResult MustExecute(core::OpineDb& db,
                                       const std::string& sql) {
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : core::QueryResult{};
  }

  static void ExpectEnginesAgree(core::OpineDb& a, core::OpineDb& b,
                                 const std::vector<std::string>& queries,
                                 const std::string& context) {
    for (const std::string& sql : queries) {
      ExpectBitIdentical(MustExecute(a, sql), MustExecute(b, sql),
                         context + ": " + sql);
    }
  }

  fs::path dir_;
};

// ----------------------------------------------- Append ≡ rebuild.

TEST_F(IngestTest, AppendIsBitIdenticalToRebuildOfExtendedRelation) {
  eval::DomainArtifacts incremental = BuildEngine();
  eval::DomainArtifacts rebuilt = BuildEngine();
  const auto queries = PoolQueries(incremental, 8);
  const int32_t entities =
      static_cast<int32_t>(incremental.db->corpus().num_entities());

  // The oracle sweep adds the text-fallback shape (an uninterpretable
  // predicate) and a hard objective cut to the pool queries.
  const std::string table = incremental.db->schema().objective_table;
  std::vector<std::string> oracle_queries = queries;
  oracle_queries.push_back("select * from " + table +
                           " where \"zorblatt quuxly vibes\" limit 10");
  oracle_queries.push_back("select * from " + table +
                           " where price_pn < 200 and \"" +
                           incremental.pool[0].text + "\" limit 1000");
  ASSERT_EQ(incremental.db->interpreter()
                .Interpret("zorblatt quuxly vibes")
                .method,
            core::InterpretMethod::kTextFallback);

  // The incremental engine keeps precomputed lists for the pool
  // predicates, the markers and the text-fallback predicate: its answers
  // below are served from lists the ingest path maintains.
  // One spelling per list, so each predicate below names its own list.
  std::vector<std::string> predicates;
  std::set<std::string> keys;
  auto add = [&](const std::string& predicate) {
    if (keys.insert(NormalizePredicate(predicate)).second) {
      predicates.push_back(predicate);
    }
  };
  for (const auto& marker : incremental.db->schema().Markers()) add(marker);
  for (size_t i = 0; i < 8 && i < incremental.pool.size(); ++i) {
    add(incremental.pool[i].text);
  }
  add("zorblatt quuxly vibes");
  const size_t lists = incremental.db->PrecomputeDegrees(predicates);
  ASSERT_EQ(lists, predicates.size());
  uint64_t patched_total = 0;

  for (uint64_t round = 0; round < 6; ++round) {
    const auto batch = MakeBatch(round, 1 + static_cast<int>(round % 4),
                                 entities);
    std::vector<core::PredicateInterpretation> before;
    for (const auto& predicate : predicates) {
      before.push_back(incremental.db->interpreter().Interpret(predicate));
    }
    obs::TraceBuffer trace(64);
    {
      obs::TraceScope scope(&trace);
      ASSERT_TRUE(incremental.db->AppendReviews(batch).ok());
    }
    ASSERT_TRUE(rebuilt.db->AppendReviews(batch).ok());
    // Each maintained list equals a fresh PrecomputeDegrees over the same
    // post-append state, bit for bit.
    ASSERT_EQ(rebuilt.db->PrecomputeDegrees(predicates), lists);
    uint64_t unchanged = 0;
    for (size_t p = 0; p < predicates.size(); ++p) {
      const std::vector<double>* kept =
          incremental.db->precomputed_degrees(predicates[p]);
      const std::vector<double>* fresh =
          rebuilt.db->precomputed_degrees(predicates[p]);
      ASSERT_NE(kept, nullptr) << predicates[p];
      ASSERT_NE(fresh, nullptr) << predicates[p];
      EXPECT_TRUE(*kept == *fresh)
          << "round " << round << ": list of " << predicates[p]
          << " differs from a fresh PrecomputeDegrees";
      if (incremental.db->interpreter().Interpret(predicates[p]) ==
          before[p]) {
        ++unchanged;
      }
    }
    // A list whose interpretation did not change was patched (only the
    // touched entities' slots rescored); every other one was rescored
    // whole.
    const obs::SpanRecord* append = nullptr;
    const auto spans = trace.Snapshot();
    for (const auto& span : spans) {
      if (span.name == "ingest.append") append = &span;
    }
    ASSERT_NE(append, nullptr);
    const uint64_t patched = std::stoull(std::string(
        append->Attribute("lists_patched")));
    const uint64_t rescored = std::stoull(std::string(
        append->Attribute("lists_rescored")));
    EXPECT_EQ(append->Attribute("lists_dropped"), "0");
    EXPECT_EQ(patched + rescored, lists);
    EXPECT_EQ(patched, unchanged) << "round " << round;
    patched_total += patched;

    // After every round the store equals the oracle's own row fold of
    // the extended relation, and the delta-patched engine answers
    // exactly what the oracle computes from those rows.
    EXPECT_EQ(oracle::CompareStoreToRows(*incremental.db), "")
        << "round " << round;
    for (const std::string& sql : oracle_queries) {
      auto answer = oracle::Execute(*incremental.db,
                                    incremental.domain.objective_table, sql);
      ASSERT_TRUE(answer.ok()) << sql << ": " << answer.status().ToString();
      core::QueryResult want;
      want.results = std::move(*answer);
      ExpectBitIdentical(want, MustExecute(*incremental.db, sql),
                         "round " + std::to_string(round) + ": " + sql);
    }
  }
  EXPECT_GT(patched_total, 0u) << "no list ever took the patch path";
  // The rebuilt engine re-derives every summary from its (extended)
  // extraction relation; the incremental engine only ever folded
  // deltas. Their answers must not differ by a bit.
  ASSERT_TRUE(
      rebuilt.db->Reaggregate(rebuilt.db->options().aggregation).ok());
  ExpectEnginesAgree(*incremental.db, *rebuilt.db, queries,
                     "append vs rebuild");
  EXPECT_EQ(incremental.db->corpus().num_reviews(),
            rebuilt.db->corpus().num_reviews());
  // The stores themselves: every column array and provenance log.
  EXPECT_TRUE(oracle::StoreImage(*incremental.db->columnar_store()) ==
              oracle::StoreImage(*rebuilt.db->columnar_store()))
      << "appended store differs from the rebuilt one";
}

/// Raw bytes of one (attribute, entity) row of `store`: every cell's
/// count, mean sentiment, centroid and provenance, then the unmatched
/// count.
std::string RowImage(const core::ColumnarSummaryStore& store,
                     size_t attribute, size_t entity) {
  const oracle::MarkerSummary row =
      oracle::RowFromStore(store, attribute, entity);
  std::string image;
  auto put = [&image](const void* data, size_t bytes) {
    image.append(static_cast<const char*>(data), bytes);
  };
  for (size_t m = 0; m < row.num_markers(); ++m) {
    const oracle::MarkerCell& cell = row.cell(m);
    put(&cell.count, sizeof(cell.count));
    put(&cell.mean_sentiment, sizeof(cell.mean_sentiment));
    put(cell.centroid.data(), cell.centroid.size() * sizeof(float));
    put(cell.provenance.data(),
        cell.provenance.size() * sizeof(text::ReviewId));
  }
  const double unmatched = row.unmatched_count();
  put(&unmatched, sizeof(unmatched));
  return image;
}

// (Named for the per-entity data epochs this test first covered; they
// are gone, and it now pins what one append touches: the global epoch
// once, and the summary rows of the batch's entities only.)
TEST_F(IngestTest, AppendUpdatesOnlyTouchedEntityEpochs) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  const size_t entities = db.corpus().num_entities();
  ASSERT_GE(entities, 3u);
  const size_t attributes = db.columnar_store()->num_attributes();

  std::vector<std::vector<std::string>> before(attributes);
  for (size_t a = 0; a < attributes; ++a) {
    for (size_t e = 0; e < entities; ++e) {
      before[a].push_back(RowImage(*db.columnar_store(), a, e));
    }
  }
  const uint64_t epoch_before = db.cache_epoch();

  text::Review review;
  review.entity = 1;
  review.reviewer = 901;
  review.date = 20260807;
  review.body = "the staff was friendly and the room was clean";
  ASSERT_TRUE(db.AppendReviews({review}).ok());

  EXPECT_EQ(db.cache_epoch(), epoch_before + 1)
      << "one batch bumps the global epoch exactly once";
  size_t touched_rows = 0;
  for (size_t a = 0; a < attributes; ++a) {
    for (size_t e = 0; e < entities; ++e) {
      const bool same = RowImage(*db.columnar_store(), a, e) == before[a][e];
      if (e == 1) {
        if (!same) ++touched_rows;
      } else {
        EXPECT_TRUE(same) << "attribute " << a << ", entity " << e
                          << " was not touched";
      }
    }
  }
  EXPECT_GT(touched_rows, 0u) << "the appended review changed no row";
}

// The append fold refreshes the derived columns (total, log1p_total,
// centroid_norm) of the entities it touches, and AddUnmatched refreshes
// nothing. After eight appended batches those columns must still equal,
// byte for byte, a full refresh of the same folded state:
// DecodeSummaries(EncodeSummaries(store)) persists only the folded
// columns and recomputes the derived ones.
TEST_F(IngestTest, DerivedColumnsStayFreshUnderAppends) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  const auto entities = static_cast<int32_t>(db.corpus().num_entities());
  for (uint64_t batch = 0; batch < 8; ++batch) {
    ASSERT_TRUE(db.AppendReviews(MakeBatch(40 + batch, 8, entities)).ok());
  }
  const core::ColumnarSummaryStore& store = *db.columnar_store();
  auto refreshed =
      core::DecodeSummaries(db.schema(), core::EncodeSummaries(store));
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  auto same = [](const double* a, const double* b, size_t n) {
    return std::memcmp(a, b, n * sizeof(double)) == 0;
  };
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    const core::AttributeColumns& live = store.attribute(a);
    const core::AttributeColumns& want = refreshed->attribute(a);
    for (size_t e = 0; e < live.num_entities; ++e) {
      const std::string at =
          "attribute " + std::to_string(a) + " entity " + std::to_string(e);
      EXPECT_TRUE(same(&live.total[e], &want.total[e], 1)) << at;
      EXPECT_TRUE(same(&live.log1p_total[e], &want.log1p_total[e], 1)) << at;
      const size_t k = live.num_markers;
      EXPECT_TRUE(same(live.centroid_norm.data() + e * k,
                       want.centroid_norm.data() + e * k, k))
          << at;
    }
  }
}

TEST_F(IngestTest, AppendedInterpreterEqualsAFreshOne) {
  // The 120-entity hotel seed domain: its predicate pool reaches all
  // three cascade stages, so the attribute idf is exercised.
  eval::BuildOptions options;
  options.generator.num_entities = 120;
  options.generator.min_reviews_per_entity = 25;
  options.generator.max_reviews_per_entity = 60;
  options.generator.seed = 42;
  options.predicate_pool_size = 190;
  options.seed = 42;
  options.engine.num_threads = 1;
  eval::DomainArtifacts artifacts =
      eval::BuildArtifacts(datagen::HotelDomain(), options);
  core::OpineDb& db = *artifacts.db;
  const int32_t entities = static_cast<int32_t>(db.corpus().num_entities());

  size_t cooccurrence = 0;
  for (uint64_t round = 0; round < 3; ++round) {
    std::vector<text::Review> batch = MakeBatch(200 + round, 4, entities);
    if (round == 1) {
      // A last review without extractions: the relation's largest review
      // id + 1 then falls short of the corpus size, and N must still be
      // the one a fresh build derives.
      text::Review silent;
      silent.entity = 3;
      silent.reviewer = 950;
      silent.date = 20260810;
      silent.body = "we arrived on a tuesday";
      batch.push_back(silent);
    }
    ASSERT_TRUE(db.AppendReviews(batch).ok());
    if (round == 1) {
      ASSERT_LT(static_cast<size_t>(db.tables().extractions.back().review) + 1,
                db.corpus().num_reviews());
    }
    const core::Interpreter fresh(&db.schema(), &db.tables(),
                                  &db.phrase_embedder(), &db.review_index(),
                                  &db.review_sentiment());
    for (const auto& predicate : artifacts.pool) {
      const core::PredicateInterpretation got =
          db.interpreter().Interpret(predicate.text);
      EXPECT_TRUE(got == fresh.Interpret(predicate.text))
          << "round " << round << ": " << predicate.text;
      if (got.method == core::InterpretMethod::kCooccurrence) ++cooccurrence;
    }
  }
  EXPECT_GT(cooccurrence, 0u) << "no predicate reached the co-occurrence stage";
}

TEST_F(IngestTest, CheckpointSavesOnlyInterpretationsQueriedSinceAppend) {
  cache::CacheConfig caches;
  caches.enable_interpretation = true;
  eval::DomainArtifacts live = BuildEngine();
  live.db->ConfigureCaches(caches);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const auto queries = PoolQueries(live, 5);
  for (const std::string& sql : queries) MustExecute(*live.db, sql);
  ASSERT_GE(live.db->interpretation_cache()->size(), 2u);

  // The append expires every entry; querying one predicate again
  // refills only its entry at the new epoch.
  ASSERT_TRUE(live.db
                  ->AppendReviews(MakeBatch(
                      30, 2,
                      static_cast<int32_t>(live.db->corpus().num_entities())))
                  .ok());
  MustExecute(*live.db, queries[0]);
  ASSERT_TRUE(live.db->Checkpoint().ok());

  // A reopened engine serves only that entry; the others would be
  // pre-append interpretations passed off as current.
  eval::DomainArtifacts reopened = BuildEngine();
  reopened.db->ConfigureCaches(caches);
  ASSERT_TRUE(reopened.db->OpenDatabase(dir()).ok());
  EXPECT_EQ(reopened.db->interpretation_cache()->size(), 1u);
  cache::InterpretationCache::Entry entry;
  EXPECT_TRUE(reopened.db->interpretation_cache()->Lookup(
      NormalizePredicate(live.pool[0].text), reopened.db->cache_epoch(),
      &entry));
}

// (Named for the degree cache this test first covered; it now pins the
// precomputed lists.)
TEST_F(IngestTest, DegreeCacheStaysWarmForUntouchedPredicates) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  const std::string predicate = artifacts.pool[0].text;
  const std::string sql = "select * from " + db.schema().objective_table +
                          " where \"" + predicate + "\" limit 10";
  ASSERT_EQ(db.PrecomputeDegrees({predicate}), 1u);

  // Ingest keeps the list resident: the query after it is still served
  // from the list, not scored.
  ASSERT_TRUE(db.AppendReviews(MakeBatch(1, 2, static_cast<int32_t>(
                                                   db.corpus().num_entities())))
                  .ok());
  const std::vector<double>* list = db.precomputed_degrees(predicate);
  ASSERT_NE(list, nullptr) << "ingest must not drop warm degree lists";
  const core::QueryResult served = MustExecute(db, sql);
  EXPECT_EQ(served.stats.cache_hits, 1u);
  EXPECT_EQ(served.stats.cache_misses, 0u);

  // The maintained list itself is bit-identical to what scoring computes.
  for (size_t e = 0; e < list->size(); ++e) {
    auto direct =
        db.PredicateDegreeOfTruth(predicate, static_cast<text::EntityId>(e));
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    EXPECT_EQ((*list)[e], *direct) << "entity " << e;
  }
}

// ------------------------------------------------- Refusal contracts.

TEST_F(IngestTest, RetroactiveReviewerFilterRefusesAppend) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  core::AggregationOptions filtered = db.options().aggregation;
  filtered.min_reviewer_reviews = 2;
  ASSERT_TRUE(db.Reaggregate(filtered).ok());

  const uint64_t epoch = db.cache_epoch();
  const size_t reviews = db.corpus().num_reviews();
  auto status = db.AppendReviews(
      MakeBatch(2, 1, static_cast<int32_t>(db.corpus().num_entities())));
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.cache_epoch(), epoch) << "a refused append must be a no-op";
  EXPECT_EQ(db.corpus().num_reviews(), reviews);
}

TEST_F(IngestTest, UnknownEntityRefusesWholeBatch) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  const int32_t entities = static_cast<int32_t>(db.corpus().num_entities());

  auto batch = MakeBatch(3, 2, entities);
  batch[1].entity = entities + 5;  // Out of range.
  const uint64_t epoch = db.cache_epoch();
  const size_t reviews = db.corpus().num_reviews();
  auto status = db.AppendReviews(batch);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db.cache_epoch(), epoch);
  EXPECT_EQ(db.corpus().num_reviews(), reviews)
      << "validation precedes application: no partial batch";
}

// ------------------------------------------------------- Durability.

TEST_F(IngestTest, WalReplayRecoversAppendsBitIdentically) {
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 6);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  EXPECT_TRUE(live.db->wal_enabled());

  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  for (uint64_t round = 0; round < 4; ++round) {
    ASSERT_TRUE(live.db->AppendReviews(MakeBatch(10 + round, 2, entities)).ok());
  }

  // Crash-recover into a second engine: snapshot + WAL tail must equal
  // the live engine's in-memory state, bit for bit.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  EXPECT_EQ(recovered.db->corpus().num_reviews(),
            live.db->corpus().num_reviews());
  ExpectEnginesAgree(*live.db, *recovered.db, queries, "wal replay");
}

// The journal's bytes for a fixed batch: u32 count, then per review u32
// entity | u32 reviewer | u32 date | u64 body length | body. Every other
// WAL test round-trips through the same codec and would miss a
// symmetric format change.
TEST_F(IngestTest, JournaledBatchBytesArePinned) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  ASSERT_TRUE(db.EnableWal(dir()).ok());
  std::vector<text::Review> batch(2);
  batch[0].entity = 1;
  batch[0].reviewer = 700;
  batch[0].date = 20260801;
  batch[0].body = "the room was very clean";
  batch[1].entity = 3;
  batch[1].reviewer = 701;
  batch[1].date = 20260802;
  batch[1].body = "rude reception";
  ASSERT_TRUE(db.AppendReviews(batch).ok());

  auto wal = storage::ReadWal(
      (dir_ / storage::WalFileName(db.snapshot_generation())).string());
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_EQ(wal->records.size(), 1u);
  std::string hex;
  for (const char c : wal->records[0]) {
    static constexpr char kDigits[] = "0123456789abcdef";
    hex.push_back(kDigits[static_cast<unsigned char>(c) >> 4]);
    hex.push_back(kDigits[static_cast<unsigned char>(c) & 0xf]);
  }
  EXPECT_EQ(hex,
            "02000000"  // u32 review count
            "01000000" "bc020000" "c1273501" "1700000000000000"
            "74686520726f6f6d20776173207665727920636c65616e"
            "03000000" "bd020000" "c2273501" "0e00000000000000"
            "7275646520726563657074696f6e");
}

// A record whose CRC verifies but whose count claims more reviews than
// its bytes can hold is a ParseError before any allocation, on replay
// and on a follower alike.
TEST_F(IngestTest, BatchCountBeyondItsBytesIsAParseError) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  const std::string claims_max(4, '\xff');  // 2^32 - 1 reviews, no bytes.
  WriteSegment(db, {claims_max});
  const size_t reviews = db.corpus().num_reviews();
  const uint64_t epoch = db.cache_epoch();

  const Status replay = db.EnableWal(dir());
  EXPECT_EQ(replay.code(), StatusCode::kParseError) << replay.ToString();
  EXPECT_FALSE(db.wal_enabled());
  EXPECT_EQ(db.corpus().num_reviews(), reviews);
  EXPECT_EQ(db.cache_epoch(), epoch);

  db.SetReadOnly(true);
  ASSERT_TRUE(db.EnableWal(dir() + "/follower").ok());
  auto shipped = db.ApplyReplicatedRecord(claims_max);
  ASSERT_FALSE(shipped.ok());
  EXPECT_EQ(shipped.status().code(), StatusCode::kParseError);
  EXPECT_EQ(db.corpus().num_reviews(), reviews);
  EXPECT_EQ(db.cache_epoch(), epoch);
}

// Replay decodes every record before applying the first: a bad record
// after a good one leaves the engine untouched, so retrying the replay
// cannot apply the good batch twice.
TEST_F(IngestTest, FailedReplayAppliesNothingAndRetriesIdempotently) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  // Entity 0, reviewer 1, date 2, body "clean room"; then a record whose
  // count claims one review and holds none.
  const std::string one_review(
      "\x01\x00\x00\x00"
      "\x00\x00\x00\x00"
      "\x01\x00\x00\x00"
      "\x02\x00\x00\x00"
      "\x0a\x00\x00\x00\x00\x00\x00\x00"
      "clean room",
      34);
  WriteSegment(db, {one_review, std::string("\x01\x00\x00\x00", 4)});
  const size_t reviews = db.corpus().num_reviews();
  const uint64_t epoch = db.cache_epoch();

  for (int attempt = 0; attempt < 2; ++attempt) {
    const Status status = db.EnableWal(dir());
    EXPECT_EQ(status.code(), StatusCode::kParseError)
        << "attempt " << attempt << ": " << status.ToString();
    EXPECT_FALSE(db.wal_enabled()) << "attempt " << attempt;
    EXPECT_EQ(db.corpus().num_reviews(), reviews) << "attempt " << attempt;
    EXPECT_EQ(db.cache_epoch(), epoch) << "attempt " << attempt;
  }
}

TEST_F(IngestTest, CheckpointFoldsWalAndRetiresSegment) {
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 6);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  const uint64_t base = live.db->snapshot_generation();
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());

  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  ASSERT_TRUE(live.db->AppendReviews(MakeBatch(20, 3, entities)).ok());
  ASSERT_TRUE(fs::exists(dir_ / storage::WalFileName(base)));

  ASSERT_TRUE(live.db->Checkpoint().ok());
  const uint64_t folded = live.db->snapshot_generation();
  EXPECT_GT(folded, base);
  EXPECT_FALSE(fs::exists(dir_ / storage::WalFileName(base)))
      << "a folded segment must be retired";
  EXPECT_TRUE(fs::exists(dir_ / storage::WalFileName(folded)))
      << "a fresh segment must be rotated in";
  EXPECT_TRUE(live.db->wal_enabled());

  // Post-checkpoint appends land in the new segment; recovery folds
  // snapshot + tail exactly as before.
  ASSERT_TRUE(live.db->AppendReviews(MakeBatch(21, 2, entities)).ok());
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  EXPECT_EQ(recovered.db->snapshot_generation(), folded);
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  ExpectEnginesAgree(*live.db, *recovered.db, queries, "post-checkpoint");
}

TEST_F(IngestTest, SaveDatabaseIsRefusedWhileWalIsAttached) {
  eval::DomainArtifacts artifacts = BuildEngine();
  ASSERT_TRUE(artifacts.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(artifacts.db->EnableWal(dir()).ok());
  auto status = artifacts.db->SaveDatabase(dir());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << "an out-of-band snapshot would orphan the active WAL segment";
}

TEST_F(IngestTest, CheckpointWithoutWalIsRefused) {
  eval::DomainArtifacts artifacts = BuildEngine();
  auto status = artifacts.db->Checkpoint();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

// ------------------------------------------------- Crash-site sweep.

TEST_F(IngestTest, TornAppendAppliesNothingAndRecoveryRepairs) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 4);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  ASSERT_TRUE(live.db->AppendReviews(MakeBatch(30, 2, entities)).ok());

  std::vector<core::QueryResult> goldens;
  for (const auto& sql : queries) goldens.push_back(MustExecute(*live.db, sql));
  const uint64_t epoch = live.db->cache_epoch();
  const size_t reviews = live.db->corpus().num_reviews();

  fault::Arm("storage.wal_short_write", 1);
  auto torn = live.db->AppendReviews(MakeBatch(31, 2, entities));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(fault::HitCount("storage.wal_short_write"), 1u);
  // Journal-first: a batch that never became durable must not have
  // touched the in-memory state either.
  EXPECT_EQ(live.db->cache_epoch(), epoch);
  EXPECT_EQ(live.db->corpus().num_reviews(), reviews);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(goldens[i], MustExecute(*live.db, queries[i]),
                       "after torn append");
  }

  // Recovery from the torn segment: the acknowledged batch replays, the
  // torn tail is truncated, and ingest resumes.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  EXPECT_EQ(recovered.db->corpus().num_reviews(), reviews);
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectBitIdentical(goldens[i], MustExecute(*recovered.db, queries[i]),
                       "after torn-tail recovery");
  }
  ASSERT_TRUE(recovered.db->AppendReviews(MakeBatch(32, 1, entities)).ok());
}

TEST_F(IngestTest, FsyncFailureAppliesNothing) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  eval::DomainArtifacts live = BuildEngine();
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  const uint64_t epoch = live.db->cache_epoch();
  const size_t reviews = live.db->corpus().num_reviews();

  fault::Arm("storage.wal_fsync", 1);
  ASSERT_FALSE(live.db->AppendReviews(MakeBatch(40, 2, entities)).ok());
  EXPECT_EQ(fault::HitCount("storage.wal_fsync"), 1u);
  EXPECT_EQ(live.db->cache_epoch(), epoch);
  EXPECT_EQ(live.db->corpus().num_reviews(), reviews);

  // The rolled-back segment replays to the pre-failure state.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  EXPECT_EQ(recovered.db->corpus().num_reviews(), reviews);
}

TEST_F(IngestTest, FoldCrashLeavesRecoverableCommittedSnapshot) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  eval::DomainArtifacts live = BuildEngine();
  const auto queries = PoolQueries(live, 4);
  ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
  const uint64_t base = live.db->snapshot_generation();
  ASSERT_TRUE(live.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(live.db->corpus().num_entities());
  ASSERT_TRUE(live.db->AppendReviews(MakeBatch(50, 3, entities)).ok());

  // Crash between the checkpoint's snapshot commit and WAL retirement:
  // the new generation is durable, the old segment is stale droppings.
  fault::Arm("storage.wal_fold", 1);
  auto folded = live.db->Checkpoint();
  ASSERT_FALSE(folded.ok());
  EXPECT_EQ(fault::HitCount("storage.wal_fold"), 1u);
  EXPECT_FALSE(live.db->wal_enabled()) << "the crashed fold detaches the WAL";
  EXPECT_TRUE(fs::exists(dir_ / storage::WalFileName(base)))
      << "the stale segment survives the simulated crash";

  // Recovery serves the committed fold; the stale segment is ignored
  // (its base no longer matches) and retired by the next checkpoint.
  eval::DomainArtifacts recovered = BuildEngine();
  ASSERT_TRUE(recovered.db->OpenDatabase(dir()).ok());
  EXPECT_GT(recovered.db->snapshot_generation(), base);
  ASSERT_TRUE(recovered.db->EnableWal(dir()).ok());
  ExpectEnginesAgree(*live.db, *recovered.db, queries, "post-fold-crash");
  ASSERT_TRUE(recovered.db->Checkpoint().ok());
  EXPECT_FALSE(fs::exists(dir_ / storage::WalFileName(base)))
      << "the next clean checkpoint sweeps stale segments";
}

// Catalog liveness for the WAL kind: every fault::SiteKind::kWal entry
// must be reached by the append-then-checkpoint drill the tests above
// build on. A stale entry, or a new WAL site no drill reaches, fails
// here.
TEST_F(IngestTest, EveryWalSiteIsReachedByADrill) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  const auto sites = fault::SitesOfKind(fault::SiteKind::kWal);
  ASSERT_FALSE(sites.empty());
  for (const char* site : sites) {
    SCOPED_TRACE(site);
    fault::DisarmAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    eval::DomainArtifacts live = BuildEngine();
    ASSERT_TRUE(live.db->SaveDatabase(dir()).ok());
    ASSERT_TRUE(live.db->EnableWal(dir()).ok());
    fault::Arm(site, 1);
    (void)live.db->AppendReviews(MakeBatch(60, 2, static_cast<int32_t>(
        live.db->corpus().num_entities())));
    (void)live.db->Checkpoint();
    EXPECT_GT(fault::HitCount(site), 0u)
        << "WAL catalog entry never reached: " << site;
  }
}

// ------------------------------------------------------ Concurrency.

TEST_F(IngestTest, AppendsUnderQueryHammerStayBitIdentical) {
  eval::DomainArtifacts hammered = BuildEngine();
  eval::DomainArtifacts reference = BuildEngine();
  const auto queries = PoolQueries(hammered, 6);
  // Readers fill and hit both caches between appends, and the checkpoint
  // saves the interpretation cache; the reference stays bare, so the
  // final check is a cached-vs-uncached differential.
  cache::CacheConfig caches;
  caches.enable_interpretation = true;
  caches.enable_results = true;
  hammered.db->ConfigureCaches(caches);
  hammered.db->SetNumThreads(8);
  ASSERT_TRUE(hammered.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(hammered.db->EnableWal(dir()).ok());
  const int32_t entities =
      static_cast<int32_t>(hammered.db->corpus().num_entities());

  // Bounded reader loops (not a stop flag): a glibc shared_mutex lets
  // tight-loop readers starve the exclusive-locking writer, so the
  // readers must terminate on their own for the appends to land.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      for (int n = 0; n < 24; ++n) {
        auto result = hammered.db->Execute(queries[i % queries.size()]);
        EXPECT_TRUE(result.ok()) << result.status().ToString();
        ++i;
      }
    });
  }
  for (uint64_t round = 0; round < 8; ++round) {
    ASSERT_TRUE(
        hammered.db->AppendReviews(MakeBatch(60 + round, 2, entities)).ok());
    if (round == 4) {
      ASSERT_TRUE(hammered.db->Checkpoint().ok());
    }
  }
  for (auto& thread : readers) thread.join();

  // The single-threaded reference engine fed the same batches must
  // agree bit-for-bit once the dust settles.
  for (uint64_t round = 0; round < 8; ++round) {
    ASSERT_TRUE(
        reference.db->AppendReviews(MakeBatch(60 + round, 2, entities)).ok());
  }
  hammered.db->SetNumThreads(1);
  ExpectEnginesAgree(*hammered.db, *reference.db, queries, "under hammer");
}

// -------------------------------------------------- HTTP front door.

class IngestServerTest : public IngestTest {
 protected:
  static server::HttpRequest Post(const std::string& path,
                                  const std::string& body) {
    server::HttpRequest request;
    request.method = "POST";
    request.target = path;
    request.path = path;
    request.body = body;
    return request;
  }
};

TEST_F(IngestServerTest, ReviewsRouteAppendsAndReportsEpoch) {
  eval::DomainArtifacts artifacts = BuildEngine();
  server::QueryServer srv(artifacts.db.get());
  const size_t reviews = artifacts.db->corpus().num_reviews();

  auto response = srv.Handle(Post(
      "/reviews",
      R"({"reviews": [{"entity": 0, "reviewer": 901, "date": 20260808,)"
      R"( "body": "the staff was friendly and the room was clean"},)"
      R"( {"entity": 1, "reviewer": 902, "date": 20260808,)"
      R"( "body": "excellent breakfast and a spotless bathroom"}]})"));
  EXPECT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\"appended\": 2"), std::string::npos)
      << response.body;
  EXPECT_EQ(artifacts.db->corpus().num_reviews(), reviews + 2);
}

TEST_F(IngestServerTest, ReviewsRouteValidatesRequests) {
  eval::DomainArtifacts artifacts = BuildEngine();
  server::QueryServerOptions options;
  options.max_ingest_batch = 2;
  server::QueryServer srv(artifacts.db.get(), options);
  const size_t reviews = artifacts.db->corpus().num_reviews();

  server::HttpRequest get = Post("/reviews", "{}");
  get.method = "GET";
  EXPECT_EQ(srv.Handle(get).status, 405);
  EXPECT_EQ(srv.Handle(Post("/reviews", "not json")).status, 400);
  EXPECT_EQ(srv.Handle(Post("/reviews", "{}")).status, 400);
  EXPECT_EQ(srv.Handle(Post("/reviews", R"({"reviews": 3})")).status, 400);
  EXPECT_EQ(srv.Handle(Post("/reviews", R"({"reviews": [7]})")).status, 400);
  EXPECT_EQ(
      srv.Handle(Post("/reviews", R"({"reviews": [{"entity": 0}]})")).status,
      400);
  EXPECT_EQ(srv.Handle(Post("/reviews",
                            R"({"reviews": [{"entity": 0.5, "reviewer": 1,)"
                            R"( "date": 1, "body": "x"}]})"))
                .status,
            400)
      << "fractional ids are rejected, not rounded";
  // Admission control: a batch over the cap answers 400 before the
  // engine sees it.
  EXPECT_EQ(srv.Handle(Post("/reviews",
                            R"({"reviews": [)"
                            R"({"entity": 0, "reviewer": 1, "date": 1, "body": "a"},)"
                            R"({"entity": 0, "reviewer": 1, "date": 1, "body": "b"},)"
                            R"({"entity": 0, "reviewer": 1, "date": 1, "body": "c"}]})"))
                .status,
            400);
  // An unknown entity maps the engine's InvalidArgument onto 400.
  EXPECT_EQ(srv.Handle(Post("/reviews",
                            R"({"reviews": [{"entity": 999999,)"
                            R"( "reviewer": 1, "date": 1, "body": "x"}]})"))
                .status,
            400);
  EXPECT_EQ(artifacts.db->corpus().num_reviews(), reviews)
      << "no rejected request may mutate the corpus";
}

TEST_F(IngestServerTest, CheckpointRouteFoldsTheWal) {
  eval::DomainArtifacts artifacts = BuildEngine();
  server::QueryServer srv(artifacts.db.get());

  // Without a WAL the route surfaces the engine's FailedPrecondition
  // as a client error.
  EXPECT_EQ(srv.Handle(Post("/admin/checkpoint", "")).status, 400);

  ASSERT_TRUE(artifacts.db->SaveDatabase(dir()).ok());
  ASSERT_TRUE(artifacts.db->EnableWal(dir()).ok());
  const uint64_t base = artifacts.db->snapshot_generation();
  auto response = srv.Handle(Post(
      "/reviews",
      R"({"reviews": [{"entity": 0, "reviewer": 901, "date": 20260808,)"
      R"( "body": "rude reception and the wifi never worked"}]})"));
  ASSERT_EQ(response.status, 200) << response.body;

  auto folded = srv.Handle(Post("/admin/checkpoint", ""));
  EXPECT_EQ(folded.status, 200) << folded.body;
  EXPECT_GT(artifacts.db->snapshot_generation(), base);
  EXPECT_NE(folded.body.find("\"generation\""), std::string::npos);
}

}  // namespace
}  // namespace opinedb
