// Crash-consistency harness for the snapshot store and the engine's
// SaveDatabase / OpenDatabase wiring. Three layers:
//
//  1. a deterministic sweep of every fault::SiteKind::kStorage entry —
//     each injected crash / media fault must leave the store serving
//     either the previous generation bit-identically or the new one,
//     with the commit reporting the truth, and a later clean commit
//     self-heals. This sweep is also the storage kind's liveness check
//     (the persistence counterpart of fault_injection_test's sweep);
//  2. a randomized corruption fuzzer: >= 10k seeded mutations of a real
//     snapshot file, each of which must recover the intact older
//     generation bit-identically (or, when nothing valid remains, a
//     typed DataLoss) — never a crash, hang, or wrong data;
//  3. engine-level golden tests over a small built domain: save /
//     corrupt / reopen must serve the older generation with queries
//     bit-identical to its goldens, save -> open -> save must
//     reproduce byte-identical snapshot payloads, a snapshot of
//     another schema must be refused before it changes anything, an
//     earlier build's interp_cache section is ignored, and the answers
//     after an open do not depend on the interpretation cache's state.
//
// The fault-site sweep self-skips in builds where OPINEDB_FAULT_INJECTION
// is off; the fuzzer and engine tests run everywhere.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/result_json.h"
#include "core/serialize.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "oracle/row_oracle.h"
#include "storage/snapshot_store.h"

namespace opinedb {
namespace {

namespace fs = std::filesystem;
using storage::LoadedSnapshot;
using storage::SnapshotSection;
using storage::SnapshotStore;

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void FlipByteInFile(const fs::path& path, size_t offset, unsigned char mask) {
  std::string bytes = ReadFileBytes(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(
      static_cast<unsigned char>(bytes[offset]) ^ mask);
  WriteFileBytes(path, bytes);
}

/// Each statement's ResultToJson body; every statement must execute.
std::vector<std::string> Answers(core::OpineDb* db,
                                 const std::vector<std::string>& statements) {
  std::vector<std::string> json;
  json.reserve(statements.size());
  for (const std::string& sql : statements) {
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    json.push_back(result.ok() ? core::ResultToJson(*result)
                               : result.status().ToString());
  }
  return json;
}

void ExpectSectionsEqual(const std::vector<SnapshotSection>& want,
                         const std::vector<SnapshotSection>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].name, got[i].name);
    EXPECT_EQ(want[i].payload, got[i].payload);  // Bit-identical.
  }
}

// ===================================================== Fault sweep.

class CrashSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::CompiledIn()) {
      GTEST_SKIP() << "fault injection compiled out (plain Release build)";
    }
    fault::DisarmAll();
    dir_ = fs::path(::testing::TempDir()) /
           ("crash_sweep_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::error_code ec;
    fs::remove_all(dir_, ec);

    old_sections_.resize(2);
    old_sections_[0] = {"schema", "old schema bytes"};
    old_sections_[1] = {"summaries", std::string(512, 'a')};
    new_sections_.resize(2);
    new_sections_[0] = {"schema", "new schema bytes"};
    new_sections_[1] = {"summaries", std::string(512, 'b')};
  }

  void TearDown() override {
    fault::DisarmAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Commits the baseline generation 1 with no fault armed.
  void CommitBaseline(SnapshotStore* store) {
    auto committed = store->Commit(old_sections_);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    ASSERT_EQ(*committed, 1u);
  }

  /// After any fault outcome, a clean commit must succeed and become
  /// the served generation — the store self-heals.
  void ExpectSelfHeals(SnapshotStore* store) {
    fault::DisarmAll();
    auto committed = store->Commit(new_sections_);
    ASSERT_TRUE(committed.ok()) << committed.status().ToString();
    auto recovered = store->Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->generation, *committed);
    EXPECT_EQ(recovered->skipped_generations, 0u);
    ExpectSectionsEqual(new_sections_, recovered->sections);
  }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
  std::vector<SnapshotSection> old_sections_;
  std::vector<SnapshotSection> new_sections_;
};

// A crash before the new data is visible (torn write, failed fsync,
// crash before the data rename) must fail the commit and leave recovery
// serving generation 1 bit-identically.
TEST_F(CrashSweepTest, CrashBeforeDataVisibleServesOldGeneration) {
  for (const char* site :
       {"storage.short_write", "storage.fsync", "storage.rename_data"}) {
    SCOPED_TRACE(site);
    std::error_code ec;
    fs::remove_all(dir_, ec);
    SnapshotStore store(dir());
    CommitBaseline(&store);

    fault::Arm(site, 1);
    auto committed = store.Commit(new_sections_);
    ASSERT_FALSE(committed.ok()) << site;
    EXPECT_EQ(committed.status().code(), StatusCode::kInternal);
    EXPECT_NE(committed.status().message().find(site), std::string::npos)
        << committed.status().ToString();
    EXPECT_GT(fault::HitCount(site), 0u) << "site never reached: " << site;

    auto recovered = store.Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->generation, 1u);
    ExpectSectionsEqual(old_sections_, recovered->sections);

    ExpectSelfHeals(&store);
  }
}

// A post-write media bit flip: the commit itself succeeds (the fault is
// silent, like real bit rot) but recovery's checksums catch it and fall
// back to generation 1.
TEST_F(CrashSweepTest, BitRotFallsBackToOldGeneration) {
  SnapshotStore store(dir());
  CommitBaseline(&store);

  fault::Arm("storage.bitflip", 1);
  auto committed = store.Commit(new_sections_);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(*committed, 2u);
  EXPECT_GT(fault::HitCount("storage.bitflip"), 0u);

  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->generation, 1u);
  EXPECT_EQ(recovered->skipped_generations, 1u);
  ExpectSectionsEqual(old_sections_, recovered->sections);

  ExpectSelfHeals(&store);
}

// A torn first-ever commit: no older generation exists, so recovery
// must report the typed emptiness/loss error, never invent data.
TEST_F(CrashSweepTest, TornFirstCommitLeavesTypedError) {
  SnapshotStore store(dir());
  fault::Arm("storage.short_write", 1);
  ASSERT_FALSE(store.Commit(new_sections_).ok());
  auto recovered = store.Recover();
  ASSERT_FALSE(recovered.ok());
  // Only an unrenamed tmp file exists — that is "no snapshot", not loss.
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);

  // A bit-rotted first commit, by contrast, leaves a visible-but-bad
  // generation: that is DataLoss.
  fault::DisarmAll();
  fault::Arm("storage.bitflip", 1);
  ASSERT_TRUE(store.Commit(new_sections_).ok());
  recovered = store.Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);

  ExpectSelfHeals(&store);
}

// Catalog liveness: every fault::SiteKind::kStorage entry must be reached
// by a plain two-commit workload. A stale catalog entry fails here, the
// same contract fault_injection_test enforces for the serving-path
// catalog.
TEST_F(CrashSweepTest, EveryStorageSiteIsLive) {
  for (const char* site : fault::SitesOfKind(fault::SiteKind::kStorage)) {
    SCOPED_TRACE(site);
    fault::DisarmAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    SnapshotStore store(dir());
    CommitBaseline(&store);
    fault::Arm(site, 1);
    (void)store.Commit(new_sections_);
    EXPECT_GT(fault::HitCount(site), 0u) << "dead catalog entry: " << site;
  }
}

// A fault armed for a hit that never comes (nth = 1000) perturbs
// nothing: the commit and recovery are byte-for-byte normal.
TEST_F(CrashSweepTest, UnfiredFaultPerturbsNothing) {
  SnapshotStore store(dir());
  CommitBaseline(&store);
  for (const char* site : fault::SitesOfKind(fault::SiteKind::kStorage)) {
    fault::Arm(site, 1000);
  }
  auto committed = store.Commit(new_sections_);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->generation, 2u);
  EXPECT_EQ(recovered->skipped_generations, 0u);
  ExpectSectionsEqual(new_sections_, recovered->sections);
}

// ================================================ Corruption fuzzer.

class CorruptionFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "snapshot_corruption_fuzz";
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

// >= 10k randomized corruptions of a real snapshot file. Contract: with
// an intact generation 1 on disk, Recover() after any mangling of
// generation 2 either serves generation 2 only when its bytes are
// untouched, or falls back to generation 1 bit-identically. It never
// crashes, never throws, never serves anything else.
TEST_F(CorruptionFuzzTest, TenThousandRandomCorruptionsRecoverCleanly) {
  Rng rng(20260806);
  // Realistically sized payloads (a few KiB of irregular bytes).
  std::vector<SnapshotSection> gen1(2), gen2(2);
  gen1[0].name = "schema";
  gen2[0].name = "schema";
  gen1[1].name = "summaries";
  gen2[1].name = "summaries";
  for (int i = 0; i < 3000; ++i) {
    gen1[0].payload.push_back(static_cast<char>(rng.Below(256)));
    gen2[0].payload.push_back(static_cast<char>(rng.Below(256)));
    gen1[1].payload.push_back(static_cast<char>(rng.Below(256)));
    gen2[1].payload.push_back(static_cast<char>(rng.Below(256)));
  }
  SnapshotStore store(dir_.string());
  ASSERT_TRUE(store.Commit(gen1).ok());
  ASSERT_TRUE(store.Commit(gen2).ok());
  const fs::path gen2_path = dir_ / SnapshotStore::GenerationFileName(2);
  const std::string golden2 = ReadFileBytes(gen2_path);

  constexpr int kTrials = 10000;
  int fallbacks = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutated = golden2;
    const int mutations = static_cast<int>(rng.Below(4)) + 1;
    for (int m = 0; m < mutations && !mutated.empty(); ++m) {
      switch (rng.Below(4)) {
        case 0: {  // Single-bit flip.
          const size_t at = rng.Below(mutated.size());
          mutated[at] = static_cast<char>(
              static_cast<unsigned char>(mutated[at]) ^
              (1u << rng.Below(8)));
          break;
        }
        case 1: {  // Byte overwrite.
          mutated[rng.Below(mutated.size())] =
              static_cast<char>(rng.Below(256));
          break;
        }
        case 2: {  // Truncation.
          mutated.resize(rng.Below(mutated.size() + 1));
          break;
        }
        default: {  // Garbage extension.
          const size_t extra = rng.Below(64) + 1;
          for (size_t i = 0; i < extra; ++i) {
            mutated.push_back(static_cast<char>(rng.Below(256)));
          }
          break;
        }
      }
    }
    WriteFileBytes(gen2_path, mutated);
    ASSERT_NO_THROW({
      auto recovered = store.Recover();
      ASSERT_TRUE(recovered.ok())
          << "trial " << trial << ": " << recovered.status().ToString();
      if (recovered->generation == 2) {
        // Only an identity mutation may still serve generation 2.
        EXPECT_EQ(mutated, golden2) << "trial " << trial;
        ExpectSectionsEqual(gen2, recovered->sections);
      } else {
        ASSERT_EQ(recovered->generation, 1u) << "trial " << trial;
        EXPECT_EQ(recovered->skipped_generations, 1u);
        ExpectSectionsEqual(gen1, recovered->sections);
        ++fallbacks;
      }
    }) << "trial " << trial;
  }
  // Sanity: the fuzzer actually corrupted things (identity mutations —
  // e.g. a truncation landing on full size — are rare).
  EXPECT_GT(fallbacks, kTrials / 2);
  WriteFileBytes(gen2_path, golden2);  // Restore for any later reader.
}

// ================================================ Engine-level tests.

class EnginePersistenceTest : public ::testing::Test {
 protected:
  static eval::BuildOptions FixtureOptions() {
    eval::BuildOptions options;
    options.generator.num_entities = 18;
    options.generator.min_reviews_per_entity = 6;
    options.generator.max_reviews_per_entity = 10;
    options.generator.seed = 77;
    options.seed = 77;
    options.extractor_training_sentences = 300;
    options.predicate_pool_size = 20;
    options.membership_training_tuples = 300;
    return options;
  }

  static void SetUpTestSuite() {
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), FixtureOptions()));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("engine_persistence_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static core::OpineDb& db() { return *artifacts_->db; }

  static std::string Sql() {
    return "select * from " + db().schema().objective_table + " where \"" +
           artifacts_->pool[0].text + "\" limit 10";
  }

  /// The first six pool predicates as LIMIT 10 statements.
  static std::vector<std::string> PoolStatements() {
    std::vector<std::string> statements;
    for (size_t i = 0; i < 6 && i < artifacts_->pool.size(); ++i) {
      statements.push_back("select * from " + db().schema().objective_table +
                           " where \"" + artifacts_->pool[i].text +
                           "\" limit 10");
    }
    return statements;
  }

  static core::QueryResult MustExecute(const std::string& sql) {
    auto result = db().Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : core::QueryResult{};
  }

  static void ExpectBitIdentical(const core::QueryResult& want,
                                 const core::QueryResult& got) {
    ASSERT_EQ(want.results.size(), got.results.size());
    for (size_t i = 0; i < want.results.size(); ++i) {
      EXPECT_EQ(want.results[i].entity, got.results[i].entity);
      EXPECT_EQ(want.results[i].score, got.results[i].score);  // Bit-exact.
    }
  }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* EnginePersistenceTest::artifacts_ = nullptr;

TEST_F(EnginePersistenceTest, SaveOpenRoundTripsQueriesBitIdentically) {
  const auto golden = MustExecute(Sql());
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  EXPECT_EQ(db().snapshot_generation(), 1u);
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  EXPECT_EQ(db().snapshot_generation(), 1u);
  ExpectBitIdentical(golden, MustExecute(Sql()));
}

// A directory an earlier release wrote also holds a MANIFEST — a
// one-section container naming the newest generation — and, after a
// crash while that pointer was updated, a MANIFEST.tmp. Such a
// directory opens the same generation with the same answers as the
// directory without them.
TEST_F(EnginePersistenceTest, LegacyManifestFilesOpenSameGenerationAndAnswers) {
  const auto golden = MustExecute(Sql());
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  const std::vector<std::string> plain = Answers(&db(), PoolStatements());

  WriteFileBytes(dir_ / "MANIFEST",
                 SnapshotStore::EncodeContainer({{"manifest", "1"}}));
  WriteFileBytes(dir_ / "MANIFEST.tmp", "torn pointer update");
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  EXPECT_EQ(db().snapshot_generation(), 1u);
  EXPECT_EQ(Answers(&db(), PoolStatements()), plain);
  ExpectBitIdentical(golden, MustExecute(Sql()));
}

TEST_F(EnginePersistenceTest, SaveOpenSaveIsByteIdentical) {
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  // Generations 1 and 2 hold the same logical state; their container
  // bytes (and hence every section payload) must be identical — the
  // serializers are deterministic and loading loses nothing.
  const std::string first =
      ReadFileBytes(dir_ / SnapshotStore::GenerationFileName(1));
  const std::string second =
      ReadFileBytes(dir_ / SnapshotStore::GenerationFileName(2));
  EXPECT_EQ(first, second);
}

TEST_F(EnginePersistenceTest, CorruptNewestGenerationFallsBackToGolden) {
  const auto golden1 = MustExecute(Sql());
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());

  // Change the summaries (one extra unmatched phrase on entity 0),
  // producing generation 2 with genuinely different payload bytes.
  // Reaggregate cannot be the mutation here: earlier tests in this
  // fixture opened the engine from a snapshot, which clears the
  // extraction relation — rebuilding from it is now refused (see
  // ReaggregateAfterOpenIsRefused below) instead of silently wiping
  // the summaries as it used to.
  auto perturbed = core::DecodeSummaries(
      db().schema(), core::EncodeSummaries(*db().columnar_store()));
  ASSERT_TRUE(perturbed.ok()) << perturbed.status().ToString();
  ASSERT_GT(perturbed->num_attributes(), 0u);
  ASSERT_GT(perturbed->num_entities(), 0u);
  perturbed->AddUnmatched(0, 0);
  ASSERT_TRUE(db().InstallSummaries(std::move(*perturbed)).ok());
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  ASSERT_EQ(db().snapshot_generation(), 2u);

  // Bit-rot the newest generation on disk.
  const fs::path gen2 = dir_ / SnapshotStore::GenerationFileName(2);
  const std::string gen2_bytes = ReadFileBytes(gen2);
  FlipByteInFile(gen2, gen2_bytes.size() / 2, 0x04);

  // OpenDatabase must fall back to generation 1 and serve its queries
  // bit-identically to the pre-save golden.
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  EXPECT_EQ(db().snapshot_generation(), 1u);
  ExpectBitIdentical(golden1, MustExecute(Sql()));
}

// The summaries section holds column images: a Checkpoint after
// appends, a wholesale perturbation, then an open must bring back every
// scan column and provenance log (appended reviews included) byte for
// byte. Runs on its own engine so the WAL and appends stay local.
TEST_F(EnginePersistenceTest, CheckpointOpenRestoresEveryColumnByteForByte) {
  eval::BuildOptions options = FixtureOptions();
  options.generator.num_entities = 10;
  eval::DomainArtifacts artifacts =
      eval::BuildArtifacts(datagen::HotelDomain(), options);
  core::OpineDb& engine = *artifacts.db;
  ASSERT_TRUE(engine.SaveDatabase(dir()).ok());
  ASSERT_TRUE(engine.EnableWal(dir()).ok());
  const auto log_entries = [&engine] {
    size_t entries = 0;
    for (size_t a = 0; a < engine.columnar_store()->num_attributes(); ++a) {
      entries += engine.columnar_store()->attribute(a).provenance.size();
    }
    return entries;
  };
  const size_t log_before = log_entries();
  std::vector<text::Review> batch;
  for (int i = 0; i < 6; ++i) {
    text::Review review;
    review.entity = i % 10;
    review.reviewer = 900 + i;
    review.date = 20260901;
    review.body = i % 2 == 0
                      ? "the room was very clean and the staff was friendly"
                      : "rude reception and a dirty noisy room";
    batch.push_back(std::move(review));
  }
  ASSERT_TRUE(engine.AppendReviews(batch).ok());
  ASSERT_TRUE(engine.Checkpoint().ok());
  const std::string want = oracle::StoreImage(*engine.columnar_store());
  ASSERT_GT(log_entries(), log_before) << "the batch added no provenance";

  ASSERT_TRUE(engine
                  .InstallSummaries(core::ColumnarSummaryStore(
                      engine.schema(), engine.corpus().num_entities(),
                      engine.phrase_embedder().dim()))
                  .ok());
  ASSERT_NE(oracle::StoreImage(*engine.columnar_store()), want);
  ASSERT_TRUE(engine.OpenDatabase(dir()).ok());
  EXPECT_EQ(engine.snapshot_generation(), 2u);
  EXPECT_TRUE(oracle::StoreImage(*engine.columnar_store()) == want)
      << "the opened store differs from the checkpointed one";
}

// Regression (silent-wipe bugfix): once OpenDatabase replaced the
// summaries, the extraction relation no longer derives them, and
// Reaggregate must refuse with FailedPrecondition — zero epoch
// movement, served data untouched. Before the fix it rebuilt from the
// (empty) relation and silently zeroed every summary.
TEST_F(EnginePersistenceTest, ReaggregateAfterOpenIsRefused) {
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  const auto golden = MustExecute(Sql());
  const uint64_t epoch = db().cache_epoch();

  auto status = db().Reaggregate(core::AggregationOptions());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(db().cache_epoch(), epoch)
      << "a refused mutation must not bump the epoch";
  ExpectBitIdentical(golden, MustExecute(Sql()));
}

TEST_F(EnginePersistenceTest, OpenEmptyDirectoryIsNotFound) {
  auto status = db().OpenDatabase(dir());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(EnginePersistenceTest, OpenAllCorruptIsDataLossAndEngineUntouched) {
  const auto golden = MustExecute(Sql());
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  const fs::path gen1 = dir_ / SnapshotStore::GenerationFileName(1);
  FlipByteInFile(gen1, ReadFileBytes(gen1).size() / 3, 0x20);

  auto status = db().OpenDatabase(dir());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  // Vet-before-mutate: the failed open left the engine fully serving.
  ExpectBitIdentical(golden, MustExecute(Sql()));
}

TEST_F(EnginePersistenceTest, MissingSectionIsDataLoss) {
  SnapshotStore store(dir());
  std::ostringstream schema_bytes;
  ASSERT_TRUE(core::SaveSchema(db().schema(), &schema_bytes).ok());
  std::vector<SnapshotSection> sections(1);
  sections[0] = {"schema", std::move(schema_bytes).str()};
  ASSERT_TRUE(store.Commit(sections).ok());

  auto status = db().OpenDatabase(dir());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(EnginePersistenceTest, GenerationIsObservableInGaugeAndRootSpan) {
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  const uint64_t generation = db().snapshot_generation();
  ASSERT_GT(generation, 0u);

  // kStats publishes the served-generation gauge on every query.
  db().SetTraceLevel(obs::TraceLevel::kStats);
  (void)MustExecute(Sql());
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("storage.snapshot.generation")
                ->Value(),
            static_cast<double>(generation));

  // kFull stamps the generation onto the root query span.
  db().SetTraceLevel(obs::TraceLevel::kFull);
  const auto traced = MustExecute(Sql());
  ASSERT_NE(traced.trace, nullptr);
  EXPECT_NE(traced.trace->ToJson().find("snapshot_generation"),
            std::string::npos);
  db().SetTraceLevel(obs::TraceLevel::kOff);
}

TEST_F(EnginePersistenceTest, EntityCountMismatchIsInvalidArgument) {
  // A verified snapshot whose summaries cover zero entities cannot
  // serve this engine's corpus: typed InvalidArgument, engine untouched.
  SnapshotStore store(dir());
  std::ostringstream schema_bytes;
  ASSERT_TRUE(core::SaveSchema(db().schema(), &schema_bytes).ok());
  std::vector<SnapshotSection> sections(2);
  sections[0] = {"schema", std::move(schema_bytes).str()};
  sections[1] = {"summaries",
                 core::EncodeSummaries(core::ColumnarSummaryStore(
                     db().schema(), 0, db().phrase_embedder().dim()))};
  ASSERT_TRUE(store.Commit(sections).ok());

  const auto golden = MustExecute(Sql());
  auto status = db().OpenDatabase(dir());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  ExpectBitIdentical(golden, MustExecute(Sql()));
}

// Regression: a snapshot saved by an engine with another word2vec width
// used to open fine, and the first marker query read past its 16-float
// centroids (an ASan heap-buffer-overflow). The open must refuse it
// with InvalidArgument and leave the engine serving.
TEST_F(EnginePersistenceTest, SnapshotOfAnotherEmbeddingWidthIsRejected) {
  ASSERT_NE(db().phrase_embedder().dim(), 16u);
  eval::BuildOptions options = FixtureOptions();
  options.engine.w2v.dim = 16;
  eval::DomainArtifacts narrow =
      eval::BuildArtifacts(datagen::HotelDomain(), options);
  ASSERT_TRUE(narrow.db->SaveDatabase(dir()).ok());

  // The marker query that used to overflow.
  const std::string sql =
      "select * from " + db().schema().objective_table + " where \"" +
      db().schema().attributes[0].summary_type.markers[0] + "\" limit 10";
  const auto golden = MustExecute(sql);
  const uint64_t generation = db().snapshot_generation();
  const uint64_t epoch = db().cache_epoch();
  const Status status = db().OpenDatabase(dir());
  ASSERT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  EXPECT_EQ(db().snapshot_generation(), generation);
  EXPECT_EQ(db().cache_epoch(), epoch);
  ExpectBitIdentical(golden, MustExecute(sql));
}

/// The 12-entity hotel engine of the ingest and replication suites;
/// every call yields bit-identical models, corpora and summaries.
eval::DomainArtifacts BuildSmallHotelEngine() {
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

/// Deterministic review batches in the hotel domain's vocabulary.
std::vector<text::Review> HotelBatch(uint64_t seed, int size,
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

/// ResultToJson of every pool query, in pool order.
std::vector<std::string> PoolAnswers(const eval::DomainArtifacts& artifacts) {
  std::vector<std::string> answers;
  for (const auto& predicate : artifacts.pool) {
    auto result = artifacts.db->Execute(
        "select * from " + artifacts.db->schema().objective_table +
        " where \"" + predicate.text + "\" limit 10");
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    answers.push_back(result.ok() ? core::ResultToJson(*result) : "");
  }
  return answers;
}

/// Pool answers compared one query at a time, so a failure names it.
void ExpectSameAnswers(const std::vector<std::string>& want,
                       const std::vector<std::string>& got,
                       const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << context << ": pool query " << i;
  }
}

/// The eight 8-review batches the refused engines and the reference
/// all take after the open.
void AppendEightBatches(core::OpineDb& db) {
  const int32_t entities = static_cast<int32_t>(db.corpus().num_entities());
  for (uint64_t round = 0; round < 8; ++round) {
    ASSERT_TRUE(db.AppendReviews(HotelBatch(round, 8, entities)).ok());
  }
}

// Regression: OpenDatabase used to install whatever schema a snapshot
// carried while the classifier, aggregator and interpreter stayed
// trained on the Build schema. A snapshot with one attribute fewer
// opened, and the next append classified a phrase into the dropped
// attribute (an ASan heap-buffer-overflow in
// Interpreter::AppendNewExtractions); one with a marker fewer per
// attribute opened too, and marker queries read the next entity's
// cells. Both must be refused with InvalidArgument before anything
// changes, and the engine must go on to answer exactly like one that
// never saw them.
TEST_F(EnginePersistenceTest, SnapshotOfAnotherSchemaIsRefused) {
  eval::DomainArtifacts reference = BuildSmallHotelEngine();
  const std::vector<std::string> built_answers = PoolAnswers(reference);
  ASSERT_FALSE(built_answers.empty());
  AppendEightBatches(*reference.db);
  const std::vector<std::string> appended_answers = PoolAnswers(reference);

  const core::SubjectiveSchema& built = reference.db->schema();
  core::SubjectiveSchema fewer_attributes = built;
  fewer_attributes.attributes.pop_back();
  core::SubjectiveSchema fewer_markers = built;
  for (auto& attribute : fewer_markers.attributes) {
    ASSERT_GE(attribute.summary_type.markers.size(), 2u);
    attribute.summary_type.markers.pop_back();
  }
  const std::vector<std::pair<std::string, core::SubjectiveSchema>> cases = {
      {"attribute_dropped", fewer_attributes},
      {"marker_dropped", fewer_markers}};
  for (const auto& [name, schema] : cases) {
    SCOPED_TRACE(name);
    eval::DomainArtifacts live = BuildSmallHotelEngine();
    core::OpineDb& db = *live.db;
    ASSERT_TRUE(db.schema() == built);
    // A verified snapshot of `schema` whose zeroed summaries fit it
    // exactly, so only the schema check can refuse it.
    std::ostringstream schema_bytes;
    ASSERT_TRUE(core::SaveSchema(schema, &schema_bytes).ok());
    std::vector<SnapshotSection> sections(2);
    sections[0] = {"schema", std::move(schema_bytes).str()};
    sections[1] = {"summaries",
                   core::EncodeSummaries(core::ColumnarSummaryStore(
                       schema, db.corpus().num_entities(),
                       db.phrase_embedder().dim()))};
    const std::string snapshot_dir = (dir_ / name).string();
    ASSERT_TRUE(SnapshotStore(snapshot_dir).Commit(sections).ok());

    const uint64_t generation = db.snapshot_generation();
    const uint64_t epoch = db.cache_epoch();
    const Status status = db.OpenDatabase(snapshot_dir);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ(db.snapshot_generation(), generation);
    EXPECT_EQ(db.cache_epoch(), epoch);
    EXPECT_TRUE(db.schema() == built);
    ExpectSameAnswers(built_answers, PoolAnswers(live), "after the open");

    AppendEightBatches(db);
    ExpectSameAnswers(appended_answers, PoolAnswers(live),
                      "after the appends");
  }
}

// The snapshot's schema section names each summary type after its
// attribute, so Build does too: an engine whose designer named a type
// otherwise still equals, and reopens, its own snapshot.
TEST_F(EnginePersistenceTest, SummaryTypeNamedApartFromItsAttributeReopens) {
  datagen::GeneratorOptions generator;
  generator.num_entities = 6;
  generator.min_reviews_per_entity = 4;
  generator.max_reviews_per_entity = 6;
  generator.seed = 5;
  datagen::SyntheticDomain domain =
      datagen::GenerateDomain(datagen::HotelDomain(), generator);
  domain.schema.attributes[0].summary_type.name = "renamed";
  const extract::ExtractionPipeline pipeline(
      eval::TrainExtractor(datagen::HotelDomain(), 200, 5));
  auto engine = core::OpineDb::Build(domain.corpus, domain.schema, pipeline);
  EXPECT_EQ(engine->schema().attributes[0].summary_type.name,
            engine->schema().attributes[0].name);
  ASSERT_TRUE(engine->SaveDatabase(dir()).ok());
  const Status opened = engine->OpenDatabase(dir());
  EXPECT_TRUE(opened.ok()) << opened.ToString();
}

// ------------------------------- the interpretation cache and snapshots.

/// Enables both caches, runs one query to warm the interpretation
/// cache, and returns the resident entry count.
size_t WarmCaches(core::OpineDb* db, const std::string& sql) {
  cache::CacheConfig on;
  on.enable_interpretation = true;
  on.enable_results = true;
  db->ConfigureCaches(on);
  auto warm = db->Execute(sql);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  return db->interpretation_cache()->size();
}

TEST_F(EnginePersistenceTest, OldFormatSnapshotOpensColdWithoutError) {
  // A snapshot written before the cache layer existed (here: saved with
  // caches disabled, so no "interp_cache" section) must open on a
  // cache-enabled engine without error — just cold.
  const auto golden = MustExecute(Sql());
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());

  cache::CacheConfig on;
  on.enable_interpretation = true;
  on.enable_results = true;
  db().ConfigureCaches(on);
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  EXPECT_EQ(db().interpretation_cache()->size(), 0u);
  ExpectBitIdentical(golden, MustExecute(Sql()));
  db().ConfigureCaches(cache::CacheConfig());
}

/// An interp_cache section in the text format an earlier build wrote
/// ("opinedb-interp-cache 1"): one entry for `key` interpreted as marker
/// `marker` of attribute `attribute`, with a constant `dim`-wide query
/// embedding. A build that loaded it served this in place of the
/// interpreter's own answer.
std::string EarlierBuildInterpSection(const std::string& key, int attribute,
                                      int marker, size_t dim) {
  // Magic and version, the entry count, then the netstring key, method,
  // connective, confidence, sentiment, atom count and embedding width,
  // one line per atom, the embedding, and the closing sentinel.
  std::string out = "opinedb-interp-cache 1\n1\n";
  out += std::to_string(key.size()) + ":" + key + " w 0 0.5 0.125 1 " +
         std::to_string(dim) + "\n";
  out += std::to_string(attribute) + " " + std::to_string(marker) +
         " 0.875\n";
  for (size_t i = 0; i < dim; ++i) out += i == 0 ? "0.25" : " 0.25";
  return out + "\nend\n";
}

// A snapshot holds the schema and summaries sections only. Earlier
// builds also wrote their interpretation cache as an interp_cache
// section; a container carrying one, well-formed or garbage, opens at
// its generation with the interpretation cache empty and the answers of
// the same container without the section.
TEST_F(EnginePersistenceTest, CorruptInterpSectionOpensColdGracefully) {
  ASSERT_GT(WarmCaches(&db(), Sql()), 0u);
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  SnapshotStore store(dir());
  auto saved = store.Recover();
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();
  ASSERT_EQ(saved->sections.size(), 2u)
      << "a snapshot carries state only: schema and summaries";
  const std::vector<std::string> statements = PoolStatements();
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  const std::vector<std::string> plain = Answers(&db(), statements);

  const std::string earlier = EarlierBuildInterpSection(
      NormalizePredicate(artifacts_->pool[0].text), 0, 0,
      db().phrase_embedder().dim());
  const std::string garbage(64, '\xff');
  for (const std::string& payload : {earlier, garbage}) {
    SCOPED_TRACE(payload == earlier ? "earlier-build bytes" : "garbage");
    std::vector<SnapshotSection> sections = saved->sections;
    sections.push_back({"interp_cache", payload});
    auto generation = store.Commit(sections);
    ASSERT_TRUE(generation.ok()) << generation.status().ToString();
    const Status opened = db().OpenDatabase(dir());
    ASSERT_TRUE(opened.ok()) << opened.ToString();
    EXPECT_EQ(db().snapshot_generation(), *generation);
    EXPECT_EQ(db().interpretation_cache()->size(), 0u)
        << "the open loaded entries from an interp_cache section";
    EXPECT_EQ(Answers(&db(), statements), plain);
  }
  db().ConfigureCaches(cache::CacheConfig());
}

// An answer after an open depends on the snapshot, never on what the
// interpretation cache held. On the seed hotel domain with the
// interpretation cache on and every pool statement warmed, Save -> Open
// renders each of the 190 statements alike (a) right after the open,
// (b) after ConfigureCaches drops and re-creates the layer, and (c) with
// caches off.
TEST_F(EnginePersistenceTest, AnswersAfterOpenDoNotDependOnCacheState) {
  eval::BuildOptions options;
  options.generator.num_entities = 120;
  options.generator.min_reviews_per_entity = 25;
  options.generator.max_reviews_per_entity = 60;
  options.generator.seed = 42;
  options.predicate_pool_size = 190;
  options.seed = 42;
  options.engine.num_threads = 1;
  eval::DomainArtifacts hotel =
      eval::BuildArtifacts(datagen::HotelDomain(), options);
  core::OpineDb& engine = *hotel.db;
  std::vector<std::string> statements;
  for (const auto& predicate : hotel.pool) {
    statements.push_back("select * from " + engine.schema().objective_table +
                         " where \"" + predicate.text + "\" limit 10");
  }
  ASSERT_EQ(statements.size(), 190u);

  cache::CacheConfig interpretation_only;
  interpretation_only.enable_interpretation = true;
  engine.ConfigureCaches(interpretation_only);
  Answers(&engine, statements);
  ASSERT_EQ(engine.interpretation_cache()->size(), statements.size());
  ASSERT_TRUE(engine.SaveDatabase(dir()).ok());
  ASSERT_TRUE(engine.OpenDatabase(dir()).ok());
  const std::vector<std::string> opened = Answers(&engine, statements);

  engine.ConfigureCaches(cache::CacheConfig());
  engine.ConfigureCaches(interpretation_only);
  const std::vector<std::string> recreated = Answers(&engine, statements);
  engine.ConfigureCaches(cache::CacheConfig());
  const std::vector<std::string> uncached = Answers(&engine, statements);

  size_t recreated_differ = 0, uncached_differ = 0;
  for (size_t i = 0; i < statements.size(); ++i) {
    recreated_differ += opened[i] != recreated[i];
    uncached_differ += opened[i] != uncached[i];
  }
  EXPECT_EQ(recreated_differ, 0u) << "of " << statements.size();
  EXPECT_EQ(uncached_differ, 0u) << "of " << statements.size();
}

}  // namespace
}  // namespace opinedb
