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
//     bit-identical to its goldens, and save -> open -> save must
//     reproduce byte-identical snapshot payloads.
//
// The fault-site sweep self-skips in builds where OPINEDB_FAULT_INJECTION
// is off; the fuzzer and engine tests run everywhere.
#include <cstdint>
#include <filesystem>
#include <fstream>
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
  const auto answers = [] {
    std::vector<std::string> json;
    for (size_t i = 0; i < 6 && i < artifacts_->pool.size(); ++i) {
      json.push_back(core::ResultToJson(
          MustExecute("select * from " + db().schema().objective_table +
                      " where \"" + artifacts_->pool[i].text +
                      "\" limit 10")));
    }
    return json;
  };
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  const std::vector<std::string> plain = answers();

  WriteFileBytes(dir_ / "MANIFEST",
                 SnapshotStore::EncodeContainer({{"manifest", "1"}}));
  WriteFileBytes(dir_ / "MANIFEST.tmp", "torn pointer update");
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());
  EXPECT_EQ(db().snapshot_generation(), 1u);
  EXPECT_EQ(answers(), plain);
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

// ----------------------- interpretation-cache snapshot section (§5g).

/// Enables both caches, runs one query to warm the interpretation
/// cache, and returns the warm entry count.
size_t WarmCaches(core::OpineDb* db, const std::string& sql) {
  cache::CacheConfig on;
  on.enable_interpretation = true;
  on.enable_results = true;
  db->ConfigureCaches(on);
  auto warm = db->Execute(sql);
  EXPECT_TRUE(warm.ok()) << warm.status().ToString();
  return db->interpretation_cache()->size();
}

TEST_F(EnginePersistenceTest, WarmInterpretationCacheSurvivesSaveOpen) {
  const size_t warm_entries = WarmCaches(&db(), Sql());
  ASSERT_GT(warm_entries, 0u);
  const auto golden = MustExecute(Sql());

  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  ASSERT_TRUE(db().OpenDatabase(dir()).ok());

  // The reopened engine is warm: the saved entries are resident at the
  // fresh epoch, and the first post-open query is an interp-cache hit.
  EXPECT_EQ(db().interpretation_cache()->size(), warm_entries);
  const uint64_t hits_before = db().interpretation_cache()->hits();
  ExpectBitIdentical(golden, MustExecute(Sql()));
  EXPECT_GT(db().interpretation_cache()->hits(), hits_before)
      << "the reopened engine recomputed an interpretation it had saved";

  // With the warm cache resident, save -> open -> save still produces
  // byte-identical container payloads (the section serializer is
  // deterministic and loading loses nothing).
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());
  const std::string first =
      ReadFileBytes(dir_ / SnapshotStore::GenerationFileName(1));
  const std::string second =
      ReadFileBytes(dir_ / SnapshotStore::GenerationFileName(2));
  EXPECT_EQ(first, second);
  db().ConfigureCaches(cache::CacheConfig());
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

// Regression: a CRC-valid interp_cache section whose entry the scorer
// cannot bind — an atom outside the opened schema, or an embedding of
// another width — used to load, and the next query on its key read out
// of bounds (attribute 99 segfaulted). The warm load must drop the whole
// section: a cold open, counted as a warm-load failure.
TEST_F(EnginePersistenceTest, InterpSectionWithUnbindableEntryOpensCold) {
  // A marker phrase interprets to one of its own markers.
  const std::string predicate =
      db().schema().attributes[0].summary_type.markers[0];
  const std::string sql = "select * from " + db().schema().objective_table +
                          " where \"" + predicate + "\" limit 10";
  ASSERT_GT(WarmCaches(&db(), sql), 0u);
  const auto golden = MustExecute(sql);
  const std::string key = NormalizePredicate(predicate);
  cache::InterpretationCache::Entry real;
  ASSERT_TRUE(
      db().interpretation_cache()->Lookup(key, db().cache_epoch(), &real));
  ASSERT_FALSE(real.interpretation.atoms.empty());
  const auto& atom = real.interpretation.atoms[0];
  const int markers = static_cast<int>(
      db().schema().attributes[static_cast<size_t>(atom.attribute)]
          .summary_type.num_markers());

  db().SetTraceLevel(obs::TraceLevel::kStats);
  obs::MetricsRegistry::Counter* failures =
      obs::MetricsRegistry::Global().GetCounter(
          "engine.cache.warm_load_failures");
  for (int variant = 0; variant < 4; ++variant) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    cache::InterpretationCache::Entry forged = real;
    auto& forged_atom = forged.interpretation.atoms[0];
    switch (variant) {
      case 0:
        forged_atom.attribute = 99;
        break;
      case 1:
        forged_atom.marker = markers;
        break;
      case 2:
        forged_atom.marker = -1;
        break;
      case 3:
        forged.rep.push_back(0.5f);
        break;
    }
    cache::InterpretationCache forged_cache;
    forged_cache.Insert(key, forged);
    std::ostringstream forged_bytes;
    ASSERT_TRUE(
        cache::SaveInterpretationCache(forged_cache, forged.epoch,
                                       &forged_bytes)
            .ok());

    ASSERT_TRUE(db().SaveDatabase(dir()).ok());
    SnapshotStore store(dir());
    auto loaded = store.Recover();
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::vector<SnapshotSection> sections = loaded->sections;
    bool forged_section = false;
    for (auto& section : sections) {
      if (section.name != "interp_cache") continue;
      section.payload = forged_bytes.str();
      forged_section = true;
    }
    ASSERT_TRUE(forged_section);
    ASSERT_TRUE(store.Commit(sections).ok());

    const uint64_t failures_before = failures->Value();
    ASSERT_TRUE(db().OpenDatabase(dir()).ok())
        << "derived-data corruption must never fail the open";
    ASSERT_EQ(db().interpretation_cache()->size(), 0u)
        << "an unbindable interpretation was left resident";
    EXPECT_EQ(failures->Value(), failures_before + 1);
    ExpectBitIdentical(golden, MustExecute(sql));
  }
  db().SetTraceLevel(obs::TraceLevel::kOff);
  db().ConfigureCaches(cache::CacheConfig());
}

TEST_F(EnginePersistenceTest, CorruptInterpSectionOpensColdGracefully) {
  // The interpretation cache is derived data: a snapshot whose
  // container verifies but whose interp payload fails to decode must
  // open cold, not fail the open (unlike schema/summaries corruption).
  ASSERT_GT(WarmCaches(&db(), Sql()), 0u);
  const auto golden = MustExecute(Sql());
  ASSERT_TRUE(db().SaveDatabase(dir()).ok());

  // Rebuild generation 2 with the interp payload truncated mid-entry —
  // the container checksums are valid, only the section is garbage.
  SnapshotStore store(dir());
  auto loaded = store.Recover();
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  bool mangled = false;
  std::vector<SnapshotSection> sections = loaded->sections;
  for (auto& section : sections) {
    if (section.name != "interp_cache") continue;
    ASSERT_GT(section.payload.size(), 8u);
    section.payload.resize(section.payload.size() / 2);
    mangled = true;
  }
  ASSERT_TRUE(mangled) << "warm save did not write an interp_cache section";
  ASSERT_TRUE(store.Commit(sections).ok());

  ASSERT_TRUE(db().OpenDatabase(dir()).ok())
      << "derived-data corruption must never fail the open";
  EXPECT_EQ(db().snapshot_generation(), 2u);
  EXPECT_EQ(db().interpretation_cache()->size(), 0u)
      << "a half-decoded interp payload left entries resident";
  ExpectBitIdentical(golden, MustExecute(Sql()));
  db().ConfigureCaches(cache::CacheConfig());
}

}  // namespace
}  // namespace opinedb
