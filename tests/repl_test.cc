// Replication battery for WAL shipping (src/repl/, docs/REPLICATION.md).
//
// The load-bearing contract: a follower pulling the primary's WAL is
// *bit-identical* to the primary at every acknowledged offset — same
// query answers (exact doubles), same WAL segment bytes on disk, same
// snapshot generations. On top of that:
//
//  1. the wire protocol: verified-prefix framing, record-boundary
//     offsets, 409 retired-base → snapshot catch-up (refused, engine
//     untouched, when the primary has another schema), 416 bad offset;
//  2. checkpoint lockstep: the follower rotates generations exactly
//     when the primary does (ReplicaCheckpoint), so segment names and
//     fingerprint seeds never drift;
//  3. the failure drills: a mid-batch crash loses nothing and doubles
//     nothing, a fingerprint mismatch refuses the WHOLE batch (typed
//     DataLoss), a partition degrades reads and heals without
//     operator help, a restarted follower resumes from its own WAL;
//  4. bounded staleness: /query's max_staleness_ms answers degraded
//     (or 412 under strict) once the lag probe exceeds the budget;
//  5. failover: POST /admin/promote turns the follower into a primary
//     that answers the pre-failover query set byte-for-byte and
//     accepts writes.
//
// Fault-site tests self-skip when OPINEDB_FAULT_INJECTION is off.
// Tests single-step the follower with SyncOnce() for determinism; the
// background pull loop is exercised by the partition drill.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/backoff.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/result_json.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "repl/client.h"
#include "repl/protocol.h"
#include "repl/source.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/server.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"

namespace opinedb {
namespace {

namespace fs = std::filesystem;

std::string JsonString(std::string_view s) {
  std::string out;
  JsonEscapeAppend(s, &out);
  return out;
}

/// One small, fully deterministic hotel-domain engine; every call with
/// the same generator seed yields bit-identical models, corpora and
/// summaries — which is what lets a primary/follower pair start from
/// identical state without an initial snapshot transfer.
eval::DomainArtifacts BuildEngine(uint64_t generator_seed = 83) {
  eval::BuildOptions options;
  options.generator.num_entities = 12;
  options.generator.min_reviews_per_entity = 5;
  options.generator.max_reviews_per_entity = 8;
  options.generator.seed = generator_seed;
  options.seed = 83;
  options.extractor_training_sentences = 250;
  options.predicate_pool_size = 12;
  options.membership_training_tuples = 250;
  return eval::BuildArtifacts(datagen::HotelDomain(), options);
}

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

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

class ReplTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    root_ = fs::path(::testing::TempDir()) /
            ("repl_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_ / "primary");
    fs::create_directories(root_ / "follower");
  }

  void TearDown() override {
    fault::DisarmAll();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  std::string primary_dir() const { return (root_ / "primary").string(); }
  std::string follower_dir() const { return (root_ / "follower").string(); }

  /// A live primary (WAL + serving the replication routes) plus a
  /// follower client pointed at it. Members declared in dependency
  /// order so destruction tears down client → server → source →
  /// engines.
  struct Cluster {
    eval::DomainArtifacts primary;
    eval::DomainArtifacts follower;
    std::unique_ptr<repl::ReplicationSource> source;
    std::unique_ptr<server::QueryServer> server;
    std::unique_ptr<repl::ReplicationClient> client;

    core::OpineDb& primary_db() { return *primary.db; }
    core::OpineDb& follower_db() { return *follower.db; }
  };

  /// `primary_seed` other than the follower's 83 builds the primary on
  /// another base.
  Cluster MakeCluster(repl::ReplicationSourceOptions source_options = {},
                      bool initialize_client = true,
                      uint64_t primary_seed = 83) {
    Cluster cluster{BuildEngine(primary_seed), BuildEngine(), nullptr,
                    nullptr, nullptr};
    EXPECT_TRUE(cluster.primary_db().EnableWal(primary_dir()).ok());
    cluster.source = std::make_unique<repl::ReplicationSource>(
        cluster.primary.db.get(), source_options);
    server::QueryServerOptions server_options;
    server_options.httpd.num_workers = 2;
    server_options.httpd.queue_capacity = 16;
    server_options.replication_source = cluster.source.get();
    cluster.server = std::make_unique<server::QueryServer>(
        cluster.primary.db.get(), server_options);
    const Status started = cluster.server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    repl::ReplicationClientOptions client_options;
    client_options.primary_port = cluster.server->port();
    cluster.client = std::make_unique<repl::ReplicationClient>(
        cluster.follower.db.get(), follower_dir(), client_options);
    if (initialize_client) {
      const Status initialized = cluster.client->Initialize();
      EXPECT_TRUE(initialized.ok()) << initialized.ToString();
    }
    return cluster;
  }

  /// Single-steps SyncOnce until the follower reports caught up.
  static void Pump(repl::ReplicationClient& client, int max_cycles = 200) {
    for (int i = 0; i < max_cycles; ++i) {
      auto caught_up = client.SyncOnce();
      ASSERT_TRUE(caught_up.ok()) << caught_up.status().ToString();
      if (*caught_up) return;
    }
    FAIL() << "follower not caught up after " << max_cycles << " cycles";
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

  /// The strongest equivalence available: the rendered JSON document
  /// (exact %.17g doubles included) must match byte for byte.
  static void ExpectEnginesAgree(core::OpineDb& primary,
                                 core::OpineDb& follower,
                                 const std::vector<std::string>& queries,
                                 const std::string& context) {
    for (const std::string& sql : queries) {
      auto want = primary.Execute(sql);
      auto got = follower.Execute(sql);
      ASSERT_TRUE(want.ok()) << context << ": " << want.status().ToString();
      ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
      EXPECT_EQ(core::ResultToJson(*want), core::ResultToJson(*got))
          << context << ": " << sql;
    }
  }

  fs::path root_;
};

// ------------------------------------------------------------ Backoff.

TEST_F(ReplTest, BackoffIsDeterministicAndBounded) {
  BackoffOptions options;
  options.initial_delay_ms = 10.0;
  options.max_delay_ms = 500.0;
  options.multiplier = 2.0;
  options.jitter = 0.5;
  ExponentialBackoff a(options, 7);
  ExponentialBackoff b(options, 7);
  double un_jittered = options.initial_delay_ms;
  for (int i = 0; i < 12; ++i) {
    const double da = a.NextDelayMs();
    const double db = b.NextDelayMs();
    EXPECT_EQ(da, db) << "same seed must give bit-identical delays";
    EXPECT_GE(da, un_jittered * (1.0 - options.jitter) - 1e-9);
    EXPECT_LE(da, un_jittered + 1e-9);
    un_jittered = std::min(un_jittered * options.multiplier,
                           options.max_delay_ms);
  }
  EXPECT_EQ(a.failures(), 12u);
  a.Reset();
  EXPECT_EQ(a.failures(), 0u);
  // Reset restarts the growth schedule but NOT the Rng stream.
  const double after_reset = a.NextDelayMs();
  EXPECT_GE(after_reset, options.initial_delay_ms * (1.0 - options.jitter) -
                             1e-9);
  EXPECT_LE(after_reset, options.initial_delay_ms + 1e-9);
}

TEST_F(ReplTest, FingerprintSeedsAndChainsDistinguishStreams) {
  EXPECT_NE(repl::SeedFingerprint(0), repl::SeedFingerprint(1))
      << "different segments must not share a chain prefix";
  const uint32_t seed = repl::SeedFingerprint(3);
  const uint32_t ab = repl::ChainFingerprint(
      repl::ChainFingerprint(seed, "alpha"), "beta");
  const uint32_t ba = repl::ChainFingerprint(
      repl::ChainFingerprint(seed, "beta"), "alpha");
  EXPECT_NE(ab, ba) << "the chain must be order-sensitive";
  EXPECT_EQ(ab, repl::ChainFingerprint(
                    repl::ChainFingerprint(repl::SeedFingerprint(3), "alpha"),
                    "beta"))
      << "the chain must be a pure function of (seed, payload sequence)";
}

// ------------------------------------------------- Steady-state sync.

TEST_F(ReplTest, SteadyStateShippingIsBitIdentical) {
  Cluster cluster = MakeCluster();
  const auto queries = PoolQueries(cluster.primary, 6);
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());

  for (uint64_t round = 0; round < 5; ++round) {
    ASSERT_TRUE(cluster.primary_db()
                    .AppendReviews(MakeBatch(
                        round, 1 + static_cast<int>(round % 3), entities))
                    .ok());
    Pump(*cluster.client);
  }

  EXPECT_EQ(cluster.primary_db().corpus().num_reviews(),
            cluster.follower_db().corpus().num_reviews());
  ExpectEnginesAgree(cluster.primary_db(), cluster.follower_db(), queries,
                     "steady state");
  // The follower journals every applied record through the same framing
  // the primary used, so the two WAL segments are byte-identical files.
  const std::string segment = storage::WalFileName(0);
  EXPECT_EQ(ReadFileOrDie(fs::path(primary_dir()) / segment),
            ReadFileOrDie(fs::path(follower_dir()) / segment))
      << "follower WAL must mirror the primary's segment bytes";
  EXPECT_EQ(cluster.client->offset(),
            cluster.primary_db().wal_acknowledged_bytes() -
                storage::kWalHeaderSize);
  EXPECT_EQ(cluster.client->divergence_count(), 0u);
  EXPECT_EQ(cluster.client->catchup_count(), 0u);
}

TEST_F(ReplTest, CheckpointLockstepRotatesGenerations) {
  Cluster cluster = MakeCluster();
  const auto queries = PoolQueries(cluster.primary, 4);
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());

  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(1, 3, entities)).ok());
  Pump(*cluster.client);  // The fetch pins generation 0 on the source.

  // Checkpoint retires the segment logically but keeps the pinned file
  // on disk, so the lagging follower drains it and rotates in lockstep.
  ASSERT_TRUE(cluster.primary_db().Checkpoint().ok());
  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(2, 2, entities)).ok());
  EXPECT_EQ(cluster.primary_db().snapshot_generation(), 1u);

  Pump(*cluster.client);
  EXPECT_EQ(cluster.follower_db().snapshot_generation(), 1u)
      << "ReplicaCheckpoint must rotate exactly when the primary did";
  EXPECT_EQ(cluster.client->catchup_count(), 0u)
      << "a pinned segment is drained, not snapshot-copied";
  ExpectEnginesAgree(cluster.primary_db(), cluster.follower_db(), queries,
                     "post-checkpoint");
  const std::string segment = storage::WalFileName(1);
  EXPECT_EQ(ReadFileOrDie(fs::path(primary_dir()) / segment),
            ReadFileOrDie(fs::path(follower_dir()) / segment));
}

TEST_F(ReplTest, SnapshotCatchUpAfterRetiredSegment) {
  Cluster cluster = MakeCluster();
  const auto queries = PoolQueries(cluster.primary, 4);
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());
  const uint64_t base_reviews =
      cluster.follower_db().corpus().num_reviews();

  // The follower never fetches before the checkpoint, so nothing pins
  // generation 0 and the segment is really gone from disk.
  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(1, 4, entities)).ok());
  ASSERT_TRUE(cluster.primary_db().Checkpoint().ok());
  ASSERT_FALSE(
      fs::exists(fs::path(primary_dir()) / storage::WalFileName(0)))
      << "unpinned segment should be retired by the checkpoint";
  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(2, 2, entities)).ok());

  Pump(*cluster.client);
  EXPECT_EQ(cluster.client->catchup_count(), 1u)
      << "a retired base must trigger exactly one snapshot catch-up";
  EXPECT_EQ(cluster.follower_db().snapshot_generation(), 1u);
  // The snapshot is summaries-only (the corpus is re-derivable state,
  // not part of the container), so the batch that was folded away
  // never lands in the follower's corpus — but every record appended
  // AFTER the adopted generation still applies through the WAL.
  EXPECT_EQ(cluster.follower_db().corpus().num_reviews(),
            base_reviews + 2);
  // What MUST survive the fold + catch-up is the serving state: every
  // answer bit-identical to the primary's.
  ExpectEnginesAgree(cluster.primary_db(), cluster.follower_db(), queries,
                     "post-catch-up");
}

// Regression: a follower catching up from the snapshot of a primary
// built on another schema used to open the foreign summaries under its
// own models. The open must be refused and the follower keep serving
// exactly what it served before. The container AdoptSnapshot wrote must
// not outlive the refusal either: left as the directory's newest
// generation, it made the restart path (OpenDatabase on the follower's
// directory) refuse too.
TEST_F(ReplTest, SnapshotCatchUpRefusesAnotherSchema) {
  Cluster cluster = MakeCluster({}, /*initialize_client=*/false,
                                /*primary_seed=*/84);
  ASSERT_FALSE(cluster.primary_db().schema() ==
               cluster.follower_db().schema());
  core::OpineDb& follower = cluster.follower_db();
  // The follower serves its own generation 1, opened from its directory
  // the way a restart opens it.
  ASSERT_TRUE(follower.SaveDatabase(follower_dir()).ok());
  ASSERT_TRUE(follower.OpenDatabase(follower_dir()).ok());
  ASSERT_TRUE(cluster.client->Initialize().ok());
  auto answers = [&] {
    std::vector<std::string> json;
    for (const std::string& sql : PoolQueries(cluster.follower, 6)) {
      auto result = follower.Execute(sql);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      json.push_back(result.ok() ? core::ResultToJson(*result) : "");
    }
    return json;
  };
  const std::vector<std::string> before = answers();
  const uint64_t generation = follower.snapshot_generation();
  ASSERT_EQ(generation, 1u);
  const uint64_t epoch = follower.cache_epoch();
  const std::vector<uint64_t> generations_before =
      storage::SnapshotStore(follower_dir()).ListGenerations();

  // Two checkpoints retire the primary's generation-1 segment, so the
  // follower's first fetch is a snapshot catch-up to generation 2.
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());
  for (uint64_t batch = 1; batch <= 2; ++batch) {
    ASSERT_TRUE(cluster.primary_db()
                    .AppendReviews(MakeBatch(batch, 4, entities))
                    .ok());
    ASSERT_TRUE(cluster.primary_db().Checkpoint().ok());
  }
  ASSERT_EQ(cluster.primary_db().snapshot_generation(), 2u);

  auto synced = cluster.client->SyncOnce();
  ASSERT_FALSE(synced.ok());
  EXPECT_EQ(synced.status().code(), StatusCode::kInvalidArgument)
      << synced.status().ToString();
  EXPECT_EQ(cluster.client->catchup_count(), 0u);
  EXPECT_EQ(follower.snapshot_generation(), generation);
  EXPECT_EQ(follower.cache_epoch(), epoch);
  EXPECT_EQ(answers(), before);

  // The directory holds no generation newer than before the refusal...
  EXPECT_EQ(storage::SnapshotStore(follower_dir()).ListGenerations(),
            generations_before);
  // ...so the restart path reopens the follower's own state.
  const Status reopened = follower.OpenDatabase(follower_dir());
  ASSERT_TRUE(reopened.ok()) << reopened.ToString();
  EXPECT_EQ(follower.snapshot_generation(), generation);
  EXPECT_EQ(answers(), before);
}

TEST_F(ReplTest, RestartedFollowerResumesAndConverges) {
  Cluster cluster = MakeCluster();
  const auto queries = PoolQueries(cluster.primary, 4);
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());

  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(1, 3, entities)).ok());
  Pump(*cluster.client);
  const uint64_t offset_before = cluster.client->offset();
  const uint32_t fingerprint_before = cluster.client->fingerprint();
  ASSERT_GT(offset_before, 0u);

  // "Crash" the follower: throw away the engine and the client, then
  // rebuild from the follower's own directory. Initialize replays the
  // local WAL tail and re-derives the exact stream position.
  cluster.client.reset();
  cluster.follower = BuildEngine();
  repl::ReplicationClientOptions client_options;
  client_options.primary_port = cluster.server->port();
  cluster.client = std::make_unique<repl::ReplicationClient>(
      cluster.follower.db.get(), follower_dir(), client_options);
  ASSERT_TRUE(cluster.client->Initialize().ok());
  EXPECT_EQ(cluster.client->offset(), offset_before)
      << "restart must resume at the acknowledged offset";
  EXPECT_EQ(cluster.client->fingerprint(), fingerprint_before)
      << "restart must re-derive the exact chained fingerprint";

  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(2, 2, entities)).ok());
  Pump(*cluster.client);
  ExpectEnginesAgree(cluster.primary_db(), cluster.follower_db(), queries,
                     "post-restart");
  const std::string segment = storage::WalFileName(0);
  EXPECT_EQ(ReadFileOrDie(fs::path(primary_dir()) / segment),
            ReadFileOrDie(fs::path(follower_dir()) / segment));
}

// ----------------------------------------------------- Failure drills.

TEST_F(ReplTest, MidApplyCrashLosesNothingAndDoublesNothing) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  Cluster cluster = MakeCluster();
  const auto queries = PoolQueries(cluster.primary, 4);
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());

  // Three appended batches = three WAL records in one shipped batch.
  for (uint64_t round = 1; round <= 3; ++round) {
    ASSERT_TRUE(cluster.primary_db()
                    .AppendReviews(MakeBatch(round, 2, entities))
                    .ok());
  }

  // Crash between the first and second applies: record 1 stays
  // acknowledged (offset advanced), records 2-3 are re-fetched.
  fault::Arm("repl.apply", 2);
  auto crashed = cluster.client->SyncOnce();
  ASSERT_FALSE(crashed.ok());
  EXPECT_EQ(fault::HitCount("repl.apply"), 2u);
  const uint64_t offset_after_crash = cluster.client->offset();
  EXPECT_GT(offset_after_crash, 0u) << "the first apply was acknowledged";

  Pump(*cluster.client);
  EXPECT_EQ(cluster.primary_db().corpus().num_reviews(),
            cluster.follower_db().corpus().num_reviews())
      << "no record lost, no record applied twice";
  ExpectEnginesAgree(cluster.primary_db(), cluster.follower_db(), queries,
                     "post-crash");
  const std::string segment = storage::WalFileName(0);
  EXPECT_EQ(ReadFileOrDie(fs::path(primary_dir()) / segment),
            ReadFileOrDie(fs::path(follower_dir()) / segment));
}

TEST_F(ReplTest, DivergenceRefusesTheWholeBatch) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  Cluster cluster = MakeCluster();
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());
  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(1, 3, entities)).ok());

  const uint64_t reviews_before =
      cluster.follower_db().corpus().num_reviews();
  fault::Arm("repl.checksum", 1);
  auto refused = cluster.client->SyncOnce();
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kDataLoss)
      << "divergence must surface as typed DataLoss";
  EXPECT_EQ(cluster.client->divergence_count(), 1u);
  EXPECT_EQ(cluster.follower_db().corpus().num_reviews(), reviews_before)
      << "NOTHING from a mismatched batch may be applied";
  EXPECT_EQ(cluster.client->offset(), 0u);

  // A transient corruption source heals: the next cycle re-fetches and
  // applies the identical batch cleanly.
  Pump(*cluster.client);
  EXPECT_EQ(cluster.primary_db().corpus().num_reviews(),
            cluster.follower_db().corpus().num_reviews());
}

TEST_F(ReplTest, PartitionDegradesThenHealsUnderThePullLoop) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  repl::ReplicationSourceOptions source_options;
  Cluster cluster = MakeCluster(source_options);
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());
  Pump(*cluster.client);

  // Partition: every fetch degrades to Unavailable before any traffic.
  // Writes keep landing on the primary; the follower's lag grows.
  for (int i = 0; i < 3; ++i) {
    fault::Arm("repl.fetch", 1);
    auto cut = cluster.client->SyncOnce();
    EXPECT_FALSE(cut.ok());
    EXPECT_EQ(cut.status().code(), StatusCode::kUnavailable);
  }
  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(9, 3, entities)).ok());
  EXPECT_FALSE(cluster.client->caught_up());

  // Heal under the real background loop: Start() retries with backoff
  // and converges without operator help.
  ASSERT_TRUE(cluster.client->Start().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cluster.client->caught_up() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  cluster.client->Stop();
  EXPECT_TRUE(cluster.client->caught_up()) << "pull loop never converged";
  EXPECT_EQ(cluster.primary_db().corpus().num_reviews(),
            cluster.follower_db().corpus().num_reviews());
  EXPECT_LT(cluster.client->lag_ms(), 10000.0);
}

TEST_F(ReplTest, PromoteFaultFailsBeforeTheFlip) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  Cluster cluster = MakeCluster();
  fault::Arm("repl.promote", 1);
  const Status failed = cluster.follower_db().Promote();
  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(cluster.follower_db().read_only())
      << "a failed promote must leave the node a follower";
  fault::DisarmAll();
  EXPECT_TRUE(cluster.follower_db().Promote().ok());
  EXPECT_FALSE(cluster.follower_db().read_only());
}

// Catalog liveness for the replication kind: every
// fault::SiteKind::kRepl entry must be reached by one sync cycle over a
// fresh batch followed by a promote — the paths the drills above arm. A
// stale entry, or a new replication site no drill reaches, fails here.
TEST_F(ReplTest, EveryReplSiteIsReachedByADrill) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  const auto sites = fault::SitesOfKind(fault::SiteKind::kRepl);
  ASSERT_FALSE(sites.empty());
  for (const char* site : sites) {
    SCOPED_TRACE(site);
    fault::DisarmAll();
    std::error_code ec;
    fs::remove_all(root_, ec);
    fs::create_directories(root_ / "primary");
    fs::create_directories(root_ / "follower");
    Cluster cluster = MakeCluster();
    const int32_t entities =
        static_cast<int32_t>(cluster.primary_db().corpus().num_entities());
    ASSERT_TRUE(
        cluster.primary_db().AppendReviews(MakeBatch(1, 2, entities)).ok());
    fault::Arm(site, 1);
    (void)cluster.client->SyncOnce();
    (void)cluster.follower_db().Promote();
    EXPECT_GT(fault::HitCount(site), 0u)
        << "replication catalog entry never reached: " << site;
  }
}

// ------------------------------------------------ Role enforcement.

TEST_F(ReplTest, FollowerRefusesWritesUntilPromoted) {
  Cluster cluster = MakeCluster();
  core::OpineDb& follower = cluster.follower_db();
  const int32_t entities =
      static_cast<int32_t>(follower.corpus().num_entities());

  const Status append = follower.AppendReviews(MakeBatch(1, 1, entities));
  EXPECT_EQ(append.code(), StatusCode::kFailedPrecondition)
      << "a follower must refuse direct writes: " << append.ToString();
  EXPECT_EQ(follower.Checkpoint().code(),
            StatusCode::kFailedPrecondition)
      << "operator checkpoints would break generation lockstep";

  ASSERT_TRUE(follower.Promote().ok());
  EXPECT_FALSE(follower.read_only());
  EXPECT_TRUE(follower.AppendReviews(MakeBatch(1, 1, entities)).ok())
      << "a promoted follower accepts writes (WAL replayed at enable)";
  EXPECT_EQ(follower.Promote().code(), StatusCode::kFailedPrecondition)
      << "promoting a primary is an operator mistake";
}

// -------------------------------------------------- Wire protocol.

TEST_F(ReplTest, WalFetchRejectsBadOffsetsAndRetiredBases) {
  Cluster cluster = MakeCluster();
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());
  ASSERT_TRUE(
      cluster.primary_db().AppendReviews(MakeBatch(1, 2, entities)).ok());

  server::HttpRequest request;
  request.method = "GET";
  request.path = repl::kWalRoute;

  request.query_params = {{"offset", "0"}};
  EXPECT_EQ(cluster.source->HandleWalFetch(request).status, 400)
      << "?base= is required";

  request.query_params = {{"base", "0"}, {"offset", "7"}};
  EXPECT_EQ(cluster.source->HandleWalFetch(request).status, 416)
      << "an offset off a record boundary must be refused";

  request.query_params = {{"base", "5"}, {"offset", "0"}};
  server::HttpResponse retired = cluster.source->HandleWalFetch(request);
  EXPECT_EQ(retired.status, 409);
  bool has_generation = false;
  for (const auto& [name, value] : retired.headers) {
    if (name == repl::kHeaderPrimaryGeneration) {
      has_generation = true;
      EXPECT_EQ(value, "0");
    }
  }
  EXPECT_TRUE(has_generation)
      << "409 must name the generation to catch up to";

  // A well-formed fetch ships verified frames with the full metadata.
  request.query_params = {{"base", "0"}, {"offset", "0"}};
  server::HttpResponse ok = cluster.source->HandleWalFetch(request);
  EXPECT_EQ(ok.status, 200);
  EXPECT_FALSE(ok.body.empty());
  std::vector<std::string> records;
  EXPECT_EQ(storage::DecodeWalRecords(ok.body, &records), ok.body.size())
      << "every shipped byte must re-verify";
  EXPECT_EQ(records.size(), 1u) << "one append = one WAL record";
}

// ------------------------------------------- Bounded staleness + ops.

TEST_F(ReplTest, BoundedStalenessDegradesOrAnswers412) {
  eval::DomainArtifacts artifacts = BuildEngine();
  double fake_lag_ms = 0.0;
  server::QueryServerOptions options;
  options.replication_lag_ms = [&fake_lag_ms] { return fake_lag_ms; };
  server::QueryServer server(artifacts.db.get(), options);

  const std::string table = artifacts.db->schema().objective_table;
  const std::string sql = "select * from " + table + " where \"" +
                          artifacts.pool[0].text + "\" limit 5";
  server::HttpRequest request;
  request.method = "POST";
  request.path = "/query";

  auto query = [&](const std::string& extra) {
    std::string body = "{\"sql\": " + JsonString(sql);
    if (!extra.empty()) body += ", " + extra;
    body += "}";
    request.body = body;
    return server.Handle(request);
  };

  // Fresh replica: the budget holds, the answer is full fidelity.
  fake_lag_ms = 10.0;
  server::HttpResponse fresh = query("\"max_staleness_ms\": 50");
  EXPECT_EQ(fresh.status, 200);
  EXPECT_NE(fresh.body.find("\"degraded\": false"), std::string::npos);

  // Stale replica, best-effort default: still answers, marked degraded.
  fake_lag_ms = 5000.0;
  server::HttpResponse stale = query("\"max_staleness_ms\": 50");
  EXPECT_EQ(stale.status, 200);
  EXPECT_NE(stale.body.find("\"degraded\": true"), std::string::npos)
      << stale.body;

  // Strict mode: over budget is a typed refusal.
  server::HttpResponse strict =
      query("\"max_staleness_ms\": 50, \"strict\": true");
  EXPECT_EQ(strict.status, 412) << strict.body;

  // No budget named: staleness is the client's choice, never imposed.
  server::HttpResponse unbounded = query("");
  EXPECT_EQ(unbounded.status, 200);
  EXPECT_NE(unbounded.body.find("\"degraded\": false"), std::string::npos);

  EXPECT_EQ(query("\"max_staleness_ms\": -1").status, 400);
}

TEST_F(ReplTest, HealthzReportsRoleWalStateAndLag) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  double fake_lag_ms = 12.5;
  server::QueryServerOptions options;
  options.replication_lag_ms = [&fake_lag_ms] { return fake_lag_ms; };
  server::QueryServer server(&db, options);

  server::HttpRequest request;
  request.method = "GET";
  request.path = "/healthz";

  server::HttpResponse plain = server.Handle(request);
  EXPECT_EQ(plain.status, 200);
  EXPECT_NE(plain.body.find("\"role\": \"primary\""), std::string::npos);
  EXPECT_NE(plain.body.find("\"wal\": \"off\""), std::string::npos);
  EXPECT_NE(plain.body.find("\"replication_lag_ms\": "), std::string::npos);

  ASSERT_TRUE(db.EnableWal(primary_dir()).ok());
  EXPECT_NE(server.Handle(request).body.find("\"wal\": \"on\""),
            std::string::npos);

  db.SetReadOnly(true);
  EXPECT_NE(server.Handle(request).body.find("\"role\": \"follower\""),
            std::string::npos);
  db.SetReadOnly(false);

  if (fault::CompiledIn()) {
    // A failed fsync breaks the journal; health must go degraded so
    // orchestration stops routing writes here before one fails.
    fault::Arm("storage.wal_fsync", 1);
    const int32_t entities =
        static_cast<int32_t>(db.corpus().num_entities());
    EXPECT_FALSE(db.AppendReviews(MakeBatch(1, 1, entities)).ok());
    server::HttpResponse broken = server.Handle(request);
    EXPECT_NE(broken.body.find("\"status\": \"degraded\""),
              std::string::npos)
        << broken.body;
    EXPECT_NE(broken.body.find("\"wal\": \"broken\""), std::string::npos);
  }
}

// ------------------------------------------------------ Failover drill.

TEST_F(ReplTest, FailoverServesPreFailoverAnswersByteForByte) {
  Cluster cluster = MakeCluster();
  const auto queries = PoolQueries(cluster.primary, 5);
  const int32_t entities =
      static_cast<int32_t>(cluster.primary_db().corpus().num_entities());

  for (uint64_t round = 1; round <= 3; ++round) {
    ASSERT_TRUE(cluster.primary_db()
                    .AppendReviews(MakeBatch(round, 2, entities))
                    .ok());
  }
  Pump(*cluster.client);

  // The answers every acknowledged write fed into, rendered exactly as
  // the server renders them — captured BEFORE the primary goes away.
  std::vector<std::string> pre_failover;
  for (const std::string& sql : queries) {
    auto result = cluster.primary_db().Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    pre_failover.push_back(core::ResultToJson(*result));
  }

  // The primary dies; the follower's front door comes up with the
  // promote hook and the (now unbounded) staleness probe.
  cluster.server->Stop();
  core::OpineDb* follower = cluster.follower.db.get();
  repl::ReplicationClient* client = cluster.client.get();
  server::QueryServerOptions follower_options;
  follower_options.httpd.num_workers = 2;
  follower_options.promote = [follower] { return follower->Promote(); };
  follower_options.replication_lag_ms = [client] {
    return client->lag_ms();
  };
  server::QueryServer follower_server(follower, follower_options);
  ASSERT_TRUE(follower_server.Start().ok());

  server::HttpClient http;
  ASSERT_TRUE(
      http.Connect("127.0.0.1", follower_server.port()).ok());

  // Pre-promote, writes are refused at the front door.
  auto refused = http.Post(
      "/reviews",
      "{\"reviews\": [{\"entity\": 0, \"reviewer\": 901, \"date\": "
      "20260808, \"body\": \"the room was very clean\"}]}");
  ASSERT_TRUE(refused.ok()) << refused.status().ToString();
  EXPECT_EQ(refused->status, 400) << refused->body;

  auto promoted = http.Post("/admin/promote", "{}");
  ASSERT_TRUE(promoted.ok()) << promoted.status().ToString();
  EXPECT_EQ(promoted->status, 200) << promoted->body;
  EXPECT_NE(promoted->body.find("\"role\": \"primary\""),
            std::string::npos);

  // Every pre-failover answer, byte for byte, from the new primary.
  for (size_t i = 0; i < queries.size(); ++i) {
    auto response =
        http.Post("/query", "{\"sql\": " + JsonString(queries[i]) + "}");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << response->body;
    EXPECT_EQ(response->body, pre_failover[i])
        << "failover must not lose or perturb an acknowledged write: "
        << queries[i];
  }

  // And the new primary accepts writes.
  auto accepted = http.Post(
      "/reviews",
      "{\"reviews\": [{\"entity\": 0, \"reviewer\": 901, \"date\": "
      "20260808, \"body\": \"the room was very clean\"}]}");
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  EXPECT_EQ(accepted->status, 200) << accepted->body;
  follower_server.Stop();
}

// -------------------------------------------------- Segment pinning.

TEST_F(ReplTest, PinnedSegmentSurvivesCheckpointUntilReleased) {
  eval::DomainArtifacts artifacts = BuildEngine();
  core::OpineDb& db = *artifacts.db;
  ASSERT_TRUE(db.EnableWal(primary_dir()).ok());
  const int32_t entities = static_cast<int32_t>(db.corpus().num_entities());
  ASSERT_TRUE(db.AppendReviews(MakeBatch(1, 2, entities)).ok());

  db.generation_pins()->Pin(0);
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_TRUE(fs::exists(fs::path(primary_dir()) / storage::WalFileName(0)))
      << "a pinned segment must survive the checkpoint that retires it";

  db.generation_pins()->Unpin(0);
  ASSERT_TRUE(db.AppendReviews(MakeBatch(2, 1, entities)).ok());
  ASSERT_TRUE(db.Checkpoint().ok());
  EXPECT_FALSE(fs::exists(fs::path(primary_dir()) / storage::WalFileName(0)))
      << "once released, the next checkpoint retires it normally";
}

}  // namespace
}  // namespace opinedb
