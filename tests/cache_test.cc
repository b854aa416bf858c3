// Unit coverage for the caching layers (docs/CACHING.md):
//
//  - ResultCache: LRU eviction under the byte budget, hit-touch
//    recency, shard independence, epoch-mismatch misses, oversized
//    entries, Clear accounting.
//  - CanonicalQueryKey: whitespace / case / literal-formatting
//    invariance, LIMIT and literal-value sensitivity, AND-order
//    sensitivity (floating-point fold order is part of the result).
//  - InterpretationCache: epoch-keyed lookups and the LRU byte bound (a
//    distinct-key stream stays within budget, the most recently used key
//    survives, overwrites charge once).
//  - Engine never-cache rules: EXPLAIN queries bypass the result
//    cache; partial (deadline) and degraded (fault) results
//    are never inserted; hits are bit-identical at every trace level and
//    render byte-identical JSON (watermark included).
//  - The engine's bounded interpretation cache: 10k fresh predicates
//    stay within kInterpretationCacheBytes and count
//    engine.cache.interp_evict; ingest runs no cascade for a full cache
//    and its entries refill on their next query.
//  - One interpretation per predicate, pinned by interpreter.calls: a
//    query miss, PrecomputeDegrees, a query served from a precomputed
//    list and an ingest refresh each run the cascade exactly as often
//    as they have distinct keys to prepare (for ingest: the lists').
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/deadline.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "core/engine.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/result_json.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace opinedb {
namespace {

using cache::CachedResult;
using cache::InterpretationCache;
using cache::ResultCache;

// ------------------------------------------------------- ResultCache.

/// A value whose ApproxBytes charge is predictable and adjustable via
/// the entity-name payload.
CachedResult MakeValue(size_t name_bytes) {
  CachedResult value;
  core::RankedResult r;
  r.entity = 1;
  r.entity_name.assign(name_bytes, 'x');
  r.score = 0.5;
  value.results.push_back(std::move(r));
  return value;
}

/// Keys that all land in the same shard (and, with distinct residues,
/// in different shards) — found by probing the fingerprint, which is
/// exactly the cache's shard selector.
std::vector<std::string> KeysInShard(uint64_t shard, size_t want) {
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < want && i < 100000; ++i) {
    std::string key = "key-" + std::to_string(i);
    if (ResultCache::Fingerprint(key) % 8 == shard) {
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

TEST(ResultCacheTest, LruEvictsUnderByteBudget) {
  // One shard's budget is total/8; entries charge ~1 KiB each via the
  // name payload, so the 4 KiB shard fits ~3 of them.
  ResultCache cache(8 * 4096);
  const auto keys = KeysInShard(0, 6);
  ASSERT_EQ(keys.size(), 6u);
  for (const auto& key : keys) {
    cache.Insert(key, 1, MakeValue(1024));
  }
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), 4096u);
  EXPECT_LT(cache.size(), keys.size());
  // The newest key survived; the oldest was evicted first.
  CachedResult out;
  EXPECT_TRUE(cache.Lookup(keys.back(), 1, &out));
  EXPECT_FALSE(cache.Lookup(keys.front(), 1, &out));
}

TEST(ResultCacheTest, LookupTouchesRecency) {
  ResultCache cache(8 * 4096);
  const auto keys = KeysInShard(0, 4);
  ASSERT_EQ(keys.size(), 4u);
  // Two resident entries; A is older than B.
  cache.Insert(keys[0], 1, MakeValue(1024));
  cache.Insert(keys[1], 1, MakeValue(1024));
  // Touch A: now B is the eviction candidate.
  CachedResult out;
  ASSERT_TRUE(cache.Lookup(keys[0], 1, &out));
  // Two more inserts force evictions; A must outlive B.
  cache.Insert(keys[2], 1, MakeValue(1024));
  cache.Insert(keys[3], 1, MakeValue(1024));
  EXPECT_TRUE(cache.Lookup(keys[0], 1, &out));
  EXPECT_FALSE(cache.Lookup(keys[1], 1, &out));
}

TEST(ResultCacheTest, ShardsEvictIndependently) {
  ResultCache cache(8 * 4096);
  const auto shard0 = KeysInShard(0, 3);
  const auto shard1 = KeysInShard(1, 1);
  ASSERT_EQ(shard0.size(), 3u);
  ASSERT_EQ(shard1.size(), 1u);
  // Fill shard 0 to its budget.
  for (const auto& key : shard0) cache.Insert(key, 1, MakeValue(1024));
  const size_t resident_before = cache.size();
  // Pressure on shard 1 must not evict anything from shard 0.
  cache.Insert(shard1[0], 1, MakeValue(1024));
  EXPECT_EQ(cache.size(), resident_before + 1);
  CachedResult out;
  for (const auto& key : shard0) {
    if (cache.Lookup(key, 1, &out)) continue;
    // Only shard-0 self-pressure may have evicted it, never shard 1.
    EXPECT_GT(shard0.size() * 1200, 4096u);
  }
}

TEST(ResultCacheTest, EpochMismatchIsAMissAndDropsTheEntry) {
  ResultCache cache(1 << 20);
  cache.Insert("k", 1, MakeValue(16));
  CachedResult out;
  EXPECT_FALSE(cache.Lookup("k", 2, &out));
  EXPECT_EQ(cache.size(), 0u) << "stale-epoch entry left resident";
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ResultCacheTest, OversizedEntriesAreNeverCached) {
  ResultCache cache(8 * 1024);  // 128-byte shard budget.
  EXPECT_EQ(cache.Insert("k", 1, MakeValue(1 << 16)), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResultCacheTest, ClearResetsAccounting) {
  ResultCache cache(1 << 20);
  cache.Insert("a", 1, MakeValue(64));
  cache.Insert("b", 1, MakeValue(64));
  ASSERT_GT(cache.bytes(), 0u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  CachedResult out;
  EXPECT_FALSE(cache.Lookup("a", 1, &out));
}

TEST(ResultCacheTest, ReinsertReplacesInsteadOfDoubleCharging) {
  ResultCache cache(1 << 20);
  cache.Insert("k", 1, MakeValue(64));
  const size_t bytes_once = cache.bytes();
  cache.Insert("k", 1, MakeValue(64));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), bytes_once);
}

// -------------------------------------------------- CanonicalQueryKey.

std::string KeyOf(const std::string& sql) {
  auto query = core::ParseSubjectiveSql(sql);
  EXPECT_TRUE(query.ok()) << sql << ": " << query.status().ToString();
  return core::CanonicalQueryKey(*query);
}

TEST(CanonicalQueryKeyTest, WhitespaceAndCaseInvariantForPredicates) {
  EXPECT_EQ(KeyOf("select * from hotels where \"clean rooms\" limit 5"),
            KeyOf("SELECT  *  FROM hotels  WHERE \" Clean \t ROOMS \" "
                  "LIMIT 5"));
}

TEST(CanonicalQueryKeyTest, NumericLiteralFormattingMerges) {
  // `150` parses as an int literal, `150.0` as a double; the executor
  // compares them numerically, so they must share a key.
  EXPECT_EQ(
      KeyOf("select * from hotels where price_pn < 150 limit 5"),
      KeyOf("select * from hotels where price_pn < 150.0 limit 5"));
  EXPECT_NE(
      KeyOf("select * from hotels where price_pn < 150 limit 5"),
      KeyOf("select * from hotels where price_pn < 151 limit 5"));
}

TEST(CanonicalQueryKeyTest, LimitAndStructureAreKeyed) {
  EXPECT_NE(KeyOf("select * from hotels where \"clean rooms\" limit 5"),
            KeyOf("select * from hotels where \"clean rooms\" limit 6"));
  // AND order is floating-point fold order: a ⊗ b vs b ⊗ a may differ
  // in the last ulp, so reordered conjunctions must not share a key.
  EXPECT_NE(KeyOf("select * from hotels where \"clean rooms\" and "
                  "\"friendly staff\" limit 5"),
            KeyOf("select * from hotels where \"friendly staff\" and "
                  "\"clean rooms\" limit 5"));
  EXPECT_NE(KeyOf("select * from hotels where \"clean rooms\" and "
                  "\"friendly staff\" limit 5"),
            KeyOf("select * from hotels where \"clean rooms\" or "
                  "\"friendly staff\" limit 5"));
}

TEST(CanonicalQueryKeyTest, ExplainIsNotPartOfTheKey) {
  // The engine bypasses the cache for EXPLAIN; the key ignores the
  // flag so the executable query behind an EXPLAIN still correlates.
  EXPECT_EQ(
      KeyOf("select * from hotels where \"clean rooms\" limit 5"),
      KeyOf("explain select * from hotels where \"clean rooms\" limit 5"));
}

// ------------------------------------------------ InterpretationCache.

InterpretationCache::Entry MakeEntry(uint64_t epoch) {
  InterpretationCache::Entry entry;
  entry.interpretation.method = core::InterpretMethod::kWord2Vec;
  entry.interpretation.conjunctive = true;
  entry.interpretation.confidence = 0.625;
  core::AtomInterpretation atom;
  atom.attribute = 2;
  atom.marker = 1;
  atom.score = 0.1234567890123456789;
  entry.interpretation.atoms.push_back(atom);
  entry.rep = {0.25f, -1.0f / 3.0f, 7.25e-12f};
  entry.sentiment = -0.125;
  entry.epoch = epoch;
  return entry;
}

TEST(InterpretationCacheTest, EpochKeyedLookup) {
  InterpretationCache cache;
  cache.Insert("clean rooms", MakeEntry(3));
  InterpretationCache::Entry out;
  EXPECT_TRUE(cache.Lookup("clean rooms", 3, &out));
  EXPECT_FALSE(cache.Lookup("clean rooms", 4, &out));
  EXPECT_FALSE(cache.Lookup("quiet", 3, &out));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup("clean rooms", 3, &out));
}

// ------------------------------------------ InterpretationCache LRU.

/// A 48-dimension entry (the hotel domain's embedding width), so the
/// budget arithmetic below matches what the engine caches.
InterpretationCache::Entry MakeWideEntry(uint64_t epoch) {
  InterpretationCache::Entry entry = MakeEntry(epoch);
  entry.rep.assign(48, 0.5f);
  return entry;
}

std::string PredicateKey(size_t i) { return "predicate " + std::to_string(i); }

TEST(InterpretationCacheLruTest, DistinctKeyStreamStaysWithinBudget) {
  const size_t budget = 16 * 1024;
  InterpretationCache cache(4, budget);
  size_t evicted = 0;
  for (size_t i = 0; i < 2000; ++i) {
    evicted += cache.Insert(PredicateKey(i), MakeWideEntry(1));
    ASSERT_LE(cache.bytes(), budget) << "after insert " << i;
  }
  EXPECT_GT(evicted, 0u);
  EXPECT_EQ(cache.evictions(), evicted);
  EXPECT_LT(cache.size(), 2000u);
  // About budget / ApproxBytes entries stay resident.
  const size_t per_entry =
      InterpretationCache::ApproxBytes(PredicateKey(1999), MakeWideEntry(1));
  EXPECT_GE(cache.size(), budget / per_entry / 2);
}

TEST(InterpretationCacheLruTest, MostRecentlyUsedSurvivesLeastRecentIsEvicted) {
  // One shard, room for exactly three entries.
  const size_t per_entry =
      InterpretationCache::ApproxBytes(PredicateKey(0), MakeWideEntry(1));
  InterpretationCache cache(1, 3 * per_entry + per_entry / 2);
  cache.Insert(PredicateKey(0), MakeWideEntry(1));
  cache.Insert(PredicateKey(1), MakeWideEntry(1));
  cache.Insert(PredicateKey(2), MakeWideEntry(1));
  // Touch the oldest: key 1 becomes the least recently used.
  InterpretationCache::Entry out;
  ASSERT_TRUE(cache.Lookup(PredicateKey(0), 1, &out));
  EXPECT_EQ(cache.Insert(PredicateKey(3), MakeWideEntry(1)), 1u);
  EXPECT_TRUE(cache.Lookup(PredicateKey(0), 1, &out));
  EXPECT_FALSE(cache.Lookup(PredicateKey(1), 1, &out));
  EXPECT_TRUE(cache.Lookup(PredicateKey(2), 1, &out));
  EXPECT_TRUE(cache.Lookup(PredicateKey(3), 1, &out));
}

TEST(InterpretationCacheLruTest, OverwriteDoesNotChargeTwice) {
  InterpretationCache cache(2, 64 * 1024);
  cache.Insert("clean rooms", MakeWideEntry(1));
  const size_t once = cache.bytes();
  EXPECT_EQ(once, InterpretationCache::ApproxBytes("clean rooms",
                                                   MakeWideEntry(1)));
  cache.Insert("clean rooms", MakeWideEntry(2));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), once);
  InterpretationCache::Entry out;
  EXPECT_TRUE(cache.Lookup("clean rooms", 2, &out));
}

// ------------------------------------------- engine never-cache rules.

class CacheEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 20;
    options.generator.min_reviews_per_entity = 8;
    options.generator.max_reviews_per_entity = 14;
    options.generator.seed = 67;
    options.seed = 67;
    options.extractor_training_sentences = 400;
    options.predicate_pool_size = 30;
    options.membership_training_tuples = 400;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  void SetUp() override {
    cache::CacheConfig on;
    on.enable_interpretation = true;
    on.enable_results = true;
    db().ConfigureCaches(on);
  }

  void TearDown() override {
    db().ConfigureCaches(cache::CacheConfig());
    if (fault::CompiledIn()) fault::DisarmAll();
  }

  static core::OpineDb& db() { return *artifacts_->db; }

  static std::string Sql() {
    return "select * from hotels where \"" + artifacts_->pool[0].text +
           "\" limit 5";
  }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* CacheEngineTest::artifacts_ = nullptr;

void ExpectBitIdentical(const core::QueryResult& reference,
                        const core::QueryResult& actual) {
  ASSERT_EQ(reference.results.size(), actual.results.size());
  for (size_t i = 0; i < reference.results.size(); ++i) {
    EXPECT_EQ(reference.results[i].entity, actual.results[i].entity);
    EXPECT_EQ(reference.results[i].entity_name,
              actual.results[i].entity_name);
    EXPECT_EQ(reference.results[i].score, actual.results[i].score);
  }
}

TEST_F(CacheEngineTest, HitIsBitIdenticalAcrossTraceLevels) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  EXPECT_FALSE(fill->stats.result_cache_hit);
  ASSERT_EQ(db().result_cache()->size(), 1u);
  for (const auto level :
       {obs::TraceLevel::kOff, obs::TraceLevel::kStats,
        obs::TraceLevel::kFull}) {
    db().SetTraceLevel(level);
    auto hit = db().Execute(Sql());
    ASSERT_TRUE(hit.ok()) << hit.status().ToString();
    EXPECT_TRUE(hit->stats.result_cache_hit);
    EXPECT_EQ(hit->plan, fill->plan);
    ExpectBitIdentical(*fill, *hit);
    ASSERT_EQ(fill->interpretations.size(), hit->interpretations.size());
    for (size_t c = 0; c < fill->interpretations.size(); ++c) {
      EXPECT_EQ(fill->interpretations[c].method,
                hit->interpretations[c].method);
      EXPECT_EQ(fill->interpretations[c].confidence,
                hit->interpretations[c].confidence);
    }
  }
  db().SetTraceLevel(obs::TraceLevel::kOff);
}

// One statement renders the same bytes warm and cold: a hit carries the
// fill's watermark, while its own stats report that it scored nothing.
TEST_F(CacheEngineTest, HitRendersTheFillsJsonByteForByte) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  ASSERT_FALSE(fill->stats.result_cache_hit);
  ASSERT_GT(fill->stats.entities_scored, 0u);
  auto hit = db().Execute(Sql());
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_TRUE(hit->stats.result_cache_hit);
  EXPECT_EQ(hit->stats.entities_scored, 0u);
  EXPECT_EQ(core::ResultToJson(*fill), core::ResultToJson(*hit));
}

TEST_F(CacheEngineTest, ExplainBypassesTheResultCache) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  const uint64_t hits_before = db().result_cache()->hits();
  auto explain = db().Execute("explain " + Sql());
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_FALSE(explain->stats.result_cache_hit);
  EXPECT_FALSE(explain->plan_text.empty());
  EXPECT_TRUE(explain->results.empty());
  // Neither served from the cache nor inserted into it.
  EXPECT_EQ(db().result_cache()->hits(), hits_before);
  EXPECT_EQ(db().result_cache()->size(), 1u);
}

TEST_F(CacheEngineTest, PartialResultsAreNeverCached) {
  core::QueryControl control;
  control.deadline = QueryDeadline::AfterMillis(0.0);
  auto partial = db().Execute(Sql(), control);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  ASSERT_TRUE(partial->partial);
  EXPECT_EQ(db().result_cache()->size(), 0u)
      << "a deadline-truncated result was cached";
  // And the poisoning direction: a full run now must not serve the
  // partial ranking.
  auto full = db().Execute(Sql());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_FALSE(full->stats.result_cache_hit);
  EXPECT_FALSE(full->partial);
}

TEST_F(CacheEngineTest, DegradedResultsAreNeverCached) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  fault::Arm("interpret.embed", 1);
  auto degraded = db().Execute(Sql());
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_TRUE(degraded->degraded);
  fault::DisarmAll();
  EXPECT_EQ(db().result_cache()->size(), 0u)
      << "a degraded result was cached";
  EXPECT_EQ(db().interpretation_cache()->size(), 0u)
      << "a degraded interpretation was cached";
}

TEST_F(CacheEngineTest, EpochBumpInvalidatesWholesale) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  ASSERT_GT(db().result_cache()->size(), 0u);
  ASSERT_GT(db().interpretation_cache()->size(), 0u);
  const uint64_t epoch_before = db().cache_epoch();
  const core::AggregationOptions original = db().options().aggregation;
  core::AggregationOptions changed = original;
  changed.fractional = !original.fractional;
  db().Reaggregate(changed);
  EXPECT_EQ(db().cache_epoch(), epoch_before + 1);
  EXPECT_EQ(db().result_cache()->size(), 0u);
  EXPECT_EQ(db().interpretation_cache()->size(), 0u);
  // The post-bump serving agrees with a cache-free engine over the new
  // summaries (then restore fixture state).
  auto after = db().Execute(Sql());
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_FALSE(after->stats.result_cache_hit);
  db().ConfigureCaches(cache::CacheConfig());
  auto cache_free = db().Execute(Sql());
  ASSERT_TRUE(cache_free.ok()) << cache_free.status().ToString();
  ExpectBitIdentical(*cache_free, *after);
  db().Reaggregate(original);
}

// ---------------------------------- bounded interpretation cache.

/// A small engine of its own: these tests stream thousands of fresh
/// predicates and append reviews, which the shared fixture above must
/// not see.
class InterpretationCacheBoundTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eval::BuildOptions options;
    options.generator.num_entities = 12;
    options.generator.min_reviews_per_entity = 5;
    options.generator.max_reviews_per_entity = 8;
    options.generator.seed = 71;
    options.seed = 71;
    options.extractor_training_sentences = 250;
    options.predicate_pool_size = 12;
    options.membership_training_tuples = 250;
    options.engine.num_threads = 1;
    options.engine.cache.enable_interpretation = true;
    artifacts_ = new eval::DomainArtifacts(
        eval::BuildArtifacts(datagen::HotelDomain(), options));
  }

  static void TearDownTestSuite() {
    delete artifacts_;
    artifacts_ = nullptr;
  }

  void SetUp() override { db().SetTraceLevel(obs::TraceLevel::kStats); }
  void TearDown() override { db().SetTraceLevel(obs::TraceLevel::kOff); }

  static core::OpineDb& db() { return *artifacts_->db; }

  /// Statement `i` of a stream whose predicates never repeat.
  static std::string FreshSql(size_t i) {
    const auto& pool = artifacts_->pool;
    return "select * from " + db().schema().objective_table + " where \"" +
           pool[i % pool.size()].text + " " + std::to_string(i) +
           "\" limit 5";
  }

  static uint64_t Counter(const std::string& name) {
    return obs::MetricsRegistry::Global().GetCounter(name)->Value();
  }

  static eval::DomainArtifacts* artifacts_;
};

eval::DomainArtifacts* InterpretationCacheBoundTest::artifacts_ = nullptr;

TEST_F(InterpretationCacheBoundTest, DistinctPredicateStreamStaysWithinBudget) {
  cache::InterpretationCache* cache = db().interpretation_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->byte_budget(), cache::kInterpretationCacheBytes);
  const uint64_t evictions_before = Counter("engine.cache.interp_evict");
  for (size_t i = 0; i < 10000; ++i) {
    auto result = db().Execute(FreshSql(i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (i % 1000 == 999) {
      ASSERT_LE(cache->bytes(), cache->byte_budget()) << "after " << i;
    }
  }
  EXPECT_LE(cache->bytes(), cache::kInterpretationCacheBytes);
  EXPECT_LT(cache->size(), 10000u);
  EXPECT_GT(Counter("engine.cache.interp_evict"), evictions_before);
}

TEST_F(InterpretationCacheBoundTest, IngestExpiresEntriesLazily) {
  cache::InterpretationCache* cache = db().interpretation_cache();
  ASSERT_NE(cache, nullptr);
  ASSERT_EQ(db().PrecomputeDegrees({}), 0u);
  // Fill past the budget so the cache is full and has evicted.
  const uint64_t evictions_before = cache->evictions();
  std::string last;
  for (size_t i = 0; cache->evictions() == evictions_before; ++i) {
    ASSERT_LT(i, 20000u) << "the cache never filled";
    last = FreshSql(100000 + i);
    auto result = db().Execute(last);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const size_t resident = cache->size();
  // With no precomputed lists an append runs no cascade: the epoch bump
  // alone expires every entry.
  uint64_t before = Counter("interpreter.calls");
  text::Review review;
  review.entity = 1;
  review.reviewer = 905;
  review.date = 20260901;
  review.body = "the room was very clean and the staff was friendly";
  ASSERT_TRUE(db().AppendReviews({review}).ok());
  EXPECT_EQ(Counter("interpreter.calls") - before, 0u);
  EXPECT_EQ(cache->size(), resident);
  // The next query of a cached predicate misses and refills its entry
  // with one cascade; later queries hit.
  before = Counter("interpreter.calls");
  ASSERT_TRUE(db().Execute(last).ok());
  EXPECT_EQ(Counter("interpreter.calls") - before, 1u);
  before = Counter("interpreter.calls");
  ASSERT_TRUE(db().Execute(last).ok());
  ASSERT_TRUE(db().Execute(last).ok());
  EXPECT_EQ(Counter("interpreter.calls") - before, 0u);
  EXPECT_LE(cache->bytes(), cache->byte_budget());
}

TEST_F(InterpretationCacheBoundTest, OneInterpretationPerPredicate) {
  const auto& pool = artifacts_->pool;
  const std::string queried = pool[0].text + " calls";
  const std::string listed = pool[1].text + " calls";
  const std::string cached_only = pool[2].text + " calls";
  auto sql = [](const std::string& predicate) {
    return "select * from " + db().schema().objective_table + " where \"" +
           predicate + "\" limit 5";
  };
  auto run = [&](const std::string& predicate) {
    auto result = db().Execute(sql(predicate));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : core::QueryResult{};
  };
  auto append = [&](int32_t reviewer) {
    text::Review review;
    review.entity = 2;
    review.reviewer = reviewer;
    review.date = 20260902;
    review.body = "excellent breakfast and a spotless bathroom";
    ASSERT_TRUE(db().AppendReviews({review}).ok());
  };

  // A query miss on a fresh predicate interprets it once.
  uint64_t before = Counter("interpreter.calls");
  EXPECT_EQ(run(queried).stats.cache_misses, 1u);
  EXPECT_EQ(Counter("interpreter.calls") - before, 1u);
  // PrecomputeDegrees interprets a fresh predicate once, and a predicate
  // the interpretation cache holds not at all.
  before = Counter("interpreter.calls");
  ASSERT_EQ(db().PrecomputeDegrees({listed}), 1u);
  EXPECT_EQ(Counter("interpreter.calls") - before, 1u);
  before = Counter("interpreter.calls");
  ASSERT_EQ(db().PrecomputeDegrees({queried, listed}), 2u);
  EXPECT_EQ(Counter("interpreter.calls") - before, 0u);
  // A query on a precomputed predicate interprets nothing.
  before = Counter("interpreter.calls");
  EXPECT_EQ(run(queried).stats.cache_hits, 1u);
  EXPECT_EQ(Counter("interpreter.calls") - before, 0u);
  // One append prepares each list's predicate once, and no
  // interpretation-cache entry: those expire lazily ...
  run(cached_only);
  before = Counter("interpreter.calls");
  append(906);
  EXPECT_EQ(Counter("interpreter.calls") - before, 2u);
  // ... and the next query of a cached predicate without a list
  // prepares it once.
  before = Counter("interpreter.calls");
  EXPECT_EQ(run(cached_only).stats.cache_misses, 1u);
  EXPECT_EQ(Counter("interpreter.calls") - before, 1u);
  before = Counter("interpreter.calls");
  append(907);
  EXPECT_EQ(Counter("interpreter.calls") - before, 2u);
  EXPECT_NE(db().precomputed_degrees(listed), nullptr);
  db().PrecomputeDegrees({});
}

}  // namespace
}  // namespace opinedb
