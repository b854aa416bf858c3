// Unit coverage for the caching layers (docs/CACHING.md):
//
//  - ResultCache: LRU eviction under the byte budget, hit-touch
//    recency, shard independence, epoch-mismatch misses, oversized
//    entries, Clear accounting.
//  - CanonicalQueryKey: whitespace / case / literal-formatting
//    invariance, LIMIT and literal-value sensitivity, AND-order
//    sensitivity (floating-point fold order is part of the result).
//  - InterpretationCache: epoch-keyed lookups, the deterministic
//    serialized form (bit-exact round trip, byte-identical re-save) and
//    the LRU byte bound (a distinct-key stream stays within budget, the
//    most recently used key survives, overwrites charge once, Keys() /
//    save / oversize loads see only resident entries).
//  - Engine never-cache rules: EXPLAIN and forced-plan queries bypass
//    the result cache; partial (deadline) and degraded (fault) results
//    are never inserted; hits are bit-identical at every trace level and
//    render byte-identical JSON (watermark included).
//  - The engine's bounded interpretation cache: 10k fresh predicates
//    stay within kInterpretationCacheBytes and count
//    engine.cache.interp_evict; ingest re-derives at most the resident
//    keys.
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/deadline.h"
#include "common/fault.h"
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
  atom.score = 0.1234567890123456789;  // Exercises max_digits10.
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

TEST(InterpretationCacheTest, SerializedFormRoundTripsBitExactly) {
  InterpretationCache cache;
  cache.Insert("clean rooms", MakeEntry(3));
  auto second = MakeEntry(3);
  second.interpretation.method = core::InterpretMethod::kCooccurrence;
  second.rep.clear();  // Text-ish entry with no embedding.
  cache.Insert("quiet at night", second);

  std::ostringstream bytes;
  ASSERT_TRUE(cache::SaveInterpretationCache(cache, &bytes).ok());
  InterpretationCache loaded;
  std::istringstream in(bytes.str());
  ASSERT_TRUE(cache::LoadInterpretationCache(&in, 9, &loaded).ok());
  EXPECT_EQ(loaded.size(), 2u);
  InterpretationCache::Entry out;
  ASSERT_TRUE(loaded.Lookup("clean rooms", 9, &out));
  const auto reference = MakeEntry(3);
  EXPECT_EQ(out.interpretation.method, reference.interpretation.method);
  EXPECT_EQ(out.interpretation.conjunctive,
            reference.interpretation.conjunctive);
  EXPECT_EQ(out.interpretation.confidence,
            reference.interpretation.confidence);
  EXPECT_FALSE(out.interpretation.degraded);
  ASSERT_EQ(out.interpretation.atoms.size(), 1u);
  EXPECT_EQ(out.interpretation.atoms[0].attribute, 2);
  EXPECT_EQ(out.interpretation.atoms[0].marker, 1);
  EXPECT_EQ(out.interpretation.atoms[0].score,
            reference.interpretation.atoms[0].score);
  ASSERT_EQ(out.rep.size(), reference.rep.size());
  for (size_t i = 0; i < out.rep.size(); ++i) {
    EXPECT_EQ(out.rep[i], reference.rep[i]);
  }
  EXPECT_EQ(out.sentiment, reference.sentiment);
}

TEST(InterpretationCacheTest, ReserializingIsByteIdentical) {
  // Deterministic (sorted) output regardless of insertion order or the
  // hash-map iteration order of the instance — the persistence suite
  // pins save → open → save byte-identity on top of this.
  InterpretationCache a;
  a.Insert("zz last", MakeEntry(1));
  a.Insert("aa first", MakeEntry(1));
  a.Insert("mm mid", MakeEntry(1));
  std::ostringstream bytes_a;
  ASSERT_TRUE(cache::SaveInterpretationCache(a, &bytes_a).ok());

  InterpretationCache b;
  std::istringstream in(bytes_a.str());
  ASSERT_TRUE(cache::LoadInterpretationCache(&in, 5, &b).ok());
  std::ostringstream bytes_b;
  ASSERT_TRUE(cache::SaveInterpretationCache(b, &bytes_b).ok());
  EXPECT_EQ(bytes_a.str(), bytes_b.str());
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

TEST(InterpretationCacheLruTest, KeysAndSaveSeeOnlyResidentEntries) {
  const size_t per_entry =
      InterpretationCache::ApproxBytes(PredicateKey(0), MakeWideEntry(1));
  InterpretationCache cache(1, 4 * per_entry);
  for (size_t i = 0; i < 10; ++i) cache.Insert(PredicateKey(i), MakeWideEntry(1));
  ASSERT_EQ(cache.size(), 4u);
  // Least recently used first: the four newest keys, oldest to newest.
  const std::vector<std::string> want = {PredicateKey(6), PredicateKey(7),
                                         PredicateKey(8), PredicateKey(9)};
  EXPECT_EQ(cache.Keys(), want);

  std::ostringstream bytes;
  ASSERT_TRUE(cache::SaveInterpretationCache(cache, &bytes).ok());
  InterpretationCache loaded(1, 1 << 20);
  std::istringstream in(bytes.str());
  ASSERT_TRUE(cache::LoadInterpretationCache(&in, 1, &loaded).ok());
  EXPECT_EQ(loaded.size(), 4u);
  InterpretationCache::Entry out;
  for (const auto& key : want) EXPECT_TRUE(loaded.Lookup(key, 1, &out)) << key;
  EXPECT_FALSE(loaded.Lookup(PredicateKey(0), 1, &out));
}

TEST(InterpretationCacheLruTest, OversizeSectionLoadsWithinBudget) {
  InterpretationCache big(4, 1 << 20);
  for (size_t i = 0; i < 500; ++i) big.Insert(PredicateKey(i), MakeWideEntry(1));
  ASSERT_EQ(big.size(), 500u);
  std::ostringstream bytes;
  ASSERT_TRUE(cache::SaveInterpretationCache(big, &bytes).ok());

  const size_t budget = 8 * 1024;
  InterpretationCache small(4, budget);
  std::istringstream in(bytes.str());
  ASSERT_TRUE(cache::LoadInterpretationCache(&in, 7, &small).ok());
  EXPECT_LE(small.bytes(), budget);
  EXPECT_GT(small.size(), 0u);
  EXPECT_LT(small.size(), 500u);
  EXPECT_GT(small.evictions(), 0u);
  InterpretationCache::Entry out;
  for (const auto& key : small.Keys()) {
    EXPECT_TRUE(small.Lookup(key, 7, &out)) << key;
  }
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
    db().mutable_options()->force_plan = core::PlanForce::kAuto;
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

TEST_F(CacheEngineTest, ForcedPlansBypassTheResultCache) {
  auto fill = db().Execute(Sql());
  ASSERT_TRUE(fill.ok()) << fill.status().ToString();
  ASSERT_EQ(db().result_cache()->size(), 1u);
  db().mutable_options()->force_plan = core::PlanForce::kDenseScan;
  const uint64_t hits_before = db().result_cache()->hits();
  auto forced = db().Execute(Sql());
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_FALSE(forced->stats.result_cache_hit);
  EXPECT_EQ(db().result_cache()->hits(), hits_before);
  EXPECT_EQ(db().result_cache()->size(), 1u);
  // Forced execution is still bit-identical to the cached fill (plan
  // equivalence) — the bypass is about honoring the forced work, not
  // about different answers.
  ExpectBitIdentical(*fill, *forced);
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

TEST_F(InterpretationCacheBoundTest, IngestRederivesAtMostResidentKeys) {
  cache::InterpretationCache* cache = db().interpretation_cache();
  ASSERT_NE(cache, nullptr);
  // Fill past the budget so the cache is full and has evicted.
  const uint64_t evictions_before = cache->evictions();
  for (size_t i = 0; cache->evictions() == evictions_before; ++i) {
    ASSERT_LT(i, 20000u) << "the cache never filled";
    auto result = db().Execute(FreshSql(100000 + i));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  const size_t resident = cache->size();
  const uint64_t calls_before = Counter("interpreter.calls");
  text::Review review;
  review.entity = 1;
  review.reviewer = 905;
  review.date = 20260901;
  review.body = "the room was very clean and the staff was friendly";
  ASSERT_TRUE(db().AppendReviews({review}).ok());
  const uint64_t calls = Counter("interpreter.calls") - calls_before;
  EXPECT_GT(calls, 0u);
  EXPECT_LE(calls, resident);
  EXPECT_LE(cache->bytes(), cache->byte_budget());
}

}  // namespace
}  // namespace opinedb
