// Differential cache-equivalence harness (docs/CACHING.md):
//
// Two engines are built from the same seed — identical corpora, models
// and summaries. Engine A serves with every cache enabled (result +
// interpretation caches, plus precomputed degree lists for half the
// predicates, rebuilt after every wholesale mutation drops them); engine
// B serves bare. A
// seeded randomized operation stream — zipfian-skewed queries (with
// whitespace/case predicate variants) interleaved with Reaggregate,
// TrainMembership, SetNumThreads, SetTraceLevel and SaveDatabase →
// OpenDatabase — is applied to BOTH engines in lockstep. After every
// query the harness asserts bit-identical answers (entities, names,
// scores, interpretations, partial/degraded flags); after every
// mutation it asserts both engines' cache epochs advanced together,
// monotonically, by exactly one.
//
// This is the contract that makes the cache shippable: caching is an
// invisible optimization. It may never change a byte of an answer, at
// any thread count, at any trace level, across any mutation history.
// The multi-threaded hammer at the bottom is the tsan gate for the
// cache's internal locking.
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache_config.h"
#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "core/engine.h"
#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/trace.h"

namespace opinedb {
namespace {

namespace fs = std::filesystem;

eval::DomainArtifacts BuildEngine() {
  eval::BuildOptions options;
  options.generator.num_entities = 18;
  options.generator.min_reviews_per_entity = 8;
  options.generator.max_reviews_per_entity = 12;
  options.generator.seed = 71;
  options.seed = 71;
  options.extractor_training_sentences = 400;
  options.predicate_pool_size = 24;
  options.membership_training_tuples = 400;
  return eval::BuildArtifacts(datagen::HotelDomain(), options);
}

/// A whitespace/case-mangled rendition of `text` that tokenizes (and
/// therefore scores) identically: uppercase every other letter, pad
/// with extra interior and edge whitespace.
std::string MangledPredicate(const std::string& text) {
  std::string out = "  ";
  bool upper = true;
  for (char c : text) {
    if (c == ' ') {
      out += "  \t";
      continue;
    }
    out += upper ? static_cast<char>(std::toupper(c)) : c;
    upper = !upper;
  }
  out += ' ';
  return out;
}

void ExpectBitIdentical(const core::QueryResult& cached,
                        const core::QueryResult& bare, size_t step) {
  EXPECT_EQ(cached.partial, bare.partial) << "step " << step;
  EXPECT_EQ(cached.degraded, bare.degraded) << "step " << step;
  ASSERT_EQ(cached.results.size(), bare.results.size()) << "step " << step;
  for (size_t i = 0; i < cached.results.size(); ++i) {
    EXPECT_EQ(cached.results[i].entity, bare.results[i].entity)
        << "step " << step << " rank " << i;
    EXPECT_EQ(cached.results[i].entity_name, bare.results[i].entity_name)
        << "step " << step << " rank " << i;
    EXPECT_EQ(cached.results[i].score, bare.results[i].score)
        << "step " << step << " rank " << i;
  }
  ASSERT_EQ(cached.interpretations.size(), bare.interpretations.size())
      << "step " << step;
  for (size_t c = 0; c < cached.interpretations.size(); ++c) {
    const auto& ci = cached.interpretations[c];
    const auto& bi = bare.interpretations[c];
    EXPECT_EQ(ci.method, bi.method) << "step " << step;
    EXPECT_EQ(ci.conjunctive, bi.conjunctive) << "step " << step;
    EXPECT_EQ(ci.confidence, bi.confidence) << "step " << step;
    ASSERT_EQ(ci.atoms.size(), bi.atoms.size()) << "step " << step;
    for (size_t a = 0; a < ci.atoms.size(); ++a) {
      EXPECT_EQ(ci.atoms[a].attribute, bi.atoms[a].attribute);
      EXPECT_EQ(ci.atoms[a].marker, bi.atoms[a].marker);
      EXPECT_EQ(ci.atoms[a].score, bi.atoms[a].score);
    }
  }
}

class CacheEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cached_ = new eval::DomainArtifacts(BuildEngine());
    bare_ = new eval::DomainArtifacts(BuildEngine());
  }

  static void TearDownTestSuite() {
    delete cached_;
    cached_ = nullptr;
    delete bare_;
    bare_ = nullptr;
  }

  void SetUp() override {
    cache::CacheConfig on;
    on.enable_interpretation = true;
    on.enable_results = true;
    cached().ConfigureCaches(on);
    PrecomputeHalf();
  }

  void TearDown() override {
    cached().PrecomputeDegrees({});
    cached().ConfigureCaches(cache::CacheConfig());
    for (auto* db : {&cached(), &bare()}) {
      db->SetNumThreads(1);
      db->SetTraceLevel(obs::TraceLevel::kOff);
    }
  }

  static core::OpineDb& cached() { return *cached_->db; }
  static core::OpineDb& bare() { return *bare_->db; }

  /// Precomputes the lists of the even-indexed query predicates on the
  /// cached engine, so single-predicate, conjunctive and disjunctive
  /// queries mix served and scored conditions.
  static void PrecomputeHalf() {
    const auto& pool = cached_->pool;
    std::vector<std::string> predicates;
    for (size_t i = 0; i < 8; i += 2) {
      predicates.push_back(pool[i % pool.size()].text);
    }
    cached().PrecomputeDegrees(predicates);
  }

  /// A mixed pool of distinct executable queries: single-predicate,
  /// conjunction, disjunction, objective+subjective, varied limits.
  static std::vector<std::string> QueryPool() {
    const auto& pool = cached_->pool;
    auto pred = [&](size_t i) { return pool[i % pool.size()].text; };
    std::vector<std::string> queries;
    for (size_t i = 0; i < 8; ++i) {
      queries.push_back("select * from hotels where \"" + pred(i) +
                        "\" limit " + std::to_string(3 + i % 5));
    }
    queries.push_back("select * from hotels where \"" + pred(0) +
                      "\" and \"" + pred(3) + "\" limit 5");
    queries.push_back("select * from hotels where \"" + pred(1) +
                      "\" or \"" + pred(4) + "\" limit 6");
    queries.push_back("select * from hotels where price_pn < 150 and \"" +
                      pred(2) + "\" limit 5");
    queries.push_back("select * from hotels where not \"" + pred(5) +
                      "\" limit 4");
    return queries;
  }

  static eval::DomainArtifacts* cached_;
  static eval::DomainArtifacts* bare_;
};

eval::DomainArtifacts* CacheEquivalenceTest::cached_ = nullptr;
eval::DomainArtifacts* CacheEquivalenceTest::bare_ = nullptr;

// The harness proper: 160 steps of zipfian-skewed queries with every
// mutation class interleaved, equivalence checked at each step.
TEST_F(CacheEquivalenceTest, RandomizedStreamIsBitIdenticalUnderMutations) {
  const auto queries = QueryPool();
  std::vector<std::string> variants;
  variants.reserve(queries.size());
  for (const auto& q : queries) variants.push_back(q);
  // Predicate-variant forms for the single-predicate queries: same
  // tokens, different whitespace/case — the interpretation cache must
  // normalize them onto one key, and answers must not move.
  for (size_t i = 0; i < 8; ++i) {
    const auto& text = cached_->pool[i % cached_->pool.size()].text;
    variants[i] = "select * from hotels where \"" + MangledPredicate(text) +
                  "\" limit " + std::to_string(3 + i % 5);
  }

  std::mt19937 rng(2026);
  uint64_t expected_epoch = cached().cache_epoch();
  ASSERT_EQ(bare().cache_epoch(), expected_epoch)
      << "identical builds must start at the same epoch";

  const fs::path snap_a =
      fs::path(::testing::TempDir()) / "cache_equiv_snap_a";
  const fs::path snap_b =
      fs::path(::testing::TempDir()) / "cache_equiv_snap_b";
  fs::remove_all(snap_a);
  fs::remove_all(snap_b);

  const core::AggregationOptions original = cached().options().aggregation;
  bool toggled = false;
  // Once a SaveDatabase → OpenDatabase step lands, the extraction
  // relation no longer derives the served summaries and Reaggregate
  // must refuse instead of silently wiping them (the FailedPrecondition
  // regression exercised below).
  bool authoritative = true;
  const std::vector<std::string> review_bodies = {
      "the room was very clean and the staff was friendly",
      "terrible noisy location but the bed was comfortable",
      "excellent breakfast and a spotless bathroom",
      "rude reception and the wifi never worked",
  };

  for (size_t step = 0; step < 160; ++step) {
    const uint32_t roll = rng() % 100;
    if (roll < 76) {
      // Zipfian-ish skew: min of two uniform draws concentrates mass on
      // low indices, so the head queries repeat often enough to serve
      // from cache while the tail still churns the LRU.
      const size_t a = rng() % queries.size();
      const size_t b = rng() % queries.size();
      const size_t idx = std::min(a, b);
      const std::string& sql =
          (rng() % 4 == 0) ? variants[idx] : queries[idx];
      auto from_cached = cached().Execute(sql);
      auto from_bare = bare().Execute(sql);
      ASSERT_TRUE(from_cached.ok())
          << "step " << step << ": " << from_cached.status().ToString();
      ASSERT_TRUE(from_bare.ok())
          << "step " << step << ": " << from_bare.status().ToString();
      ExpectBitIdentical(*from_cached, *from_bare, step);
    } else if (roll < 80) {
      // Incremental ingest, applied to both engines in lockstep: one
      // batch built once, appended to each, exactly one epoch bump.
      // The cached engine's warm layers (lazily expired
      // interpretations and results, patched degree lists) must keep
      // every later answer bit-identical to the bare engine.
      std::vector<text::Review> batch;
      const size_t batch_size = 1 + rng() % 3;
      for (size_t i = 0; i < batch_size; ++i) {
        text::Review review;
        review.entity = static_cast<text::EntityId>(
            rng() % cached().corpus().num_entities());
        review.reviewer = static_cast<text::ReviewerId>(500 + rng() % 7);
        review.date = 20260200 + static_cast<int32_t>(step);
        review.body = review_bodies[rng() % review_bodies.size()];
        batch.push_back(std::move(review));
      }
      ASSERT_TRUE(cached().AppendReviews(batch).ok()) << "step " << step;
      ASSERT_TRUE(bare().AppendReviews(batch).ok()) << "step " << step;
      ++expected_epoch;
    } else if (roll < 85) {
      core::AggregationOptions changed = original;
      changed.fractional = toggled ? original.fractional
                                   : !original.fractional;
      const Status cached_status = cached().Reaggregate(changed);
      const Status bare_status = bare().Reaggregate(changed);
      if (authoritative) {
        ASSERT_TRUE(cached_status.ok())
            << "step " << step << ": " << cached_status.ToString();
        ASSERT_TRUE(bare_status.ok())
            << "step " << step << ": " << bare_status.ToString();
        toggled = !toggled;
        ++expected_epoch;
        PrecomputeHalf();
      } else {
        // Silent-wipe regression: rebuilding summaries from the
        // post-open (empty) extraction relation must be refused with a
        // typed error and zero epoch movement, not quietly executed.
        ASSERT_EQ(cached_status.code(), StatusCode::kFailedPrecondition)
            << "step " << step;
        ASSERT_EQ(bare_status.code(), StatusCode::kFailedPrecondition)
            << "step " << step;
      }
    } else if (roll < 90) {
      const size_t threads = (rng() % 2 == 0) ? 1 : 8;
      cached().SetNumThreads(threads);
      bare().SetNumThreads(threads);
    } else if (roll < 94) {
      const auto level = (rng() % 2 == 0) ? obs::TraceLevel::kOff
                                          : obs::TraceLevel::kFull;
      cached().SetTraceLevel(level);
      bare().SetTraceLevel(level);
    } else if (roll < 97) {
      // Same tuples, same seed → same model on both sides. Derived from
      // the cached engine, but both engines are bit-identical here so
      // the choice of source engine is immaterial.
      const auto tuples = eval::MakeMembershipTuples(
          cached(), cached_->domain, cached_->pool, 120, 1000 + step);
      ASSERT_TRUE(cached().TrainMembership(tuples, 7).ok());
      ASSERT_TRUE(bare().TrainMembership(tuples, 7).ok());
      ++expected_epoch;
      PrecomputeHalf();
    } else {
      ASSERT_TRUE(cached().SaveDatabase(snap_a.string()).ok());
      ASSERT_TRUE(bare().SaveDatabase(snap_b.string()).ok());
      ASSERT_TRUE(cached().OpenDatabase(snap_a.string()).ok());
      ASSERT_TRUE(bare().OpenDatabase(snap_b.string()).ok());
      authoritative = false;
      ++expected_epoch;
      PrecomputeHalf();
    }
    // Epoch discipline: monotone, lockstep, exactly one bump per
    // mutation and zero per execution-reconfig or query.
    ASSERT_EQ(cached().cache_epoch(), expected_epoch) << "step " << step;
    ASSERT_EQ(bare().cache_epoch(), expected_epoch) << "step " << step;
  }

  // The stream must actually have exercised the caches.
  ASSERT_NE(cached().result_cache(), nullptr);
  EXPECT_GT(cached().result_cache()->hits(), 0u)
      << "the zipfian stream never hit the result cache";
  ASSERT_NE(cached().interpretation_cache(), nullptr);
  EXPECT_GT(cached().interpretation_cache()->hits(), 0u);
  EXPECT_NE(cached().precomputed_degrees(cached_->pool[0].text), nullptr)
      << "ingest dropped a precomputed list";

  // Restore the fixture's aggregation for any later suite (possible
  // only while the relation still derives the summaries).
  if (toggled && authoritative) {
    ASSERT_TRUE(cached().Reaggregate(original).ok());
    ASSERT_TRUE(bare().Reaggregate(original).ok());
  }
  fs::remove_all(snap_a);
  fs::remove_all(snap_b);
}

// The acceptance matrix: warm hits are bit-identical to the bare
// engine at {1, 8} threads × {off, full} trace.
TEST_F(CacheEquivalenceTest, WarmHitsMatchAtEveryThreadCountAndTraceLevel) {
  const std::string sql = "select * from hotels where \"" +
                          cached_->pool[0].text + "\" limit 5";
  for (const size_t threads : {size_t{1}, size_t{8}}) {
    for (const auto level : {obs::TraceLevel::kOff, obs::TraceLevel::kFull}) {
      cached().SetNumThreads(threads);
      bare().SetNumThreads(threads);
      cached().SetTraceLevel(level);
      bare().SetTraceLevel(level);
      auto fill = cached().Execute(sql);
      ASSERT_TRUE(fill.ok()) << fill.status().ToString();
      auto hit = cached().Execute(sql);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      EXPECT_TRUE(hit->stats.result_cache_hit)
          << "threads=" << threads << " trace=" << static_cast<int>(level);
      auto reference = bare().Execute(sql);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ExpectBitIdentical(*hit, *reference, threads);
      ExpectBitIdentical(*fill, *reference, threads);
    }
  }
}

// tsan gate: concurrent readers hammering the caches while ingest
// batches land and bump the epoch. Correctness here is "no data race,
// every answer is a complete consistent snapshot" — the reconfiguration
// lock guarantees a query sees either the pre- or the post-batch
// summaries, never a mix. (The mutator is AppendReviews rather than
// Reaggregate because the randomized-stream test above leaves the
// shared fixture opened-from-snapshot, where Reaggregate is refused.)
TEST_F(CacheEquivalenceTest, ConcurrentHammerIsRaceFreeAndConsistent) {
  const auto queries = QueryPool();
  cached().SetNumThreads(4);

  // Deterministic batches, built once: applied to the cached engine
  // while the readers hammer it, then to the bare engine quietly —
  // both end in the same state, so the differential below still binds.
  auto make_batch = [&](size_t k) {
    std::vector<text::Review> batch;
    for (size_t i = 0; i < 3; ++i) {
      text::Review review;
      review.entity = static_cast<text::EntityId>(
          (k * 7 + i * 5) % cached().corpus().num_entities());
      review.reviewer = static_cast<text::ReviewerId>(900 + k);
      review.date = static_cast<int32_t>(20260301 + k);
      review.body =
          "the room was spotless and the staff went out of their way "
          "but the street below was noisy at night";
      batch.push_back(std::move(review));
    }
    return batch;
  };

  std::vector<std::thread> workers;
  workers.reserve(4);
  for (size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937 rng(90 + t);
      for (size_t i = 0; i < 24; ++i) {
        const auto& sql = queries[rng() % queries.size()];
        auto result = cached().Execute(sql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        for (const auto& r : result->results) {
          ASSERT_TRUE(std::isfinite(r.score));
          ASSERT_GE(r.score, 0.0);
          ASSERT_LE(r.score, 1.0);
        }
      }
    });
  }
  for (size_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(cached().AppendReviews(make_batch(k)).ok());
  }
  for (auto& w : workers) w.join();
  for (size_t k = 0; k < 4; ++k) {
    ASSERT_TRUE(bare().AppendReviews(make_batch(k)).ok());
  }

  // Post-hammer: the cached engine still agrees with the bare one.
  for (const auto& sql : queries) {
    auto from_cached = cached().Execute(sql);
    auto from_bare = bare().Execute(sql);
    ASSERT_TRUE(from_cached.ok()) << from_cached.status().ToString();
    ASSERT_TRUE(from_bare.ok()) << from_bare.status().ToString();
    ExpectBitIdentical(*from_cached, *from_bare, 0);
  }
}

}  // namespace
}  // namespace opinedb
