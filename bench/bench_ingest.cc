// Incremental-ingest load driver: measures OpineDb::AppendReviews on
// the seed hotel dataset with the checksummed WAL attached, and writes
// BENCH_ingest.json.
//
// Three phases over the zipfian query mix the serving bench uses:
//
//  1. Baseline: N reader threads run paced queries for a fixed window
//     with no ingest; records query p50/p99 and throughput.
//  2. Ingest under load: the same readers keep querying while one
//     writer appends WAL-journaled review batches back-to-back;
//     records sustained reviews/sec, appended-batch latency
//     percentiles, the query p50/p99 during ingest and the p99
//     regression ratio against phase 1, plus how the precomputed degree
//     lists (the markers and every reader predicate, so readers are
//     served from lists) were maintained across the phase: warm lists
//     must survive ingest — a list whose interpretation is unchanged is
//     patched in place, never evicted.
//  3. Checkpoint: folds the accumulated WAL into the next snapshot
//     generation and records the fold latency and resulting segment
//     rotation.
//
// Readers pace themselves (~1ms between requests) so the exclusive-
// locking writer is never starved by back-to-back shared acquisitions;
// the paced rate is reported so the regression ratio is interpretable.
//
// Knobs: OPINEDB_INGEST_SECONDS (window per phase, default 2),
// OPINEDB_INGEST_BATCH (reviews per append, default 8),
// OPINEDB_INGEST_READERS (query threads, default 4).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "storage/wal.h"

namespace opinedb {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsEnv(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) return std::atof(env);
  return fallback;
}

int IntEnv(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) return std::atoi(env);
  return fallback;
}

double ElapsedSeconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Percentile(std::vector<double>* sorted_inout, double q) {
  if (sorted_inout->empty()) return 0.0;
  std::sort(sorted_inout->begin(), sorted_inout->end());
  const size_t n = sorted_inout->size();
  const size_t idx = std::min(
      n - 1, static_cast<size_t>(std::ceil(q * static_cast<double>(n))) -
                 (q > 0.0 ? 1 : 0));
  return (*sorted_inout)[idx];
}

/// Zipfian-weighted SQL mix (heavy head, churning tail).
std::vector<std::string> MakeQueries(const eval::DomainArtifacts& artifacts) {
  std::vector<std::string> queries;
  for (size_t i = 0; i < 20 && i < artifacts.pool.size(); ++i) {
    queries.push_back("select * from hotels where \"" +
                      artifacts.pool[i].text + "\" limit " +
                      std::to_string(5 + i % 6));
  }
  return queries;
}

std::vector<text::Review> MakeBatch(uint64_t seed, int size,
                                    int32_t num_entities) {
  static const std::vector<std::string> kBodies = {
      "the room was very clean and the staff was friendly",
      "terrible noisy location but the bed was comfortable",
      "excellent breakfast and a spotless bathroom",
      "rude reception and the wifi never worked",
      "the pool area was beautiful and the view stunning",
  };
  Rng rng(seed);
  std::vector<text::Review> batch;
  for (int i = 0; i < size; ++i) {
    text::Review review;
    review.entity = static_cast<int32_t>(rng.Next() % num_entities);
    review.reviewer = 5000 + static_cast<int32_t>(rng.Next() % 200);
    review.date = 20260800 + static_cast<int32_t>(seed % 28);
    review.body = kBodies[rng.Next() % kBodies.size()];
    batch.push_back(std::move(review));
  }
  return batch;
}

struct QueryPhaseResult {
  size_t queries = 0;
  size_t failures = 0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

/// Runs `readers` paced query threads for `seconds`; if `ingest` is
/// non-null it is invoked on the caller thread until the window closes,
/// and its per-batch latencies/counts are returned through the pointers.
QueryPhaseResult RunPhase(core::OpineDb* db,
                          const std::vector<std::string>& queries,
                          int readers, double seconds,
                          const std::function<bool()>* ingest) {
  std::mutex mu;
  std::vector<double> latencies;
  std::atomic<size_t> total{0};
  std::atomic<size_t> failures{0};
  std::atomic<bool> stop{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(2026u + static_cast<uint64_t>(t));
      std::vector<double> local;
      while (!stop.load(std::memory_order_relaxed)) {
        // Zipfian-ish pick: min of two uniforms concentrates the head.
        const size_t a = rng.Next() % queries.size();
        const size_t b = rng.Next() % queries.size();
        const auto& sql = queries[std::min(a, b)];
        const auto begin = Clock::now();
        auto result = db->Execute(sql);
        local.push_back(ElapsedSeconds(begin) * 1e3);
        total.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok()) failures.fetch_add(1, std::memory_order_relaxed);
        // Pacing: leave lock-free gaps so the ingest writer's exclusive
        // acquisition is never starved by back-to-back readers.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::lock_guard<std::mutex> lock(mu);
      latencies.insert(latencies.end(), local.begin(), local.end());
    });
  }

  const auto start = Clock::now();
  if (ingest != nullptr) {
    while (ElapsedSeconds(start) < seconds) {
      if (!(*ingest)()) break;
    }
  } else {
    while (ElapsedSeconds(start) < seconds) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop.store(true);
  for (auto& thread : threads) thread.join();

  QueryPhaseResult result;
  result.queries = total.load();
  result.failures = failures.load();
  result.qps = static_cast<double>(result.queries) / ElapsedSeconds(start);
  result.p50_ms = Percentile(&latencies, 0.50);
  result.p99_ms = Percentile(&latencies, 0.99);
  return result;
}

int Main() {
  printf("Ingest bench: building the seed hotel dataset...\n");
  auto artifacts =
      eval::BuildArtifacts(datagen::HotelDomain(), bench::HotelBuildOptions());
  core::OpineDb& db = *artifacts.db;
  const auto queries = MakeQueries(artifacts);
  const double seconds = SecondsEnv("OPINEDB_INGEST_SECONDS", 2.0);
  const int batch_size = IntEnv("OPINEDB_INGEST_BATCH", 8);
  const int readers = IntEnv("OPINEDB_INGEST_READERS", 4);
  const int32_t entities = static_cast<int32_t>(db.corpus().num_entities());

  std::vector<std::string> predicates = db.schema().Markers();
  for (size_t i = 0; i < queries.size(); ++i) {
    predicates.push_back(artifacts.pool[i].text);
  }
  const size_t warm_lists = db.PrecomputeDegrees(predicates);
  printf("Precomputed degrees: %zu lists (markers + reader predicates)\n",
         warm_lists);

  const auto wal_dir =
      std::filesystem::temp_directory_path() / "opinedb_bench_ingest_wal";
  std::error_code ec;
  std::filesystem::remove_all(wal_dir, ec);
  {
    const Status saved = db.SaveDatabase(wal_dir.string());
    if (!saved.ok()) {
      fprintf(stderr, "snapshot failed: %s\n", saved.ToString().c_str());
      return 1;
    }
  }
  {
    const Status enabled = db.EnableWal(wal_dir.string());
    if (!enabled.ok()) {
      fprintf(stderr, "EnableWal failed: %s\n", enabled.ToString().c_str());
      return 1;
    }
  }

  // Phase 1: queries only.
  const QueryPhaseResult baseline =
      RunPhase(&db, queries, readers, seconds, nullptr);
  printf("  baseline      qps=%7.1f  p50=%6.2fms  p99=%6.2fms  "
         "failures=%zu\n",
         baseline.qps, baseline.p50_ms, baseline.p99_ms, baseline.failures);

  // Phase 2: the same query load with the WAL-journaled writer running.
  // Each append's ingest.append span reports how the lists were kept.
  uint64_t lists_patched = 0;
  uint64_t lists_rescored = 0;
  uint64_t lists_dropped = 0;
  auto count = [](const obs::SpanRecord& span, const char* key) {
    return std::strtoull(std::string(span.Attribute(key)).c_str(), nullptr,
                         10);
  };
  std::vector<double> append_ms;
  uint64_t batches = 0;
  uint64_t reviews_appended = 0;
  const auto ingest_start = Clock::now();
  std::function<bool()> ingest = [&]() {
    const auto batch = MakeBatch(batches, batch_size, entities);
    obs::TraceBuffer trace(256);
    const auto begin = Clock::now();
    Status appended;
    {
      obs::TraceScope scope(&trace);
      appended = db.AppendReviews(batch);
    }
    if (!appended.ok()) {
      fprintf(stderr, "append failed: %s\n", appended.ToString().c_str());
      return false;
    }
    append_ms.push_back(ElapsedSeconds(begin) * 1e3);
    for (const auto& span : trace.Snapshot()) {
      if (span.name != "ingest.append") continue;
      lists_patched += count(span, "lists_patched");
      lists_rescored += count(span, "lists_rescored");
      lists_dropped += count(span, "lists_dropped");
    }
    ++batches;
    reviews_appended += batch.size();
    return true;
  };
  const QueryPhaseResult under_ingest =
      RunPhase(&db, queries, readers, seconds, &ingest);
  const double ingest_seconds = ElapsedSeconds(ingest_start);
  const double reviews_per_sec =
      static_cast<double>(reviews_appended) / ingest_seconds;
  // Resident lists, by distinct key (a marker may double as a reader
  // predicate).
  std::set<const std::vector<double>*> resident;
  for (const auto& predicate : predicates) {
    if (const auto* list = db.precomputed_degrees(predicate)) {
      resident.insert(list);
    }
  }
  const size_t lists_resident = resident.size();
  const double p99_regression =
      baseline.p99_ms > 0.0 ? under_ingest.p99_ms / baseline.p99_ms : 0.0;
  printf("  under ingest  qps=%7.1f  p50=%6.2fms  p99=%6.2fms  "
         "failures=%zu\n",
         under_ingest.qps, under_ingest.p50_ms, under_ingest.p99_ms,
         under_ingest.failures);
  printf("  writer: %llu batches, %.1f reviews/sec sustained, append "
         "p50=%.2fms p99=%.2fms\n",
         static_cast<unsigned long long>(batches), reviews_per_sec,
         Percentile(&append_ms, 0.50), Percentile(&append_ms, 0.99));
  printf("  precomputed lists: %llu patched in place, %llu rescored, %llu "
         "dropped; %zu/%zu still resident\n",
         static_cast<unsigned long long>(lists_patched),
         static_cast<unsigned long long>(lists_rescored),
         static_cast<unsigned long long>(lists_dropped), lists_resident,
         warm_lists);

  // Phase 3: fold the accumulated log into the next generation.
  const auto fold_begin = Clock::now();
  const Status folded = db.Checkpoint();
  const double checkpoint_ms = ElapsedSeconds(fold_begin) * 1e3;
  if (!folded.ok()) {
    fprintf(stderr, "checkpoint failed: %s\n", folded.ToString().c_str());
    return 1;
  }
  printf("  checkpoint: folded %llu batches into gen %llu in %.1fms\n",
         static_cast<unsigned long long>(batches),
         static_cast<unsigned long long>(db.snapshot_generation()),
         checkpoint_ms);

  FILE* out = fopen("BENCH_ingest.json", "w");
  if (out == nullptr) {
    fprintf(stderr, "cannot write BENCH_ingest.json\n");
    return 1;
  }
  fprintf(out, "{\n");
  fprintf(out, "  \"bench\": \"ingest\",\n");
  fprintf(out, "  \"dataset\": \"hotel_seed\",\n");
  opinedb::bench::WriteHostFields(out, static_cast<size_t>(readers));
  fprintf(out, "  \"readers\": %d,\n", readers);
  fprintf(out, "  \"batch_size\": %d,\n", batch_size);
  fprintf(out, "  \"phase_seconds\": %.2f,\n", seconds);
  fprintf(out, "  \"baseline\": {\"qps\": %.2f, \"p50_ms\": %.3f, "
               "\"p99_ms\": %.3f, \"failures\": %zu},\n",
          baseline.qps, baseline.p50_ms, baseline.p99_ms, baseline.failures);
  fprintf(out, "  \"under_ingest\": {\"qps\": %.2f, \"p50_ms\": %.3f, "
               "\"p99_ms\": %.3f, \"failures\": %zu},\n",
          under_ingest.qps, under_ingest.p50_ms, under_ingest.p99_ms,
          under_ingest.failures);
  fprintf(out, "  \"query_p99_regression\": %.3f,\n", p99_regression);
  fprintf(out, "  \"ingest\": {\n");
  fprintf(out, "    \"batches\": %llu,\n",
          static_cast<unsigned long long>(batches));
  fprintf(out, "    \"reviews_appended\": %llu,\n",
          static_cast<unsigned long long>(reviews_appended));
  fprintf(out, "    \"reviews_per_sec\": %.2f,\n", reviews_per_sec);
  fprintf(out, "    \"append_p50_ms\": %.3f,\n", Percentile(&append_ms, 0.50));
  fprintf(out, "    \"append_p99_ms\": %.3f,\n", Percentile(&append_ms, 0.99));
  fprintf(out, "    \"lists_patched\": %llu,\n",
          static_cast<unsigned long long>(lists_patched));
  fprintf(out, "    \"lists_rescored\": %llu,\n",
          static_cast<unsigned long long>(lists_rescored));
  fprintf(out, "    \"lists_dropped\": %llu,\n",
          static_cast<unsigned long long>(lists_dropped));
  fprintf(out, "    \"lists_resident\": %zu\n", lists_resident);
  fprintf(out, "  },\n");
  fprintf(out, "  \"checkpoint\": {\"fold_ms\": %.3f, \"generation\": %llu}\n",
          checkpoint_ms,
          static_cast<unsigned long long>(db.snapshot_generation()));
  fprintf(out, "}\n");
  fclose(out);

  std::filesystem::remove_all(wal_dir, ec);
  printf("Wrote BENCH_ingest.json (%.1f reviews/sec sustained, query p99 "
         "regression %.2fx)\n",
         reviews_per_sec, p99_regression);
  return 0;
}

}  // namespace
}  // namespace opinedb

int main() { return opinedb::Main(); }
