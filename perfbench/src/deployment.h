#ifndef PERFBENCH_DEPLOYMENT_H_
#define PERFBENCH_DEPLOYMENT_H_

// Set-up, answer checks and follower catch-up for one workload: the
// engine is configured only through EngineOptions, cache::CacheConfig
// and QueryServerOptions, and runs the default data plane.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datagen/scale.h"
#include "eval/experiment.h"
#include "load.h"
#include "repl/source.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

namespace eval = opinedb::eval;
namespace datagen = opinedb::datagen;

struct RunConfig {
  uint64_t seed = 0;
  /// Server workers; reader + writer connections never exceed it.
  size_t workers = 1;
  /// Scratch directory inside the checkout (WAL, snapshots, spans).
  std::string scratch;
};

/// setup_s split: fixture build, front-door start, warm-up.
struct SetupTimes {
  double build_s = 0.0;
  double start_s = 0.0;
  double warmup_s = 0.0;
  double total_s() const { return build_s + start_s + warmup_s; }
};

/// One workload's running system.
struct Deployment {
  const Workload* workload = nullptr;
  eval::DomainArtifacts hotel;
  datagen::ScaledFixture scaled;
  opinedb::core::OpineDb* db = nullptr;
  /// A fresh follower engine (write workloads), detached until catch-up.
  eval::DomainArtifacts follower;
  std::string primary_dir;
  std::string follower_dir;
  std::unique_ptr<opinedb::repl::ReplicationSource> source;
  opinedb::server::QueryServerOptions server_options;
  std::unique_ptr<FrontDoor> door;
  Vocabulary vocabulary;
  SetupTimes times;
  OpCounts warmup;
};

/// Builds the dataset, starts an untraced front door and warms it up.
/// Returns null (after printing why) when any step fails.
std::unique_ptr<Deployment> SetUp(const Workload& workload,
                                  const RunConfig& config);

/// Replaces the deployment's front door (traced when `spans` is set).
bool Restart(Deployment* deployment, SpanStore* spans);

/// Review bodies rendered by the hotel domain generator from `seed`.
std::vector<std::string> RenderReviewBodies(uint64_t seed);

/// Byte-for-byte answer check, run after the window. With the caches
/// switched off, each statement's /query answer must equal
/// core::ResultToJson(db.Execute(sql)) at the same cache epoch, and the
/// follower's embedded answer (write workloads) must equal it too. The
/// answer served before that, caches on, must match it in everything
/// but the watermark line. Mismatches are counted as bad answers and
/// described in `problems`. Returns how many served answers differed
/// only in the watermark (a result-cache hit reports 0 entities scored).
size_t VerifyAnswers(Deployment* deployment,
                     const std::vector<std::string>& sample,
                     opinedb::core::OpineDb* follower, OpCounts* counts,
                     std::vector<std::string>* problems);

/// What the post-window write tail and the follower catch-up produced.
struct CatchUp {
  uint64_t reviews_sent = 0;
  uint64_t reviews_acked = 0;
  uint64_t reviews_applied = 0;
  double seconds = 0.0;
  double wal_bytes_per_review = 0.0;
  double wal_payload_bytes = 0.0;
  std::vector<double> sync_once_ms;
  /// (base generation, offset) before each SyncOnce cycle, and the
  /// cycle's span id (traced runs).
  std::vector<std::pair<uint64_t, uint64_t>> positions;
  std::vector<uint64_t> cycle_spans;
};

/// Appends `Workload::tail_batches` more batches, then has the fresh
/// follower drain the primary's WAL since the base generation over
/// loopback with ReplicationClient::SyncOnce (completed segments end in
/// a replica checkpoint), and checks it: acknowledged offset equal to
/// the primary's, every acknowledged review (`window_reviews` plus the
/// tail) applied. Traced, the cycles are spans.
CatchUp RunCatchUp(Deployment* deployment, ReviewBatchStream* batches,
                   uint64_t window_reviews, SpanStore* spans,
                   OpCounts* counts, std::vector<std::string>* problems);

}  // namespace perfbench

#endif  // PERFBENCH_DEPLOYMENT_H_
