#ifndef OPINEDB_REPL_CLIENT_H_
#define OPINEDB_REPL_CLIENT_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "common/backoff.h"
#include "common/result.h"
#include "core/engine.h"
#include "server/http_client.h"

namespace opinedb::repl {

struct ReplicationClientOptions {
  std::string primary_host = "127.0.0.1";
  uint16_t primary_port = 0;
  /// TCP handshake budget per (re)connect.
  int connect_timeout_ms = 2000;
  /// Per-read budget against a stalled primary.
  int read_timeout_ms = 5000;
  /// Sleep between polls while caught up (the steady-state lag floor).
  double poll_interval_ms = 20.0;
  /// Retry schedule after a failed sync cycle. Deterministic under
  /// backoff_seed (common/backoff.h).
  BackoffOptions backoff;
  uint64_t backoff_seed = 42;
};

/// The follower side of WAL-shipped replication: pulls frames from a
/// primary's /repl/wal route, re-verifies every CRC, checks the chained
/// batch fingerprint BEFORE applying anything, and applies each record
/// through OpineDb::ApplyReplicatedRecord — which journals the record
/// to the follower's own WAL and folds it through the exact live-ingest
/// path in one critical section. The follower's state and WAL segment
/// are therefore bit-identical to the primary's at every acknowledged
/// offset.
///
/// Lifecycle: Initialize() (puts the engine in read-only mode, replays
/// the local durable tail, recomputes the stream position), then either
/// Start()/Stop() for the background pull loop or repeated SyncOnce()
/// calls for deterministic single-stepping (what the tests do).
///
/// Failure handling, one cycle at a time:
///   - transport errors / a partitioned primary: Unavailable, the loop
///     retries under exponential backoff with jitter;
///   - fingerprint mismatch: typed DataLoss, NOTHING from the batch is
///     applied, repl.divergence counts it, the loop keeps retrying (a
///     transient corruption source heals, a real divergence needs an
///     operator);
///   - a crash mid-batch (fault site repl.apply): applied records stay
///     applied and acknowledged, the rest are re-fetched from the
///     advanced offset — never a loss, never a double apply;
///   - retired base (409): snapshot catch-up — fetch /repl/snapshot,
///     AdoptSnapshot + OpenDatabase + EnableWal, resume at offset 0. If
///     OpenDatabase refuses the snapshot, the generation file the adopt
///     wrote is removed again, so the directory still recovers the
///     follower's own state.
///
/// Thread safety: SyncOnce and Start/Stop must come from one thread;
/// lag_ms()/caught_up()/offset() are safe from any thread.
class ReplicationClient {
 public:
  /// `db` must outlive the client; `dir` is the follower's own WAL +
  /// snapshot directory (NOT the primary's).
  ReplicationClient(core::OpineDb* db, std::string dir,
                    ReplicationClientOptions options = {});
  ~ReplicationClient();

  ReplicationClient(const ReplicationClient&) = delete;
  ReplicationClient& operator=(const ReplicationClient&) = delete;

  /// Enters follower mode: SetReadOnly, EnableWal (replays the durable
  /// local tail through the live-ingest path), then recomputes the
  /// stream position — offset and chained fingerprint — from the local
  /// segment, so a restarted follower resumes exactly where its
  /// acknowledged WAL ends.
  Status Initialize();

  /// One pull/verify/apply cycle. Returns true when the follower is
  /// caught up to every acknowledged primary write, false when there is
  /// (or may be) more to pull immediately.
  Result<bool> SyncOnce();

  /// Spawns the background pull loop (Initialize first).
  Status Start();
  /// Stops and joins the loop; idempotent.
  void Stop();

  /// Milliseconds since the follower last observed itself caught up —
  /// the bounded-staleness signal behind max_staleness_ms (a partition
  /// makes this grow without bound).
  double lag_ms() const;
  bool caught_up() const;
  /// Stream position: bytes past the segment header acknowledged so
  /// far, and the chained fingerprint over every applied payload.
  uint64_t offset() const;
  uint32_t fingerprint() const;
  /// Fingerprint mismatches observed (each one refused a whole batch).
  uint64_t divergence_count() const;
  /// Snapshot catch-ups performed.
  uint64_t catchup_count() const;

 private:
  void RunLoop();
  /// The body of one cycle; SyncOnce wraps it to drop caught_up_ on
  /// any failure.
  Result<bool> SyncCycle();
  /// Re-derives offset_/fingerprint_ from the local on-disk segment.
  Status ResetStreamPosition();
  Status CatchUpFromSnapshot(uint64_t target_generation);
  Status EnsureConnected();

  core::OpineDb* db_;
  std::string dir_;
  ReplicationClientOptions options_;
  ExponentialBackoff backoff_;
  server::HttpClient http_;
  bool initialized_ = false;

  mutable std::mutex mu_;
  uint64_t offset_ = 0;
  uint32_t fingerprint_ = 0;
  bool caught_up_ = false;
  std::chrono::steady_clock::time_point last_caught_up_;
  uint64_t divergences_ = 0;
  uint64_t catchups_ = 0;

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_ = false;
};

}  // namespace opinedb::repl

#endif  // OPINEDB_REPL_CLIENT_H_
