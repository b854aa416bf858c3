#ifndef OPINEDB_REPL_SOURCE_H_
#define OPINEDB_REPL_SOURCE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "core/engine.h"
#include "server/httpd.h"

namespace opinedb::repl {

/// The primary side of WAL-shipped replication: serves the routes in
/// repl/protocol.h off the engine's live WAL directory. Stateless
/// between requests except for the pin table; safe to call from any
/// server worker thread concurrently with writes — fetches read the
/// engine's published generation/acked-size pair and the on-disk
/// segment, never engine internals.
///
/// What is shipped is re-framed from decoded, CRC-verified records with
/// the same deterministic framing the writer used, so the shipped bytes
/// are byte-identical to the durable prefix on disk. Bytes past the
/// acknowledged durable size (an append whose fsync failed may be
/// visible in the page cache) are never shipped.
///
/// One /repl/wal response ships at most 1 MiB of frames, so a catch-up
/// follower takes several round trips instead of one unbounded
/// allocation. A fetch pins the fetched generation for 10 s (Checkpoint
/// neither retires a pinned segment nor deletes a pinned snapshot);
/// every fetch refreshes the pin and stale pins are swept lazily, so a
/// dead follower's pin costs one interval.
class ReplicationSource {
 public:
  explicit ReplicationSource(core::OpineDb* db);
  ~ReplicationSource();

  /// GET /repl/wal?base=<gen>&offset=<n> — see protocol.h for the
  /// response contract (200 with frames, 409 retired base, 416 bad
  /// offset, 503 no WAL / checkpoint in flight).
  server::HttpResponse HandleWalFetch(const server::HttpRequest& request);

  /// GET /repl/snapshot/<gen> — the verified snapshot container for
  /// catch-up, or 404 when that generation is not on disk / corrupt.
  server::HttpResponse HandleSnapshotFetch(
      const server::HttpRequest& request);

 private:
  /// Refreshes the pin on `generation` and expires stale pins.
  void TouchPin(uint64_t generation);
  void ExpirePinsLocked(std::chrono::steady_clock::time_point now);

  core::OpineDb* db_;
  std::mutex pin_mu_;
  /// generation -> pin expiry. Each entry holds exactly one reference
  /// in the engine's GenerationPins registry.
  std::map<uint64_t, std::chrono::steady_clock::time_point> pin_expiry_;
};

}  // namespace opinedb::repl

#endif  // OPINEDB_REPL_SOURCE_H_
