#include "repl/source.h"

#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "repl/protocol.h"
#include "storage/coding.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"

namespace opinedb::repl {

namespace {

using server::HttpRequest;
using server::HttpResponse;
using storage::ParseDecimalU64;

constexpr size_t kMaxBatchBytes = 1 << 20;
constexpr int kPinTtlMs = 10000;

void AddU64Header(HttpResponse* response, const char* name,
                  uint64_t value) {
  response->headers.emplace_back(name, std::to_string(value));
}

}  // namespace

ReplicationSource::ReplicationSource(core::OpineDb* db) : db_(db) {}

ReplicationSource::~ReplicationSource() {
  // Release every pin this source holds so a destroyed source never
  // leaks retention into the engine's registry.
  std::lock_guard<std::mutex> lock(pin_mu_);
  for (const auto& [generation, expiry] : pin_expiry_) {
    db_->generation_pins()->Unpin(generation);
  }
  pin_expiry_.clear();
}

void ReplicationSource::TouchPin(uint64_t generation) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(pin_mu_);
  ExpirePinsLocked(now);
  auto [it, inserted] = pin_expiry_.try_emplace(generation);
  if (inserted) db_->generation_pins()->Pin(generation);
  it->second = now + std::chrono::milliseconds(kPinTtlMs);
}

void ReplicationSource::ExpirePinsLocked(
    std::chrono::steady_clock::time_point now) {
  for (auto it = pin_expiry_.begin(); it != pin_expiry_.end();) {
    if (it->second <= now) {
      db_->generation_pins()->Unpin(it->first);
      it = pin_expiry_.erase(it);
    } else {
      ++it;
    }
  }
}

server::HttpResponse ReplicationSource::HandleWalFetch(
    const server::HttpRequest& request) {
  uint64_t base = 0;
  if (!ParseDecimalU64(request.QueryParam("base"), &base)) {
    return HttpResponse::Error(400, "missing or malformed ?base=");
  }
  uint64_t offset = 0;
  const std::string_view offset_param = request.QueryParam("offset");
  if (!offset_param.empty() && !ParseDecimalU64(offset_param, &offset)) {
    return HttpResponse::Error(400, "malformed ?offset=");
  }
  const std::string dir = db_->wal_dir();
  if (dir.empty()) {
    return HttpResponse::Error(
        503, "primary has no WAL (EnableWal before replicating)");
  }

  // Read (generation, acked size) as a consistent pair: a checkpoint
  // between the two reads would pair the old base with the new
  // segment's size. Under-serving on a detected race is safe — the
  // follower just retries.
  const uint64_t current = db_->snapshot_generation();
  const uint64_t acked = db_->wal_acknowledged_bytes();
  if (db_->snapshot_generation() != current) {
    return HttpResponse::Error(503, "checkpoint in progress; retry");
  }

  const bool live = base == current;
  const std::string path = dir + "/" + storage::WalFileName(base);
  auto file = storage::ReadFileBytes(path);
  if (!file.ok() || file->size() < storage::kWalHeaderSize) {
    if (live) {
      return HttpResponse::Error(503,
                                 "active WAL segment unreadable; retry");
    }
    // The segment was retired (checkpointed away): the follower must
    // catch up from the current snapshot.
    HttpResponse conflict = HttpResponse::Error(
        409, "base generation " + std::to_string(base) +
                 " retired; catch up from snapshot");
    AddU64Header(&conflict, kHeaderPrimaryGeneration, current);
    return conflict;
  }
  TouchPin(base);
  const std::string& bytes = *file;

  // The servable region: for the live segment, clamp to the engine's
  // acknowledged durable size (unacknowledged page-cache bytes must
  // never ship); a retired segment is immutable and fully
  // acknowledged, so its whole verified prefix is servable.
  size_t region_end = bytes.size() - storage::kWalHeaderSize;
  if (live && acked >= storage::kWalHeaderSize) {
    region_end = std::min<size_t>(
        region_end, acked - storage::kWalHeaderSize);
  }
  std::vector<std::string> records;
  const size_t verified = storage::DecodeWalRecords(
      std::string_view(bytes).substr(storage::kWalHeaderSize, region_end),
      &records);

  // Walk to the requested offset, chaining the fingerprint over the
  // records before it (the follower's chain covers everything it has
  // applied, so the served chain must cover everything before AND
  // inside this batch).
  uint32_t fingerprint = SeedFingerprint(base);
  size_t pos = 0;
  size_t next_record = 0;
  while (next_record < records.size() && pos < offset) {
    fingerprint = ChainFingerprint(fingerprint, records[next_record]);
    pos += storage::kWalRecordHeaderSize + records[next_record].size();
    ++next_record;
  }
  if (pos != offset) {
    return HttpResponse::Error(
        416, "offset " + std::to_string(offset) +
                 " is beyond the acknowledged end or not on a record "
                 "boundary (acked end " +
                 std::to_string(verified) + ")");
  }

  HttpResponse response;
  response.status = 200;
  response.content_type = "application/octet-stream";
  size_t shipped_records = 0;
  while (next_record < records.size() &&
         response.body.size() < kMaxBatchBytes) {
    storage::AppendWalRecordFrame(records[next_record], &response.body);
    fingerprint = ChainFingerprint(fingerprint, records[next_record]);
    ++next_record;
    ++shipped_records;
  }
  AddU64Header(&response, kHeaderBase, base);
  AddU64Header(&response, kHeaderPrimaryGeneration, current);
  AddU64Header(&response, kHeaderNextOffset, offset + response.body.size());
  AddU64Header(&response, kHeaderAckedEnd, verified);
  AddU64Header(&response, kHeaderFingerprint, fingerprint);
  response.headers.emplace_back(kHeaderSegmentComplete, live ? "0" : "1");
  OPINEDB_METRIC_COUNT("repl.source.fetches", 1);
  OPINEDB_METRIC_COUNT("repl.source.records_shipped", shipped_records);
  OPINEDB_METRIC_COUNT("repl.source.bytes_shipped", response.body.size());
  return response;
}

server::HttpResponse ReplicationSource::HandleSnapshotFetch(
    const server::HttpRequest& request) {
  const std::string_view prefix = kSnapshotRoutePrefix;
  if (request.path.size() <= prefix.size() ||
      request.path.compare(0, prefix.size(), prefix) != 0) {
    return HttpResponse::Error(400, "expected /repl/snapshot/<gen>");
  }
  uint64_t generation = 0;
  if (!ParseDecimalU64(request.path.substr(prefix.size()), &generation)) {
    return HttpResponse::Error(400, "malformed snapshot generation");
  }
  const std::string dir = db_->wal_dir();
  if (dir.empty()) {
    return HttpResponse::Error(503, "primary has no WAL directory");
  }
  const std::string path =
      dir + "/" + storage::SnapshotStore::GenerationFileName(generation);
  auto bytes = storage::ReadFileBytes(path);
  if (!bytes.ok()) {
    return HttpResponse::Error(
        404, "snapshot generation " + std::to_string(generation) +
                 " not on disk");
  }
  // Never ship a container that does not verify — the follower would
  // refuse it anyway; failing here names the true culprit.
  if (!storage::SnapshotStore::DecodeContainer(*bytes).ok()) {
    return HttpResponse::Error(
        404, "snapshot generation " + std::to_string(generation) +
                 " failed verification on the primary");
  }
  TouchPin(generation);
  HttpResponse response;
  response.status = 200;
  response.content_type = "application/octet-stream";
  response.body = std::move(*bytes);
  AddU64Header(&response, kHeaderPrimaryGeneration,
               db_->snapshot_generation());
  OPINEDB_METRIC_COUNT("repl.source.snapshot_fetches", 1);
  return response;
}

}  // namespace opinedb::repl
