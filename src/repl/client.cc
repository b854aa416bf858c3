#include "repl/client.h"

#include <cstdio>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "obs/metrics.h"
#include "repl/protocol.h"
#include "storage/coding.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"

namespace opinedb::repl {

namespace {

using storage::ParseDecimalU64;

constexpr int kConnectTimeoutMs = 2000;
constexpr int kReadTimeoutMs = 5000;

double MillisSince(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

ReplicationClient::ReplicationClient(core::OpineDb* db, std::string dir,
                                     ReplicationClientOptions options)
    : db_(db),
      dir_(std::move(dir)),
      options_(options) {}

ReplicationClient::~ReplicationClient() { Stop(); }

Status ReplicationClient::Initialize() {
  db_->SetReadOnly(true);
  // Crash recovery is the standard pair: the engine already holds the
  // newest verified snapshot (the caller ran OpenDatabase if one
  // exists); EnableWal replays the durable tail through the exact
  // live-ingest path and truncates torn bytes away.
  Status wal = db_->EnableWal(dir_);
  if (!wal.ok()) return wal;
  Status position = ResetStreamPosition();
  if (!position.ok()) return position;
  {
    std::lock_guard<std::mutex> lock(mu_);
    caught_up_ = false;
    last_caught_up_ = std::chrono::steady_clock::now();
  }
  initialized_ = true;
  return Status::OK();
}

Status ReplicationClient::ResetStreamPosition() {
  const uint64_t base = db_->snapshot_generation();
  uint64_t offset = 0;
  uint32_t fingerprint = SeedFingerprint(base);
  auto contents =
      storage::ReadWal(dir_ + "/" + storage::WalFileName(base));
  if (contents.ok()) {
    // EnableWal already truncated to the verified prefix, so
    // valid_bytes here is exactly the acknowledged stream position.
    offset = contents->valid_bytes > storage::kWalHeaderSize
                 ? contents->valid_bytes - storage::kWalHeaderSize
                 : 0;
    for (const auto& record : contents->records) {
      fingerprint = ChainFingerprint(fingerprint, record);
    }
  } else if (contents.status().code() != StatusCode::kNotFound) {
    return contents.status();
  }
  std::lock_guard<std::mutex> lock(mu_);
  offset_ = offset;
  fingerprint_ = fingerprint;
  return Status::OK();
}

Status ReplicationClient::EnsureConnected() {
  if (http_.connected()) return Status::OK();
  return http_.Connect(options_.primary_host, options_.primary_port,
                       kConnectTimeoutMs, kReadTimeoutMs);
}

Result<bool> ReplicationClient::SyncOnce() {
  auto result = SyncCycle();
  if (!result.ok()) {
    // A follower that cannot complete a cycle cannot claim freshness:
    // a partition must drop caught_up() so bounded-staleness reads
    // degrade instead of lying (lag_ms keeps growing from the last
    // observed caught-up instant).
    std::lock_guard<std::mutex> lock(mu_);
    caught_up_ = false;
  }
  return result;
}

Result<bool> ReplicationClient::SyncCycle() {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "ReplicationClient::Initialize first");
  }
  // Partition site: the whole cycle degrades to a retryable failure
  // before any network traffic.
  if (OPINEDB_FAULT_HIT("repl.fetch")) {
    return Status::Unavailable("injected fault at repl.fetch");
  }
  Status connected = EnsureConnected();
  if (!connected.ok()) return connected;

  const uint64_t base = db_->snapshot_generation();
  uint64_t offset = 0;
  uint32_t fingerprint = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    offset = offset_;
    fingerprint = fingerprint_;
  }
  auto response = http_.Get(std::string(kWalRoute) +
                            "?base=" + std::to_string(base) +
                            "&offset=" + std::to_string(offset));
  if (!response.ok()) return response.status();
  if (response->status == 409) {
    uint64_t target = 0;
    if (!ParseDecimalU64(response->Header(kHeaderPrimaryGeneration), &target)) {
      return Status::Internal(
          "409 without a parsable x-repl-primary-generation");
    }
    Status caught = CatchUpFromSnapshot(target);
    if (!caught.ok()) return caught;
    return false;  // Rebased; pull the new segment immediately.
  }
  if (response->status == 503) {
    return Status::Unavailable("primary not ready: " + response->body);
  }
  if (response->status != 200) {
    return Status::Internal("unexpected /repl/wal status " +
                            std::to_string(response->status) + ": " +
                            response->body);
  }

  uint64_t served_next = 0, acked_end = 0, served_fp = 0;
  if (!ParseDecimalU64(response->Header(kHeaderNextOffset), &served_next) ||
      !ParseDecimalU64(response->Header(kHeaderAckedEnd), &acked_end) ||
      !ParseDecimalU64(response->Header(kHeaderFingerprint), &served_fp)) {
    return Status::Internal("/repl/wal response missing x-repl headers");
  }
  const bool segment_complete =
      response->Header(kHeaderSegmentComplete) == "1";

  // Re-verify every shipped frame's CRC; a partially-verifiable body is
  // corruption in transit and nothing from it is trusted.
  std::vector<std::string> records;
  const size_t consumed =
      storage::DecodeWalRecords(response->body, &records);
  if (consumed != response->body.size()) {
    OPINEDB_METRIC_COUNT("repl.client.torn_batches", 1);
    return Status::DataLoss(
        "shipped batch failed CRC re-verification (" +
        std::to_string(response->body.size() - consumed) +
        " unverifiable tail bytes)");
  }

  // Divergence gate, checked for the WHOLE batch before any apply: the
  // chained fingerprint over everything this follower has applied plus
  // this batch must equal the primary's chain through the same prefix.
  // Apply is deterministic, so equal chains imply bit-identical state.
  uint32_t chained = fingerprint;
  for (const auto& record : records) {
    chained = ChainFingerprint(chained, record);
  }
  if (OPINEDB_FAULT_HIT("repl.checksum")) {
    chained ^= 0x5a5a5a5au;  // Simulated follower-side corruption.
  }
  if (chained != static_cast<uint32_t>(served_fp)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++divergences_;
    OPINEDB_METRIC_COUNT("repl.divergence", 1);
    return Status::DataLoss(
        "replication divergence at base " + std::to_string(base) +
        " offset " + std::to_string(offset) +
        ": batch fingerprint mismatch; refusing to apply");
  }

  for (const auto& record : records) {
    // Crash site between record applies: what was applied stays
    // acknowledged (offset_ advanced below), the rest is re-fetched.
    if (OPINEDB_FAULT_HIT("repl.apply")) {
      return Status::Internal("injected fault at repl.apply");
    }
    auto applied = db_->ApplyReplicatedRecord(record);
    if (!applied.ok()) return applied.status();
    std::lock_guard<std::mutex> lock(mu_);
    offset_ += storage::kWalRecordHeaderSize + record.size();
    fingerprint_ = ChainFingerprint(fingerprint_, record);
  }

  const bool at_served_end = served_next == acked_end;
  if (segment_complete && at_served_end) {
    // The primary checkpointed past this segment; rotate in lockstep
    // (both sides compute the next generation as max-existing + 1 over
    // identical snapshot histories) and restart the chain.
    Status rotated = db_->ReplicaCheckpoint();
    if (!rotated.ok()) return rotated;
    const uint64_t generation = db_->snapshot_generation();
    std::lock_guard<std::mutex> lock(mu_);
    offset_ = 0;
    fingerprint_ = SeedFingerprint(generation);
    return false;  // Pull the fresh segment immediately.
  }

  const bool caught_up = at_served_end && !segment_complete;
  {
    std::lock_guard<std::mutex> lock(mu_);
    caught_up_ = caught_up;
    if (caught_up) {
      last_caught_up_ = std::chrono::steady_clock::now();
    }
  }
  OPINEDB_METRIC_GAUGE_SET("repl.replication_lag_ms", lag_ms());
  return caught_up;
}

Status ReplicationClient::CatchUpFromSnapshot(uint64_t target_generation) {
  if (OPINEDB_FAULT_HIT("repl.fetch")) {
    return Status::Unavailable("injected fault at repl.fetch");
  }
  Status connected = EnsureConnected();
  if (!connected.ok()) return connected;
  auto response = http_.Get(std::string(kSnapshotRoutePrefix) +
                            std::to_string(target_generation));
  if (!response.ok()) return response.status();
  if (response->status != 200) {
    return Status::Unavailable(
        "snapshot fetch for generation " +
        std::to_string(target_generation) + " answered " +
        std::to_string(response->status) + ": " + response->body);
  }
  // AdoptSnapshot verifies the container end to end before writing;
  // OpenDatabase re-verifies on the way into the engine. A corrupt
  // shipped snapshot therefore never touches served state.
  storage::SnapshotStore store(dir_);
  bool written = false;
  Status adopted =
      store.AdoptSnapshot(target_generation, response->body, &written);
  if (!adopted.ok()) return adopted;
  Status opened = db_->OpenDatabase(dir_);
  if (!opened.ok()) {
    // The engine refused the container (another schema, say). Left in
    // place it would be the directory's newest generation, and a
    // restart's OpenDatabase would pick it and be refused too, so the
    // file this call wrote goes; one that was already there stays.
    if (written) {
      const std::string path =
          dir_ + "/" +
          storage::SnapshotStore::GenerationFileName(target_generation);
      if (std::remove(path.c_str()) != 0) {
        return Status::Internal("cannot remove refused snapshot " + path +
                                " (" + opened.ToString() + ")");
      }
      storage::SyncDir(dir_);
    }
    return opened;
  }
  Status wal = db_->EnableWal(dir_);
  if (!wal.ok()) return wal;
  Status position = ResetStreamPosition();
  if (!position.ok()) return position;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++catchups_;
    caught_up_ = false;
  }
  OPINEDB_METRIC_COUNT("repl.client.snapshot_catchups", 1);
  return Status::OK();
}

Status ReplicationClient::Start() {
  if (!initialized_) {
    return Status::FailedPrecondition(
        "ReplicationClient::Initialize first");
  }
  if (thread_.joinable()) {
    return Status::AlreadyExists("pull loop already running");
  }
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = false;
  }
  thread_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void ReplicationClient::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  http_.Close();
}

void ReplicationClient::RunLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
      if (stop_) return;
    }
    auto caught_up = SyncOnce();
    double sleep_ms = 0.0;
    if (!caught_up.ok()) {
      OPINEDB_METRIC_COUNT("repl.client.sync_failures", 1);
      http_.Close();  // A fresh connect next cycle beats a wedged one.
      sleep_ms = backoff_.NextDelayMs();
    } else if (*caught_up) {
      backoff_.Reset();
      sleep_ms = options_.poll_interval_ms;
    }
    // else: behind with a healthy primary — pull again immediately.
    if (sleep_ms > 0.0) {
      std::unique_lock<std::mutex> lock(stop_mu_);
      stop_cv_.wait_for(
          lock, std::chrono::duration<double, std::milli>(sleep_ms),
          [this] { return stop_; });
      if (stop_) return;
    }
  }
}

double ReplicationClient::lag_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return MillisSince(last_caught_up_);
}

bool ReplicationClient::caught_up() const {
  std::lock_guard<std::mutex> lock(mu_);
  return caught_up_;
}

uint64_t ReplicationClient::offset() const {
  std::lock_guard<std::mutex> lock(mu_);
  return offset_;
}

uint32_t ReplicationClient::fingerprint() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fingerprint_;
}

uint64_t ReplicationClient::divergence_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return divergences_;
}

uint64_t ReplicationClient::catchup_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return catchups_;
}

}  // namespace opinedb::repl
