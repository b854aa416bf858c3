#ifndef OPINEDB_STORAGE_SNAPSHOT_STORE_H_
#define OPINEDB_STORAGE_SNAPSHOT_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/pins.h"

namespace opinedb::storage {

/// One named payload inside a snapshot (e.g. "schema", "summaries").
/// Payloads are opaque bytes; the store checksums them, it does not
/// interpret them.
struct SnapshotSection {
  std::string name;
  std::string payload;
};

/// The result of a successful recovery: the newest fully valid
/// generation plus what had to be skipped to find it.
struct LoadedSnapshot {
  uint64_t generation = 0;
  std::vector<SnapshotSection> sections;
  /// Newer generations that existed on disk but failed verification
  /// (torn, truncated, bit-flipped). Zero on a clean open.
  size_t skipped_generations = 0;

  /// Payload of the section named `name`, or nullptr if absent.
  const std::string* Find(const std::string& name) const;
};

/// A directory-based, crash-safe snapshot store.
///
/// Layout:
///
///   <dir>/gen-000000000000N.snap   one immutable snapshot per commit
///   <dir>/*.tmp                    in-flight writes (ignored by
///                                  recovery, swept by the next commit)
///
/// Every file is a framed container (see docs/PERSISTENCE.md):
/// magic+version header, length-prefixed sections each carrying a
/// CRC32C, and a footer with a whole-file CRC32C. Commit() is strictly
/// atomic: write gen-N.tmp, fsync, rename into place, fsync the
/// directory. A crash at any point leaves either the old current
/// generation or the new one — never a half-visible state. Any other
/// file in the directory (a MANIFEST an older release wrote, for
/// instance) is ignored.
///
/// Recover() trusts nothing: it scans candidate generations newest
/// first, verifies every section checksum and the file checksum, and
/// returns the newest generation that verifies end to end. Torn writes,
/// truncations, bit flips and stray tmp files therefore yield a clean
/// older generation, or a typed error — never UB, a throw, or silently
/// wrong data:
///   - Status::NotFound   the directory holds no snapshot at all
///                        (a fresh store);
///   - Status::DataLoss   snapshots exist but none verifies.
///
/// Thread safety: a SnapshotStore is stateless between calls (every
/// call re-reads the directory); distinct instances over the same
/// directory are safe for concurrent Recover(), but concurrent
/// Commit()s must be serialized externally (OpineDb::SaveDatabase does
/// so with the engine reconfiguration lock).
class SnapshotStore {
 public:
  explicit SnapshotStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Commits `sections` as the next generation (max existing + 1).
  /// Creates the directory if needed. Returns the committed generation
  /// number. On error the store is unchanged up to stray tmp/corrupt
  /// files that the next Commit/Recover tolerates by construction.
  Result<uint64_t> Commit(const std::vector<SnapshotSection>& sections);

  /// Recovers the newest fully valid generation (see class comment).
  Result<LoadedSnapshot> Recover() const;

  /// Generation numbers of every gen-*.snap present (ascending, no
  /// validity check). Empty vector on a missing/empty directory.
  std::vector<uint64_t> ListGenerations() const;

  /// Removes all but the `keep` newest generation files, except that
  /// the newest generation that passes full container verification is
  /// always retained regardless of `keep` — it is what Recover() would
  /// serve, so GarbageCollect(0) tidies droppings without ever causing
  /// data loss. Keeping more than one generation is what makes fallback
  /// possible; keep >= 2 is recommended. Never touches tmp files or WAL
  /// segments. Two more retention rules: a generation is never deleted
  /// while (a) `pins` marks it pinned (a follower was promised that
  /// snapshot for catch-up) or (b) a WAL segment in this directory names
  /// it as base (wal-N.log means gen-N plus that segment is a
  /// recoverable state; deleting gen-N would orphan the segment).
  /// `pins` may be nullptr (rule (b) still holds).
  Status GarbageCollect(size_t keep, const GenerationPins* pins = nullptr);

  /// Installs bytes fetched from a replication primary as generation
  /// `generation` — the follower side of snapshot catch-up. The bytes
  /// must verify as a framed container (DecodeContainer) or the call
  /// refuses with the decode error and writes nothing. If gen-N already
  /// exists and verifies, the call is an idempotent no-op; if it exists
  /// but is corrupt, the verified copy replaces it through the same
  /// atomic tmp+rename protocol Commit uses. `written`, when given, is
  /// set to whether this call wrote gen-N.
  Status AdoptSnapshot(uint64_t generation, const std::string& bytes,
                       bool* written = nullptr);

  /// "gen-%013llu.snap" — zero-padded so lexicographic order equals
  /// numeric order in directory listings.
  static std::string GenerationFileName(uint64_t generation);

  /// Parses a generation file name; returns false for anything else
  /// (tmp files, stray droppings).
  static bool ParseGenerationFileName(const std::string& name,
                                      uint64_t* generation);

  /// Serializes sections into the framed container format (exposed for
  /// tests and the corruption fuzzer; Commit uses it internally).
  static std::string EncodeContainer(
      const std::vector<SnapshotSection>& sections);

  /// Verifies and decodes a framed container. Any violation — bad
  /// magic, unknown version, truncation, section CRC, file CRC,
  /// trailing garbage, implausible lengths — is a clean ParseError /
  /// NotSupported; never a throw or an oversized allocation.
  static Result<std::vector<SnapshotSection>> DecodeContainer(
      std::string_view bytes);

 private:
  Status WriteFileAtomic(const std::string& final_name,
                         const std::string& bytes);
  std::string PathTo(const std::string& name) const;

  std::string dir_;
};

}  // namespace opinedb::storage

#endif  // OPINEDB_STORAGE_SNAPSHOT_STORE_H_
