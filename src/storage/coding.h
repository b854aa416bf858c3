#ifndef OPINEDB_STORAGE_CODING_H_
#define OPINEDB_STORAGE_CODING_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "common/result.h"

namespace opinedb::storage {

/// The one byte codec behind every persisted and shipped format: the
/// snapshot container, WAL segments, the engine's section and review
/// batch payloads, and the replication wire (docs/PERSISTENCE.md).

// ------------------------------------------- Little-endian integers.
// Assembled byte by byte, never through a type-punned load, so every
// decoder stays alignment- and ubsan-clean on arbitrary input.

void AppendU32(uint32_t v, std::string* out);
void AppendU64(uint64_t v, std::string* out);

/// Reads the integer at `*pos` (<= in.size()) and advances `*pos` past
/// it. Returns false, leaving `*pos` unchanged, when fewer bytes remain.
bool ReadU32(std::string_view in, size_t* pos, uint32_t* out);
bool ReadU64(std::string_view in, size_t* pos, uint64_t* out);

// ------------------------------------------------------- Decimals.

/// Strict decimal parse: one or more ASCII digits and nothing else (no
/// sign, space or radix prefix; leading zeros allowed), with exact
/// overflow detection, so every value up to UINT64_MAX round-trips.
bool ParseDecimalU64(std::string_view text, uint64_t* out);

/// "<prefix><n zero-padded to 13 digits><suffix>", so lexicographic
/// order equals numeric order below 10^13: the snapshot generation and
/// WAL segment file names.
std::string NumberedFileName(std::string_view prefix, uint64_t n,
                             std::string_view suffix);

/// Inverse of NumberedFileName: false unless `name` is `prefix`, a
/// ParseDecimalU64 number, then `suffix`.
bool ParseNumberedFileName(std::string_view name, std::string_view prefix,
                           std::string_view suffix, uint64_t* n);

// ----------------------------------------------------- Netstrings.

/// Writes `s` as "<length>:<bytes>", robust to spaces and newlines in
/// the bytes.
void WriteNetstring(std::string_view s, std::ostream* out);

/// Reads one netstring (leading whitespace skipped). A malformed header,
/// a length above `max_length` (checked before allocation) or a short
/// read is a ParseError.
Result<std::string> ReadNetstring(std::istream* in, size_t max_length);

// ---------------------------------------------------------- Files.

/// The whole file. NotFound when it cannot be opened, Internal on a
/// read error.
Result<std::string> ReadFileBytes(const std::string& path);

/// Writes every byte of `bytes` to `fd`, looping over short writes and
/// EINTR. False on any other write error (errno is left set).
bool WriteAll(int fd, std::string_view bytes);

/// fsyncs directory `dir` ("" means the working directory) so a create
/// or rename inside it is durable. Best effort on filesystems that
/// reject directory descriptors.
void SyncDir(const std::string& dir);

}  // namespace opinedb::storage

#endif  // OPINEDB_STORAGE_CODING_H_
