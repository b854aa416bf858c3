// Unit battery for storage WAL segments (src/storage/wal.{h,cc}): the
// checksummed framing format, segment naming, the append → fsync →
// acknowledge protocol, torn-tail recovery (ReadWal never fails on
// corruption — it shortens the valid prefix), and the truncate-then-
// reopen repair cycle. Three layers:
//
//  1. deterministic contracts: naming round-trip, header verification,
//     append/read round-trips, reopen-after-repair, base-generation
//     mismatch rejection;
//  2. a sweep of the two writer-level WAL fault sites
//     (storage.wal_short_write, storage.wal_fsync) asserting each
//     leaves the on-disk segment in exactly the state the acknowledged
//     prefix promises (the third, storage.wal_fold, fires inside the
//     engine checkpoint and is drilled by ingest_test.cc, whose
//     liveness loop fails on any fault::SiteKind::kWal entry no drill
//     reaches);
//  3. a >= 10k-case seeded corruption fuzzer: bit flips, truncations
//     and junk extensions of a real segment must never crash ReadWal,
//     and the surviving records must be a bit-identical prefix of the
//     originals, repairable by TruncateWal + WalWriter::Open.
//
// The fault sweep self-skips when OPINEDB_FAULT_INJECTION is off; the
// contracts and the fuzzer run in every build.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "storage/wal.h"

namespace opinedb::storage {
namespace {

namespace fs = std::filesystem;

std::string ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::DisarmAll();
    dir_ = fs::path(::testing::TempDir()) /
           ("wal_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
    path_ = (dir_ / WalFileName(7)).string();
  }

  void TearDown() override {
    fault::DisarmAll();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Opens the test segment at base generation 7 and appends `payloads`.
  void WriteSegment(const std::vector<std::string>& payloads) {
    auto writer = WalWriter::Open(path_, 7);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& payload : payloads) {
      ASSERT_TRUE(writer->Append(payload).ok());
    }
  }

  fs::path dir_;
  std::string path_;
};

// ------------------------------------------------------------ Naming.

TEST(WalNamingTest, FileNameRoundTrips) {
  for (uint64_t gen : {uint64_t{0}, uint64_t{1}, uint64_t{42},
                       uint64_t{9999999999999}, UINT64_MAX}) {
    uint64_t parsed = 0;
    ASSERT_TRUE(ParseWalFileName(WalFileName(gen), &parsed)) << gen;
    EXPECT_EQ(parsed, gen);
  }
}

TEST(WalNamingTest, ParseRejectsForeignNames) {
  uint64_t parsed = 0;
  for (const char* name :
       {"", "wal-.log", "wal-12x4.log", "wal-123.txt", "gen-0000000000001.snap",
        "wal-0000000000001.log.tmp", "xwal-0000000000001.log",
        "wal-99999999999999999999999999.log"}) {
    EXPECT_FALSE(ParseWalFileName(name, &parsed)) << name;
  }
}

// ---------------------------------------------------------- Contracts.

TEST_F(WalTest, FreshSegmentHasVerifiedHeaderAndNoRecords) {
  WriteSegment({});
  auto contents = ReadWal(path_);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents->base_generation, 7u);
  EXPECT_TRUE(contents->records.empty());
  EXPECT_FALSE(contents->truncated);
  EXPECT_EQ(contents->valid_bytes, fs::file_size(path_));
}

TEST_F(WalTest, AppendReadRoundTripIsBitIdentical) {
  const std::vector<std::string> payloads = {
      "first", std::string(1, '\0'), std::string(4096, 'x'),
      std::string("embedded\0nul\xffhigh", 17), ""};
  WriteSegment(payloads);
  auto contents = ReadWal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->truncated);
  ASSERT_EQ(contents->records.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(contents->records[i], payloads[i]) << "record " << i;
  }
}

TEST_F(WalTest, ReopenAppendsAfterExistingRecords) {
  WriteSegment({"one", "two"});
  {
    auto writer = WalWriter::Open(path_, 7);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append("three").ok());
  }
  auto contents = ReadWal(path_);
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents->records.size(), 3u);
  EXPECT_EQ(contents->records[2], "three");
}

TEST_F(WalTest, OpenRejectsBaseGenerationMismatch) {
  WriteSegment({"one"});
  auto writer = WalWriter::Open(path_, 8);
  ASSERT_FALSE(writer.ok());
  EXPECT_EQ(writer.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(WalTest, MissingSegmentIsNotFound) {
  auto contents = ReadWal((dir_ / "wal-0000000000099.log").string());
  ASSERT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

TEST_F(WalTest, TornTailShortensThePrefixAndRepairs) {
  WriteSegment({"alpha", "beta", "gamma"});
  const std::string intact = ReadFileBytes(path_);
  // Cut the file mid-way through the last record's payload.
  WriteFileBytes(path_, intact.substr(0, intact.size() - 3));

  auto contents = ReadWal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->truncated);
  ASSERT_EQ(contents->records.size(), 2u);
  EXPECT_EQ(contents->records[0], "alpha");
  EXPECT_EQ(contents->records[1], "beta");
  EXPECT_LT(contents->valid_bytes, fs::file_size(path_));

  // Repair: truncate to the verified prefix, reopen, keep appending.
  ASSERT_TRUE(TruncateWal(path_, contents->valid_bytes).ok());
  auto writer = WalWriter::Open(path_, 7);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append("delta").ok());
  auto repaired = ReadWal(path_);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->truncated);
  ASSERT_EQ(repaired->records.size(), 3u);
  EXPECT_EQ(repaired->records[2], "delta");
}

TEST_F(WalTest, CorruptHeaderYieldsEmptyInvalidSegment) {
  WriteSegment({"alpha"});
  std::string bytes = ReadFileBytes(path_);
  bytes[3] ^= 0x40;  // Inside the magic.
  WriteFileBytes(path_, bytes);
  auto contents = ReadWal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->truncated);
  EXPECT_TRUE(contents->records.empty());
  EXPECT_EQ(contents->valid_bytes, 0u);
}

// --------------------------------------------- Writer fault sites.

TEST_F(WalTest, ShortWriteFaultLeavesRepairableTornRecord) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  WriteSegment({"durable"});
  auto writer = WalWriter::Open(path_, 7);
  ASSERT_TRUE(writer.ok());

  fault::Arm("storage.wal_short_write", 1);
  auto failed = writer->Append("torn away");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(fault::HitCount("storage.wal_short_write"), 1u)
      << "the site must actually be reachable";
  // The writer is broken from here on: no silent resumption after an
  // append whose durability is unknown.
  EXPECT_FALSE(writer->is_open());
  EXPECT_EQ(writer->Append("after").code(), StatusCode::kFailedPrecondition);

  // On disk: the acknowledged record survives, the torn one is the
  // invalid tail that recovery truncates.
  auto contents = ReadWal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->truncated);
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], "durable");
  ASSERT_TRUE(TruncateWal(path_, contents->valid_bytes).ok());
  auto reopened = WalWriter::Open(path_, 7);
  ASSERT_TRUE(reopened.ok());
  ASSERT_TRUE(reopened->Append("recovered").ok());
}

TEST_F(WalTest, FsyncFaultRollsBackToAcknowledgedPrefix) {
  if (!fault::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out (plain Release build)";
  }
  WriteSegment({"durable"});
  const uint64_t acknowledged = fs::file_size(path_);
  auto writer = WalWriter::Open(path_, 7);
  ASSERT_TRUE(writer.ok());

  fault::Arm("storage.wal_fsync", 1);
  ASSERT_FALSE(writer->Append("lost in the page cache").ok());
  EXPECT_EQ(fault::HitCount("storage.wal_fsync"), 1u);
  EXPECT_FALSE(writer->is_open());

  // Fail-safe contract: the durable file holds exactly the acknowledged
  // prefix — no unacknowledged record can surface after a crash.
  EXPECT_EQ(fs::file_size(path_), acknowledged);
  auto contents = ReadWal(path_);
  ASSERT_TRUE(contents.ok());
  EXPECT_FALSE(contents->truncated);
  ASSERT_EQ(contents->records.size(), 1u);
  EXPECT_EQ(contents->records[0], "durable");
}

// ------------------------------------------------------------- Fuzzer.

TEST_F(WalTest, CorruptionFuzzerNeverBreaksThePrefixContract) {
  // Build one realistic segment: varied record sizes, binary payloads.
  std::vector<std::string> payloads;
  std::mt19937_64 seed_rng(20260808);
  for (int i = 0; i < 12; ++i) {
    std::string payload;
    const size_t len = 1 + seed_rng() % 200;
    payload.reserve(len);
    for (size_t b = 0; b < len; ++b) {
      payload.push_back(static_cast<char>(seed_rng() & 0xff));
    }
    payloads.push_back(std::move(payload));
  }
  WriteSegment(payloads);
  const std::string intact = ReadFileBytes(path_);
  const std::string mutant_path = (dir_ / "mutant.log").string();

  constexpr int kCases = 10000;
  int truncations_observed = 0;
  for (int c = 0; c < kCases; ++c) {
    std::mt19937_64 rng(0x5eedull * 1000003ull + static_cast<uint64_t>(c));
    std::string bytes = intact;
    switch (rng() % 3) {
      case 0: {  // Single bit flip anywhere in the file.
        const size_t offset = rng() % bytes.size();
        bytes[offset] = static_cast<char>(
            static_cast<unsigned char>(bytes[offset]) ^ (1u << (rng() % 8)));
        break;
      }
      case 1:  // Truncation at an arbitrary byte boundary.
        bytes.resize(rng() % (bytes.size() + 1));
        break;
      default: {  // Junk extension (a crashed appender's droppings).
        const size_t junk = 1 + rng() % 64;
        for (size_t b = 0; b < junk; ++b) {
          bytes.push_back(static_cast<char>(rng() & 0xff));
        }
        break;
      }
    }
    WriteFileBytes(mutant_path, bytes);

    auto contents = ReadWal(mutant_path);
    if (!contents.ok()) {
      // Only an unopenable file may fail; a mutated-but-present one
      // must always parse to some valid prefix.
      ADD_FAILURE() << "case " << c << ": " << contents.status().ToString();
      continue;
    }
    if (contents->truncated) ++truncations_observed;
    ASSERT_LE(contents->valid_bytes, bytes.size()) << "case " << c;
    ASSERT_LE(contents->records.size(), payloads.size()) << "case " << c;
    for (size_t i = 0; i < contents->records.size(); ++i) {
      ASSERT_EQ(contents->records[i], payloads[i])
          << "case " << c << ": surviving record " << i
          << " must be bit-identical to the original";
    }
    // Every surviving prefix must be repairable: truncate + reopen at
    // the original base generation succeeds whenever the header held.
    if (contents->base_generation == 7u && contents->valid_bytes > 0) {
      ASSERT_TRUE(TruncateWal(mutant_path, contents->valid_bytes).ok())
          << "case " << c;
      auto writer = WalWriter::Open(mutant_path, 7);
      ASSERT_TRUE(writer.ok()) << "case " << c << ": "
                               << writer.status().ToString();
    }
  }
  // The sweep must actually exercise the corruption paths, not pick
  // degenerate mutations.
  EXPECT_GT(truncations_observed, kCases / 4);
}

}  // namespace
}  // namespace opinedb::storage
