// Unit tests for storage::SnapshotStore: the framed container format
// (encode/decode, checksum coverage), generation file naming, and the
// commit / recover / garbage-collect protocol over a real directory.
// The fault-injection crash sweep and the randomized corruption fuzzer
// live in crash_consistency_test.cc; this file covers the deterministic
// contracts.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/checksum.h"
#include "storage/pins.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"

namespace opinedb::storage {
namespace {

namespace fs = std::filesystem;

/// Fresh per-test directory under the gtest temp root, removed on
/// teardown so repeated runs start clean.
class SnapshotStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("snapshot_store_test_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string dir() const { return dir_.string(); }

  static std::vector<SnapshotSection> SampleSections() {
    std::vector<SnapshotSection> sections(2);
    sections[0].name = "schema";
    sections[0].payload = "opinedb-schema 1\npretend-schema-bytes";
    sections[1].name = "summaries";
    // Binary-ish payload: embedded NULs and high bytes must survive.
    sections[1].payload = std::string("\x00\x01\xfe\xff binary", 12);
    return sections;
  }

  static std::string ReadFile(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
  }

  static void WriteFile(const fs::path& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good()) << path;
  }

  fs::path GenPath(uint64_t generation) const {
    return dir_ / SnapshotStore::GenerationFileName(generation);
  }

  fs::path dir_;
};

void ExpectSectionsEqual(const std::vector<SnapshotSection>& want,
                         const std::vector<SnapshotSection>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].name, got[i].name);
    EXPECT_EQ(want[i].payload, got[i].payload);
  }
}

// ------------------------------------------------------------ Framing.

TEST_F(SnapshotStoreTest, ContainerRoundTrips) {
  const auto sections = SampleSections();
  const std::string bytes = SnapshotStore::EncodeContainer(sections);
  auto decoded = SnapshotStore::DecodeContainer(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSectionsEqual(sections, *decoded);
}

TEST_F(SnapshotStoreTest, EmptyContainerRoundTrips) {
  const std::string bytes = SnapshotStore::EncodeContainer({});
  auto decoded = SnapshotStore::DecodeContainer(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->empty());
}

TEST_F(SnapshotStoreTest, EmptyPayloadRoundTrips) {
  std::vector<SnapshotSection> sections(1);
  sections[0].name = "empty";
  auto decoded =
      SnapshotStore::DecodeContainer(SnapshotStore::EncodeContainer(sections));
  ASSERT_TRUE(decoded.ok());
  ExpectSectionsEqual(sections, *decoded);
}

TEST_F(SnapshotStoreTest, EveryTruncationIsACleanError) {
  const std::string full = SnapshotStore::EncodeContainer(SampleSections());
  for (size_t length = 0; length < full.size(); ++length) {
    EXPECT_NO_THROW({
      auto decoded = SnapshotStore::DecodeContainer(full.substr(0, length));
      EXPECT_FALSE(decoded.ok()) << "prefix length " << length;
    });
  }
}

TEST_F(SnapshotStoreTest, EverySingleBitFlipIsDetected) {
  // Every byte of the container — magic, version, lengths, payloads,
  // CRC fields themselves — is covered by some checksum (CRC32C detects
  // all single-bit errors), so an exhaustive flip sweep must reject
  // every mutant outright.
  const std::string full = SnapshotStore::EncodeContainer(SampleSections());
  for (size_t offset = 0; offset < full.size(); ++offset) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[offset] = static_cast<char>(
          static_cast<unsigned char>(mutated[offset]) ^ (1u << bit));
      auto decoded = SnapshotStore::DecodeContainer(mutated);
      EXPECT_FALSE(decoded.ok())
          << "flip survived at offset " << offset << " bit " << bit;
    }
  }
}

TEST_F(SnapshotStoreTest, TrailingBytesAreRejected) {
  std::string bytes = SnapshotStore::EncodeContainer(SampleSections());
  bytes += "junk";
  EXPECT_FALSE(SnapshotStore::DecodeContainer(bytes).ok());
}

TEST_F(SnapshotStoreTest, BadMagicIsRejected) {
  std::string bytes = SnapshotStore::EncodeContainer(SampleSections());
  bytes[0] = 'X';
  auto decoded = SnapshotStore::DecodeContainer(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST_F(SnapshotStoreTest, HonestFutureVersionIsNotSupported) {
  // Patch the version to 2 and recompute the header CRC, so the header
  // verifies: this is a genuine future format, distinguishable from a
  // flipped version byte (which fails the CRC and reads as corruption).
  std::string bytes = SnapshotStore::EncodeContainer(SampleSections());
  bytes[8] = 2;  // Little-endian version word follows the 8-byte magic.
  const uint32_t crc = MaskCrc(Crc32c(bytes.data(), 12));
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  auto decoded = SnapshotStore::DecodeContainer(bytes);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kNotSupported);
}

// ------------------------------------------------------- File naming.

TEST_F(SnapshotStoreTest, GenerationFileNamesSortAndParse) {
  EXPECT_EQ(SnapshotStore::GenerationFileName(7), "gen-0000000000007.snap");
  // Zero-padding: lexicographic order must equal numeric order.
  EXPECT_LT(SnapshotStore::GenerationFileName(9),
            SnapshotStore::GenerationFileName(10));
  uint64_t generation = 0;
  EXPECT_TRUE(SnapshotStore::ParseGenerationFileName("gen-0000000000042.snap",
                                                     &generation));
  EXPECT_EQ(generation, 42u);
  for (uint64_t g : {uint64_t{1}, uint64_t{999}, uint64_t{1} << 40,
                     UINT64_MAX}) {
    ASSERT_TRUE(SnapshotStore::ParseGenerationFileName(
        SnapshotStore::GenerationFileName(g), &generation));
    EXPECT_EQ(generation, g);
  }
}

TEST_F(SnapshotStoreTest, NonGenerationNamesAreRejected) {
  uint64_t generation = 0;
  for (const char* name :
       {"MANIFEST", "MANIFEST.tmp", "gen-.snap", "gen-12.tmp",
        "gen-0000000000001.snap.tmp", "gen-12x4.snap", "notes.txt",
        "gen-99999999999999999999999999.snap"}) {
    EXPECT_FALSE(SnapshotStore::ParseGenerationFileName(name, &generation))
        << name;
  }
}

// ------------------------------------------------ Commit and recover.

TEST_F(SnapshotStoreTest, RecoverOnMissingDirectoryIsNotFound) {
  SnapshotStore store(dir());
  auto recovered = store.Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(store.ListGenerations().empty());
}

TEST_F(SnapshotStoreTest, CommitThenRecoverRoundTrips) {
  SnapshotStore store(dir());
  const auto sections = SampleSections();
  auto committed = store.Commit(sections);
  ASSERT_TRUE(committed.ok()) << committed.status().ToString();
  EXPECT_EQ(*committed, 1u);

  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->generation, 1u);
  EXPECT_EQ(recovered->skipped_generations, 0u);
  ExpectSectionsEqual(sections, recovered->sections);
  ASSERT_NE(recovered->Find("schema"), nullptr);
  EXPECT_EQ(*recovered->Find("schema"), sections[0].payload);
  EXPECT_EQ(recovered->Find("no-such-section"), nullptr);
}

TEST_F(SnapshotStoreTest, NewestGenerationWins) {
  SnapshotStore store(dir());
  auto first = SampleSections();
  ASSERT_TRUE(store.Commit(first).ok());
  auto second = SampleSections();
  second[0].payload = "newer schema";
  ASSERT_TRUE(store.Commit(second).ok());

  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{1, 2}));
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->generation, 2u);
  ExpectSectionsEqual(second, recovered->sections);
}

TEST_F(SnapshotStoreTest, TruncatedNewestFallsBackToOlder) {
  SnapshotStore store(dir());
  const auto first = SampleSections();
  ASSERT_TRUE(store.Commit(first).ok());
  auto second = SampleSections();
  second[1].payload = "changed";
  ASSERT_TRUE(store.Commit(second).ok());

  // Torn write of gen 2: keep only half the file.
  const std::string bytes = ReadFile(GenPath(2));
  WriteFile(GenPath(2), bytes.substr(0, bytes.size() / 2));

  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->generation, 1u);
  EXPECT_EQ(recovered->skipped_generations, 1u);
  ExpectSectionsEqual(first, recovered->sections);
}

// A commit writes the generation file and nothing else — no MANIFEST —
// and the directory recovers from the generation files alone.
TEST_F(SnapshotStoreTest, MissingManifestStillRecovers) {
  SnapshotStore store(dir());
  const auto sections = SampleSections();
  ASSERT_TRUE(store.Commit(sections).ok());
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, (std::vector<std::string>{"gen-0000000000001.snap"}));

  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->generation, 1u);
  ExpectSectionsEqual(sections, recovered->sections);
}

// Earlier releases also wrote a MANIFEST naming the newest generation
// (through MANIFEST.tmp). Such a directory recovers exactly as without
// them: the scan decides, whatever the MANIFEST names or holds, and
// the store never reads or writes the MANIFEST.
TEST_F(SnapshotStoreTest, LegacyManifestFilesAreIgnored) {
  SnapshotStore store(dir());
  const auto first = SampleSections();
  ASSERT_TRUE(store.Commit(first).ok());
  auto second = SampleSections();
  second[0].payload = "newer schema";
  ASSERT_TRUE(store.Commit(second).ok());
  // The MANIFEST those releases wrote: one "manifest" section holding
  // a generation number.
  const auto manifest_naming = [](const char* generation) {
    return SnapshotStore::EncodeContainer({{"manifest", generation}});
  };
  for (const std::string& bytes :
       {manifest_naming("1"), manifest_naming("9"),
        std::string("not a container at all")}) {
    WriteFile(dir_ / "MANIFEST", bytes);
    WriteFile(dir_ / "MANIFEST.tmp", "half-written pointer");
    auto recovered = store.Recover();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered->generation, 2u);
    EXPECT_EQ(recovered->skipped_generations, 0u);
    ExpectSectionsEqual(second, recovered->sections);
  }
  // A commit sweeps the tmp dropping like any other and leaves the
  // MANIFEST as it found it.
  const std::string stale = ReadFile(dir_ / "MANIFEST");
  auto committed = store.Commit(first);
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, 3u);
  EXPECT_FALSE(fs::exists(dir_ / "MANIFEST.tmp"));
  EXPECT_EQ(ReadFile(dir_ / "MANIFEST"), stale);
}

TEST_F(SnapshotStoreTest, AllGenerationsCorruptIsDataLoss) {
  SnapshotStore store(dir());
  ASSERT_TRUE(store.Commit(SampleSections()).ok());
  ASSERT_TRUE(store.Commit(SampleSections()).ok());
  for (uint64_t g : {1u, 2u}) {
    std::string bytes = ReadFile(GenPath(g));
    bytes[bytes.size() / 2] ^= 0x01;
    WriteFile(GenPath(g), bytes);
  }
  auto recovered = store.Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(recovered.status().message().find("2 snapshot generation(s)"),
            std::string::npos)
      << recovered.status().ToString();
}

TEST_F(SnapshotStoreTest, StrayTmpFilesAreIgnoredAndSwept) {
  SnapshotStore store(dir());
  ASSERT_TRUE(store.Commit(SampleSections()).ok());
  // Droppings of a crashed saver: recovery must ignore them entirely.
  WriteFile(dir_ / "gen-0000000000002.snap.tmp", "half-written garbage");
  WriteFile(dir_ / "MANIFEST.tmp", "more garbage");

  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->generation, 1u);
  EXPECT_EQ(recovered->skipped_generations, 0u);

  // The next commit sweeps them and proceeds.
  auto committed = store.Commit(SampleSections());
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, 2u);
  EXPECT_FALSE(fs::exists(dir_ / "gen-0000000000002.snap.tmp"));
  EXPECT_FALSE(fs::exists(dir_ / "MANIFEST.tmp"));
}

TEST_F(SnapshotStoreTest, CorruptGenerationIsNeverOverwritten) {
  SnapshotStore store(dir());
  ASSERT_TRUE(store.Commit(SampleSections()).ok());
  std::string bytes = ReadFile(GenPath(1));
  bytes[bytes.size() - 1] ^= 0x80;
  WriteFile(GenPath(1), bytes);
  // The next commit must allocate gen 2, not reuse the corrupt slot 1 —
  // forensics (and the fallback chain) keep the damaged file intact.
  auto committed = store.Commit(SampleSections());
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(*committed, 2u);
}

TEST_F(SnapshotStoreTest, GarbageCollectKeepsNewest) {
  SnapshotStore store(dir());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Commit(SampleSections()).ok());
  }
  ASSERT_TRUE(store.GarbageCollect(2).ok());
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{4, 5}));
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->generation, 5u);
  // keep >= current count is a no-op.
  ASSERT_TRUE(store.GarbageCollect(10).ok());
  EXPECT_EQ(store.ListGenerations().size(), 2u);
}

TEST_F(SnapshotStoreTest, GarbageCollectZeroRetainsServedGeneration) {
  SnapshotStore store(dir());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(store.Commit(SampleSections()).ok());
  }
  // Regression: GarbageCollect(0) used to delete every generation,
  // including the one Recover() serves. It must retain the newest
  // generation that verifies.
  ASSERT_TRUE(store.GarbageCollect(0).ok());
  EXPECT_EQ(store.ListGenerations(), (std::vector<uint64_t>{3}));
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->generation, 3u);
}

TEST_F(SnapshotStoreTest, GarbageCollectNeverDeletesLastGoodGeneration) {
  SnapshotStore store(dir());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Commit(SampleSections()).ok());
  }
  // Corrupt the two newest generations: a small `keep` must not retain
  // only the corrupt tail while deleting the last generation that
  // actually decodes.
  for (uint64_t g : {3u, 4u}) {
    std::string bytes = ReadFile(GenPath(g));
    bytes[bytes.size() / 2] ^= 0x01;
    WriteFile(GenPath(g), bytes);
  }
  ASSERT_TRUE(store.GarbageCollect(1).ok());
  const std::vector<uint64_t> kept = store.ListGenerations();
  EXPECT_NE(std::find(kept.begin(), kept.end(), 2u), kept.end())
      << "the newest verifying generation must survive GC";
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->generation, 2u);
}

TEST_F(SnapshotStoreTest, GarbageCollectNeverDeletesPinnedGeneration) {
  SnapshotStore store(dir());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(store.Commit(SampleSections()).ok());
  }
  // Regression: a lagging follower holds a pin on the generation it was
  // promised for snapshot catch-up; GC must not delete it out from
  // under the in-flight transfer regardless of `keep`.
  GenerationPins pins;
  pins.Pin(2);
  ASSERT_TRUE(store.GarbageCollect(1, &pins).ok());
  std::vector<uint64_t> kept = store.ListGenerations();
  EXPECT_NE(std::find(kept.begin(), kept.end(), 2u), kept.end())
      << "a pinned generation must survive GC";
  EXPECT_NE(std::find(kept.begin(), kept.end(), 5u), kept.end());
  EXPECT_EQ(std::find(kept.begin(), kept.end(), 1u), kept.end())
      << "unpinned, unreferenced generations are still collected";

  // Once the follower releases the pin, the next sweep collects it.
  pins.Unpin(2);
  ASSERT_TRUE(store.GarbageCollect(1, &pins).ok());
  kept = store.ListGenerations();
  EXPECT_EQ(std::find(kept.begin(), kept.end(), 2u), kept.end());
  EXPECT_EQ(kept, (std::vector<uint64_t>{5}));
}

TEST_F(SnapshotStoreTest, GarbageCollectNeverOrphansAWalSegment) {
  SnapshotStore store(dir());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Commit(SampleSections()).ok());
  }
  // Regression: wal-2.log means "generation 2 plus this tail is a
  // recoverable state"; deleting gen-2 while the segment lives would
  // orphan every record in it. The base-generation scan must retain it
  // even with no pin registry at all.
  WriteFile(dir_ / WalFileName(2), "placeholder");
  ASSERT_TRUE(store.GarbageCollect(1, nullptr).ok());
  std::vector<uint64_t> kept = store.ListGenerations();
  EXPECT_NE(std::find(kept.begin(), kept.end(), 2u), kept.end())
      << "a generation referenced by a live WAL segment must survive";
  EXPECT_EQ(std::find(kept.begin(), kept.end(), 1u), kept.end());

  // Retiring the segment releases the reference.
  fs::remove(dir_ / WalFileName(2));
  ASSERT_TRUE(store.GarbageCollect(1, nullptr).ok());
  kept = store.ListGenerations();
  EXPECT_EQ(kept, (std::vector<uint64_t>{4}));
}

TEST_F(SnapshotStoreTest, AdoptSnapshotVerifiesBeforeWritingAndIsIdempotent) {
  const std::string bytes =
      SnapshotStore::EncodeContainer(SampleSections());
  SnapshotStore store(dir());

  // Corrupt bytes never touch the directory.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  const Status refused = store.AdoptSnapshot(7, corrupt);
  ASSERT_FALSE(refused.ok());
  EXPECT_FALSE(fs::exists(GenPath(7)));

  ASSERT_TRUE(store.AdoptSnapshot(7, bytes).ok());
  auto recovered = store.Recover();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered->generation, 7u);
  EXPECT_EQ(ReadFile(GenPath(7)), bytes) << "adopted bytes are verbatim";

  // Idempotent: re-adopting the same generation is a no-op, and a
  // corrupted on-disk copy is replaced by the verified bytes.
  ASSERT_TRUE(store.AdoptSnapshot(7, bytes).ok());
  WriteFile(GenPath(7), corrupt);
  ASSERT_TRUE(store.AdoptSnapshot(7, bytes).ok());
  EXPECT_EQ(ReadFile(GenPath(7)), bytes);
}

TEST_F(SnapshotStoreTest, CommitRejectsBadSectionNames) {
  SnapshotStore store(dir());
  std::vector<SnapshotSection> sections(1);
  sections[0].name = "";
  auto committed = store.Commit(sections);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kInvalidArgument);
  sections[0].name = std::string(4096, 'n');
  EXPECT_FALSE(store.Commit(sections).ok());
}

// ---------------------------------------------------------- Checksums.

TEST_F(SnapshotStoreTest, Crc32cKnownAnswers) {
  // RFC 3720 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  const unsigned char zeros[32] = {0};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8a9136aau);
  unsigned char ones[32];
  for (auto& b : ones) b = 0xff;
  EXPECT_EQ(Crc32c(ones, sizeof(ones)), 0x62a8ab43u);
  unsigned char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(Crc32c(ascending, sizeof(ascending)), 0x46dd794eu);
  EXPECT_EQ(Crc32c(std::string_view("123456789")), 0xe3069283u);
}

TEST_F(SnapshotStoreTest, Crc32cExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32c(data.data(), split);
    crc = Crc32cExtend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, Crc32c(data.data(), data.size())) << "split " << split;
  }
}

TEST_F(SnapshotStoreTest, CrcMaskRoundTrips) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xa282ead8u}) {
    EXPECT_EQ(UnmaskCrc(MaskCrc(crc)), crc);
    // Masking must move the value (that is its whole point: a CRC
    // stored alongside the data it covers must not equal it).
    EXPECT_NE(MaskCrc(crc), crc);
  }
}

}  // namespace
}  // namespace opinedb::storage
