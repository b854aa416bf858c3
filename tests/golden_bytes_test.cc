// Golden byte images of the persisted and shipped formats, encoded from
// tiny hand-built inputs: the snapshot and WAL file names, a WAL segment
// header with one record frame, a two-section snapshot container, a
// version-3 summaries image, and the schema netstring text. Every other
// persistence test is a round trip, which a symmetric change to encoder
// and decoder would still pass; these literals fail on any byte that
// moves. The record payload AppendReviews
// journals is pinned the same way in ingest_test.cc
// (IngestTest.JournaledBatchBytesArePinned).
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/columnar.h"
#include "core/schema.h"
#include "core/serialize.h"
#include "storage/snapshot_store.h"
#include "storage/wal.h"

namespace opinedb {
namespace {

namespace fs = std::filesystem;

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

/// One attribute with two markers, so the summaries image holds one
/// entity's two cells.
core::SubjectiveSchema TinySchema() {
  core::SubjectiveSchema schema;
  schema.objective_table = "hotels";
  schema.key_column = "hotel name";
  core::SubjectiveAttribute attribute;
  attribute.name = "room_cleanliness";
  attribute.summary_type.name = attribute.name;
  attribute.summary_type.kind = core::SummaryKind::kLinearlyOrdered;
  attribute.summary_type.markers = {"spotless", "a bit dirty"};
  attribute.linguistic_domain = {"very clean"};
  attribute.seeds.aspect_terms = {"room"};
  attribute.seeds.opinion_terms = {"clean"};
  schema.attributes.push_back(attribute);
  return schema;
}

TEST(GoldenBytesTest, FileNames) {
  EXPECT_EQ(storage::WalFileName(5), "wal-0000000000005.log");
  EXPECT_EQ(storage::WalFileName(UINT64_MAX), "wal-18446744073709551615.log");
  EXPECT_EQ(storage::SnapshotStore::GenerationFileName(5),
            "gen-0000000000005.snap");
  EXPECT_EQ(storage::SnapshotStore::GenerationFileName(UINT64_MAX),
            "gen-18446744073709551615.snap");
}

TEST(GoldenBytesTest, WalHeaderAndOneRecordFrame) {
  const fs::path dir = fs::path(::testing::TempDir()) / "golden_bytes_wal";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  const std::string path = (dir / storage::WalFileName(3)).string();
  {
    auto writer = storage::WalWriter::Open(path, 3);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append("abc").ok());
  }
  std::ifstream in(path, std::ios::binary);
  const std::string segment((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  fs::remove_all(dir, ec);

  const std::string header =
      "4f50444257414c31"   // "OPDBWAL1"
      "0300000000000000"   // u64 base generation 3
      "1039fb33";          // masked CRC32C of the 16 bytes above
  const std::string frame =
      "03000000"           // u32 payload length
      "6e57f121"           // masked CRC32C of the payload
      "616263";            // "abc"
  EXPECT_EQ(Hex(segment), header + frame);
  std::string encoded;
  storage::AppendWalRecordFrame("abc", &encoded);
  EXPECT_EQ(Hex(encoded), frame);
}

TEST(GoldenBytesTest, TwoSectionContainer) {
  const std::string container = storage::SnapshotStore::EncodeContainer(
      {{"ab", "xyz"}, {"c", ""}});
  EXPECT_EQ(Hex(container),
            "4f504442534e5031"  // "OPDBSNP1"
            "01000000"          // u32 format version
            "a6ab7278"          // masked header CRC
            "02000000" "6162" "0300000000000000" "78797a" "4a99686d"
            "01000000" "63" "0000000000000000" "ae2c110a"
            "ffffffff"          // footer sentinel
            "02000000"          // u32 section count
            "bd7ec472");        // masked whole-file CRC
}

TEST(GoldenBytesTest, OneEntityTwoMarkerSummaries) {
  const core::SubjectiveSchema schema = TinySchema();
  core::ColumnarSummaryStore store(schema, /*num_entities=*/1, /*dim=*/2);
  core::AttributeColumns& cols = store.mutable_attribute(0);
  cols.count[0] = 1.0;
  cols.count[1] = 2.5;
  cols.mean_sentiment[0] = 0.75;
  cols.mean_sentiment[1] = -0.5;
  cols.centroid[0] = 0.5f;
  cols.centroid[1] = -1.0f;
  cols.centroid[2] = 0.25f;
  cols.centroid[3] = 2.0f;
  cols.unmatched[0] = 3.0;
  cols.provenance.push_back(core::ProvenanceEntry{0, 1, 7});
  store.Refresh(nullptr);
  EXPECT_EQ(Hex(core::EncodeSummaries(store)),
            "6f70696e6564622d73756d6d617269657320330a"  // "...summaries 3\n"
            "0100000000000000"  // u64 attributes
            "0100000000000000"  // u64 entities
            "0200000000000000"  // u64 markers of attribute 0
            "0200000000000000"  // u64 centroid width
            "0100000000000000"  // u64 provenance entries
            "000000000000f03f" "0000000000000440"  // f64 count
            "000000000000e83f" "000000000000e0bf"  // f64 mean_sentiment
            "0000003f" "000080bf" "0000803e" "00000040"  // f32 centroid
            "0000000000000840"                     // f64 unmatched
            "00000000" "01000000" "07000000");     // entity, marker, review
}

TEST(GoldenBytesTest, SchemaNetstrings) {
  std::ostringstream out;
  ASSERT_TRUE(core::SaveSchema(TinySchema(), &out).ok());
  EXPECT_EQ(out.str(),
            "opinedb-schema 1\n"
            "6:hotels 10:hotel name\n"
            "1\n"
            "16:room_cleanliness L 2 1 1 1\n"
            "8:spotless\n11:a bit dirty\n10:very clean\n4:room\n5:clean\n");
}

}  // namespace
}  // namespace opinedb
