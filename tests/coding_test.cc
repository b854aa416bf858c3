// Boundaries of the byte codec (src/storage/coding.{h,cc}) that no
// format test reaches: the strict decimal parser behind file names and
// replication headers, the netstring length cap, and the review-batch
// count bound (core/serialize.h). The bytes themselves are pinned by
// golden_bytes_test.cc; the integer and file helpers run under every
// snapshot and WAL test.
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "storage/coding.h"

namespace opinedb::storage {
namespace {

TEST(CodingTest, DecimalParseIsStrictAndExact) {
  uint64_t value = 0;
  ASSERT_TRUE(ParseDecimalU64("0", &value));
  EXPECT_EQ(value, 0u);
  ASSERT_TRUE(ParseDecimalU64("0000000000042", &value));
  EXPECT_EQ(value, 42u);
  ASSERT_TRUE(ParseDecimalU64("18446744073709551615", &value));
  EXPECT_EQ(value, UINT64_MAX);
  value = 7;
  for (const char* text : {"", "18446744073709551616", "99999999999999999999",
                           "-1", "+1", " 1", "1 ", "1a", "0x1", "1.0"}) {
    EXPECT_FALSE(ParseDecimalU64(text, &value)) << '"' << text << '"';
  }
  EXPECT_EQ(value, 7u) << "a refused parse leaves the output alone";
}

TEST(CodingTest, NetstringsRoundTripAndRefuseBadHeaders) {
  std::ostringstream out;
  WriteNetstring("two words\nand a line", &out);
  out << ' ';
  WriteNetstring("", &out);
  std::istringstream in(out.str());
  auto first = ReadNetstring(&in, 64);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, "two words\nand a line");
  auto second = ReadNetstring(&in, 64);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, "");

  for (const char* bad : {"5:abc", "x:abc", "3abc", "9:abcdefghi"}) {
    std::istringstream stream(bad);
    auto read = ReadNetstring(&stream, 8);
    ASSERT_FALSE(read.ok()) << bad;
    EXPECT_EQ(read.status().code(), StatusCode::kParseError) << bad;
  }
}

TEST(CodingTest, ReviewBatchRoundTripsAndBoundsItsCount) {
  std::vector<text::Review> batch(2);
  batch[0].entity = 3;
  batch[0].reviewer = 9;
  batch[0].date = 20260801;
  batch[0].body = "clean room";
  batch[1].entity = 0;
  batch[1].body = "";
  const std::string payload = core::EncodeReviewBatch(batch);
  auto decoded = core::DecodeReviewBatch(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(core::EncodeReviewBatch(*decoded), payload);

  // 4 + 20 * count bytes is the least a batch of `count` reviews needs:
  // one more review than that is refused before anything is allocated.
  std::string empty_bodies;
  AppendU32(2, &empty_bodies);
  empty_bodies.append(40, '\0');
  EXPECT_TRUE(core::DecodeReviewBatch(empty_bodies).ok());
  for (const uint32_t count : {3u, 0xffffffffu}) {
    std::string claims;
    AppendU32(count, &claims);
    claims.append(40, '\0');
    auto refused = core::DecodeReviewBatch(claims);
    ASSERT_FALSE(refused.ok()) << count;
    EXPECT_EQ(refused.status().code(), StatusCode::kParseError) << count;
  }
  for (const std::string& bad :
       {std::string("\x01\x00\x00", 3), payload + "x",
        payload.substr(0, payload.size() - 1)}) {
    auto refused = core::DecodeReviewBatch(bad);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kParseError);
  }
}

}  // namespace
}  // namespace opinedb::storage
