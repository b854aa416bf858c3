// Round-trip tests for the schema / summaries serializers: a save →
// load cycle must be bit-exact (doubles compared with EXPECT_EQ or as
// raw bytes, no tolerance), and corrupt or truncated payloads must produce
// clean Status errors — never exceptions, crashes, or huge allocations.
#include <array>
#include <cstring>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/serialize.h"
#include "oracle/row_oracle.h"

namespace opinedb::core {
namespace {

SubjectiveSchema MakeSchema() {
  SubjectiveSchema schema;
  schema.objective_table = "hotels";
  schema.key_column = "hotel_name";

  SubjectiveAttribute cleanliness;
  cleanliness.name = "room_cleanliness";
  cleanliness.summary_type.name = "room_cleanliness";
  cleanliness.summary_type.kind = SummaryKind::kLinearlyOrdered;
  cleanliness.summary_type.markers = {"spotless", "clean, mostly",
                                      "dirty"};
  cleanliness.linguistic_domain = {"sparkling clean", "bit dusty"};
  cleanliness.seeds.aspect_terms = {"room", "bathroom"};
  cleanliness.seeds.opinion_terms = {"clean", "dirty", "spotless"};
  schema.attributes.push_back(cleanliness);

  SubjectiveAttribute style;
  style.name = "bathroom_style";
  style.summary_type.name = "bathroom_style";
  style.summary_type.kind = SummaryKind::kCategorical;
  style.summary_type.markers = {"modern", "rustic"};
  // Empty linguistic domain and seeds: the minimal attribute.
  schema.attributes.push_back(style);
  return schema;
}

constexpr size_t kEntities = 3;
constexpr size_t kDim = 4;

ColumnarSummaryStore MakeSummaries(const SubjectiveSchema& schema) {
  ColumnarSummaryStore store(schema, kEntities, kDim);
  // Awkward doubles (1/3, pi-ish) so bit-exactness is actually tested.
  double v = 1.0 / 3.0;
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    AttributeColumns& cols = store.mutable_attribute(a);
    for (size_t e = 0; e < kEntities; ++e) {
      for (size_t m = 0; m < cols.num_markers; ++m) {
        const size_t cell = e * cols.num_markers + m;
        cols.count[cell] = v * 7.0;
        cols.mean_sentiment[cell] = v - 0.5;
        for (size_t d = 0; d < kDim; ++d) {
          cols.centroid[cell * kDim + d] =
              static_cast<float>(v * (d + 1) - 0.6);
        }
        for (size_t r = 0; r < m + 1; ++r) {
          cols.provenance.push_back(ProvenanceEntry{
              static_cast<uint32_t>(e), static_cast<uint32_t>(m),
              static_cast<text::ReviewId>(e * 10 + r)});
        }
        v = v * 3.9 * (1.0 - v);  // Logistic map: irregular doubles.
      }
      cols.unmatched[e] = v * 5.0;
    }
  }
  store.Refresh(nullptr);
  return store;
}

/// Byte-for-byte equality of two stores: every column (the saved ones
/// and the recomputed total / centroid_norm) and every provenance log.
void ExpectSameStore(const ColumnarSummaryStore& want,
                     const ColumnarSummaryStore& got) {
  EXPECT_TRUE(oracle::StoreImage(got) == oracle::StoreImage(want));
}

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// A version-3 header: the attribute and entity counts, then (K, dim,
/// provenance entries) per attribute — no column bytes follow.
std::string SummariesHeader(uint64_t attributes, uint64_t entities,
                            const std::vector<std::array<uint64_t, 3>>&
                                shapes) {
  std::string out = "opinedb-summaries 3\n";
  AppendU64(attributes, &out);
  AppendU64(entities, &out);
  for (const auto& shape : shapes) {
    for (const uint64_t field : shape) AppendU64(field, &out);
  }
  return out;
}

/// Overwrites the little-endian u32 at `offset` of `bytes`.
void PatchU32(size_t offset, uint32_t v, std::string* bytes) {
  for (int i = 0; i < 4; ++i) {
    (*bytes)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

// ------------------------------------------------------ Schema cycle.

TEST(SerializeRoundtripTest, SchemaRoundTripsExactly) {
  const SubjectiveSchema schema = MakeSchema();
  std::stringstream stream;
  ASSERT_TRUE(SaveSchema(schema, &stream).ok());
  auto loaded = LoadSchema(&stream);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->objective_table, schema.objective_table);
  EXPECT_EQ(loaded->key_column, schema.key_column);
  ASSERT_EQ(loaded->attributes.size(), schema.attributes.size());
  for (size_t a = 0; a < schema.attributes.size(); ++a) {
    const auto& want = schema.attributes[a];
    const auto& got = loaded->attributes[a];
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.summary_type.kind, want.summary_type.kind);
    EXPECT_EQ(got.summary_type.markers, want.summary_type.markers);
    EXPECT_EQ(got.linguistic_domain, want.linguistic_domain);
    EXPECT_EQ(got.seeds.aspect_terms, want.seeds.aspect_terms);
    EXPECT_EQ(got.seeds.opinion_terms, want.seeds.opinion_terms);
  }
}

TEST(SerializeRoundtripTest, SchemaSecondCycleIsByteIdentical) {
  const SubjectiveSchema schema = MakeSchema();
  std::stringstream first;
  ASSERT_TRUE(SaveSchema(schema, &first).ok());
  auto loaded = LoadSchema(&first);
  ASSERT_TRUE(loaded.ok());
  std::stringstream second;
  ASSERT_TRUE(SaveSchema(*loaded, &second).ok());
  EXPECT_EQ(first.str(), second.str());
}

// --------------------------------------------------- Summaries cycle.

TEST(SerializeRoundtripTest, SummariesRoundTripBitExactly) {
  const SubjectiveSchema schema = MakeSchema();
  const ColumnarSummaryStore store = MakeSummaries(schema);
  auto loaded = DecodeSummaries(schema, EncodeSummaries(store));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStore(store, *loaded);
}

TEST(SerializeRoundtripTest, SummariesSecondCycleIsByteIdentical) {
  const SubjectiveSchema schema = MakeSchema();
  const std::string first = EncodeSummaries(MakeSummaries(schema));
  auto loaded = DecodeSummaries(schema, first);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(EncodeSummaries(*loaded), first);
}

TEST(SerializeRoundtripTest, ZeroMarkerAttributeRoundTrips) {
  SubjectiveSchema schema = MakeSchema();
  schema.attributes[1].summary_type.markers.clear();
  const ColumnarSummaryStore store = MakeSummaries(schema);
  ASSERT_EQ(store.attribute(1).num_markers, 0u);
  const std::string bytes = EncodeSummaries(store);
  auto loaded = DecodeSummaries(schema, bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSameStore(store, *loaded);
  EXPECT_EQ(EncodeSummaries(*loaded), bytes);
}

// ------------------------------------------- Corruption / truncation.

TEST(SerializeRoundtripTest, TruncatedSchemaStreamsErrCleanly) {
  const SubjectiveSchema schema = MakeSchema();
  std::stringstream stream;
  ASSERT_TRUE(SaveSchema(schema, &stream).ok());
  const std::string full = stream.str();
  // Every data-cutting prefix must load cleanly as an error, never crash
  // or throw. (full.size() - 1 only drops the trailing newline, which
  // the loader legitimately tolerates, so the loop stops before it.)
  for (size_t length = 0; length + 1 < full.size(); ++length) {
    std::stringstream truncated(full.substr(0, length));
    EXPECT_NO_THROW({
      auto loaded = LoadSchema(&truncated);
      EXPECT_FALSE(loaded.ok()) << "prefix length " << length;
    });
  }
}

TEST(SerializeRoundtripTest, TruncatedSummariesStreamsErrCleanly) {
  const SubjectiveSchema schema = MakeSchema();
  const std::string full = EncodeSummaries(MakeSummaries(schema));
  // The header fixes the exact length, so every proper prefix is refused.
  for (size_t length = 0; length < full.size(); ++length) {
    EXPECT_NO_THROW({
      auto loaded = DecodeSummaries(schema, full.substr(0, length));
      ASSERT_FALSE(loaded.ok()) << "prefix length " << length;
      EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
          << "prefix length " << length;
    });
  }
}

TEST(SerializeRoundtripTest, TrailingSummariesBytesAreParseError) {
  const SubjectiveSchema schema = MakeSchema();
  const std::string full = EncodeSummaries(MakeSummaries(schema));
  for (const std::string& tail : {std::string(1, '\0'), std::string("x"),
                                 std::string(12, '\0')}) {
    auto loaded = DecodeSummaries(schema, full + tail);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

TEST(SerializeRoundtripTest, NonFiniteSummaryValueIsParseError) {
  const SubjectiveSchema schema = MakeSchema();
  const std::string full = EncodeSummaries(MakeSummaries(schema));
  // The first column byte follows the version line and the header.
  const size_t first_count = SummariesHeader(2, 0, {{}, {}}).size();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    std::string mutated = full;
    std::memcpy(mutated.data() + first_count, &bad, sizeof(bad));
    auto loaded = DecodeSummaries(schema, mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status().ToString();
  }
}

TEST(SerializeRoundtripTest, ProvenanceOutOfRangeIsParseError) {
  const SubjectiveSchema schema = MakeSchema();
  const std::string full = EncodeSummaries(MakeSummaries(schema));
  // The payload ends with the last attribute's last provenance entry:
  // u32 entity, u32 marker, i32 review.
  const size_t entity_at = full.size() - 12;
  const size_t marker_at = full.size() - 8;
  const size_t markers = schema.attributes[1].summary_type.num_markers();
  for (const auto& [offset, value] :
       {std::pair<size_t, uint32_t>{entity_at, kEntities},
        std::pair<size_t, uint32_t>{entity_at, 0xffffffffu},
        std::pair<size_t, uint32_t>{marker_at,
                                    static_cast<uint32_t>(markers)}}) {
    std::string mutated = full;
    PatchU32(offset, value, &mutated);
    auto loaded = DecodeSummaries(schema, mutated);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << loaded.status().ToString();
  }
  // Review ids are not checked against any corpus.
  std::string foreign = full;
  PatchU32(full.size() - 4, 123456789u, &foreign);
  EXPECT_TRUE(DecodeSummaries(schema, foreign).ok());
}

TEST(SerializeRoundtripTest, WrongMagicIsParseError) {
  std::stringstream schema_stream("definitely-not-a-schema 1\n");
  auto schema = LoadSchema(&schema_stream);
  ASSERT_FALSE(schema.ok());
  EXPECT_EQ(schema.status().code(), StatusCode::kParseError);

  auto summaries = DecodeSummaries(MakeSchema(), "garbage 1\n0 0\n");
  ASSERT_FALSE(summaries.ok());
  EXPECT_EQ(summaries.status().code(), StatusCode::kParseError);
}

TEST(SerializeRoundtripTest, UnknownVersionIsNotSupported) {
  std::stringstream stream("opinedb-schema 99\n");
  auto loaded = LoadSchema(&stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotSupported);

  // A future version, and a version-2 (text rows) summaries payload.
  for (const std::string& payload :
       {std::string("opinedb-summaries 99\n"),
        std::string("opinedb-summaries 2\n2 1\n0 3 0.5 0\n1 0 0\nend\n")}) {
    auto summaries = DecodeSummaries(MakeSchema(), payload);
    ASSERT_FALSE(summaries.ok());
    EXPECT_EQ(summaries.status().code(), StatusCode::kNotSupported)
        << summaries.status().ToString();
  }
}

TEST(SerializeRoundtripTest, ImplausibleStringLengthIsParseError) {
  // A corrupt netstring header must not attempt a petabyte allocation.
  std::stringstream stream("opinedb-schema 1\n99999999999999:x");
  auto loaded = LoadSchema(&stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(SerializeRoundtripTest, ImplausibleDimensionIsParseError) {
  const SubjectiveSchema schema = MakeSchema();
  // Schema-shaped header (2 attributes, 1 entity) claiming a ludicrous
  // centroid width: the implied length can never match the payload.
  for (const uint64_t dim : {uint64_t{999999999999}, ~uint64_t{0}}) {
    auto loaded = DecodeSummaries(
        schema, SummariesHeader(2, 1, {{3, dim, 0}, {2, dim, 0}}));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

TEST(SerializeRoundtripTest, ImplausibleProvenanceCountIsParseError) {
  const SubjectiveSchema schema = MakeSchema();
  // A provenance log that would take gigabytes.
  auto loaded = DecodeSummaries(
      schema, SummariesHeader(2, 1, {{3, 1, 99999999999}, {2, 1, 0}}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
}

TEST(SerializeRoundtripTest, AttributeCountMismatchIsInvalidArgument) {
  const SubjectiveSchema schema = MakeSchema();  // 2 attributes.
  auto loaded = DecodeSummaries(schema, SummariesHeader(5, 1, {}));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeRoundtripTest, DimensionMismatchIsInvalidArgument) {
  // Attributes whose centroids disagree on width cannot form one store,
  // and a marker count other than the schema's cannot bind to it.
  SubjectiveSchema schema = MakeSchema();
  auto wide = DecodeSummaries(
      schema, SummariesHeader(2, 1, {{3, 4, 0}, {2, 5, 0}}) +
                  std::string(3 * 16 + 3 * 4 * 4 + 8 + 2 * 16 + 2 * 5 * 4 + 8,
                              '\0'));
  ASSERT_FALSE(wide.ok());
  EXPECT_EQ(wide.status().code(), StatusCode::kInvalidArgument)
      << wide.status().ToString();
  schema.attributes[0].summary_type.markers.pop_back();
  auto narrow =
      DecodeSummaries(schema, EncodeSummaries(MakeSummaries(MakeSchema())));
  ASSERT_FALSE(narrow.ok());
  EXPECT_EQ(narrow.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeRoundtripTest, ImplausibleEntityCountIsParseError) {
  const SubjectiveSchema schema = MakeSchema();
  // A corrupt entity count must be rejected before it turns into a
  // giant allocation.
  for (const uint64_t entities : {uint64_t{99999999999}, ~uint64_t{0}}) {
    auto loaded = DecodeSummaries(
        schema, SummariesHeader(2, entities, {{3, 4, 0}, {2, 4, 0}}));
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
  }
}

// ------------------------------------------------ Duplicate-key rows.

TEST(SerializeRoundtripTest, DuplicateAttributeNameIsInvalidArgument) {
  SubjectiveSchema schema = MakeSchema();
  schema.attributes[1].name = schema.attributes[0].name;
  schema.attributes[1].summary_type.name = schema.attributes[0].name;
  std::stringstream stream;
  // The saver is a dumb encoder; the loader is the gatekeeper.
  ASSERT_TRUE(SaveSchema(schema, &stream).ok());
  auto loaded = LoadSchema(&stream);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  // The error must name the offending key.
  EXPECT_NE(loaded.status().message().find("room_cleanliness"),
            std::string::npos)
      << loaded.status().ToString();
}

// --------------------------------------- Byte / bit flip fuzzing.
//
// Beyond truncation: flip one byte (or one bit) at a random offset of a
// valid stream. Every mutation must either load as a clean Status error
// or load successfully into a value that re-serializes stably — never
// crash, throw, or hang. A flip can land in serialized whitespace or a
// numeral and still parse; "stable" means save(load(mutated)) is a
// fixed point of a further load/save cycle.

template <typename LoadFn, typename SaveFn>
void FuzzFlips(const std::string& golden, uint32_t seed, bool bit_level,
               const LoadFn& load, const SaveFn& save) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<size_t> pick_offset(0, golden.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  std::uniform_int_distribution<int> pick_byte(1, 255);
  constexpr int kTrials = 2000;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::string mutated = golden;
    const size_t offset = pick_offset(rng);
    if (bit_level) {
      mutated[offset] = static_cast<char>(
          static_cast<unsigned char>(mutated[offset]) ^ (1u << pick_bit(rng)));
    } else {
      mutated[offset] = static_cast<char>(
          static_cast<unsigned char>(mutated[offset]) ^ pick_byte(rng));
    }
    ASSERT_NO_THROW({
      auto loaded = load(mutated);
      if (loaded.ok()) {
        const std::string once = save(*loaded);
        auto reloaded = load(once);
        ASSERT_TRUE(reloaded.ok())
            << "reload of accepted mutation failed at offset " << offset
            << ": " << reloaded.status().ToString();
        EXPECT_EQ(save(*reloaded), once)
            << "unstable round trip for mutation at offset " << offset;
      }
    }) << "mutation at offset " << offset << " (trial " << trial << ")";
  }
}

TEST(SerializeRoundtripTest, SchemaSurvivesRandomByteFlips) {
  std::stringstream stream;
  ASSERT_TRUE(SaveSchema(MakeSchema(), &stream).ok());
  const auto load = [](const std::string& bytes) {
    std::stringstream in(bytes);
    return LoadSchema(&in);
  };
  const auto save = [](const SubjectiveSchema& schema) {
    std::stringstream out;
    EXPECT_TRUE(SaveSchema(schema, &out).ok());
    return out.str();
  };
  FuzzFlips(stream.str(), /*seed=*/0x5eed0001, /*bit_level=*/false, load,
            save);
}

TEST(SerializeRoundtripTest, SchemaSurvivesRandomBitFlips) {
  std::stringstream stream;
  ASSERT_TRUE(SaveSchema(MakeSchema(), &stream).ok());
  const auto load = [](const std::string& bytes) {
    std::stringstream in(bytes);
    return LoadSchema(&in);
  };
  const auto save = [](const SubjectiveSchema& schema) {
    std::stringstream out;
    EXPECT_TRUE(SaveSchema(schema, &out).ok());
    return out.str();
  };
  FuzzFlips(stream.str(), /*seed=*/0x5eed0002, /*bit_level=*/true, load,
            save);
}

TEST(SerializeRoundtripTest, SummariesSurviveRandomByteFlips) {
  const SubjectiveSchema schema = MakeSchema();
  const auto load = [&schema](const std::string& bytes) {
    return DecodeSummaries(schema, bytes);
  };
  const auto save = [](const ColumnarSummaryStore& store) {
    return EncodeSummaries(store);
  };
  FuzzFlips(EncodeSummaries(MakeSummaries(schema)), /*seed=*/0x5eed0003,
            /*bit_level=*/false, load, save);
}

TEST(SerializeRoundtripTest, SummariesSurviveRandomBitFlips) {
  const SubjectiveSchema schema = MakeSchema();
  const auto load = [&schema](const std::string& bytes) {
    return DecodeSummaries(schema, bytes);
  };
  const auto save = [](const ColumnarSummaryStore& store) {
    return EncodeSummaries(store);
  };
  FuzzFlips(EncodeSummaries(MakeSummaries(schema)), /*seed=*/0x5eed0004,
            /*bit_level=*/true, load, save);
}

}  // namespace
}  // namespace opinedb::core
