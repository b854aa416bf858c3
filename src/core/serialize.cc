#include "core/serialize.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <unordered_set>

#include "storage/coding.h"

namespace opinedb::core {

namespace {

constexpr char kSchemaMagic[] = "opinedb-schema";
constexpr char kSummariesMagic[] = "opinedb-summaries";
constexpr int kSchemaVersion = 1;
/// v3: little-endian column images of the ColumnarSummaryStore (v2 was
/// a text encoding of per-entity rows; it is refused as NotSupported).
constexpr int kSummariesVersion = 3;

/// Plausibility bound on a deserialized string length: a corrupt or
/// truncated schema must produce a ParseError, not a multi-gigabyte
/// allocation.
constexpr size_t kMaxStringLength = 1u << 20;  // 1 MiB per string.

/// The fixed bytes of one encoded review: u32 entity, reviewer and date,
/// then the u64 body length.
constexpr size_t kReviewFixedBytes = 4 + 4 + 4 + 8;

}  // namespace

Status SaveSchema(const SubjectiveSchema& schema, std::ostream* out) {
  *out << kSchemaMagic << ' ' << kSchemaVersion << '\n';
  storage::WriteNetstring(schema.objective_table, out);
  *out << ' ';
  storage::WriteNetstring(schema.key_column, out);
  *out << '\n' << schema.attributes.size() << '\n';
  for (const auto& attribute : schema.attributes) {
    storage::WriteNetstring(attribute.name, out);
    *out << ' '
         << (attribute.summary_type.kind == SummaryKind::kLinearlyOrdered
                 ? 'L'
                 : 'C')
         << ' ' << attribute.summary_type.markers.size() << ' '
         << attribute.linguistic_domain.size() << ' '
         << attribute.seeds.aspect_terms.size() << ' '
         << attribute.seeds.opinion_terms.size() << '\n';
    for (const auto& marker : attribute.summary_type.markers) {
      storage::WriteNetstring(marker, out);
      *out << '\n';
    }
    for (const auto& phrase : attribute.linguistic_domain) {
      storage::WriteNetstring(phrase, out);
      *out << '\n';
    }
    for (const auto& seed : attribute.seeds.aspect_terms) {
      storage::WriteNetstring(seed, out);
      *out << '\n';
    }
    for (const auto& seed : attribute.seeds.opinion_terms) {
      storage::WriteNetstring(seed, out);
      *out << '\n';
    }
  }
  if (!out->good()) return Status::Internal("write failed");
  return Status::OK();
}

Result<SubjectiveSchema> LoadSchema(std::istream* in) {
  std::string magic;
  int version = 0;
  if (!(*in >> magic >> version) || magic != kSchemaMagic) {
    return Status::ParseError("not an opinedb schema file");
  }
  if (version != kSchemaVersion) {
    return Status::NotSupported("schema version " +
                                std::to_string(version));
  }
  SubjectiveSchema schema;
  auto table = storage::ReadNetstring(in, kMaxStringLength);
  if (!table.ok()) return table.status();
  schema.objective_table = *table;
  in->get();  // Separator.
  auto key = storage::ReadNetstring(in, kMaxStringLength);
  if (!key.ok()) return key.status();
  schema.key_column = *key;
  size_t num_attributes = 0;
  if (!(*in >> num_attributes)) {
    return Status::ParseError("bad attribute count");
  }
  std::unordered_set<std::string> seen_names;
  for (size_t a = 0; a < num_attributes; ++a) {
    SubjectiveAttribute attribute;
    auto name = storage::ReadNetstring(in, kMaxStringLength);
    if (!name.ok()) return name.status();
    // Attribute names are the schema's keys (AttributeIndex resolves by
    // name); a duplicate would make every later lookup silently bind to
    // the first occurrence and shadow the second.
    if (!seen_names.insert(*name).second) {
      return Status::InvalidArgument("duplicate attribute \"" + *name +
                                     "\" in schema");
    }
    attribute.name = *name;
    attribute.summary_type.name = *name;
    char kind = 0;
    size_t markers = 0, domain = 0, aspects = 0, opinions = 0;
    if (!(*in >> kind >> markers >> domain >> aspects >> opinions)) {
      return Status::ParseError("bad attribute header: " + attribute.name);
    }
    attribute.summary_type.kind = kind == 'L'
                                      ? SummaryKind::kLinearlyOrdered
                                      : SummaryKind::kCategorical;
    auto read_many = [in](size_t n,
                          std::vector<std::string>* out) -> Status {
      for (size_t i = 0; i < n; ++i) {
        auto s = storage::ReadNetstring(in, kMaxStringLength);
        if (!s.ok()) return s.status();
        out->push_back(*s);
      }
      return Status::OK();
    };
    Status status = read_many(markers, &attribute.summary_type.markers);
    if (!status.ok()) return status;
    status = read_many(domain, &attribute.linguistic_domain);
    if (!status.ok()) return status;
    status = read_many(aspects, &attribute.seeds.aspect_terms);
    if (!status.ok()) return status;
    status = read_many(opinions, &attribute.seeds.opinion_terms);
    if (!status.ok()) return status;
    schema.attributes.push_back(std::move(attribute));
  }
  return schema;
}

namespace {

/// Column images are little-endian, the byte order of every supported
/// host, so each array is written and read with one copy.
static_assert(std::endian::native == std::endian::little,
              "the summaries codec assumes a little-endian host");

/// An empty column has no buffer (data() is null), so n == 0 copies
/// nothing rather than hand memcpy a null pointer.
template <typename T>
void AppendArray(const T* data, size_t n, std::string* out) {
  if (n > 0) out->append(reinterpret_cast<const char*>(data), n * sizeof(T));
}

template <typename T>
void ReadArray(const std::string& in, size_t* pos, T* data, size_t n) {
  if (n > 0) std::memcpy(data, in.data() + *pos, n * sizeof(T));
  *pos += n * sizeof(T);
}

/// One provenance log entry on disk: u32 entity, u32 marker, i32 review.
constexpr uint64_t kProvenanceEntryBytes = 12;

/// acc += a * b, false on u64 overflow.
bool AddProduct(uint64_t a, uint64_t b, uint64_t* acc) {
  uint64_t product = 0;
  return !__builtin_mul_overflow(a, b, &product) &&
         !__builtin_add_overflow(*acc, product, acc);
}

template <typename T>
bool AllFinite(const T* data, size_t n) {
  bool finite = true;
  for (size_t i = 0; i < n; ++i) finite &= std::isfinite(data[i]);
  return finite;
}

}  // namespace

std::string EncodeSummaries(const ColumnarSummaryStore& store) {
  std::string out = kSummariesMagic;
  out += ' ' + std::to_string(kSummariesVersion) + '\n';
  storage::AppendU64(store.num_attributes(), &out);
  storage::AppendU64(store.num_entities(), &out);
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    const AttributeColumns& cols = store.attribute(a);
    storage::AppendU64(cols.num_markers, &out);
    storage::AppendU64(cols.dim, &out);
    storage::AppendU64(cols.provenance.size(), &out);
  }
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    const AttributeColumns& cols = store.attribute(a);
    const size_t cells = cols.num_entities * cols.num_markers;
    AppendArray(cols.count.data(), cells, &out);
    AppendArray(cols.mean_sentiment.data(), cells, &out);
    AppendArray(cols.centroid.data(), cells * cols.dim, &out);
    AppendArray(cols.unmatched.data(), cols.num_entities, &out);
    for (const ProvenanceEntry& entry : cols.provenance) {
      const uint32_t review = static_cast<uint32_t>(entry.review);
      AppendArray(&entry.entity, 1, &out);
      AppendArray(&entry.marker, 1, &out);
      AppendArray(&review, 1, &out);
    }
  }
  return out;
}

Result<ColumnarSummaryStore> DecodeSummaries(const SubjectiveSchema& schema,
                                             const std::string& payload) {
  const std::string magic = std::string(kSummariesMagic) + ' ';
  if (payload.compare(0, magic.size(), magic) != 0) {
    return Status::ParseError("not an opinedb summaries payload");
  }
  const size_t eol = payload.find('\n', magic.size());
  uint64_t version = 0;
  if (eol == std::string::npos ||
      !storage::ParseDecimalU64(
          std::string_view(payload).substr(magic.size(), eol - magic.size()),
          &version)) {
    return Status::ParseError("bad summaries version line");
  }
  size_t pos = eol + 1;
  if (version != static_cast<uint64_t>(kSummariesVersion)) {
    return Status::NotSupported("summaries version " +
                                std::to_string(version));
  }

  uint64_t num_attributes = 0;
  uint64_t num_entities = 0;
  if (!storage::ReadU64(payload, &pos, &num_attributes) ||
      !storage::ReadU64(payload, &pos, &num_entities)) {
    return Status::ParseError("truncated summaries header");
  }
  if (num_attributes != schema.num_attributes()) {
    return Status::InvalidArgument(
        "schema has " + std::to_string(schema.num_attributes()) +
        " attributes, summaries have " + std::to_string(num_attributes));
  }
  struct Shape {
    uint64_t markers = 0;
    uint64_t dim = 0;
    uint64_t provenance = 0;
  };
  std::vector<Shape> shapes(num_attributes);
  for (Shape& shape : shapes) {
    if (!storage::ReadU64(payload, &pos, &shape.markers) ||
        !storage::ReadU64(payload, &pos, &shape.dim) ||
        !storage::ReadU64(payload, &pos, &shape.provenance)) {
      return Status::ParseError("truncated summaries header");
    }
  }
  // The exact payload length the header implies, before any allocation:
  // a corrupt count cannot turn into a giant buffer.
  uint64_t expected = pos;
  for (const Shape& shape : shapes) {
    uint64_t cells = 0;
    uint64_t floats = 0;
    if (!AddProduct(num_entities, shape.markers, &cells) ||
        !AddProduct(cells, shape.dim, &floats) ||
        !AddProduct(cells, 2 * sizeof(double), &expected) ||
        !AddProduct(floats, sizeof(float), &expected) ||
        !AddProduct(num_entities, sizeof(double), &expected) ||
        !AddProduct(shape.provenance, kProvenanceEntryBytes, &expected)) {
      return Status::ParseError("implausible summaries header");
    }
  }
  if (expected != payload.size()) {
    return Status::ParseError("summaries payload is " +
                              std::to_string(payload.size()) +
                              " bytes, its header implies " +
                              std::to_string(expected));
  }
  for (size_t a = 0; a < shapes.size(); ++a) {
    const std::string& name = schema.attributes[a].name;
    if (shapes[a].markers != schema.attributes[a].summary_type.num_markers()) {
      return Status::InvalidArgument("marker count mismatch in " + name);
    }
    if (shapes[a].dim != shapes[0].dim) {
      return Status::InvalidArgument(
          "summaries of " + name + " have " + std::to_string(shapes[a].dim) +
          "-wide centroids, " + schema.attributes[0].name + " has " +
          std::to_string(shapes[0].dim));
    }
  }

  ColumnarSummaryStore store(schema, num_entities,
                             shapes.empty() ? 0 : shapes[0].dim);
  for (size_t a = 0; a < shapes.size(); ++a) {
    const std::string& name = schema.attributes[a].name;
    AttributeColumns& cols = store.mutable_attribute(a);
    const size_t cells = cols.num_entities * cols.num_markers;
    ReadArray(payload, &pos, cols.count.data(), cells);
    ReadArray(payload, &pos, cols.mean_sentiment.data(), cells);
    ReadArray(payload, &pos, cols.centroid.data(), cells * cols.dim);
    ReadArray(payload, &pos, cols.unmatched.data(), cols.num_entities);
    if (!AllFinite(cols.count.data(), cells) ||
        !AllFinite(cols.mean_sentiment.data(), cells) ||
        !AllFinite(cols.centroid.data(), cells * cols.dim) ||
        !AllFinite(cols.unmatched.data(), cols.num_entities)) {
      return Status::ParseError("non-finite value in summaries of " + name);
    }
    cols.provenance.resize(shapes[a].provenance);
    for (ProvenanceEntry& entry : cols.provenance) {
      uint32_t review = 0;
      ReadArray(payload, &pos, &entry.entity, 1);
      ReadArray(payload, &pos, &entry.marker, 1);
      ReadArray(payload, &pos, &review, 1);
      entry.review = static_cast<text::ReviewId>(review);
      if (entry.entity >= cols.num_entities ||
          entry.marker >= cols.num_markers) {
        return Status::ParseError(
            "provenance entry (entity " + std::to_string(entry.entity) +
            ", marker " + std::to_string(entry.marker) +
            ") out of range in " + name);
      }
    }
  }
  store.Refresh(nullptr);
  return store;
}

std::string EncodeReviewBatch(const std::vector<text::Review>& reviews) {
  std::string out;
  storage::AppendU32(static_cast<uint32_t>(reviews.size()), &out);
  for (const auto& review : reviews) {
    storage::AppendU32(static_cast<uint32_t>(review.entity), &out);
    storage::AppendU32(static_cast<uint32_t>(review.reviewer), &out);
    storage::AppendU32(static_cast<uint32_t>(review.date), &out);
    storage::AppendU64(review.body.size(), &out);
    out.append(review.body);
  }
  return out;
}

Result<std::vector<text::Review>> DecodeReviewBatch(
    std::string_view payload) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!storage::ReadU32(payload, &pos, &count)) {
    return Status::ParseError("review batch: truncated count");
  }
  // The count is untrusted: bound it by the bytes present before it
  // sizes an allocation.
  if (count > (payload.size() - pos) / kReviewFixedBytes) {
    return Status::ParseError("review batch: count " +
                              std::to_string(count) + " exceeds its " +
                              std::to_string(payload.size()) + " bytes");
  }
  std::vector<text::Review> reviews;
  reviews.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t entity = 0, reviewer = 0, date = 0;
    uint64_t body_len = 0;
    if (!storage::ReadU32(payload, &pos, &entity) ||
        !storage::ReadU32(payload, &pos, &reviewer) ||
        !storage::ReadU32(payload, &pos, &date) ||
        !storage::ReadU64(payload, &pos, &body_len) ||
        payload.size() - pos < body_len) {
      return Status::ParseError("review batch: truncated review " +
                                std::to_string(i));
    }
    text::Review review;
    review.entity = static_cast<text::EntityId>(entity);
    review.reviewer = static_cast<text::ReviewerId>(reviewer);
    review.date = static_cast<int32_t>(date);
    review.body = payload.substr(pos, body_len);
    pos += body_len;
    reviews.push_back(std::move(review));
  }
  if (pos != payload.size()) {
    return Status::ParseError("review batch: trailing bytes");
  }
  return reviews;
}

}  // namespace opinedb::core
