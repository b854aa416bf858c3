#ifndef OPINEDB_CORE_SERIALIZE_H_
#define OPINEDB_CORE_SERIALIZE_H_

#include <istream>
#include <ostream>
#include <string>

#include "common/result.h"
#include "core/columnar.h"
#include "core/schema.h"

namespace opinedb::core {

/// Persists a subjective schema (attributes, marker-summary types,
/// linguistic domains, seeds) in a line-oriented text format.
Status SaveSchema(const SubjectiveSchema& schema, std::ostream* out);

/// Reads a schema written by SaveSchema.
Result<SubjectiveSchema> LoadSchema(std::istream* in);

/// Encodes `store` as the version-3 "summaries" snapshot section: the
/// ASCII line "opinedb-summaries 3\n", a little-endian u64 header (attribute
/// count, entity count, then K, dim and provenance-log length per
/// attribute) and, per attribute, the column images count[N*K] and
/// mean_sentiment[N*K] (f64), centroid[N*K*dim] (f32), unmatched[N]
/// (f64) and the provenance log (u32 entity, u32 marker, i32 review per
/// entry). total and centroid_norm are derived and not written. See
/// docs/PERSISTENCE.md.
std::string EncodeSummaries(const ColumnarSummaryStore& store);

/// Decodes an EncodeSummaries payload into a refreshed store (total and
/// centroid_norm recomputed by ColumnarSummaryStore::Refresh). `schema`
/// is the schema saved with it. Refusals: another attribute count, another marker count, or
/// attributes of unequal centroid width is InvalidArgument; a version
/// other than 3 is NotSupported; a wrong magic, a payload whose length
/// differs from the one its header implies, a non-finite number, or a
/// provenance entry naming an entity >= N or a marker >= K is
/// ParseError. Review ids are not range-checked.
Result<ColumnarSummaryStore> DecodeSummaries(const SubjectiveSchema& schema,
                                             const std::string& payload);

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_SERIALIZE_H_
