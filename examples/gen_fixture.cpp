// gen_fixture — builds a large synthesized fixture (datagen::ScaleSpec)
// and snapshots it to disk with SaveDatabase, so benchmarks and serving
// experiments can open a 100k–1M entity database without paying the
// build each run. It then proves the snapshot round-trips: it records a
// sample answer and a checksum of every summary column, installs an
// all-zero store of the same shape (which must change the answer), and
// opens the snapshot back — answer and checksum must match, or the
// program exits 1. Prints the snapshot bytes and the save and open
// seconds.
//
//   gen_fixture <out_dir> [num_entities] [seed]
//
// Example:
//   gen_fixture /tmp/hotels_100k 100000
//   (reopen with OpineDb::OpenDatabase("/tmp/hotels_100k"))

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/timer.h"
#include "core/columnar.h"
#include "core/engine.h"
#include "datagen/scale.h"
#include "storage/snapshot_store.h"

namespace {

using opinedb::core::ColumnarSummaryStore;
using opinedb::core::OpineDb;

/// FNV-1a over `n` elements' bytes, chained through `hash`.
template <typename T>
uint64_t Fnv1a(const T* data, size_t n, uint64_t hash) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n * sizeof(T); ++i) {
    hash = (hash ^ bytes[i]) * 0x100000001b3ull;
  }
  return hash;
}

/// Checksum of every column (count, mean_sentiment, centroid,
/// centroid_norm, total, log1p_total, unmatched) and provenance log of
/// the store.
uint64_t ColumnChecksum(const ColumnarSummaryStore& store) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    const auto& cols = store.attribute(a);
    const size_t cells = cols.num_entities * cols.num_markers;
    hash = Fnv1a(cols.count.data(), cells, hash);
    hash = Fnv1a(cols.mean_sentiment.data(), cells, hash);
    hash = Fnv1a(cols.centroid.data(), cells * cols.dim, hash);
    hash = Fnv1a(cols.centroid_norm.data(), cells, hash);
    hash = Fnv1a(cols.total.data(), cols.num_entities, hash);
    hash = Fnv1a(cols.log1p_total.data(), cols.num_entities, hash);
    hash = Fnv1a(cols.unmatched.data(), cols.num_entities, hash);
    hash = Fnv1a(cols.provenance.data(), cols.provenance.size(), hash);
  }
  return hash;
}

/// The ranked entities and their raw scores, printed exactly.
std::string Answer(OpineDb& db, const std::string& sql) {
  auto result = db.Execute(sql);
  if (!result.ok()) return "error: " + result.status().ToString();
  std::string out;
  for (const auto& ranked : result->results) {
    char line[96];
    std::snprintf(line, sizeof(line), "  %-24s %.17g\n",
                  ranked.entity_name.c_str(), ranked.score);
    out += line;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <out_dir> [num_entities=100000] [seed=42]\n",
                 argv[0]);
    return 2;
  }
  const std::string out_dir = argv[1];

  opinedb::datagen::ScaleSpec spec;
  if (argc > 2) {
    const long long n = std::atoll(argv[2]);
    if (n <= 0) {
      std::fprintf(stderr, "bad entity count '%s'\n", argv[2]);
      return 2;
    }
    spec.num_entities = static_cast<size_t>(n);
  }
  if (argc > 3) spec.seed = static_cast<uint64_t>(std::atoll(argv[3]));

  std::printf("Building %zu-entity fixture (seed %llu)...\n",
              spec.num_entities,
              static_cast<unsigned long long>(spec.seed));
  opinedb::datagen::ScaledFixture fixture =
      opinedb::datagen::BuildScaledFixture(spec);
  OpineDb& db = *fixture.db;
  const ColumnarSummaryStore& store = *db.columnar_store();
  std::printf("  %zu entities, %zu attributes, columnar store %.1f MiB\n",
              spec.num_entities, db.schema().num_attributes(),
              static_cast<double>(store.bytes()) / (1 << 20));

  opinedb::Timer save_timer;
  opinedb::Status status = db.SaveDatabase(out_dir);
  const double save_s = save_timer.ElapsedSeconds();
  if (!status.ok()) {
    std::fprintf(stderr, "SaveDatabase failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  const auto snapshot_bytes = std::filesystem::file_size(
      std::filesystem::path(out_dir) /
      opinedb::storage::SnapshotStore::GenerationFileName(
          db.snapshot_generation()));
  std::printf("Wrote snapshot to %s\n", out_dir.c_str());

  const std::string sql = "select * from " + fixture.table_name +
                          " where \"" + fixture.subjective_predicates[0] +
                          "\" limit 3";
  const std::string saved_answer = Answer(db, sql);
  const uint64_t saved_checksum = ColumnChecksum(store);
  std::printf("Sample query: %s\n%s", sql.c_str(), saved_answer.c_str());

  // Replace the served summaries, so the open below has to restore them.
  status = db.InstallSummaries(ColumnarSummaryStore(
      db.schema(), db.corpus().num_entities(), db.phrase_embedder().dim()));
  if (!status.ok() || Answer(db, sql) == saved_answer) {
    std::fprintf(stderr,
                 "an all-zero store did not change the sample answer (%s); "
                 "the round trip cannot be checked\n",
                 status.ToString().c_str());
    return 1;
  }

  opinedb::Timer open_timer;
  status = db.OpenDatabase(out_dir);
  const double open_s = open_timer.ElapsedSeconds();
  if (!status.ok()) {
    std::fprintf(stderr, "OpenDatabase failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  const std::string opened_answer = Answer(db, sql);
  const uint64_t opened_checksum = ColumnChecksum(*db.columnar_store());
  if (opened_answer != saved_answer || opened_checksum != saved_checksum) {
    std::fprintf(stderr,
                 "snapshot round trip FAILED: checksum %016llx -> %016llx\n"
                 "saved answer:\n%sopened answer:\n%s",
                 static_cast<unsigned long long>(saved_checksum),
                 static_cast<unsigned long long>(opened_checksum),
                 saved_answer.c_str(), opened_answer.c_str());
    return 1;
  }
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  std::printf(
      "Round trip ok: column checksum %016llx, same sample answer.\n"
      "  snapshot %llu bytes, save %.2f s, open %.2f s, peak RSS %.0f MiB\n",
      static_cast<unsigned long long>(saved_checksum),
      static_cast<unsigned long long>(snapshot_bytes), save_s, open_s,
      static_cast<double>(usage.ru_maxrss) / 1024.0);
  return 0;
}
