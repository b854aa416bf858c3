#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workloads as data: each workload is one record (dataset, query-shape
// weights, predicate source and variation, write batch size, checkpoint
// cadence), and every request it sends comes from a seeded generator
// that reports the seed it was built from. The engine only ever sees the
// generated requests. Every workload reads on half the CPUs; a writing
// workload adds one writer connection.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfbench {

enum class Dataset {
  /// The seed hotel domain: 120 entities with rendered reviews.
  kHotelSeed,
  /// datagen::BuildScaledFixture at Workload::entities entities.
  kScaled,
};

/// WHERE-clause shapes. `P` is a subjective predicate; objective
/// constants are drawn per request.
enum class Shape {
  kOne,        // "P"
  kTwo,        // "P" and "P"
  kThree,      // "P" and "P" and "P"
  kPriceAnd,   // price_pn < X and "P" [and "P"]
  kCityAnd,    // city = 'c' and "P"
  kRatingAnd,  // rating > r and "P"
  kOr,         // "P" or "P"
  kPriceOr,    // price_pn < X or "P"
  kNot,        // "P" and not "P"
  kNotPrice,   // "P" and not price_pn < X
};

struct ShapeWeight {
  Shape shape;
  double weight;
};

struct Workload {
  std::string name;
  /// One line: what the workload stresses (printed in the report).
  std::string why;
  Dataset dataset = Dataset::kHotelSeed;
  /// Entity count of a kScaled dataset.
  size_t entities = 0;
  std::vector<ShapeWeight> shapes;
  /// Seeded intensifier / negation / word-order / context variation of
  /// every predicate, so predicate text (almost) never repeats.
  bool vary_predicates = false;
  /// Every statement carries an objective constant drawn from a
  /// continuous range, so no two statements share a result-cache key.
  bool continuous_constants = false;
  /// 0: every request is a fresh statement. N: readers draw from a fixed
  /// seeded set of N statements with zipfian popularity.
  size_t statement_set = 0;
  /// Reviews per POST /reviews batch; 0 = read-only workload.
  size_t write_batch = 0;
  /// The writer sends one batch per interval (a fixed arrival rate), so
  /// the share of time readers wait on the exclusive lock follows the
  /// cost of an append instead of compounding with it.
  double write_interval_ms = 0.0;
  /// Batches between two POST /admin/checkpoint calls.
  size_t checkpoint_every = 0;
  /// Batches appended after the window, in one WAL segment: their
  /// acknowledged bytes give the WAL bytes per review.
  size_t tail_batches = 0;
  /// Set-ups per run; setup_s is their median.
  size_t setup_repeats = 3;
  /// Warm-up before the window (part of setup_s): `warmup_statements`
  /// fresh statements, plus one plain query per vocabulary predicate
  /// when `warm_every_predicate` (fills the interpretation cache), plus
  /// the whole statement set of a zipfian workload (fills the result
  /// cache).
  size_t warmup_statements = 0;
  bool warm_every_predicate = false;
};

/// Every workload, in report order.
const std::vector<Workload>& Workloads();
/// The named workload, or nullptr.
const Workload* FindWorkload(const std::string& name);

/// What the generators draw from; filled from the built dataset.
struct Vocabulary {
  std::string table;
  std::vector<std::string> predicates;
  std::vector<std::string> cities;
  int64_t price_min = 0;
  int64_t price_max = 0;
  double rating_min = 0.0;
  double rating_max = 0.0;
  int32_t entities = 0;
  /// Rendered review bodies for POST /reviews batches.
  std::vector<std::string> review_bodies;
};

/// Derives an independent stream seed: (run seed, stream role, index).
uint64_t StreamSeed(uint64_t run_seed, uint64_t role, uint64_t index);
/// Seeds of reader `client`'s stream and of the writer's batch stream.
uint64_t ReaderSeed(uint64_t run_seed, size_t client);
uint64_t WriterSeed(uint64_t run_seed);

/// Seeded generator of subjective SQL statements for one client.
class StatementStream {
 public:
  StatementStream(const Workload& workload, const Vocabulary& vocabulary,
                  uint64_t seed);

  /// The seed this stream was built from (echoed in the report so any
  /// stream can be regenerated).
  uint64_t seed() const { return seed_; }
  std::string Next();

 private:
  std::string Predicate();
  std::string Vary(const std::string& predicate);
  std::string PriceConstant();

  const Workload& workload_;
  const Vocabulary& vocabulary_;
  uint64_t seed_;
  opinedb::Rng rng_;
  std::vector<double> shape_weights_;
};

/// A reader's view of a zipfian statement set (Workload::statement_set):
/// the set itself is drawn once from the run seed, each reader picks
/// from it with its own seeded rng.
class ZipfPicker {
 public:
  ZipfPicker(const std::vector<std::string>* statements, uint64_t seed);
  uint64_t seed() const { return seed_; }
  const std::string& Next();

 private:
  const std::vector<std::string>* statements_;
  uint64_t seed_;
  opinedb::Rng rng_;
  std::vector<double> cumulative_;
};

/// Seeded generator of POST /reviews bodies.
class ReviewBatchStream {
 public:
  ReviewBatchStream(const Workload& workload, const Vocabulary& vocabulary,
                    uint64_t seed);
  uint64_t seed() const { return seed_; }
  /// The JSON body of the next batch ({"reviews": [...]}).
  std::string Next();

 private:
  const Workload& workload_;
  const Vocabulary& vocabulary_;
  uint64_t seed_;
  opinedb::Rng rng_;
};

/// The statements a run checks byte for byte after its window: the first
/// 24 statements of the run's verification stream (of the statement set,
/// for a zipfian workload).
std::vector<std::string> VerificationSample(const Workload& workload,
                                            const Vocabulary& vocabulary,
                                            uint64_t run_seed);

/// The fixed statement set of a zipfian workload.
std::vector<std::string> StatementSet(const Workload& workload,
                                      const Vocabulary& vocabulary,
                                      uint64_t run_seed);

/// JSON-escapes `text` into a quoted string literal.
std::string JsonString(const std::string& text);

/// Self-test of the generators: one seed gives a byte-identical request
/// stream (statements and review batches) and another seed a different
/// one, for every workload. Returns an empty string on success, else a
/// description of the first failure.
std::string CheckStreamDeterminism();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
