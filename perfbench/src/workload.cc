#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

// Stream roles for StreamSeed: every generator of a run draws from its
// own derived seed, so adding a client never shifts another's stream.
constexpr uint64_t kRoleReader = 1;
constexpr uint64_t kRoleWriter = 2;
constexpr uint64_t kRoleVerify = 3;
constexpr uint64_t kRoleSet = 4;

const char* const kIntensifiers[] = {
    "very",   "really",  "extremely", "quite",    "super",  "incredibly",
    "truly",  "so",      "pretty",    "remarkably", "fairly", "exceptionally",
    "rather", "totally", "genuinely", "amazingly"};
const char* const kNegations[] = {"not", "never", "hardly"};
const char* const kContexts[] = {
    "for families",      "for couples",      "for business trips",
    "in summer",         "in winter",        "on weekends",
    "for a short stay",  "for a long stay",  "near the center",
    "for solo travel",   "for a honeymoon",  "for groups",
    "during the week",   "at night",         "in the morning",
    "for the price",     "for kids",         "for a conference",
    "on a budget",       "for a city break", "after a flight",
    "before a concert",  "for remote work",  "for a reunion"};

template <size_t N>
const char* Pick(opinedb::Rng& rng, const char* const (&items)[N]) {
  return items[rng.Below(N)];
}

std::vector<std::string> SplitWords(const std::string& text) {
  std::vector<std::string> words;
  std::string word;
  for (const char c : text) {
    if (c == ' ') {
      if (!word.empty()) words.push_back(std::move(word));
      word.clear();
    } else {
      word.push_back(c);
    }
  }
  if (!word.empty()) words.push_back(std::move(word));
  return words;
}

std::string FormatDouble(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> workloads;

  Workload adhoc;
  adhoc.name = "hotel_adhoc";
  adhoc.why =
      "fresh subjective SQL per request: the interpretation cascade does "
      "the work and no cache can hide it";
  adhoc.dataset = Dataset::kHotelSeed;
  adhoc.shapes = {{Shape::kOne, 3.0},      {Shape::kTwo, 3.0},
                  {Shape::kThree, 1.0},    {Shape::kPriceAnd, 1.5},
                  {Shape::kCityAnd, 1.0},  {Shape::kOr, 1.0},
                  {Shape::kNot, 0.5}};
  adhoc.vary_predicates = true;
  adhoc.warmup_statements = 64;
  workloads.push_back(std::move(adhoc));

  Workload scan;
  scan.name = "scale_scan";
  scan.why =
      "LIMIT 10 scans over a fixture larger than L3 with cached "
      "interpretations: scoring, filtering and ranking do the work";
  scan.dataset = Dataset::kScaled;
  scan.entities = 100000;
  scan.shapes = {{Shape::kPriceAnd, 4.0},
                 {Shape::kRatingAnd, 1.0},
                 {Shape::kPriceOr, 1.5},
                 {Shape::kNotPrice, 1.0}};
  scan.continuous_constants = true;
  scan.warm_every_predicate = true;
  scan.setup_repeats = 2;
  workloads.push_back(std::move(scan));

  Workload ingest;
  ingest.name = "hotel_ingest";
  ingest.why =
      "result-cache readers beside a fsynced review writer, checkpoints "
      "and a follower catch-up: the write path does the work";
  ingest.dataset = Dataset::kHotelSeed;
  ingest.shapes = {{Shape::kOne, 3.0},
                   {Shape::kTwo, 2.0},
                   {Shape::kPriceAnd, 1.0},
                   {Shape::kCityAnd, 1.0}};
  // Every append bumps the cache epoch. With 100 statements the readers
  // refill the whole set after each bump, so the misses per epoch are
  // fixed. With 1000 they touched only part of it, throughput set the
  // hit rate and the hit rate set throughput: run-to-run spreads of
  // 30-120% on query_qps against 14% here.
  ingest.statement_set = 100;
  ingest.write_batch = 8;
  // 8 batches/s. An append re-interprets every cached predicate (~60 ms
  // with the pool's 190 warm), so this keeps the lock about half free.
  ingest.write_interval_ms = 125.0;
  ingest.checkpoint_every = 50;
  ingest.tail_batches = 40;
  workloads.push_back(std::move(ingest));
  return workloads;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = MakeWorkloads();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : Workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

uint64_t StreamSeed(uint64_t run_seed, uint64_t role, uint64_t index) {
  // SplitMix64 finalizer over the packed triple.
  uint64_t z = run_seed * 0x9e3779b97f4a7c15ull + role * 0xbf58476d1ce4e5b9ull +
               index * 0x94d049bb133111ebull + 0x2545f4914f6cdd1dull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------- statements.

StatementStream::StatementStream(const Workload& workload,
                                 const Vocabulary& vocabulary, uint64_t seed)
    : workload_(workload), vocabulary_(vocabulary), seed_(seed), rng_(seed) {
  for (const ShapeWeight& shape : workload_.shapes) {
    shape_weights_.push_back(shape.weight);
  }
}

std::string StatementStream::Vary(const std::string& predicate) {
  std::vector<std::string> words = SplitWords(predicate);
  if (words.size() > 1 && rng_.Bernoulli(0.5)) {
    // Word order: rotate, keeping every word.
    const size_t by = 1 + rng_.Below(words.size() - 1);
    std::rotate(words.begin(), words.begin() + static_cast<ptrdiff_t>(by),
                words.end());
  }
  const size_t intensifiers = 1 + rng_.Below(2);
  for (size_t i = 0; i < intensifiers; ++i) {
    words.insert(words.begin() + static_cast<ptrdiff_t>(
                                     rng_.Below(words.size() + 1)),
                 Pick(rng_, kIntensifiers));
  }
  if (rng_.Bernoulli(0.2)) {
    words.insert(words.begin() + static_cast<ptrdiff_t>(
                                     rng_.Below(words.size() + 1)),
                 Pick(rng_, kNegations));
  }
  if (rng_.Bernoulli(0.8)) words.push_back(Pick(rng_, kContexts));
  std::string out;
  for (const std::string& word : words) {
    if (!out.empty()) out.push_back(' ');
    out += word;
  }
  return out;
}

std::string StatementStream::Predicate() {
  const std::string& base =
      vocabulary_.predicates[rng_.Below(vocabulary_.predicates.size())];
  return "\"" + (workload_.vary_predicates ? Vary(base) : base) + "\"";
}

std::string StatementStream::PriceConstant() {
  if (workload_.continuous_constants) {
    // Selectivity sweeps ~1%..100% of a uniform price column.
    const double lo = static_cast<double>(vocabulary_.price_min) +
                      0.01 * static_cast<double>(vocabulary_.price_max -
                                                 vocabulary_.price_min);
    return FormatDouble(
        rng_.Uniform(lo, static_cast<double>(vocabulary_.price_max) + 1.0),
        4);
  }
  return std::to_string(
      rng_.Int(vocabulary_.price_min, vocabulary_.price_max));
}

std::string StatementStream::Next() {
  const Shape shape = workload_.shapes[rng_.WeightedIndex(shape_weights_)].shape;
  // Every draw is its own statement: operands of one expression are
  // evaluated in unspecified order, which would make the stream
  // compiler-dependent.
  std::string where = Predicate();
  switch (shape) {
    case Shape::kOne:
      break;
    case Shape::kTwo:
      where += " and " + Predicate();
      break;
    case Shape::kThree:
      where += " and " + Predicate();
      where += " and " + Predicate();
      break;
    case Shape::kPriceAnd:
      where = "price_pn < " + PriceConstant() + " and " + where;
      if (rng_.Bernoulli(0.3)) where += " and " + Predicate();
      break;
    case Shape::kCityAnd:
      where = "city = '" +
              vocabulary_.cities[rng_.Below(vocabulary_.cities.size())] +
              "' and " + where;
      break;
    case Shape::kRatingAnd: {
      const double r =
          rng_.Uniform(vocabulary_.rating_min, vocabulary_.rating_max);
      where = "rating > " + FormatDouble(r, 4) + " and " + where;
      break;
    }
    case Shape::kOr:
      where += " or " + Predicate();
      break;
    case Shape::kPriceOr:
      where = "price_pn < " + PriceConstant() + " or " + where;
      break;
    case Shape::kNot:
      where += " and not " + Predicate();
      break;
    case Shape::kNotPrice:
      where += " and not price_pn < " + PriceConstant();
      break;
  }
  return "select * from " + vocabulary_.table + " where " + where +
         " limit 10";
}

// ---------------------------------------------------------------- zipf.

namespace {

constexpr double kZipfExponent = 1.1;

}  // namespace

ZipfPicker::ZipfPicker(const std::vector<std::string>* statements,
                       uint64_t seed)
    : statements_(statements), seed_(seed), rng_(seed) {
  double total = 0.0;
  for (size_t i = 0; i < statements_->size(); ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

const std::string& ZipfPicker::Next() {
  const double u = rng_.Uniform();
  size_t i = static_cast<size_t>(
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
      cumulative_.begin());
  if (i >= statements_->size()) i = statements_->size() - 1;
  return (*statements_)[i];
}

// ------------------------------------------------------------- reviews.

ReviewBatchStream::ReviewBatchStream(const Workload& workload,
                                     const Vocabulary& vocabulary,
                                     uint64_t seed)
    : workload_(workload), vocabulary_(vocabulary), seed_(seed), rng_(seed) {}

std::string ReviewBatchStream::Next() {
  std::string body = "{\"reviews\": [";
  for (size_t i = 0; i < workload_.write_batch; ++i) {
    if (i > 0) body += ", ";
    const uint64_t entity =
        rng_.Below(static_cast<uint64_t>(vocabulary_.entities));
    const uint64_t reviewer = 5000 + rng_.Below(400);
    const uint64_t date = 20260101 + rng_.Below(28);
    const std::string& text = vocabulary_.review_bodies[rng_.Below(
        vocabulary_.review_bodies.size())];
    body += "{\"entity\": " + std::to_string(entity) +
            ", \"reviewer\": " + std::to_string(reviewer) +
            ", \"date\": " + std::to_string(date) +
            ", \"body\": " + JsonString(text) + "}";
  }
  body += "]}";
  return body;
}

std::vector<std::string> StatementSet(const Workload& workload,
                                      const Vocabulary& vocabulary,
                                      uint64_t run_seed) {
  StatementStream stream(workload, vocabulary,
                         StreamSeed(run_seed, kRoleSet, 0));
  std::vector<std::string> set;
  for (size_t i = 0; i < workload.statement_set; ++i) {
    set.push_back(stream.Next());
  }
  return set;
}

namespace {

constexpr size_t kVerifySample = 24;

}  // namespace

std::vector<std::string> VerificationSample(const Workload& workload,
                                            const Vocabulary& vocabulary,
                                            uint64_t run_seed) {
  std::vector<std::string> sample;
  if (workload.statement_set > 0) {
    // Check the statements readers actually hit, head first.
    std::vector<std::string> set = StatementSet(workload, vocabulary, run_seed);
    for (size_t i = 0; i < set.size() && sample.size() < kVerifySample; ++i) {
      sample.push_back(std::move(set[i]));
    }
    return sample;
  }
  StatementStream stream(workload, vocabulary,
                         StreamSeed(run_seed, kRoleVerify, 0));
  for (size_t i = 0; i < kVerifySample; ++i) {
    sample.push_back(stream.Next());
  }
  return sample;
}

uint64_t ReaderSeed(uint64_t run_seed, size_t client) {
  return StreamSeed(run_seed, kRoleReader, client);
}

uint64_t WriterSeed(uint64_t run_seed) {
  return StreamSeed(run_seed, kRoleWriter, 0);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

// ----------------------------------------------------------- self-test.

namespace {

Vocabulary SelfTestVocabulary() {
  Vocabulary vocabulary;
  vocabulary.table = "hotels";
  vocabulary.predicates = {"clean rooms", "has friendly staff",
                           "a place with quiet rooms", "romantic"};
  vocabulary.cities = {"london", "paris"};
  vocabulary.price_min = 40;
  vocabulary.price_max = 400;
  vocabulary.rating_min = 1.0;
  vocabulary.rating_max = 5.0;
  vocabulary.entities = 120;
  vocabulary.review_bodies = {"the room was clean", "rude staff"};
  return vocabulary;
}

std::string Drain(const Workload& workload, const Vocabulary& vocabulary,
                  uint64_t run_seed) {
  std::string bytes;
  StatementStream reader(workload, vocabulary, ReaderSeed(run_seed, 0));
  for (int i = 0; i < 200; ++i) bytes += reader.Next() + "\n";
  if (workload.statement_set > 0) {
    const std::vector<std::string> set =
        StatementSet(workload, vocabulary, run_seed);
    ZipfPicker picker(&set, ReaderSeed(run_seed, 1));
    for (int i = 0; i < 200; ++i) bytes += picker.Next() + "\n";
  }
  if (workload.write_batch > 0) {
    ReviewBatchStream writer(workload, vocabulary, WriterSeed(run_seed));
    for (int i = 0; i < 20; ++i) bytes += writer.Next() + "\n";
  }
  for (const std::string& sql : VerificationSample(workload, vocabulary,
                                                    run_seed)) {
    bytes += sql + "\n";
  }
  return bytes;
}

}  // namespace

std::string CheckStreamDeterminism() {
  const Vocabulary vocabulary = SelfTestVocabulary();
  for (const Workload& workload : Workloads()) {
    const std::string first = Drain(workload, vocabulary, 7);
    if (first != Drain(workload, vocabulary, 7)) {
      return workload.name + ": seed 7 produced two different streams";
    }
    if (first == Drain(workload, vocabulary, 8)) {
      return workload.name + ": seeds 7 and 8 produced the same stream";
    }
    StatementStream stream(workload, vocabulary, 1234);
    if (stream.seed() != 1234) {
      return workload.name + ": stream does not report its seed";
    }
  }
  return "";
}

}  // namespace perfbench
