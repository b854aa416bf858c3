#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <sstream>

#include "cache/interpretation_cache.h"
#include "cache/result_cache.h"
#include "common/fault.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/columnar.h"
#include "core/exec_ops.h"
#include "core/marker_induction.h"
#include "core/serialize.h"
#include "obs/metrics.h"
#include "storage/snapshot_store.h"
#include "text/tokenizer.h"

namespace opinedb::core {

namespace {

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

/// Constant c of the text-retrieval fallback: degree of truth =
/// sigmoid(BM25(D, q) - c).
constexpr double kTextFallbackC = 4.0;

/// Section names inside a database snapshot container.
constexpr char kSchemaSection[] = "schema";
constexpr char kSummariesSection[] = "summaries";
constexpr char kInterpCacheSection[] = "interp_cache";

// ------------------------------------------------ WAL batch payloads.
// The engine's encoding of one AppendReviews batch into one opaque WAL
// record: u32 review count, then per review u32 entity | u32 reviewer |
// u32 date | u64 body length | body bytes. Little-endian, byte-encoded
// (same no-punning doctrine as storage/wal.cc). Review ids are NOT
// encoded — replay re-assigns them by append order, which reproduces
// the live assignment exactly.

void AppendU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(uint64_t v, std::string* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

bool ReadU32(const std::string& in, size_t* pos, uint32_t* out) {
  if (in.size() - *pos < 4) return false;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(in[*pos + i]))
         << (8 * i);
  }
  *pos += 4;
  *out = v;
  return true;
}

bool ReadU64(const std::string& in, size_t* pos, uint64_t* out) {
  if (in.size() - *pos < 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(in[*pos + i]))
         << (8 * i);
  }
  *pos += 8;
  *out = v;
  return true;
}

std::string EncodeReviewBatch(const std::vector<text::Review>& reviews) {
  std::string out;
  AppendU32(static_cast<uint32_t>(reviews.size()), &out);
  for (const auto& review : reviews) {
    AppendU32(static_cast<uint32_t>(review.entity), &out);
    AppendU32(static_cast<uint32_t>(review.reviewer), &out);
    AppendU32(static_cast<uint32_t>(review.date), &out);
    AppendU64(review.body.size(), &out);
    out.append(review.body);
  }
  return out;
}

Result<std::vector<text::Review>> DecodeReviewBatch(
    const std::string& payload) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadU32(payload, &pos, &count)) {
    return Status::ParseError("WAL batch: truncated count");
  }
  // The record passed its CRC, so a decode failure here means an
  // encoder/decoder skew, not disk corruption — still an error, never
  // a partial apply.
  std::vector<text::Review> reviews;
  reviews.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t entity = 0, reviewer = 0, date = 0;
    uint64_t body_len = 0;
    if (!ReadU32(payload, &pos, &entity) ||
        !ReadU32(payload, &pos, &reviewer) ||
        !ReadU32(payload, &pos, &date) ||
        !ReadU64(payload, &pos, &body_len) ||
        payload.size() - pos < body_len) {
      return Status::ParseError("WAL batch: truncated review " +
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
    return Status::ParseError("WAL batch: trailing bytes");
  }
  return reviews;
}

/// The shape ConditionScorer binds against: one AttributeColumns per
/// schema attribute, each covering `num_entities` entities with the
/// schema's marker count and `dim`-wide centroids. The store's
/// constructor sizes every array from that shape, so InstallSummaries
/// and OpenDatabase run this before any state changes and no query can
/// read past a centroid or a cell array.
Status CheckSummaryShape(const SubjectiveSchema& schema,
                         const ColumnarSummaryStore& store,
                         size_t num_entities, size_t dim) {
  if (store.num_attributes() != schema.num_attributes()) {
    return Status::InvalidArgument(
        "summaries cover " + std::to_string(store.num_attributes()) +
        " attributes, schema has " +
        std::to_string(schema.num_attributes()));
  }
  if (store.num_entities() != num_entities) {
    return Status::InvalidArgument(
        "summaries cover " + std::to_string(store.num_entities()) +
        " entities, corpus has " + std::to_string(num_entities));
  }
  for (size_t a = 0; a < store.num_attributes(); ++a) {
    const AttributeColumns& cols = store.attribute(a);
    const std::string& name = schema.attributes[a].name;
    if (cols.num_entities != num_entities) {
      return Status::InvalidArgument(
          "summaries of " + name + " cover " +
          std::to_string(cols.num_entities) + " entities, corpus has " +
          std::to_string(num_entities));
    }
    const size_t markers = schema.attributes[a].summary_type.num_markers();
    if (cols.num_markers != markers) {
      return Status::InvalidArgument(
          "summaries of " + name + " have " +
          std::to_string(cols.num_markers) + " markers, schema has " +
          std::to_string(markers));
    }
    if (cols.dim != dim) {
      return Status::InvalidArgument(
          "summaries of " + name + " have " + std::to_string(cols.dim) +
          "-wide centroids, the phrase embedder is " + std::to_string(dim) +
          " wide");
    }
  }
  return Status::OK();
}

/// Whether ConditionScorer can bind a cached interpretation: every atom
/// inside `schema` (attribute in range, marker in [0, K)) and the query
/// embedding `dim` wide. The interpretation-cache warm load drops a
/// snapshot section holding any entry that fails this.
bool Bindable(const SubjectiveSchema& schema, size_t dim,
              const cache::InterpretationCache::Entry& entry) {
  if (entry.rep.size() != dim) return false;
  for (const auto& atom : entry.interpretation.atoms) {
    if (atom.attribute < 0 ||
        static_cast<size_t>(atom.attribute) >= schema.num_attributes()) {
      return false;
    }
    const size_t markers =
        schema.attributes[static_cast<size_t>(atom.attribute)]
            .summary_type.num_markers();
    if (atom.marker < 0 || static_cast<size_t>(atom.marker) >= markers) {
      return false;
    }
  }
  return true;
}

/// Scores every entity into `degrees` (resized to the entity count),
/// fanned out across `pool` when there is one. Each entity writes only
/// its own slot, so the list is bit-identical at any thread count.
void ScoreEveryEntity(const ConditionScorer& scorer, size_t num_entities,
                      ThreadPool* pool, std::vector<double>* degrees) {
  degrees->resize(num_entities);
  auto score_range = [&](size_t begin, size_t end) {
    for (size_t e = begin; e < end; ++e) (*degrees)[e] = scorer.Score(e);
  };
  if (pool != nullptr) {
    pool->ParallelFor(0, num_entities, score_range, /*min_grain=*/8);
  } else {
    score_range(0, num_entities);
  }
}

/// Every engine-side interpretation-cache fill: inserts and counts the
/// LRU evictions it caused.
void InsertInterpretation(cache::InterpretationCache* cache,
                          const std::string& key,
                          cache::InterpretationCache::Entry entry) {
  const size_t evicted = cache->Insert(key, std::move(entry));
  if (evicted > 0) OPINEDB_METRIC_COUNT("engine.cache.interp_evict", evicted);
}

/// The uniform rejection every mutating entry point returns while the
/// engine is in follower mode (SetReadOnly(true)).
Status ReadOnlyError(const char* op) {
  return Status::FailedPrecondition(
      std::string(op) +
      " rejected: engine is read-only (replication follower); state "
      "changes arrive only through the replication client — Promote() "
      "to accept writes");
}

}  // namespace

OpineDb::~OpineDb() = default;

std::unique_ptr<OpineDb> OpineDb::Build(
    text::ReviewCorpus corpus, SubjectiveSchema schema,
    const extract::ExtractionPipeline& pipeline, EngineOptions options) {
  std::unique_ptr<OpineDb> owned(new OpineDb());
  OpineDb& db = *owned;
  db.corpus_ = std::move(corpus);
  db.schema_ = std::move(schema);
  db.options_ = options;
  if (options.trace_level >= obs::TraceLevel::kStats) {
    // Only ever *enable* here: another engine in the process may have
    // turned metrics on already. SetTraceLevel sets both directions.
    obs::SetMetricsEnabled(true);
  }
  if (ThreadPool::ResolveThreads(options.num_threads) > 1) {
    db.pool_ = std::make_unique<ThreadPool>(options.num_threads);
  }
  if (options.cache.enable_interpretation) {
    db.interp_cache_ = std::make_unique<cache::InterpretationCache>();
  }
  if (options.cache.enable_results) {
    db.result_cache_ = std::make_unique<cache::ResultCache>(
        options.cache.result_cache_bytes);
  }

  // 1. Tokenize reviews; build the review index (one document per
  //    review), the entity index (all reviews of an entity concatenated,
  //    as in the GZ12 text-retrieval method) and the sentiment scores.
  text::Tokenizer tokenizer;
  std::vector<std::vector<std::string>> sentences;
  std::vector<std::vector<std::string>> entity_docs(
      db.corpus_.num_entities());
  db.review_sentiment_.reserve(db.corpus_.num_reviews());
  for (const auto& review : db.corpus_.reviews()) {
    for (const auto& sentence :
         text::Tokenizer::SplitSentences(review.body)) {
      sentences.push_back(tokenizer.Tokenize(sentence));
    }
    auto tokens = tokenizer.Tokenize(review.body);
    auto& doc = entity_docs[review.entity];
    doc.insert(doc.end(), tokens.begin(), tokens.end());
    db.review_index_.AddDocument(tokens);
    // Shift sentiment into (0, 1]-ish so BM25*senti keeps mild negatives
    // ranked below mild positives without zeroing everything.
    db.review_sentiment_.push_back(
        std::max(0.0, db.analyzer_.ScoreDocument(review.body)) + 0.05);
  }
  for (auto& doc : entity_docs) {
    db.entity_index_.AddDocument(doc);
  }

  // 2. Train corpus embeddings and the phrase embedder.
  db.embeddings_ = embedding::WordEmbeddings::TrainSgns(sentences,
                                                        options.w2v);
  const index::InvertedIndex* review_index = &db.review_index_;
  db.embedder_ = std::make_unique<embedding::PhraseEmbedder>(
      &db.embeddings_,
      [review_index](std::string_view token) {
        return review_index->Idf(token) + 0.1;
      });

  // 3. Attribute classifier from schema seeds (with w2v expansion).
  db.classifier_ = AttributeClassifier::Train(db.schema_, db.embeddings_);

  // 4. Extraction (reviews fan out across the pool).
  auto extractions = pipeline.ExtractFromCorpus(db.corpus_, db.pool_.get());

  // 5. Populate linguistic domains and induce markers where the designer
  //    left them unspecified.
  {
    std::vector<std::vector<std::string>> domains(
        db.schema_.num_attributes());
    for (const auto& opinion : extractions) {
      const int a = db.classifier_.Classify(opinion.aspect, opinion.opinion);
      if (a >= 0 && static_cast<size_t>(a) < domains.size()) {
        domains[a].push_back(opinion.phrase);
      }
    }
    for (size_t a = 0; a < db.schema_.num_attributes(); ++a) {
      auto& attribute = db.schema_.attributes[a];
      // Deduplicate the linguistic domain.
      std::sort(domains[a].begin(), domains[a].end());
      domains[a].erase(std::unique(domains[a].begin(), domains[a].end()),
                       domains[a].end());
      attribute.linguistic_domain = domains[a];
      if (attribute.summary_type.markers.empty()) {
        if (attribute.summary_type.kind == SummaryKind::kLinearlyOrdered) {
          attribute.summary_type = InduceLinearMarkers(
              attribute.name, attribute.linguistic_domain,
              options.induced_markers, db.analyzer_);
        } else {
          attribute.summary_type = InduceCategoricalMarkers(
              attribute.name, attribute.linguistic_domain,
              options.induced_markers, *db.embedder_);
        }
      }
    }
  }

  // 6. Aggregate extractions onto marker summaries.
  db.aggregator_ = std::make_unique<Aggregator>(
      &db.schema_, &db.classifier_, db.embedder_.get(), &db.analyzer_);
  db.tables_ = db.aggregator_->Build(db.corpus_, std::move(extractions),
                                     options.aggregation, db.pool_.get(),
                                     /*extraction_lists=*/!options.use_markers);
  // Retain the trained pipeline so AppendReviews can extract from new
  // reviews identically, and record that the relation just built IS the
  // source of the summaries (the Reaggregate precondition).
  db.pipeline_ = pipeline;
  db.extractions_authoritative_ = true;

  db.RebuildDerivedState();
  return owned;
}

void OpineDb::RebuildDerivedState() {
  interpreter_ = std::make_unique<Interpreter>(
      &schema_, &tables_, embedder_.get(), &review_index_,
      &review_sentiment_);
  OPINEDB_METRIC_GAUGE_SET("columnar.bytes",
                           static_cast<double>(tables_.summaries.bytes()));
}

Status OpineDb::SetObjectiveTable(storage::Table table) {
  if (table.num_rows() != corpus_.num_entities()) {
    return Status::InvalidArgument(
        "objective table must have one row per entity (" +
        std::to_string(corpus_.num_entities()) + " expected, got " +
        std::to_string(table.num_rows()) + ")");
  }
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  const std::string name = table.name();
  Status status = catalog_.AddTable(std::move(table));
  if (!status.ok()) return status;
  objective_table_ = name;
  // Mirror the objective rows into columns once; predicates sweep the
  // mirror from then on. The catalog never changes a registered table.
  objective_columns_[name] =
      std::make_unique<ColumnarTable>(**catalog_.GetTable(name));
  return Status::OK();
}

const ColumnarTable& OpineDb::objective_columns(
    const storage::Table& table) const {
  return *objective_columns_.at(table.name());
}

Status OpineDb::InstallSummaries(ColumnarSummaryStore summaries) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) return ReadOnlyError("InstallSummaries");
  Status shape = CheckSummaryShape(schema_, summaries, corpus_.num_entities(),
                                   embedder_->dim());
  if (!shape.ok()) {
    return Status::InvalidArgument("InstallSummaries: " + shape.message());
  }
  summaries.Refresh(pool_.get());
  tables_.summaries = std::move(summaries);
  // The extraction relation described the replaced summaries' sources;
  // same post-state as OpenDatabase (summaries only, re-derivable rest).
  tables_.ClearRelation();
  extractions_authoritative_ = false;
  RebuildDerivedState();
  InvalidateCachesLocked();
  return Status::OK();
}

Status OpineDb::TrainMembership(
    const std::vector<MembershipModel::LabeledTuple>& tuples,
    uint64_t seed) {
  for (size_t i = 0; i < tuples.size(); ++i) {
    Status valid = ValidateFeatureVector(tuples[i].features);
    if (!valid.ok()) {
      return Status::InvalidArgument("labeled tuple " + std::to_string(i) +
                                     ": " + valid.message());
    }
  }
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) return ReadOnlyError("TrainMembership");
  membership_ = MembershipModel::Train(tuples, seed);
  // A new membership model changes every degree of truth the engine
  // emits: cached results, interpretations-with-degrees and precomputed
  // degree lists all describe the old model.
  InvalidateCachesLocked();
  return Status::OK();
}

void OpineDb::InvalidateCachesLocked() {
  const uint64_t epoch =
      cache_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (result_cache_ != nullptr) result_cache_->Clear();
  if (interp_cache_ != nullptr) interp_cache_->Clear();
  precomputed_.clear();
  OPINEDB_METRIC_GAUGE_SET("engine.cache.epoch", static_cast<double>(epoch));
}

void OpineDb::ConfigureCaches(const cache::CacheConfig& config) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  options_.cache = config;
  if (config.enable_interpretation) {
    // Keep a live layer and its warm entries.
    if (interp_cache_ == nullptr) {
      interp_cache_ = std::make_unique<cache::InterpretationCache>();
    }
  } else {
    interp_cache_.reset();
  }
  if (config.enable_results) {
    // Always rebuilt: the byte budget is a constructor parameter, and a
    // fresh empty cache is cheap next to any real serving mix.
    result_cache_ =
        std::make_unique<cache::ResultCache>(config.result_cache_bytes);
  } else {
    result_cache_.reset();
  }
}

Status OpineDb::Reaggregate(const AggregationOptions& aggregation) {
  // Exclusive: in-flight queries hold reconfig_mu_ shared for their
  // whole run, so nothing reads tables_/interpreter_ mid-rebuild.
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) return ReadOnlyError("Reaggregate");
  if (!extractions_authoritative_) {
    // After InstallSummaries/OpenDatabase the extraction relation is
    // empty (or describes older data): rebuilding summaries from it
    // would silently replace the installed data with nothing.
    return Status::FailedPrecondition(
        "Reaggregate rebuilds summaries from the extraction relation, "
        "but this engine's relation is not the source of its served "
        "summaries (InstallSummaries/OpenDatabase replaced them) — "
        "re-extract via Build instead");
  }
  options_.aggregation = aggregation;
  auto extractions = std::move(tables_.extractions);
  tables_ = aggregator_->Build(corpus_, std::move(extractions), aggregation,
                               pool_.get(),
                               /*extraction_lists=*/!options_.use_markers);
  RebuildDerivedState();
  // Every cached artifact (results, interpretations, precomputed degree
  // lists) was computed against the old summaries; serving any of them
  // now would silently ignore the re-aggregation.
  InvalidateCachesLocked();
  return Status::OK();
}

void OpineDb::SetNumThreads(size_t num_threads) {
  // Exclusive: ExecuteQuery snapshots pool_.get() for the duration of a
  // query; swapping the pool under it would be a use-after-free. The
  // lock waits for running queries to drain first.
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  options_.num_threads = num_threads;
  if (ThreadPool::ResolveThreads(num_threads) > 1) {
    pool_ = std::make_unique<ThreadPool>(num_threads);
  } else {
    pool_.reset();
  }
}

void OpineDb::SetTraceLevel(obs::TraceLevel level) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  options_.trace_level = level;
  obs::SetMetricsEnabled(level >= obs::TraceLevel::kStats);
}

size_t OpineDb::PrecomputeDegrees(
    const std::vector<std::string>& predicates) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  obs::TraceSpan span("engine.precompute_degrees");
  const uint64_t epoch = cache_epoch_.load(std::memory_order_relaxed);
  std::unordered_map<std::string, PrecomputedList> lists;
  for (const std::string& predicate : predicates) {
    std::string key = NormalizePredicate(predicate);
    if (lists.count(key) > 0) continue;
    PreparedPredicate prepared = PreparePredicate(predicate, &key, epoch,
                                                  /*deadline=*/nullptr);
    // A list scored under a degraded interpretation would keep serving
    // degraded degrees long after the fault is gone.
    if (prepared.interpretation.degraded) continue;
    PrecomputedList list;
    try {
      ScoreEveryEntity(ConditionScorer(*this, predicate,
                                       prepared.interpretation,
                                       prepared.rep, prepared.sentiment),
                       corpus_.num_entities(), pool_.get(), &list.degrees);
    } catch (const std::exception&) {
      continue;
    }
    list.interpretation = std::move(prepared.interpretation);
    lists.emplace(std::move(key), std::move(list));
  }
  precomputed_ = std::move(lists);
  span.AddAttribute("predicates", static_cast<uint64_t>(predicates.size()));
  span.AddAttribute("lists", static_cast<uint64_t>(precomputed_.size()));
  return precomputed_.size();
}

const std::vector<double>* OpineDb::precomputed_degrees(
    const std::string& predicate) const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  auto it = precomputed_.find(NormalizePredicate(predicate));
  return it == precomputed_.end() ? nullptr : &it->second.degrees;
}

Status OpineDb::SaveDatabase(const std::string& dir) const {
  // Exclusive: the schema/summaries pair written below is a consistent
  // cut — Reaggregate cannot swap tables_ between the two serializations
  // and no query reads state mid-save.
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) return ReadOnlyError("SaveDatabase");
  if (wal_.has_value()) {
    // An out-of-band save advances snapshot_generation_ away from the
    // active segment's base: later appends would journal into a segment
    // recovery no longer replays. Checkpoint() rotates the segment in
    // the same critical section as the save.
    return Status::FailedPrecondition(
        "SaveDatabase while a WAL is enabled would orphan the active "
        "segment; use Checkpoint()");
  }
  return SaveDatabaseLocked(dir);
}

Status OpineDb::SaveDatabaseLocked(const std::string& dir) const {
  Timer timer;
  std::ostringstream schema_bytes;
  Status status = SaveSchema(schema_, &schema_bytes);
  if (!status.ok()) return status;

  std::vector<storage::SnapshotSection> sections(2);
  sections[0].name = kSchemaSection;
  sections[0].payload = std::move(schema_bytes).str();
  sections[1].name = kSummariesSection;
  sections[1].payload = EncodeSummaries(tables_.summaries);
  // A warm interpretation cache rides along so a reopened database
  // serves warm (docs/CACHING.md): only the entries of the current
  // epoch, since the open tags every loaded entry as current. Derived
  // data: older snapshots without the section (and engines without the
  // layer) stay valid, and OpenDatabase treats a corrupt section as a
  // cold open.
  if (interp_cache_ != nullptr && interp_cache_->size() > 0) {
    std::ostringstream interp_bytes;
    status = cache::SaveInterpretationCache(
        *interp_cache_, cache_epoch_.load(std::memory_order_relaxed),
        &interp_bytes);
    if (!status.ok()) return status;
    storage::SnapshotSection interp_section;
    interp_section.name = kInterpCacheSection;
    interp_section.payload = std::move(interp_bytes).str();
    sections.push_back(std::move(interp_section));
  }
  storage::SnapshotStore store(dir);
  auto generation = store.Commit(sections);
  if (!generation.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.save_failures", 1);
    return generation.status();
  }
  snapshot_generation_.store(*generation, std::memory_order_relaxed);
  OPINEDB_METRIC_COUNT("storage.snapshot.saves", 1);
  OPINEDB_METRIC_GAUGE_SET("storage.snapshot.generation",
                           static_cast<double>(*generation));
  OPINEDB_METRIC_LATENCY_MS("storage.snapshot.save_ms",
                            timer.ElapsedMillis());
  return Status::OK();
}

Status OpineDb::OpenDatabase(const std::string& dir) {
  Timer timer;
  storage::SnapshotStore store(dir);
  auto snapshot = store.Recover();
  if (!snapshot.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return snapshot.status();
  }
  const std::string* schema_payload = snapshot->Find(kSchemaSection);
  const std::string* summaries_payload = snapshot->Find(kSummariesSection);
  if (schema_payload == nullptr || summaries_payload == nullptr) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return Status::DataLoss(
        "snapshot generation " + std::to_string(snapshot->generation) +
        " verified but lacks a schema/summaries section");
  }

  // Parse and vet the whole snapshot before touching any engine state:
  // a payload that fails to decode leaves the engine exactly as it was.
  std::istringstream schema_stream(*schema_payload);
  auto schema = LoadSchema(&schema_stream);
  if (!schema.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return schema.status();
  }
  auto summaries = DecodeSummaries(*schema, *summaries_payload);
  if (!summaries.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return summaries.status();
  }
  Status shape = CheckSummaryShape(*schema, *summaries,
                                   corpus_.num_entities(), embedder_->dim());
  if (!shape.ok()) {
    OPINEDB_METRIC_COUNT("storage.snapshot.load_failures", 1);
    return Status::InvalidArgument("snapshot does not fit this engine: " +
                                   shape.message());
  }

  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  schema_ = std::move(*schema);
  tables_.summaries = std::move(*summaries);
  // Summaries are the queryable state; the extraction relation was not
  // persisted and anything left from the pre-open build describes the
  // old schema/tables.
  tables_.ClearRelation();
  extractions_authoritative_ = false;
  // The journal (if any) belonged to the replaced state; EnableWal
  // again to pair with the opened generation and replay its tail.
  wal_.reset();
  wal_dir_.clear();
  RebuildDerivedState();
  // Every cache layer described the replaced summaries; the epoch bump
  // invalidates them wholesale.
  InvalidateCachesLocked();
  // Warm-start the interpretation cache from the snapshot's optional
  // section, tagged with the fresh epoch. Strictly an optimization:
  // an old-format snapshot (no section) or a corrupt payload opens
  // cold, never fails the open — unlike schema/summaries, this data is
  // re-derivable by simply executing queries.
  if (interp_cache_ != nullptr) {
    const std::string* interp_payload = snapshot->Find(kInterpCacheSection);
    if (interp_payload != nullptr) {
      std::istringstream interp_stream(*interp_payload);
      const uint64_t evictions_before = interp_cache_->evictions();
      const Status warm = cache::LoadInterpretationCache(
          &interp_stream, cache_epoch_.load(std::memory_order_relaxed),
          interp_cache_.get(),
          [this](const cache::InterpretationCache::Entry& entry) {
            return Bindable(schema_, embedder_->dim(), entry);
          });
      // A section saved under a larger budget loads through the same
      // LRU bound as live fills.
      const uint64_t evicted = interp_cache_->evictions() - evictions_before;
      if (evicted > 0) {
        OPINEDB_METRIC_COUNT("engine.cache.interp_evict", evicted);
      }
      if (warm.ok()) {
        OPINEDB_METRIC_COUNT("engine.cache.warm_entries",
                             interp_cache_->size());
      } else {
        OPINEDB_METRIC_COUNT("engine.cache.warm_load_failures", 1);
      }
    }
  }
  snapshot_generation_.store(snapshot->generation,
                             std::memory_order_relaxed);
  OPINEDB_METRIC_COUNT("storage.snapshot.loads", 1);
  OPINEDB_METRIC_GAUGE_SET("storage.snapshot.generation",
                           static_cast<double>(snapshot->generation));
  OPINEDB_METRIC_LATENCY_MS("storage.snapshot.load_ms",
                            timer.ElapsedMillis());
  return Status::OK();
}

Status OpineDb::AppendReviews(const std::vector<text::Review>& reviews) {
  // Exclusive for the whole batch: queries observe either none or all
  // of it, and the derived-state patches below need the same exclusion
  // as a rebuild.
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) return ReadOnlyError("AppendReviews");
  return ApplyReviewsLocked(reviews, /*journal=*/true);
}

Status OpineDb::ApplyReviewsLocked(const std::vector<text::Review>& reviews,
                                   bool journal) {
  if (reviews.empty()) return Status::OK();
  if (!pipeline_.has_value()) {
    return Status::FailedPrecondition(
        "AppendReviews requires the extraction pipeline retained by "
        "Build");
  }
  if (options_.aggregation.min_reviewer_reviews.has_value()) {
    // Retroactive filter: a reviewer's pre-existing reviews can cross
    // the threshold mid-append, which would require re-weighing
    // opinions already folded into the summaries — an additive fold
    // cannot express that. Reaggregate (full rebuild) can.
    return Status::FailedPrecondition(
        "AppendReviews cannot maintain min_reviewer_reviews "
        "incrementally (the filter is retroactive); use Reaggregate");
  }
  for (size_t i = 0; i < reviews.size(); ++i) {
    const text::EntityId entity = reviews[i].entity;
    if (entity < 0 ||
        static_cast<size_t>(entity) >= corpus_.num_entities()) {
      return Status::InvalidArgument(
          "AppendReviews: review " + std::to_string(i) +
          " names entity " + std::to_string(entity) + ", corpus has " +
          std::to_string(corpus_.num_entities()));
    }
  }

  obs::TraceSpan span("ingest.append");
  Timer timer;

  // Journal first: once Append returns OK the batch is fsync-durable,
  // and only then does any in-memory state change. An error here means
  // nothing was applied — the caller can retry the whole batch.
  if (journal && wal_.has_value()) {
    Timer wal_timer;
    Status appended = wal_->Append(EncodeReviewBatch(reviews));
    if (!appended.ok()) return appended;
    OPINEDB_METRIC_LATENCY_MS("storage.wal.append_ms",
                              wal_timer.ElapsedMillis());
  }

  // Fold the delta: the new reviews' extractions go through the same
  // range fold as Build, starting at the old relation size, so
  // appending in order is bit-identical to a full rebuild over the
  // extended corpus (the models it consults — classifier, embedder,
  // analyzer, review-index idf — are frozen).
  const size_t first = tables_.extractions.size();
  std::vector<text::EntityId> touched;
  touched.reserve(reviews.size());
  for (const auto& review : reviews) {
    const text::ReviewId id = corpus_.AddReview(
        review.entity, review.reviewer, review.date, review.body);
    const text::Review& stored =
        corpus_.reviews()[static_cast<size_t>(id)];
    // Same shift as Build step 1 — the scoring paths index this vector
    // by review id.
    review_sentiment_.push_back(
        std::max(0.0, analyzer_.ScoreDocument(stored.body)) + 0.05);
    for (auto& opinion : pipeline_->ExtractFromReview(stored)) {
      tables_.extractions.push_back(std::move(opinion));
    }
    touched.push_back(review.entity);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()),
                touched.end());
  const size_t num_opinions = tables_.extractions.size() - first;
  aggregator_->Append(corpus_, options_.aggregation, first, &tables_,
                      pool_.get());
  interpreter_->AppendNewExtractions();
  OPINEDB_METRIC_GAUGE_SET("columnar.bytes",
                           static_cast<double>(tables_.summaries.bytes()));

  // One epoch bump expires every result-cache and interpretation-cache
  // entry lazily: the next query that needs one refills it under the
  // shared lock (a ranking may depend on every entity, and the grown
  // variation table and attribute idf may change an interpretation).
  // The precomputed degree lists are engine state, so they are kept
  // current here: each list's predicate is prepared once against the
  // post-ingest interpreter.
  const uint64_t epoch =
      cache_epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  size_t patched = 0, rescored = 0, dropped = 0;
  for (auto it = precomputed_.begin(); it != precomputed_.end();) {
    PreparedPredicate prepared = PreparePredicate(
        it->first, /*key=*/nullptr, epoch, /*deadline=*/nullptr);
    PrecomputedList& list = it->second;
    // A list must never keep slots from a degraded or failed pass.
    bool keep = !prepared.interpretation.degraded;
    if (keep) {
      try {
        const ConditionScorer scorer(*this, it->first,
                                     prepared.interpretation, prepared.rep,
                                     prepared.sentiment);
        if (prepared.interpretation == list.interpretation) {
          // Additive ingest under an unchanged interpretation leaves
          // every untouched entity's degree bit-exact: rescore only the
          // touched slots.
          for (const text::EntityId entity : touched) {
            const size_t e = static_cast<size_t>(entity);
            list.degrees[e] = scorer.Score(e);
          }
          ++patched;
        } else {
          ScoreEveryEntity(scorer, corpus_.num_entities(), pool_.get(),
                           &list.degrees);
          list.interpretation = std::move(prepared.interpretation);
          ++rescored;
        }
      } catch (const std::exception&) {
        keep = false;
      }
    }
    if (keep) {
      ++it;
    } else {
      it = precomputed_.erase(it);
      ++dropped;
    }
  }

  span.AddAttribute("reviews", static_cast<uint64_t>(reviews.size()));
  span.AddAttribute("opinions", static_cast<uint64_t>(num_opinions));
  span.AddAttribute("entities_touched",
                    static_cast<uint64_t>(touched.size()));
  span.AddAttribute("replay", !journal);
  span.AddAttribute("lists_patched", static_cast<uint64_t>(patched));
  span.AddAttribute("lists_rescored", static_cast<uint64_t>(rescored));
  span.AddAttribute("lists_dropped", static_cast<uint64_t>(dropped));
  OPINEDB_METRIC_COUNT("engine.ingest.batches", 1);
  OPINEDB_METRIC_COUNT("engine.ingest.reviews", reviews.size());
  OPINEDB_METRIC_COUNT("engine.ingest.opinions", num_opinions);
  OPINEDB_METRIC_COUNT("engine.ingest.entities_touched", touched.size());
  OPINEDB_METRIC_LATENCY_MS("engine.ingest.apply_ms",
                            timer.ElapsedMillis());
  OPINEDB_METRIC_GAUGE_SET("engine.cache.epoch",
                           static_cast<double>(epoch));
  return Status::OK();
}

bool OpineDb::wal_enabled() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return wal_.has_value() && wal_->is_open();
}

bool OpineDb::wal_broken() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return wal_.has_value() && !wal_->is_open();
}

uint64_t OpineDb::wal_acknowledged_bytes() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return wal_.has_value() ? wal_->size() : 0;
}

std::string OpineDb::wal_dir() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return wal_dir_;
}

void OpineDb::SetReadOnly(bool read_only) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  read_only_ = read_only;
  OPINEDB_METRIC_GAUGE_SET("repl.read_only", read_only ? 1.0 : 0.0);
}

bool OpineDb::read_only() const {
  std::shared_lock<std::shared_mutex> lock(reconfig_mu_);
  return read_only_;
}

Status OpineDb::Promote() {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (!read_only_) {
    return Status::FailedPrecondition(
        "Promote: engine already accepts writes (not a follower)");
  }
  if (!wal_.has_value() || !wal_->is_open()) {
    // A primary that cannot journal would accept writes it may lose;
    // refuse and leave the follower consistent.
    return Status::FailedPrecondition(
        "Promote requires a healthy WAL (EnableWal, not broken)");
  }
  if (OPINEDB_FAULT_HIT("repl.promote")) {
    return Status::Internal("injected fault at repl.promote");
  }
  // Nothing to replay: ApplyReplicatedRecord applies each record in the
  // same critical section that journals it, and EnableWal replayed the
  // durable tail at startup — the in-memory state already equals the
  // verified WAL. Flipping the flag is the whole promotion.
  read_only_ = false;
  OPINEDB_METRIC_COUNT("repl.promotions", 1);
  OPINEDB_METRIC_GAUGE_SET("repl.read_only", 0.0);
  return Status::OK();
}

Result<size_t> OpineDb::ApplyReplicatedRecord(const std::string& payload) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (!read_only_) {
    return Status::FailedPrecondition(
        "ApplyReplicatedRecord: engine is not in follower mode "
        "(SetReadOnly first — a primary applying shipped records would "
        "fork the log)");
  }
  if (!wal_.has_value() || !wal_->is_open()) {
    return Status::FailedPrecondition(
        "ApplyReplicatedRecord requires a healthy follower WAL "
        "(EnableWal first; a broken WAL cannot acknowledge offsets)");
  }
  auto batch = DecodeReviewBatch(payload);
  if (!batch.ok()) return batch.status();
  // journal=true: the follower re-journals the decoded batch.
  // EncodeReviewBatch(DecodeReviewBatch(p)) == p, so the bytes appended
  // here equal the shipped payload and the follower's segment stays
  // byte-identical to the primary's at every acknowledged offset.
  Status applied = ApplyReviewsLocked(*batch, /*journal=*/true);
  if (!applied.ok()) return applied;
  OPINEDB_METRIC_COUNT("repl.records_applied", 1);
  return batch->size();
}

Status OpineDb::EnableWal(const std::string& dir) {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("EnableWal: create_directories(" + dir +
                            "): " + ec.message());
  }
  const uint64_t base =
      snapshot_generation_.load(std::memory_order_relaxed);
  const std::string path = dir + "/" + storage::WalFileName(base);

  // Recovery half: replay the tail a crash may have left behind. The
  // segment paired with the served generation is read, everything past
  // the first corrupt record is physically truncated away, and each
  // surviving batch re-enters through the exact live-ingest path
  // (minus journaling — these records are already durable).
  size_t replayed = 0;
  auto tail = storage::ReadWal(path);
  if (tail.ok()) {
    if (tail->base_generation != base) {
      // A header naming another generation cannot be trusted to apply
      // on top of the served snapshot: restart the segment empty.
      Status truncated = storage::TruncateWal(path, 0);
      if (!truncated.ok()) return truncated;
      tail->records.clear();
    } else if (tail->truncated) {
      Status truncated = storage::TruncateWal(path, tail->valid_bytes);
      if (!truncated.ok()) return truncated;
    }
    for (const auto& record : tail->records) {
      auto batch = DecodeReviewBatch(record);
      if (!batch.ok()) return batch.status();
      Status applied = ApplyReviewsLocked(*batch, /*journal=*/false);
      if (!applied.ok()) return applied;
      ++replayed;
    }
  } else if (tail.status().code() != StatusCode::kNotFound) {
    return tail.status();
  }

  auto writer = storage::WalWriter::Open(path, base);
  if (!writer.ok()) return writer.status();
  wal_ = std::move(*writer);
  wal_dir_ = dir;
  if (replayed > 0) {
    OPINEDB_METRIC_COUNT("storage.wal.replayed_records", replayed);
  }
  OPINEDB_METRIC_GAUGE_SET("storage.wal.base_generation",
                           static_cast<double>(base));
  return Status::OK();
}

Status OpineDb::Checkpoint() {
  // One exclusive critical section across save + rotation: no append
  // can slip between the snapshot commit and the segment swap, so the
  // new segment is empty exactly when the new generation is complete.
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (read_only_) {
    // A follower rotating its segment out of step with the primary
    // would break generation lockstep; the replication client calls
    // ReplicaCheckpoint when the primary signals segment-complete.
    return ReadOnlyError("Checkpoint");
  }
  if (!wal_.has_value()) {
    return Status::FailedPrecondition("Checkpoint requires EnableWal");
  }
  return CheckpointLocked();
}

Status OpineDb::ReplicaCheckpoint() {
  std::unique_lock<std::shared_mutex> lock(reconfig_mu_);
  if (!read_only_) {
    return Status::FailedPrecondition(
        "ReplicaCheckpoint is the follower-side rotation; primaries "
        "use Checkpoint()");
  }
  if (!wal_.has_value()) {
    return Status::FailedPrecondition(
        "ReplicaCheckpoint requires EnableWal");
  }
  return CheckpointLocked();
}

Status OpineDb::CheckpointLocked() {
  Timer timer;
  Status saved = SaveDatabaseLocked(wal_dir_);
  if (!saved.ok()) return saved;
  // The committed generation contains every journaled batch (they were
  // applied to the live state before acknowledgement), so the old
  // segment is redundant from here on.
  if (OPINEDB_FAULT_HIT("storage.wal_fold")) {
    // Simulated crash between snapshot commit and segment retirement:
    // the stale segment stays on disk — recovery ignores it (its base
    // is older than the newest generation) — and journaling stops,
    // exactly as if the process had died here.
    wal_.reset();
    return Status::Internal("injected crash at storage.wal_fold");
  }
  wal_->Close();
  const uint64_t generation =
      snapshot_generation_.load(std::memory_order_relaxed);
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(wal_dir_, ec)) {
    uint64_t segment_base = 0;
    if (!storage::ParseWalFileName(entry.path().filename().string(),
                                   &segment_base)) {
      continue;
    }
    if (segment_base != generation && !pins_.IsPinned(segment_base)) {
      // A pinned segment is one a lagging follower is actively pulling;
      // retiring it mid-pull would force a needless snapshot catch-up.
      // The pin expires with the follower's session and the next
      // checkpoint retires the segment then.
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }
  auto writer = storage::WalWriter::Open(
      wal_dir_ + "/" + storage::WalFileName(generation), generation);
  if (!writer.ok()) {
    wal_.reset();
    return writer.status();
  }
  wal_ = std::move(*writer);
  OPINEDB_METRIC_COUNT("storage.wal.checkpoints", 1);
  OPINEDB_METRIC_LATENCY_MS("storage.wal.checkpoint_ms",
                            timer.ElapsedMillis());
  return Status::OK();
}

double OpineDb::TextFallbackDegree(const std::string& predicate,
                                   text::EntityId entity) const {
  return TextFallbackDegree(BindTextFallback(predicate), entity);
}

index::InvertedIndex::BoundQuery OpineDb::BindTextFallback(
    const std::string& predicate) const {
  return entity_index_.Bind(text::Tokenizer().Tokenize(predicate));
}

double OpineDb::TextFallbackDegree(
    const index::InvertedIndex::BoundQuery& query,
    text::EntityId entity) const {
  OPINEDB_FAULT("score.text_fallback");
  const double bm25 = entity_index_.Score(entity, query);
  return Sigmoid(bm25 - kTextFallbackC);
}

OpineDb::PreparedPredicate OpineDb::PreparePredicate(
    const std::string& text, const std::string* key, uint64_t epoch,
    const QueryDeadline* deadline) const {
  cache::InterpretationCache* cache =
      key != nullptr ? interp_cache_.get() : nullptr;
  PreparedPredicate prepared;
  if (cache != nullptr) {
    // The cascade output is a pure function of (normalized predicate,
    // epoch), so a hit skips the w2v / co-occurrence lookups and the
    // embedding prologue whole.
    try {
      OPINEDB_FAULT("cache.interp_lookup");
      cache::InterpretationCache::Entry entry;
      if (cache->Lookup(*key, epoch, &entry)) {
        OPINEDB_METRIC_COUNT("engine.cache.interp_hit", 1);
        prepared.interpretation = std::move(entry.interpretation);
        prepared.rep = std::move(entry.rep);
        prepared.sentiment = entry.sentiment;
        return prepared;
      }
      OPINEDB_METRIC_COUNT("engine.cache.interp_miss", 1);
    } catch (const std::exception&) {
      OPINEDB_METRIC_COUNT("engine.fallback.interp_cache", 1);
    }
  }
  try {
    OPINEDB_FAULT("interpret.embed");
    prepared.interpretation = interpreter_->Interpret(text, deadline);
    prepared.rep = embedder_->Represent(text);
    prepared.sentiment = analyzer_.ScorePhrase(text);
  } catch (const std::exception&) {
    // Interpretation machinery unusable: degrade to the text-retrieval
    // stage.
    prepared = PreparedPredicate();
    prepared.interpretation.degraded = true;
    OPINEDB_METRIC_COUNT("engine.fallback.interpret", 1);
  }
  if (cache != nullptr && deadline == nullptr &&
      !prepared.interpretation.degraded) {
    // Fill only full-fidelity entries: a degraded interpretation would
    // be served forever while the underlying fault is long gone, and a
    // deadline-shaped one may have skipped stages.
    try {
      OPINEDB_FAULT("cache.interp_insert");
      cache::InterpretationCache::Entry entry;
      entry.interpretation = prepared.interpretation;
      entry.rep = prepared.rep;
      entry.sentiment = prepared.sentiment;
      entry.epoch = epoch;
      InsertInterpretation(cache, *key, std::move(entry));
    } catch (const std::exception&) {
      OPINEDB_METRIC_COUNT("engine.fallback.interp_cache", 1);
    }
  }
  return prepared;
}

Result<double> OpineDb::PredicateDegreeOfTruth(const std::string& predicate,
                                               text::EntityId entity) const {
  // Top-level entry point (like ExecuteQuery): hold the reconfiguration
  // lock shared so tables_/interpreter_ cannot be rebuilt mid-call.
  std::shared_lock<std::shared_mutex> reconfig_lock(reconfig_mu_);
  if (entity < 0 || static_cast<size_t>(entity) >= corpus_.num_entities()) {
    return Status::InvalidArgument(
        "PredicateDegreeOfTruth: entity " + std::to_string(entity) +
        " outside [0, " + std::to_string(corpus_.num_entities()) + ")");
  }
  std::string key;
  if (interp_cache_ != nullptr) key = NormalizePredicate(predicate);
  const PreparedPredicate prepared = PreparePredicate(
      predicate, interp_cache_ != nullptr ? &key : nullptr,
      cache_epoch_.load(std::memory_order_relaxed), /*deadline=*/nullptr);
  try {
    return ConditionScorer(*this, predicate, prepared.interpretation,
                           prepared.rep, prepared.sentiment)
        .Score(static_cast<size_t>(entity));
  } catch (const std::exception& e) {
    return Status::Internal(std::string("PredicateDegreeOfTruth: ") +
                            e.what());
  }
}

Result<QueryResult> OpineDb::Execute(const std::string& sql) const {
  return Execute(sql, QueryControl());
}

Result<QueryResult> OpineDb::Execute(const std::string& sql,
                                     const QueryControl& control) const {
  auto query = ParseSubjectiveSql(sql);
  if (!query.ok()) return query.status();
  return ExecuteQuery(*query, control);
}

Result<QueryResult> OpineDb::ExecuteQuery(const SubjectiveQuery& query) const {
  return ExecuteQuery(query, QueryControl());
}

Result<QueryResult> OpineDb::ExecuteQuery(const SubjectiveQuery& query,
                                          const QueryControl& control) const {
  // Shared for the whole query: reconfigurators (Reaggregate,
  // SetNumThreads, PrecomputeDegrees, ...) take this exclusively, so
  // the pool/tables/lists read below stay alive and coherent until we
  // return.
  std::shared_lock<std::shared_mutex> reconfig_lock(reconfig_mu_);
  // Thread the deadline only when there is something to poll, so the
  // unbounded path never pays for (or branches on) expiry checks.
  const QueryDeadline* deadline =
      control.deadline.active() ? &control.deadline : nullptr;
  Timer total;
  Timer phase;
  QueryResult output;
  // Full tracing installs a per-query ring buffer as the calling
  // thread's ambient trace context; every TraceSpan below (and inside
  // the interpreter on this thread) records into it.
  // Worker threads never see the context, so spans cannot perturb the
  // parallel-vs-serial bit-identity contract.
  std::optional<obs::TraceScope> trace_scope;
  if (options_.trace_level == obs::TraceLevel::kFull) {
    output.trace = std::make_shared<obs::TraceBuffer>();
    trace_scope.emplace(output.trace.get());
  }
  obs::TraceSpan query_span("execute_query");
  query_span.AddAttribute("table", query.table);
  query_span.AddAttribute("conditions",
                          static_cast<uint64_t>(query.conditions.size()));
  output.stats.threads_used = pool_ != nullptr ? pool_->num_threads() : 1;
  query_span.AddAttribute("threads",
                          static_cast<uint64_t>(output.stats.threads_used));
  // "Which data am I serving": the snapshot generation behind the
  // summaries (0 = built in-process, never saved/loaded), so traces
  // correlate with OpenDatabase / Checkpoint events. Recorded only when
  // a store is in play so pre-persistence trace goldens stay unchanged.
  const uint64_t snapshot_generation =
      snapshot_generation_.load(std::memory_order_relaxed);
  if (snapshot_generation > 0) {
    query_span.AddAttribute("snapshot_generation", snapshot_generation);
  }
  auto table_result = catalog_.GetTable(query.table);
  if (!table_result.ok()) return table_result.status();
  const storage::Table* table = *table_result;

  // ----------------------------------------------------- result cache.
  // Consulted before planning: a hit skips the whole pipeline. EXPLAIN
  // bypasses the cache entirely (it wants this execution's plan text).
  // The epoch is read once up front; mutators bump it under the
  // exclusive reconfiguration lock, so it cannot move mid-query.
  const uint64_t cache_epoch = cache_epoch_.load(std::memory_order_relaxed);
  const bool result_cacheable = result_cache_ != nullptr && !query.explain;
  bool result_cache_fault = false;
  std::string cache_key;
  if (result_cacheable) {
    cache_key = CanonicalQueryKey(query);
    query_span.AddAttribute("query_fingerprint",
                            cache::ResultCache::Fingerprint(cache_key));
    try {
      OPINEDB_FAULT("cache.result_lookup");
      cache::CachedResult hit;
      if (result_cache_->Lookup(cache_key, cache_epoch, &hit)) {
        // Bit-identical to execution by the differential cache-
        // equivalence contract (docs/CACHING.md): results,
        // interpretations and watermark are the fill-time values, `plan`
        // reports the shape that produced them, and stats/trace are this
        // call's own (nothing executed, so the phase timings and
        // entities_scored stay zero).
        output.results = std::move(hit.results);
        output.interpretations = std::move(hit.interpretations);
        output.plan = hit.plan;
        output.watermark = hit.watermark;
        output.stats.result_cache_hit = true;
        query_span.AddAttribute("result_cache", "hit");
        query_span.AddAttribute("plan", PlanKindName(output.plan));
        output.stats.total_ms = total.ElapsedMillis();
        if (options_.trace_level >= obs::TraceLevel::kStats) {
          OPINEDB_METRIC_COUNT("engine.queries", 1);
          OPINEDB_METRIC_COUNT("engine.cache.hit", 1);
          OPINEDB_METRIC_LATENCY_MS("engine.total_ms",
                                    output.stats.total_ms);
          OPINEDB_METRIC_GAUGE_SET(
              "engine.cache.bytes",
              static_cast<double>(result_cache_->bytes()));
          OPINEDB_METRIC_GAUGE_SET("engine.cache.epoch",
                                   static_cast<double>(cache_epoch));
        }
        return output;
      }
      query_span.AddAttribute("result_cache", "miss");
      if (options_.trace_level >= obs::TraceLevel::kStats) {
        OPINEDB_METRIC_COUNT("engine.cache.miss", 1);
      }
    } catch (const std::exception&) {
      // Cache machinery unusable: answer by full execution (complete
      // and bit-identical, but off the preferred path → degraded), and
      // keep this query out of the cache.
      result_cache_fault = true;
      OPINEDB_METRIC_COUNT("engine.fallback.result_cache", 1);
    }
  }

  // ------------------------------------------------------------- plan.
  // Lower the parsed AST into its logical view, then pick the physical
  // operator chain. Every plan shape is bit-identical to the dense scan
  // (see docs/QUERY_PLANNER.md); the planner only trades work.
  const LogicalPlan logical = AnalyzeQuery(query);
  PlannerContext planner_context;
  planner_context.num_entities = corpus_.num_entities();
  planner_context.variant = options_.variant;
  const PhysicalPlan physical = SelectPlan(query, logical, planner_context);
  output.plan = physical.kind;
  query_span.AddAttribute("plan", PlanKindName(physical.kind));
  if (query.explain) {
    // EXPLAIN plans but does not execute.
    output.plan_text = ExplainPlan(query, logical, physical, planner_context);
    output.stats.total_ms = total.ElapsedMillis();
    return output;
  }

  // Prepare every subjective condition once, up front (serial: a
  // handful of conditions against thousands of entities). A condition
  // with a precomputed list needs no preparation: the list carries its
  // interpretation. The key is normalized only when a cache or a list
  // can use it.
  const size_t num_conditions = query.conditions.size();
  output.interpretations.resize(num_conditions);
  std::vector<embedding::Vec> reps(num_conditions);
  std::vector<double> sentis(num_conditions, 0.0);
  std::vector<const std::vector<double>*> precomputed;
  if (!precomputed_.empty()) precomputed.assign(num_conditions, nullptr);
  bool degraded = false;
  {
    OPINEDB_SPAN("interpret");
    for (size_t c = 0; c < num_conditions; ++c) {
      const Condition& condition = query.conditions[c];
      if (condition.kind != Condition::Kind::kSubjective) continue;
      std::string key;
      if (interp_cache_ != nullptr || !precomputed_.empty()) {
        key = NormalizePredicate(condition.subjective);
      }
      if (!precomputed_.empty()) {
        auto it = precomputed_.find(key);
        if (it != precomputed_.end()) {
          output.interpretations[c] = it->second.interpretation;
          precomputed[c] = &it->second.degrees;
          continue;
        }
      }
      PreparedPredicate prepared = PreparePredicate(
          condition.subjective, interp_cache_ != nullptr ? &key : nullptr,
          cache_epoch, deadline);
      degraded = degraded || prepared.interpretation.degraded;
      output.interpretations[c] = std::move(prepared.interpretation);
      reps[c] = std::move(prepared.rep);
      sentis[c] = prepared.sentiment;
    }
  }
  output.stats.interpret_ms = phase.ElapsedMillis();

  // -------------------------------------------------------------- run.
  ExecContext ctx;
  ctx.db = this;
  ctx.query = &query;
  ctx.logical = &logical;
  ctx.table = table;
  ctx.output = &output;
  ctx.reps = &reps;
  ctx.sentis = &sentis;
  ctx.precomputed = std::move(precomputed);
  ctx.num_entities = corpus_.num_entities();
  ctx.deadline = deadline;
  phase.Reset();
  try {
    if (physical.kind == PlanKind::kFilteredScan) {
      Status status = ObjectiveFilter(&ctx);
      if (!status.ok()) return status;
    }
    Status status = SubjectiveScore(&ctx);
    if (!status.ok()) return status;
    output.stats.scoring_ms = phase.ElapsedMillis();
    phase.Reset();
    status = Rank(&ctx);
    if (!status.ok()) return status;
    output.stats.rank_ms = phase.ElapsedMillis();
  } catch (const std::exception& e) {
    // Backstop: no exception escapes ExecuteQuery. Anything the
    // per-stage fallbacks could not absorb becomes a Status.
    return Status::Internal(std::string("query execution failed: ") +
                            e.what());
  }
  output.partial = ctx.partial;
  output.watermark = output.stats.entities_scored;
  output.degraded = degraded || result_cache_fault ||
                    ctx.degraded.load(std::memory_order_relaxed);
  if (output.partial) {
    query_span.AddAttribute("partial", true);
    OPINEDB_METRIC_COUNT("engine.deadline_exceeded", 1);
  }
  if (output.degraded) query_span.AddAttribute("degraded", true);
  output.stats.total_ms = total.ElapsedMillis();
  // Publish the per-query façade numbers to the process registry (the
  // registry-backed equivalents of ExecutionStats).
  if (options_.trace_level >= obs::TraceLevel::kStats) {
    OPINEDB_METRIC_COUNT("engine.queries", 1);
    OPINEDB_METRIC_COUNT("engine.entities_scored",
                         output.stats.entities_scored);
    OPINEDB_METRIC_COUNT("engine.cache_hits", output.stats.cache_hits);
    OPINEDB_METRIC_COUNT("engine.cache_misses", output.stats.cache_misses);
    OPINEDB_METRIC_LATENCY_MS("engine.interpret_ms",
                              output.stats.interpret_ms);
    OPINEDB_METRIC_LATENCY_MS("engine.scoring_ms", output.stats.scoring_ms);
    OPINEDB_METRIC_LATENCY_MS("engine.rank_ms", output.stats.rank_ms);
    OPINEDB_METRIC_LATENCY_MS("engine.total_ms", output.stats.total_ms);
    // Served-state gauges (see the span attributes above): operators
    // scrape these to tell which snapshot generation and which cache
    // epoch answered recent queries.
    OPINEDB_METRIC_GAUGE_SET("storage.snapshot.generation",
                             static_cast<double>(snapshot_generation));
    if (result_cache_ != nullptr || interp_cache_ != nullptr) {
      OPINEDB_METRIC_GAUGE_SET("engine.cache.epoch",
                               static_cast<double>(cache_epoch));
    }
    // The metric macros cache their instrument in a function-local
    // static, so each plan kind gets its own literal call site.
    switch (physical.kind) {
      case PlanKind::kDenseScan:
        OPINEDB_METRIC_COUNT("engine.plan.dense_scan", 1);
        break;
      case PlanKind::kFilteredScan:
        OPINEDB_METRIC_COUNT("engine.plan.filtered_scan", 1);
        break;
    }
  }
  // --------------------------------------------------------- cache fill.
  // Only full-fidelity answers are cacheable: a partial result reflects
  // this call's deadline, a degraded one reflects a transient failure —
  // both would be served verbatim (and wrongly marked clean) on a hit.
  // The fault site sits before any cache mutation, so a fired fill
  // fault leaves the cache exactly as it was.
  if (result_cacheable && !result_cache_fault && !output.partial &&
      !output.degraded) {
    try {
      OPINEDB_FAULT("cache.result_insert");
      cache::CachedResult value;
      value.results = output.results;
      value.interpretations = output.interpretations;
      value.plan = output.plan;
      value.watermark = output.watermark;
      const size_t evicted =
          result_cache_->Insert(cache_key, cache_epoch, std::move(value));
      if (options_.trace_level >= obs::TraceLevel::kStats) {
        if (evicted > 0) {
          OPINEDB_METRIC_COUNT("engine.cache.evict", evicted);
        }
        OPINEDB_METRIC_GAUGE_SET(
            "engine.cache.bytes",
            static_cast<double>(result_cache_->bytes()));
      }
    } catch (const std::exception&) {
      OPINEDB_METRIC_COUNT("engine.fallback.result_cache", 1);
    }
  }
  return output;
}

}  // namespace opinedb::core
