#ifndef OPINEDB_CORE_ENGINE_H_
#define OPINEDB_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_config.h"
#include "common/deadline.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/aggregator.h"
#include "core/attribute_classifier.h"
#include "core/interpreter.h"
#include "core/membership.h"
#include "core/planner.h"
#include "core/query.h"
#include "core/schema.h"
#include "embedding/phrase_rep.h"
#include "embedding/word2vec.h"
#include "extract/pipeline.h"
#include "fuzzy/logic.h"
#include "index/inverted_index.h"
#include "obs/trace.h"
#include "sentiment/analyzer.h"
#include "storage/pins.h"
#include "storage/table.h"
#include "storage/wal.h"
#include "text/corpus.h"

namespace opinedb::cache {
class InterpretationCache;
class ResultCache;
}  // namespace opinedb::cache

namespace opinedb::core {

/// Engine-wide options.
struct EngineOptions {
  /// Fuzzy-logic variant for combining degrees of truth.
  fuzzy::Variant variant = fuzzy::Variant::kProduct;
  /// When false, membership functions use the no-marker feature path
  /// (scanning the extraction table) — the Table 7 ablation.
  bool use_markers = true;
  /// Constant c of the text-retrieval fallback: degree of truth =
  /// sigmoid(BM25(D, q) - c).
  double text_fallback_c = 4.0;
  /// word2vec training options for the corpus embeddings.
  embedding::Word2VecOptions w2v;
  /// Interpreter thresholds.
  InterpreterOptions interpreter;
  /// Aggregation behaviour.
  AggregationOptions aggregation;
  /// Markers per attribute when markers must be induced automatically.
  size_t induced_markers = 4;
  /// Seed-expansion width for the attribute classifier.
  size_t seed_expansions = 3;
  /// Worker threads for the parallel execution layer: 0 = hardware
  /// concurrency, 1 = the serial path (no pool). Parallel results are
  /// bit-identical to serial — see DESIGN.md "Concurrency model".
  size_t num_threads = 0;
  /// Observability level (see DESIGN.md "Observability"): kOff costs one
  /// branch per instrumentation site, kStats records into the process
  /// MetricsRegistry, kFull additionally captures per-query trace spans
  /// into QueryResult::trace. Tracing never perturbs results: parallel
  /// executions stay bit-identical to serial at every level.
  obs::TraceLevel trace_level = obs::TraceLevel::kOff;
  /// Ring-buffer capacity (spans per query) at trace_level == kFull;
  /// overflow keeps the newest spans.
  size_t trace_capacity = 256;
  /// Physical-plan override for ExecuteQuery (kAuto = cost-based
  /// choice). Forcing a shape the query is not eligible for falls back
  /// to the automatic choice; every shape is bit-identical, so this
  /// only trades work — used by plan-equivalence tests and ablations.
  PlanForce force_plan = PlanForce::kAuto;
  /// Result / interpretation caching (both layers default OFF; see
  /// docs/CACHING.md). Reconfigurable at runtime via ConfigureCaches.
  cache::CacheConfig cache;
  /// Shard count of an attached DegreeCache built with the default
  /// constructor argument (lock striping for concurrent serving).
  size_t degree_cache_shards = 16;
};

/// Per-query observability façade (threads, work, cache traffic and
/// per-phase wall time), threaded through QueryResult so parallel
/// speedups are measurable from the outside. These fields are the
/// query-local view of the same quantities the engine publishes to the
/// process-wide obs::MetricsRegistry (counters `engine.*`, histograms
/// `engine.*_ms`) when EngineOptions::trace_level >= kStats; the struct
/// is kept for source compatibility with pre-observability callers.
struct ExecutionStats {
  /// Concurrent strands used (1 = serial path).
  size_t threads_used = 1;
  /// Entities scored (the size of the parallel fan-out).
  size_t entities_scored = 0;
  /// Subjective degree lists served by the attached DegreeCache.
  size_t cache_hits = 0;
  /// Subjective degree lists computed from scratch this query.
  size_t cache_misses = 0;
  /// Predicate interpretation + query embedding (serial prologue).
  double interpret_ms = 0.0;
  /// Per-entity degree-of-truth computation (the parallel phase).
  double scoring_ms = 0.0;
  /// WHERE-tree combination, filtering and ranking (serial epilogue).
  double rank_ms = 0.0;
  /// End-to-end wall time of ExecuteQuery.
  double total_ms = 0.0;
  /// True when the whole result was served from the result cache (the
  /// per-phase timings above are then all zero: nothing executed).
  bool result_cache_hit = false;
};

/// Per-call serving controls. Default-constructed = no limits, which is
/// also the behaviour of the control-less Execute overloads.
struct QueryControl {
  /// Wall-clock budget and/or cancellation token polled at operator
  /// checkpoints (per condition, per chunk, per TA round). When it
  /// expires mid-query, ExecuteQuery stops starting new work and
  /// returns a QueryResult with partial = true whose ranking is
  /// prefix-consistent: every emitted score is the exact full score.
  /// Configure with QueryDeadline::AfterMillis and/or set_token.
  QueryDeadline deadline;
};

/// One ranked answer.
struct RankedResult {
  text::EntityId entity = 0;
  std::string entity_name;
  /// Final degree of truth of the whole WHERE clause.
  double score = 0.0;
};

/// Execution output: the ranking plus per-predicate interpretations (for
/// explanation / provenance).
struct QueryResult {
  std::vector<RankedResult> results;
  /// For each condition index, the interpretation used (objective
  /// conditions get a default-constructed entry).
  std::vector<PredicateInterpretation> interpretations;
  /// How the query ran (threads, cache traffic, per-phase wall time).
  ExecutionStats stats;
  /// The physical plan shape the planner chose (see PlanKindName).
  PlanKind plan = PlanKind::kDenseScan;
  /// Rendered plan text; filled only for EXPLAIN statements (which
  /// plan but do not execute, leaving `results` empty).
  std::string plan_text;
  /// Per-query span ring buffer (null unless trace_level == kFull).
  /// Render with trace->RenderTree() or trace->ToJson().
  std::shared_ptr<obs::TraceBuffer> trace;
  /// True when the QueryControl deadline (or cancellation token) stopped
  /// execution early. The ranking is then prefix-consistent: it equals
  /// the full query's ranking restricted to the candidates scored before
  /// expiry, and every emitted score is the exact full score.
  bool partial = false;
  /// True when any stage fell back to a cheaper path after a failure
  /// (interpreter stage, cache access, per-entity scoring, TA): the
  /// answer is complete but was not produced on the preferred path. See
  /// the engine.fallback.* counters and docs/ROBUSTNESS.md.
  bool degraded = false;
  /// Entities scored to produce `results` — for a partial result, the
  /// exact prefix the ranking is consistent over. Equals
  /// stats.entities_scored when the query executed; a result-cache hit
  /// carries the figure of the execution that filled the entry (its own
  /// stats.entities_scored is 0), so the answer is the same either way.
  size_t watermark = 0;
};

class ColumnarSummaryStore;
class ColumnarTable;
class DegreeCache;

/// OpineDB: the subjective database engine (Fig. 4).
///
/// Owns the corpus, the extraction results, the derived marker summaries
/// and all models; executes subjective SQL end to end:
///
///   OpineDb db = OpineDb::Build(corpus, schema, pipeline, options);
///   db.SetObjectiveTable(hotels);   // rows in entity-id order
///   auto result = db.Execute("select * from Hotels where ...");
class OpineDb {
 public:
  /// Builds the full subjective database: trains embeddings on the
  /// corpus, trains the attribute classifier from the schema seeds, runs
  /// the extraction pipeline, induces markers where the schema leaves
  /// them empty, and aggregates marker summaries.
  static std::unique_ptr<OpineDb> Build(
      text::ReviewCorpus corpus, SubjectiveSchema schema,
      const extract::ExtractionPipeline& pipeline,
      EngineOptions options = EngineOptions());

  /// Registers the objective table. Row i must describe entity i.
  Status SetObjectiveTable(storage::Table table);

  /// Trains the membership model from labeled (features, y) tuples.
  /// Rejects tuples containing non-finite features (a NaN weight would
  /// silently poison every later degree of truth).
  Status TrainMembership(
      const std::vector<MembershipModel::LabeledTuple>& tuples,
      uint64_t seed = 42);

  /// Parses and executes a subjective SQL string.
  Result<QueryResult> Execute(const std::string& sql) const;

  /// Executes a parsed query.
  Result<QueryResult> ExecuteQuery(const SubjectiveQuery& query) const;

  /// Deadline/cancellation-aware variants: `control` carries a wall-
  /// clock budget and/or a cancellation token that the engine polls at
  /// operator checkpoints. An over-budget query returns early with
  /// QueryResult::partial = true and whatever prefix-consistent top-k
  /// survived, never an error. `control` must outlive the call.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryControl& control) const;
  Result<QueryResult> ExecuteQuery(const SubjectiveQuery& query,
                                   const QueryControl& control) const;

  /// Degree of truth of a subjective predicate for one entity (runs the
  /// interpreter; used by experiments that bypass SQL).
  double PredicateDegreeOfTruth(const std::string& predicate,
                                text::EntityId entity) const;

  /// Text-retrieval degree of truth: sigmoid(BM25(D_entity, q) - c).
  double TextFallbackDegree(const std::string& predicate,
                            text::EntityId entity) const;

  /// The bind-once form of the text-retrieval fallback: the predicate
  /// tokenized and resolved against the entity index, for scoring many
  /// entities with the overload below.
  index::InvertedIndex::BoundQuery BindTextFallback(
      const std::string& predicate) const;

  /// TextFallbackDegree for a predicate bound by BindTextFallback; the
  /// string overload is this over a fresh binding. Fires the
  /// score.text_fallback fault site once per call.
  double TextFallbackDegree(const index::InvertedIndex::BoundQuery& query,
                            text::EntityId entity) const;

  /// Re-aggregates marker summaries under different review filters (e.g.
  /// "only reviewers with >= 10 reviews"); replaces the current tables
  /// and invalidates any attached degree cache (its lists were computed
  /// against the old summaries). Serialized against in-flight queries by
  /// the reconfiguration lock.
  ///
  /// Requires the extraction relation to be the authoritative source of
  /// the served summaries (true after Build and kept true by
  /// AppendReviews). After InstallSummaries or OpenDatabase the relation
  /// is empty or unrelated, and a rebuild from it would silently wipe
  /// the installed summaries — that call returns FailedPrecondition and
  /// leaves the engine untouched.
  Status Reaggregate(const AggregationOptions& aggregation);

  /// Incremental ingest (Section 4.2.2: "the marker summaries can be
  /// incrementally computed"): appends `reviews` to the corpus, runs the
  /// extraction pipeline on just the new reviews, and folds each new
  /// opinion into the existing marker summaries with
  /// Aggregator::AddOpinion — bit-identical to rebuilding from the full
  /// extended extraction relation, because the per-opinion fold is
  /// exactly Build's loop body and the models it consults (classifier,
  /// embedder, analyzer, the idf from the frozen review index) are not
  /// retrained by ingest. Review `id` fields are ignored; ids are
  /// assigned by the corpus in append order.
  ///
  /// Cache maintenance is surgical rather than wholesale: the cache
  /// epoch is bumped once (result-cache entries lazily expire — a
  /// ranking may depend on every entity, so per-entity invalidation is
  /// unsound there), interpretation-cache entries are re-derived and
  /// re-tagged at the new epoch, and an attached degree cache is patched
  /// in place for just the touched entities (DegreeCache::
  /// RefreshAfterIngest). Per-entity data epochs (entity_data_epoch)
  /// advance only for entities with new reviews.
  ///
  /// When a WAL is enabled (EnableWal) the batch is journaled —
  /// append + fsync — before any state changes; an error from the
  /// journal means nothing was applied. Fails with FailedPrecondition
  /// when AggregationOptions::min_reviewer_reviews is set (that filter
  /// is retroactive: a reviewer's old reviews may cross the threshold
  /// mid-append, which an additive fold cannot express) and with
  /// InvalidArgument for out-of-range entity ids. Serialized against
  /// in-flight queries by the reconfiguration lock.
  Status AppendReviews(const std::vector<text::Review>& reviews);

  /// Enables write-ahead journaling of AppendReviews batches into `dir`
  /// (created if needed), pairing with the snapshot store in the same
  /// directory. First replays any tail left by a crash: the segment
  /// named after the current snapshot generation is read, records past
  /// the first corrupt one are truncated away, and each surviving batch
  /// is re-applied through the exact live-ingest path (minus
  /// journaling). Recovery is therefore OpenDatabase(dir) — newest
  /// verified generation — followed by EnableWal(dir) — tail replay.
  /// While a WAL is active, SaveDatabase is rejected in favour of
  /// Checkpoint(), which keeps segment and generation in lockstep.
  Status EnableWal(const std::string& dir);

  /// Folds the WAL into a new snapshot generation: saves the current
  /// state (which already contains every journaled batch) to the WAL
  /// directory, retires the folded segments, and starts a fresh empty
  /// segment named after the new generation. Holds one exclusive lock
  /// across the whole fold, so no append can slip between the save and
  /// the rotation. Requires EnableWal. See docs/PERSISTENCE.md.
  Status Checkpoint();

  /// True when EnableWal succeeded and the journal is accepting appends.
  bool wal_enabled() const;

  /// True when a WAL was enabled but an append failure broke it: the
  /// durable suffix is unknown, every later write is rejected, and
  /// /healthz reports "wal": "broken". Per-engine truth behind the
  /// process-wide storage.wal.broken gauge (which is ambiguous with two
  /// engines per process).
  bool wal_broken() const;

  /// Durable, acknowledged length of the active WAL segment (header
  /// included); 0 when no WAL is enabled. The replication source clamps
  /// what it ships to this bound so a record whose fsync failed — bytes
  /// possibly visible in the page cache but never acknowledged — is
  /// never replicated.
  uint64_t wal_acknowledged_bytes() const;

  /// Directory passed to EnableWal ("" when no WAL is enabled).
  std::string wal_dir() const;

  // ------------------------------------------------- replication role.

  /// Flips follower (read-only) mode. While read-only, every mutating
  /// entry point — AppendReviews, Reaggregate, TrainMembership,
  /// InstallSummaries, SaveDatabase, Checkpoint — returns
  /// FailedPrecondition; state changes arrive only through
  /// ApplyReplicatedRecord / ReplicaCheckpoint (the replication client)
  /// and queries serve as usual. See docs/REPLICATION.md.
  void SetReadOnly(bool read_only);
  bool read_only() const;

  /// Failover: turns a read-only follower into a write-accepting
  /// primary. Requires a healthy WAL (the new primary must be able to
  /// journal). No replay is needed here by construction — a follower
  /// applies every record in the same critical section that journals
  /// it, so at promote time the in-memory state already contains the
  /// entire verified WAL (EnableWal replayed the durable tail at
  /// startup). Fault site repl.promote fires before the flag flips: a
  /// failed promote leaves a consistent follower.
  Status Promote();

  /// Follower apply path: decodes one shipped WAL record (an
  /// EncodeReviewBatch payload), journals it to the follower's own WAL
  /// and folds it through the exact live-ingest path, in one exclusive
  /// critical section. Because batch encoding is deterministic
  /// (Encode(Decode(p)) == p), the follower's segment ends up
  /// byte-identical to the primary's at every acknowledged offset.
  /// Allowed only in read-only mode with a healthy WAL. Returns the
  /// number of reviews applied. An error means nothing was applied
  /// (decode failures) or the WAL broke (journal failures) — never a
  /// half-applied record.
  Result<size_t> ApplyReplicatedRecord(const std::string& payload);

  /// Follower-side checkpoint, run when the primary signals its segment
  /// is complete (it checkpointed). Both sides compute the next
  /// generation as max-existing + 1 from directories with identical
  /// histories, so generations stay in lockstep. Requires read-only
  /// mode — operators must not rotate a follower's segment out of step;
  /// the primary-side equivalent is Checkpoint().
  Status ReplicaCheckpoint();

  /// Pin registry consulted by Checkpoint (pinned WAL segments are not
  /// retired) and meant for SnapshotStore::GarbageCollect. The
  /// replication source pins the base generation of every segment a
  /// follower is actively pulling.
  storage::GenerationPins* generation_pins() { return &pins_; }

  /// Replaces every marker summary wholesale (scale-harness path: the
  /// datagen scale generator synthesizes summaries directly instead of
  /// aggregating millions of reviews). `summaries[a][e]` must cover
  /// exactly this engine's attributes × entities, be built against this
  /// engine's schema attribute types (the schema's marker count on every
  /// summary) and carry centroids of phrase_embedder().dim() wherever
  /// there are markers — InvalidArgument otherwise, engine untouched.
  /// Clears the (now unrelated) extraction relation, rebuilds derived
  /// state — including the columnar mirror — and bumps the cache epoch:
  /// this is a data mutation exactly like Reaggregate/OpenDatabase.
  Status InstallSummaries(
      std::vector<std::vector<MarkerSummary>> summaries);

  /// Resizes the worker pool (0 = hardware concurrency, 1 = serial).
  /// Results are bit-identical at any thread count. Serialized against
  /// in-flight queries by the reconfiguration lock: the swap waits for
  /// running queries to drain, so a query can never observe its pool
  /// being destroyed under it.
  void SetNumThreads(size_t num_threads);

  /// Changes the observability level. Also flips the process-wide
  /// metrics switch (obs::SetMetricsEnabled) so library-internal
  /// instrumentation (index, fuzzy TA, thread pool, membership) follows
  /// this engine's level — with several engines per process the most
  /// recent call wins.
  void SetTraceLevel(obs::TraceLevel level);

  /// Attaches a degree-of-truth cache consulted (and warmed) by
  /// ExecuteQuery for subjective conditions; pass nullptr to detach. The
  /// cache must outlive the attachment and be built over this engine.
  /// Serialized against in-flight queries by the reconfiguration lock.
  void AttachDegreeCache(DegreeCache* cache);

  /// Reconfigures the result / interpretation cache layers (creating,
  /// resizing or destroying them). Fresh layers start empty; the cache
  /// epoch is untouched — reconfiguring caches is not a data mutation.
  /// Serialized against in-flight queries by the reconfiguration lock.
  void ConfigureCaches(const cache::CacheConfig& config);

  /// Monotone invalidation epoch of the caching layers: bumped exactly
  /// once by every mutation of served data (Reaggregate, OpenDatabase,
  /// InstallSummaries, TrainMembership, AppendReviews) under the
  /// exclusive reconfiguration lock, and by nothing else (SetNumThreads
  /// / SetTraceLevel / AttachDegreeCache / ConfigureCaches reconfigure
  /// execution, not data). Cache entries are tagged with the epoch they
  /// were filled at; a mismatch is a miss.
  uint64_t cache_epoch() const {
    return cache_epoch_.load(std::memory_order_relaxed);
  }

  /// Data epoch of one entity: the cache_epoch() value of the last
  /// mutation that changed its served data. Wholesale mutations
  /// (Reaggregate, OpenDatabase, InstallSummaries, TrainMembership)
  /// advance every entity; AppendReviews advances only the entities the
  /// batch touched — the observable contract behind surgical cache
  /// maintenance, asserted by the ingest suite. Entities never mutated
  /// since construction report 0.
  uint64_t entity_data_epoch(text::EntityId entity) const;

  /// The cache layers, or nullptr when disabled (for tests / metrics
  /// scrapers; the engine consults them internally).
  cache::InterpretationCache* interpretation_cache() const {
    return interp_cache_.get();
  }
  cache::ResultCache* result_cache() const { return result_cache_.get(); }

  /// Persists the queryable state — schema + marker summaries, per §4:
  /// the extraction relation is re-derivable and is not saved — as a new
  /// checksummed snapshot generation in directory `dir` (created if
  /// needed) via storage::SnapshotStore's atomic commit protocol. Holds
  /// the reconfiguration lock exclusively, so the saved pair is a
  /// consistent cut that serializes against Reaggregate and in-flight
  /// queries. While a WAL is enabled this returns FailedPrecondition —
  /// an out-of-band save would advance the generation away from the
  /// active segment and orphan later appends; use Checkpoint(), which
  /// rotates the segment in the same critical section. See
  /// docs/PERSISTENCE.md.
  Status SaveDatabase(const std::string& dir) const;

  /// Replaces this engine's schema and summaries with the newest fully
  /// valid snapshot generation in `dir`, verifying every checksum on the
  /// way in (corrupt newer generations are skipped; if nothing valid
  /// remains this returns the store's typed NotFound/DataLoss error).
  /// The snapshot is parsed and vetted completely before any engine
  /// state changes — on any error the engine is untouched. The loaded
  /// summaries must have the shape InstallSummaries demands — exactly
  /// this engine's corpus entities, the snapshot schema's marker counts,
  /// centroids of this engine's embedding width — or the open returns
  /// InvalidArgument. The optional interpretation-cache section is
  /// dropped (a cold open) when any entry names an atom outside the
  /// opened schema or carries an embedding of another width. After a
  /// successful open the extraction relation is empty, so a later
  /// Reaggregate would rebuild summaries from nothing — it returns
  /// FailedPrecondition; re-extract from the corpus instead. An attached
  /// degree cache is cleared (its lists described the old summaries).
  /// Any active WAL is detached (the journal belonged to the replaced
  /// state); call EnableWal again to replay the tail for the newly
  /// opened generation.
  Status OpenDatabase(const std::string& dir);

  /// Generation committed by the last SaveDatabase or served by the
  /// last OpenDatabase (0 = this engine never touched a snapshot
  /// store). Exported as the storage.snapshot.generation gauge and as
  /// the root query span's snapshot_generation attribute.
  uint64_t snapshot_generation() const {
    return snapshot_generation_.load(std::memory_order_relaxed);
  }

  // ----------------------------------------------------------- access.
  const text::ReviewCorpus& corpus() const { return corpus_; }
  const SubjectiveSchema& schema() const { return schema_; }
  const SubjectiveTables& tables() const { return tables_; }
  const embedding::WordEmbeddings& embeddings() const { return embeddings_; }
  const embedding::PhraseEmbedder& phrase_embedder() const {
    return *embedder_;
  }
  const index::InvertedIndex& review_index() const { return review_index_; }
  const index::InvertedIndex& entity_index() const { return entity_index_; }
  const std::vector<double>& review_sentiment() const {
    return review_sentiment_;
  }
  const Interpreter& interpreter() const { return *interpreter_; }
  const AttributeClassifier& attribute_classifier() const {
    return classifier_;
  }
  const sentiment::Analyzer& analyzer() const { return analyzer_; }
  const EngineOptions& options() const { return options_; }
  const MarkerSummary& summary(size_t attribute,
                               text::EntityId entity) const {
    return tables_.summaries[attribute][entity];
  }
  bool has_membership_model() const { return membership_.has_value(); }
  /// The trained membership model (requires has_membership_model()).
  const MembershipModel& membership_model() const { return *membership_; }

  /// Extracted phrases of (attribute, entity) — the no-marker scan path.
  const std::vector<const extract::ExtractedOpinion*>& PhrasesOf(
      size_t attribute, text::EntityId entity) const {
    return extraction_lists_[attribute][entity];
  }

  /// Mutable options (for ablations like toggling use_markers).
  EngineOptions* mutable_options() { return &options_; }

  /// The worker pool (nullptr on the serial path). Shared with
  /// DegreeCache for parallel precomputation.
  ThreadPool* pool() const { return pool_.get(); }

  /// The columnar summary mirror ConditionScorer sweeps; never null
  /// after Build. Stable for the duration of a query (rebuilt only under
  /// the exclusive reconfiguration lock).
  const ColumnarSummaryStore* columnar_store() const {
    return columnar_.get();
  }

  /// The columnar mirror of `table`, a table registered with
  /// SetObjectiveTable (every registered table has one).
  const ColumnarTable& objective_columns(const storage::Table& table) const;

  // OpineDb holds internal cross-references (the aggregator, interpreter
  // and phrase embedder point at sibling members), so it is pinned in
  // memory: neither copyable nor movable. Build() returns a unique_ptr.
  OpineDb(const OpineDb&) = delete;
  OpineDb& operator=(const OpineDb&) = delete;

  // Out-of-line: the cache layers are forward-declared here.
  ~OpineDb();

 private:
  OpineDb() = default;

  void RebuildDerivedState();
  /// The single wholesale epoch-bump point: advances cache_epoch_ once,
  /// clears every cache layer (result, interpretation, attached degree
  /// cache) and advances every entity's data epoch. Requires reconfig_mu_
  /// held exclusively. AppendReviews deliberately does NOT route through
  /// here — it bumps the epoch but keeps caches warm (see its doc).
  void InvalidateCachesLocked();
  /// SaveDatabase body without the lock acquisition; Checkpoint calls it
  /// inside its own exclusive critical section.
  Status SaveDatabaseLocked(const std::string& dir) const;
  /// Checkpoint body without the lock acquisition or role check, shared
  /// by Checkpoint (primary) and ReplicaCheckpoint (follower). Requires
  /// reconfig_mu_ held exclusively and wal_ engaged.
  Status CheckpointLocked();
  /// The single apply path for new review batches, shared verbatim by
  /// live ingest (journal = the open WAL writer) and EnableWal replay
  /// (journal = nothing — the records are already durable). Requires
  /// reconfig_mu_ held exclusively. Validates, optionally journals, then
  /// extracts / folds / patches derived state and refreshes caches.
  Status ApplyReviewsLocked(const std::vector<text::Review>& reviews,
                            bool journal);

  text::ReviewCorpus corpus_;
  SubjectiveSchema schema_;
  EngineOptions options_;
  sentiment::Analyzer analyzer_;
  embedding::WordEmbeddings embeddings_;
  std::unique_ptr<embedding::PhraseEmbedder> embedder_;
  index::InvertedIndex review_index_;
  index::InvertedIndex entity_index_;
  std::vector<double> review_sentiment_;
  AttributeClassifier classifier_;
  std::unique_ptr<Aggregator> aggregator_;
  /// The extraction pipeline Build ran, retained so AppendReviews can
  /// extract from new reviews with the exact same trained tagger
  /// (value-semantic copy; the tagger is frozen after Build).
  std::optional<extract::ExtractionPipeline> pipeline_;
  SubjectiveTables tables_;
  std::unique_ptr<Interpreter> interpreter_;
  std::optional<MembershipModel> membership_;
  storage::Catalog catalog_;
  std::string objective_table_;
  /// Columnar mirrors of the hot data plane (docs/SCALING.md): rebuilt
  /// by RebuildDerivedState / SetObjectiveTable under the exclusive
  /// reconfiguration lock, read by queries under the shared lock. One
  /// objective mirror per catalog table, keyed by table name.
  std::unique_ptr<ColumnarSummaryStore> columnar_;
  std::unordered_map<std::string, std::unique_ptr<ColumnarTable>>
      objective_columns_;
  /// Fixed worker pool for the parallel execution layer; nullptr when
  /// options_.num_threads resolves to 1 (the serial path).
  std::unique_ptr<ThreadPool> pool_;
  /// Optional degree cache consulted by ExecuteQuery (not owned).
  DegreeCache* degree_cache_ = nullptr;
  /// Optional caching layers (nullptr when disabled); both are
  /// internally thread-safe, and creation/destruction happens only
  /// under the exclusive reconfiguration lock.
  std::unique_ptr<cache::InterpretationCache> interp_cache_;
  std::unique_ptr<cache::ResultCache> result_cache_;
  /// See cache_epoch(). Atomic so queries (shared lock) read it without
  /// synchronizing with each other; mutators bump it under the
  /// exclusive lock, so a query never observes a torn epoch/state pair.
  std::atomic<uint64_t> cache_epoch_{0};
  /// Snapshot generation last saved/loaded; see snapshot_generation().
  /// Atomic so queries (shared lock) can read it while SaveDatabase
  /// (exclusive lock) is the writer; mutable because SaveDatabase is
  /// logically const.
  mutable std::atomic<uint64_t> snapshot_generation_{0};
  /// True while tables_.extractions (plus what AppendReviews added) is
  /// the authoritative derivation of tables_.summaries — the
  /// precondition Reaggregate and the ingest differential oracle rely
  /// on. Set by Build; cleared by InstallSummaries and OpenDatabase.
  bool extractions_authoritative_ = false;
  /// Per-entity data epochs; see entity_data_epoch(). Guarded by
  /// reconfig_mu_ (written under exclusive, read under shared).
  std::vector<uint64_t> entity_data_epoch_;
  /// Write-ahead journal state (EnableWal/Checkpoint); wal_ is engaged
  /// exactly while journaling is active. Guarded by reconfig_mu_.
  std::string wal_dir_;
  std::optional<storage::WalWriter> wal_;
  /// Follower (read-only) mode; see SetReadOnly. Guarded by
  /// reconfig_mu_.
  bool read_only_ = false;
  /// Snapshot generations pinned against retirement; see
  /// generation_pins(). Internally synchronized (request threads pin
  /// without the reconfiguration lock).
  storage::GenerationPins pins_;
  /// Reconfiguration lock: ExecuteQuery / PredicateDegreeOfTruth hold it
  /// shared for their whole run; Reaggregate, SetNumThreads,
  /// SetTraceLevel, AttachDegreeCache and TrainMembership hold it
  /// exclusively. This (a) keeps pool_ alive for the queries that
  /// snapshotted it, (b) provides the external synchronization
  /// DegreeCache::Clear() demands, and (c) prevents queries from
  /// reading tables_/interpreter_ mid-rebuild.
  mutable std::shared_mutex reconfig_mu_;
  /// extraction_lists_[a][e]: pointers into tables_.extractions.
  std::vector<std::vector<std::vector<const extract::ExtractedOpinion*>>>
      extraction_lists_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_ENGINE_H_
