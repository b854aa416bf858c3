#ifndef OPINEDB_CORE_INTERPRETER_H_
#define OPINEDB_CORE_INTERPRETER_H_

#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "core/aggregator.h"
#include "core/schema.h"
#include "embedding/phrase_rep.h"
#include "index/inverted_index.h"
#include "text/corpus.h"
#include "text/tokenizer.h"

namespace opinedb::core {

/// One A.m expression: an interpreted (attribute, marker) pair.
struct AtomInterpretation {
  int attribute = -1;
  int marker = -1;
  /// The interpreter's similarity/correlation score for this atom.
  double score = 0.0;

  friend bool operator==(const AtomInterpretation& a,
                         const AtomInterpretation& b) {
    return a.attribute == b.attribute && a.marker == b.marker &&
           a.score == b.score;
  }
  friend bool operator!=(const AtomInterpretation& a,
                         const AtomInterpretation& b) {
    return !(a == b);
  }
};

/// Which stage of the Fig. 5 cascade produced the interpretation.
enum class InterpretMethod {
  kWord2Vec,
  kCooccurrence,
  kTextFallback,
};

/// The interpreter's output for one query predicate: either a (dis/con)-
/// junction of A.m atoms, or a directive to fall back to text retrieval.
struct PredicateInterpretation {
  InterpretMethod method = InterpretMethod::kTextFallback;
  std::vector<AtomInterpretation> atoms;
  /// True when the atoms combine with AND instead of OR (the
  /// co-occurrence method emits a conjunction when the correlated
  /// attributes are typically mentioned together).
  bool conjunctive = false;
  double confidence = 0.0;
  /// True when a cascade stage failed (threw) and the interpretation
  /// fell through to a later stage: the result is usable but was not
  /// produced on the preferred path. The engine surfaces this as the
  /// `degraded` span/result attribute and engine.fallback.* counters.
  bool degraded = false;

  /// Exact (bit-level) equality — ingest uses it to decide whether a
  /// precomputed degree list's interpretation is still the one this
  /// predicate maps to (equal → only touched entities need rescoring;
  /// different → the whole list is stale).
  friend bool operator==(const PredicateInterpretation& a,
                         const PredicateInterpretation& b) {
    return a.method == b.method && a.atoms == b.atoms &&
           a.conjunctive == b.conjunctive && a.confidence == b.confidence &&
           a.degraded == b.degraded;
  }
  friend bool operator!=(const PredicateInterpretation& a,
                         const PredicateInterpretation& b) {
    return !(a == b);
  }
};

/// The subjective query interpreter (Section 3.2): word2vec matching
/// against the linguistic domains, then co-occurrence mining over the
/// review corpus, then text-retrieval fallback.
class Interpreter {
 public:
  /// `review_index` indexes individual reviews (DocId == ReviewId) and
  /// `review_sentiment` holds senti(d) per review. `tables` supplies the
  /// linguistic variations and per-review extractions.
  Interpreter(const SubjectiveSchema* schema, const SubjectiveTables* tables,
              const embedding::PhraseEmbedder* embedder,
              const index::InvertedIndex* review_index,
              const std::vector<double>* review_sentiment);

  /// Interprets one NL query predicate. The cascade degrades instead of
  /// failing: a stage that throws (injected fault, broken model state)
  /// falls through to the next stage — word2vec → co-occurrence → text
  /// retrieval — with PredicateInterpretation::degraded set. `deadline`
  /// (optional) is polled between stages; on expiry the remaining
  /// (expensive) stages are skipped. An expired deadline here always
  /// coincides with an expired deadline at the scoring checkpoints, so
  /// the query is flagged partial downstream.
  PredicateInterpretation Interpret(const std::string& predicate,
                                    const QueryDeadline* deadline =
                                        nullptr) const;

  /// Stage 1 only (for the Table 8 ablation).
  PredicateInterpretation InterpretWord2VecOnly(
      const std::string& predicate) const;

  /// Stage 2 only (for the Table 8 ablation).
  PredicateInterpretation InterpretCooccurrenceOnly(
      const std::string& predicate) const;

  /// Incremental maintenance for the ingest path: indexes extractions
  /// appended to `tables_` since construction (or the previous call) —
  /// new qualifying phrases join the variation table in append order
  /// with the same dedup/margin gates the constructor applies, and the
  /// per-review extraction lists + attribute idf are recomputed over
  /// the full (cheap, integer-only) relation. The resulting state is
  /// bit-identical to constructing a fresh Interpreter over the grown
  /// tables. Callers must hold the engine's exclusive lock.
  void AppendNewExtractions();

  /// Number of tables_->extractions entries indexed so far (== size()
  /// right after construction or AppendNewExtractions).
  size_t indexed_extractions() const { return indexed_extractions_; }

 private:
  struct Variation {
    int attribute;
    int marker;
    embedding::Vec rep;
    /// embedding::Norm(rep), stored when the variation joins the table.
    double norm = 0.0;
  };

  void BuildVariationTable();
  /// The integer-only half of the table build: per-review extraction
  /// lists and attribute idf, recomputed from scratch.
  void RebuildReviewStatistics();

  const SubjectiveSchema* schema_;
  const SubjectiveTables* tables_;
  const embedding::PhraseEmbedder* embedder_;
  const index::InvertedIndex* review_index_;
  const std::vector<double>* review_sentiment_;
  text::Tokenizer tokenizer_;

  std::vector<Variation> variations_;
  /// (attribute, phrase) pairs already in the variation table; persists
  /// so AppendNewExtractions dedups exactly like a fresh build.
  std::set<std::pair<int, std::string>> seen_variations_;
  /// How many tables_->extractions entries have been considered for the
  /// variation table (the incremental high-water mark).
  size_t indexed_extractions_ = 0;
  /// Per-review extraction indices (into tables_->extractions).
  std::vector<std::vector<size_t>> review_extractions_;
  /// idf(A): log(N / (1 + #reviews with an extraction of attribute A)).
  std::vector<double> attribute_idf_;
};

}  // namespace opinedb::core

#endif  // OPINEDB_CORE_INTERPRETER_H_
