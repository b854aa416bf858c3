#include "core/interpreter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace opinedb::core {

namespace {

// Constants of the three-stage cascade (Fig. 5).

/// θ1: minimum w2v similarity for a direct interpretation.
constexpr double kW2vThreshold = 0.5;
/// Above this w2v confidence the direct interpretation is trusted
/// outright; between kW2vThreshold and this bound, a strongly supported
/// co-occurrence interpretation may override it.
constexpr double kW2vHighConfidence = 0.8;
/// θ2: minimum per-review support (matched extractions among the top-k
/// reviews) for a co-occurrence interpretation.
constexpr double kCooccurThreshold = 3.0;
/// k: number of top reviews mined by the co-occurrence method.
constexpr size_t kCooccurTopK = 50;
/// n: maximum number of attributes in a co-occurrence interpretation.
constexpr size_t kCooccurTopN = 2;
/// Fraction of supporting reviews that must mention both top attributes
/// for the interpretation to become a conjunction.
constexpr double kConjunctionFraction = 0.6;
/// Minimum attribute-classification margin for an extracted phrase to
/// join the linguistic-variation table; filters unclassifiable phrases
/// whose attribute assignment is essentially the prior.
constexpr double kVariationMargin = 1.0;

}  // namespace

Interpreter::Interpreter(const SubjectiveSchema* schema,
                         const SubjectiveTables* tables,
                         const embedding::PhraseEmbedder* embedder,
                         const index::InvertedIndex* review_index,
                         const std::vector<double>* review_sentiment)
    : schema_(schema),
      tables_(tables),
      embedder_(embedder),
      review_index_(review_index),
      review_sentiment_(review_sentiment) {
  BuildVariationTable();
}

void Interpreter::BuildVariationTable() {
  // Each extraction whose phrase landed on a marker is a linguistic
  // variation of that attribute; markers themselves are variations too.
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    const auto& markers = schema_->attributes[a].summary_type.markers;
    for (size_t m = 0; m < markers.size(); ++m) {
      Variation v;
      v.attribute = static_cast<int>(a);
      v.marker = static_cast<int>(m);
      v.rep = embedder_->Represent(markers[m]);
      v.norm = embedding::Norm(v.rep);
      variations_.push_back(std::move(v));
      seen_variations_.emplace(static_cast<int>(a), markers[m]);
    }
  }
  // The extraction-driven half is shared with the ingest path: a fresh
  // build is just an append starting from extraction 0, so incremental
  // growth stays bit-identical to reconstruction by definition.
  AppendNewExtractions();
}

void Interpreter::AppendNewExtractions() {
  for (size_t i = indexed_extractions_; i < tables_->extractions.size();
       ++i) {
    const int a = tables_->extraction_attribute[i];
    const int m = tables_->extraction_marker[i];
    if (a < 0 || m < 0) continue;
    if (tables_->extraction_margin[i] < kVariationMargin) continue;
    const std::string& phrase = tables_->extractions[i].phrase;
    if (!seen_variations_.emplace(a, phrase).second) continue;
    Variation v;
    v.attribute = a;
    v.marker = m;
    v.rep = embedder_->Represent(phrase);
    v.norm = embedding::Norm(v.rep);
    variations_.push_back(std::move(v));
  }
  indexed_extractions_ = tables_->extractions.size();
  RebuildReviewStatistics();
}

void Interpreter::RebuildReviewStatistics() {
  // Per-review extraction lists + attribute idf. Integer-only work over
  // the full relation — cheap enough to redo from scratch on every
  // ingest batch, which keeps it trivially identical to a fresh build.
  size_t num_reviews = 0;
  for (const auto& opinion : tables_->extractions) {
    num_reviews = std::max(num_reviews,
                           static_cast<size_t>(opinion.review) + 1);
  }
  num_reviews = std::max(num_reviews, review_index_->num_documents());
  review_extractions_.assign(num_reviews, {});
  std::vector<std::set<int>> review_attrs(num_reviews);
  for (size_t i = 0; i < tables_->extractions.size(); ++i) {
    const auto review = tables_->extractions[i].review;
    review_extractions_[review].push_back(i);
    if (tables_->extraction_attribute[i] >= 0) {
      review_attrs[review].insert(tables_->extraction_attribute[i]);
    }
  }
  std::vector<int> attr_review_count(schema_->num_attributes(), 0);
  for (const auto& attrs : review_attrs) {
    for (int a : attrs) ++attr_review_count[a];
  }
  attribute_idf_.resize(schema_->num_attributes());
  const double n = static_cast<double>(std::max<size_t>(1, num_reviews));
  for (size_t a = 0; a < schema_->num_attributes(); ++a) {
    attribute_idf_[a] = std::log(n / (1.0 + attr_review_count[a]));
    // Attributes mentioned everywhere still deserve some weight.
    attribute_idf_[a] = std::max(attribute_idf_[a], 0.1);
  }
}

PredicateInterpretation Interpreter::InterpretWord2VecOnly(
    const std::string& predicate) const {
  OPINEDB_FAULT("interpret.w2v");
  obs::TraceSpan span("interpret.word2vec");
  span.AddAttribute("variations", static_cast<uint64_t>(variations_.size()));
  OPINEDB_METRIC_COUNT("interpreter.w2v_scans", 1);
  PredicateInterpretation result;
  result.method = InterpretMethod::kWord2Vec;
  const embedding::Vec rep = embedder_->Represent(predicate);
  // Cosine(rep, v.rep) with both norms hoisted: the query's once here,
  // each variation's at table-build time.
  const double rep_norm = embedding::Norm(rep);
  double best = -1.0;
  const Variation* best_v = nullptr;
  for (const auto& v : variations_) {
    const double s = embedding::CosineWithNorms(rep.data(), rep_norm,
                                                v.rep.data(), v.norm,
                                                rep.size());
    if (s > best) {
      best = s;
      best_v = &v;
    }
  }
  if (best_v != nullptr) {
    AtomInterpretation atom;
    atom.attribute = best_v->attribute;
    atom.marker = best_v->marker;
    atom.score = best;
    result.atoms.push_back(atom);
    // Confidence is the similarity scaled by in-vocabulary coverage of
    // the content words: a predicate dominated by words the corpus has
    // never seen ("good for motorcyclists") cannot be interpreted
    // confidently no matter how well its known words match.
    size_t content = 0;
    size_t known = 0;
    for (const auto& token : tokenizer_.Tokenize(predicate)) {
      if (text::IsStopword(token)) continue;
      ++content;
      if (embedder_->embeddings().Get(token) != nullptr) ++known;
    }
    const double coverage =
        content == 0 ? 0.0
                     : static_cast<double>(known) /
                           static_cast<double>(content);
    result.confidence = best * coverage;
    span.AddAttribute("best_similarity", best);
    span.AddAttribute("coverage", coverage);
  }
  span.AddAttribute("confidence", result.confidence);
  return result;
}

PredicateInterpretation Interpreter::InterpretCooccurrenceOnly(
    const std::string& predicate) const {
  OPINEDB_FAULT("interpret.cooccur");
  obs::TraceSpan span("interpret.cooccurrence");
  OPINEDB_METRIC_COUNT("interpreter.cooccur_scans", 1);
  PredicateInterpretation result;
  result.method = InterpretMethod::kCooccurrence;
  const auto query_tokens = tokenizer_.Tokenize(predicate);
  // Top-k positive reviews by BM25(d, q) * senti(d) (paper Eq. 3).
  const auto top = review_index_->TopKWeighted(
      query_tokens, kCooccurTopK, *review_sentiment_);
  span.AddAttribute("bm25_candidates", static_cast<uint64_t>(top.size()));
  OPINEDB_METRIC_COUNT("interpreter.bm25_candidates", top.size());
  if (top.empty()) return result;

  // Support gate: the predicate must actually occur in the mined
  // reviews. We require its most distinctive (highest-idf) content word
  // to appear in a reasonable share of the supporting reviews; otherwise
  // BM25 is merely matching generic words and the correlation is noise.
  std::string distinctive;
  double best_idf = -1.0;
  for (const auto& token : query_tokens) {
    if (text::IsStopword(token)) continue;
    const double idf = review_index_->Idf(token);
    if (idf > best_idf) {
      best_idf = idf;
      distinctive = token;
    }
  }
  if (!distinctive.empty()) {
    size_t containing = 0;
    for (const auto& scored : top) {
      if (review_index_->TermFrequency(scored.doc, distinctive) > 0) {
        ++containing;
      }
    }
    if (containing < (top.size() + 1) / 2) {
      span.AddAttribute("supported", false);
      return result;  // Unsupported.
    }
  }

  // Tally attribute frequencies and per-attribute marker frequencies over
  // extractions in the supporting reviews.
  std::map<int, double> attr_freq;
  std::map<std::pair<int, int>, double> marker_freq;
  std::vector<std::set<int>> attrs_per_review;
  for (const auto& scored : top) {
    if (static_cast<size_t>(scored.doc) >= review_extractions_.size()) {
      continue;
    }
    std::set<int> attrs_here;
    for (size_t i : review_extractions_[scored.doc]) {
      const int a = tables_->extraction_attribute[i];
      const int m = tables_->extraction_marker[i];
      if (a < 0) continue;
      attr_freq[a] += 1.0;
      attrs_here.insert(a);
      if (m >= 0) marker_freq[{a, m}] += 1.0;
    }
    attrs_per_review.push_back(std::move(attrs_here));
  }
  // Rank attributes by freq_k(A) * idf(A).
  std::vector<std::pair<double, int>> ranked;
  for (const auto& [a, freq] : attr_freq) {
    ranked.emplace_back(freq * attribute_idf_[a], a);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& x, const auto& y) {
              if (x.first != y.first) return x.first > y.first;
              return x.second < y.second;
            });
  for (size_t r = 0; r < ranked.size() && r < kCooccurTopN; ++r) {
    const int a = ranked[r].second;
    // Best marker of this attribute among the supporting reviews.
    int best_m = -1;
    double best_f = 0.0;
    for (const auto& [am, f] : marker_freq) {
      if (am.first == a && f > best_f) {
        best_f = f;
        best_m = am.second;
      }
    }
    if (best_m < 0) continue;
    AtomInterpretation atom;
    atom.attribute = a;
    atom.marker = best_m;
    atom.score = ranked[r].first;
    result.atoms.push_back(atom);
  }
  if (!result.atoms.empty()) {
    result.confidence = attr_freq[result.atoms[0].attribute];
  }
  // Conjunction when the correlated attributes usually appear together.
  if (result.atoms.size() >= 2 && !attrs_per_review.empty()) {
    size_t both = 0;
    for (const auto& attrs : attrs_per_review) {
      if (attrs.count(result.atoms[0].attribute) > 0 &&
          attrs.count(result.atoms[1].attribute) > 0) {
        ++both;
      }
    }
    result.conjunctive =
        static_cast<double>(both) / attrs_per_review.size() >=
        kConjunctionFraction;
  }
  span.AddAttribute("confidence", result.confidence);
  span.AddAttribute("atoms", static_cast<uint64_t>(result.atoms.size()));
  span.AddAttribute("conjunctive", result.conjunctive);
  return result;
}

PredicateInterpretation Interpreter::Interpret(
    const std::string& predicate, const QueryDeadline* deadline) const {
  // One span per cascade run, annotated with every Fig. 5 threshold
  // decision; the per-stage children record their own internals.
  obs::TraceSpan span("interpret.predicate");
  span.AddAttribute("predicate", predicate);
  OPINEDB_METRIC_COUNT("interpreter.calls", 1);
  PredicateInterpretation result;
  // Expired before any stage ran: the scoring checkpoints downstream
  // will stop the query anyway, so skip straight to the cheap stage.
  if (deadline != nullptr && deadline->Expired()) {
    span.AddAttribute("stage", "text_fallback");
    span.AddAttribute("deadline_expired", true);
    return result;
  }

  // Each stage degrades instead of aborting: a stage that throws is
  // treated as "no interpretation at this stage" and the cascade falls
  // through (marker match → co-occurrence → plain BM25 retrieval),
  // with the result marked degraded.
  bool degraded = false;

  // Stage 1: word2vec direct match. High confidence wins outright.
  PredicateInterpretation w2v;
  try {
    w2v = InterpretWord2VecOnly(predicate);
  } catch (const std::exception&) {
    degraded = true;
    OPINEDB_METRIC_COUNT("engine.fallback.interpret_w2v", 1);
  }
  const bool w2v_ok = !w2v.atoms.empty() && w2v.confidence >= kW2vThreshold;
  span.AddAttribute("w2v_confidence", w2v.confidence);
  span.AddAttribute("w2v_threshold", kW2vThreshold);
  span.AddAttribute("w2v_high_confidence", kW2vHighConfidence);
  if (w2v_ok && w2v.confidence >= kW2vHighConfidence) {
    result = std::move(w2v);
  } else if (deadline != nullptr && deadline->Expired()) {
    // No budget left for the expensive mining stage; keep the lexical
    // match if it cleared θ1, else leave it to text retrieval.
    span.AddAttribute("deadline_expired", true);
    if (w2v_ok) result = std::move(w2v);
  } else {
    // Stage 2: co-occurrence mining. In the mid-confidence band a
    // strongly supported correlation overrides the lexical match ("ideal
    // for business travelers" matches service words lexically but
    // co-occurs with location praise).
    PredicateInterpretation cooc;
    bool cooc_failed = false;
    try {
      cooc = InterpretCooccurrenceOnly(predicate);
    } catch (const std::exception&) {
      degraded = true;
      cooc_failed = true;
      OPINEDB_METRIC_COUNT("engine.fallback.interpret_cooccur", 1);
    }
    const bool cooc_ok =
        !cooc_failed && !cooc.atoms.empty() &&
        cooc.confidence >= kCooccurThreshold;
    span.AddAttribute("cooccur_confidence", cooc.confidence);
    span.AddAttribute("cooccur_threshold", kCooccurThreshold);
    if (w2v_ok) {
      const bool strong_cooccur =
          cooc_ok && cooc.confidence >= 8.0 * kCooccurThreshold;
      span.AddAttribute("cooccur_override", strong_cooccur);
      result = strong_cooccur ? std::move(cooc) : std::move(w2v);
    } else if (cooc_ok) {
      result = std::move(cooc);
    } else {
      // Stage 3: leave it to text retrieval.
      result = PredicateInterpretation();
      result.method = InterpretMethod::kTextFallback;
    }
  }
  result.degraded = degraded;
  if (degraded) span.AddAttribute("degraded", true);

  const char* stage = "text_fallback";
  if (result.method == InterpretMethod::kWord2Vec) {
    stage = "word2vec";
    OPINEDB_METRIC_COUNT("interpreter.stage_word2vec", 1);
  } else if (result.method == InterpretMethod::kCooccurrence) {
    stage = "cooccurrence";
    OPINEDB_METRIC_COUNT("interpreter.stage_cooccurrence", 1);
  } else {
    OPINEDB_METRIC_COUNT("interpreter.stage_text_fallback", 1);
  }
  span.AddAttribute("stage", stage);
  span.AddAttribute("atoms", static_cast<uint64_t>(result.atoms.size()));
  span.AddAttribute("conjunctive", result.conjunctive);
  return result;
}

}  // namespace opinedb::core
