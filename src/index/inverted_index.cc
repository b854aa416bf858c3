#include "index/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace opinedb::index {

DocId InvertedIndex::AddDocument(const std::vector<std::string>& tokens) {
  DocId doc = static_cast<DocId>(doc_lengths_.size());
  std::unordered_map<std::string, int32_t> tf;
  for (const auto& token : tokens) ++tf[token];
  for (auto& [term, count] : tf) {
    postings_[term].push_back(Posting{doc, count});
  }
  doc_lengths_.push_back(static_cast<int32_t>(tokens.size()));
  total_length_ += static_cast<int64_t>(tokens.size());
  return doc;
}

double InvertedIndex::average_doc_length() const {
  if (doc_lengths_.empty()) return 0.0;
  return static_cast<double>(total_length_) /
         static_cast<double>(doc_lengths_.size());
}

int64_t InvertedIndex::DocumentFrequency(std::string_view term) const {
  auto it = postings_.find(std::string(term));
  return it == postings_.end() ? 0
                               : static_cast<int64_t>(it->second.size());
}

double InvertedIndex::Bm25Idf(std::string_view term) const {
  const double n = static_cast<double>(num_documents());
  const double df = static_cast<double>(DocumentFrequency(term));
  return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
}

double InvertedIndex::Idf(std::string_view term) const {
  const double n = static_cast<double>(num_documents());
  const double df = static_cast<double>(DocumentFrequency(term));
  if (n == 0.0) return 0.0;
  return std::max(0.0, std::log(n / (1.0 + df)));
}

int32_t InvertedIndex::TermFrequency(DocId doc, std::string_view term) const {
  auto it = postings_.find(std::string(term));
  if (it == postings_.end()) return 0;
  // Postings are appended in increasing doc order, so binary search works.
  const auto& list = it->second;
  auto pos = std::lower_bound(
      list.begin(), list.end(), doc,
      [](const Posting& p, DocId d) { return p.doc < d; });
  if (pos != list.end() && pos->doc == doc) return pos->tf;
  return 0;
}

InvertedIndex::BoundQuery InvertedIndex::Bind(
    const std::vector<std::string>& query) const {
  BoundQuery bound;
  bound.terms_.reserve(query.size());
  for (const auto& term : query) {
    auto it = postings_.find(term);
    if (it == postings_.end()) continue;
    bound.terms_.push_back(
        BoundQuery::Term{&it->second, Bm25Idf(term)});
  }
  return bound;
}

double InvertedIndex::Score(DocId doc, const BoundQuery& query) const {
  const double avg_len = average_doc_length();
  double score = 0.0;
  for (const auto& term : query.terms_) {
    // Postings are appended in increasing doc order.
    const auto& list = *term.postings;
    auto pos = std::lower_bound(
        list.begin(), list.end(), doc,
        [](const Posting& p, DocId d) { return p.doc < d; });
    if (pos == list.end() || pos->doc != doc) continue;
    score += TermWeight(pos->tf, doc, term.idf, avg_len);
  }
  return score;
}

double InvertedIndex::Score(DocId doc,
                            const std::vector<std::string>& query) const {
  return Score(doc, Bind(query));
}

std::vector<ScoredDoc> InvertedIndex::RankAll(
    const std::vector<std::string>& query, size_t k,
    const std::vector<double>* weights) const {
  obs::TraceSpan span("index.rank_all");
  span.AddAttribute("terms", static_cast<uint64_t>(query.size()));
  span.AddAttribute("k", static_cast<uint64_t>(k));
  const BoundQuery bound = Bind(query);
  const double avg_len = average_doc_length();
  // Dense per-call accumulator indexed by DocId plus the touched docs in
  // first-touch order. Each document still sums its terms in query
  // order, so every score equals Score(doc, query) bit for bit. The
  // scratch is local: concurrent queries share the index.
  std::vector<double> accum(num_documents(), 0.0);
  std::vector<uint8_t> seen(num_documents(), 0);
  std::vector<DocId> touched;
  uint64_t postings_scanned = 0;
  for (const auto& term : bound.terms_) {
    postings_scanned += term.postings->size();
    for (const Posting& posting : *term.postings) {
      if (seen[posting.doc] == 0) {
        seen[posting.doc] = 1;
        touched.push_back(posting.doc);
      }
      accum[posting.doc] +=
          TermWeight(posting.tf, posting.doc, term.idf, avg_len);
    }
  }
  std::vector<ScoredDoc> scored;
  scored.reserve(touched.size());
  for (const DocId doc : touched) {
    double s = accum[doc];
    if (weights != nullptr) s *= (*weights)[doc];
    if (s > 0.0) scored.push_back(ScoredDoc{doc, s});
  }
  // Score descending, then doc ascending: a strict total order over
  // distinct docs, so the top k are the first k of the full sort.
  const size_t keep = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                    [](const ScoredDoc& a, const ScoredDoc& b) {
                      if (a.score != b.score) return a.score > b.score;
                      return a.doc < b.doc;
                    });
  scored.resize(keep);
  span.AddAttribute("postings_scanned", postings_scanned);
  span.AddAttribute("candidates", static_cast<uint64_t>(touched.size()));
  OPINEDB_METRIC_COUNT("index.rank_all_calls", 1);
  OPINEDB_METRIC_COUNT("index.postings_scanned", postings_scanned);
  return scored;
}

std::vector<ScoredDoc> InvertedIndex::TopK(
    const std::vector<std::string>& query, size_t k) const {
  return RankAll(query, k, nullptr);
}

std::vector<ScoredDoc> InvertedIndex::TopKWeighted(
    const std::vector<std::string>& query, size_t k,
    const std::vector<double>& weights) const {
  OPINEDB_FAULT("index.scan");
  return RankAll(query, k, &weights);
}

}  // namespace opinedb::index
