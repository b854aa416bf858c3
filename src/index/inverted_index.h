#ifndef OPINEDB_INDEX_INVERTED_INDEX_H_
#define OPINEDB_INDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace opinedb::index {

/// Document id within an InvertedIndex. Assigned densely by AddDocument.
using DocId = int32_t;

/// A scored document.
struct ScoredDoc {
  DocId doc = 0;
  double score = 0.0;
};

/// Okapi BM25 parameters (standard defaults).
struct Bm25Params {
  double k1 = 1.2;
  double b = 0.75;
};

/// An in-memory inverted index with Okapi BM25 ranking — our substitute
/// for the Elasticsearch substrate the paper relies on for the
/// co-occurrence interpretation method and the IR baseline.
class InvertedIndex {
 private:
  struct Posting {
    DocId doc;
    int32_t tf;
  };

 public:
  /// A tokenized query resolved against one index: each term's posting
  /// list and BM25 idf, in query order. Repeated terms stay repeated
  /// (they contribute repeatedly, as in Okapi); terms the index has never
  /// seen are dropped, since they score nothing. Borrows the index's
  /// posting lists, so it is valid until the next AddDocument.
  class BoundQuery {
   public:
    size_t num_terms() const { return terms_.size(); }

   private:
    friend class InvertedIndex;
    struct Term {
      const std::vector<Posting>* postings;
      double idf;
    };
    std::vector<Term> terms_;
  };

  explicit InvertedIndex(Bm25Params params = Bm25Params())
      : params_(params) {}

  /// Adds a tokenized document; returns its dense DocId.
  DocId AddDocument(const std::vector<std::string>& tokens);

  size_t num_documents() const { return doc_lengths_.size(); }
  double average_doc_length() const;

  /// Document frequency of a term (number of documents containing it).
  int64_t DocumentFrequency(std::string_view term) const;

  /// BM25 idf component: ln(1 + (N - df + 0.5) / (df + 0.5)).
  double Bm25Idf(std::string_view term) const;

  /// Classic smoothed idf: ln(N / (1 + df)) clamped at >= 0. Used for the
  /// IDF-weighted phrase embeddings (paper Eq. 1).
  double Idf(std::string_view term) const;

  /// Resolves `query` once for repeated scoring: one posting-list lookup
  /// and one idf per term instead of one per (document, term).
  BoundQuery Bind(const std::vector<std::string>& query) const;

  /// BM25 score of one document for a bound query (a binary search per
  /// term). This is the index's one per-document BM25 formula; TopK
  /// folds the same per-term weights in the same order.
  double Score(DocId doc, const BoundQuery& query) const;

  /// BM25 score of one document for a tokenized query:
  /// Score(doc, Bind(query)).
  double Score(DocId doc, const std::vector<std::string>& query) const;

  /// Top-k documents by BM25 (ties broken by smaller DocId). Documents
  /// with zero score are omitted; fewer than k results may be returned.
  std::vector<ScoredDoc> TopK(const std::vector<std::string>& query,
                              size_t k) const;

  /// Like TopK but each document's BM25 score is multiplied by
  /// `weights[doc]` (e.g. a sentiment score); non-positive products are
  /// omitted. `weights` must have one entry per document.
  std::vector<ScoredDoc> TopKWeighted(const std::vector<std::string>& query,
                                      size_t k,
                                      const std::vector<double>& weights) const;

  /// Term frequency of `term` in `doc` (0 if absent).
  int32_t TermFrequency(DocId doc, std::string_view term) const;

 private:
  /// BM25 weight of one query term in one document.
  double TermWeight(int32_t tf, DocId doc, double idf,
                    double avg_len) const {
    const double len = static_cast<double>(doc_lengths_[doc]);
    const double num = tf * (params_.k1 + 1.0);
    const double den =
        tf + params_.k1 * (1.0 - params_.b + params_.b * len / avg_len);
    return idf * num / den;
  }

  std::vector<ScoredDoc> RankAll(const std::vector<std::string>& query,
                                 size_t k,
                                 const std::vector<double>* weights) const;

  Bm25Params params_;
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  std::vector<int32_t> doc_lengths_;
  int64_t total_length_ = 0;
};

}  // namespace opinedb::index

#endif  // OPINEDB_INDEX_INVERTED_INDEX_H_
