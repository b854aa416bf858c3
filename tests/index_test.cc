#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "text/tokenizer.h"

namespace opinedb::index {
namespace {

class IndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text::Tokenizer tokenizer;
    const char* docs[] = {
        "the room was very clean and the staff was friendly",
        "dirty room with stained carpet and rude staff",
        "clean clean clean room spotless bathroom",
        "the food was delicious but the bar was crowded",
    };
    for (const char* doc : docs) {
      index_.AddDocument(tokenizer.Tokenize(doc));
    }
  }

  InvertedIndex index_;
};

TEST_F(IndexTest, Counts) {
  EXPECT_EQ(index_.num_documents(), 4u);
  EXPECT_GT(index_.average_doc_length(), 0.0);
  EXPECT_EQ(index_.DocumentFrequency("clean"), 2);
  EXPECT_EQ(index_.DocumentFrequency("staff"), 2);
  EXPECT_EQ(index_.DocumentFrequency("zzz"), 0);
}

TEST_F(IndexTest, TermFrequency) {
  EXPECT_EQ(index_.TermFrequency(2, "clean"), 3);
  EXPECT_EQ(index_.TermFrequency(0, "clean"), 1);
  EXPECT_EQ(index_.TermFrequency(1, "clean"), 0);
  EXPECT_EQ(index_.TermFrequency(0, "zzz"), 0);
}

TEST_F(IndexTest, IdfDecreasesWithFrequency) {
  // "the" appears in more documents than "delicious".
  EXPECT_LT(index_.Bm25Idf("the"), index_.Bm25Idf("delicious"));
  EXPECT_GT(index_.Idf("delicious"), index_.Idf("the"));
}

TEST_F(IndexTest, TopKRanksRepeatedTermHigher) {
  auto top = index_.TopK({"clean"}, 10);
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].doc, 2);  // "clean clean clean ..."
}

TEST_F(IndexTest, TopKRespectsK) {
  auto top = index_.TopK({"room"}, 2);
  EXPECT_EQ(top.size(), 2u);
}

TEST_F(IndexTest, TopKOmitsZeroScores) {
  auto top = index_.TopK({"zzz"}, 10);
  EXPECT_TRUE(top.empty());
}

TEST_F(IndexTest, ScoreMatchesTopK) {
  auto top = index_.TopK({"clean", "staff"}, 10);
  for (const auto& scored : top) {
    EXPECT_EQ(scored.score, index_.Score(scored.doc, {"clean", "staff"}));
  }
}

TEST_F(IndexTest, ScoreIsOkapiBm25WithRepeatedTerms) {
  // Doc 2 is "clean clean clean room spotless bathroom": tf 3, length 6.
  // A repeated query term contributes twice; an unknown one nothing.
  const double k1 = 1.2;
  const double b = 0.75;
  const double tf = 3.0;
  const double len = 6.0;
  const double once =
      index_.Bm25Idf("clean") * tf * (k1 + 1.0) /
      (tf + k1 * (1.0 - b + b * len / index_.average_doc_length()));
  EXPECT_DOUBLE_EQ(index_.Score(2, {"clean", "zzz", "clean"}), 2.0 * once);
  EXPECT_EQ(index_.Score(1, {"clean", "zzz"}), 0.0);
}

TEST_F(IndexTest, BoundScoreEqualsTokenScore) {
  const std::vector<std::string> query = {"clean", "zzz", "room", "clean"};
  const InvertedIndex::BoundQuery bound = index_.Bind(query);
  EXPECT_EQ(bound.num_terms(), 3u) << "unknown terms are dropped";
  for (DocId doc = 0; doc < 4; ++doc) {
    EXPECT_EQ(index_.Score(doc, bound), index_.Score(doc, query));
  }
}

TEST_F(IndexTest, ScoresDescending) {
  auto top = index_.TopK({"room", "clean", "staff"}, 10);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].score, top[i].score);
  }
}

TEST_F(IndexTest, WeightedTopKAppliesWeights) {
  // Zero out document 2; it must disappear from the "clean" ranking.
  std::vector<double> weights = {1.0, 1.0, 0.0, 1.0};
  auto top = index_.TopKWeighted({"clean"}, 10, weights);
  for (const auto& scored : top) EXPECT_NE(scored.doc, 2);

  // Boosting a document promotes it.
  weights = {10.0, 1.0, 0.01, 1.0};
  top = index_.TopKWeighted({"clean"}, 10, weights);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].doc, 0);
}

// ------------------------------------------------ Brute-force top-k.

/// The definition TopK / TopKWeighted must meet exactly: every document
/// scored with Score(doc, query) times its weight, non-positive products
/// dropped, all of them sorted by (score descending, doc ascending), cut
/// at k.
std::vector<ScoredDoc> BruteForceTopK(const InvertedIndex& index,
                                      const std::vector<std::string>& query,
                                      size_t k,
                                      const std::vector<double>* weights) {
  std::vector<ScoredDoc> all;
  for (size_t d = 0; d < index.num_documents(); ++d) {
    const DocId doc = static_cast<DocId>(d);
    double s = index.Score(doc, query);
    if (weights != nullptr) s *= (*weights)[d];
    if (s > 0.0) all.push_back(ScoredDoc{doc, s});
  }
  std::sort(all.begin(), all.end(),
            [](const ScoredDoc& a, const ScoredDoc& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.doc < b.doc;
            });
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameRanking(const std::vector<ScoredDoc>& want,
                       const std::vector<ScoredDoc>& got,
                       const std::string& context) {
  ASSERT_EQ(want.size(), got.size()) << context;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].doc, got[i].doc) << context << " rank " << i;
    EXPECT_EQ(want[i].score, got[i].score) << context << " rank " << i;
  }
}

TEST(IndexTopKTest, MatchesBruteForceOnSeededCorpora) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    // A small vocabulary so terms repeat within and across documents,
    // and several identical documents so ties are common.
    const size_t vocab = 6 + seed % 5;
    auto word = [&] { return "w" + std::to_string(rng() % vocab); };
    InvertedIndex index;
    const size_t docs = 20 + rng() % 60;
    std::vector<std::string> twin;
    for (size_t d = 0; d < docs; ++d) {
      std::vector<std::string> tokens;
      if (!twin.empty() && rng() % 5 == 0) {
        tokens = twin;  // An exact duplicate: a guaranteed tie.
      } else {
        const size_t len = 1 + rng() % 12;
        for (size_t t = 0; t < len; ++t) tokens.push_back(word());
      }
      twin = tokens;
      index.AddDocument(tokens);
    }
    std::vector<double> weights(docs);
    for (auto& w : weights) {
      const uint64_t r = rng() % 4;
      w = r == 0 ? 0.0 : (r == 1 ? 1.0 : 0.05 + (rng() % 100) / 37.0);
    }
    for (int q = 0; q < 6; ++q) {
      std::vector<std::string> query;
      const size_t terms = 1 + rng() % 5;
      for (size_t t = 0; t < terms; ++t) query.push_back(word());
      query.push_back(query.front());   // A repeated term.
      query.push_back("unknown-term");  // A term no document has.
      for (const size_t k : {size_t{0}, size_t{1}, docs / 3, docs + 10}) {
        const std::string context = "seed " + std::to_string(seed) +
                                    " query " + std::to_string(q) +
                                    " k " + std::to_string(k);
        ExpectSameRanking(BruteForceTopK(index, query, k, nullptr),
                          index.TopK(query, k), context);
        ExpectSameRanking(BruteForceTopK(index, query, k, &weights),
                          index.TopKWeighted(query, k, weights),
                          context + " weighted");
      }
    }
  }
}

TEST(IndexEdgeTest, EmptyIndex) {
  InvertedIndex index;
  EXPECT_EQ(index.num_documents(), 0u);
  EXPECT_EQ(index.average_doc_length(), 0.0);
  EXPECT_TRUE(index.TopK({"x"}, 5).empty());
}

TEST(IndexEdgeTest, SingleDocument) {
  InvertedIndex index;
  index.AddDocument({"clean", "room"});
  auto top = index.TopK({"clean"}, 5);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].doc, 0);
  EXPECT_GT(top[0].score, 0.0);
}

TEST(IndexPropertyTest, Bm25MonotoneInTermFrequency) {
  // With identical doc lengths, higher tf must yield a higher score.
  InvertedIndex index;
  index.AddDocument({"clean", "a", "b", "c"});
  index.AddDocument({"clean", "clean", "b", "c"});
  index.AddDocument({"x", "y", "z", "w"});
  EXPECT_GT(index.Score(1, {"clean"}), index.Score(0, {"clean"}));
}

TEST(IndexPropertyTest, LengthNormalizationPenalizesLongDocs) {
  InvertedIndex index;
  std::vector<std::string> short_doc = {"clean", "room"};
  std::vector<std::string> long_doc = {"clean", "room"};
  for (int i = 0; i < 60; ++i) long_doc.push_back("filler");
  index.AddDocument(short_doc);
  index.AddDocument(long_doc);
  EXPECT_GT(index.Score(0, {"clean"}), index.Score(1, {"clean"}));
}

}  // namespace
}  // namespace opinedb::index
