// Golden-trace tests: for fixed fixtures (hotel seed 21, restaurant
// seed 22 — the same builds as concurrency_test.cc) and a fixed query
// list, the per-query trace must contain the exact cascade stage the
// interpreter chose for every subjective predicate. Pinning the stage
// (word2vec / cooccurrence / text_fallback) turns a silent behavioral
// drift in the Fig. 5 cascade into a loud test failure.
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/domain_spec.h"
#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/http_client.h"
#include "server/json.h"
#include "server/server.h"

namespace opinedb {
namespace {

class TraceGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    {
      eval::BuildOptions options;
      options.generator.num_entities = 30;
      options.generator.min_reviews_per_entity = 10;
      options.generator.max_reviews_per_entity = 20;
      options.generator.seed = 21;
      options.seed = 21;
      options.extractor_training_sentences = 400;
      options.predicate_pool_size = 60;
      options.membership_training_tuples = 500;
      hotel_ = new eval::DomainArtifacts(
          eval::BuildArtifacts(datagen::HotelDomain(), options));
    }
    {
      eval::BuildOptions options;
      options.generator.num_entities = 25;
      options.generator.min_reviews_per_entity = 8;
      options.generator.max_reviews_per_entity = 16;
      options.generator.seed = 22;
      options.seed = 22;
      options.extractor_training_sentences = 400;
      options.predicate_pool_size = 60;
      options.membership_training_tuples = 500;
      restaurant_ = new eval::DomainArtifacts(
          eval::BuildArtifacts(datagen::RestaurantDomain(), options));
    }
  }

  static void TearDownTestSuite() {
    delete hotel_;
    hotel_ = nullptr;
    delete restaurant_;
    restaurant_ = nullptr;
  }

  void TearDown() override {
    // Every test restores the default level so suites can interleave.
    hotel_->db->SetTraceLevel(obs::TraceLevel::kOff);
    restaurant_->db->SetTraceLevel(obs::TraceLevel::kOff);
  }

  /// Runs `sql` at trace_level full and returns the "stage" attribute of
  /// every interpret.predicate span, in recording order.
  static std::vector<std::string> CascadeStages(core::OpineDb* db,
                                                const std::string& sql) {
    db->SetTraceLevel(obs::TraceLevel::kFull);
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    if (!result.ok() || result->trace == nullptr) return {};
    std::vector<std::string> stages;
    for (const auto& span : result->trace->Snapshot()) {
      if (span.name == "interpret.predicate") {
        stages.emplace_back(span.Attribute("stage"));
      }
    }
    return stages;
  }

  static std::string Join(const std::vector<std::string>& stages) {
    std::string out;
    for (const auto& stage : stages) {
      if (!out.empty()) out += ",";
      out += stage;
    }
    return out;
  }

  static eval::DomainArtifacts* hotel_;
  static eval::DomainArtifacts* restaurant_;
};

eval::DomainArtifacts* TraceGoldenTest::hotel_ = nullptr;
eval::DomainArtifacts* TraceGoldenTest::restaurant_ = nullptr;

struct GoldenCase {
  const char* sql;
  const char* stages;  // Comma-joined, one per subjective predicate.
};

// ------------------------------------------------ Golden stage tables.
// These pin the exact Fig. 5 cascade decision per fixture query. If an
// interpreter change legitimately moves a predicate to another stage,
// the new stage must be reviewed and re-pinned here on purpose.

TEST_F(TraceGoldenTest, HotelCascadeStagesMatchGolden) {
  const GoldenCase kCases[] = {
      {"select * from hotels where \"clean room\" limit 10", "word2vec"},
      {"select * from hotels where \"friendly staff\" limit 10",
       "word2vec"},
      {"select * from hotels where \"clean room\" and \"friendly staff\" "
       "limit 8",
       "word2vec,word2vec"},
      {"select * from hotels where \"comfortable bed\" or \"quiet "
       "street\" limit 30",
       "word2vec,word2vec"},
      {"select * from hotels where \"romantic getaway\" limit 10",
       "cooccurrence"},
      {"select * from hotels where \"good for motorcyclists\" limit 10",
       "text_fallback"},
      {"select * from hotels where price_pn < 300 and \"clean room\" "
       "limit 10",
       "word2vec"},  // Objective conditions never enter the cascade.
  };
  for (const auto& test_case : kCases) {
    EXPECT_EQ(Join(CascadeStages(hotel_->db.get(), test_case.sql)),
              test_case.stages)
        << test_case.sql;
  }
}

TEST_F(TraceGoldenTest, RestaurantCascadeStagesMatchGolden) {
  const GoldenCase kCases[] = {
      {"select * from restaurants where \"delicious food\" limit 10",
       "word2vec"},
      // "great service" sits in the w2v mid-band and wins on the
      // strong-co-occurrence override; "fast service" clears neither
      // threshold on this fixture and falls through to BM25.
      {"select * from restaurants where \"great service\" limit 10",
       "cooccurrence"},
      {"select * from restaurants where \"delicious food\" and \"great "
       "service\" limit 8",
       "word2vec,cooccurrence"},
      {"select * from restaurants where \"cozy atmosphere\" or \"fast "
       "service\" limit 25",
       "word2vec,text_fallback"},
      {"select * from restaurants where \"good for octopuses\" limit 5",
       "text_fallback"},
  };
  for (const auto& test_case : kCases) {
    EXPECT_EQ(Join(CascadeStages(restaurant_->db.get(), test_case.sql)),
              test_case.stages)
        << test_case.sql;
  }
}

TEST_F(TraceGoldenTest, StagesAreDeterministicAcrossRuns) {
  const std::string sql =
      "select * from hotels where \"clean room\" and \"romantic "
      "getaway\" limit 10";
  const auto first = CascadeStages(hotel_->db.get(), sql);
  const auto second = CascadeStages(hotel_->db.get(), sql);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size(), 2u);
}

// -------------------------------------------------- Trace structure.

TEST_F(TraceGoldenTest, TraceTreeHasExpectedShape) {
  core::OpineDb* db = hotel_->db.get();
  db->SetTraceLevel(obs::TraceLevel::kFull);
  auto result =
      db->Execute("select * from hotels where \"clean room\" limit 5");
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const auto spans = result->trace->Snapshot();
  ASSERT_FALSE(spans.empty());

  // The root ends last, so it is the final record; phases hang off it.
  const auto& root = spans.back();
  EXPECT_EQ(root.name, "execute_query");
  EXPECT_EQ(root.parent_id, 0u);
  EXPECT_EQ(root.Attribute("table"), "hotels");
  EXPECT_EQ(root.Attribute("conditions"), "1");
  EXPECT_EQ(root.Attribute("plan"), "dense_scan");

  auto find = [&spans](const std::string& name) -> const obs::SpanRecord* {
    for (const auto& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  };
  const auto* interpret = find("interpret");
  const auto* predicate = find("interpret.predicate");
  const auto* w2v = find("interpret.word2vec");
  const auto* score = find("score");
  const auto* condition = find("score.condition");
  const auto* rank = find("combine_rank");
  ASSERT_NE(interpret, nullptr);
  ASSERT_NE(predicate, nullptr);
  ASSERT_NE(w2v, nullptr);
  ASSERT_NE(score, nullptr);
  ASSERT_NE(condition, nullptr);
  ASSERT_NE(rank, nullptr);

  // Hierarchy: phases under the root, cascade under interpret.
  EXPECT_EQ(interpret->parent_id, root.id);
  EXPECT_EQ(score->parent_id, root.id);
  EXPECT_EQ(rank->parent_id, root.id);
  EXPECT_EQ(predicate->parent_id, interpret->id);
  EXPECT_EQ(w2v->parent_id, predicate->id);

  // The threshold decisions of Fig. 5 are on the cascade span.
  EXPECT_EQ(predicate->Attribute("predicate"), "clean room");
  EXPECT_FALSE(predicate->Attribute("w2v_confidence").empty());
  EXPECT_FALSE(predicate->Attribute("w2v_threshold").empty());
  // Uncached subjective scoring reports its source.
  EXPECT_EQ(condition->Attribute("source"), "computed");
  EXPECT_EQ(rank->Attribute("results"), "5");

  // Render paths produce non-trivial output for this real trace.
  const std::string tree = result->trace->RenderTree();
  EXPECT_EQ(tree.find("execute_query"), 0u);
  EXPECT_NE(tree.find("\n  interpret"), std::string::npos);
  EXPECT_NE(result->trace->ToJson().find("\"name\": \"execute_query\""),
            std::string::npos);
}

TEST_F(TraceGoldenTest, FilteredScanEmitsObjectiveFilterSpan) {
  core::OpineDb* db = hotel_->db.get();
  db->SetTraceLevel(obs::TraceLevel::kFull);
  auto result = db->Execute(
      "select * from hotels where city = 'london' and price_pn < 300 "
      "and \"friendly staff\" limit 10");
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const auto spans = result->trace->Snapshot();
  const auto& root = spans.back();
  EXPECT_EQ(root.Attribute("plan"), "filtered_scan");
  const obs::SpanRecord* filter = nullptr;
  for (const auto& span : spans) {
    if (span.name == "objective_filter") filter = &span;
  }
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->parent_id, root.id);
  EXPECT_EQ(filter->Attribute("predicates"), "2");
  EXPECT_EQ(filter->Attribute("entities"), "30");
  // Survivors match the query's entities_scored — the pushdown shrank
  // the scoring fan-out.
  EXPECT_EQ(filter->Attribute("survivors"),
            std::to_string(result->stats.entities_scored));
  EXPECT_LT(result->stats.entities_scored, db->corpus().num_entities());
}

// --------------------------------------------------- EXPLAIN goldens.
// EXPLAIN output is part of the observable surface: pin the full text
// on both fixtures so format drift is a reviewed change, not an
// accident.

TEST_F(TraceGoldenTest, HotelExplainMatchesGolden) {
  auto result = hotel_->db->Execute(
      "explain select * from hotels where city = 'london' and "
      "\"friendly staff\" limit 5");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan_text,
            "plan: filtered_scan\n"
            "table: hotels  limit: 5  variant: product\n"
            "where: (p0 AND p1)\n"
            "conditions:\n"
            "  [0] objective  city = 'london' [hard]\n"
            "  [1] subjective \"friendly staff\"\n"
            "operators:\n"
            "  ObjectiveFilter(1 hard predicates)\n"
            "  SubjectiveScore(2 condition lists over survivors)\n"
            "  Rank(top 5, partial_sort)\n");
}

TEST_F(TraceGoldenTest, RestaurantExplainMatchesGolden) {
  auto result = restaurant_->db->Execute(
      "explain select * from restaurants where \"delicious food\" and "
      "\"great service\" limit 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan_text,
            "plan: dense_scan\n"
            "table: restaurants  limit: 3  variant: product\n"
            "where: (p0 AND p1)\n"
            "conditions:\n"
            "  [0] subjective \"delicious food\"\n"
            "  [1] subjective \"great service\"\n"
            "operators:\n"
            "  SubjectiveScore(2 condition lists over all entities)\n"
            "  Rank(top 3, partial_sort)\n");
}

// The score.condition span says where each subjective condition's
// degrees came from: scored this query, or a precomputed list.
TEST_F(TraceGoldenTest, CacheHitAndMissAreRecordedInSpans) {
  core::OpineDb* db = hotel_->db.get();
  db->SetTraceLevel(obs::TraceLevel::kFull);
  const std::string sql =
      "select * from hotels where \"quiet street\" limit 5";

  auto source_of = [](const core::QueryResult& result) -> std::string {
    for (const auto& span : result.trace->Snapshot()) {
      if (span.name == "score.condition") {
        return std::string(span.Attribute("source"));
      }
    }
    return "";
  };
  auto cold = db->Execute(sql);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(source_of(*cold), "computed");
  ASSERT_EQ(db->PrecomputeDegrees({"quiet street"}), 1u);
  auto warm = db->Execute(sql);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(source_of(*warm), "precomputed");
  db->PrecomputeDegrees({});
}

TEST_F(TraceGoldenTest, NoTraceBelowFullLevel) {
  core::OpineDb* db = restaurant_->db.get();
  const std::string sql =
      "select * from restaurants where \"delicious food\" limit 5";
  db->SetTraceLevel(obs::TraceLevel::kOff);
  auto off = db->Execute(sql);
  ASSERT_TRUE(off.ok());
  EXPECT_EQ(off->trace, nullptr);
  db->SetTraceLevel(obs::TraceLevel::kStats);
  auto stats = db->Execute(sql);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->trace, nullptr);
}

TEST_F(TraceGoldenTest, StatsLevelPublishesRegistryMetrics) {
  core::OpineDb* db = restaurant_->db.get();
  db->SetTraceLevel(obs::TraceLevel::kStats);
  auto& registry = obs::MetricsRegistry::Global();
  auto* queries = registry.GetCounter("engine.queries");
  auto* scored = registry.GetCounter("engine.entities_scored");
  const uint64_t queries_before = queries->Value();
  const uint64_t scored_before = scored->Value();
  auto result = db->Execute(
      "select * from restaurants where \"great service\" limit 5");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(queries->Value(), queries_before + 1);
  EXPECT_EQ(scored->Value(),
            scored_before + db->corpus().num_entities());
  // The ExecutionStats façade and the registry agree.
  EXPECT_EQ(result->stats.entities_scored, db->corpus().num_entities());
}

// ------------------------------------------- Traces over the wire.
// The query server forwards TraceBuffer::ToJson verbatim when the
// client asks (?trace=1) and the engine runs at kFull. Pin the served
// span tree's schema and the cascade content so the HTTP surface
// cannot drift away from the embedded one.

TEST_F(TraceGoldenTest, ServedTraceSpanTreeMatchesGoldenSchema) {
  core::OpineDb* db = hotel_->db.get();
  db->SetTraceLevel(obs::TraceLevel::kFull);
  server::QueryServer query_server(db);
  ASSERT_TRUE(query_server.Start().ok());
  server::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", query_server.port()).ok());
  const char* body =
      "{\"sql\": \"select * from hotels where \\\"clean room\\\" "
      "limit 5\"}";

  // Without the flag the document has no trace section at all.
  auto plain = client.Post("/query", body);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(plain->status, 200);
  EXPECT_EQ(plain->body.find("\"trace\""), std::string::npos);

  auto traced = client.Post("/query?trace=1", body);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  ASSERT_EQ(traced->status, 200);
  auto doc = server::JsonValue::Parse(traced->body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const server::JsonValue* trace = doc->Find("trace");
  ASSERT_NE(trace, nullptr);
  ASSERT_TRUE(trace->is_array());
  ASSERT_FALSE(trace->items().empty());

  // Schema pin: every span renders exactly these seven fields, with
  // attributes as a string-to-string object.
  const char* const kSpanFields[] = {"id",       "parent_id",   "seq",
                                     "name",     "start_ms",
                                     "duration_ms", "attributes"};
  std::map<std::string, const server::JsonValue*> by_name;
  for (const server::JsonValue& span : trace->items()) {
    ASSERT_TRUE(span.is_object());
    ASSERT_EQ(span.members().size(), 7u);
    for (const char* field : kSpanFields) {
      ASSERT_NE(span.Find(field), nullptr) << "span missing " << field;
    }
    EXPECT_TRUE(span.Find("attributes")->is_object());
    by_name[*span.GetString("name")] = &span;
  }

  // Content pin: the cascade skeleton serves intact, parented as in
  // TraceTreeHasExpectedShape, with the golden stage decision.
  for (const char* name :
       {"execute_query", "interpret", "interpret.predicate",
        "interpret.word2vec", "score", "score.condition", "combine_rank"}) {
    EXPECT_TRUE(by_name.count(name)) << "served trace lost span " << name;
  }
  const server::JsonValue* root = by_name["execute_query"];
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->GetNumber("parent_id"), std::make_optional(0.0));
  EXPECT_EQ(root->Find("attributes")->GetString("plan"),
            std::make_optional<std::string>("dense_scan"));
  const server::JsonValue* predicate = by_name["interpret.predicate"];
  ASSERT_NE(predicate, nullptr);
  EXPECT_EQ(predicate->Find("attributes")->GetString("predicate"),
            std::make_optional<std::string>("clean room"));
  EXPECT_EQ(predicate->Find("attributes")->GetString("stage"),
            std::make_optional<std::string>("word2vec"));
  EXPECT_EQ(predicate->GetNumber("parent_id"),
            by_name["interpret"]->GetNumber("id"));

  // The served span tree is the embedded one: same names, same
  // parent/child edges (timings differ run to run, structure may not).
  auto embedded = db->Execute(
      "select * from hotels where \"clean room\" limit 5");
  ASSERT_TRUE(embedded.ok());
  ASSERT_NE(embedded->trace, nullptr);
  std::multiset<std::string> served_edges, embedded_edges;
  std::map<double, std::string> served_names;
  for (const server::JsonValue& span : trace->items()) {
    served_names[*span.GetNumber("id")] = *span.GetString("name");
  }
  for (const server::JsonValue& span : trace->items()) {
    const double parent = *span.GetNumber("parent_id");
    served_edges.insert(*span.GetString("name") + "<-" +
                        (parent == 0 ? "root" : served_names[parent]));
  }
  std::map<uint64_t, std::string> embedded_names;
  for (const auto& span : embedded->trace->Snapshot()) {
    embedded_names[span.id] = span.name;
  }
  for (const auto& span : embedded->trace->Snapshot()) {
    embedded_edges.insert(
        span.name + "<-" +
        (span.parent_id == 0 ? "root" : embedded_names[span.parent_id]));
  }
  EXPECT_EQ(served_edges, embedded_edges);
  query_server.Stop();
}

TEST_F(TraceGoldenTest, TraceFlagWithoutFullLevelServesNoTrace) {
  core::OpineDb* db = restaurant_->db.get();
  db->SetTraceLevel(obs::TraceLevel::kOff);
  server::QueryServer query_server(db);
  ASSERT_TRUE(query_server.Start().ok());
  server::HttpClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", query_server.port()).ok());
  auto response = client.Post(
      "/query?trace=1",
      "{\"sql\": \"select * from restaurants where \\\"delicious "
      "food\\\" limit 5\"}");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200);
  // The flag asks; only the engine's level grants. No trace section.
  EXPECT_EQ(response->body.find("\"trace\""), std::string::npos);
  query_server.Stop();
}

TEST_F(TraceGoldenTest, TraceLevelFullResultsIdenticalToOff) {
  // Tracing must observe, never perturb: scores and order are identical
  // with the ring buffer on and off.
  core::OpineDb* db = hotel_->db.get();
  const std::string sql =
      "select * from hotels where \"comfortable bed\" limit 10";
  db->SetTraceLevel(obs::TraceLevel::kOff);
  auto off = db->Execute(sql);
  ASSERT_TRUE(off.ok());
  db->SetTraceLevel(obs::TraceLevel::kFull);
  auto full = db->Execute(sql);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(off->results.size(), full->results.size());
  for (size_t i = 0; i < off->results.size(); ++i) {
    EXPECT_EQ(off->results[i].entity, full->results[i].entity);
    EXPECT_EQ(off->results[i].score, full->results[i].score);
  }
}

}  // namespace
}  // namespace opinedb
