// Hostile-input fuzz over the two decoders on the serving path: the
// incremental HTTP/1.1 request parser (server::HttpParser) and the
// JSON body decoder (server::JsonValue::Parse). 10k mutated, truncated
// and oversized inputs; the contract under ASan/UBSan:
//
//  - neither decoder ever crashes, over-reads or hangs;
//  - the parser always lands in kNeedMore, kComplete, or kError with a
//    typed status (400, 413 or 431) — never anything else;
//  - its internal buffering stays bounded by the configured limits plus
//    one feed's worth of slack (no allocation amplification);
//  - a valid request survives being fed at EVERY split point, one
//    chunk boundary at a time, parsing to identical fields;
//  - JSON parse failures are typed ParseErrors, and parse successes
//    round-trip sane values (nesting depth is hard-capped, so a
//    100k-bracket bomb cannot consume 100k stack frames).
//
// All randomness is std::mt19937_64 with fixed seeds: every failure
// reproduces.
#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/httpd.h"
#include "server/json.h"

namespace opinedb {
namespace {

using server::HttpParser;
using server::JsonValue;

const char* const kValidRequests[] = {
    "GET /healthz HTTP/1.1\r\n\r\n",
    "GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    "POST /query HTTP/1.1\r\nContent-Length: 16\r\n"
    "Content-Type: application/json\r\n\r\n{\"sql\": \"select\"}"
    /* 18 bytes declared 16: parser keeps surplus for pipelining */,
    "POST /query?trace=1&stats=0 HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}",
    "HEAD /healthz HTTP/1.1\r\nHost: opinedb\r\nAccept: */*\r\n\r\n",
    "POST /admin/snapshot/save HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "GET /a%20b/c?k=v%21&flag HTTP/1.1\r\nX-Tag: 1\r\n\r\n",
};

const char* const kValidJson[] = {
    "{}",
    "null",
    "true",
    "-12.5e3",
    "\"plain\"",
    "[1, 2.5, -3e-2, \"four\", null, true, false]",
    "{\"sql\": \"select * from hotels where \\\"clean room\\\" limit 5\", "
    "\"deadline_ms\": 250, \"stats\": true}",
    "{\"nested\": {\"a\": [{\"b\": 1}]}, \"u\": \"\\u00e9\\u20ac\\ud83d"
    "\\ude00\", \"esc\": \"\\\\\\\"\\n\\t\"}",
};

/// Feeds `wire` in one shot and returns the final state.
HttpParser::State ParseAll(std::string_view wire, HttpParser* parser) {
  return parser->Feed(wire);
}

void ExpectTypedOutcome(const HttpParser& parser) {
  switch (parser.state()) {
    case HttpParser::State::kNeedMore:
    case HttpParser::State::kComplete:
      break;
    case HttpParser::State::kError:
      EXPECT_TRUE(parser.error_status() == 400 ||
                  parser.error_status() == 413 ||
                  parser.error_status() == 431)
          << "untyped parser error " << parser.error_status();
      EXPECT_FALSE(parser.error_detail().empty());
      break;
  }
}

// ------------------------------------------------ Split-point sweeps.

TEST(HttpFuzzTest, ValidRequestsSurviveEverySplitPoint) {
  for (const char* wire_cstr : kValidRequests) {
    const std::string wire = wire_cstr;
    HttpParser reference;
    ASSERT_EQ(ParseAll(wire, &reference), HttpParser::State::kComplete)
        << wire;
    for (size_t split = 0; split <= wire.size(); ++split) {
      HttpParser parser;
      parser.Feed(std::string_view(wire).substr(0, split));
      const auto state = parser.Feed(std::string_view(wire).substr(split));
      ASSERT_EQ(state, HttpParser::State::kComplete)
          << wire << " split at " << split;
      EXPECT_EQ(parser.request().method, reference.request().method);
      EXPECT_EQ(parser.request().target, reference.request().target);
      EXPECT_EQ(parser.request().path, reference.request().path);
      EXPECT_EQ(parser.request().headers, reference.request().headers);
      EXPECT_EQ(parser.request().body, reference.request().body);
      EXPECT_EQ(parser.request().keep_alive, reference.request().keep_alive);
    }
  }
}

TEST(HttpFuzzTest, SingleByteFeedMatchesOneShotParse) {
  for (const char* wire_cstr : kValidRequests) {
    const std::string wire = wire_cstr;
    HttpParser reference;
    ASSERT_EQ(ParseAll(wire, &reference), HttpParser::State::kComplete);
    HttpParser parser;
    for (const char c : wire) {
      if (parser.state() != HttpParser::State::kNeedMore) break;
      parser.Feed(std::string_view(&c, 1));
    }
    ASSERT_EQ(parser.state(), HttpParser::State::kComplete) << wire;
    EXPECT_EQ(parser.request().target, reference.request().target);
    EXPECT_EQ(parser.request().body, reference.request().body);
  }
}

TEST(HttpFuzzTest, EveryTruncationIsNeedMoreOrError) {
  for (const char* wire_cstr : kValidRequests) {
    const std::string wire = wire_cstr;
    // A strict prefix of a valid request is never a protocol error —
    // at worst it waits for more bytes (it may already be complete
    // when the tail is pipelined surplus).
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      HttpParser parser;
      const auto state =
          parser.Feed(std::string_view(wire).substr(0, cut));
      EXPECT_NE(state, HttpParser::State::kError)
          << wire << " truncated to " << cut;
    }
  }
}

// ------------------------------------------------- Mutation storms.

TEST(HttpFuzzTest, TenThousandMutatedRequestsNeverCrashOrOverbuffer) {
  std::mt19937_64 rng(0xF00DF00Du);
  size_t completes = 0, errors = 0, need_more = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    std::string wire =
        kValidRequests[rng() % (sizeof(kValidRequests) /
                                sizeof(kValidRequests[0]))];
    // Apply 1-8 random mutations: byte flips, deletions, duplications,
    // truncations, and hostile insertions at arbitrary offsets.
    const int mutations = 1 + static_cast<int>(rng() % 8);
    for (int m = 0; m < mutations && !wire.empty(); ++m) {
      const size_t at = rng() % wire.size();
      switch (rng() % 5) {
        case 0:
          wire[at] = static_cast<char>(rng() & 0xFF);
          break;
        case 1:
          wire.erase(at, 1 + rng() % 3);
          break;
        case 2:
          wire.insert(at, 1, static_cast<char>(rng() & 0xFF));
          break;
        case 3:
          wire.resize(at);
          break;
        case 4: {
          static const char* kHostile[] = {
              "\r\n", "\r\n\r\n", ": ", "Content-Length: 99999999",
              "Transfer-Encoding: chunked\r\n", "%zz", "%", "\x00\x01",
              " HTTP/1.1", "\n\t obs-fold",
          };
          wire.insert(at, kHostile[rng() % 10]);
          break;
        }
      }
    }
    HttpParser parser;
    // Feed in random-sized chunks, the way a socket would deliver.
    size_t offset = 0;
    while (offset < wire.size() &&
           parser.state() == HttpParser::State::kNeedMore) {
      const size_t chunk = 1 + rng() % 577;
      const size_t len = std::min(chunk, wire.size() - offset);
      parser.Feed(std::string_view(wire).substr(offset, len));
      offset += len;
      // Bounded buffering: limits plus one chunk of slack.
      ASSERT_LE(parser.buffered_bytes(),
                server::kMaxHeaderBytes + server::kMaxBodyBytes + 577)
          << "iteration " << iteration;
    }
    ExpectTypedOutcome(parser);
    switch (parser.state()) {
      case HttpParser::State::kComplete: ++completes; break;
      case HttpParser::State::kError: ++errors; break;
      case HttpParser::State::kNeedMore: ++need_more; break;
    }
  }
  // The storm must actually exercise all three outcomes.
  EXPECT_GT(completes, 0u);
  EXPECT_GT(errors, 0u);
  EXPECT_GT(need_more, 0u);
}

TEST(HttpFuzzTest, EverySingleByteCorruptionIsTypedOrParses) {
  for (const char* wire_cstr : kValidRequests) {
    const std::string wire = wire_cstr;
    for (size_t at = 0; at < wire.size(); ++at) {
      for (const char corrupt :
           {'\0', '\r', '\n', ' ', ':', '%', '\x7f', '\xff'}) {
        std::string mutated = wire;
        mutated[at] = corrupt;
        HttpParser parser;
        ParseAll(mutated, &parser);
        ExpectTypedOutcome(parser);
      }
    }
  }
}

// --------------------------------------------------- Oversize inputs.

TEST(HttpFuzzTest, OversizedInputsFailWithTheRightStatus) {
  {
    // Unterminated header block past the limit: 431.
    HttpParser parser;
    std::string wire = "GET / HTTP/1.1\r\nX-P: ";
    wire += std::string(20 * 1024, 'a');
    ASSERT_EQ(ParseAll(wire, &parser), HttpParser::State::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    // Terminated but oversized header block: 431.
    HttpParser parser;
    std::string wire = "GET / HTTP/1.1\r\nX-P: ";
    wire += std::string(20 * 1024, 'a');
    wire += "\r\n\r\n";
    ASSERT_EQ(ParseAll(wire, &parser), HttpParser::State::kError);
    EXPECT_EQ(parser.error_status(), 431);
  }
  {
    // Declared body beyond the limit: 413 before any body byte arrives.
    HttpParser parser;
    ASSERT_EQ(ParseAll("POST /query HTTP/1.1\r\n"
                       "Content-Length: 1048577\r\n\r\n",
                       &parser),
              HttpParser::State::kError);
    EXPECT_EQ(parser.error_status(), 413);
  }
  {
    // Content-Length overflow bait: rejected as 400, not wrapped.
    HttpParser parser;
    ASSERT_EQ(ParseAll("POST / HTTP/1.1\r\n"
                       "Content-Length: 99999999999999999999999\r\n\r\n",
                       &parser),
              HttpParser::State::kError);
    EXPECT_EQ(parser.error_status(), 400);
  }
}

TEST(HttpFuzzTest, ProtocolViolationsAreAll400) {
  const char* const kBad[] = {
      "\r\n\r\n",
      "GET\r\n\r\n",
      "GET /\r\n\r\n",
      "GET / HTTP/2.0\r\n\r\n",
      "GET / HTTP/1.1 extra\r\n\r\n",
      "G@T / HTTP/1.1\r\n\r\n",
      "get / HTTP/1.1\r\n\r\n",
      "GET nopath HTTP/1.1\r\n\r\n",
      "GET /%zz HTTP/1.1\r\n\r\n",
      "GET /%0 HTTP/1.1\r\n\r\n",
      "GET /%00 HTTP/1.1\r\n\r\n",
      "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
      "GET / HTTP/1.1\r\n: empty-name\r\n\r\n",
      "GET / HTTP/1.1\r\nBad Name: v\r\n\r\n",
      "GET / HTTP/1.1\r\nX: a\r\n folded\r\n\r\n",
      "GET / HTTP/1.1\r\nX: bell\x07\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 12x\r\n\r\n",
      "POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
  };
  for (const char* wire : kBad) {
    HttpParser parser;
    ASSERT_EQ(ParseAll(wire, &parser), HttpParser::State::kError)
        << "accepted: " << wire;
    EXPECT_EQ(parser.error_status(), 400) << wire;
  }
}

// ------------------------------------------------------- JSON decoder.

TEST(JsonFuzzTest, ValidDocumentsParse) {
  for (const char* text : kValidJson) {
    auto doc = JsonValue::Parse(text);
    EXPECT_TRUE(doc.ok()) << text << ": " << doc.status().ToString();
  }
}

TEST(JsonFuzzTest, TenThousandMutatedBodiesNeverCrash) {
  std::mt19937_64 rng(0xBADC0FFEu);
  size_t parsed = 0, rejected = 0;
  for (int iteration = 0; iteration < 10000; ++iteration) {
    std::string text =
        kValidJson[rng() % (sizeof(kValidJson) / sizeof(kValidJson[0]))];
    const int mutations = 1 + static_cast<int>(rng() % 6);
    for (int m = 0; m < mutations && !text.empty(); ++m) {
      const size_t at = rng() % text.size();
      switch (rng() % 4) {
        case 0: text[at] = static_cast<char>(rng() & 0xFF); break;
        case 1: text.erase(at, 1); break;
        case 2: text.insert(at, 1, static_cast<char>(rng() & 0xFF)); break;
        case 3: text.resize(at); break;
      }
    }
    auto doc = JsonValue::Parse(text);
    if (doc.ok()) {
      ++parsed;
    } else {
      ++rejected;
      EXPECT_EQ(doc.status().code(), StatusCode::kParseError) << text;
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(JsonFuzzTest, EveryTruncationOfValidDocsIsHandled) {
  for (const char* text_cstr : kValidJson) {
    const std::string text = text_cstr;
    for (size_t cut = 0; cut < text.size(); ++cut) {
      auto doc = JsonValue::Parse(text.substr(0, cut));
      if (!doc.ok()) {
        EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
      }
    }
  }
}

TEST(JsonFuzzTest, NestingBombsAreRejectedNotRecursed) {
  // 100k brackets: without the depth cap this would be 100k recursive
  // frames — a stack overflow, not a parse error.
  const std::string array_bomb(100000, '[');
  auto arrays = JsonValue::Parse(array_bomb);
  ASSERT_FALSE(arrays.ok());
  EXPECT_EQ(arrays.status().code(), StatusCode::kParseError);

  std::string object_bomb;
  for (int i = 0; i < 100000; ++i) object_bomb += "{\"k\":";
  auto objects = JsonValue::Parse(object_bomb);
  ASSERT_FALSE(objects.ok());
  EXPECT_EQ(objects.status().code(), StatusCode::kParseError);

  // Exactly at the cap parses; one past it is rejected.
  std::string at_cap;
  for (int i = 0; i < 64; ++i) at_cap += "[";
  at_cap += "1";
  for (int i = 0; i < 64; ++i) at_cap += "]";
  EXPECT_TRUE(JsonValue::Parse(at_cap).ok());
  EXPECT_FALSE(JsonValue::Parse("[" + at_cap + "]").ok());
}

TEST(JsonFuzzTest, HostileScalarsAreTyped) {
  const char* const kBad[] = {
      "",           " ",          "nul",        "tru",        "falsey",
      "+1",         "1.",         ".5",         "01",         "1e",
      "1e+",        "0x10",       "NaN",        "Infinity",   "-",
      "\"unterminated",            "\"bad \\q escape\"",
      "\"\\u12\"",  "\"\\ud800\"" /* lone surrogate */,
      "{\"k\" 1}",  "{\"k\": 1,}", "[1 2]",     "[1,]",       "{,}",
      "{1: 2}",     "1 2" /* trailing token */, "{} {}",      "\"a\"b",
  };
  for (const char* text : kBad) {
    auto doc = JsonValue::Parse(text);
    EXPECT_FALSE(doc.ok()) << "accepted: " << text;
  }
  // Huge magnitudes must come back finite-or-error, never UB.
  auto big = JsonValue::Parse("1e309");
  if (big.ok()) {
    ADD_FAILURE() << "non-finite number accepted";
  }
}

TEST(JsonFuzzTest, DuplicateKeysLastWinsAndLookupsAreTotal) {
  auto doc = JsonValue::Parse(
      "{\"k\": 1, \"k\": 2, \"other\": {\"inner\": true}}");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->GetNumber("k"), std::make_optional(2.0));
  EXPECT_EQ(doc->GetNumber("missing"), std::nullopt);
  EXPECT_EQ(doc->GetString("k"), std::nullopt);  // Wrong type: empty.
  const JsonValue* other = doc->Find("other");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->GetBool("inner"), std::make_optional(true));
  // Scalar accessors on mismatched kinds fall back, never trap.
  EXPECT_EQ(other->AsNumber(-1.0), -1.0);
  EXPECT_TRUE(doc->items().empty());
}

TEST(JsonFuzzTest, UnicodeEscapesRoundTripUtf8) {
  auto doc = JsonValue::Parse(
      "{\"s\": \"caf\\u00e9 \\u20ac \\ud83d\\ude00\"}");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->GetString("s"),
            std::make_optional<std::string>(
                "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80"));
}

}  // namespace
}  // namespace opinedb
