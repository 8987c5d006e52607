//===- JsonTest.cpp - Serve-frame JSON parser tests ---------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/Json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace igen::server;

namespace {

JsonValue parseOk(std::string_view Text) {
  JsonParseResult R = parseJson(Text);
  EXPECT_TRUE(R.Ok) << Text << " -> " << R.Error;
  return R.Value;
}

std::string parseErr(std::string_view Text) {
  JsonParseResult R = parseJson(Text);
  EXPECT_FALSE(R.Ok) << Text;
  return R.Error;
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parseOk("null").isNull());
  EXPECT_TRUE(parseOk("true").boolValue());
  EXPECT_FALSE(parseOk("false").boolValue());
  EXPECT_DOUBLE_EQ(parseOk("3.25").numberValue(), 3.25);
  EXPECT_DOUBLE_EQ(parseOk("-1e-3").numberValue(), -1e-3);
  EXPECT_EQ(parseOk("\"hi\\n\"").stringValue(), "hi\n");
}

TEST(JsonParse, NumbersKeepRawSpelling) {
  // 0.1 is not representable; callers that want directed rounding need
  // the original text.
  EXPECT_EQ(parseOk("0.1000000000000000001").stringValue(),
            "0.1000000000000000001");
}

TEST(JsonParse, NestedStructure) {
  JsonValue V = parseOk(
      "{\"op\":\"eval\",\"args\":[1,{\"lo\":-2,\"hi\":2}],\"n\":3}");
  ASSERT_TRUE(V.isObject());
  EXPECT_EQ(V.member("op")->stringValue(), "eval");
  const JsonValue *Args = V.member("args");
  ASSERT_TRUE(Args && Args->isArray());
  ASSERT_EQ(Args->arrayValue().size(), 2u);
  EXPECT_DOUBLE_EQ(Args->arrayValue()[1].member("lo")->numberValue(), -2.0);
  EXPECT_EQ(V.member("missing"), nullptr);
}

TEST(JsonParse, UnicodeEscapes) {
  EXPECT_EQ(parseOk("\"\\u0041\"").stringValue(), "A");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parseOk("\"\\uD83D\\uDE00\"").stringValue(), "\xF0\x9F\x98\x80");
  parseErr("\"\\uD83D\""); // unpaired surrogate
}

TEST(JsonParse, StrictGrammar) {
  parseErr("");
  parseErr("{");
  parseErr("[1,]");
  parseErr("{\"a\":1,}");
  parseErr("{'a':1}");
  parseErr("{\"a\":1} garbage");
  parseErr("nul");
  parseErr("01");
  parseErr("+1");
  parseErr("1.");
  parseErr("\"unterminated");
  parseErr("{\"a\" 1}");
  parseErr("// comment\n1");
}

TEST(JsonParse, ErrorsCarryOffsets) {
  JsonParseResult R = parseJson("{\"a\": }");
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.ErrorOffset, 6u);
}

TEST(JsonParse, DepthLimitBoundsHostileFrames) {
  std::string Deep(1000, '[');
  Deep += std::string(1000, ']');
  JsonParseResult R = parseJson(Deep);
  EXPECT_FALSE(R.Ok);

  JsonLimits Loose;
  Loose.MaxDepth = 2000;
  EXPECT_TRUE(parseJson(Deep, Loose).Ok);
}

TEST(JsonParse, ElementCountLimit) {
  std::string Wide = "[0";
  for (int I = 0; I < 200; ++I)
    Wide += ",0";
  Wide += "]";
  JsonLimits Tight;
  Tight.MaxElements = 100;
  EXPECT_FALSE(parseJson(Wide, Tight).Ok);
  EXPECT_TRUE(parseJson(Wide).Ok);
}

TEST(JsonParse, DuplicateKeysLastWins) {
  JsonValue V = parseOk("{\"a\":1,\"a\":2}");
  EXPECT_DOUBLE_EQ(V.member("a")->numberValue(), 2.0);
}

TEST(JsonParse, DuplicateKeysKeepOneMemberEachInKeyOrder) {
  JsonValue V = parseOk("{\"b\":1,\"a\":[1,2],\"b\":3,\"c\":{\"x\":1,\"x\":"
                        "\"y\"},\"a\":{\"z\":0},\"a\":[7]}");
  std::vector<std::string> Keys;
  for (const auto &M : V.objectValue())
    Keys.push_back(M.first);
  EXPECT_EQ(Keys, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_TRUE(V.member("a")->isArray());
  ASSERT_EQ(V.member("a")->arrayValue().size(), 1u);
  EXPECT_DOUBLE_EQ(V.member("a")->arrayValue()[0].numberValue(), 7.0);
  EXPECT_DOUBLE_EQ(V.member("b")->numberValue(), 3.0);
  EXPECT_EQ(V.member("c")->objectValue().size(), 1u);
  EXPECT_EQ(V.member("c")->member("x")->stringValue(), "y");
}

/// \p Prefix, \p N copies of \p C, then \p Suffix.
std::string framed(std::string_view Prefix, size_t N, char C,
                   std::string_view Suffix = "") {
  std::string S(Prefix);
  S.append(N, C);
  S += Suffix;
  return S;
}

// Each error below is pinned to its message and byte offset. String runs
// are scanned in bulk, and these inputs put the failing byte right at
// the end of such a run.
void expectError(std::string_view Text, const char *Msg, size_t Offset,
                 const JsonLimits &Limits = JsonLimits()) {
  JsonParseResult R = parseJson(Text, Limits);
  ASSERT_FALSE(R.Ok) << Text;
  EXPECT_EQ(R.Error, Msg) << Text;
  EXPECT_EQ(R.ErrorOffset, Offset) << Text;
}

TEST(JsonParseErrors, ControlCharacterAfterLongRun) {
  std::string Text = framed("{\"source\":\"", 300, 'a', "\x01\"}");
  expectError(Text, "unescaped control character in string", 11 + 300);
  expectError("\"tab\there\"", "unescaped control character in string", 4);
  expectError("\"\x1f\"", "unescaped control character in string", 1);
}

TEST(JsonParseErrors, InvalidEscapeAfterRun) {
  // The offset is just past the escape's second character.
  expectError("\"abcdef\\q\"", "invalid escape", 9);
  expectError("\"abc\\n\\x\"", "invalid escape", 8);
  expectError("\"ab\\u12G4\"", "invalid \\u escape", 5);
  expectError("\"ab\\u12\"", "truncated \\u escape", 5);
  expectError("\"ab\\u1", "truncated \\u escape", 5);
  expectError("\"ab\\uD83Dxx\"", "unpaired surrogate", 9);
}

TEST(JsonParseErrors, UnterminatedString) {
  expectError("\"abc", "unterminated string", 4);
  expectError(framed("{\"key\":\"", 100, 'v'), "unterminated string",
              108);
  expectError("\"abc\\", "unterminated escape", 5);
  expectError("{\"ab", "unterminated string", 4);
}

TEST(JsonParse, StringRunsEndAtEverySpecialByteAndOffset) {
  // Fillers next to the special bytes' values (0x1f/0x20, 0x22, 0x5c)
  // and with the high bit set, at every offset across three 8-byte
  // words, so a run scanned a word at a time must stop exactly where a
  // byte-at-a-time scan would.
  for (char Fill : {'a', '\x20', '\x21', '\x23', '\x5b', '\x5d', '\x7f',
                    '\x80', '\xa2', '\xdc', '\xff'}) {
    for (size_t N = 0; N < 24; ++N) {
      std::string Run(N, Fill);
      EXPECT_EQ(parseOk(framed("\"", N, Fill, "\"")).stringValue(), Run);
      EXPECT_EQ(parseOk(framed("\"", N, Fill, "\\n\"")).stringValue(),
                Run + "\n");
      EXPECT_EQ(parseOk(framed("\"", N, Fill, "\\\\x\"")).stringValue(),
                Run + "\\x");
      for (char Ctl : {'\x00', '\x01', '\x1f'})
        expectError(framed("\"", N, Fill, std::string(1, Ctl) + "\""),
                    "unescaped control character in string", 1 + N);
    }
  }
}

TEST(JsonParseErrors, StringLimitInsideRun) {
  JsonLimits L;
  L.MaxStringBytes = 10;
  // Ten bytes fit; the eleventh makes the string too long at the byte
  // after it, wherever the run would have ended.
  EXPECT_TRUE(parseJson(framed("\"", 10, 'a', "\""), L).Ok);
  expectError(framed("\"", 20, 'a', "\""), "string too long", 12, L);
  expectError(framed("\"", 11, 'a', "\""), "string too long", 12, L);
  expectError(framed("\"", 11, 'a', "\x01\""), "string too long", 12,
              L);
  // A string cut off right after the eleventh byte is unterminated
  // first.
  expectError(framed("\"", 11, 'a'), "unterminated string", 12, L);
  // Runs after an escape count the escape's decoded byte.
  expectError(framed("\"\\n", 20, 'a', "\""), "string too long", 13,
              L);
  // A multi-byte escape can overshoot the limit; the check fires after it.
  expectError(framed("\"", 9, 'a', "\\u20ACzz\""), "string too long",
              16, L);
  // Keys obey the same limit.
  expectError(framed("{\"", 12, 'k', "\":1}"), "string too long", 13,
              L);
}

TEST(JsonEscape, RoundTripsThroughParser) {
  std::string Nasty = "a\"b\\c\nd\te\x01f";
  const std::string Escaped = jsonEscape(Nasty);
  std::string Quoted = "\"" + Escaped + "\"";
  EXPECT_EQ(parseOk(Quoted).stringValue(), Nasty);
}

} // namespace
