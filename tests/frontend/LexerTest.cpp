//===- LexerTest.cpp - Lexer unit tests --------------------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include <gtest/gtest.h>

#include <cctype>
#include <clocale>
#include <cstring>
#include <string>

using namespace igen;

namespace {

std::vector<Token> lexAll(std::string_view Src) {
  DiagnosticsEngine Diags;
  Lexer L(Src, Diags);
  std::vector<Token> T = L.lexAll();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render("test");
  return T;
}

} // namespace

TEST(Lexer, KeywordsAndIdentifiers) {
  auto T = lexAll("double foo int _bar __m256d while");
  ASSERT_EQ(T.size(), 7u);
  EXPECT_EQ(T[0].Kind, TokenKind::KwDouble);
  EXPECT_EQ(T[1].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[1].Text, "foo");
  EXPECT_EQ(T[2].Kind, TokenKind::KwInt);
  EXPECT_EQ(T[3].Text, "_bar");
  EXPECT_EQ(T[4].Text, "__m256d");
  EXPECT_EQ(T[5].Kind, TokenKind::KwWhile);
  EXPECT_EQ(T[6].Kind, TokenKind::EndOfFile);
}

TEST(Lexer, IntegerLiterals) {
  auto T = lexAll("0 42 0x1F");
  EXPECT_EQ(T[0].IntValue, 0);
  EXPECT_EQ(T[1].IntValue, 42);
  EXPECT_EQ(T[2].IntValue, 31);
  EXPECT_EQ(T[2].Kind, TokenKind::IntegerLiteral);
}

TEST(Lexer, FloatLiterals) {
  auto T = lexAll("1.5 0.1 2e3 1.5e-2 3.f 2.5f");
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(T[I].Kind, TokenKind::FloatLiteral) << I;
  EXPECT_EQ(T[0].FloatValue, 1.5);
  EXPECT_EQ(T[1].FloatValue, 0.1);
  EXPECT_EQ(T[2].FloatValue, 2000.0);
  EXPECT_EQ(T[3].FloatValue, 0.015);
  EXPECT_TRUE(T[4].IsFloatSuffix);
  EXPECT_TRUE(T[5].IsFloatSuffix);
  EXPECT_EQ(T[5].FloatValue, 2.5);
}

TEST(Lexer, ToleranceSuffixExtension) {
  auto T = lexAll("0.25t 5.0 + 0.25t");
  EXPECT_EQ(T[0].Kind, TokenKind::FloatLiteral);
  EXPECT_TRUE(T[0].IsTolerance);
  EXPECT_EQ(T[0].FloatValue, 0.25);
  EXPECT_FALSE(T[1].IsTolerance);
  EXPECT_EQ(T[2].Kind, TokenKind::Plus);
  EXPECT_TRUE(T[3].IsTolerance);
}

TEST(Lexer, Operators) {
  auto T = lexAll("+ - * / % == != <= >= < > && || ++ -- += -= *= /= = -> .");
  TokenKind Expected[] = {
      TokenKind::Plus,       TokenKind::Minus,
      TokenKind::Star,       TokenKind::Slash,
      TokenKind::Percent,    TokenKind::EqualEqual,
      TokenKind::ExclaimEqual, TokenKind::LessEqual,
      TokenKind::GreaterEqual, TokenKind::Less,
      TokenKind::Greater,    TokenKind::AmpAmp,
      TokenKind::PipePipe,   TokenKind::PlusPlus,
      TokenKind::MinusMinus, TokenKind::PlusEqual,
      TokenKind::MinusEqual, TokenKind::StarEqual,
      TokenKind::SlashEqual, TokenKind::Equal,
      TokenKind::Arrow,      TokenKind::Period,
  };
  for (size_t I = 0; I < sizeof(Expected) / sizeof(Expected[0]); ++I)
    EXPECT_EQ(T[I].Kind, Expected[I]) << I;
}

TEST(Lexer, CommentsSkipped) {
  auto T = lexAll("a // line comment\nb /* block\ncomment */ c");
  ASSERT_EQ(T.size(), 4u);
  EXPECT_EQ(T[0].Text, "a");
  EXPECT_EQ(T[1].Text, "b");
  EXPECT_EQ(T[2].Text, "c");
}

TEST(Lexer, PragmaIgen) {
  auto T = lexAll("#pragma igen reduce y\nfor");
  EXPECT_EQ(T[0].Kind, TokenKind::PragmaIgen);
  EXPECT_EQ(T[0].Text, "reduce y");
  EXPECT_EQ(T[1].Kind, TokenKind::KwFor);
}

TEST(Lexer, PassthroughDirectives) {
  auto T = lexAll("#include <immintrin.h>\n#define N 100\nint");
  EXPECT_EQ(T[0].Kind, TokenKind::PassthroughDirective);
  EXPECT_EQ(T[0].Text, "#include <immintrin.h>");
  EXPECT_EQ(T[1].Kind, TokenKind::PassthroughDirective);
  EXPECT_EQ(T[2].Kind, TokenKind::KwInt);
}

TEST(Lexer, HashMidLineIsNotDirective) {
  DiagnosticsEngine Diags;
  Lexer L("a # b", Diags);
  (void)L.lexAll();
  EXPECT_TRUE(Diags.hasErrors()); // '#' only starts a directive at BOL
}

TEST(Lexer, SourceLocations) {
  auto T = lexAll("a\n  bb\n   c");
  EXPECT_EQ(T[0].Loc.Line, 1u);
  EXPECT_EQ(T[0].Loc.Col, 1u);
  EXPECT_EQ(T[1].Loc.Line, 2u);
  EXPECT_EQ(T[1].Loc.Col, 3u);
  EXPECT_EQ(T[2].Loc.Line, 3u);
  EXPECT_EQ(T[2].Loc.Col, 4u);
}

TEST(Lexer, MemberAccessVsFloat) {
  // "s.f" must lex as identifier, period, identifier -- not a float.
  auto T = lexAll("s.f 1.f");
  EXPECT_EQ(T[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[1].Kind, TokenKind::Period);
  EXPECT_EQ(T[2].Kind, TokenKind::Identifier);
  EXPECT_EQ(T[3].Kind, TokenKind::FloatLiteral);
}

TEST(Lexer, ExponentWithoutDigitsKeepsColumns) {
  // "1e+x" is 1, e, +, x: the lexer looks past "e+" for exponent digits
  // and, finding none, must not count those characters twice.
  auto T = lexAll("1e+x");
  ASSERT_EQ(T.size(), 5u);
  EXPECT_EQ(T[0].Kind, TokenKind::IntegerLiteral);
  EXPECT_EQ(T[1].Text, "e");
  EXPECT_EQ(T[1].Loc.Col, 2u);
  EXPECT_EQ(T[2].Kind, TokenKind::Plus);
  EXPECT_EQ(T[2].Loc.Col, 3u);
  EXPECT_EQ(T[3].Text, "x");
  EXPECT_EQ(T[3].Loc.Col, 4u);
}

TEST(Lexer, StrayRunIsOneDiagnostic) {
  // 1 MiB of characters that start no token: skipped in one loop (no
  // recursion per byte to overflow the stack), one diagnostic.
  std::string Src(1 << 20, '@');
  DiagnosticsEngine Diags;
  Lexer L(Src, Diags);
  std::vector<Token> T = L.lexAll();
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T[0].Kind, TokenKind::EndOfFile);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Message,
            "1048576 unexpected characters starting with '@'");
  EXPECT_FALSE(L.gaveUp());
}

TEST(Lexer, StrayDiagnosticsAreCapped) {
  // Separate runs report one each, up to the cap; then the lexer says it
  // gives up and stops.
  std::string Src;
  for (int I = 0; I < 100000; ++I)
    Src += "@ ";
  Src += "x";
  DiagnosticsEngine Diags;
  Lexer L(Src, Diags);
  std::vector<Token> T = L.lexAll();
  ASSERT_EQ(T.size(), 1u);
  EXPECT_EQ(T[0].Kind, TokenKind::EndOfFile);
  EXPECT_TRUE(L.gaveUp());
  ASSERT_EQ(Diags.errorCount(), Lexer::MaxLexErrors + 1);
  EXPECT_EQ(Diags.diagnostics()[0].Message, "unexpected character '@'");
  EXPECT_EQ(Diags.diagnostics().back().Message,
            "too many errors (limit 256); giving up");
}

TEST(Lexer, NonPrintableStrayByteIsQuotedInHex) {
  DiagnosticsEngine Diags;
  Lexer L(std::string_view("a \x01\x80 b", 6), Diags);
  std::vector<Token> T = L.lexAll();
  ASSERT_EQ(T.size(), 3u);
  EXPECT_EQ(T[1].Text, "b");
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Message,
            "2 unexpected characters starting with '\\x01'");
  EXPECT_EQ(Diags.diagnostics()[0].Loc.Col, 3u);
}

namespace {

struct Lexed {
  std::vector<Token> T;
  unsigned Errors = 0;
  SourceLoc FirstError;
};

/// The token texts view \p Src: the caller keeps it alive.
Lexed lexBytes(const std::string &Src) {
  DiagnosticsEngine Diags;
  Lexer L(Src, Diags);
  Lexed R;
  R.T = L.lexAll();
  R.Errors = Diags.errorCount();
  if (!Diags.diagnostics().empty())
    R.FirstError = Diags.diagnostics()[0].Loc;
  return R;
}

} // namespace

TEST(Lexer, EveryByteClassifiedAsTheCLocale) {
  // The lexer tests character classes inline; <cctype> in the "C" locale
  // is the reference, byte by byte.
  ASSERT_STREQ(std::setlocale(LC_ALL, nullptr), "C");
  const char *Punct = "(){}[];,:?~.+-*/%&|^!<>=";
  for (int V = 0; V < 256; ++V) {
    SCOPED_TRACE(V);
    const char B = static_cast<char>(V);
    const bool Space = std::isspace(V), Digit = std::isdigit(V);
    const bool Word = std::isalnum(V) || V == '_';
    const bool IsPunct = V != 0 && std::strchr(Punct, V) != nullptr;

    // Whitespace position: between two identifiers.
    const std::string WSrc = std::string("a") + B + "b";
    Lexed W = lexBytes(WSrc);
    ASSERT_GE(W.T.size(), 2u);
    EXPECT_EQ(W.T[0].Loc.Col, 1u);
    if (Space) {
      ASSERT_EQ(W.T.size(), 3u);
      EXPECT_EQ(W.T[0].Text, "a");
      EXPECT_EQ(W.T[1].Text, "b");
      EXPECT_EQ(W.T[1].Loc.Line, V == '\n' ? 2u : 1u);
      EXPECT_EQ(W.T[1].Loc.Col, V == '\n' ? 1u : 3u);
      EXPECT_EQ(W.Errors, 0u);
    } else if (Word) {
      ASSERT_EQ(W.T.size(), 2u);
      EXPECT_EQ(W.T[0].Kind, TokenKind::Identifier);
      EXPECT_EQ(W.T[0].Text, WSrc);
      EXPECT_EQ(W.Errors, 0u);
    } else if (IsPunct) {
      ASSERT_EQ(W.T.size(), 4u);
      EXPECT_NE(W.T[1].Kind, TokenKind::Identifier);
      EXPECT_EQ(W.T[1].Loc.Col, 2u);
      EXPECT_EQ(W.T[2].Text, "b");
      EXPECT_EQ(W.T[2].Loc.Col, 3u);
      EXPECT_EQ(W.Errors, 0u);
    } else { // starts no token: skipped with one diagnostic
      ASSERT_EQ(W.T.size(), 3u);
      EXPECT_EQ(W.T[1].Text, "b");
      EXPECT_EQ(W.T[1].Loc.Col, 3u);
      EXPECT_EQ(W.Errors, 1u);
      EXPECT_EQ(W.FirstError.Col, 2u);
    }

    // Identifier position: after an identifier's first character.
    const std::string ISrc = std::string("_") + B;
    Lexed I = lexBytes(ISrc);
    ASSERT_GE(I.T.size(), 2u);
    EXPECT_EQ(I.T[0].Kind, TokenKind::Identifier);
    EXPECT_EQ(I.T[0].Text, Word ? ISrc : std::string("_"));

    // Number position: after a decimal digit and after a hex prefix.
    const std::string NSrc = std::string("1") + B;
    Lexed N = lexBytes(NSrc);
    ASSERT_GE(N.T.size(), 2u);
    if (Digit) {
      EXPECT_EQ(N.T[0].Kind, TokenKind::IntegerLiteral);
      EXPECT_EQ(N.T[0].IntValue, 10 + (V - '0'));
    } else {
      // The spelling excludes an f/t suffix; only '.' extends it.
      EXPECT_EQ(N.T[0].Text, V == '.' ? "1." : "1");
    }
    const std::string HSrc = std::string("0x") + B;
    Lexed H = lexBytes(HSrc);
    ASSERT_GE(H.T.size(), 2u);
    EXPECT_EQ(H.T[0].Kind, TokenKind::IntegerLiteral);
    EXPECT_EQ(H.T[0].Text, std::isxdigit(V) ? HSrc : std::string("0x"));
    if (std::isxdigit(V)) {
      EXPECT_EQ(H.T[0].IntValue, std::stoll(std::string(1, B), nullptr, 16));
    }
  }
}
