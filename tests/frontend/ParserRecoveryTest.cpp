//===- ParserRecoveryTest.cpp - Parser error-recovery tests ---------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The parser recovers at statement boundaries (syncStmt): one malformed
// statement costs one diagnostic, and the rest of the function -- and
// the rest of the translation unit -- still gets parsed and checked.
// These tests pin that behavior: multiple independent errors produce
// multiple independent diagnostics (no cascades), later functions
// survive earlier broken ones, and pathological inputs hit the error
// cap instead of flooding.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <string>

#include <gtest/gtest.h>

using namespace igen;

namespace {

struct ParseResult {
  std::unique_ptr<ASTContext> Ctx;
  DiagnosticsEngine Diags;
  bool OK = false;
};

ParseResult parse(std::string_view Src) {
  ParseResult R;
  R.Ctx = std::make_unique<ASTContext>();
  Parser P(Src, *R.Ctx, R.Diags);
  R.OK = P.parseTranslationUnit();
  return R;
}

/// Number of error-severity diagnostics (notes/warnings excluded).
unsigned errors(const ParseResult &R) { return R.Diags.errorCount(); }

TEST(ParserRecovery, TwoBrokenStatementsTwoDiagnostics) {
  // Both statements are malformed; each must yield exactly one
  // diagnostic, and the trailing return must still parse.
  ParseResult R = parse("double f(double x) {\n"
                        "  double a = x + ;\n"
                        "  double b = x * ;\n"
                        "  return x;\n"
                        "}\n");
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(errors(R), 2u) << R.Diags.render("test");
}

TEST(ParserRecovery, MissingSemicolonDoesNotCascade) {
  // A missed ';' before 'return' must produce one diagnostic and then
  // sync without consuming the 'return' (the historical cascade bug).
  ParseResult R = parse("double f(double x) {\n"
                        "  double a = x * 2.0\n"
                        "  return a;\n"
                        "}\n");
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(errors(R), 1u) << R.Diags.render("test");
}

TEST(ParserRecovery, LaterFunctionsSurviveEarlierErrors) {
  ParseResult R = parse("double broken(double x) {\n"
                        "  double a = (x;\n"
                        "  return a;\n"
                        "}\n"
                        "double fine(double y) { return y + 1.0; }\n");
  EXPECT_FALSE(R.OK);
  EXPECT_GE(errors(R), 1u);
  // The second function parsed despite the first one's error.
  EXPECT_NE(R.Ctx->TU.findFunction("fine"), nullptr)
      << R.Diags.render("test");
}

TEST(ParserRecovery, ErrorsInDistinctFunctionsAllReported) {
  ParseResult R = parse("double f(double x) { double a = ; return x; }\n"
                        "double g(double y) { double b = ; return y; }\n"
                        "double h(double z) { double c = ; return z; }\n");
  EXPECT_FALSE(R.OK);
  EXPECT_EQ(errors(R), 3u) << R.Diags.render("test");
}

TEST(ParserRecovery, ErrorCapBoundsPathologicalInputs) {
  // Thousands of broken statements: the parser must stop at the cap
  // (one extra "giving up" note-style error) instead of emitting one
  // diagnostic per statement.
  std::string Src = "double f(double x) {\n";
  for (int I = 0; I < 5000; ++I)
    Src += "  double a = ;\n";
  Src += "  return x;\n}\n";
  ParseResult R = parse(Src);
  EXPECT_FALSE(R.OK);
  EXPECT_LE(errors(R), 260u) << "error cap did not bound the flood";
  EXPECT_GE(errors(R), 256u);
}

TEST(ParserRecovery, TruncatedInputStopsAtEndOfFile) {
  // Truncated input makes the parser consume its end-of-file token and
  // keep reading; it must stay on that token, not read past the token
  // vector (which aborts _GLIBCXX_ASSERTIONS builds and gives release
  // builds garbage locations). Every diagnostic of every truncated
  // prefix therefore points inside the one-line source.
  ParseResult Open = parse("double f(");
  EXPECT_FALSE(Open.OK);
  ASSERT_FALSE(Open.Diags.diagnostics().empty());
  for (const Diagnostic &D : Open.Diags.diagnostics()) {
    EXPECT_EQ(D.Loc.Line, 1u) << Open.Diags.render("test");
    EXPECT_EQ(D.Loc.Col, 10u) << Open.Diags.render("test");
  }
  std::string Src = "double f(double x, int n) { return x * n; }";
  for (size_t Len = 1; Len < Src.size(); ++Len) {
    ParseResult R = parse(Src.substr(0, Len));
    EXPECT_FALSE(R.OK) << "prefix: " << Src.substr(0, Len);
    for (const Diagnostic &D : R.Diags.diagnostics()) {
      EXPECT_EQ(D.Loc.Line, 1u) << R.Diags.render("test");
      EXPECT_LE(D.Loc.Col, Len + 1) << R.Diags.render("test");
    }
  }
}

TEST(ParserRecovery, RecoveryStopsAtCloseBrace) {
  // The sync point must not eat the '}' closing the function body:
  // the next top-level declaration still parses.
  ParseResult R = parse("double f(double x) { double a = + }\n"
                        "int g(int y) { return y; }\n");
  EXPECT_FALSE(R.OK);
  EXPECT_NE(R.Ctx->TU.findFunction("g"), nullptr)
      << R.Diags.render("test");
}

} // namespace
