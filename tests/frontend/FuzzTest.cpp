//===- FuzzTest.cpp - Frontend robustness fuzzing -----------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The compiler must never crash on malformed input: random byte soup,
// random token recombinations and pathological-but-valid programs all go
// through the full pipeline, asserting only graceful behaviour (either a
// result or diagnostics).
//
//===----------------------------------------------------------------------===//

#include "CPrinter.h"
#include "frontend/Parser.h"
#include "transform/Pipeline.h"

#include <random>
#include <string>

#include <gtest/gtest.h>

using namespace igen;

namespace {

void pipeline(const std::string &Src) {
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  auto Out = compileToIntervals(Src, Opts, Diags);
  // Either output or at least one error; never both nothing.
  if (!Out) {
    EXPECT_TRUE(Diags.hasErrors()) << Src;
  }
}

} // namespace

TEST(Fuzz, RandomByteSoupDoesNotCrash) {
  std::mt19937_64 Gen(12345);
  std::uniform_int_distribution<int> Byte(32, 126);
  std::uniform_int_distribution<int> Len(0, 400);
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::string Src;
    int N = Len(Gen);
    for (int I = 0; I < N; ++I)
      Src.push_back(static_cast<char>(Byte(Gen)));
    pipeline(Src);
  }
}

TEST(Fuzz, RandomTokenSoupDoesNotCrash) {
  const char *Tokens[] = {
      "double", "int",  "float", "if",   "else", "for",  "while", "return",
      "(",      ")",    "{",     "}",    "[",    "]",    ";",     ",",
      "+",      "-",    "*",     "/",    "=",    "==",   "<",     ">",
      "x",      "y",    "foo",   "1",    "2.5",  "0.1",  "0.25t", ":",
      "#pragma igen reduce y\n", "__m256d", "_mm256_add_pd", "&&", "||",
      "sqrt",   "sin",  "++",    "--",   "+=",   "&",    "!",     "%"};
  std::mt19937_64 Gen(777);
  std::uniform_int_distribution<size_t> Pick(
      0, sizeof(Tokens) / sizeof(Tokens[0]) - 1);
  std::uniform_int_distribution<int> Len(1, 120);
  for (int Trial = 0; Trial < 500; ++Trial) {
    std::string Src;
    int N = Len(Gen);
    for (int I = 0; I < N; ++I) {
      Src += Tokens[Pick(Gen)];
      Src += ' ';
    }
    pipeline(Src);
  }
}

TEST(Fuzz, MutatedValidProgramsDoNotCrash) {
  const std::string Base =
      "double foo(double a, double b) {\n"
      "  double c = a + b * 0.1;\n"
      "  for (int i = 0; i < 10; i++) {\n"
      "    if (c > a) { c = c - 1.0; } else { c = c + sqrt(b); }\n"
      "  }\n"
      "  return c;\n"
      "}\n";
  std::mt19937_64 Gen(31);
  std::uniform_int_distribution<int> Byte(32, 126);
  for (int Trial = 0; Trial < 800; ++Trial) {
    std::string Src = Base;
    // 1-4 random single-character mutations (replace/delete/insert).
    std::uniform_int_distribution<int> NumMut(1, 4);
    int M = NumMut(Gen);
    for (int K = 0; K < M; ++K) {
      std::uniform_int_distribution<size_t> Pos(0, Src.size() - 1);
      size_t P = Pos(Gen);
      switch (Trial % 3) {
      case 0:
        Src[P] = static_cast<char>(Byte(Gen));
        break;
      case 1:
        Src.erase(P, 1);
        break;
      default:
        Src.insert(P, 1, static_cast<char>(Byte(Gen)));
        break;
      }
    }
    pipeline(Src);
  }
}

TEST(Fuzz, DeepExpressionNesting) {
  // Deep parenthesization and long operator chains must not blow the
  // recursive-descent stack at plausible depths.
  std::string Deep = "double f(double x) { return ";
  for (int I = 0; I < 400; ++I)
    Deep += "(x + ";
  Deep += "x";
  for (int I = 0; I < 400; ++I)
    Deep += ")";
  Deep += "; }";
  pipeline(Deep);

  std::string Chain = "double g(double x) { return x";
  for (int I = 0; I < 5000; ++I)
    Chain += " + x";
  Chain += "; }";
  pipeline(Chain);
}

TEST(Fuzz, PrinterIsFixedPointOnValidPrograms) {
  // For every valid program the printer must reach a fixed point:
  // parse -> print -> parse -> print yields identical text.
  const char *Programs[] = {
      "double f(double a) { return -a * (a + 1.0) / 2.0; }",
      "void g(double *p, int n) { for (int i = 0; i < n; i++) p[i] = "
      "p[i] * p[i]; }",
      "double h(double:0.25 s) { double r = s + 0.5t; return r; }",
      "int k(int a, int b) { return a % b << 2 & 7 | b ^ 3; }",
      "double m(double x) { while (x < 10.0) { x = x * 2.0; } do { x = x "
      "- 1.0; } while (x > 5.0); return x; }",
  };
  for (const char *Src : Programs) {
    DiagnosticsEngine D1;
    ASTContext C1;
    Parser P1(Src, C1, D1);
    ASSERT_TRUE(P1.parseTranslationUnit()) << Src;
    CPrinter Pr1;
    std::string Once = Pr1.print(C1.TU);
    DiagnosticsEngine D2;
    ASTContext C2;
    Parser P2(Once, C2, D2);
    ASSERT_TRUE(P2.parseTranslationUnit()) << Once;
    CPrinter Pr2;
    EXPECT_EQ(Once, Pr2.print(C2.TU)) << Src;
  }
}

TEST(Fuzz, ManyStatementsAndScopes) {
  std::string Src = "double f(double x) {\n";
  for (int I = 0; I < 1500; ++I)
    Src += "  { double t" + std::to_string(I) + " = x * 2.0; x = t" +
           std::to_string(I) + "; }\n";
  Src += "  return x;\n}\n";
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  auto Out = compileToIntervals(Src, Opts, Diags);
  EXPECT_TRUE(Out.has_value()) << Diags.render("fuzz");
  // x is unconstrained but 2.0 is provably positive: the optimizer
  // emits the sign-specialized multiply.
  EXPECT_NE(Out->find("ia_mul_pu_f64"), std::string::npos);
}
