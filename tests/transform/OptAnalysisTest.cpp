//===- OptAnalysisTest.cpp - Mid-end analysis tests -----------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Pins what analyzeFunctionForOpt derives for small functions: the
// value-range facts per expression, the loop-invariant hoisting
// candidates per for-loop, the FMA loop hazards and the sign-versioning
// variable per innermost for-loop. Each node is named
// by its source position and kind ("4:11 binary"), so a change to the
// analysis shows up as a readable diff of the rendered results.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "opt/OptAnalysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace igen;

namespace {

std::string nodeName(const Expr *E) {
  const char *Kind = "";
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    Kind = "int";
    break;
  case Expr::Kind::FloatLiteral:
    Kind = "float";
    break;
  case Expr::Kind::DeclRef:
    Kind = cast<DeclRefExpr>(E)->Name.c_str();
    break;
  case Expr::Kind::Unary:
    Kind = "unary";
    break;
  case Expr::Kind::Binary:
    Kind = "binary";
    break;
  case Expr::Kind::Conditional:
    Kind = "?:";
    break;
  case Expr::Kind::Call:
    Kind = cast<CallExpr>(E)->Callee.c_str();
    break;
  case Expr::Kind::Index:
    Kind = "[]";
    break;
  case Expr::Kind::Cast:
    Kind = "cast";
    break;
  case Expr::Kind::Paren:
    Kind = "()";
    break;
  }
  return std::to_string(E->loc().Line) + ":" + std::to_string(E->loc().Col) +
         " " + Kind;
}

std::string sorted(std::vector<std::string> Lines) {
  std::sort(Lines.begin(), Lines.end());
  std::string Out;
  for (const std::string &L : Lines)
    Out += L + "\n";
  return Out;
}

/// The analysis of function \p Fn in \p Src, rendered as five sorted
/// listings.
struct Rendered {
  std::string Facts, Hoists, Hazards, Versions, Rows;
};

Rendered analyze(std::string_view Src, const char *Fn,
                 bool GuardFacts = true) {
  auto Ctx = std::make_unique<ASTContext>();
  DiagnosticsEngine Diags;
  Parser P(Src, *Ctx, Diags);
  EXPECT_TRUE(P.parseTranslationUnit()) << Diags.render("test");
  Sema S(*Ctx, Diags);
  EXPECT_TRUE(S.run()) << Diags.render("test");
  FunctionDecl *F = Ctx->TU.findFunction(Fn);
  EXPECT_NE(F, nullptr);
  if (!F)
    return {};
  OptOptions Opts;
  Opts.GuardFacts = GuardFacts;
  OptFunctionInfo Info = analyzeFunctionForOpt(*F, Opts);
  Rendered R;
  std::vector<std::string> Lines;
  for (const auto &[E, V] : Info.Facts) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), " [%.17g, %.17g]%s", V.Lo, V.Hi,
                  V.NoNaN ? "" : " maybe-nan");
    Lines.push_back(nodeName(E) + Buf);
  }
  R.Facts = sorted(Lines);
  Lines.clear();
  for (const auto &[Loop, Exprs] : Info.LoopInvariants) {
    std::string L = "loop " + std::to_string(Loop->loc().Line) + ":";
    for (const Expr *E : Exprs) {
      L += ' ';
      L += nodeName(E);
    }
    Lines.push_back(L);
  }
  R.Hoists = sorted(Lines);
  Lines.clear();
  for (const Expr *E : Info.FmaLoopHazards)
    Lines.push_back(nodeName(E));
  R.Hazards = sorted(Lines);
  Lines.clear();
  for (const auto &[Loop, V] : Info.VersionVars)
    Lines.push_back("loop " + std::to_string(Loop->loc().Line) + ": " +
                    V->Name);
  R.Versions = sorted(Lines);
  Lines.clear();
  for (const auto &[Loop, K] : Info.RowKernels) {
    static const char *Kinds[] = {"axpy", "dot", "dotsub"};
    auto row = [](const RowKernelLoop::Row &Row) {
      if (!Row.Offset)
        return Row.Base->Name + "[j]";
      const std::string Offset = nodeName(Row.Offset);
      return Row.Base->Name + "[" + Offset + " + j]";
    };
    Lines.push_back("loop " + std::to_string(Loop->loc().Line) + ": " +
                    Kinds[static_cast<int>(K.K)] + " " + nodeName(K.Scalar) +
                    ", " + row(K.First) + ", " + row(K.Second) + ", from " +
                    nodeName(K.Lower) + " to " + nodeName(K.Upper));
  }
  R.Rows = sorted(Lines);
  return R;
}

} // namespace

TEST(OptAnalysis, GuardedBranchesRefineTheirVariable) {
  // The then-branch learns x > 0, the else-branch x <= 0 (both NaN-free);
  // r joins the two products at the return.
  Rendered R = analyze("double f(double x, double y) {\n"
                       "  double r = 0.0;\n"
                       "  if (x > 0.0 && y >= 2.0) {\n"
                       "    r = x * y;\n"
                       "  } else if (x <= 0.0) {\n"
                       "    r = -x * 3.0;\n"
                       "  }\n"
                       "  return r;\n"
                       "}\n",
                       "f");
  EXPECT_EQ(R.Facts, "2:14 float [0, 0]\n"
                     "3:11 float [0, 0]\n"
                     "3:23 float [2, 2]\n"
                     "4:11 binary [4.9406564584124654e-324, inf]\n"
                     "4:13 y [2, inf]\n"
                     "4:5 r [0, 0]\n"
                     "4:7 binary [4.9406564584124654e-324, inf]\n"
                     "4:9 x [4.9406564584124654e-324, inf]\n"
                     "5:19 float [0, 0]\n"
                     "6:10 x [-inf, 0]\n"
                     "6:12 binary [0, inf]\n"
                     "6:14 float [3, 3]\n"
                     "6:5 r [0, 0]\n"
                     "6:7 binary [0, inf]\n"
                     "6:9 unary [-0, inf]\n"
                     "8:10 r [0, inf]\n");
  EXPECT_EQ(R.Hoists, "");
  EXPECT_EQ(R.Hazards, "");
}

TEST(OptAnalysis, GuardFactsNeedTheExceptionPolicy) {
  Rendered R = analyze("double f(double x) {\n"
                       "  double r = 1.0;\n"
                       "  if (x > 0.0)\n"
                       "    r = x * 2.0;\n"
                       "  return r;\n"
                       "}\n",
                       "f", /*GuardFacts=*/false);
  EXPECT_EQ(R.Facts, "2:14 float [1, 1]\n"
                     "3:11 float [0, 0]\n"
                     "4:13 float [2, 2]\n"
                     "4:5 r [1, 1]\n");
}

TEST(OptAnalysis, NestedLoopsHoistInvariantsAndMarkAccumulators) {
  // s * t and s / t are invariant in both loops. acc is the inner
  // loop's carried accumulator (compound form) and y the outer one's
  // (plain form). a[j] moves with the inner loop's counter, so its
  // update carries nothing and may fuse. j is declared by the inner
  // loop's own init, so j * 0.25 hoists out of neither loop. Loads and
  // parameters are Top: only the literals get facts.
  Rendered R = analyze("double f(double *a, double s, double t, int n) {\n"
                       "  double y = 0.0;\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    double acc = 0.5;\n"
                       "    for (int j = 0; j < n; j++) {\n"
                       "      acc += a[j] * (s * t);\n"
                       "      a[j] = a[j] + s / t + j * 0.25;\n"
                       "    }\n"
                       "    y = y + acc * acc;\n"
                       "  }\n"
                       "  return y;\n"
                       "}\n",
                       "f");
  EXPECT_EQ(R.Facts, "2:14 float [0, 0]\n"
                     "3:16 int [0, 0]\n"
                     "4:18 float [0.49999999999999994, 0.50000000000000011]\n"
                     "5:18 int [0, 0]\n"
                     "7:33 float [0.24999999999999997, 0.25000000000000006]\n");
  EXPECT_EQ(R.Hoists, "loop 3: 6:21 () 7:23 binary\n"
                      "loop 5: 6:21 () 7:23 binary\n");
  EXPECT_EQ(R.Hazards, "6:11 binary\n"
                       "9:11 binary\n");
  // The inner loop's only multiply by a scalar is hoisted as s * t.
  EXPECT_EQ(R.Versions, "");
}

TEST(OptAnalysis, GrowingLoopWidensToInfinity) {
  // x doubles every iteration: the fixpoint widens its upper bound to
  // +inf after two rounds and keeps the lower bound and the sign; z
  // shrinks towards 0 from above and keeps its sign too.
  Rendered R = analyze("double f(int n) {\n"
                       "  double x = 1.0, z = 8.0;\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    x = x * 2.0;\n"
                       "    z = z / 2.0;\n"
                       "  }\n"
                       "  return x + z;\n"
                       "}\n",
                       "f");
  EXPECT_EQ(R.Facts, "2:14 float [1, 1]\n"
                     "2:23 float [8, 8]\n"
                     "3:16 int [0, 0]\n"
                     "4:11 binary [1.9999999999999998, inf]\n"
                     "4:13 float [2, 2]\n"
                     "4:5 x [1, inf]\n"
                     "4:7 binary [1.9999999999999998, inf]\n"
                     "4:9 x [1, inf]\n"
                     "5:11 binary [0, 4.0000000000000009]\n"
                     "5:13 float [2, 2]\n"
                     "5:5 z [0, 8]\n"
                     "5:7 binary [0, 4.0000000000000009]\n"
                     "5:9 z [0, 8]\n"
                     "7:10 x [1, inf]\n"
                     "7:12 binary [0.99999999999999989, inf]\n"
                     "7:14 z [0, 8]\n");
  EXPECT_EQ(R.Hoists, "");
}

TEST(OptAnalysis, LoopWithBreakForgetsWhatItWrites) {
  // break leaves mid-iteration, so s (written in the loop) is Top after
  // it while c (only read) keeps its fact; c * c still hoists and the
  // accumulation is a hazard.
  Rendered R = analyze("double f(int n) {\n"
                       "  double s = 0.0, c = 3.0;\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    if (s > 100.0)\n"
                       "      break;\n"
                       "    s = s + c * c;\n"
                       "  }\n"
                       "  return s * c;\n"
                       "}\n",
                       "f");
  EXPECT_EQ(R.Facts, "2:14 float [0, 0]\n"
                     "2:23 float [3, 3]\n"
                     "3:16 int [0, 0]\n"
                     "4:13 float [100, 100]\n"
                     "6:11 binary [-inf, inf]\n"
                     "6:13 c [3, 3]\n"
                     "6:15 binary [8.9999999999999982, 9.0000000000000018]\n"
                     "6:17 c [3, 3]\n"
                     "6:5 s [-inf, inf]\n"
                     "6:7 binary [-inf, inf]\n"
                     "6:9 s [-inf, inf]\n"
                     "8:14 c [3, 3]\n");
  EXPECT_EQ(R.Hoists, "loop 3: 6:15 binary\n");
  EXPECT_EQ(R.Hazards, "6:11 binary\n");
}

TEST(OptAnalysis, WhileAndDoLoopsConverge) {
  Rendered R = analyze("double f(double x) {\n"
                       "  double k = 0.0, m = 1.0;\n"
                       "  while (k < 4.0)\n"
                       "    k = k + 1.0;\n"
                       "  do {\n"
                       "    m = m * 0.5;\n"
                       "  } while (m > 0.25);\n"
                       "  return k + m;\n"
                       "}\n",
                       "f");
  EXPECT_EQ(R.Facts, "2:14 float [0, 0]\n"
                     "2:23 float [1, 1]\n"
                     "3:10 k [0, inf]\n"
                     "3:14 float [4, 4]\n"
                     "4:11 binary [0.99999999999999989, inf]\n"
                     "4:13 float [1, 1]\n"
                     "4:5 k [0, inf]\n"
                     "4:7 binary [0.99999999999999989, inf]\n"
                     "4:9 k [0, inf]\n"
                     "6:11 binary [0, 0.50000000000000022]\n"
                     "6:13 float [0.49999999999999994, 0.50000000000000011]\n"
                     "6:5 m [0, 1]\n"
                     "6:7 binary [0, 0.50000000000000022]\n"
                     "6:9 m [0, 1]\n"
                     "7:12 m [0, 1]\n"
                     "7:16 float [0.24999999999999997, 0.25000000000000006]\n"
                     "8:10 k [0, inf]\n"
                     "8:12 binary [-4.9406564584124654e-324, inf]\n"
                     "8:14 m [0, 1]\n");
  EXPECT_EQ(R.Hoists, "");
  EXPECT_EQ(R.Hazards, "4:11 binary\n");
}

TEST(OptAnalysis, OnlyUpdatesOfAFixedLocationAreHazards) {
  // gemm's C[i*n+j] moves with the inner loop's j: no recurrence, the
  // update may fuse. mvm's y[i] is the same element on every j
  // iteration, and so is the scalar s: both stay unfused.
  const char *Gemm =
      "void gemm(double *C, const double *A, const double *B, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int k = 0; k < n; k++) {\n"
      "      double a = A[i * n + k];\n"
      "      for (int j = 0; j < n; j++)\n"
      "        C[i * n + j] = C[i * n + j] + a * B[k * n + j];\n"
      "    }\n"
      "}\n";
  EXPECT_EQ(analyze(Gemm, "gemm").Hazards, "");
  const char *Mvm =
      "void mvm(const double *A, const double *x, double *y, int m,\n"
      "         int n) {\n"
      "  for (int i = 0; i < m; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      y[i] = y[i] + A[i * n + j] * x[j];\n"
      "}\n";
  EXPECT_EQ(analyze(Mvm, "mvm").Hazards, "5:19 binary\n");
  const char *Dot = "double dot(const double *a, const double *b, int n) {\n"
                    "  double s = 0.0;\n"
                    "  for (int i = 0; i < n; i++)\n"
                    "    s += a[i] * b[i];\n"
                    "  return s;\n"
                    "}\n";
  EXPECT_EQ(analyze(Dot, "dot").Hazards, "4:7 binary\n");
}

TEST(OptAnalysis, InnermostLoopsVersionOnAnInvariantMultiplier) {
  // gemm's a (declared in the k-loop), axpy's alpha (a parameter) and
  // ger's xi each scale every element of an innermost loop. Only the
  // innermost loop versions; the outer loops get nothing.
  const char *Src =
      "void gemm(double *C, const double *A, const double *B, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int k = 0; k < n; k++) {\n"
      "      double a = A[i * n + k];\n"
      "      for (int j = 0; j < n; j++)\n"
      "        C[i * n + j] = C[i * n + j] + a * B[k * n + j];\n"
      "    }\n"
      "}\n"
      "void axpy(double alpha, const double *x, double *y, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    y[i] = y[i] + alpha * x[i];\n"
      "}\n"
      "void ger(double *A, const double *x, const double *y, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    double xi = x[i];\n"
      "    for (int j = 0; j < n; j++)\n"
      "      A[i * n + j] += xi * y[j];\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(analyze(Src, "gemm").Versions, "loop 5: a\n");
  EXPECT_EQ(analyze(Src, "axpy").Versions, "loop 10: alpha\n");
  EXPECT_EQ(analyze(Src, "ger").Versions, "loop 16: xi\n");
}

TEST(OptAnalysis, AxpyAndDotLoopsAreRowKernels) {
  // gemm's j-loop scales row B by its version variable a into row C;
  // mvm's and potrf's k-loops accumulate a product of two rows into a
  // fixed location. ger subtracts (no axpy) and the outer loops nest.
  const char *Src =
      "void gemm(double *C, const double *A, const double *B, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    for (int k = 0; k < n; k++) {\n"
      "      double a = A[i * n + k];\n"
      "      for (int j = 0; j < n; j++)\n"
      "        C[i * n + j] = C[i * n + j] + a * B[k * n + j];\n"
      "    }\n"
      "}\n"
      "void mvm(const double *A, const double *x, double *y, int m,\n"
      "         int n) {\n"
      "  for (int i = 0; i < m; i++)\n"
      "    for (int j = 0; j < n; j++)\n"
      "      y[i] += A[i * n + j] * x[j];\n"
      "}\n"
      "double potrf(double *A, int n, int j) {\n"
      "  double s = A[j];\n"
      "  for (int k = j + 1; k < n; k++)\n"
      "    s = s - A[k + j] * A[k];\n"
      "  return s;\n"
      "}\n"
      "void ger(double *A, const double *x, const double *y, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    double xi = x[i];\n"
      "    for (int j = 0; j < n; j++)\n"
      "      A[i * n + j] -= xi * y[j];\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(analyze(Src, "gemm").Rows,
            "loop 5: axpy 6:39 a, C[6:13 binary + j], B[6:47 binary + j], "
            "from 5:20 int to 5:27 n\n");
  EXPECT_EQ(analyze(Src, "mvm").Rows,
            "loop 12: dot 13:8 [], A[13:19 binary + j], x[j], from 12:18 int "
            "to 12:25 n\n");
  EXPECT_EQ(analyze(Src, "potrf").Rows,
            "loop 17: dotsub 18:5 s, A[18:19 j + j], A[j], from 17:18 binary "
            "to 17:27 n\n");
  EXPECT_EQ(analyze(Src, "ger").Rows, "");
}

TEST(OptAnalysis, VersionVariableMostMultipliesThenDeclarationOrder) {
  // b scales two multiplies and a one: b wins. c and d tie with one
  // each: the earlier declaration, d, wins.
  const char *Src = "void f(double a, double b, double *x, int n) {\n"
                    "  for (int i = 0; i < n; i++)\n"
                    "    x[i] = a * x[i] + b * x[i] * (b * x[i]);\n"
                    "}\n"
                    "void g(double d, double c, double *x, int n) {\n"
                    "  for (int i = 0; i < n; i++)\n"
                    "    x[i] = c * x[i] + x[i] * d;\n"
                    "}\n";
  EXPECT_EQ(analyze(Src, "f").Versions, "loop 2: b\n");
  EXPECT_EQ(analyze(Src, "g").Versions, "loop 6: d\n");
}

TEST(OptAnalysis, LoopsThatMustNotVersion) {
  // Each loop multiplies by a scalar that fails one requirement: written
  // in the body (w1) or in the for-init (w2), address taken (w3), sign
  // proven by a guard (w4), a reduce pragma (w5), break (w6) and
  // continue (w7), a hoisted product (w8: a * b leaves the loop), and
  // a nest whose inner loop has no multiply (w9).
  const char *Src =
      "void w1(double a, double *x, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    x[i] = a * x[i];\n"
      "    a = x[i];\n"
      "  }\n"
      "}\n"
      "void w2(double a, double *x, int n) {\n"
      "  for (a = x[0]; n > 0; n--)\n"
      "    x[n] = a * x[n];\n"
      "}\n"
      "void w3(double a, double *x, int n) {\n"
      "  double *p = &a;\n"
      "  for (int i = 0; i < n; i++)\n"
      "    x[i] = a * x[i];\n"
      "}\n"
      "void w4(double a, double *x, int n) {\n"
      "  if (a > 0.0)\n"
      "    for (int i = 0; i < n; i++)\n"
      "      x[i] = a * x[i];\n"
      "}\n"
      "double w5(double a, double *x, int n) {\n"
      "  double s = 0.0;\n"
      "  #pragma igen reduce s\n"
      "  for (int i = 0; i < n; i++)\n"
      "    s = s + a * x[i];\n"
      "  return s;\n"
      "}\n"
      "void w6(double a, double *x, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i > 4)\n"
      "      break;\n"
      "    x[i] = a * x[i];\n"
      "  }\n"
      "}\n"
      "void w7(double a, double *x, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    if (i > 4)\n"
      "      continue;\n"
      "    x[i] = a * x[i];\n"
      "  }\n"
      "}\n"
      "void w8(double a, double b, double *x, int n) {\n"
      "  for (int i = 0; i < n; i++)\n"
      "    x[i] = a * b * x[i];\n"
      "}\n"
      "void w9(double a, double *x, int n) {\n"
      "  for (int i = 0; i < n; i++) {\n"
      "    x[i] = a * x[i];\n"
      "    for (int j = 0; j < n; j++)\n"
      "      x[j] = x[j] + 1.0;\n"
      "  }\n"
      "}\n";
  for (const char *Fn : {"w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9"})
    EXPECT_EQ(analyze(Src, Fn).Versions, "") << Fn;
}
