//===- ReductionAnalysisTest.cpp - Reduction detection tests -----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ReductionAnalysis.h"
#include "analysis/AstQueries.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"

#include <gtest/gtest.h>

using namespace igen;

namespace {

struct Analyzed {
  std::unique_ptr<ASTContext> Ctx;
  DiagnosticsEngine Diags;
  ReductionAnalysisResult Result;
  FunctionDecl *F = nullptr;
};

Analyzed analyze(std::string_view Src, const char *Fn) {
  Analyzed A;
  A.Ctx = std::make_unique<ASTContext>();
  Parser P(Src, *A.Ctx, A.Diags);
  EXPECT_TRUE(P.parseTranslationUnit()) << A.Diags.render("test");
  Sema S(*A.Ctx, A.Diags);
  EXPECT_TRUE(S.run()) << A.Diags.render("test");
  A.F = A.Ctx->TU.findFunction(Fn);
  A.Result = analyzeReductions(*A.F, WriteSets(A.F->Body), A.Diags);
  return A;
}

/// First ForStmt in a statement (searching compounds).
ForStmt *firstFor(Stmt *S) {
  if (!S)
    return nullptr;
  if (auto *For = dynCast<ForStmt>(S))
    return For;
  if (auto *C = dynCast<CompoundStmt>(S)) {
    for (Stmt *Child : C->Body)
      if (ForStmt *For = firstFor(Child))
        return For;
  }
  return nullptr;
}

/// The ForStmt at nesting depth \p Depth of the function's first loop nest.
ForStmt *innerLoop(FunctionDecl *F, int Depth) {
  ForStmt *For = firstFor(F->Body);
  for (int I = 1; For && I < Depth; ++I)
    For = firstFor(For->Body);
  return For;
}

} // namespace

TEST(ReductionAnalysis, PaperMvmExample) {
  Analyzed A = analyze(
      "void mvm(double *A, double *x, double *y) {\n"
      "  #pragma igen reduce y\n"
      "  for (int i = 0; i < 100; i++)\n"
      "    for (int j = 0; j < 500; j++)\n"
      "      y[i] = y[i] + A[i * 500 + j] * x[j];\n"
      "}\n",
      "mvm");
  ASSERT_EQ(A.Result.Sites.size(), 1u);
  const ReductionSite &Site = A.Result.Sites[0];
  ASSERT_EQ(Site.Terms.size(), 1u);
  EXPECT_FALSE(Site.Terms[0].Negated);
  // Accumulator sits around the *inner* loop (target y[i] varies with i).
  EXPECT_EQ(Site.AccumLoop, innerLoop(A.F, 2));
}

TEST(ReductionAnalysis, ScalarDotProduct) {
  Analyzed A = analyze("double dot(double *a, double *b, int n) {\n"
                       "  double s = 0.0;\n"
                       "  #pragma igen reduce s\n"
                       "  for (int i = 0; i < n; i++)\n"
                       "    s = s + a[i] * b[i];\n"
                       "  return s;\n"
                       "}\n",
                       "dot");
  ASSERT_EQ(A.Result.Sites.size(), 1u);
  // s invariant in the (only) loop: accumulate around it.
  const auto *For = dynCast<ForStmt>(A.F->Body->Body[1]);
  EXPECT_EQ(A.Result.Sites[0].AccumLoop, For);
}

TEST(ReductionAnalysis, CompoundAssignAndSubtraction) {
  Analyzed A = analyze("double f(double *a, int n) {\n"
                       "  double s = 0.0;\n"
                       "  #pragma igen reduce s\n"
                       "  for (int i = 0; i < n; i++)\n"
                       "    s += a[i] - a[0];\n"
                       "  return s;\n"
                       "}\n",
                       "f");
  ASSERT_EQ(A.Result.Sites.size(), 1u);
  ASSERT_EQ(A.Result.Sites[0].Terms.size(), 2u);
  EXPECT_FALSE(A.Result.Sites[0].Terms[0].Negated);
  EXPECT_TRUE(A.Result.Sites[0].Terms[1].Negated);
}

TEST(ReductionAnalysis, TargetOnRightSide) {
  Analyzed A = analyze("double f(double *a, int n) {\n"
                       "  double s = 0.0;\n"
                       "  #pragma igen reduce s\n"
                       "  for (int i = 0; i < n; i++)\n"
                       "    s = a[i] + s;\n"
                       "  return s;\n"
                       "}\n",
                       "f");
  EXPECT_EQ(A.Result.Sites.size(), 1u);
}

TEST(ReductionAnalysis, NotAReductionWithoutSelfReference) {
  Analyzed A = analyze("void f(double *y, double *x) {\n"
                       "  #pragma igen reduce y\n"
                       "  for (int i = 0; i < 4; i++)\n"
                       "    y[i] = x[i] + 1.0;\n"
                       "}\n",
                       "f");
  EXPECT_TRUE(A.Result.Sites.empty());
  bool Warned = false;
  for (const Diagnostic &D : A.Diags.diagnostics())
    if (D.Severity == DiagSeverity::Warning)
      Warned = true;
  EXPECT_TRUE(Warned);
}

TEST(ReductionAnalysis, MultiplicativeUpdateNotDetected) {
  // Only summations are transformed (Section VI-B).
  Analyzed A = analyze("double f(double *a, int n) {\n"
                       "  double p = 1.0;\n"
                       "  #pragma igen reduce p\n"
                       "  for (int i = 0; i < n; i++)\n"
                       "    p = p * a[i];\n"
                       "  return p;\n"
                       "}\n",
                       "f");
  EXPECT_TRUE(A.Result.Sites.empty());
}

TEST(ReductionAnalysis, NoPragmaNoDetection) {
  Analyzed A = analyze("double f(double *a, int n) {\n"
                       "  double s = 0.0;\n"
                       "  for (int i = 0; i < n; i++)\n"
                       "    s = s + a[i];\n"
                       "  return s;\n"
                       "}\n",
                       "f");
  EXPECT_TRUE(A.Result.Sites.empty());
}

TEST(ReductionAnalysis, TargetVaryingInInnermostLoopRejected) {
  Analyzed A = analyze("void f(double *y, double *x) {\n"
                       "  #pragma igen reduce y\n"
                       "  for (int i = 0; i < 4; i++)\n"
                       "    y[i] = y[i] + x[i];\n"
                       "}\n",
                       "f");
  // y[i] varies with the only loop: no carried reduction.
  EXPECT_TRUE(A.Result.Sites.empty());
}

TEST(ReductionAnalysis, UsesOutsideUpdateBlockHoisting) {
  Analyzed A = analyze("double f(double *a, int n) {\n"
                       "  double s = 0.0;\n"
                       "  double last = 0.0;\n"
                       "  #pragma igen reduce s\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    for (int j = 0; j < n; j++)\n"
                       "      s = s + a[j];\n"
                       "    last = s;\n"
                       "  }\n"
                       "  return s + last;\n"
                       "}\n",
                       "f");
  ASSERT_EQ(A.Result.Sites.size(), 1u);
  // `last = s` reads s inside the i-loop: accumulator must stay at the
  // inner j-loop even though s is invariant in i too.
  EXPECT_EQ(A.Result.Sites[0].AccumLoop, innerLoop(A.F, 2));
}

TEST(ReductionAnalysis, ExprEqualityHelper) {
  Analyzed A = analyze("void f(double *y) {\n"
                       "  #pragma igen reduce y\n"
                       "  for (int i = 0; i < 2; i++)\n"
                       "    for (int j = 0; j < 2; j++)\n"
                       "      y[i + 1] = y[i + 1] + 1.0;\n"
                       "}\n",
                       "f");
  // Structural equality must see y[i+1] == y[i+1].
  EXPECT_EQ(A.Result.Sites.size(), 1u);
}

// The shapes below were rewritten onto an accumulator although they are
// no reduction: each plain loop computes something else.

TEST(ReductionAnalysis, ShadowingBlockLocalIsNotThePragmaVariable) {
  Analyzed A = analyze("double f(double *x, int n) {\n"
                       "  double s = 0.0;\n"
                       "  #pragma igen reduce s\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    double s = x[i];\n"
                       "    s = s + x[i];\n"
                       "    x[i] = s;\n"
                       "  }\n"
                       "  return s;\n"
                       "}\n",
                       "f");
  EXPECT_TRUE(A.Result.Sites.empty());
}

TEST(ReductionAnalysis, TargetMovedByAnotherVariableIsNotCarried) {
  Analyzed A = analyze("void f(double *y, double *x, int n) {\n"
                       "  int k = 0;\n"
                       "  #pragma igen reduce y\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    y[k] = y[k] + x[i];\n"
                       "    k = k + 1;\n"
                       "  }\n"
                       "}\n",
                       "f");
  // y[k] moves with k, which the loop writes.
  EXPECT_TRUE(A.Result.Sites.empty());
}

TEST(ReductionAnalysis, ReadInTheInnermostLoopIsNotCarried) {
  Analyzed A = analyze("double f(double *y, double *x, int n) {\n"
                       "  double s = 0.0;\n"
                       "  #pragma igen reduce s\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    s = s + x[i];\n"
                       "    y[i] = s;\n"
                       "  }\n"
                       "  return s;\n"
                       "}\n",
                       "f");
  // y[i] reads the running sum every iteration.
  EXPECT_TRUE(A.Result.Sites.empty());
}

TEST(ReductionAnalysis, PragmaNamesTheOuterVariableNotItsShadow) {
  Analyzed A = analyze("double f(double *x, int n) {\n"
                       "  double s = 0.0;\n"
                       "  #pragma igen reduce s\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    s = s + x[i];\n"
                       "    {\n"
                       "      double s = 1.0;\n"
                       "      s = s + x[i];\n"
                       "    }\n"
                       "  }\n"
                       "  return s;\n"
                       "}\n",
                       "f");
  // The pragma's s is the function's; the block's s is another variable,
  // so only the first update accumulates.
  ASSERT_EQ(A.Result.Sites.size(), 1u);
  const auto *Body = cast<CompoundStmt>(innerLoop(A.F, 1)->Body);
  EXPECT_EQ(A.Result.Sites[0].Update, Body->Body[0]);
  EXPECT_EQ(A.Result.Sites[0].AccumLoop, innerLoop(A.F, 1));
}

TEST(ReductionAnalysis, TermReadingTheTargetIsNotAReduction) {
  Analyzed A = analyze("double f(double *x, int n) {\n"
                       "  double s = 1.0;\n"
                       "  #pragma igen reduce s\n"
                       "  for (int i = 0; i < n; i++)\n"
                       "    s += s * x[i];\n"
                       "  return s;\n"
                       "}\n",
                       "f");
  EXPECT_TRUE(A.Result.Sites.empty());
}

TEST(ReductionAnalysis, LoadedIndexIsNotCarried) {
  Analyzed A = analyze("void f(double *y, double *x, int *idx, int n) {\n"
                       "  #pragma igen reduce y\n"
                       "  for (int i = 0; i < n; i++) {\n"
                       "    y[idx[0]] = y[idx[0]] + x[i];\n"
                       "    idx[0] = i;\n"
                       "  }\n"
                       "}\n",
                       "f");
  // The element moves with memory the write sets do not track.
  EXPECT_TRUE(A.Result.Sites.empty());
}
