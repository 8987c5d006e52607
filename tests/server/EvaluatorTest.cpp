//===- EvaluatorTest.cpp - Serve evaluator tests -----------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/Evaluator.h"

#include "interval/Rounding.h"
#include "transform/Pipeline.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace igen;
using namespace igen::server;

namespace {

std::shared_ptr<const InMemoryProgram>
compile(const char *Source, bool Join = false, bool Reductions = false,
        int OptLevel = 0) {
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  Opts.OptLevel = OptLevel;
  Opts.ScalarLibrary = true;
  Opts.EnableReductions = Reductions;
  if (Join)
    Opts.Branches = TransformOptions::BranchPolicy::Join;
  auto P = compileToProgram(Source, Opts, Diags);
  EXPECT_TRUE(P) << Diags.render("<test>");
  return std::shared_ptr<const InMemoryProgram>(std::move(P));
}

EvalResult eval(const InMemoryProgram &P, const std::string &Fn,
                std::vector<EvalArg> Args, EvalOptions EO = {}) {
  RoundUpwardScope Up;
  return evalFunction(P, Fn, Args, EO);
}

EvalArg scalar(double Lo, double Hi) {
  EvalArg A;
  A.K = EvalArg::Kind::Scalar;
  A.Scalar = Interval::fromEndpoints(Lo, Hi);
  return A;
}
EvalArg point(double X) { return scalar(X, X); }
EvalArg intArg(long long V) {
  EvalArg A;
  A.K = EvalArg::Kind::Int;
  A.IntValue = V;
  return A;
}
EvalArg arr(std::vector<Interval> Elems) {
  EvalArg A;
  A.K = EvalArg::Kind::Array;
  A.Elements = std::move(Elems);
  return A;
}

TEST(Evaluator, StraightLineArithmetic) {
  auto P = compile("double f(double x) { return (x + 1.0) * x - 0.5; }");
  EvalResult R = eval(*P, "f", {point(2.0)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  ASSERT_TRUE(R.HasReturn);
  EXPECT_DOUBLE_EQ(R.Return.lo(), 5.5);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 5.5);
}

TEST(Evaluator, IntervalArgumentsWiden) {
  auto P = compile("double f(double x) { return x * x; }");
  EvalResult R = eval(*P, "f", {scalar(-2.0, 3.0)});
  ASSERT_TRUE(R.Ok);
  // iMul of [-2,3]*[-2,3] (no square-awareness at -O0): [-6, 9].
  EXPECT_DOUBLE_EQ(R.Return.lo(), -6.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 9.0);
}

TEST(Evaluator, MathCallsMatchRuntimeMapping) {
  auto P = compile("double f(double x) { return sqrt(x) + fabs(x); }");
  EvalResult R = eval(*P, "f", {point(4.0)});
  ASSERT_TRUE(R.Ok);
  EXPECT_DOUBLE_EQ(R.Return.lo(), 6.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 6.0);

  auto Q = compile("double g(double x) { return exp(x); }");
  EvalResult R2 = eval(*Q, "g", {point(0.0)});
  ASSERT_TRUE(R2.Ok);
  EXPECT_LE(R2.Return.lo(), 1.0);
  EXPECT_GE(R2.Return.hi(), 1.0);
}

TEST(Evaluator, LoopsAndIntArithmetic) {
  auto P = compile("double f(double x, int n) {\n"
                   "  double acc = 0.0;\n"
                   "  for (int i = 0; i < n; ++i) acc += x;\n"
                   "  return acc;\n"
                   "}");
  EvalResult R = eval(*P, "f", {point(0.5), intArg(10)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), 5.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 5.0);
}

TEST(Evaluator, ArraysInAndOut) {
  auto P = compile("void scale(double *x, double *y, int n) {\n"
                   "  for (int i = 0; i < n; ++i) y[i] = 2.0 * x[i];\n"
                   "}");
  EvalResult R = eval(*P, "scale",
                      {arr({Interval::fromPoint(1.0),
                            Interval::fromPoint(-3.0)}),
                       arr({Interval::fromPoint(0.0),
                            Interval::fromPoint(0.0)}),
                       intArg(2)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_FALSE(R.HasReturn);
  ASSERT_EQ(R.ArrayOutputs.size(), 2u);
  ASSERT_EQ(R.ArrayOutputs[1].size(), 2u);
  EXPECT_DOUBLE_EQ(R.ArrayOutputs[1][0].lo(), 2.0);
  EXPECT_DOUBLE_EQ(R.ArrayOutputs[1][1].hi(), -6.0 + 0.0); // -6 exactly
  EXPECT_DOUBLE_EQ(R.ArrayOutputs[1][1].lo(), -6.0);
}

TEST(Evaluator, OutOfBoundsIsATypedErrorNotACrash) {
  auto P = compile("double f(double *x, int n) { return x[n]; }");
  EvalResult R = eval(*P, "f", {arr({Interval::fromPoint(1.0)}), intArg(5)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "out-of-bounds");
}

TEST(Evaluator, UnknownBranchIsTypedErrorUnderExceptionPolicy) {
  auto P = compile("double f(double x) {\n"
                   "  if (x > 0.0) return 1.0;\n"
                   "  return -1.0;\n"
                   "}");
  // [-1, 1] straddles the comparison: TBool::Unknown.
  EvalResult R = eval(*P, "f", {scalar(-1.0, 1.0)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "unknown-branch");

  // A decided condition works.
  EvalResult R2 = eval(*P, "f", {scalar(0.5, 1.0)});
  ASSERT_TRUE(R2.Ok);
  EXPECT_DOUBLE_EQ(R2.Return.hi(), 1.0);
}

TEST(Evaluator, JoinPolicyHullsBothBranches) {
  auto P = compile("double f(double x) {\n"
                   "  double r = 0.0;\n"
                   "  if (x > 0.0) r = 1.0; else r = -1.0;\n"
                   "  return r;\n"
                   "}",
                   /*Join=*/true);
  EvalResult R = eval(*P, "f", {scalar(-1.0, 1.0)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), -1.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 1.0);
}

TEST(Evaluator, JoinPolicyHullsAToleranceShadow) {
  auto P = compile("double f(double:0.125 a, double b) {\n"
                   "  if (b > 0.0) { a = 1.0; }\n"
                   "  return a;\n"
                   "}",
                   /*Join=*/true);
  EvalArg A;
  A.K = EvalArg::Kind::Tolerance;
  A.Point = 0.5;
  EvalResult R = eval(*P, "f", {A, scalar(-1.0, 1.0)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  // Both branches: a +- 0.125 = [0.375, 0.625] and 1.0.
  EXPECT_DOUBLE_EQ(R.Return.lo(), 0.375);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 1.0);
}

TEST(Evaluator, ReductionAccumulatorRuns) {
  auto P = compile("double dot(double *a, double *b, int n) {\n"
                   "  double s = 0.0;\n"
                   "  #pragma igen reduce\n"
                   "  for (int i = 0; i < n; ++i) s += a[i] * b[i];\n"
                   "  return s;\n"
                   "}",
                   /*Join=*/false, /*Reductions=*/true);
  std::vector<Interval> A, B;
  for (int I = 0; I < 100; ++I) {
    A.push_back(Interval::fromPoint(0.1 * I));
    B.push_back(Interval::fromPoint(1.0));
  }
  EvalResult R = eval(*P, "dot", {arr(A), arr(B), intArg(100)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  long double Ref = 0.0L;
  for (int I = 0; I < 100; ++I)
    Ref += (long double)(0.1 * I);
  EXPECT_LE((long double)R.Return.lo(), Ref);
  EXPECT_GE((long double)R.Return.hi(), Ref);
}

TEST(Evaluator, ToleranceParameterWidens) {
  auto P = compile("double f(double:0.5 a) { return a; }");
  EvalArg A;
  A.K = EvalArg::Kind::Tolerance;
  A.Point = 10.0;
  EvalResult R = eval(*P, "f", {A});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), 9.5);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 10.5);
}

TEST(Evaluator, StepLimitStopsRunawayLoops) {
  auto P = compile("double f(double x) {\n"
                   "  while (x < 1.0e308) x = x + 0.0;\n"
                   "  return x;\n"
                   "}");
  EvalOptions EO;
  EO.StepLimit = 10000;
  RoundUpwardScope Up;
  EvalResult R = evalFunction(*P, "f", {point(0.0)}, EO);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "step-limit");
}

TEST(Evaluator, RecursionLimit) {
  auto P = compile("double f(double x) { return f(x) + 1.0; }");
  EvalResult R = eval(*P, "f", {point(0.0)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "recursion-limit");
}

TEST(Evaluator, IntDivZero) {
  auto P = compile("double f(int n) { int m = 10 / n; return 1.0; }");
  EvalResult R = eval(*P, "f", {intArg(0)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "int-div-zero");
}

TEST(Evaluator, NoSuchFunctionAndBadArity) {
  auto P = compile("double f(double x) { return x; }");
  EvalResult R = eval(*P, "nope", {point(0.0)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "no-such-function");

  EvalResult R2 = eval(*P, "f", {});
  ASSERT_FALSE(R2.Ok);
  EXPECT_EQ(R2.Error.Code, "bad-argument");
}

TEST(Evaluator, PoisonedEntryReturnsWhole) {
  auto P = compile("double f(double x) { return x; }");
  EvalOptions EO;
  EO.PoisonedEntry = true;
  RoundUpwardScope Up;
  EvalResult R = evalFunction(*P, "f", {point(3.0)}, EO);
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(std::isinf(R.Return.lo()));
  EXPECT_TRUE(std::isinf(R.Return.hi()));
}

TEST(Evaluator, UserFunctionCalls) {
  auto P = compile("double sq(double x) { return x * x; }\n"
                   "double f(double x) { return sq(x) + sq(x + 1.0); }");
  EvalResult R = eval(*P, "f", {point(2.0)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), 13.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 13.0);
}

TEST(Evaluator, DescribeFunction) {
  auto P = compile(
      "double f(double x, int n, double *a, double:0.25 t) { return x; }");
  std::vector<std::string> Kinds;
  std::string Ret;
  ASSERT_TRUE(describeFunction(*P, "f", Kinds, Ret));
  ASSERT_EQ(Kinds.size(), 4u);
  EXPECT_EQ(Kinds[0], "interval");
  EXPECT_EQ(Kinds[1], "int");
  EXPECT_EQ(Kinds[2], "array");
  EXPECT_EQ(Kinds[3].substr(0, 10), "tolerance:");
  EXPECT_EQ(Ret, "interval");
  EXPECT_FALSE(describeFunction(*P, "g", Kinds, Ret));
}

TEST(Evaluator, DoubleDoubleProgramsAreRejectedTyped) {
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  Opts.ScalarLibrary = true;
  auto P = compileToProgram("double f(double x) { return x; }", Opts, Diags);
  ASSERT_NE(P, nullptr);
  RoundUpwardScope Up;
  EvalResult R = evalFunction(*P, "f", {point(1.0)}, {});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "unsupported");
}

// The -O lowering's loops: a sign-versioned loop (opt_axmy is not an
// axpy, so it stays three loop copies) and row kernels (axpy, dot).
const char *OptLoops =
    "void axmy(double alpha, const double *x, double *y, int n) {\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    y[i] -= alpha * x[i];\n"
    "  }\n"
    "}\n"
    "void axpy(double alpha, const double *x, double *y, int n) {\n"
    "  for (int i = 0; i < n; i++) {\n"
    "    y[i] = y[i] + alpha * x[i];\n"
    "  }\n"
    "}\n"
    "double row(const double *w, const double *x, int k, int n) {\n"
    "  double s = 0.0;\n"
    "  for (int i = k; i < n; i++) {\n"
    "    s = s + w[i] * x[i];\n"
    "  }\n"
    "  return s;\n"
    "}\n";

TEST(Evaluator, OptLevelProgramsRunTheOptLowering) {
  auto P = compile(OptLoops, false, false, /*OptLevel=*/1);
  EXPECT_NE(P->EmittedC.find("ia_axpy_f64("), std::string::npos);
  EXPECT_NE(P->EmittedC.find("ia_dot_f64("), std::string::npos);
  EXPECT_NE(P->EmittedC.find("ia_inf_f64(alpha) >= 0.0"), std::string::npos);
  std::vector<Interval> X(4, Interval::fromPoint(2.0));
  std::vector<Interval> Y(4, Interval::fromPoint(1.0));
  for (const char *Fn : {"axmy", "axpy"}) {
    EvalResult R = eval(*P, Fn, {point(3.0), arr(X), arr(Y), intArg(4)});
    ASSERT_TRUE(R.Ok) << Fn << ": " << R.Error.Message;
    double Want = std::string(Fn) == "axmy" ? -5.0 : 7.0;
    for (const Interval &I : R.ArrayOutputs[1]) {
      EXPECT_DOUBLE_EQ(I.lo(), Want) << Fn;
      EXPECT_DOUBLE_EQ(I.hi(), Want) << Fn;
    }
  }
  EvalResult R = eval(*P, "row", {arr(X), arr(Y), intArg(1), intArg(4)});
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  EXPECT_DOUBLE_EQ(R.Return.lo(), 6.0);
  EXPECT_DOUBLE_EQ(R.Return.hi(), 6.0);
}

TEST(Evaluator, DoubleDoubleRowKernelIsRejectedTyped) {
  // Under --precision=dd the axpy loop lowers to the dd row kernel; the
  // evaluator refuses it the way it refuses every dd operation.
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  Opts.Prec = TransformOptions::Precision::DoubleDouble;
  auto P = compileToProgram(OptLoops, Opts, Diags);
  ASSERT_NE(P, nullptr);
  EXPECT_NE(P->EmittedC.find("ia_axpy_dd("), std::string::npos);
  std::vector<Interval> X(4, Interval::fromPoint(2.0));
  RoundUpwardScope Up;
  EvalResult R = evalFunction(*P, "axpy", {point(3.0), arr(X), arr(X),
                                           intArg(4)}, {});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "unsupported");
  EXPECT_NE(R.Error.Message.find("double-double"), std::string::npos);
}

TEST(Evaluator, RowKernelPastItsArrayIsOutOfBounds) {
  auto P = compile(OptLoops, false, false, /*OptLevel=*/1);
  std::vector<Interval> Short(3, Interval::fromPoint(1.0));
  std::vector<Interval> Long(64, Interval::fromPoint(1.0));
  // The whole row is checked before the kernel runs: nothing past the
  // 3-element buffer is read (the ASan job would see it).
  EvalResult R = eval(*P, "row", {arr(Short), arr(Long), intArg(0),
                                  intArg(64)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "out-of-bounds");
  R = eval(*P, "row", {arr(Long), arr(Short), intArg(1), intArg(4)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "out-of-bounds");
  R = eval(*P, "axpy", {point(2.0), arr(Long), arr(Short), intArg(64)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "out-of-bounds");
  EXPECT_TRUE(R.ArrayOutputs.empty());
  // A negative start is caught too.
  R = eval(*P, "row", {arr(Long), arr(Long), intArg(-2), intArg(4)});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "out-of-bounds");
}

TEST(Evaluator, VersionedLoopAndRowKernelStopAtStepLimit) {
  auto P = compile(OptLoops, false, false, /*OptLevel=*/1);
  std::vector<Interval> Big(100000, Interval::fromPoint(1.0));
  EvalOptions EO;
  EO.StepLimit = 5000;
  for (const char *Fn : {"axmy", "axpy"}) {
    EvalResult R =
        eval(*P, Fn, {point(-1.0), arr(Big), arr(Big), intArg(100000)}, EO);
    ASSERT_FALSE(R.Ok) << Fn;
    EXPECT_EQ(R.Error.Code, "step-limit") << Fn;
    EXPECT_LE(R.OpsExecuted, EO.StepLimit) << Fn;
  }
  EvalResult R =
      eval(*P, "row", {arr(Big), arr(Big), intArg(0), intArg(100000)}, EO);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "step-limit");
}

TEST(Evaluator, VersionedLoopAndRowKernelStopAtDeadline) {
  // A row kernel inside a long loop: every call is a back edge of the
  // outer loop, so the deadline poll runs between kernel calls.
  auto P = compile("double rows(const double *w, const double *x, int n,\n"
                   "            int reps) {\n"
                   "  double s = 0.0;\n"
                   "  for (int r = 0; r < reps; r++) {\n"
                   "    for (int i = 0; i < n; i++) {\n"
                   "      s = s + w[i] * x[i];\n"
                   "    }\n"
                   "  }\n"
                   "  return s;\n"
                   "}\n",
                   false, false, /*OptLevel=*/1);
  ASSERT_NE(P->EmittedC.find("ia_dot_f64("), std::string::npos);
  auto P2 = compile(OptLoops, false, false, /*OptLevel=*/1);
  std::vector<Interval> Row(64, Interval::fromPoint(1.0));
  EvalOptions EO;
  EO.HasDeadline = true;
  EO.Deadline = std::chrono::steady_clock::now(); // already expired
  EvalResult R = eval(*P, "rows", {arr(Row), arr(Row), intArg(64),
                                   intArg(1 << 30)},
                      EO);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "deadline-exceeded");
  std::vector<Interval> Big(100000, Interval::fromPoint(1.0));
  R = eval(*P2, "axmy", {point(-1.0), arr(Big), arr(Big), intArg(100000)},
           EO);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "deadline-exceeded");
}

} // namespace
