//===- ExecServeCompareTest.cpp - Daemon eval vs AOT bit-identity -------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The dual-path soundness test: every kernel is (a) compiled ahead-of-time
// by the igen driver at build time (--target=ss, at -O0 and at -O, linked
// into this binary) and (b) compiled in memory and run by the serve-mode
// evaluator on the same lowered form the driver printed. For every sampled
// input the two paths must agree BIT-IDENTICALLY on both interval
// endpoints — the daemon's answers are the compiler's answers, not an
// approximation of them, at either optimization level.
//
//===----------------------------------------------------------------------===//

#include "interval/igen_lib.h"
#include "server/Evaluator.h"
#include "support/StringExtras.h"
#include "transform/Pipeline.h"

#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

// AOT entry points from the build-time-generated TUs (scalar interval
// library, so f64i is igen::Interval itself).
f64i poly(f64i x);
f64i henon(f64i x, f64i y, int n);
f64i dot(f64i *a, f64i *b, int n);
void axpy(f64i alpha, f64i *x, f64i *y, int n);
f64i absdiff(f64i a, f64i b);
f64i sensor_scale(double a);
f64i ratio(f64i a, f64i b);
f64i grow_until(f64i x, f64i limit);
f64i chain_assign(f64i a);
f64i pyth(f64i x);
f64i softplusish(f64i x);
f64i hypot2(f64i a, f64i b);
f64i jbranch(f64i a, f64i b);
f64i jclamp(f64i x);

// The -O builds (ServeOptTu.cpp).
namespace opt {
f64i poly(f64i x);
f64i henon(f64i x, f64i y, int n);
f64i dot(f64i *a, f64i *b, int n);
void axpy(f64i alpha, f64i *x, f64i *y, int n);
f64i absdiff(f64i a, f64i b);
f64i sensor_scale(double a);
f64i ratio(f64i a, f64i b);
f64i grow_until(f64i x, f64i limit);
f64i chain_assign(f64i a);
f64i pyth(f64i x);
f64i softplusish(f64i x);
f64i hypot2(f64i a, f64i b);
f64i jbranch(f64i a, f64i b);
f64i jclamp(f64i x);
f64i opt_horner(f64i *coef, f64i x, int d);
f64i opt_pade(f64i x);
f64i opt_henon(f64i x, f64i y, int n);
f64i opt_invsq(f64i x);
f64i opt_negsq(f64i x, f64i y);
f64i opt_elem(f64i x);
f64i opt_cse(f64i *v, f64i a, f64i b, int n);
void opt_gemm(f64i *C, f64i *A, f64i *B, int n);
void opt_axpy(f64i alpha, f64i *x, f64i *y, int n);
void opt_axmy(f64i alpha, f64i *x, f64i *y, int n);
void opt_scale(f64i alpha, f64i *x, f64i *y, int n);
void opt_mvm(f64i *A, f64i *x, f64i *y, int m, int n);
f64i opt_ffnn_row(f64i *W, f64i *b, f64i *x, int n);
f64i opt_potrf_diag(f64i *A, int n, int j);
} // namespace opt

namespace {

using namespace igen;
using namespace igen::server;

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

::testing::AssertionResult bitIdentical(const Interval &Aot,
                                        const Interval &Served) {
  if (sameBits(Aot.NegLo, Served.NegLo) && sameBits(Aot.Hi, Served.Hi))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "AOT [" << Aot.lo() << ", " << Aot.hi() << "] vs served ["
         << Served.lo() << ", " << Served.hi() << "]";
}

std::shared_ptr<const InMemoryProgram> compileInput(const char *File,
                                                    bool Reductions,
                                                    bool Join,
                                                    int OptLevel = 0) {
  std::string Source;
  EXPECT_TRUE(readFile(std::string(IGEN_INPUTS_DIR) + "/" + File, Source));
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  Opts.OptLevel = OptLevel;
  Opts.ScalarLibrary = true;
  Opts.EnableReductions = Reductions;
  if (Join)
    Opts.Branches = TransformOptions::BranchPolicy::Join;
  auto P = compileToProgram(Source, Opts, Diags);
  EXPECT_TRUE(P) << Diags.render(File);
  return std::shared_ptr<const InMemoryProgram>(std::move(P));
}

class ServeCompare : public ::testing::Test {
protected:
  static std::shared_ptr<const InMemoryProgram> Kernels, Trig, Join;
  // The same inputs at -O, plus optk.c.
  static std::shared_ptr<const InMemoryProgram> KernelsO, TrigO, JoinO, Optk;

  static void SetUpTestSuite() {
    Kernels = compileInput("kernels.c", /*Reductions=*/true, /*Join=*/false);
    Trig = compileInput("trig.c", false, false);
    Join = compileInput("joink.c", false, /*Join=*/true);
    KernelsO = compileInput("kernels.c", true, false, /*OptLevel=*/1);
    TrigO = compileInput("trig.c", false, false, 1);
    JoinO = compileInput("joink.c", false, true, 1);
    Optk = compileInput("optk.c", false, false, 1);
  }
  static void TearDownTestSuite() {
    for (auto *P : {&Kernels, &Trig, &Join, &KernelsO, &TrigO, &JoinO, &Optk})
      P->reset();
  }

  RoundUpwardScope Up;
  std::mt19937_64 Gen{2024};
  double uniform(double Lo, double Hi) {
    return std::uniform_real_distribution<double>(Lo, Hi)(Gen);
  }

  EvalArg scalarArg(const Interval &I) {
    EvalArg A;
    A.K = EvalArg::Kind::Scalar;
    A.Scalar = I;
    return A;
  }
  EvalArg intArg(long long V) {
    EvalArg A;
    A.K = EvalArg::Kind::Int;
    A.IntValue = V;
    return A;
  }

  EvalArg arrayArg(const std::vector<f64i> &V) {
    EvalArg A;
    A.K = EvalArg::Kind::Array;
    A.Elements.assign(V.begin(), V.end());
    return A;
  }

  EvalResult evalOk(const InMemoryProgram &P, const std::string &Fn,
                    std::vector<EvalArg> Args) {
    EvalResult R = evalFunction(P, Fn, Args, EvalOptions());
    EXPECT_TRUE(R.Ok) << Fn << ": " << R.Error.Code << ": "
                      << R.Error.Message;
    return R;
  }
  Interval served(const InMemoryProgram &P, const std::string &Fn,
                  std::vector<EvalArg> Args) {
    EvalResult R = evalOk(P, Fn, std::move(Args));
    EXPECT_TRUE(R.HasReturn) << Fn;
    return R.Return;
  }

  /// The multipliers of the versioned and row-kernel loops: positive,
  /// negative, straddling, [0,0], infinite-endpoint and NaN intervals.
  std::vector<Interval> multipliers() {
    const double Inf = std::numeric_limits<double>::infinity();
    const double NaN = std::numeric_limits<double>::quiet_NaN();
    return {Interval::fromEndpoints(0.5, 2.0),
            Interval::fromEndpoints(-3.0, -0.25),
            Interval::fromEndpoints(-1.5, 0.75),
            Interval::fromPoint(0.0),
            Interval::fromEndpoints(1.0, Inf),
            Interval::fromEndpoints(-Inf, -2.0),
            Interval::fromEndpoints(-Inf, Inf),
            Interval(NaN, NaN),
            Interval(NaN, 1.0)};
  }
  std::vector<f64i> randomRow(int N, double Lo, double Hi) {
    std::vector<f64i> V(N);
    for (int I = 0; I < N; ++I) {
      double A = uniform(Lo, Hi);
      V[I] = I % 3 ? f64i::fromPoint(A)
                   : f64i::fromEndpoints(A, A + uniform(0.0, 0.5));
    }
    return V;
  }
  ::testing::AssertionResult sameArray(const std::vector<f64i> &Aot,
                                       const std::vector<Interval> &Served) {
    if (Aot.size() != Served.size())
      return ::testing::AssertionFailure() << "size mismatch";
    for (size_t I = 0; I < Aot.size(); ++I)
      if (!bitIdentical(Aot[I], Served[I]))
        return ::testing::AssertionFailure() << "element " << I << ": "
                                             << bitIdentical(Aot[I],
                                                             Served[I])
                                                    .message();
    return ::testing::AssertionSuccess();
  }
};

std::shared_ptr<const InMemoryProgram> ServeCompare::Kernels;
std::shared_ptr<const InMemoryProgram> ServeCompare::Trig;
std::shared_ptr<const InMemoryProgram> ServeCompare::Join;
std::shared_ptr<const InMemoryProgram> ServeCompare::KernelsO;
std::shared_ptr<const InMemoryProgram> ServeCompare::TrigO;
std::shared_ptr<const InMemoryProgram> ServeCompare::JoinO;
std::shared_ptr<const InMemoryProgram> ServeCompare::Optk;

TEST_F(ServeCompare, PolyBitIdentical) {
  for (int I = 0; I < 500; ++I) {
    Interval X = Interval::fromPoint(uniform(-50.0, 50.0));
    EXPECT_TRUE(bitIdentical(::poly(X), served(*Kernels, "poly",
                                             {scalarArg(X)})));
  }
  // Wide inputs too: the evaluator must track interval (not point)
  // semantics through every operation.
  for (int I = 0; I < 200; ++I) {
    double Lo = uniform(-10.0, 10.0);
    Interval X = Interval::fromEndpoints(Lo, Lo + uniform(0.0, 5.0));
    EXPECT_TRUE(bitIdentical(::poly(X), served(*Kernels, "poly",
                                             {scalarArg(X)})));
  }
}

TEST_F(ServeCompare, HenonLoopBitIdentical) {
  for (int N : {0, 1, 3, 10, 37}) {
    Interval X = Interval::fromPoint(uniform(-0.5, 0.5));
    Interval Y = Interval::fromPoint(uniform(-0.5, 0.5));
    EXPECT_TRUE(bitIdentical(
        ::henon(X, Y, N),
        served(*Kernels, "henon",
               {scalarArg(X), scalarArg(Y), intArg(N)})))
        << N;
  }
}

TEST_F(ServeCompare, DotReductionBitIdentical) {
  for (int N : {1, 7, 100, 1000}) {
    std::vector<f64i> A(N), B(N);
    std::vector<Interval> EA(N), EB(N);
    for (int I = 0; I < N; ++I) {
      double X = uniform(-1.0, 1.0), Y = uniform(-1.0, 1.0);
      A[I] = f64i::fromPoint(X);
      B[I] = f64i::fromPoint(Y);
      EA[I] = A[I];
      EB[I] = B[I];
    }
    Interval Aot = ::dot(A.data(), B.data(), N);
    EvalArg ArgA, ArgB;
    ArgA.K = EvalArg::Kind::Array;
    ArgA.Elements = EA;
    ArgB.K = EvalArg::Kind::Array;
    ArgB.Elements = EB;
    EXPECT_TRUE(bitIdentical(
        Aot, served(*Kernels, "dot", {ArgA, ArgB, intArg(N)})))
        << N;
  }
}

TEST_F(ServeCompare, AxpyArrayOutputsBitIdentical) {
  const int N = 64;
  Interval Alpha = Interval::fromPoint(uniform(-2.0, 2.0));
  std::vector<f64i> X(N), Y(N);
  std::vector<Interval> EX(N), EY(N);
  for (int I = 0; I < N; ++I) {
    X[I] = f64i::fromPoint(uniform(-1.0, 1.0));
    Y[I] = f64i::fromPoint(uniform(-1.0, 1.0));
    EX[I] = X[I];
    EY[I] = Y[I];
  }
  ::axpy(Alpha, X.data(), Y.data(), N);

  EvalArg ArgX, ArgY;
  ArgX.K = EvalArg::Kind::Array;
  ArgX.Elements = EX;
  ArgY.K = EvalArg::Kind::Array;
  ArgY.Elements = EY;
  EvalResult R = evalFunction(*Kernels, "axpy",
                              {scalarArg(Alpha), ArgX, ArgY, intArg(N)},
                              EvalOptions());
  ASSERT_TRUE(R.Ok) << R.Error.Message;
  ASSERT_EQ(R.ArrayOutputs.size(), 2u);
  ASSERT_EQ(R.ArrayOutputs[1].size(), (size_t)N);
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(bitIdentical(Y[I], R.ArrayOutputs[1][I])) << I;
}

TEST_F(ServeCompare, AbsdiffAndChainAssignBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    // absdiff branches on a < b; keep the comparison decided (both
    // paths abort on Unknown under the exception policy), alternating
    // which branch wins.
    Interval A = Interval::fromPoint(uniform(-5.0, 0.0));
    Interval B = Interval::fromPoint(uniform(1.0, 5.0));
    if (I % 2)
      std::swap(A, B);
    EXPECT_TRUE(bitIdentical(
        absdiff(A, B),
        served(*Kernels, "absdiff", {scalarArg(A), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(::chain_assign(A),
                             served(*Kernels, "chain_assign",
                                    {scalarArg(A)})));
  }
}

TEST_F(ServeCompare, SensorScaleToleranceBitIdentical) {
  for (int I = 0; I < 200; ++I) {
    double A = uniform(-100.0, 100.0);
    EvalArg T;
    T.K = EvalArg::Kind::Tolerance;
    T.Point = A;
    EXPECT_TRUE(bitIdentical(::sensor_scale(A),
                             served(*Kernels, "sensor_scale", {T})))
        << A;
  }
}

TEST_F(ServeCompare, RatioIncludingDivByStraddlingZero) {
  for (int I = 0; I < 300; ++I) {
    Interval A = Interval::fromPoint(uniform(-10.0, 10.0));
    Interval B = I % 5 == 0
                     ? Interval::fromEndpoints(-1.0, 1.0) // straddles 0
                     : Interval::fromPoint(uniform(0.5, 10.0));
    EXPECT_TRUE(bitIdentical(
        ::ratio(A, B), served(*Kernels, "ratio",
                            {scalarArg(A), scalarArg(B)})));
  }
}

TEST_F(ServeCompare, GrowUntilWhileLoopBitIdentical) {
  // Point inputs keep the loop condition decided on both paths.
  for (double X0 : {0.25, 1.0, 3.5}) {
    Interval X = Interval::fromPoint(X0);
    Interval Limit = Interval::fromPoint(1000.0);
    EXPECT_TRUE(bitIdentical(
        ::grow_until(X, Limit),
        served(*Kernels, "grow_until", {scalarArg(X), scalarArg(Limit)})))
        << X0;
  }
}

TEST_F(ServeCompare, TrigKernelsBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    Interval X = Interval::fromPoint(uniform(-3.0, 3.0));
    Interval A = Interval::fromPoint(uniform(-3.0, 3.0));
    Interval B = Interval::fromPoint(uniform(-3.0, 3.0));
    EXPECT_TRUE(bitIdentical(::pyth(X), served(*Trig, "pyth",
                                             {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(::softplusish(X),
                             served(*Trig, "softplusish",
                                    {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(::hypot2(A, B),
                             served(*Trig, "hypot2",
                                    {scalarArg(A), scalarArg(B)})));
  }
}

TEST_F(ServeCompare, JoinBranchKernelsBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    // Straddling inputs exercise the join (hull) path on both sides.
    Interval A = Interval::fromEndpoints(uniform(-2.0, 0.0),
                                         uniform(0.0, 2.0));
    Interval B = Interval::fromPoint(uniform(-2.0, 2.0));
    Interval X = Interval::fromEndpoints(uniform(-2.0, 0.5),
                                         uniform(0.5, 2.0));
    EXPECT_TRUE(bitIdentical(::jbranch(A, B),
                             served(*Join, "jbranch",
                                    {scalarArg(A), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(::jclamp(X), served(*Join, "jclamp",
                                               {scalarArg(X)})));
  }
}

TEST_F(ServeCompare, SimdKernelIsTypedUnsupportedNotWrong) {
  // vscale uses AVX intrinsics: the evaluator must refuse (typed error),
  // never silently return something that could disagree with AOT.
  EvalArg ArgX, ArgY;
  ArgX.K = EvalArg::Kind::Array;
  ArgX.Elements.assign(8, Interval::fromPoint(1.0));
  ArgY = ArgX;
  EvalResult R = evalFunction(*Kernels, "vscale",
                              {ArgX, ArgY, intArg(8)}, {});
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.Code, "unsupported");
}

//===----------------------------------------------------------------------===//
// -O: the served lowering is the -O artifact's (sign-specialized ops, FMA
// fusion, CSE/hoist temps, _fast kernels, versioned loops, row kernels).
//===----------------------------------------------------------------------===//

TEST_F(ServeCompare, OptLevelKernelsBitIdentical) {
  for (int I = 0; I < 200; ++I) {
    Interval X = Interval::fromPoint(uniform(-50.0, 50.0));
    EXPECT_TRUE(bitIdentical(opt::poly(X),
                             served(*KernelsO, "poly", {scalarArg(X)})));
    Interval A = Interval::fromPoint(uniform(-5.0, 0.0));
    Interval B = Interval::fromPoint(uniform(1.0, 5.0));
    if (I % 2)
      std::swap(A, B);
    EXPECT_TRUE(bitIdentical(
        opt::absdiff(A, B),
        served(*KernelsO, "absdiff", {scalarArg(A), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(opt::chain_assign(A),
                             served(*KernelsO, "chain_assign",
                                    {scalarArg(A)})));
    Interval D = I % 5 == 0 ? Interval::fromEndpoints(-1.0, 1.0)
                            : Interval::fromPoint(uniform(0.5, 10.0));
    EXPECT_TRUE(bitIdentical(
        opt::ratio(A, D),
        served(*KernelsO, "ratio", {scalarArg(A), scalarArg(D)})));
    EvalArg T;
    T.K = EvalArg::Kind::Tolerance;
    T.Point = uniform(-100.0, 100.0);
    EXPECT_TRUE(bitIdentical(opt::sensor_scale(T.Point),
                             served(*KernelsO, "sensor_scale", {T})));
  }
  for (int N : {0, 1, 3, 10, 37}) {
    Interval X = Interval::fromPoint(uniform(-0.5, 0.5));
    Interval Y = Interval::fromPoint(uniform(-0.5, 0.5));
    EXPECT_TRUE(bitIdentical(
        opt::henon(X, Y, N),
        served(*KernelsO, "henon", {scalarArg(X), scalarArg(Y), intArg(N)})))
        << N;
  }
  for (int N : {1, 7, 100}) {
    std::vector<f64i> A = randomRow(N, -1.0, 1.0), B = randomRow(N, -1.0, 1.0);
    EXPECT_TRUE(bitIdentical(
        opt::dot(A.data(), B.data(), N),
        served(*KernelsO, "dot", {arrayArg(A), arrayArg(B), intArg(N)})))
        << N;
    Interval Alpha = Interval::fromPoint(uniform(-2.0, 2.0));
    EvalResult R = evalOk(*KernelsO, "axpy",
                          {scalarArg(Alpha), arrayArg(A), arrayArg(B),
                           intArg(N)});
    opt::axpy(Alpha, A.data(), B.data(), N);
    ASSERT_EQ(R.ArrayOutputs.size(), 2u);
    EXPECT_TRUE(sameArray(B, R.ArrayOutputs[1])) << N;
  }
  for (double X0 : {0.25, 1.0, 3.5})
    EXPECT_TRUE(bitIdentical(
        opt::grow_until(Interval::fromPoint(X0), Interval::fromPoint(1000.0)),
        served(*KernelsO, "grow_until",
               {scalarArg(Interval::fromPoint(X0)),
                scalarArg(Interval::fromPoint(1000.0))})));
}

TEST_F(ServeCompare, OptLevelTrigAndJoinBitIdentical) {
  for (int I = 0; I < 300; ++I) {
    Interval X = Interval::fromPoint(uniform(-3.0, 3.0));
    Interval A = Interval::fromPoint(uniform(-3.0, 3.0));
    Interval B = Interval::fromPoint(uniform(-3.0, 3.0));
    EXPECT_TRUE(bitIdentical(opt::pyth(X),
                             served(*TrigO, "pyth", {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(opt::softplusish(X),
                             served(*TrigO, "softplusish", {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(opt::hypot2(A, B),
                             served(*TrigO, "hypot2",
                                    {scalarArg(A), scalarArg(B)})));
    Interval S = Interval::fromEndpoints(uniform(-2.0, 0.0),
                                         uniform(0.0, 2.0));
    EXPECT_TRUE(bitIdentical(opt::jbranch(S, B),
                             served(*JoinO, "jbranch",
                                    {scalarArg(S), scalarArg(B)})));
    EXPECT_TRUE(bitIdentical(opt::jclamp(S),
                             served(*JoinO, "jclamp", {scalarArg(S)})));
  }
}

TEST_F(ServeCompare, OptkScalarKernelsBitIdentical) {
  for (int I = 0; I < 200; ++I) {
    // Decided guards only: an unknown one signals on both paths.
    Interval X = Interval::fromPoint(I % 4 ? uniform(0.1, 4.0)
                                           : uniform(-4.0, -0.1));
    Interval Y = Interval::fromPoint(uniform(-8.0, -4.5));
    EXPECT_TRUE(bitIdentical(opt::opt_pade(X),
                             served(*Optk, "opt_pade", {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(opt::opt_invsq(X),
                             served(*Optk, "opt_invsq", {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(opt::opt_elem(X),
                             served(*Optk, "opt_elem", {scalarArg(X)})));
    EXPECT_TRUE(bitIdentical(
        opt::opt_negsq(X, Y),
        served(*Optk, "opt_negsq", {scalarArg(X), scalarArg(Y)})));
    std::vector<f64i> Coef = randomRow(6, -1.0, 1.0);
    EXPECT_TRUE(bitIdentical(
        opt::opt_horner(Coef.data(), X, 5),
        served(*Optk, "opt_horner", {arrayArg(Coef), scalarArg(X),
                                     intArg(5)})));
    Interval A = Interval::fromPoint(uniform(-2.0, 2.0));
    Interval B = Interval::fromPoint(uniform(-2.0, 2.0));
    EXPECT_TRUE(bitIdentical(
        opt::opt_cse(Coef.data(), A, B, 6),
        served(*Optk, "opt_cse", {arrayArg(Coef), scalarArg(A), scalarArg(B),
                                  intArg(6)})));
  }
  for (int N : {0, 1, 5, 23}) {
    Interval X = Interval::fromPoint(uniform(-0.5, 0.5));
    Interval Y = Interval::fromPoint(uniform(-0.5, 0.5));
    EXPECT_TRUE(bitIdentical(
        opt::opt_henon(X, Y, N),
        served(*Optk, "opt_henon", {scalarArg(X), scalarArg(Y), intArg(N)})));
  }
}

TEST_F(ServeCompare, VersionedAndRowKernelLoopsBitIdentical) {
  for (const Interval &M : multipliers()) {
    for (int N : {1, 3, 8, 17}) {
      SCOPED_TRACE(::testing::Message() << "M=[" << M.lo() << ", " << M.hi()
                                        << "] N=" << N);
      std::vector<f64i> X = randomRow(N, -1.0, 1.0);
      // axpy / axmy / scale: the multiplier is the versioned variable.
      for (const char *Fn : {"opt_axpy", "opt_axmy", "opt_scale"}) {
        std::vector<f64i> Y = randomRow(N, -1.0, 1.0);
        EvalResult R = evalOk(*Optk, Fn, {scalarArg(M), arrayArg(X),
                                          arrayArg(Y), intArg(N)});
        if (std::string(Fn) == "opt_axpy")
          opt::opt_axpy(M, X.data(), Y.data(), N);
        else if (std::string(Fn) == "opt_axmy")
          opt::opt_axmy(M, X.data(), Y.data(), N);
        else
          opt::opt_scale(M, X.data(), Y.data(), N);
        ASSERT_EQ(R.ArrayOutputs.size(), 2u);
        EXPECT_TRUE(sameArray(Y, R.ArrayOutputs[1])) << Fn;
      }
      // gemm: every A entry is a j-loop multiplier.
      std::vector<f64i> A = randomRow(N * N, -1.0, 1.0);
      for (int I = 0; I < N * N; I += 2)
        A[I] = M;
      std::vector<f64i> B = randomRow(N * N, -1.0, 1.0);
      std::vector<f64i> C = randomRow(N * N, -1.0, 1.0);
      EvalResult R = evalOk(*Optk, "opt_gemm", {arrayArg(C), arrayArg(A),
                                                arrayArg(B), intArg(N)});
      opt::opt_gemm(C.data(), A.data(), B.data(), N);
      ASSERT_EQ(R.ArrayOutputs.size(), 3u);
      EXPECT_TRUE(sameArray(C, R.ArrayOutputs[0])) << "opt_gemm";
      // mvm / ffnn / potrf: dot and dotsub row kernels.
      std::vector<f64i> Yv = randomRow(N, -1.0, 1.0);
      R = evalOk(*Optk, "opt_mvm", {arrayArg(A), arrayArg(X), arrayArg(Yv),
                                    intArg(N), intArg(N)});
      opt::opt_mvm(A.data(), X.data(), Yv.data(), N, N);
      ASSERT_EQ(R.ArrayOutputs.size(), 3u);
      EXPECT_TRUE(sameArray(Yv, R.ArrayOutputs[2])) << "opt_mvm";
      std::vector<f64i> Bias = {f64i(M)};
      EXPECT_TRUE(bitIdentical(
          opt::opt_ffnn_row(A.data(), Bias.data(), X.data(), N),
          served(*Optk, "opt_ffnn_row", {arrayArg(A), arrayArg(Bias),
                                         arrayArg(X), intArg(N)})));
      for (int J = 0; J < N; ++J)
        EXPECT_TRUE(bitIdentical(
            opt::opt_potrf_diag(A.data(), N, J),
            served(*Optk, "opt_potrf_diag", {arrayArg(A), intArg(N),
                                             intArg(J)})))
            << "opt_potrf_diag j=" << J;
    }
  }
}

} // namespace
