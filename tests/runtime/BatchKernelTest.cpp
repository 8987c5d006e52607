//===- BatchKernelTest.cpp - Batched runtime tests ------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Covers the batched interval array runtime:
//  (a) every batched elementwise kernel, on every supported ISA tier,
//      encloses (for the fused FMA tier: is enclosed by *and* still
//      sound against) the scalar reference computed with the Interval
//      operations; div and sqrt are additionally bit-identical to the
//      sign-specialized scalar routing on all inputs; fma and mul give an
//      element one bit pattern wherever it sits in a batch; the SIMD
//      tiers are bit-identical to each other; and every (tier, op)
//      kernel-table row is verified populated;
//  (b) sum/dot are bit-identical across 1/2/4 threads and across ISA
//      overrides, and enclose the sequential SumAccumulatorF64 result;
//  (c) worker threads restore round-to-nearest after every reduction
//      task, and the calling thread's mode survives the entry points.
//
//===----------------------------------------------------------------------===//

#include "runtime/BatchKernels.h"

#include "interval/Accumulator.h"
#include "interval/PolyKernels.h"
#include "runtime/ThreadPool.h"
#include "support/Knobs.h"
#include "../interval/TestHelpers.h"

#include <array>
#include <cfenv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gtest/gtest.h"

using namespace igen;
using namespace igen::runtime;

namespace {

/// ISA tiers the running CPU can execute (always includes Scalar).
std::vector<Isa> supportedIsas() {
  std::vector<Isa> Out;
  for (int I = 0; I < NumIsas; ++I)
    if (isaSupported(static_cast<Isa>(I)))
      Out.push_back(static_cast<Isa>(I));
  return Out;
}

/// Restores auto-detection when a test finishes forcing tiers.
struct IsaGuard {
  ~IsaGuard() { clearForcedIsa(); }
};

/// Random intervals across many magnitudes, with some special endpoints.
std::vector<Interval> randomIntervals(test::Rng &R, size_t N,
                                      bool Specials) {
  std::vector<Interval> V(N);
  int SpecialCount = 0;
  const double *Sp = test::specialValues(SpecialCount);
  for (size_t I = 0; I < N; ++I) {
    if (Specials && R.intIn(0, 15) == 0) {
      double A = Sp[R.intIn(0, SpecialCount - 1)];
      double B = Sp[R.intIn(0, SpecialCount - 1)];
      if (std::isnan(A) || std::isnan(B))
        V[I] = Interval::nan();
      else
        V[I] = Interval::fromEndpoints(std::fmin(A, B), std::fmax(A, B));
    } else {
      V[I] = R.moderateInterval();
    }
  }
  return V;
}

/// Moderate, overflow-free, zero-free intervals: the domain on which the
/// cross-ISA bit-identity guarantee holds (no inf candidates, no signed
/// zero ties in the candidate maxima).
std::vector<Interval> benignIntervals(test::Rng &R, size_t N) {
  std::vector<Interval> V(N);
  for (size_t I = 0; I < N; ++I) {
    double C = R.uniform(0.25, 2.0) * (R.intIn(0, 1) ? 1.0 : -1.0);
    V[I] = Interval::fromEndpoints(C, nextUp(nextUp(C)));
  }
  return V;
}

bool sameBits(const Interval &A, const Interval &B) {
  return std::memcmp(&A, &B, sizeof(Interval)) == 0;
}

//===----------------------------------------------------------------------===//
// (a) Elementwise kernels enclose the scalar reference on every tier
//===----------------------------------------------------------------------===//

class BatchKernelIsaTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchKernelIsaTest, AddSubMulScaleMatchScalarReference) {
  Isa Tier = static_cast<Isa>(GetParam());
  if (!isaSupported(Tier))
    GTEST_SKIP() << "CPU lacks " << isaName(Tier);
  IsaGuard Restore;
  forceIsa(Tier);

  test::Rng R(0x5eed0 + GetParam());
  for (size_t N : {0ul, 1ul, 2ul, 3ul, 5ul, 8ul, 17ul, 64ul, 1023ul}) {
    std::vector<Interval> X = randomIntervals(R, N, /*Specials=*/true);
    std::vector<Interval> Y = randomIntervals(R, N, /*Specials=*/true);
    std::vector<Interval> D(N), Ref(N);
    Interval S = R.moderateInterval();

    iarr_add(D.data(), X.data(), Y.data(), N);
    {
      RoundUpwardScope Up;
      for (size_t I = 0; I < N; ++I)
        Ref[I] = iAdd(X[I], Y[I]);
    }
    for (size_t I = 0; I < N; ++I)
      EXPECT_TRUE(D[I].containsInterval(Ref[I]) &&
                  Ref[I].containsInterval(D[I]))
          << isaName(Tier) << " add @" << I;

    iarr_sub(D.data(), X.data(), Y.data(), N);
    {
      RoundUpwardScope Up;
      for (size_t I = 0; I < N; ++I)
        Ref[I] = iSub(X[I], Y[I]);
    }
    for (size_t I = 0; I < N; ++I)
      EXPECT_TRUE(D[I].containsInterval(Ref[I]) &&
                  Ref[I].containsInterval(D[I]))
          << isaName(Tier) << " sub @" << I;

    iarr_mul(D.data(), X.data(), Y.data(), N);
    {
      RoundUpwardScope Up;
      for (size_t I = 0; I < N; ++I)
        Ref[I] = iMul(X[I], Y[I]);
    }
    for (size_t I = 0; I < N; ++I)
      EXPECT_TRUE(D[I].containsInterval(Ref[I]) &&
                  Ref[I].containsInterval(D[I]))
          << isaName(Tier) << " mul @" << I;

    iarr_scale(D.data(), X.data(), S, N);
    {
      RoundUpwardScope Up;
      for (size_t I = 0; I < N; ++I)
        Ref[I] = iMul(X[I], S);
    }
    for (size_t I = 0; I < N; ++I)
      EXPECT_TRUE(D[I].containsInterval(Ref[I]) &&
                  Ref[I].containsInterval(D[I]))
          << isaName(Tier) << " scale @" << I;
  }
}

TEST_P(BatchKernelIsaTest, FmaIsSoundAndAtMostComposedWidth) {
  Isa Tier = static_cast<Isa>(GetParam());
  if (!isaSupported(Tier))
    GTEST_SKIP() << "CPU lacks " << isaName(Tier);
  IsaGuard Restore;
  forceIsa(Tier);

  test::Rng R(0xfaa + GetParam());
  for (size_t N : {1ul, 2ul, 3ul, 4ul, 7ul, 64ul, 513ul}) {
    std::vector<Interval> A = randomIntervals(R, N, /*Specials=*/true);
    std::vector<Interval> B = randomIntervals(R, N, /*Specials=*/true);
    std::vector<Interval> C = randomIntervals(R, N, /*Specials=*/true);
    std::vector<Interval> D(N), Ref(N);

    iarr_fma(D.data(), A.data(), B.data(), C.data(), N);
    {
      RoundUpwardScope Up;
      for (size_t I = 0; I < N; ++I)
        Ref[I] = iAdd(iMul(A[I], B[I]), C[I]);
    }
    for (size_t I = 0; I < N; ++I) {
      // The fused tier may be tighter, never wider, than the composed
      // reference...
      EXPECT_TRUE(Ref[I].containsInterval(D[I]))
          << isaName(Tier) << " fma wider than composed @" << I;
      // ...and must still contain the exact a*b + c for endpoint reals
      // (quad precision is exact for one product plus one addend).
      if (A[I].hasNaN() || B[I].hasNaN() || C[I].hasNaN())
        continue;
      for (double U : {A[I].lo(), A[I].hi()})
        for (double V : {B[I].lo(), B[I].hi()})
          for (double W : {C[I].lo(), C[I].hi()}) {
            if (std::isinf(U) || std::isinf(V) || std::isinf(W))
              continue;
            __float128 Exact = static_cast<__float128>(U) * V + W;
            EXPECT_TRUE(test::containsQuad(D[I], Exact))
                << isaName(Tier) << " fma unsound @" << I;
          }
    }
  }
}

/// Divisors drawn from every classification the div kernels route on:
/// strictly positive, strictly negative, zero-containing, special
/// (inf/NaN endpoints), and unconstrained moderate.
std::vector<Interval> divisorIntervals(test::Rng &R, size_t N) {
  std::vector<Interval> V(N);
  int SpecialCount = 0;
  const double *Sp = test::specialValues(SpecialCount);
  for (size_t I = 0; I < N; ++I) {
    switch (R.intIn(0, 4)) {
    case 0: { // strictly positive
      double Lo = std::ldexp(R.uniform(0.5, 1.0), R.intIn(-20, 20));
      V[I] = Interval::fromEndpoints(Lo, Lo * R.uniform(1.0, 4.0));
      break;
    }
    case 1: { // strictly negative
      double Hi = -std::ldexp(R.uniform(0.5, 1.0), R.intIn(-20, 20));
      V[I] = Interval::fromEndpoints(Hi * R.uniform(1.0, 4.0), Hi);
      break;
    }
    case 2: // zero-containing (generic slow path)
      V[I] = Interval::fromEndpoints(-R.uniform(0.0, 2.0),
                                     R.uniform(0.0, 2.0));
      break;
    case 3: { // special endpoints, incl. NaN
      double A = Sp[R.intIn(0, SpecialCount - 1)];
      double B = Sp[R.intIn(0, SpecialCount - 1)];
      if (std::isnan(A) || std::isnan(B))
        V[I] = Interval::nan();
      else
        V[I] = Interval::fromEndpoints(std::fmin(A, B), std::fmax(A, B));
      break;
    }
    default:
      V[I] = R.moderateInterval();
    }
  }
  return V;
}

TEST_P(BatchKernelIsaTest, DivBitIdenticalToSignSpecializedRouting) {
  Isa Tier = static_cast<Isa>(GetParam());
  if (!isaSupported(Tier))
    GTEST_SKIP() << "CPU lacks " << isaName(Tier);
  IsaGuard Restore;
  forceIsa(Tier);

  // Unlike mul, div is bit-identical on ALL inputs: the vector fast
  // paths compute the same cross-family NaN screen the scalar iDivP /
  // iDivN routines do, so fast-path-vs-fallback decisions converge.
  test::Rng R(0xd1f + GetParam());
  for (size_t N : {0ul, 1ul, 2ul, 3ul, 5ul, 8ul, 17ul, 64ul, 1023ul}) {
    std::vector<Interval> X = randomIntervals(R, N, /*Specials=*/true);
    std::vector<Interval> Y = divisorIntervals(R, N);
    std::vector<Interval> D(N), Ref(N);

    iarr_div(D.data(), X.data(), Y.data(), N);
    {
      RoundUpwardScope Up;
      for (size_t I = 0; I < N; ++I) {
        // The routing contract shared by every tier (NaN divisors fail
        // both sign tests and take the generic routine).
        if (-Y[I].NegLo > 0.0)
          Ref[I] = iDivP(X[I], Y[I]);
        else if (Y[I].Hi < 0.0)
          Ref[I] = iDivN(X[I], Y[I]);
        else
          Ref[I] = iDiv(X[I], Y[I]);
      }
    }
    for (size_t I = 0; I < N; ++I)
      EXPECT_TRUE(sameBits(D[I], Ref[I]))
          << isaName(Tier) << " div @" << I << " X=[" << X[I].lo() << ", "
          << X[I].hi() << "] Y=[" << Y[I].lo() << ", " << Y[I].hi()
          << "] got [" << -D[I].NegLo << ", " << D[I].Hi << "] want ["
          << -Ref[I].NegLo << ", " << Ref[I].Hi << "]";

    // Soundness spot-check: endpoint quotients are contained whenever
    // they are well-defined reals.
    for (size_t I = 0; I < N; ++I) {
      if (X[I].hasNaN() || Y[I].hasNaN())
        continue;
      if (Y[I].contains(0.0))
        continue;
      for (double U : {X[I].lo(), X[I].hi()})
        for (double V : {Y[I].lo(), Y[I].hi()}) {
          if (std::isinf(U) || std::isinf(V))
            continue;
          __float128 Exact = static_cast<__float128>(U) / V;
          EXPECT_TRUE(test::containsQuad(D[I], Exact))
              << isaName(Tier) << " div unsound @" << I;
        }
    }
  }
}

/// Inputs for sqrt spanning its routing: positive fast-domain, zero and
/// negative lower endpoints, infinite uppers, and NaN.
std::vector<Interval> sqrtInputs(test::Rng &R, size_t N) {
  std::vector<Interval> V(N);
  for (size_t I = 0; I < N; ++I) {
    switch (R.intIn(0, 5)) {
    case 0:
      V[I] = Interval::nan();
      break;
    case 1: // negative lower endpoint: NaN from iSqrt
      V[I] = Interval::fromEndpoints(-R.uniform(0.0, 2.0),
                                     R.uniform(0.0, 2.0));
      break;
    case 2: // exact zero lower endpoint (outside the strict fast screen)
      V[I] = Interval::fromEndpoints(0.0, R.uniform(0.0, 4.0));
      break;
    case 3: // infinite upper endpoint
      V[I] = Interval::fromEndpoints(
          R.uniform(0.0, 1.0), std::numeric_limits<double>::infinity());
      break;
    default: { // strictly positive across many binades
      double Lo = std::ldexp(R.uniform(0.5, 1.0), R.intIn(-300, 300));
      V[I] = Interval::fromEndpoints(Lo, Lo * R.uniform(1.0, 4.0));
    }
    }
  }
  return V;
}

TEST_P(BatchKernelIsaTest, SqrtBitIdenticalToScalarOnAllInputs) {
  Isa Tier = static_cast<Isa>(GetParam());
  if (!isaSupported(Tier))
    GTEST_SKIP() << "CPU lacks " << isaName(Tier);
  IsaGuard Restore;
  forceIsa(Tier);

  test::Rng R(0x5c27 + GetParam());
  for (size_t N : {0ul, 1ul, 2ul, 3ul, 5ul, 8ul, 17ul, 64ul, 1023ul}) {
    std::vector<Interval> X = sqrtInputs(R, N);
    std::vector<Interval> D(N), Ref(N);
    iarr_sqrt(D.data(), X.data(), N);
    {
      RoundUpwardScope Up;
      for (size_t I = 0; I < N; ++I)
        Ref[I] = iSqrt(X[I]);
    }
    for (size_t I = 0; I < N; ++I)
      EXPECT_TRUE(sameBits(D[I], Ref[I]))
          << isaName(Tier) << " sqrt @" << I << " X=[" << X[I].lo() << ", "
          << X[I].hi() << "] got [" << -D[I].NegLo << ", " << D[I].Hi
          << "] want [" << -Ref[I].NegLo << ", " << Ref[I].Hi << "]";

    // Soundness: sqrt of each finite non-negative endpoint is contained.
    for (size_t I = 0; I < N; ++I) {
      if (X[I].hasNaN() || X[I].lo() < 0.0)
        continue;
      for (double U : {X[I].lo(), X[I].hi()}) {
        if (std::isinf(U))
          continue;
        long double S;
        {
          RoundNearestScope Near;
          S = sqrtl(static_cast<long double>(U));
        }
        EXPECT_TRUE(test::containsQuad(D[I], static_cast<__float128>(S)))
            << isaName(Tier) << " sqrt unsound @" << I << " x=" << U;
      }
    }
  }
}

/// Interval inputs for one elementary function, mixing fast-domain
/// elements with out-of-domain / special ones so the SIMD screens and
/// per-element fallbacks are exercised in the same batch.
std::vector<Interval> elemInputs(test::Rng &R, size_t N, char Fn) {
  std::vector<Interval> V(N);
  for (size_t I = 0; I < N; ++I) {
    int Kind = R.intIn(0, 9);
    if (Kind == 0) {
      V[I] = Interval::nan();
      continue;
    }
    if (Kind == 1) {
      V[I] = Interval::fromEndpoints(
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::infinity());
      continue;
    }
    double C, W;
    switch (Fn) {
    case 'e': // straddles the |x| <= 690 fast limit when Kind == 2
      C = Kind == 2 ? R.uniform(680.0, 720.0) : R.uniform(-690.0, 690.0);
      W = R.uniform(0.0, 4.0);
      break;
    case 'l': // positive log-spaced; Kind == 2 dips to subnormal/zero
      C = std::ldexp(R.uniform(1.0, 2.0), R.intIn(-1021, 1023));
      if (Kind == 2) { // lower endpoint outside the fast domain
        V[I] = Interval::fromEndpoints(I % 2 ? 0.0 : 0x1p-1040, C);
        continue;
      }
      W = C * R.uniform(0.0, 0.5);
      break;
    default: // sin/cos: straddles the 2^20 limit when Kind == 2
      C = R.uniform(-1.0, 1.0) * (Kind == 2 ? 0x1.2p20 : 0x1p20);
      W = R.uniform(0.0, 8.0);
      break;
    }
    V[I] = Interval::fromEndpoints(C - W, C + W);
  }
  return V;
}

TEST_P(BatchKernelIsaTest, ElementaryBitIdenticalToScalarKernels) {
  Isa Tier = static_cast<Isa>(GetParam());
  if (!isaSupported(Tier))
    GTEST_SKIP() << "CPU lacks " << isaName(Tier);
  IsaGuard Restore;
  forceIsa(Tier);

  using ArrFn = void (*)(Interval *, const Interval *, size_t);
  using ScalFn = Interval (*)(const Interval &);
  struct Case {
    char Tag;
    ArrFn Arr;
    ScalFn Scal;
  } Cases[] = {{'e', iarr_exp, iExpFast},
               {'l', iarr_log, iLogFast},
               {'s', iarr_sin, iSinFast},
               {'c', iarr_cos, iCosFast}};

  test::Rng R(0xe1e0 + GetParam());
  for (size_t N : {0ul, 1ul, 2ul, 3ul, 5ul, 8ul, 17ul, 64ul, 1023ul}) {
    for (const Case &C : Cases) {
      std::vector<Interval> X = elemInputs(R, N, C.Tag);
      std::vector<Interval> D(N), Ref(N);
      C.Arr(D.data(), X.data(), N);
      {
        RoundUpwardScope Up;
        for (size_t I = 0; I < N; ++I)
          Ref[I] = C.Scal(X[I]);
      }
      for (size_t I = 0; I < N; ++I)
        EXPECT_TRUE(sameBits(D[I], Ref[I]))
            << isaName(Tier) << " " << C.Tag << " @" << I << " got ["
            << -D[I].NegLo << ", " << D[I].Hi << "] want [" << -Ref[I].NegLo
            << ", " << Ref[I].Hi << "]";
    }
  }
}

TEST_P(BatchKernelIsaTest, ElementaryEnclosesTrueValues) {
  Isa Tier = static_cast<Isa>(GetParam());
  if (!isaSupported(Tier))
    GTEST_SKIP() << "CPU lacks " << isaName(Tier);
  IsaGuard Restore;
  forceIsa(Tier);

  constexpr size_t N = 512;
  test::Rng R(0x50111d + GetParam());
  std::vector<Interval> X(N), D(N);
  std::vector<double> Pt(N);
  for (size_t I = 0; I < N; ++I) {
    Pt[I] = R.uniform(-600.0, 600.0);
    X[I] = Interval::fromPoint(Pt[I]);
  }

  auto check = [&](const char *Name, auto RefLd) {
    for (size_t I = 0; I < N; ++I) {
      long double F;
      {
        RoundNearestScope Near;
        F = RefLd(static_cast<long double>(Pt[I]));
      }
      EXPECT_TRUE(test::containsQuad(D[I], static_cast<__float128>(F)))
          << isaName(Tier) << " " << Name << " unsound at x=" << Pt[I];
    }
  };

  iarr_exp(D.data(), X.data(), N);
  check("exp", [](long double V) { return expl(V); });
  iarr_sin(D.data(), X.data(), N);
  check("sin", [](long double V) { return sinl(V); });
  iarr_cos(D.data(), X.data(), N);
  check("cos", [](long double V) { return cosl(V); });
  for (size_t I = 0; I < N; ++I) {
    Pt[I] = std::ldexp(R.uniform(1.0, 2.0), R.intIn(-1021, 1023));
    X[I] = Interval::fromPoint(Pt[I]);
  }
  iarr_log(D.data(), X.data(), N);
  check("log", [](long double V) { return logl(V); });
}

/// The interval's bits with every NaN word replaced by one pattern: which
/// NaN an operation returns follows the operand order the compiler picks.
std::pair<uint64_t, uint64_t> canonBits(const Interval &I) {
  auto Word = [](double D) {
    uint64_t B;
    std::memcpy(&B, &D, sizeof B);
    return std::isnan(D) ? uint64_t(0x7ff8000000000000ull) : B;
  };
  return {Word(I.NegLo), Word(I.Hi)};
}

/// Operand triples whose products and fused sums are sensitive to how an
/// element is computed: a fused/composed split (fma([1/3], [3], [-1]) is
/// [-2^-54, -2^-54] fused, [-2^-53, 0] composed), signed-zero candidate
/// ties ([0, 2^-1074] * [-0, 1]: negLo +0.0 from the scalar op, -0.0 from
/// the packs), 0 * inf, overflow and straddling operands.
std::vector<std::array<Interval, 3>> positionSensitiveTriples() {
  const double Third = 1.0 / 3.0, Tiny = 0x1p-1074, Inf = HUGE_VAL;
  return {
      {Interval::fromPoint(Third), Interval::fromPoint(3.0),
       Interval::fromPoint(-1.0)},
      {Interval::fromEndpoints(0.0, Tiny), Interval(0.0, 1.0),
       Interval::fromPoint(0.0)},
      {Interval::fromEndpoints(0.0, Inf), Interval::fromEndpoints(-1.0, 2.0),
       Interval::fromEndpoints(-1.0, 1.0)},
      {Interval::fromEndpoints(-1e300, 1e300), Interval::fromPoint(1e300),
       Interval::fromPoint(1.0)},
      {Interval::fromEndpoints(-2.0, 3.0), Interval::fromEndpoints(-5.0, 0.5),
       Interval::fromEndpoints(0.25, 0.5)},
      {Interval(-0.0, 2.0), Interval(2.0, -0.0), Interval(0.0, -0.0)},
  };
}

/// iarr_fma and iarr_mul give an element the same bits wherever it sits:
/// at every index of 1..9 equal elements (pack, tail or masked tail),
/// next to a NaN element, and in the non-temporal peel and body of a
/// large batch whose Dst is off 64-byte alignment.
TEST_P(BatchKernelIsaTest, FmaMulBitsIndependentOfPosition) {
  Isa Tier = static_cast<Isa>(GetParam());
  if (!isaSupported(Tier))
    GTEST_SKIP() << "CPU lacks " << isaName(Tier);
  IsaGuard Restore;
  forceIsa(Tier);

  const Interval NaNI = Interval::nan();
  for (const auto &T : positionSensitiveTriples()) {
    for (int Op = 0; Op < 2; ++Op) {
      const char *Name = Op == 0 ? "fma" : "mul";
      auto Run = [&](Interval *D, const Interval *A, const Interval *B,
                     const Interval *C, size_t N) {
        if (Op == 0)
          iarr_fma(D, A, B, C, N);
        else
          iarr_mul(D, A, B, N);
      };
      Interval One;
      Run(&One, &T[0], &T[1], &T[2], 1);
      const auto Want = canonBits(One);
      for (size_t N = 1; N <= 9; ++N)
        for (long Hole = -1; Hole < static_cast<long>(N); ++Hole) {
          std::vector<Interval> A(N, T[0]), B(N, T[1]), C(N, T[2]), D(N);
          if (Hole >= 0)
            A[Hole] = B[Hole] = C[Hole] = NaNI;
          Run(D.data(), A.data(), B.data(), C.data(), N);
          for (size_t I = 0; I < N; ++I) {
            if (static_cast<long>(I) == Hole)
              continue;
            EXPECT_TRUE(canonBits(D[I]) == Want)
                << isaName(Tier) << " " << Name << " N=" << N << " @" << I
                << " NaN @" << Hole << ": [" << D[I].lo() << ", "
                << D[I].hi() << "] vs [" << One.lo() << ", " << One.hi()
                << "]";
          }
        }
      // Large enough for non-temporal stores; Dst one element past a
      // 64-byte boundary, so the stores start with a peel.
      const size_t N = 32768 + 5;
      std::vector<Interval> A(N, T[0]), B(N, T[1]), C(N, T[2]);
      std::vector<Interval> Buf(N + 8);
      Interval *D = Buf.data();
      while (reinterpret_cast<uintptr_t>(D) % 64 != 16)
        ++D;
      Run(D, A.data(), B.data(), C.data(), N);
      size_t Bad = 0;
      for (size_t I = 0; I < N; ++I)
        Bad += canonBits(D[I]) != Want;
      EXPECT_EQ(Bad, 0u) << isaName(Tier) << " " << Name
                         << " unaligned large batch";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, BatchKernelIsaTest,
                         ::testing::Range(0, NumIsas),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return isaName(static_cast<Isa>(Info.param));
                         });

/// The SIMD tiers agree bit for bit (NaN words canonicalized) on add,
/// sub, mul and scale for every input, specials included; on fma, the
/// tiers that fuse agree with each other, and so do the tiers that
/// compose.
TEST(BatchKernelCrossTierTest, SimdTiersBitIdentical) {
  IsaGuard Restore;
  std::vector<Isa> Simd;
  for (Isa Tier : supportedIsas())
    if (Tier != Isa::Scalar)
      Simd.push_back(Tier);
  if (Simd.size() < 2)
    GTEST_SKIP() << "fewer than two SIMD tiers";
  test::Rng R(0xc055);
  for (size_t N : {1ul, 3ul, 7ul, 17ul, 64ul, 1023ul}) {
    std::vector<Interval> X = randomIntervals(R, N, /*Specials=*/true);
    std::vector<Interval> Y = randomIntervals(R, N, /*Specials=*/true);
    std::vector<Interval> Z = randomIntervals(R, N, /*Specials=*/true);
    const auto Triples = positionSensitiveTriples();
    for (size_t I = 0; I < N; I += 5) {
      const auto &T = Triples[I % Triples.size()];
      X[I] = T[0];
      Y[I] = T[1];
      Z[I] = T[2];
    }
    const Interval S = Interval::fromEndpoints(-0.0, 0x1p-1074);
    // Per tier: add, sub, mul, scale, fma results back to back.
    std::vector<std::vector<Interval>> Got;
    for (Isa Tier : Simd) {
      forceIsa(Tier);
      std::vector<Interval> D(5 * N);
      iarr_add(D.data(), X.data(), Y.data(), N);
      iarr_sub(D.data() + N, X.data(), Y.data(), N);
      iarr_mul(D.data() + 2 * N, X.data(), Y.data(), N);
      iarr_scale(D.data() + 3 * N, X.data(), S, N);
      iarr_fma(D.data() + 4 * N, X.data(), Y.data(), Z.data(), N);
      Got.push_back(std::move(D));
    }
    const char *Ops[] = {"add", "sub", "mul", "scale", "fma"};
    auto Fuses = [](Isa T) { return T == Isa::Avx2Fma || T == Isa::Avx512; };
    for (size_t K = 0; K < Simd.size(); ++K)
      for (size_t J = 0; J < K; ++J)
        for (size_t I = 0; I < 5 * N; ++I) {
          if (I >= 4 * N && Fuses(Simd[J]) != Fuses(Simd[K]))
            break;
          EXPECT_TRUE(canonBits(Got[K][I]) == canonBits(Got[J][I]))
              << Ops[I / N] << " @" << I % N << ": " << isaName(Simd[K])
              << " [" << Got[K][I].lo() << ", " << Got[K][I].hi() << "] vs "
              << isaName(Simd[J]) << " [" << Got[J][I].lo() << ", "
              << Got[J][I].hi() << "]";
        }
  }
}

//===----------------------------------------------------------------------===//
// Kernel-table completeness
//===----------------------------------------------------------------------===//

TEST(KernelTableTest, EveryRowPopulatedForEveryIsa) {
  // Guards against a new op being added to KernelTable but left null in
  // one tier's table: the dispatcher would hand out a null function
  // pointer for that (tier, op) pair. The check names the offender.
  std::string Missing;
  EXPECT_TRUE(kernelTablesComplete(&Missing)) << Missing;
}

TEST(KernelTableTest, TableNamesMatchTierNames) {
  IsaGuard Restore;
  for (Isa Tier : supportedIsas()) {
    forceIsa(Tier);
    EXPECT_STREQ(kernels().Name, isaName(Tier));
  }
}

//===----------------------------------------------------------------------===//
// (b) Reduction reproducibility and soundness
//===----------------------------------------------------------------------===//

TEST(BatchReduceTest, SumEnclosesSequentialAccumulatorAndExactSum) {
  test::Rng R(0xacc);
  for (size_t N : {1ul, 5ul, 1000ul, 1024ul, 1025ul, 4096ul, 10000ul}) {
    std::vector<Interval> X = randomIntervals(R, N, /*Specials=*/false);
    Interval Batched = iarr_sum(X.data(), N);

    // Sequential reference: the reduction accumulator the transformer
    // emits today.
    RoundUpwardScope Up;
    SumAccumulatorF64 Acc;
    Acc.init(X[0]);
    for (size_t I = 1; I < N; ++I)
      Acc.accumulate(X[I]);
    Interval Seq = Acc.reduce();
    EXPECT_TRUE(Batched.containsInterval(Seq)) << "N=" << N;

    // Exact endpoint sums via the error-free exponent-indexed
    // accumulator: the batched interval must enclose them.
    ExactAccumulator NegLo, Hi;
    for (size_t I = 0; I < N; ++I) {
      NegLo.add(X[I].NegLo);
      Hi.add(X[I].Hi);
    }
    Dd ExactNeg = NegLo.reduceUp(), ExactHi = Hi.reduceUp();
    EXPECT_GE(Batched.NegLo, ddToDoubleUp(ExactNeg)) << "N=" << N;
    EXPECT_GE(Batched.Hi, ddToDoubleUp(ExactHi)) << "N=" << N;
  }
}

TEST(BatchReduceTest, SumBitIdenticalAcrossThreadCounts) {
  test::Rng R(0xbeef);
  for (size_t N : {1ul, 1024ul, 3000ul, 8192ul, 50000ul}) {
    std::vector<Interval> X = randomIntervals(R, N, /*Specials=*/false);
    Interval T1 = iarr_sum_par(X.data(), N, 1);
    Interval T2 = iarr_sum_par(X.data(), N, 2);
    Interval T4 = iarr_sum_par(X.data(), N, 4);
    Interval Serial = iarr_sum(X.data(), N);
    EXPECT_TRUE(sameBits(T1, Serial)) << "N=" << N;
    EXPECT_TRUE(sameBits(T2, Serial)) << "N=" << N;
    EXPECT_TRUE(sameBits(T4, Serial)) << "N=" << N;
  }
}

/// IGEN_THREADS as ThreadPool::instance() resolves it: the knob table's
/// spelling, then the hardware clamp (0: no override).
unsigned participantsFromEnv(const char *Spec, unsigned Hardware) {
  return ThreadPool::clampParticipants(parseKnob(Knob::Threads, Spec).Int,
                                       Hardware);
}

TEST(ThreadPoolTest, ParticipantsFromEnvParsesAndClamps) {
  // Invalid specs fall back (0): unset, empty, junk, trailing junk,
  // zero, and negatives.
  EXPECT_EQ(participantsFromEnv(nullptr, 8), 0u);
  EXPECT_EQ(participantsFromEnv("", 8), 0u);
  EXPECT_EQ(participantsFromEnv("many", 8), 0u);
  EXPECT_EQ(participantsFromEnv("8cores", 8), 0u);
  EXPECT_EQ(participantsFromEnv("0", 8), 0u);
  EXPECT_EQ(participantsFromEnv("-3", 8), 0u);
  // In-range values pass through.
  EXPECT_EQ(participantsFromEnv("1", 8), 1u);
  EXPECT_EQ(participantsFromEnv("6", 8), 6u);
  // Oversubscription clamps to max(4, hardware).
  EXPECT_EQ(participantsFromEnv("512", 8), 8u);
  EXPECT_EQ(participantsFromEnv("512", 1), 4u);
  EXPECT_EQ(participantsFromEnv("3", 1), 3u);
  EXPECT_EQ(participantsFromEnv("99999999999999999999", 8), 8u);
}

TEST(ThreadPoolTest, EnvThreadSettingsKeepReductionsBitIdentical) {
  // The chunked reduction result must not depend on how many
  // participants IGEN_THREADS selects: every legal setting (after
  // clamping) must reproduce the serial reduction bit for bit.
  unsigned HW = std::thread::hardware_concurrency();
  test::Rng R(0x16e2);
  std::vector<Interval> X = randomIntervals(R, 30000, /*Specials=*/false);
  Interval Serial = iarr_sum(X.data(), X.size());
  for (const char *Spec : {"1", "2", "3", "5", "8", "512"}) {
    unsigned P = participantsFromEnv(Spec, HW);
    ASSERT_GE(P, 1u) << Spec;
    Interval S = iarr_sum_par(X.data(), X.size(), P);
    EXPECT_TRUE(sameBits(S, Serial)) << "IGEN_THREADS=" << Spec;
  }
}

TEST(BatchReduceTest, DotBitIdenticalAcrossThreadsAndIsas) {
  IsaGuard Restore;
  test::Rng R(0xd07);
  for (size_t N : {1ul, 1000ul, 4096ul, 20000ul}) {
    // Benign inputs: products stay finite and nonzero, the domain on
    // which every tier computes identical candidate maxima.
    std::vector<Interval> X = benignIntervals(R, N);
    std::vector<Interval> Y = benignIntervals(R, N);

    clearForcedIsa();
    Interval Ref = iarr_dot(X.data(), Y.data(), N);
    for (Isa Tier : supportedIsas()) {
      forceIsa(Tier);
      Interval D1 = iarr_dot(X.data(), Y.data(), N);
      Interval D2 = iarr_dot_par(X.data(), Y.data(), N, 2);
      Interval D4 = iarr_dot_par(X.data(), Y.data(), N, 4);
      EXPECT_TRUE(sameBits(D1, Ref))
          << isaName(Tier) << " serial N=" << N;
      EXPECT_TRUE(sameBits(D2, Ref)) << isaName(Tier) << " t2 N=" << N;
      EXPECT_TRUE(sameBits(D4, Ref)) << isaName(Tier) << " t4 N=" << N;
    }
  }
}

TEST(BatchReduceTest, DotEnclosesSequentialReference) {
  test::Rng R(0xd0d0);
  for (size_t N : {1ul, 777ul, 4096ul}) {
    std::vector<Interval> X = randomIntervals(R, N, /*Specials=*/false);
    std::vector<Interval> Y = randomIntervals(R, N, /*Specials=*/false);
    Interval Batched = iarr_dot_par(X.data(), Y.data(), N, 4);

    RoundUpwardScope Up;
    SumAccumulatorF64 Acc;
    Acc.init(iMul(X[0], Y[0]));
    for (size_t I = 1; I < N; ++I)
      Acc.accumulate(iMul(X[I], Y[I]));
    EXPECT_TRUE(Batched.containsInterval(Acc.reduce())) << "N=" << N;
  }
}

TEST(BatchReduceTest, SumRespectsIgenIsaEnvOverride) {
  // The env var is consulted whenever the cached selection is empty, so
  // clearing the forced tier makes it take effect mid-process.
  IsaGuard Restore;
  test::Rng R(0xe4f);
  std::vector<Interval> X = benignIntervals(R, 5000);
  std::vector<Interval> Y = benignIntervals(R, 5000);

  clearForcedIsa();
  Interval Ref = iarr_dot(X.data(), Y.data(), X.size());
  for (const char *Name : {"scalar", "sse2", "avx", "avx2", "avx512"}) {
    ASSERT_EQ(setenv("IGEN_ISA", Name, 1), 0);
    clearForcedIsa();
    Isa Wanted = Isa::Scalar;
    bool Known = false;
    for (int I = 0; I < NumIsas; ++I)
      if (std::strcmp(Name, isaName(static_cast<Isa>(I))) == 0) {
        Wanted = static_cast<Isa>(I);
        Known = true;
      }
    ASSERT_TRUE(Known);
    if (!isaSupported(Wanted))
      continue;
    EXPECT_EQ(activeIsa(), Wanted) << Name;
    Interval D = iarr_dot(X.data(), Y.data(), X.size());
    EXPECT_TRUE(sameBits(D, Ref)) << "IGEN_ISA=" << Name;
  }
  unsetenv("IGEN_ISA");
}

TEST(BatchReduceTest, NormTwoIsNonNegativeAndSound) {
  test::Rng R(0x2017);
  std::vector<Interval> X = randomIntervals(R, 300, /*Specials=*/false);
  Interval N2 = iarr_norm2(X.data(), X.size());
  ASSERT_FALSE(N2.hasNaN());
  EXPECT_GE(N2.lo(), 0.0);
  // Midpoint sample: sqrt(sum of midpoint squares) must be inside.
  __float128 S = 0;
  for (const Interval &I : X) {
    __float128 M = (static_cast<__float128>(I.lo()) + I.hi()) / 2;
    S += M * M;
  }
  double Mid = std::sqrt(static_cast<double>(S));
  EXPECT_TRUE(N2.contains(Mid));
}

//===----------------------------------------------------------------------===//
// (c) Rounding-mode hygiene
//===----------------------------------------------------------------------===//

TEST(BatchReduceTest, CallerRoundingModeIsPreserved) {
  test::Rng R(0x0de);
  std::vector<Interval> X = randomIntervals(R, 5000, /*Specials=*/false);

  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  (void)iarr_sum_par(X.data(), X.size(), 4);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);

  {
    RoundUpwardScope Up;
    (void)iarr_sum_par(X.data(), X.size(), 4);
    EXPECT_EQ(std::fegetround(), FE_UPWARD);
  }
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(BatchReduceTest, WorkerThreadsRestoreRoundingAfterTasks) {
  test::Rng R(0x0df);
  std::vector<Interval> X = randomIntervals(R, 50000, /*Specials=*/false);
  // Run reductions that flip every participating worker to upward...
  for (int Round = 0; Round < 4; ++Round)
    (void)iarr_sum_par(X.data(), X.size(), 0);

  // ...then probe the pool: every task invocation must observe the
  // worker back at round-to-nearest. (Task-to-thread assignment is
  // dynamic, so probe many more tasks than workers.)
  ThreadPool &Pool = ThreadPool::instance();
  size_t NumProbes = 64 * Pool.maxParticipants();
  std::vector<int> Seen(NumProbes, -1);
  Pool.parallelFor(NumProbes, 0, [&](size_t I) {
    Seen[I] = std::fegetround();
  });
  for (size_t I = 0; I < NumProbes; ++I)
    EXPECT_EQ(Seen[I], FE_TONEAREST) << "probe " << I;
}

} // namespace
