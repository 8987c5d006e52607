//===- SoundnessPropertyTest.cpp - Randomized soundness properties ----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Property-based soundness tests in the spirit of the paper's library
// validation against MPFI (Section IV-A): random endpoint combinations
// including NaN, infinities, zeros and denormals are pushed through every
// operation, and real points sampled from the input intervals must land
// inside the result intervals.
//
//===----------------------------------------------------------------------===//

#include "interval/DdInterval.h"
#include "interval/DdSimd.h"
#include "interval/Elementary.h"
#include "interval/Interval.h"
#include "interval/IntervalSimd.h"

#include "TestHelpers.h"

#include <cstring>

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;

namespace {

enum class Op { Add, Sub, Mul, Div, Sqrt, Abs, Exp, Log, Sin, Cos };

const char *opName(Op O) {
  switch (O) {
  case Op::Add:
    return "add";
  case Op::Sub:
    return "sub";
  case Op::Mul:
    return "mul";
  case Op::Div:
    return "div";
  case Op::Sqrt:
    return "sqrt";
  case Op::Abs:
    return "abs";
  case Op::Exp:
    return "exp";
  case Op::Log:
    return "log";
  case Op::Sin:
    return "sin";
  case Op::Cos:
    return "cos";
  }
  return "?";
}

Interval apply(Op O, const Interval &A, const Interval &B) {
  switch (O) {
  case Op::Add:
    return iAdd(A, B);
  case Op::Sub:
    return iSub(A, B);
  case Op::Mul:
    return iMul(A, B);
  case Op::Div:
    return iDiv(A, B);
  case Op::Sqrt:
    return iSqrt(A);
  case Op::Abs:
    return iAbs(A);
  case Op::Exp:
    return iExp(A);
  case Op::Log:
    return iLog(A);
  case Op::Sin:
    return iSin(A);
  case Op::Cos:
    return iCos(A);
  }
  return Interval::nan();
}

/// Reference in long double (80-bit: strictly more precise than double).
long double applyPoint(Op O, long double A, long double B) {
  switch (O) {
  case Op::Add:
    return A + B;
  case Op::Sub:
    return A - B;
  case Op::Mul:
    return A * B;
  case Op::Div:
    return A / B;
  case Op::Sqrt:
    return sqrtl(A);
  case Op::Abs:
    return fabsl(A);
  case Op::Exp:
    return expl(A);
  case Op::Log:
    return logl(A);
  case Op::Sin:
    return sinl(A);
  case Op::Cos:
    return cosl(A);
  }
  return 0;
}

bool isBinary(Op O) {
  return O == Op::Add || O == Op::Sub || O == Op::Mul || O == Op::Div;
}

bool containsLd(const Interval &I, long double V) {
  if (I.hasNaN())
    return true;
  if (std::isnan(static_cast<double>(V)))
    return false; // NaN result requires a NaN interval, handled above.
  return -static_cast<long double>(I.NegLo) <= V &&
         V <= static_cast<long double>(I.Hi);
}

class SoundnessTest : public ::testing::TestWithParam<Op> {
protected:
  RoundUpwardScope Up;
};

} // namespace

TEST_P(SoundnessTest, RandomIntervalsContainSampledResults) {
  Op O = GetParam();
  Rng R(1000 + static_cast<int>(O));
  for (int Trial = 0; Trial < 4000; ++Trial) {
    Interval A = R.moderateInterval(256);
    Interval B = R.moderateInterval(256);
    Interval Res = apply(O, A, B);
    for (int S = 0; S < 8; ++S) {
      long double PA =
          A.lo() + (static_cast<long double>(A.hi()) - A.lo()) * S / 7.0L;
      long double PB =
          B.lo() + (static_cast<long double>(B.hi()) - B.lo()) * S / 7.0L;
      long double Ref = applyPoint(O, PA, isBinary(O) ? PB : 0.0L);
      if (std::isnan(static_cast<double>(Ref)))
        continue; // domain violation: interval layer reports NaN/partial
      if (O == Op::Div && B.contains(0.0))
        continue; // half-line semantics tested separately
      // libm reference itself has error; skip razor-thin margins for the
      // transcendental ops by requiring containment with 1-ulp slack.
      Interval Slack = Res;
      if (static_cast<int>(O) >= static_cast<int>(Op::Exp)) {
        Slack.NegLo = nextUp(Slack.NegLo);
        Slack.Hi = nextUp(Slack.Hi);
      }
      EXPECT_TRUE(containsLd(Slack, Ref))
          << opName(O) << " [" << A.lo() << "," << A.hi() << "] ["
          << B.lo() << "," << B.hi() << "] sample " << (double)Ref;
    }
  }
}

TEST_P(SoundnessTest, SpecialValueGridIsSound) {
  Op O = GetParam();
  int N;
  const double *Vals = igen::test::specialValues(N);
  for (int I = 0; I < N; ++I) {
    for (int J = 0; J < N; ++J) {
      double L1 = Vals[I], H1 = Vals[J];
      if (std::isnan(L1) || std::isnan(H1) || L1 > H1)
        continue;
      for (int K = 0; K < N; ++K) {
        for (int M = 0; M < N; ++M) {
          double L2 = Vals[K], H2 = Vals[M];
          if (std::isnan(L2) || std::isnan(H2) || L2 > H2)
            continue;
          Interval A = Interval::fromEndpoints(L1, H1);
          Interval B = Interval::fromEndpoints(L2, H2);
          Interval Res = apply(O, A, B);
          // Sample finite points inside A and B.
          double SA = A.contains(1.0) ? 1.0
                      : (std::isfinite(L1) ? L1
                                           : (std::isfinite(H1) ? H1 : 0.0));
          double SB = B.contains(1.0) ? 1.0
                      : (std::isfinite(L2) ? L2
                                           : (std::isfinite(H2) ? H2 : 0.0));
          if (!A.contains(SA) || !B.contains(SB))
            continue;
          // A zero divisor is not a real division: the interval layer
          // divides by the nonzero part of B (IEEE-1788 semantics).
          if (O == Op::Div && SB == 0.0)
            continue;
          long double Ref =
              applyPoint(O, SA, isBinary(O) ? SB : 0.0L);
          if (std::isnan(static_cast<double>(Ref)))
            continue;
          Interval Slack = Res;
          if (static_cast<int>(O) >= static_cast<int>(Op::Exp)) {
            Slack.NegLo = nextUp(Slack.NegLo);
            Slack.Hi = nextUp(Slack.Hi);
          }
          EXPECT_TRUE(containsLd(Slack, Ref))
              << opName(O) << " [" << L1 << "," << H1 << "] op [" << L2
              << "," << H2 << "]";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, SoundnessTest,
                         ::testing::Values(Op::Add, Op::Sub, Op::Mul,
                                           Op::Div, Op::Sqrt, Op::Abs,
                                           Op::Exp, Op::Log, Op::Sin,
                                           Op::Cos),
                         [](const ::testing::TestParamInfo<Op> &Info) {
                           return opName(Info.param);
                         });

namespace {

class SseSoundnessTest : public ::testing::TestWithParam<Op> {
protected:
  RoundUpwardScope Up;
};

} // namespace

TEST_P(SseSoundnessTest, SseAgreesOrWidens) {
  Op O = GetParam();
  if (!isBinary(O))
    GTEST_SKIP() << "binary ops only";
  Rng R(2000 + static_cast<int>(O));
  for (int Trial = 0; Trial < 4000; ++Trial) {
    Interval A = R.interval(64);
    Interval B = R.interval(64);
    Interval Ref = apply(O, A, B);
    IntervalSse SA = IntervalSse::fromInterval(A);
    IntervalSse SB = IntervalSse::fromInterval(B);
    Interval Got;
    switch (O) {
    case Op::Add:
      Got = iAdd(SA, SB).toInterval();
      break;
    case Op::Sub:
      Got = iSub(SA, SB).toInterval();
      break;
    case Op::Mul:
      Got = iMul(SA, SB).toInterval();
      break;
    default:
      Got = iDiv(SA, SB).toInterval();
      break;
    }
    EXPECT_TRUE(Got.containsInterval(Ref) ||
                (Got.hasNaN() == Ref.hasNaN() && Ref.hasNaN()))
        << opName(O);
  }
}

INSTANTIATE_TEST_SUITE_P(SseOps, SseSoundnessTest,
                         ::testing::Values(Op::Add, Op::Sub, Op::Mul,
                                           Op::Div),
                         [](const ::testing::TestParamInfo<Op> &Info) {
                           return opName(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Double-double special-value grid
//===----------------------------------------------------------------------===//

namespace {

class DdGridTest : public ::testing::Test {
protected:
  RoundUpwardScope Up;
};

} // namespace

TEST_F(DdGridTest, SpecialEndpointsSoundThroughDdOps) {
  int N;
  const double *Vals = igen::test::specialValues(N);
  for (int I = 0; I < N; ++I) {
    for (int J = 0; J < N; ++J) {
      double L1 = Vals[I], H1 = Vals[J];
      if (std::isnan(L1) || std::isnan(H1) || L1 > H1)
        continue;
      DdInterval A = DdInterval::fromEndpoints(Dd(L1), Dd(H1));
      for (int K = 0; K < N; ++K) {
        for (int M = 0; M < N; ++M) {
          double L2 = Vals[K], H2 = Vals[M];
          if (std::isnan(L2) || std::isnan(H2) || L2 > H2)
            continue;
          DdInterval B = DdInterval::fromEndpoints(Dd(L2), Dd(H2));
          // Sample finite points of each input.
          double SA = A.contains(1.0) ? 1.0
                      : (std::isfinite(L1) ? L1
                                           : (std::isfinite(H1) ? H1 : 0.0));
          double SB = B.contains(1.0) ? 1.0
                      : (std::isfinite(L2) ? L2
                                           : (std::isfinite(H2) ? H2 : 0.0));
          if (!A.contains(SA) || !B.contains(SB))
            continue;
          long double PA = SA, PB = SB;
          auto ContainsLd = [](const DdInterval &R, long double V) {
            if (R.hasNaN())
              return true;
            long double Lo = -(static_cast<long double>(R.NegLo.H) +
                               static_cast<long double>(R.NegLo.L));
            long double Hi = static_cast<long double>(R.Hi.H) +
                             static_cast<long double>(R.Hi.L);
            return Lo <= V && V <= Hi;
          };
          EXPECT_TRUE(ContainsLd(ddiAdd(A, B), PA + PB))
              << L1 << " " << H1 << " + " << L2 << " " << H2;
          EXPECT_TRUE(ContainsLd(ddiSub(A, B), PA - PB))
              << L1 << " " << H1 << " - " << L2 << " " << H2;
          long double Prod = PA * PB;
          if (!std::isnan(static_cast<double>(Prod))) {
            EXPECT_TRUE(ContainsLd(ddiMul(A, B), Prod))
                << L1 << " " << H1 << " * " << L2 << " " << H2;
          }
          if (SB != 0.0) {
            long double Quot = PA / PB;
            if (!std::isnan(static_cast<double>(Quot))) {
              EXPECT_TRUE(ContainsLd(ddiDiv(A, B), Quot))
                  << L1 << " " << H1 << " / " << L2 << " " << H2;
            }
          }
        }
      }
    }
  }
}

TEST_F(DdGridTest, AvxMirrorsScalarOnSpecials) {
  int N;
  const double *Vals = igen::test::specialValues(N);
  for (int I = 0; I < N; ++I) {
    for (int J = 0; J < N; ++J) {
      double L1 = Vals[I], H1 = Vals[J];
      if (std::isnan(L1) || std::isnan(H1) || L1 > H1)
        continue;
      DdInterval A = DdInterval::fromEndpoints(Dd(L1), Dd(H1));
      DdInterval B = DdInterval::fromEndpoints(Dd(-2.0), Dd(3.0));
      DdIntervalAvx VA = DdIntervalAvx::fromScalar(A);
      DdIntervalAvx VB = DdIntervalAvx::fromScalar(B);
      DdInterval RefM = ddiMul(A, B);
      DdInterval GotM = ddiMul(VA, VB).toScalar();
      // One op body on both backends: the same bits, specials included.
      EXPECT_EQ(std::memcmp(&GotM, &RefM, sizeof(DdInterval)), 0)
          << L1 << " " << H1;
    }
  }
}
