//===- ElementaryTest.cpp - Interval elementary function tests --------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "interval/Elementary.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;

namespace {

class ElemTest : public ::testing::Test {
protected:
  RoundUpwardScope Up;
  Rng R{61};
};

/// Reference value computed in long double under round-to-nearest; with
/// ~64-bit precision it sits well inside any >=4-ulp-widened double
/// enclosure.
template <typename Fn> long double refLd(Fn F, double X) {
  RoundNearestScope RN;
  return F(static_cast<long double>(X));
}

} // namespace

TEST_F(ElemTest, ExpPointSoundAndTight) {
  for (int I = 0; I < 3000; ++I) {
    double X = R.uniform(-700.0, 700.0);
    Interval E = iExp(Interval::fromPoint(X));
    long double Ref = refLd([](long double V) { return expl(V); }, X);
    EXPECT_GE(static_cast<long double>(E.hi()), Ref);
    EXPECT_LE(static_cast<long double>(E.lo()), Ref);
    if (E.lo() > 0.0) {
      EXPECT_LE(ulpDistance(E.lo(), E.hi()), 2 * LibmUlpBound + 2u);
    }
  }
}

TEST_F(ElemTest, ExpEdgeCases) {
  Interval E = iExp(Interval::fromEndpoints(
      -std::numeric_limits<double>::infinity(), 0.0));
  EXPECT_EQ(E.lo(), 0.0);
  EXPECT_GE(E.hi(), 1.0);
  E = iExp(Interval::fromEndpoints(700.0, 1000.0));
  EXPECT_EQ(E.hi(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(iExp(Interval::nan()).hasNaN());
}

TEST_F(ElemTest, LogPointSound) {
  for (int I = 0; I < 3000; ++I) {
    double X = std::exp(R.uniform(-700.0, 700.0));
    if (X <= 0.0 || std::isinf(X))
      continue;
    Interval L = iLog(Interval::fromPoint(X));
    long double Ref = refLd([](long double V) { return logl(V); }, X);
    EXPECT_GE(static_cast<long double>(L.hi()), Ref);
    EXPECT_LE(static_cast<long double>(L.lo()), Ref);
  }
}

TEST_F(ElemTest, LogEdgeCases) {
  EXPECT_TRUE(iLog(Interval::fromEndpoints(-2.0, -1.0)).hasNaN());
  Interval L = iLog(Interval::fromEndpoints(-1.0, 4.0));
  EXPECT_TRUE(std::isnan(L.NegLo));
  EXPECT_GE(L.Hi, std::log(4.0));
  L = iLog(Interval::fromEndpoints(0.0, 1.0));
  EXPECT_EQ(L.lo(), -std::numeric_limits<double>::infinity());
  EXPECT_GE(L.hi(), 0.0);
}

TEST_F(ElemTest, SinPointSound) {
  for (int I = 0; I < 5000; ++I) {
    double X = R.uniform(-1e4, 1e4);
    Interval S = iSin(Interval::fromPoint(X));
    long double Ref = refLd([](long double V) { return sinl(V); }, X);
    EXPECT_GE(static_cast<long double>(S.hi()), Ref) << X;
    EXPECT_LE(static_cast<long double>(S.lo()), Ref) << X;
    EXPECT_LE(S.hi(), 1.0);
    EXPECT_GE(S.lo(), -1.0);
  }
}

TEST_F(ElemTest, CosPointSound) {
  for (int I = 0; I < 5000; ++I) {
    double X = R.uniform(-1e4, 1e4);
    Interval C = iCos(Interval::fromPoint(X));
    long double Ref = refLd([](long double V) { return cosl(V); }, X);
    EXPECT_GE(static_cast<long double>(C.hi()), Ref) << X;
    EXPECT_LE(static_cast<long double>(C.lo()), Ref) << X;
  }
}

TEST_F(ElemTest, SinPeaksInjected) {
  const double Pi = 3.141592653589793;
  // Interval spanning pi/2 must have hi == 1.
  Interval S = iSin(Interval::fromEndpoints(1.0, 2.0));
  EXPECT_EQ(S.hi(), 1.0);
  EXPECT_LT(S.lo(), std::sin(1.0));
  // Interval spanning 3*pi/2 must have lo == -1.
  S = iSin(Interval::fromEndpoints(4.0, 5.0));
  EXPECT_EQ(S.lo(), -1.0);
  // Far from any extremum: monotone section.
  S = iSin(Interval::fromEndpoints(0.1, 0.2));
  EXPECT_LT(S.hi(), 0.21);
  EXPECT_GT(S.lo(), 0.09);
  // A whole period: [-1, 1].
  S = iSin(Interval::fromEndpoints(0.0, 2.0 * Pi + 0.1));
  EXPECT_EQ(S.lo(), -1.0);
  EXPECT_EQ(S.hi(), 1.0);
}

TEST_F(ElemTest, CosPeaksInjected) {
  Interval C = iCos(Interval::fromEndpoints(-0.5, 0.5));
  EXPECT_EQ(C.hi(), 1.0);
  C = iCos(Interval::fromEndpoints(3.0, 3.3)); // spans pi
  EXPECT_EQ(C.lo(), -1.0);
}

TEST_F(ElemTest, SinIntervalSoundBySampling) {
  for (int I = 0; I < 500; ++I) {
    double Lo = R.uniform(-100.0, 100.0);
    double Hi = Lo + R.uniform(0.0, 10.0);
    Interval In = Interval::fromEndpoints(Lo, Hi);
    Interval S = iSin(In);
    for (int J = 0; J <= 16; ++J) {
      double X = Lo + (Hi - Lo) * J / 16.0;
      long double Ref = refLd([](long double V) { return sinl(V); }, X);
      EXPECT_GE(static_cast<long double>(S.hi()), Ref) << Lo << " " << Hi;
      EXPECT_LE(static_cast<long double>(S.lo()), Ref) << Lo << " " << Hi;
    }
  }
}

TEST_F(ElemTest, HugeArgumentsGiveUnit) {
  Interval S = iSin(Interval::fromPoint(1e200));
  EXPECT_EQ(S.lo(), -1.0);
  EXPECT_EQ(S.hi(), 1.0);
  S = iCos(Interval::entire());
  EXPECT_EQ(S.lo(), -1.0);
  EXPECT_EQ(S.hi(), 1.0);
}

TEST_F(ElemTest, TanPoleAndMonotone) {
  // Contains pi/2: entire line.
  Interval T = iTan(Interval::fromEndpoints(1.0, 2.0));
  EXPECT_EQ(T.lo(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(T.hi(), std::numeric_limits<double>::infinity());
  // Pole-free: monotone.
  T = iTan(Interval::fromEndpoints(0.1, 0.2));
  long double RefLo = refLd([](long double V) { return tanl(V); }, 0.1);
  long double RefHi = refLd([](long double V) { return tanl(V); }, 0.2);
  EXPECT_LE(static_cast<long double>(T.lo()), RefLo);
  EXPECT_GE(static_cast<long double>(T.hi()), RefHi);
  EXPECT_LT(T.hi(), 0.21);
}

TEST_F(ElemTest, TanPointSound) {
  for (int I = 0; I < 3000; ++I) {
    double X = R.uniform(-1e3, 1e3);
    Interval T = iTan(Interval::fromPoint(X));
    long double Ref = refLd([](long double V) { return tanl(V); }, X);
    EXPECT_GE(static_cast<long double>(T.hi()), Ref) << X;
    EXPECT_LE(static_cast<long double>(T.lo()), Ref) << X;
  }
}

TEST_F(ElemTest, SectionRangeConservative) {
  // floor(x / (pi/2)) for a grid of values, compared against long double.
  for (int I = -1000; I <= 1000; ++I) {
    double X = I * 0.1;
    long long KMin, KMax;
    igen::detail::sectionRange(X, KMin, KMax);
    long double K = floorl(static_cast<long double>(X) /
                           (3.14159265358979323846L / 2.0L));
    EXPECT_LE(KMin, static_cast<long long>(K));
    EXPECT_GE(KMax, static_cast<long long>(K));
    EXPECT_LE(KMax - KMin, 1);
  }
}

TEST_F(ElemTest, SectionRangeNearBoundary) {
  // Exactly representable values extremely close to k*pi/2 must produce an
  // ambiguous (width-1) range or the correct section; never a wrong one.
  double NearPiHalf = 1.5707963267948966; // closest double to pi/2
  long long KMin, KMax;
  igen::detail::sectionRange(NearPiHalf, KMin, KMax);
  EXPECT_LE(KMin, 0);
  EXPECT_GE(KMax, 0);
}

TEST_F(ElemTest, AtanSoundAndClamped) {
  for (int I = 0; I < 3000; ++I) {
    double X = R.uniform(-1e6, 1e6);
    Interval A = iAtan(Interval::fromPoint(X));
    long double Ref = refLd([](long double V) { return atanl(V); }, X);
    EXPECT_GE(static_cast<long double>(A.hi()), Ref) << X;
    EXPECT_LE(static_cast<long double>(A.lo()), Ref) << X;
  }
  Interval Wide = iAtan(Interval::entire());
  EXPECT_LE(Wide.hi(), 1.5707963267948968);
  EXPECT_GE(Wide.lo(), -1.5707963267948968);
}

TEST_F(ElemTest, AsinAcosSoundInDomain) {
  for (int I = 0; I < 3000; ++I) {
    double X = R.uniform(-1.0, 1.0);
    Interval S = iAsin(Interval::fromPoint(X));
    Interval C = iAcos(Interval::fromPoint(X));
    long double RefS = refLd([](long double V) { return asinl(V); }, X);
    long double RefC = refLd([](long double V) { return acosl(V); }, X);
    EXPECT_GE(static_cast<long double>(S.hi()), RefS) << X;
    EXPECT_LE(static_cast<long double>(S.lo()), RefS) << X;
    EXPECT_GE(static_cast<long double>(C.hi()), RefC) << X;
    EXPECT_LE(static_cast<long double>(C.lo()), RefC) << X;
    EXPECT_GE(C.lo(), 0.0);
  }
}

TEST_F(ElemTest, AsinAcosDomainEdges) {
  // Entirely outside the domain: invalid.
  EXPECT_TRUE(iAsin(Interval::fromEndpoints(1.5, 2.0)).hasNaN());
  EXPECT_TRUE(iAcos(Interval::fromEndpoints(-3.0, -1.5)).hasNaN());
  // Straddling the domain edge: NaN on the invalid side, sound bound on
  // the valid one (like sqrt([-1, 1])).
  Interval S = iAsin(Interval::fromEndpoints(0.5, 2.0));
  EXPECT_TRUE(std::isnan(S.Hi));
  EXPECT_LE(S.lo(), 0.5235987755982989); // asin(0.5) = pi/6
  // Exactly the endpoints.
  Interval Full = iAsin(Interval::fromEndpoints(-1.0, 1.0));
  EXPECT_LE(Full.lo(), -1.5707963267948966);
  EXPECT_GE(Full.hi(), 1.5707963267948966);
  Interval AC = iAcos(Interval::fromEndpoints(-1.0, 1.0));
  EXPECT_LE(AC.lo(), 0.0);
  EXPECT_GE(AC.hi(), 3.1415926535897931);
}

TEST_F(ElemTest, TanSpansPoleAwayFromOrigin) {
  const double Inf = std::numeric_limits<double>::infinity();
  // 11*pi/2 ~ 17.28 lies inside [17, 18]: the enclosure is the line.
  Interval T = iTan(Interval::fromEndpoints(17.0, 18.0));
  EXPECT_EQ(T.lo(), -Inf);
  EXPECT_EQ(T.hi(), Inf);
  // Any interval wider than pi spans a pole no matter where it sits.
  T = iTan(Interval::fromEndpoints(100.0, 104.0));
  EXPECT_EQ(T.lo(), -Inf);
  EXPECT_EQ(T.hi(), Inf);
  // The closest double to pi/2 is still on the left of the pole; tan
  // there is ~1.6e16 and the enclosure must reach it (or be entire if
  // the section is ambiguous).
  double NearPiHalf = 1.5707963267948966;
  Interval P = iTan(Interval::fromPoint(NearPiHalf));
  long double Ref = refLd([](long double V) { return tanl(V); }, NearPiHalf);
  EXPECT_GE(static_cast<long double>(P.hi()), Ref);
  EXPECT_LE(static_cast<long double>(P.lo()), Ref);
}

TEST_F(ElemTest, AsinAcosJustOutsideUnitDomain) {
  // One ulp outside [-1, 1] is already fully invalid.
  double Above = std::nextafter(1.0, 2.0);
  double Below = std::nextafter(-1.0, -2.0);
  EXPECT_TRUE(iAsin(Interval::fromPoint(Above)).hasNaN());
  EXPECT_TRUE(iAsin(Interval::fromPoint(Below)).hasNaN());
  EXPECT_TRUE(iAcos(Interval::fromPoint(Above)).hasNaN());
  EXPECT_TRUE(iAcos(Interval::fromPoint(Below)).hasNaN());
  // Straddling the upper edge by one ulp: NaN on the invalid side, a
  // sound bound on the valid side (cf. AsinAcosDomainEdges).
  double JustIn = std::nextafter(1.0, 0.0);
  Interval S = iAsin(Interval::fromEndpoints(JustIn, Above));
  EXPECT_TRUE(S.hasNaN());
  if (!std::isnan(S.NegLo)) {
    long double Ref =
        refLd([](long double V) { return asinl(V); }, JustIn);
    EXPECT_LE(static_cast<long double>(S.lo()), Ref);
  }
  Interval C = iAcos(Interval::fromEndpoints(Below, std::nextafter(-1.0, 0.0)));
  EXPECT_TRUE(C.hasNaN());
  if (!std::isnan(C.Hi)) {
    EXPECT_GE(C.hi(), 3.1415926535897931); // acos(-1) rounds to pi
  }
}

TEST_F(ElemTest, SinCosAtArgumentReductionCutoff) {
  // sectionRange is only consulted for |x| <= 2^45; straddle that
  // boundary from both sides. Everything must stay sound against the
  // long double reference and inside [-1, 1].
  const double Cut = 0x1p45;
  const double Probes[] = {Cut,
                           -Cut,
                           std::nextafter(Cut, 0.0),
                           std::nextafter(Cut, 1e300),
                           std::nextafter(-Cut, 0.0),
                           std::nextafter(-Cut, -1e300)};
  for (double X : Probes) {
    Interval S = iSin(Interval::fromPoint(X));
    Interval C = iCos(Interval::fromPoint(X));
    long double RefS = refLd([](long double V) { return sinl(V); }, X);
    long double RefC = refLd([](long double V) { return cosl(V); }, X);
    EXPECT_GE(static_cast<long double>(S.hi()), RefS) << X;
    EXPECT_LE(static_cast<long double>(S.lo()), RefS) << X;
    EXPECT_GE(static_cast<long double>(C.hi()), RefC) << X;
    EXPECT_LE(static_cast<long double>(C.lo()), RefC) << X;
    EXPECT_LE(S.hi(), 1.0);
    EXPECT_GE(S.lo(), -1.0);
    EXPECT_LE(C.hi(), 1.0);
    EXPECT_GE(C.lo(), -1.0);
  }
  // Above the cutoff the implementation gives up: exactly [-1, 1].
  Interval Wide = iSin(Interval::fromPoint(std::nextafter(Cut, 1e300)));
  EXPECT_EQ(Wide.lo(), -1.0);
  EXPECT_EQ(Wide.hi(), 1.0);
}

TEST_F(ElemTest, AtanMonotoneEndpoints) {
  Interval A = iAtan(Interval::fromEndpoints(-2.0, 3.0));
  long double RefLo = refLd([](long double V) { return atanl(V); }, -2.0);
  long double RefHi = refLd([](long double V) { return atanl(V); }, 3.0);
  EXPECT_LE(static_cast<long double>(A.lo()), RefLo);
  EXPECT_GE(static_cast<long double>(A.hi()), RefHi);
  EXPECT_TRUE(iAtan(Interval::nan()).hasNaN());
}
