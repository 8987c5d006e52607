//===- DoubleDoubleTest.cpp - Directed double-double tests ------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "interval/DoubleDouble.h"

#include "TestHelpers.h"

#include "interval/Expansion.h"

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;
using igen::test::toQuad;

TEST(TwoSum, ErrorFreeInRoundToNearest) {
  Rng R(1);
  RoundNearestScope RN;
  for (int I = 0; I < 10000; ++I) {
    double A = R.finiteDouble(), B = R.finiteDouble();
    double S, E;
    twoSum(A, B, S, E);
    __float128 Exact = (__float128)A + B;
    EXPECT_EQ((__float128)S + E, Exact) << A << " + " << B;
  }
}

TEST(TwoSum, UpperBoundUnderUpwardRounding) {
  Rng R(2);
  RoundUpwardScope Up;
  for (int I = 0; I < 20000; ++I) {
    double A = R.finiteDouble(), B = R.finiteDouble();
    double S, E;
    twoSum(A, B, S, E);
    EXPECT_TRUE(test::ddGeExact(Dd(S, E),
                                test::exactDdSum(Dd(A), Dd(B))))
        << A << " + " << B;
  }
}

TEST(FastTwoSum, UpperBoundUnderUpwardRounding) {
  Rng R(3);
  RoundUpwardScope Up;
  for (int I = 0; I < 20000; ++I) {
    double A = R.finiteDouble(), B = R.finiteDouble();
    if (std::fabs(A) < std::fabs(B))
      std::swap(A, B);
    double S, E;
    fastTwoSum(A, B, S, E);
    EXPECT_TRUE(test::ddGeExact(Dd(S, E),
                                test::exactDdSum(Dd(A), Dd(B))))
        << A << " + " << B;
  }
}

TEST(TwoProd, ExactResidueAnyMode) {
  Rng R(4);
  RoundUpwardScope Up;
  for (int I = 0; I < 20000; ++I) {
    double A = R.moderateDouble(), B = R.moderateDouble();
    double P, E;
    twoProd(A, B, P, E);
    // Exact equality check via expansions (quad cannot hold P + E).
    RoundNearestScope RN;
    Expansion Diff;
    Diff.addProduct(A, B);
    Diff.add(-P);
    Diff.add(-E);
    EXPECT_TRUE(Diff.isZero()) << A << " * " << B;
  }
}

namespace {

class DdUpTest : public ::testing::Test {
protected:
  RoundUpwardScope Up;
  Rng R{5};
};

} // namespace

TEST_F(DdUpTest, AddIsUpperBound) {
  for (int I = 0; I < 20000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    Dd Z = ddAddUp(X, Y);
    // Sign-exact oracle: quad would round the reference itself.
    EXPECT_TRUE(test::ddGeExact(Z, test::exactDdSum(X, Y)));
  }
}

TEST_F(DdUpTest, AddIsTight) {
  // The upper bound must not be sloppy: within a few units of the
  // 106-bit place.
  for (int I = 0; I < 5000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    Dd Z = ddAddUp(X, Y);
    __float128 Exact = toQuad(X) + toQuad(Y);
    __float128 Err = toQuad(Z) - Exact;
    __float128 Scale = fabs((double)Exact) + 1e-300;
    EXPECT_LE((double)(Err / Scale), 0x1p-100);
  }
}

TEST_F(DdUpTest, SubIsUpperBound) {
  for (int I = 0; I < 10000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    Dd Z = ddSubUp(X, Y);
    EXPECT_TRUE(test::ddGeExact(Z, test::exactDdSum(X, ddNeg(Y))));
  }
}

TEST_F(DdUpTest, MulIsUpperBound) {
  for (int I = 0; I < 20000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    Dd Z = ddMulUp(X, Y);
    EXPECT_TRUE(test::ddGeExact(Z, test::exactDdProduct(X, Y)));
  }
}

TEST_F(DdUpTest, MulIsTight) {
  for (int I = 0; I < 5000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    Dd Z = ddMulUp(X, Y);
    __float128 Exact = toQuad(X) * toQuad(Y);
    __float128 Err = toQuad(Z) - Exact;
    __float128 Scale = fabs((double)Exact) + 1e-300;
    EXPECT_LE((double)(Err / Scale), 0x1p-98);
  }
}

TEST_F(DdUpTest, DivIsUpperBound) {
  for (int I = 0; I < 20000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    if (toQuad(Y) == 0)
      continue;
    Dd Z = ddDivUp(X, Y);
    // Z >= X/Y  <=>  sign(Z*Y - X) agrees with the sign of Y.
    int RS = ddResidualSign(Z, Y, X);
    EXPECT_TRUE(toQuad(Y) > 0 ? RS >= 0 : RS <= 0)
        << X.H << "+" << X.L << " / " << Y.H << "+" << Y.L;
  }
}

TEST_F(DdUpTest, DivIsReasonablyTight) {
  for (int I = 0; I < 5000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    if (toQuad(Y) == 0)
      continue;
    Dd Z = ddDivUp(X, Y);
    __float128 Exact = toQuad(X) / toQuad(Y);
    __float128 Err = toQuad(Z) - Exact;
    __float128 Scale = fabs((double)Exact) + 1e-300;
    // Dominated by the deliberate 2^-96 widening margin.
    EXPECT_LE((double)(Err / Scale), 0x1p-94);
  }
}

TEST_F(DdUpTest, LowerBoundViaNegation) {
  // RD(x + y) == -RU((-x) + (-y)): negation turns the upper bounds into
  // lower bounds, which is all the interval layer relies on.
  for (int I = 0; I < 10000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    Dd Z = ddNeg(ddAddUp(ddNeg(X), ddNeg(Y)));
    EXPECT_TRUE(test::ddLeExact(Z, test::exactDdSum(X, Y)));
  }
}

TEST(DdMisc, SignAndCompare) {
  RoundUpwardScope Up;
  // Signs are orders against zero, also where the high word's sign is
  // the wrong one (an unnormalized low word outweighs it).
  const Dd Zero(0.0);
  EXPECT_EQ(ddOrder(Dd(1.0, 0.0), Zero), DdAbove);
  EXPECT_EQ(ddOrder(Dd(-1.0, 0.0), Zero), DdBelow);
  EXPECT_EQ(ddOrder(Dd(0.0, 0.0), Zero), DdEqual);
  EXPECT_EQ(ddOrder(Dd(-0.0, -0.0), Zero), DdEqual);
  EXPECT_EQ(ddOrder(Dd(0.0, -1e-300), Zero), DdBelow);
  EXPECT_EQ(ddOrder(Dd(-0x1p-1074, 0x1p-1073), Zero), DdAbove);
  EXPECT_EQ(ddOrder(Dd(1.0, -1e-20), Dd(1.0, 0.0)), DdBelow);
  EXPECT_EQ(ddOrder(Dd(1.0, 0.0), Dd(1.0, 0.0)), DdEqual);
  EXPECT_EQ(ddOrder(Dd(1.0, 0.0), Dd(2.0, 0.0)), DdBelow);
  EXPECT_EQ(ddOrder(Dd(2.0, 0.0), Dd(1.0, 0.0)), DdAbove);
  EXPECT_EQ(ddMax(Dd(1.0, 1e-20), Dd(1.0, 0.0)).L, 1e-20);
  // One value in two forms: the difference proves >= but not >.
  EXPECT_EQ(ddOrder(Dd(1.0 + 0x1p-52, -0x1p-52), Dd(1.0)),
            DdAbove | DdEqual);
  // 1 + 2^-60 in RU form against 1 + 2^-54 in round-to-nearest form:
  // lexicographically the first is larger, which the difference refutes,
  // so the order stays open and the max is the common RU bound.
  const Dd A(1.0 + 0x1p-52, -0x1p-52 + 0x1p-60), B(1.0, 0x1p-54);
  EXPECT_EQ(ddOrder(A, B), DdUnordered);
  EXPECT_EQ(ddMax(A, B).H, 1.0 + 0x1p-52);
  EXPECT_EQ(ddMax(A, B).L, 0.0);
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ddOrder(Dd(NaN), Zero), DdUnordered);
}

TEST(DdMisc, CountingOpsMatchesPaperForAdd) {
  RoundUpwardScope Up;
  CountingOps::reset();
  Dd X(1.0, 1e-17), Y(2.0, -1e-17);
  (void)ddAddUp<CountingOps>(X, Y);
  // Fig. 6: 2 TwoSum (6 flops each) + 2 FastTwoSum (3 each) + 2 adds = 20
  // per endpoint, 40 per interval addition (Table III).
  EXPECT_EQ(CountingOps::flops(), 20u);
}

TEST(DdMisc, ToDoubleUp) {
  RoundUpwardScope Up;
  Dd X(1.0, 1e-20);
  EXPECT_EQ(ddToDoubleUp(X), nextUp(1.0));
  // Nearest: rounds the exact sum H + L once in round-to-nearest.
  EXPECT_EQ(ddToDoubleNearest(X), 1.0);
  EXPECT_EQ(ddToDoubleNearest(Dd(1.0, 0x1p-53)), 1.0); // tie-to-even
  EXPECT_EQ(ddToDoubleNearest(Dd(1.0, 0x1.8p-52)), 1.0 + 2 * 0x1p-52);
  // A directed-rounding-produced pair whose H word is not the nearest:
  // value 1 - 2^-60 has nearest double 1, but H may sit above it.
  EXPECT_EQ(ddToDoubleNearest(Dd(nextUp(1.0), -0x1p-52 - 0x1p-60)),
            1.0);
}

TEST_F(DdUpTest, SqrtDirectedBounds) {
  for (int I = 0; I < 20000; ++I) {
    Dd X = R.dd();
    if (toQuad(X) <= 0)
      continue;
    Dd Up = ddSqrtUp(X);
    Dd Down = ddSqrtDown(X);
    // Up^2 >= X >= Down^2, verified sign-exactly via expansions.
    {
      igen::RoundNearestScope RN;
      Expansion EU;
      EU.addProduct(Up.H, Up.H);
      EU.addProduct(Up.H, Up.L);
      EU.addProduct(Up.L, Up.H);
      EU.addProduct(Up.L, Up.L);
      EU.add(-X.H);
      EU.add(-X.L);
      EXPECT_GE(EU.sign(), 0) << X.H;
      Expansion ED;
      ED.addProduct(Down.H, Down.H);
      ED.addProduct(Down.H, Down.L);
      ED.addProduct(Down.L, Down.H);
      ED.addProduct(Down.L, Down.L);
      ED.add(-X.H);
      ED.add(-X.L);
      EXPECT_LE(ED.sign(), 0) << X.H;
    }
    // Tightness: the two bounds agree to ~2^-94 relative.
    double Width = (Up.H - Down.H) + (Up.L - Down.L);
    EXPECT_LE(Width, std::fabs(Up.H) * 0x1p-90 + 1e-300);
  }
}

TEST(DdSqrt, EdgeCases) {
  RoundUpwardScope Up;
  EXPECT_EQ(ddSqrtUp(Dd(0.0)).H, 0.0);
  EXPECT_EQ(ddSqrtDown(Dd(0.0)).H, 0.0);
  EXPECT_TRUE(ddSqrtUp(Dd(-1.0)).hasNaN());
  Dd Four = ddSqrtUp(Dd(4.0));
  EXPECT_GE(Four.H + Four.L, 2.0);
  EXPECT_LE(Four.H, 2.0 + 1e-15);
  Dd FourD = ddSqrtDown(Dd(4.0));
  EXPECT_LE(FourD.H + FourD.L, 2.0);
}

TEST_F(DdUpTest, DivExtremeScalesStillBounded) {
  // Quotients deep in the subnormal range and near overflow: the widened
  // candidate must remain an upper bound (exact residual-sign check).
  for (int I = 0; I < 5000; ++I) {
    Dd X = R.dd(), Y = R.dd();
    if (toQuad(Y) == 0 || toQuad(X) == 0)
      continue;
    int EX = 40 * (I % 27) - 520; // scale X across ~+-2^520
    X.H = std::ldexp(X.H, EX);
    X.L = std::ldexp(X.L, EX);
    Dd Z = ddDivUp(X, Y);
    if (Z.hasNaN() || Z.isInf())
      continue; // saturated: trivially an upper bound
    int RS = ddResidualSign(Z, Y, X);
    EXPECT_TRUE(toQuad(Y) > 0 ? RS >= 0 : RS <= 0)
        << X.H << " / " << Y.H;
  }
}
