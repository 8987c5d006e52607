//===- DdIntervalTest.cpp - Scalar double-double interval tests ------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "interval/DdInterval.h"
#include "interval/igen_lib.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;
using igen::test::containsQuad;
using igen::test::toQuad;

namespace {

class DdiTest : public ::testing::Test {
protected:
  RoundUpwardScope Up;
  Rng R{21};

  /// A random dd interval [c - d, c + u] with tiny dd-scale slack.
  DdInterval randInterval() {
    Dd C = R.dd();
    Dd Lo = C, Hi = C;
    Lo.L = addUlps(Lo.L, -R.intIn(0, 8));
    Hi.L = addUlps(Hi.L, R.intIn(0, 8));
    if (toQuad(Hi) < toQuad(Lo))
      std::swap(Lo, Hi);
    return DdInterval::fromEndpoints(Lo, Hi);
  }
};

} // namespace

TEST_F(DdiTest, ConstructionAndContains) {
  DdInterval I = DdInterval::fromPoint(1.5);
  EXPECT_TRUE(I.contains(1.5));
  EXPECT_FALSE(I.contains(nextUp(1.5)));
  EXPECT_FALSE(I.contains(nextDown(1.5)));
  DdInterval W = DdInterval::fromEndpoints(Dd(1.0), Dd(2.0));
  EXPECT_TRUE(W.contains(1.9999999999));
  EXPECT_FALSE(W.contains(2.0000000001));
}

TEST_F(DdiTest, AddContainsExact) {
  for (int I = 0; I < 10000; ++I) {
    DdInterval A = randInterval(), B = randInterval();
    DdInterval S = ddiAdd(A, B);
    EXPECT_TRUE(test::containsExact(
        S, test::exactDdSum(ddNeg(A.NegLo), ddNeg(B.NegLo))));
    EXPECT_TRUE(test::containsExact(S, test::exactDdSum(A.Hi, B.Hi)));
  }
}

TEST_F(DdiTest, MulContainsExactProducts) {
  for (int I = 0; I < 10000; ++I) {
    DdInterval A = randInterval(), B = randInterval();
    DdInterval P = ddiMul(A, B);
    // Products of all endpoint combinations must be inside.
    __float128 Cands[4] = {
        -toQuad(A.NegLo) * -toQuad(B.NegLo),
        -toQuad(A.NegLo) * toQuad(B.Hi),
        toQuad(A.Hi) * -toQuad(B.NegLo),
        toQuad(A.Hi) * toQuad(B.Hi),
    };
    for (__float128 C : Cands)
      EXPECT_TRUE(containsQuad(P, C));
  }
}

TEST_F(DdiTest, MulSignCases) {
  auto Mk = [](double Lo, double Hi) {
    return DdInterval::fromEndpoints(Dd(Lo), Dd(Hi));
  };
  DdInterval R1 = ddiMul(Mk(2, 3), Mk(4, 5));
  EXPECT_EQ(R1.lo().H, 8.0);
  EXPECT_EQ(R1.hi().H, 15.0);
  DdInterval R2 = ddiMul(Mk(-3, -2), Mk(4, 5));
  EXPECT_EQ(R2.lo().H, -15.0);
  EXPECT_EQ(R2.hi().H, -8.0);
  DdInterval R3 = ddiMul(Mk(-2, 3), Mk(-4, 5));
  EXPECT_EQ(R3.lo().H, -12.0);
  EXPECT_EQ(R3.hi().H, 15.0);
}

TEST_F(DdiTest, DivContainsExactQuotients) {
  for (int I = 0; I < 10000; ++I) {
    DdInterval A = randInterval(), B = randInterval();
    // Skip divisors containing zero (degenerate analysis tested below).
    if (-toQuad(B.NegLo) <= 0 && toQuad(B.Hi) >= 0)
      continue;
    DdInterval Q = ddiDiv(A, B);
    __float128 Cands[4] = {
        -toQuad(A.NegLo) / -toQuad(B.NegLo),
        -toQuad(A.NegLo) / toQuad(B.Hi),
        toQuad(A.Hi) / -toQuad(B.NegLo),
        toQuad(A.Hi) / toQuad(B.Hi),
    };
    for (__float128 C : Cands)
      EXPECT_TRUE(containsQuad(Q, C));
  }
}

TEST_F(DdiTest, DivByZeroContaining) {
  auto Mk = [](double Lo, double Hi) {
    return DdInterval::fromEndpoints(Dd(Lo), Dd(Hi));
  };
  DdInterval Q = ddiDiv(Mk(1, 2), Mk(-1, 1));
  Interval H = Q.outerHull();
  EXPECT_EQ(H.lo(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(H.hi(), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(ddiDiv(Mk(-1, 1), Mk(-1, 1)).hasNaN());
}

TEST_F(DdiTest, DivNegativeDivisorMirrors) {
  auto Mk = [](double Lo, double Hi) {
    return DdInterval::fromEndpoints(Dd(Lo), Dd(Hi));
  };
  DdInterval Q = ddiDiv(Mk(1, 2), Mk(-4, -2));
  EXPECT_TRUE(Q.contains(-0.5));
  EXPECT_TRUE(Q.contains(-0.25));
  EXPECT_FALSE(Q.contains(-1.01));
  EXPECT_FALSE(Q.contains(-0.24));
}

TEST_F(DdiTest, DivUnnormalizedDivisorContainingZero) {
  // lo = (34, -43) denormal steps is -9 steps although its high word is
  // positive: the divisor [lo, 1] contains zero.
  double U = std::numeric_limits<double>::denorm_min();
  DdInterval Y = DdInterval::fromEndpoints(Dd(34 * U, -43 * U), Dd(1.0));
  Interval H = ddiDiv(DdInterval::fromPoint(1.0), Y).outerHull();
  EXPECT_EQ(H.lo(), -std::numeric_limits<double>::infinity());
  EXPECT_EQ(H.hi(), std::numeric_limits<double>::infinity());
}

TEST_F(DdiTest, DivSubnormalDividendContainsExactQuotient) {
  // k denormal steps over small divisors: ddDivUp's residual is off by
  // about one step, as large as the dividend itself.
  double U = std::numeric_limits<double>::denorm_min();
  for (int K = 1; K <= 64; ++K)
    for (double Y : {6.28e-162, 1e-160, 3.3e-170, 1e-155, 0.5}) {
      DdInterval Q = ddiDiv(DdInterval::fromPoint(K * U),
                            DdInterval::fromPoint(Y));
      // lo(Q) * Y <= K U <= hi(Q) * Y, exactly.
      EXPECT_TRUE(test::ddLeExact(Dd(K * U),
                                  test::exactDdProduct(Q.Hi, Dd(Y))))
          << K << " " << Y;
      EXPECT_TRUE(test::ddGeExact(
          Dd(K * U), test::exactDdProduct(ddNeg(Q.NegLo), Dd(Y))))
          << K << " " << Y;
    }
}

TEST_F(DdiTest, DivUnnormalizedOperandsContainExactQuotients) {
  // The unnormalized class as divisor against random, unnormalized and
  // point dividends, and as dividend over random divisors.
  // Exact in quad: the endpoints are small multiples of the smallest
  // denormal or normalized dd values.
  auto Lo = [](const DdInterval &Y) { return -toQuad(Y.NegLo); };
  auto Hi = [](const DdInterval &Y) { return toQuad(Y.Hi); };
  for (int I = 0; I < 3000; ++I) {
    DdInterval A, B;
    switch (I % 4) {
    case 0:
      A = randInterval(), B = test::unnormalizedInterval(R);
      break;
    case 1:
      A = test::unnormalizedInterval(R), B = test::unnormalizedInterval(R);
      break;
    case 2:
      A = DdInterval::fromPoint(R.intIn(0, 1) ? 1.0 : -1.0);
      B = test::unnormalizedInterval(R);
      break;
    default:
      A = test::unnormalizedInterval(R), B = randInterval();
      break;
    }
    DdInterval Q = ddiDiv(A, B);
    if (Lo(B) < 0 && Hi(B) > 0) {
      // Quotients of either sign and any size (or NaN for 0/0).
      Interval H = Q.outerHull();
      EXPECT_TRUE(Q.hasNaN() ||
                  (H.lo() == -std::numeric_limits<double>::infinity() &&
                   H.hi() == std::numeric_limits<double>::infinity()))
          << I;
      continue;
    }
    // Quotients of every nonzero divisor endpoint.
    for (__float128 D : {Lo(B), Hi(B)}) {
      if (D == 0)
        continue;
      EXPECT_TRUE(containsQuad(Q, Lo(A) / D)) << I;
      EXPECT_TRUE(containsQuad(Q, Hi(A) / D)) << I;
    }
  }
}

namespace {

DdInterval absDd(const DdInterval &X) {
  return igen_detail::ddiToScalar(ia_abs_dd(igen_detail::ddiFromScalar(X)));
}
DdInterval sqrtDd(const DdInterval &X) {
  return igen_detail::ddiToScalar(ia_sqrt_dd(igen_detail::ddiFromScalar(X)));
}

/// The exact sign of Z * Z - V.
int squareMinus(const Dd &Z, const Dd &V) {
  Expansion E = test::exactDdProduct(Z, Z);
  RoundNearestScope RN;
  E.add(-V.H);
  E.add(-V.L);
  return E.sign();
}

/// sqrt(X) contains the root of every nonnegative endpoint of X; a
/// negative lower endpoint yields a NaN lower endpoint, a negative upper
/// one a NaN result.
void expectSqrtContainsRoots(const DdInterval &X, const DdInterval &S) {
  const Dd Lo = ddNeg(X.NegLo), Hi = X.Hi;
  if (toQuad(Hi) < 0) {
    EXPECT_TRUE(S.hasNaN());
    return;
  }
  ASSERT_FALSE(std::isnan(S.Hi.H));
  EXPECT_GE(toQuad(S.Hi), 0);
  EXPECT_GE(squareMinus(S.Hi, Hi), 0) // hi(S)^2 >= hi
      << "hi=(" << Hi.H << ", " << Hi.L << ") root=(" << S.Hi.H << ", "
      << S.Hi.L << ")";
  EXPECT_GE(squareMinus(S.Hi, Lo), 0);
  if (toQuad(Lo) < 0) {
    EXPECT_TRUE(std::isnan(S.NegLo.H));
    return;
  }
  const Dd SLo = ddNeg(S.NegLo);
  EXPECT_GE(toQuad(SLo), 0);
  EXPECT_LE(squareMinus(SLo, Lo), 0) // lo(S)^2 <= lo
      << "lo=(" << Lo.H << ", " << Lo.L << ") root=(" << SLo.H << ", "
      << SLo.L << ")";
}

} // namespace

TEST_F(DdiTest, AbsAndSqrtReadUnnormalizedSignsExactly) {
  // In denormal steps U: [-9, 5] with lo stored (H, L) = (-34, +43)
  // (NegLo = 9 behind a negative high word), and [1, 9] with hi stored
  // (-34, +43). Reading the high word's sign, abs returned [-9, 5]
  // itself and sqrt returned NaN.
  double U = std::numeric_limits<double>::denorm_min();
  DdInterval X(Dd(-34 * U, 43 * U), Dd(5 * U));
  DdInterval A = absDd(X);
  EXPECT_TRUE(containsQuad(A, toQuad(Dd(9 * U))));
  EXPECT_TRUE(containsQuad(A, toQuad(Dd(5 * U))));
  DdInterval Y(Dd(-U), Dd(-34 * U, 43 * U));
  DdInterval S = sqrtDd(Y);
  EXPECT_FALSE(S.hasNaN());
  expectSqrtContainsRoots(Y, S);

  // The whole unnormalized class, and its absolute value under sqrt.
  for (int I = 0; I < 3000; ++I) {
    SCOPED_TRACE(I);
    DdInterval V = test::unnormalizedInterval(R);
    DdInterval Abs = absDd(V);
    for (__float128 E : {toQuad(V.NegLo), toQuad(V.Hi)})
      EXPECT_TRUE(containsQuad(Abs, E < 0 ? -E : E));
    expectSqrtContainsRoots(V, sqrtDd(V));
    expectSqrtContainsRoots(Abs, sqrtDd(Abs));
  }
  // Normalized intervals keep their dd-accurate roots.
  for (int I = 0; I < 3000; ++I) {
    SCOPED_TRACE(I);
    DdInterval V = randInterval();
    expectSqrtContainsRoots(V, sqrtDd(V));
    expectSqrtContainsRoots(absDd(V), sqrtDd(absDd(V)));
  }
}

TEST_F(DdiTest, SubAndNeg) {
  for (int I = 0; I < 5000; ++I) {
    DdInterval A = randInterval(), B = randInterval();
    DdInterval D = ddiSub(A, B);
    // hi(A) - lo(B) == A.Hi + B.NegLo, exactly representable as expansion.
    EXPECT_TRUE(test::containsExact(D, test::exactDdSum(A.Hi, B.NegLo)));
    DdInterval N = ddiNeg(A);
    EXPECT_TRUE(
        test::containsExact(N, test::exactDdSum(ddNeg(A.Hi), Dd(0.0))));
  }
}

TEST_F(DdiTest, Comparisons) {
  auto Mk = [](double Lo, double Hi) {
    return DdInterval::fromEndpoints(Dd(Lo), Dd(Hi));
  };
  EXPECT_EQ(ddiCmpLT(Mk(0, 1), Mk(2, 3)), TBool::True);
  EXPECT_EQ(ddiCmpLT(Mk(2, 3), Mk(0, 1)), TBool::False);
  EXPECT_EQ(ddiCmpLT(Mk(0, 2), Mk(1, 3)), TBool::Unknown);
  EXPECT_EQ(ddiCmpGT(Mk(2, 3), Mk(0, 1)), TBool::True);
  // Distinguishes differences below double precision.
  DdInterval A = DdInterval::fromPoint(Dd(1.0, 0.0));
  DdInterval B = DdInterval::fromPoint(Dd(1.0, 1e-25));
  EXPECT_EQ(ddiCmpLT(A, B), TBool::True);
}

TEST_F(DdiTest, NanPropagation) {
  DdInterval N = DdInterval::nan();
  DdInterval A = DdInterval::fromPoint(1.0);
  EXPECT_TRUE(ddiAdd(N, A).hasNaN());
  EXPECT_TRUE(ddiMul(N, A).hasNaN());
  EXPECT_TRUE(ddiDiv(N, A).hasNaN());
  EXPECT_EQ(ddiCmpLT(N, A), TBool::Unknown);
}

TEST_F(DdiTest, OuterHull) {
  DdInterval X = DdInterval::fromEndpoints(Dd(1.0, 1e-20), Dd(2.0, -1e-20));
  Interval H = X.outerHull();
  EXPECT_LE(H.lo(), 1.0 + 1e-20);
  EXPECT_GE(H.hi(), 2.0 - 1e-20);
  EXPECT_LE(ulpDistance(H.lo(), 1.0), 1u);
}
