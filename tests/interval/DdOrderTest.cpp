//===- DdOrderTest.cpp - Double-double order: hull, min, max, cmp ---------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// ddOrder owns every double-double comparison. These tests check the ops
// built on it -- hull, min, max, the four comparisons and contains --
// against the exact expansion oracle (never against contains), over
// endpoints in every representation: the RU form the runtime produces,
// the round-to-nearest form other code hands in (low word of either
// sign), and unnormalized pairs. Each op runs on the scalar backend and
// through the ia_*_dd entry points on the AVX register type.
//
//===----------------------------------------------------------------------===//

#include "interval/DdInterval.h"
#include "interval/DdSimd.h"
#include "interval/igen_lib.h"

#include "TestHelpers.h"

#include <cstring>

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;

namespace {

/// Exact X <= Y and X < Y (expansion oracle).
bool exactLe(const Dd &X, const Dd &Y) {
  return test::ddGeExact(Y, test::exactDdSum(X, Dd(0.0)));
}
bool exactLt(const Dd &X, const Dd &Y) { return !exactLe(Y, X); }

DdInterval toScalar(ddi X) { return igen_detail::ddiToScalar(X); }
ddi toDdi(const DdInterval &X) { return igen_detail::ddiFromScalar(X); }

bool sameBits(const DdInterval &A, const DdInterval &B) {
  return std::memcmp(&A, &B, sizeof(DdInterval)) == 0;
}

} // namespace

// 1 + 2^-60 in RU form against 1 + 2^-54 in round-to-nearest form, a
// pair the lexicographic order of (H, L) ranks the wrong way round: hull
// and max must keep an upper endpoint of at least 1 + 2^-54, min a lower
// endpoint of at most 1 + 2^-60, and no comparison may deny X < Y.
TEST(DdOrder, NearestFormEndpointsThroughEntryPoints) {
  RoundUpwardScope Up;
  const Dd A(1.0 + 0x1p-52, -0x1p-52 + 0x1p-60), B(1.0, 0x1p-54);
  ASSERT_TRUE(exactLt(A, B));
  ddi X = ia_set_ddc(A.H, A.L, A.H, A.L);
  ddi Y = ia_set_ddc(B.H, B.L, B.H, B.L);

  for (ddi J : {ia_join_dd(X, Y), ia_join_dd(Y, X)}) {
    EXPECT_TRUE(exactLe(B, toScalar(J).Hi));
    EXPECT_TRUE(exactLe(toScalar(J).lo(), A));
  }
  for (ddi M : {ia_max_dd(X, Y), ia_max_dd(Y, X)}) {
    EXPECT_TRUE(exactLe(B, toScalar(M).Hi)); // max = B
    EXPECT_TRUE(exactLe(toScalar(M).lo(), B));
  }
  for (ddi M : {ia_min_dd(X, Y), ia_min_dd(Y, X)}) {
    EXPECT_TRUE(exactLe(toScalar(M).lo(), A)); // min = A
    EXPECT_TRUE(exactLe(A, toScalar(M).Hi));
  }
  // X < Y holds: no comparison may deny it.
  EXPECT_NE(ia_cmplt_dd(X, Y), TBool::False);
  EXPECT_NE(ia_cmple_dd(X, Y), TBool::False);
  EXPECT_NE(ia_cmpgt_dd(Y, X), TBool::False);
  EXPECT_NE(ia_cmpge_dd(Y, X), TBool::False);
  EXPECT_NE(ia_cmpgt_dd(X, Y), TBool::True);
  EXPECT_NE(ia_cmpge_dd(X, Y), TBool::True);
}

namespace {

enum RepClass { RuForm, NearestForm, Unnormalized, NumRepClasses };

class DdOrderSweep : public ::testing::Test {
protected:
  RoundUpwardScope Up;
  Rng R{0xd0de};

  /// One endpoint with high word \p H in the RU form (H = RU(H + L), a
  /// nonpositive low word) or the round-to-nearest form (a low word of
  /// either sign within about half an ulp).
  Dd endpoint(double H, int Class) {
    double Ulp = nextUp(std::fabs(H)) - std::fabs(H);
    double Frac = std::ldexp(R.uniform(0.0, 1.0), -R.intIn(0, 12));
    if (Class == NearestForm)
      return Dd(H, (R.intIn(0, 1) ? 0.5 : -0.5) * Ulp * Frac);
    double L = -Ulp * Frac;
    return Dd(H, H + L == H ? L : 0.0); // RU(H + L) == H
  }

  /// An interval of class \p Class whose endpoints lie within a few ulps
  /// of \p H0, so that endpoints of two intervals often share one ulp.
  DdInterval classInterval(int Class, double H0) {
    if (Class == Unnormalized)
      return test::unnormalizedInterval(R);
    Dd A = endpoint(addUlps(H0, R.intIn(-2, 2)), Class);
    Dd B = endpoint(addUlps(H0, R.intIn(-2, 2)), Class);
    if (exactLt(B, A))
      std::swap(A, B);
    return DdInterval::fromEndpoints(A, B);
  }

  /// A center near every class: moderate, or a few denormal steps (where
  /// the unnormalized class lives).
  double center() {
    if (R.intIn(0, 2) == 0)
      return R.intIn(-64, 64) * std::numeric_limits<double>::denorm_min();
    return R.moderateDouble();
  }
};

/// Checks hull, min, max, the comparisons and contains of \p X and \p Y
/// against the exact oracle. \p Hull, \p Min and \p Max are the results
/// of one backend.
void expectSound(const DdInterval &X, const DdInterval &Y,
                 const DdInterval &Hull, const DdInterval &Min,
                 const DdInterval &Max, TBool LT, TBool LE, TBool GT,
                 TBool GE) {
  const Dd XL = X.lo(), XH = X.Hi, YL = Y.lo(), YH = Y.Hi;
  // hull contains both; min = [min lo, min hi]; max = [max lo, max hi].
  EXPECT_TRUE(exactLe(Hull.lo(), XL) && exactLe(Hull.lo(), YL));
  EXPECT_TRUE(exactLe(XH, Hull.Hi) && exactLe(YH, Hull.Hi));
  EXPECT_TRUE(exactLe(Min.lo(), XL) && exactLe(Min.lo(), YL));
  EXPECT_TRUE(exactLe(XH, Min.Hi) || exactLe(YH, Min.Hi));
  EXPECT_TRUE(exactLe(Max.lo(), XL) || exactLe(Max.lo(), YL));
  EXPECT_TRUE(exactLe(XH, Max.Hi) && exactLe(YH, Max.Hi));
  // A decided comparison must hold for every pair of points.
  if (LT == TBool::True) {
    EXPECT_TRUE(exactLt(XH, YL));
  }
  if (LT == TBool::False) {
    EXPECT_TRUE(exactLe(YH, XL));
  }
  if (LE == TBool::True) {
    EXPECT_TRUE(exactLe(XH, YL));
  }
  if (LE == TBool::False) {
    EXPECT_TRUE(exactLt(YH, XL));
  }
  if (GT == TBool::True) {
    EXPECT_TRUE(exactLt(YH, XL));
  }
  if (GT == TBool::False) {
    EXPECT_TRUE(exactLe(XH, YL));
  }
  if (GE == TBool::True) {
    EXPECT_TRUE(exactLe(YH, XL));
  }
  if (GE == TBool::False) {
    EXPECT_TRUE(exactLt(XH, YL));
  }
  // contains claims only points between the endpoints.
  for (const Dd &P : {XL, XH, YL, YH}) {
    if (X.contains(P)) {
      EXPECT_TRUE(exactLe(XL, P) && exactLe(P, XH));
    }
  }
}

} // namespace

TEST_F(DdOrderSweep, EveryPairOfRepresentationClasses) {
  for (int CX = 0; CX < NumRepClasses; ++CX)
    for (int CY = 0; CY < NumRepClasses; ++CY)
      for (int I = 0; I < 1000; ++I) {
        SCOPED_TRACE(testing::Message() << CX << " x " << CY << " @" << I);
        double H0 = center();
        DdInterval X = classInterval(CX, H0), Y = classInterval(CY, H0);
        // Scalar backend.
        DdInterval Hull = ddiHull(X, Y), Min = ddiMin(X, Y),
                   Max = ddiMax(X, Y);
        expectSound(X, Y, Hull, Min, Max, ddiCmpLT(X, Y), ddiCmpLE(X, Y),
                    ddiCmpGT(X, Y), ddiCmpGE(X, Y));
        // The entry points on the AVX register type: the same bits.
        ddi VX = toDdi(X), VY = toDdi(Y);
        EXPECT_TRUE(sameBits(toScalar(ia_join_dd(VX, VY)), Hull));
        EXPECT_TRUE(sameBits(toScalar(ia_min_dd(VX, VY)), Min));
        EXPECT_TRUE(sameBits(toScalar(ia_max_dd(VX, VY)), Max));
        EXPECT_EQ(ia_cmplt_dd(VX, VY), ddiCmpLT(X, Y));
        EXPECT_EQ(ia_cmple_dd(VX, VY), ddiCmpLE(X, Y));
        EXPECT_EQ(ia_cmpgt_dd(VX, VY), ddiCmpGT(X, Y));
        EXPECT_EQ(ia_cmpge_dd(VX, VY), ddiCmpGE(X, Y));
        // An RU-form interval contains its own endpoints. (Elsewhere
        // contains may answer false: proving lo <= hi inside one ulp can
        // fail.)
        if (CX == RuForm) {
          EXPECT_TRUE(X.contains(X.lo()) && X.contains(X.Hi));
        }
      }
}

TEST_F(DdOrderSweep, RuFormOrderIsDecided) {
  // On the runtime's own RU form the primitive never falls back: it
  // decides every pair, as the lexicographic order did.
  for (int I = 0; I < 20000; ++I) {
    double H0 = center();
    Dd A = endpoint(addUlps(H0, R.intIn(-1, 1)), RuForm);
    Dd B = endpoint(addUlps(H0, R.intIn(-1, 1)), RuForm);
    const unsigned O = ddOrder(A, B);
    ASSERT_NE(O, DdUnordered) << A.H << " " << A.L << " " << B.H << " "
                              << B.L;
    EXPECT_EQ(O == DdBelow, exactLt(A, B));
    EXPECT_EQ(!(O & DdAbove), exactLe(A, B));
  }
}
