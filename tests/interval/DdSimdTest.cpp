//===- DdSimdTest.cpp - AVX double-double interval tests --------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "interval/DdSimd.h"

#include "TestHelpers.h"

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;
using igen::test::containsQuad;
using igen::test::toQuad;

namespace {

class DdAvxTest : public ::testing::Test {
protected:
  RoundUpwardScope Up;
  Rng R{51};

  DdInterval randInterval() {
    Dd C = R.dd();
    Dd Lo = C, Hi = C;
    Lo.L = addUlps(Lo.L, -R.intIn(0, 8));
    Hi.L = addUlps(Hi.L, R.intIn(0, 8));
    if (toQuad(Hi) < toQuad(Lo))
      std::swap(Lo, Hi);
    return DdInterval::fromEndpoints(Lo, Hi);
  }

  static bool sameDd(const Dd &A, const Dd &B) {
    return A.H == B.H && A.L == B.L;
  }
  static bool sameInterval(const DdInterval &A, const DdInterval &B) {
    return sameDd(A.NegLo, B.NegLo) && sameDd(A.Hi, B.Hi);
  }
  /// Bit-pattern equality: also tells +0.0 from -0.0.
  static bool sameBits(const DdInterval &A, const DdInterval &B) {
    return std::memcmp(&A, &B, sizeof(DdInterval)) == 0;
  }

  /// The multiply tests' inputs: random intervals, every ordered pair of
  /// sign classes, then straddling pairs with shared-ulp candidates.
  std::vector<std::pair<DdInterval, DdInterval>> mulInputs() {
    std::vector<std::pair<DdInterval, DdInterval>> In;
    for (int I = 0; I < 10000; ++I) {
      DdInterval A = randInterval();
      In.emplace_back(A, randInterval());
    }
    for (int CA = 0; CA < test::NumDdSignClasses; ++CA)
      for (int CB = 0; CB < test::NumDdSignClasses; ++CB)
        for (int I = 0; I < 200; ++I) {
          DdInterval A = test::ddClassInterval(R, CA);
          In.emplace_back(A, test::ddClassInterval(R, CB));
        }
    for (int I = 0; I < 400; ++I) {
      auto [X, Y] = test::sharedUlpStraddle(R, I);
      In.emplace_back(X, Y);
      In.emplace_back(Y, X);
    }
    return In;
  }
};

/// The eight-candidate multiply that the sign-case selection replaced:
/// every corner product rounded up in both directions, then two 4-way
/// dd maxima, or the double hull if a candidate overflowed to NaN.
/// Reference only; the sign-case result must lie within it.
DdInterval eightCandidateMul(const DdInterval &X, const DdInterval &Y) {
  const Dd &Xn = X.NegLo, &Xh = X.Hi, &Yn = Y.NegLo, &Yh = Y.Hi;
  Dd N[4] = {ddMulUp(ddNeg(Xn), Yn), ddMulUp(Xn, Yh), ddMulUp(Xh, Yn),
             ddMulUp(ddNeg(Xh), Yh)};
  Dd H[4] = {ddMulUp(Xn, Yn), ddMulUp(ddNeg(Xn), Yh),
             ddMulUp(Xh, ddNeg(Yn)), ddMulUp(Xh, Yh)};
  for (int I = 0; I < 4; ++I)
    if (N[I].hasNaN() || H[I].hasNaN())
      return detail::ddiFromOuter(iMul(X.outerHull(), Y.outerHull()));
  return DdInterval(ddMax(ddMax(N[0], N[1]), ddMax(N[2], N[3])),
                    ddMax(ddMax(H[0], H[1]), ddMax(H[2], H[3])));
}

} // namespace

TEST_F(DdAvxTest, RoundTripLayout) {
  DdInterval I = DdInterval::fromEndpoints(Dd(1.0, 1e-17), Dd(2.0, -2e-17));
  DdIntervalAvx V = DdIntervalAvx::fromScalar(I);
  EXPECT_TRUE(sameInterval(V.toScalar(), I));
}

TEST_F(DdAvxTest, AddMatchesScalarBitwise) {
  // The vectorized DD_Add performs the identical operation sequence to the
  // scalar Fig. 6 algorithm, so results must agree bit for bit.
  for (int I = 0; I < 10000; ++I) {
    DdInterval A = randInterval(), B = randInterval();
    DdInterval Ref = ddiAdd(A, B);
    DdInterval Got =
        ddiAdd(DdIntervalAvx::fromScalar(A), DdIntervalAvx::fromScalar(B))
            .toScalar();
    EXPECT_TRUE(sameInterval(Got, Ref));
  }
}

TEST_F(DdAvxTest, AddSoundAgainstQuad) {
  for (int I = 0; I < 10000; ++I) {
    DdInterval A = randInterval(), B = randInterval();
    DdInterval S =
        ddiAdd(DdIntervalAvx::fromScalar(A), DdIntervalAvx::fromScalar(B))
            .toScalar();
    EXPECT_TRUE(containsQuad(S, toQuad(A.Hi) + toQuad(B.Hi)));
    EXPECT_TRUE(
        containsQuad(S, -toQuad(A.NegLo) + -toQuad(B.NegLo)));
  }
}

TEST_F(DdAvxTest, MulSoundAgainstQuad) {
  for (const auto &[A, B] : mulInputs()) {
    DdInterval P =
        ddiMul(DdIntervalAvx::fromScalar(A), DdIntervalAvx::fromScalar(B))
            .toScalar();
    // NaN endpoints would contain everything; an overflowed product must
    // come back as an infinite endpoint instead.
    EXPECT_FALSE(P.hasNaN());
    __float128 Cands[4] = {
        -toQuad(A.NegLo) * -toQuad(B.NegLo),
        -toQuad(A.NegLo) * toQuad(B.Hi),
        toQuad(A.Hi) * -toQuad(B.NegLo),
        toQuad(A.Hi) * toQuad(B.Hi),
    };
    for (__float128 C : Cands)
      EXPECT_TRUE(containsQuad(P, C))
          << A.NegLo.H << " " << A.Hi.H << " * " << B.NegLo.H << " "
          << B.Hi.H;
  }
}

TEST_F(DdAvxTest, MulMatchesScalar) {
  // The AVX path forms the scalar path's products from the same
  // operands: bitwise equal, zero signs included. Both select a subset
  // of the eight candidates, so they lie within the eight-candidate
  // result.
  for (const auto &[A, B] : mulInputs()) {
    DdInterval Ref = ddiMul(A, B);
    DdInterval Got =
        ddiMul(DdIntervalAvx::fromScalar(A), DdIntervalAvx::fromScalar(B))
            .toScalar();
    EXPECT_TRUE(sameBits(Got, Ref)) << A.NegLo.H << " " << A.Hi.H << " * "
                                    << B.NegLo.H << " " << B.Hi.H;
    DdInterval Wide = eightCandidateMul(A, B);
    EXPECT_TRUE(
        test::ddGeExact(Wide.NegLo, test::exactDdSum(Ref.NegLo, Dd(0.0))) &&
        test::ddGeExact(Wide.Hi, test::exactDdSum(Ref.Hi, Dd(0.0))))
        << A.NegLo.H << " " << A.Hi.H << " * " << B.NegLo.H << " "
        << B.Hi.H;
  }
}

TEST_F(DdAvxTest, MulTightness) {
  for (int I = 0; I < 3000; ++I) {
    DdInterval A = randInterval(), B = randInterval();
    DdInterval P =
        ddiMul(DdIntervalAvx::fromScalar(A), DdIntervalAvx::fromScalar(B))
            .toScalar();
    if (P.hasNaN())
      continue;
    // Relative width must stay near the input widths (no blow-up).
    double W = (P.Hi.H + P.NegLo.H) + (P.Hi.L + P.NegLo.L);
    double Mid = std::fabs(P.Hi.H) + 1e-300;
    EXPECT_LE(W / Mid, 1e-25);
  }
}

TEST_F(DdAvxTest, SpecialValuesFallBack) {
  DdInterval N = DdInterval::nan();
  DdIntervalAvx V = DdIntervalAvx::fromScalar(N);
  EXPECT_TRUE(V.hasSpecial());
  DdIntervalAvx A = DdIntervalAvx::fromPoint(1.0);
  EXPECT_FALSE(A.hasSpecial());
  EXPECT_TRUE(ddiMul(V, A).toScalar().hasNaN());
  DdIntervalAvx E = DdIntervalAvx::fromScalar(DdInterval::entire());
  EXPECT_TRUE(E.hasSpecial());
  DdInterval R = ddiMul(E, A).toScalar();
  EXPECT_TRUE(R.NegLo.isInf() && R.Hi.isInf());
}

TEST_F(DdAvxTest, DivMatchesScalarPath) {
  for (int I = 0; I < 5000; ++I) {
    DdInterval A = randInterval(), B = randInterval();
    if (-toQuad(B.NegLo) <= 0 && toQuad(B.Hi) >= 0)
      continue;
    DdInterval Ref = ddiDiv(A, B);
    DdInterval Got =
        ddiDiv(DdIntervalAvx::fromScalar(A), DdIntervalAvx::fromScalar(B))
            .toScalar();
    EXPECT_TRUE(sameInterval(Got, Ref));
  }
}

TEST_F(DdAvxTest, NegAndSub) {
  DdInterval A = randInterval();
  DdIntervalAvx V = DdIntervalAvx::fromScalar(A);
  EXPECT_TRUE(sameInterval(ddiNeg(V).toScalar(), ddiNeg(A)));
  DdInterval B = randInterval();
  EXPECT_TRUE(sameInterval(
      ddiSub(V, DdIntervalAvx::fromScalar(B)).toScalar(), ddiSub(A, B)));
}
