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

  /// Operand classes for the multiply sweep; every ordered pair of them
  /// is fed to the multiply tests.
  enum SignClass {
    LoPositive,       // lo > 0
    HiNegative,       // hi < 0
    Straddling,       // lo < 0 < hi
    ZeroPoint,        // [0, 0], zero words of either sign
    ZeroLo,           // [0, b], b > 0
    ZeroHi,           // [a, 0], a < 0
    NegZeroEnds,      // -0.0 words as endpoints: [-0, -0], [-0, b], [a, -0]
    ZeroHighWord,     // endpoints with H == 0 and a nonzero L
    OneUlpLowWord,    // [c, c + one ulp of the low word], either sign
    LowOutweighsHigh, // unnormalized: a denormal H, larger opposite L
    NumSignClasses
  };

  /// Mostly moderate; one in four in any binade from denormal to near
  /// DBL_MAX, so that products underflow (and round up to the smallest
  /// denormal) or overflow.
  Dd positiveDd() {
    Dd C = R.dd();
    if (R.intIn(0, 3) == 0) {
      RoundNearestScope RN;
      double H = std::ldexp(R.uniform(0.5, 1.0), R.intIn(-1073, 1024));
      C = Dd(H, H * std::ldexp(R.uniform(0.0, 1.0), -54));
    }
    return C.H < 0 ? ddNeg(C) : C.H > 0 ? C : Dd(1.0);
  }
  double signedZero() { return R.intIn(0, 1) ? 0.0 : -0.0; }
  Dd zeroDd() { return Dd(signedZero(), signedZero()); }
  /// A positive interval of a few low-word ulps around a random value.
  DdInterval positiveInterval() {
    Dd C = positiveDd(), Hi = C;
    Hi.L = addUlps(Hi.L, R.intIn(1, 8));
    return DdInterval::fromEndpoints(C, Hi);
  }

  DdInterval classInterval(int Class) {
    switch (Class) {
    case LoPositive:
      return positiveInterval();
    case HiNegative:
      return ddiNeg(positiveInterval());
    case Straddling:
      return DdInterval(positiveDd(), positiveDd());
    case ZeroPoint:
      return DdInterval(zeroDd(), zeroDd());
    case ZeroLo:
      return DdInterval(zeroDd(), positiveDd());
    case ZeroHi:
      return DdInterval(positiveDd(), zeroDd());
    case NegZeroEnds: {
      Dd NegZero(-0.0, -0.0);
      switch (R.intIn(0, 2)) {
      case 0:
        return DdInterval::fromEndpoints(NegZero, NegZero);
      case 1:
        return DdInterval::fromEndpoints(NegZero, positiveDd());
      default:
        return DdInterval::fromEndpoints(ddNeg(positiveDd()), NegZero);
      }
    }
    case ZeroHighWord: {
      // One endpoint (or both) has a zero high word, so the low word
      // carries its sign; the endpoints are ordered by value.
      auto ZeroHigh = [&] {
        return Dd(signedZero(), R.intIn(0, 1) ? R.moderateDouble()
                                              : R.finiteDouble());
      };
      Dd U = ZeroHigh();
      Dd V = R.intIn(0, 1) ? ZeroHigh()
             : R.intIn(0, 1) ? positiveDd()
                             : ddNeg(positiveDd());
      if (toQuad(V) < toQuad(U))
        std::swap(U, V);
      return DdInterval::fromEndpoints(U, V);
    }
    case OneUlpLowWord: {
      Dd C = R.dd(), Hi = C;
      Hi.L = nextUp(Hi.L);
      return DdInterval::fromEndpoints(C, Hi);
    }
    default: // LowOutweighsHigh
      return test::unnormalizedInterval(R);
    }
  }

  /// A straddling pair whose two candidate products per endpoint share
  /// one RU(H + L), so the straddle max must order values inside one
  /// double ulp: X = [-2^k, 2^k] and Y = [-u, v] with u and v in one ulp,
  /// one of them in round-to-nearest form (a positive low word). The
  /// first is the example X = [-1, 1], Y = [-A, B] with A = 1 + 2^-60 in
  /// RU form and B = 1 + 2^-54 in round-to-nearest form.
  std::pair<DdInterval, DdInterval> sharedUlpStraddle(int I) {
    double S = 1.0, H = 1.0, Ulp = 0x1p-52, Low = 0x1p-60, Near = 0x1p-54;
    if (I > 0) {
      RoundNearestScope RN;
      int K = R.intIn(-40, 40);
      S = std::ldexp(1.0, R.intIn(-8, 8));
      H = std::ldexp(R.uniform(1.0, 2.0), K);
      Ulp = std::ldexp(0x1p-52, K);
      Low = Ulp * std::ldexp(R.uniform(0.0, 1.0), -R.intIn(1, 20));
      Near = Ulp * R.uniform(0.0, 0.5);
    }
    Dd U(H + Ulp, -Ulp + Low), V(H, Near);
    if (I % 2)
      std::swap(U, V);
    return {DdInterval(Dd(S), Dd(S)), DdInterval(U, V)};
  }

  /// The multiply tests' inputs: random intervals, every ordered pair of
  /// sign classes, then straddling pairs with shared-ulp candidates.
  std::vector<std::pair<DdInterval, DdInterval>> mulInputs() {
    std::vector<std::pair<DdInterval, DdInterval>> In;
    for (int I = 0; I < 10000; ++I) {
      DdInterval A = randInterval();
      In.emplace_back(A, randInterval());
    }
    for (int CA = 0; CA < NumSignClasses; ++CA)
      for (int CB = 0; CB < NumSignClasses; ++CB)
        for (int I = 0; I < 200; ++I) {
          DdInterval A = classInterval(CA);
          In.emplace_back(A, classInterval(CB));
        }
    for (int I = 0; I < 400; ++I) {
      auto [X, Y] = sharedUlpStraddle(I);
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
