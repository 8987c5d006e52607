//===- ExpansionTest.cpp - Exact expansion arithmetic tests -----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "interval/Expansion.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace igen;
using igen::test::Rng;
using igen::test::toQuad;

TEST(Expansion, SumsExactly) {
  RoundNearestScope RN;
  Rng R(11);
  for (int I = 0; I < 2000; ++I) {
    Expansion E;
    __float128 Ref = 0;
    for (int J = 0; J < 8; ++J) {
      double X = R.moderateDouble();
      E.add(X);
      Ref += X;
    }
    // Neither the quad sum nor estimate() is correctly rounded, but they
    // must agree to within an ulp.
    EXPECT_LE(ulpDistance(std::min(E.estimate(), (double)Ref),
                          std::max(E.estimate(), (double)Ref)),
              1u);
    // The expansion's sign is exact; quad's is reliable well above its
    // 113-bit noise floor.
    if ((double)Ref > 1e-200) {
      EXPECT_EQ(E.sign(), 1);
    } else if ((double)Ref < -1e-200) {
      EXPECT_EQ(E.sign(), -1);
    }
  }
}

TEST(Expansion, CancellationToZero) {
  RoundNearestScope RN;
  Expansion E;
  E.add(0.1);
  E.add(1e300);
  E.add(-0.1);
  E.add(-1e300);
  EXPECT_TRUE(E.isZero());
  EXPECT_EQ(E.sign(), 0);
}

TEST(Expansion, TinyResidualSign) {
  RoundNearestScope RN;
  // 2^100 + 2^-100 - 2^100 == 2^-100: catastrophic cancellation is exact.
  Expansion E;
  E.add(0x1p100);
  E.add(0x1p-100);
  E.add(-0x1p100);
  EXPECT_EQ(E.sign(), 1);
  EXPECT_EQ(E.estimate(), 0x1p-100);
}

TEST(Expansion, ProductsExact) {
  RoundNearestScope RN;
  Rng R(12);
  for (int I = 0; I < 2000; ++I) {
    double A = R.moderateDouble(), B = R.moderateDouble();
    Expansion E;
    E.addProduct(A, B);
    E.addProduct(-A, B);
    EXPECT_TRUE(E.isZero());
  }
}

TEST(Expansion, ResidualSignMatchesQuad) {
  Rng R(13);
  for (int I = 0; I < 5000; ++I) {
    Dd Q, Y, X;
    {
      RoundUpwardScope Up; // R.dd() normalizes under some mode; any works
      Q = R.dd();
      Y = R.dd();
      X = R.dd();
    }
    int S = ddResidualSign(Q, Y, X);
    __float128 Ref = toQuad(Q) * toQuad(Y) - toQuad(X);
    // Quad has 113 bits; q*y needs up to 212 bits, so quad only gives a
    // reliable sign when |Ref| is not absurdly cancelled. Skip the
    // ambiguous band.
    __float128 Mag = fabs((double)(toQuad(Q) * toQuad(Y)));
    if (fabs((double)Ref) < (double)(Mag * (__float128)0x1p-105))
      continue;
    int RefSign = Ref > 0 ? 1 : (Ref < 0 ? -1 : 0);
    EXPECT_EQ(S, RefSign);
  }
}
