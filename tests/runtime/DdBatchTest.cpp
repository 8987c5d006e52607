//===- DdBatchTest.cpp - Batched double-double interval runtime tests -----===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Covers the batched ddi tier (DdBatch.h):
//  (a) ddarr_add/sub/mul/fma are bit-identical across every dispatch
//      tier on inputs of random sign with zeros, some endpoints in
//      round-to-nearest form (both tiers run the same op bodies over
//      their register backends);
//  (b) the elementwise kernels enclose the exact endpoint arithmetic,
//      checked with the expansion oracles (quad precision is not enough
//      for double-double products);
//  (c) ddarr_sum/ddarr_dot use one fixed sequential routine: bits never
//      depend on the ISA selection, and the results enclose the exact
//      corner sums;
//  (d) the dd kernel table resolves to the documented tier names.
//
//===----------------------------------------------------------------------===//

#include "runtime/DdBatch.h"

#include "../interval/TestHelpers.h"

#include <cstring>
#include <vector>

#include "gtest/gtest.h"

using namespace igen;
using namespace igen::runtime;

namespace {

std::vector<Isa> supportedIsas() {
  std::vector<Isa> Out;
  for (int I = 0; I < NumIsas; ++I)
    if (isaSupported(static_cast<Isa>(I)))
      Out.push_back(static_cast<Isa>(I));
  return Out;
}

struct IsaGuard {
  ~IsaGuard() { clearForcedIsa(); }
};

/// Random ddi values with nonzero low words: products of two widened
/// f64i intervals populate the full double-double precision.
std::vector<DdInterval> randomDdIntervals(test::Rng &R, size_t N) {
  RoundUpwardScope Up;
  std::vector<DdInterval> V(N);
  for (size_t I = 0; I < N; ++I) {
    DdInterval A = DdInterval::fromInterval(R.moderateInterval());
    DdInterval B = DdInterval::fromInterval(R.moderateInterval());
    V[I] = ddiMul(A, B);
  }
  return V;
}

/// The value of \p X in round-to-nearest form: RN(H + L) and the exact
/// rest, so about half the low words turn positive (the form other
/// double-double code hands in; the runtime's own results are RU form).
Dd nearestForm(const Dd &X) {
  RoundNearestScope RN;
  double S, E;
  twoSum(opaque(X.H), opaque(X.L), S, E);
  return Dd(opaque(S), opaque(E));
}

/// randomDdIntervals with every other element replaced by an interval
/// that touches or contains zero: straddling, [0, 0], [0, b] or [a, 0],
/// zero words of either sign. Covers both cases of the sign-selected
/// multiply. Every third element has its endpoints in round-to-nearest
/// form.
std::vector<DdInterval> signMixDdIntervals(test::Rng &R, size_t N) {
  std::vector<DdInterval> V = randomDdIntervals(R, N);
  auto Zero = [&] {
    return Dd(R.intIn(0, 1) ? 0.0 : -0.0, R.intIn(0, 1) ? 0.0 : -0.0);
  };
  for (size_t I = 0; I < N; I += 2) {
    Dd A = V[I].NegLo.H < 0 ? ddNeg(V[I].NegLo) : V[I].NegLo;
    Dd B = V[I].Hi.H < 0 ? ddNeg(V[I].Hi) : V[I].Hi;
    switch (R.intIn(0, 3)) {
    case 0:
      V[I] = DdInterval(A, B); // [-|lo|, |hi|]
      break;
    case 1:
      V[I] = DdInterval(Zero(), Zero());
      break;
    case 2:
      V[I] = DdInterval(Zero(), B);
      break;
    default:
      V[I] = DdInterval(A, Zero());
      break;
    }
  }
  for (size_t I = 0; I < N; I += 3)
    V[I] = DdInterval(nearestForm(V[I].NegLo), nearestForm(V[I].Hi));
  return V;
}

bool sameBits(const std::vector<DdInterval> &A,
              const std::vector<DdInterval> &B) {
  // An empty vector's data() may be null, which memcmp must not get.
  return A.size() == B.size() &&
         (A.empty() || std::memcmp(A.data(), B.data(),
                                   A.size() * sizeof(DdInterval)) == 0);
}

//===----------------------------------------------------------------------===//
// (a) Cross-tier bit identity
//===----------------------------------------------------------------------===//

TEST(DdBatchTest, ElementwiseKernelsBitIdenticalAcrossTiers) {
  IsaGuard Restore;
  test::Rng R(0xddb17);
  for (size_t N : {0ul, 1ul, 2ul, 3ul, 7ul, 64ul, 513ul}) {
    // Random signs with zeros: the scalar tier picks the multiply's
    // operands with ternaries, the AVX2 tier with blends.
    std::vector<DdInterval> X = signMixDdIntervals(R, N);
    std::vector<DdInterval> Y = signMixDdIntervals(R, N);
    std::vector<DdInterval> C = randomDdIntervals(R, N);
    std::vector<DdInterval> D(N);

    forceIsa(Isa::Scalar);
    std::vector<DdInterval> RefAdd(N), RefSub(N), RefMul(N), RefFma(N);
    ddarr_add(RefAdd.data(), X.data(), Y.data(), N);
    ddarr_sub(RefSub.data(), X.data(), Y.data(), N);
    ddarr_mul(RefMul.data(), X.data(), Y.data(), N);
    ddarr_fma(RefFma.data(), X.data(), Y.data(), C.data(), N);

    for (Isa Tier : supportedIsas()) {
      forceIsa(Tier);
      ddarr_add(D.data(), X.data(), Y.data(), N);
      EXPECT_TRUE(sameBits(D, RefAdd)) << isaName(Tier) << " add N=" << N;
      ddarr_sub(D.data(), X.data(), Y.data(), N);
      EXPECT_TRUE(sameBits(D, RefSub)) << isaName(Tier) << " sub N=" << N;
      ddarr_mul(D.data(), X.data(), Y.data(), N);
      EXPECT_TRUE(sameBits(D, RefMul)) << isaName(Tier) << " mul N=" << N;
      ddarr_fma(D.data(), X.data(), Y.data(), C.data(), N);
      EXPECT_TRUE(sameBits(D, RefFma)) << isaName(Tier) << " fma N=" << N;
    }
  }
}

//===----------------------------------------------------------------------===//
// (b) Elementwise soundness against the expansion oracles
//===----------------------------------------------------------------------===//

TEST(DdBatchTest, AddSubMulEncloseExactEndpointArithmetic) {
  IsaGuard Restore;
  test::Rng R(0xdd5d);
  const size_t N = 128;
  std::vector<DdInterval> X = signMixDdIntervals(R, N);
  std::vector<DdInterval> Y = signMixDdIntervals(R, N);
  std::vector<DdInterval> D(N);

  for (Isa Tier : supportedIsas()) {
    forceIsa(Tier);

    ddarr_add(D.data(), X.data(), Y.data(), N);
    for (size_t I = 0; I < N; ++I) {
      // Corner sums lo+lo and hi+hi are attainable reals of X + Y.
      RoundNearestScope RN;
      Dd XLo = ddNeg(X[I].NegLo), YLo = ddNeg(Y[I].NegLo);
      EXPECT_TRUE(test::containsExact(D[I], test::exactDdSum(XLo, YLo)))
          << isaName(Tier) << " add lo @" << I;
      EXPECT_TRUE(
          test::containsExact(D[I], test::exactDdSum(X[I].Hi, Y[I].Hi)))
          << isaName(Tier) << " add hi @" << I;
    }

    ddarr_mul(D.data(), X.data(), Y.data(), N);
    for (size_t I = 0; I < N; ++I) {
      // Every corner product is an attainable real of X * Y.
      RoundNearestScope RN;
      Dd XLo = ddNeg(X[I].NegLo), YLo = ddNeg(Y[I].NegLo);
      for (const Dd &U : {XLo, X[I].Hi})
        for (const Dd &V : {YLo, Y[I].Hi})
          EXPECT_TRUE(test::containsExact(D[I], test::exactDdProduct(U, V)))
              << isaName(Tier) << " mul @" << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// (c) Reduction determinism and soundness
//===----------------------------------------------------------------------===//

TEST(DdBatchTest, SumDotBitsIndependentOfIsaSelection) {
  IsaGuard Restore;
  test::Rng R(0xdd50);
  for (size_t N : {0ul, 1ul, 17ul, 256ul, 1000ul}) {
    std::vector<DdInterval> X = randomDdIntervals(R, N);
    std::vector<DdInterval> Y = randomDdIntervals(R, N);
    clearForcedIsa();
    DdInterval RefSum = ddarr_sum(X.data(), N);
    DdInterval RefDot = ddarr_dot(X.data(), Y.data(), N);
    for (Isa Tier : supportedIsas()) {
      forceIsa(Tier);
      DdInterval S = ddarr_sum(X.data(), N);
      DdInterval T = ddarr_dot(X.data(), Y.data(), N);
      EXPECT_EQ(std::memcmp(&S, &RefSum, sizeof(DdInterval)), 0)
          << isaName(Tier) << " sum N=" << N;
      EXPECT_EQ(std::memcmp(&T, &RefDot, sizeof(DdInterval)), 0)
          << isaName(Tier) << " dot N=" << N;
    }
  }
}

TEST(DdBatchTest, SumEnclosesExactCornerSums) {
  test::Rng R(0xdd51);
  const size_t N = 200;
  std::vector<DdInterval> X = randomDdIntervals(R, N);
  DdInterval Sum = ddarr_sum(X.data(), N);

  // Exact sums of the lower and upper endpoints, via the error-free
  // expansion accumulator, must both lie inside the result.
  RoundNearestScope RN;
  Expansion Lo, Hi;
  for (size_t I = 0; I < N; ++I) {
    Lo.add(-X[I].NegLo.H);
    Lo.add(-X[I].NegLo.L);
    Hi.add(X[I].Hi.H);
    Hi.add(X[I].Hi.L);
  }
  EXPECT_TRUE(test::containsExact(Sum, Lo));
  EXPECT_TRUE(test::containsExact(Sum, Hi));
}

TEST(DdBatchTest, DotEnclosesExactLoCornerSum) {
  test::Rng R(0xdd52);
  const size_t N = 100;
  std::vector<DdInterval> X = randomDdIntervals(R, N);
  std::vector<DdInterval> Y = randomDdIntervals(R, N);
  DdInterval Dot = ddarr_dot(X.data(), Y.data(), N);

  // sum_i X[i].lo * Y[i].lo picks one attainable corner per product, so
  // the exact sum is an attainable real of the dot product.
  RoundNearestScope RN;
  Expansion E;
  for (size_t I = 0; I < N; ++I) {
    double XH = -X[I].NegLo.H, XL = -X[I].NegLo.L;
    double YH = -Y[I].NegLo.H, YL = -Y[I].NegLo.L;
    E.addProduct(XH, YH);
    E.addProduct(XH, YL);
    E.addProduct(XL, YH);
    E.addProduct(XL, YL);
  }
  EXPECT_TRUE(test::containsExact(Dot, E));
}

TEST(DdBatchTest, ZeroLengthReductionsYieldPointZero) {
  DdInterval Sum = ddarr_sum(nullptr, 0);
  DdInterval Dot = ddarr_dot(nullptr, nullptr, 0);
  RoundUpwardScope Up;
  Interval SH = Sum.outerHull(), DH = Dot.outerHull();
  EXPECT_EQ(SH.lo(), 0.0);
  EXPECT_EQ(SH.hi(), 0.0);
  EXPECT_EQ(DH.lo(), 0.0);
  EXPECT_EQ(DH.hi(), 0.0);
}

//===----------------------------------------------------------------------===//
// (d) Dispatch mapping
//===----------------------------------------------------------------------===//

TEST(DdBatchTest, KernelTableResolvesToDocumentedTiers) {
  IsaGuard Restore;
  for (Isa Tier : supportedIsas()) {
    forceIsa(Tier);
    const char *Want =
        Tier >= Isa::Avx2Fma ? "dd-avx2" : "dd-scalar";
    EXPECT_STREQ(ddKernels().Name, Want) << isaName(Tier);
  }
}

} // namespace
