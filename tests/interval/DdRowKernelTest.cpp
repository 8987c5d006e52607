//===- DdRowKernelTest.cpp - ia_axpy_dd vs the per-element dd loop --------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// ia_axpy_dd (igen_lib.h) must return the bits of the loop
// Y[j] = ia_add_dd(Y[j], ia_mul_dd(a, X[j])) it replaces. Each test runs
// the kernel and that loop on identical buffers and compares them with
// memcmp: operands from every dd class (RU-form, round-to-nearest-form
// and unnormalized endpoints, denormal high words, zeros of both signs,
// straddling, infinite endpoints, NaN), multipliers of every sign case,
// products that overflow, straddle maxima whose two candidates share one
// RU(H + L), lengths 0 to three packs with every tail, and rows that are
// identical, disjoint or overlapping at offsets -8 to 8.
//
// The kernel picks its pack from the including TU's -m flags, so this
// file is built once per flag set (see CMakeLists.txt): the x86-64 build
// runs the scalar configuration, the AVX2 build the AVX ddi, the AVX-512
// build the eight-lane packs. Each build skips on a CPU without its ISA.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "interval/igen_lib.h"

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace {

using igen::Dd;
using igen::DdInterval;
using igen::test::Rng;

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
constexpr unsigned long MaxLen = 24; // three packs of eight
constexpr long Pad = 9;              // room for offsets -8..8 and one more

bool cpuRunsThisBuild() {
#if defined(__AVX512F__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512vl") && __builtin_cpu_supports("fma");
#elif defined(__AVX2__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return true;
#endif
}

ddi toD(const DdInterval &I) {
#if defined(IGEN_F64I_SCALAR)
  return I;
#else
  return ddi::fromScalar(I);
#endif
}

/// The classes past TestHelpers.h's sign classes.
enum ExtraClass {
  NearestForm = igen::test::NumDdSignClasses, // RN-form endpoints
  DenormalHigh,                               // denormal high words
  InfiniteEnd,                                // an infinite endpoint
  NaNWord,                                    // a NaN word
  Overflowing,                                // |x| in [1e300, 1e308]
  NumClasses
};

/// A round-to-nearest-form endpoint: a low word of either sign within
/// about half an ulp of \p H.
Dd nearestForm(Rng &R, double H) {
  const double Ulp = igen::nextUp(std::fabs(H)) - std::fabs(H);
  return Dd(H, (R.intIn(0, 1) ? 0.5 : -0.5) * Ulp *
                   std::ldexp(R.uniform(0.0, 1.0), -R.intIn(0, 12)));
}

DdInterval operandOf(Rng &R, int Class) {
  if (Class < igen::test::NumDdSignClasses)
    return igen::test::ddClassInterval(R, Class);
  switch (Class) {
  case NearestForm: {
    // Endpoints a few ulps apart, so the RN low words keep them ordered;
    // a straddling pair half the time.
    const double H = R.moderateDouble();
    const double Lo = R.intIn(0, 1) ? -std::fabs(H) : igen::addUlps(H, -2);
    return DdInterval::fromEndpoints(nearestForm(R, Lo),
                                     nearestForm(R, igen::addUlps(H, 2)));
  }
  case DenormalHigh: {
    const double U = std::numeric_limits<double>::denorm_min();
    const double A = R.intIn(-64, 64) * U, B = A + R.intIn(0, 64) * U;
    return DdInterval::fromEndpoints(Dd(A), Dd(B));
  }
  case InfiniteEnd:
    switch (R.intIn(0, 2)) {
    case 0:
      return DdInterval::fromEndpoints(Dd(R.finiteDouble()), Dd(Inf));
    case 1:
      return DdInterval::fromEndpoints(Dd(-Inf), Dd(R.finiteDouble()));
    default:
      return DdInterval::entire();
    }
  case NaNWord: {
    DdInterval I = DdInterval::fromPoint(R.moderateDouble());
    double *W[] = {&I.NegLo.H, &I.NegLo.L, &I.Hi.H, &I.Hi.L};
    *W[R.intIn(0, 3)] = NaN;
    return I;
  }
  default: { // Overflowing
    DdInterval I = DdInterval::fromEndpoints(Dd(1e300), Dd(1e308));
    return R.intIn(0, 1) ? I : igen::ddiNeg(I);
  }
  }
}

DdInterval operand(Rng &R) { return operandOf(R, R.intIn(0, NumClasses - 1)); }

/// Multipliers of every sign case: nonnegative, nonpositive, straddling,
/// zeros of both signs, half-zero, infinite, NaN, huge (products
/// overflow) and round-to-nearest form, then random operands.
std::vector<DdInterval> multipliers(Rng &R) {
  const double Ends[][2] = {
      {0.5, 3.0},   {-3.0, -0.5}, {-1.0, 2.0},  {0.0, 0.0},    {-0.0, -0.0},
      {-0.0, 0.0},  {0.0, -0.0},  {0.0, 2.0},   {-0.0, 2.0},   {-2.0, 0.0},
      {-2.0, -0.0}, {0.0, Inf},   {-Inf, -0.0}, {1.0, Inf},    {-Inf, -1.0},
      {-1.0, Inf},  {-Inf, 1.0},  {-Inf, Inf},  {NaN, NaN},    {NaN, 1.0},
      {1e300, 1e301}, {-1e301, -1e300}, {-1e300, 1e301}};
  std::vector<DdInterval> Out;
  for (const auto &E : Ends)
    Out.push_back(DdInterval(Dd(-E[0]), Dd(E[1])));
  Out.push_back(operandOf(R, NearestForm));
  Out.push_back(igen::test::ddClassInterval(R, igen::test::LowOutweighsHigh));
  for (int I = 0; I < 8; ++I)
    Out.push_back(operand(R));
  return Out;
}

/// The j-loop -O0 (and -O before the row kernel) emits for
/// `Y[j] = Y[j] + a * X[j]` under --precision=dd.
void axpyLoop(ddi *Y, ddi A, const ddi *X, unsigned long N) {
  for (unsigned long J = 0; J < N; J++)
    Y[J] = ia_add_dd(Y[J], ia_mul_dd(A, X[J]));
}

class DdRowKernel : public ::testing::Test {
protected:
  void SetUp() override {
    if (!cpuRunsThisBuild())
      GTEST_SKIP() << "CPU lacks this build's ISA";
  }
  igen::RoundUpwardScope Up;
  Rng R{0xdd2026};

  std::vector<ddi> buffer(size_t N) {
    std::vector<ddi> B;
    for (size_t I = 0; I < N; ++I)
      B.push_back(toD(operand(R)));
    return B;
  }

  /// Runs the kernel and the loop on copies of \p Y (and \p X, unless
  /// \p Same) and expects identical bits.
  void expectSame(const std::vector<ddi> &Y, const std::vector<ddi> &X,
                  bool Same, const DdInterval &A, const char *What) {
    const unsigned long N = Y.size();
    std::vector<ddi> K = Y, L = Y, KX = X, LX = X;
    ia_axpy_dd(K.data(), toD(A), Same ? K.data() : KX.data(), N);
    axpyLoop(L.data(), toD(A), Same ? L.data() : LX.data(), N);
    ASSERT_EQ(std::memcmp(K.data(), L.data(), N * sizeof(ddi)), 0)
        << What << " n=" << N << " same=" << Same << " a=[" << -A.NegLo.H
        << ", " << A.Hi.H << "]";
  }
};

} // namespace

TEST_F(DdRowKernel, AxpyMatchesTheLoopUnderEveryAliasing) {
  // Y at offset Pad of one buffer; X at Pad + D (D = 0: Y == X; |D| <= 8
  // overlaps partially) or in a second buffer (disjoint).
  const std::vector<DdInterval> Muls = multipliers(R);
  for (int Rep = 0; Rep < 2; ++Rep)
    for (const DdInterval &A : Muls)
      for (unsigned long N = 0; N <= MaxLen; ++N)
        for (long D = -8; D <= 9; ++D) {
          const bool Disjoint = D == 9;
          std::vector<ddi> K = buffer(MaxLen + 2 * Pad), L = K;
          std::vector<ddi> KX = buffer(MaxLen), LX = KX;
          ddi *KY = K.data() + Pad, *LY = L.data() + Pad;
          const ddi *KXp = Disjoint ? KX.data() : KY + D;
          const ddi *LXp = Disjoint ? LX.data() : LY + D;
          ia_axpy_dd(KY, toD(A), KXp, N);
          axpyLoop(LY, toD(A), LXp, N);
          ASSERT_EQ(std::memcmp(K.data(), L.data(), K.size() * sizeof(ddi)),
                    0)
              << "n=" << N << " offset=" << D << " a=[" << -A.NegLo.H
              << ", " << A.Hi.H << "]";
          ASSERT_EQ(
              std::memcmp(KX.data(), LX.data(), KX.size() * sizeof(ddi)), 0);
        }
}

TEST_F(DdRowKernel, RowsOfOneClassMatchTheLoop) {
  // Rows of a single operand class, everywhere or in one lane of eight,
  // so a pack's fallback fires on every pack, on none, or on one lane,
  // and a pack mixes known-sign and straddling lanes.
  for (int Class = 0; Class < NumClasses; ++Class)
    for (int OneLane = 0; OneLane < 2; ++OneLane)
      for (unsigned long N = 1; N <= MaxLen; ++N) {
        std::vector<ddi> X, Y;
        for (unsigned long J = 0; J < N; ++J) {
          const bool Pick = !OneLane || J % 8 == 5;
          X.push_back(toD(Pick ? operandOf(R, Class)
                               : DdInterval::fromInterval(
                                     R.moderateInterval())));
          Y.push_back(toD(DdInterval::fromInterval(R.moderateInterval())));
        }
        for (const DdInterval &A : multipliers(R)) {
          expectSame(Y, X, false, A, "class row");
          expectSame(X, X, true, A, "class row, Y == X");
        }
      }
}

TEST_F(DdRowKernel, StraddleMaximaInsideOneUlpMatchTheLoop) {
  // X * Y with X = [-2^k, 2^k] and Y = [-u, v], u and v in one ulp: the
  // straddle max orders candidates that share one RU(H + L). Both as the
  // multiplier and as the row, mixed with rows of known sign.
  for (int I = 0; I < 200; ++I) {
    const auto [S, U] = igen::test::sharedUlpStraddle(R, I);
    for (int Mix = 0; Mix < 2; ++Mix)
      for (unsigned long N : {1ul, 8ul, 13ul, 24ul}) {
        std::vector<ddi> Xs, Xu, Y;
        for (unsigned long J = 0; J < N; ++J) {
          const bool Plain = Mix && J % 3 == 1;
          const DdInterval P =
              DdInterval::fromInterval(R.moderateInterval());
          Xs.push_back(toD(Plain ? P : S));
          Xu.push_back(toD(Plain ? P : U));
          Y.push_back(toD(DdInterval::fromInterval(R.moderateInterval())));
        }
        expectSame(Y, Xu, false, S, "shared-ulp row");
        expectSame(Y, Xs, false, U, "shared-ulp multiplier");
      }
  }
}

TEST_F(DdRowKernel, OverflowingProductsMatchTheLoop) {
  // Finite operands whose products overflow inside the renormalization,
  // in every lane or in one, for multipliers of each sign case.
  for (int OneLane = 0; OneLane < 2; ++OneLane)
    for (unsigned long N : {7ul, 8ul, 9ul, 16ul, 24ul}) {
      std::vector<ddi> X, Y;
      for (unsigned long J = 0; J < N; ++J) {
        const bool Pick = !OneLane || J % 8 == 3;
        X.push_back(toD(Pick ? operandOf(R, Overflowing)
                             : DdInterval::fromInterval(
                                   R.moderateInterval())));
        Y.push_back(toD(DdInterval::fromInterval(R.moderateInterval())));
      }
      for (const DdInterval &A :
           {DdInterval::fromEndpoints(Dd(1e300), Dd(1e301)),
            DdInterval::fromEndpoints(Dd(-1e301), Dd(-1e300)),
            DdInterval::fromEndpoints(Dd(-1e300), Dd(1e301)),
            DdInterval::fromEndpoints(Dd(-2.0), Dd(3.0))})
        expectSame(Y, X, false, A, "overflow");
    }
}
