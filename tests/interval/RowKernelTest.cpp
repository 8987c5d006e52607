//===- RowKernelTest.cpp - Row kernels vs the per-element -O loops --------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// ia_axpy_f64, ia_dot_f64 and ia_dotsub_f64 (igen_lib.h) must return the
// bits of the per-element -O loops they replace. Each test runs a kernel
// and the loop the transform would otherwise emit on identical buffers
// and compares them with memcmp: operands from every class (binades,
// denormals, zeros of both signs, straddling, infinite endpoints, NaN),
// multipliers of every sign case, lengths 0 to three packs with every
// tail, and every aliasing arrangement of the rows and the accumulator.
//
// The kernels pick their pack width from the including TU's -m flags, so
// this file is built once per flag set (see CMakeLists.txt); each build
// skips on a CPU without its ISA.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "interval/igen_lib.h"

#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

namespace {

using igen::Interval;
using igen::test::Rng;

constexpr double Inf = std::numeric_limits<double>::infinity();
constexpr double NaN = std::numeric_limits<double>::quiet_NaN();
constexpr unsigned long MaxLen = 12; // three AVX-512 packs
constexpr long Pad = 5;              // room for offsets -4..4 and one more

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

f64i toF(const Interval &I) {
#if defined(IGEN_F64I_SCALAR)
  return I;
#else
  return f64i::fromInterval(I);
#endif
}

constexpr int Classes = 14;

/// An operand of class \p Class: every class the kernels must treat
/// like the loop.
Interval operandOf(Rng &R, int Class) {
  switch (Class) {
  case 0:
    return Interval::fromPoint(R.finiteDouble());
  case 1:
  case 2:
    return R.interval(64);
  case 3:
    return R.moderateInterval(1 << 20);
  case 4: // straddling zero
    return Interval::fromEndpoints(-R.uniform(0.0, 4.0), R.uniform(0.0, 4.0));
  case 5: {
    const double Z[][2] = {{0.0, 0.0}, {-0.0, -0.0}, {-0.0, 0.0}, {0.0, -0.0}};
    const auto &E = Z[R.intIn(0, 3)];
    return Interval(-E[0], E[1]); // spelled directly: keeps the zero signs
  }
  case 6:
    return Interval::fromEndpoints(R.finiteDouble(), Inf);
  case 7:
    return Interval::fromEndpoints(-Inf, R.finiteDouble());
  case 8:
    return Interval::fromEndpoints(-Inf, Inf);
  case 9:
    return Interval(NaN, R.finiteDouble());
  case 10:
    return Interval(R.finiteDouble(), NaN);
  case 11: // products overflow
    return Interval::fromEndpoints(1e300, 1e308);
  case 12:
    return Interval::fromEndpoints(-1e308, -1e300);
  default:
    return Interval::fromPoint(std::ldexp(R.uniform(-1.0, 1.0), -1070));
  }
}

Interval operand(Rng &R) { return operandOf(R, R.intIn(0, Classes - 1)); }

/// Multipliers of every sign class the axpy kernel tests: nonnegative,
/// nonpositive, straddling, zeros, half-zero, infinite and NaN.
std::vector<Interval> multipliers(Rng &R) {
  std::vector<Interval> Out;
  const double Ends[][2] = {
      {0.5, 3.0},   {-3.0, -0.5}, {-1.0, 2.0}, {0.0, 0.0},   {-0.0, -0.0},
      {-0.0, 0.0},  {0.0, -0.0},  {0.0, 2.0},  {-0.0, 2.0},  {-2.0, 0.0},
      {-2.0, -0.0}, {0.0, Inf},   {-Inf, -0.0}, {1.0, Inf},  {-Inf, -1.0},
      {-1.0, Inf},  {-Inf, 1.0},  {-Inf, Inf}, {NaN, NaN},   {NaN, 1.0}};
  for (const auto &E : Ends)
    Out.push_back(Interval(-E[0], E[1]));
  for (int I = 0; I < 8; ++I)
    Out.push_back(operand(R));
  return Out;
}

/// The j-loop -O emits for `Y[j] = Y[j] + a * X[j]`: three sign copies.
void axpyLoop(f64i *Y, f64i A, const f64i *X, unsigned long N) {
  if (ia_inf_f64(A) >= 0.0) {
    for (unsigned long J = 0; J < N; J++)
      Y[J] = ia_fma_pu_f64(A, X[J], Y[J]);
  } else if (ia_sup_f64(A) <= 0.0) {
    for (unsigned long J = 0; J < N; J++)
      Y[J] = ia_fma_nu_f64(A, X[J], Y[J]);
  } else {
    for (unsigned long J = 0; J < N; J++)
      Y[J] = ia_fma_f64(A, X[J], Y[J]);
  }
}

/// The j-loop -O emits for `s = s + X[j] * Z[j]` (or `-`).
void dotLoop(f64i *S, const f64i *X, const f64i *Z, unsigned long N,
             bool Sub) {
  for (unsigned long J = 0; J < N; J++)
    *S = Sub ? ia_sub_f64(*S, ia_mul_f64(X[J], Z[J]))
             : ia_add_f64(*S, ia_mul_f64(X[J], Z[J]));
}

class RowKernel : public ::testing::Test {
protected:
  void SetUp() override {
    if (!cpuRunsThisBuild())
      GTEST_SKIP() << "CPU lacks this build's ISA";
  }
  igen::RoundUpwardScope Up;
  Rng R{0x5eed2026};

  std::vector<f64i> buffer(size_t N) {
    std::vector<f64i> B;
    for (size_t I = 0; I < N; ++I)
      B.push_back(toF(operand(R)));
    return B;
  }
};

} // namespace

TEST_F(RowKernel, AxpyMatchesTheVersionedLoopUnderEveryAliasing) {
  // Y at offset Pad of one buffer; X at Pad + D (D = 0: Y == X; |D| <= 4
  // overlaps partially) or in a second buffer (disjoint).
  const std::vector<Interval> Muls = multipliers(R);
  for (int Rep = 0; Rep < 6; ++Rep)
    for (const Interval &A : Muls)
      for (unsigned long N = 0; N <= MaxLen; ++N)
        for (long D = -4; D <= 5; ++D) {
          const bool Disjoint = D == 5;
          std::vector<f64i> K = buffer(MaxLen + 2 * Pad), L = K;
          std::vector<f64i> KX = buffer(MaxLen), LX = KX;
          f64i *KY = K.data() + Pad, *LY = L.data() + Pad;
          const f64i *KXp = Disjoint ? KX.data() : KY + D;
          const f64i *LXp = Disjoint ? LX.data() : LY + D;
          ia_axpy_f64(KY, toF(A), KXp, N);
          axpyLoop(LY, toF(A), LXp, N);
          ASSERT_EQ(std::memcmp(K.data(), L.data(), K.size() * sizeof(f64i)),
                    0)
              << "n=" << N << " offset=" << D << " a=[" << A.lo() << ", "
              << A.hi() << "]";
          ASSERT_EQ(
              std::memcmp(KX.data(), LX.data(), KX.size() * sizeof(f64i)), 0);
        }
}

TEST_F(RowKernel, DotMatchesTheLoopWithTheAccumulatorAnywhere) {
  // X and Z rows in one buffer (Z may equal X: the squared potrf row);
  // the accumulator in a separate variable, or an element before, inside
  // or after either row.
  for (int Rep = 0; Rep < 40; ++Rep)
    for (unsigned long N = 0; N <= MaxLen; ++N)
      for (int Sub = 0; Sub < 2; ++Sub)
        for (int Place = 0; Place < 8; ++Place) {
          const long Len = static_cast<long>(MaxLen);
          std::vector<f64i> K = buffer(2 * MaxLen + 4 * Pad), L = K;
          const long XOff = Pad, ZOff = Rep % 4 == 0 ? Pad : Len + 3 * Pad;
          const long Inside = N ? R.intIn(0, static_cast<int>(N) - 1) : 0;
          // Accumulator: -1 separate; else an element index in the buffer.
          const long Acc[] = {-1,
                              XOff - 1,
                              XOff + Inside,
                              XOff + static_cast<long>(N),
                              ZOff - 1,
                              ZOff + Inside,
                              ZOff + static_cast<long>(N),
                              Len + 2 * Pad};
          f64i KS = toF(operand(R)), LS = KS;
          f64i *KSp = Acc[Place] < 0 ? &KS : K.data() + Acc[Place];
          f64i *LSp = Acc[Place] < 0 ? &LS : L.data() + Acc[Place];
          if (Sub)
            ia_dotsub_f64(KSp, K.data() + XOff, K.data() + ZOff, N);
          else
            ia_dot_f64(KSp, K.data() + XOff, K.data() + ZOff, N);
          dotLoop(LSp, L.data() + XOff, L.data() + ZOff, N, Sub);
          ASSERT_EQ(std::memcmp(K.data(), L.data(), K.size() * sizeof(f64i)),
                    0)
              << "n=" << N << " place=" << Place << " sub=" << Sub;
          ASSERT_EQ(std::memcmp(&KS, &LS, sizeof(f64i)), 0)
              << "n=" << N << " place=" << Place << " sub=" << Sub;
        }
}

TEST_F(RowKernel, RowsOfOneClassMatchTheLoop) {
  // Rows of a single operand class, everywhere or in one lane of four,
  // so a pack's NaN screen fires on every pack, on none, or on one lane.
  for (int Class = 0; Class < Classes; ++Class)
    for (int OneLane = 0; OneLane < 2; ++OneLane)
      for (unsigned long N = 1; N <= MaxLen; ++N) {
        std::vector<f64i> X, Y;
        for (unsigned long J = 0; J < N; ++J) {
          const bool Pick = !OneLane || J % 4 == 1;
          X.push_back(toF(Pick ? operandOf(R, Class) : R.moderateInterval()));
          Y.push_back(toF(R.moderateInterval()));
        }
        for (const Interval &A : multipliers(R)) {
          std::vector<f64i> K = Y, L = Y;
          ia_axpy_f64(K.data(), toF(A), X.data(), N);
          axpyLoop(L.data(), toF(A), X.data(), N);
          ASSERT_EQ(std::memcmp(K.data(), L.data(), N * sizeof(f64i)), 0)
              << "class " << Class << " n=" << N;
        }
        for (int Sub = 0; Sub < 2; ++Sub) {
          f64i KS = toF(R.moderateInterval()), LS = KS;
          if (Sub)
            ia_dotsub_f64(&KS, X.data(), Y.data(), N);
          else
            ia_dot_f64(&KS, X.data(), Y.data(), N);
          dotLoop(&LS, X.data(), Y.data(), N, Sub);
          ASSERT_EQ(std::memcmp(&KS, &LS, sizeof(f64i)), 0)
              << "class " << Class << " n=" << N;
        }
      }
}
