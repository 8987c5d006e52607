//===- F64PackTest.cpp - Pack ops: width, position, neighbour identity ----===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Every f64 pack op (IntervalSimd.h, namespace igen::pack) must compute an
// interval's bits from its operands alone: at every register width the TU
// allows, in every lane, next to benign neighbours and next to NaN
// neighbours, the result is the 128-bit op's on that interval. Results
// are compared with memcmp after mapping every NaN word to one pattern:
// which NaN an operation returns follows the operand order the compiler
// picks, which may differ between widths.
//
// Operands: the intervals of TestHelpers.h's specialValues() grid (every
// [a, b] with a <= b or a NaN endpoint: 152 intervals, 23104 pairs) plus
// random moderate, 1-ulp, straddling, [0, 0], -0.0 and denormal ones; the
// sign-specialized ops take only operands their preconditions admit.
// The 128-bit div_p/div_n and the pack sqrt are also compared with the
// scalar iDivP/iDivN/iSqrt, whose bits they return on every input, and
// the scalar iDiv with the 128-bit div on every grid pair.
//
// The widths come from the TU's -m flags, so this file is built once per
// flag set (see CMakeLists.txt); each build skips on a CPU without its
// ISA.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "interval/IntervalSimd.h"
#if defined(__AVX__)
#include "interval/IntervalVector.h"
#endif

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace {

using namespace igen;
using igen::test::Rng;

constexpr double NaN = std::numeric_limits<double>::quiet_NaN();

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

/// The interval's bits with every NaN word replaced by one pattern.
std::pair<uint64_t, uint64_t> canon(const Interval &I) {
  auto Word = [](double D) {
    uint64_t B;
    std::memcpy(&B, &D, sizeof B);
    return std::isnan(D) ? uint64_t(0x7ff8000000000000ull) : B;
  };
  return {Word(I.NegLo), Word(I.Hi)};
}

bool sameBits(const Interval &A, const Interval &B) {
  return canon(A) == canon(B);
}

std::string show(const Interval &I) {
  char Buf[96];
  std::snprintf(Buf, sizeof Buf, "[%a, %a]", I.lo(), I.hi());
  return Buf;
}

/// The specialValues() grid: every [a, b] with a <= b or a NaN endpoint.
std::vector<Interval> grid() {
  std::vector<Interval> V;
  int N = 0;
  const double *Sp = test::specialValues(N);
  for (int I = 0; I < N; ++I)
    for (int J = 0; J < N; ++J)
      if (Sp[I] <= Sp[J] || std::isnan(Sp[I]) || std::isnan(Sp[J]))
        V.push_back(Interval::fromEndpoints(Sp[I], Sp[J]));
  return V;
}

/// The grid plus random intervals of every class.
std::vector<Interval> operands() {
  std::vector<Interval> V = grid();
  Rng R(0xf64);
  for (int K = 0; K < 8; ++K) {
    V.push_back(R.moderateInterval());
    double C = R.moderateDouble();
    V.push_back(Interval::fromEndpoints(C, nextUp(C))); // 1 ulp
    double A = R.uniform(0.0, 4.0), B = R.uniform(0.0, 4.0);
    V.push_back(Interval::fromEndpoints(-A, B)); // straddling
    double D = std::ldexp(R.uniform(0.0, 1.0), -1060);
    V.push_back(Interval::fromEndpoints(D, 2 * D)); // denormal
    V.push_back(Interval::fromEndpoints(-2 * D, D));
  }
  V.push_back(Interval(0.0, 0.0));   // [0, 0] stored as (+0, +0)
  V.push_back(Interval(-0.0, 0.0));  // (-0, +0)
  V.push_back(Interval(0.0, -0.0));  // (+0, -0)
  V.push_back(Interval(-0.0, -0.0)); // (-0, -0)
  V.push_back(Interval(-0.0, 2.0));  // [0, 2] with a -0.0 word
  V.push_back(Interval(2.0, -0.0));  // [-2, 0] with a -0.0 word
  return V;
}

/// Operand preconditions of the sign-specialized ops (NaN endpoints pass,
/// as in their debug checks).
enum class Pre { Any, NonNeg, NonPos, Pos, Neg, Finite };

bool admits(Pre P, const Interval &I) {
  switch (P) {
  case Pre::Any:
    return true;
  case Pre::NonNeg:
    return !(I.NegLo > 0.0);
  case Pre::NonPos:
    return !(I.Hi > 0.0);
  case Pre::Pos:
    return !(I.lo() <= 0.0);
  case Pre::Neg:
    return !(I.hi() >= 0.0);
  case Pre::Finite:
    return std::isfinite(I.NegLo) && std::isfinite(I.Hi);
  }
  return false;
}

/// A benign neighbour every precondition of \p P admits.
[[maybe_unused]] Interval benign(Pre P) {
  return P == Pre::NonPos || P == Pre::Neg ? Interval::fromEndpoints(-2, -1)
                                           : Interval::fromEndpoints(1, 2);
}

/// The op on one interval per operand at 128 bits.
template <class OpFn, size_t Arity>
Interval run128(OpFn Op, const Interval (&A)[Arity]) {
  RoundUpwardScope Up;
  if constexpr (Arity == 1)
    return Op(IntervalSse::fromInterval(A[0])).toInterval();
  else if constexpr (Arity == 2)
    return Op(IntervalSse::fromInterval(A[0]), IntervalSse::fromInterval(A[1]))
        .toInterval();
  else
    return Op(IntervalSse::fromInterval(A[0]), IntervalSse::fromInterval(A[1]),
              IntervalSse::fromInterval(A[2]))
        .toInterval();
}

/// The op on packs of type \p P whose lanes hold the rows of \p In; writes
/// every lane's result to \p Out.
template <class P, class OpFn, size_t Arity>
void runPack(OpFn Op, const Interval (&In)[Arity][4], Interval *Out) {
  using R = F64Regs<P>;
  RoundUpwardScope Up;
  P V[Arity];
  for (size_t K = 0; K < Arity; ++K)
    V[K] = P(R::load(In[K]));
  P Z;
  if constexpr (Arity == 1)
    Z = Op(V[0]);
  else if constexpr (Arity == 2)
    Z = Op(V[0], V[1]);
  else
    Z = Op(V[0], V[1], V[2]);
  R::store(Out, Z.V);
}

/// Checks the op at width P against the 128-bit op: each operand tuple in
/// every lane, next to benign neighbours and next to NaN ones.
template <class P, class OpFn, size_t Arity>
void checkWidth(const char *Name, OpFn Op, const Pre (&Pres)[Arity],
                const std::vector<std::array<Interval, Arity>> &Tuples,
                int &Failures) {
  constexpr int W = static_cast<int>(F64Regs<P>::kIntervals);
  for (bool NaNNeighbours : {false, true}) {
    if (NaNNeighbours && Pres[0] == Pre::Finite)
      continue; // the unchecked multiply takes screened inputs only
    Interval Fill[Arity], FillRef;
    for (size_t K = 0; K < Arity; ++K)
      Fill[K] = NaNNeighbours ? Interval(NaN, NaN) : benign(Pres[K]);
    FillRef = run128(Op, Fill);
    for (const auto &T : Tuples) {
      Interval Args[Arity];
      for (size_t K = 0; K < Arity; ++K)
        Args[K] = T[K];
      const Interval Ref = run128(Op, Args);
      for (int Lane = 0; Lane < W; ++Lane) {
        Interval In[Arity][4], Out[4];
        for (size_t K = 0; K < Arity; ++K)
          for (int L = 0; L < W; ++L)
            In[K][L] = L == Lane ? T[K] : Fill[K];
        runPack<P>(Op, In, Out);
        for (int L = 0; L < W; ++L) {
          const Interval &Want = L == Lane ? Ref : FillRef;
          if (sameBits(Out[L], Want))
            continue;
          if (++Failures <= 10) {
            std::string Ops;
            for (size_t K = 0; K < Arity; ++K) {
              Ops += ' ';
              Ops += show(T[K]);
            }
            ADD_FAILURE() << Name << " x" << W << " lane " << L
                          << (L == Lane ? " (operands" : " (neighbour of")
                          << Ops << " in lane " << Lane << ", "
                          << (NaNNeighbours ? "NaN" : "benign")
                          << " neighbours): got " << show(Out[L])
                          << " want " << show(Want);
          }
        }
      }
    }
  }
}

/// The operand tuples an op admits: every pair of \p Ops (the third
/// operand of a fused op cycling through them).
template <size_t Arity>
std::vector<std::array<Interval, Arity>>
tuples(const std::vector<Interval> &Ops, const Pre (&Pres)[Arity]) {
  std::vector<std::array<Interval, Arity>> T;
  size_t Third = 0;
  for (const Interval &X : Ops) {
    if (!admits(Pres[0], X))
      continue;
    if constexpr (Arity == 1) {
      T.push_back({X});
    } else {
      for (const Interval &Y : Ops) {
        if (!admits(Pres[1], Y))
          continue;
        if constexpr (Arity == 2) {
          T.push_back({X, Y});
        } else {
          T.push_back({X, Y, Ops[Third++ % Ops.size()]});
        }
      }
    }
  }
  return T;
}

template <class OpFn, size_t Arity>
void checkOp(const char *Name, [[maybe_unused]] OpFn Op,
             const Pre (&Pres)[Arity]) {
  const auto T = tuples(operands(), Pres);
  int Failures = 0;
#if defined(__AVX__)
  checkWidth<IntervalX2>(Name, Op, Pres, T, Failures);
#endif
#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
  checkWidth<IntervalX4>(Name, Op, Pres, T, Failures);
#endif
  EXPECT_EQ(Failures, 0) << Name << ": " << T.size() << " operand tuples";
}

class F64PackTest : public ::testing::Test {
protected:
  void SetUp() override {
    if (!cpuRunsThisBuild())
      GTEST_SKIP() << "CPU lacks this build's ISA";
  }
};

#define PACK_OP(OP) [](const auto &...A) { return pack::OP(A...); }

constexpr Pre Any1[] = {Pre::Any};
constexpr Pre Any2[] = {Pre::Any, Pre::Any};
constexpr Pre Any3[] = {Pre::Any, Pre::Any, Pre::Any};

TEST_F(F64PackTest, AddSubNegHullSqrt) {
  checkOp("add", PACK_OP(add), Any2);
  checkOp("sub", PACK_OP(sub), Any2);
  checkOp("neg", PACK_OP(neg), Any1);
  checkOp("hull", PACK_OP(hull), Any2);
  checkOp("sqrt", PACK_OP(sqrt), Any1);
}

TEST_F(F64PackTest, MulAndItsSignForms) {
  checkOp("mul", PACK_OP(mul), Any2);
  // The unchecked multiply equals the checked one on the inputs the
  // group screen lets through, at every width.
  constexpr Pre Finite2[] = {Pre::Finite, Pre::Finite};
  checkOp("mulUnchecked", PACK_OP(mulUnchecked), Finite2);
  for (const auto &T : tuples(operands(), Finite2)) {
    const Interval Args[] = {T[0], T[1]};
    EXPECT_TRUE(sameBits(run128(PACK_OP(mulUnchecked), Args),
                         run128(PACK_OP(mul), Args)))
        << show(T[0]) << " * " << show(T[1]);
  }
  constexpr Pre PP[] = {Pre::NonNeg, Pre::NonNeg};
  constexpr Pre PN[] = {Pre::NonNeg, Pre::NonPos};
  constexpr Pre NN[] = {Pre::NonPos, Pre::NonPos};
  constexpr Pre PU[] = {Pre::NonNeg, Pre::Any};
  constexpr Pre NU[] = {Pre::NonPos, Pre::Any};
  checkOp("mulPP", PACK_OP(mulPP), PP);
  checkOp("mulPN", PACK_OP(mulPN), PN);
  checkOp("mulNN", PACK_OP(mulNN), NN);
  checkOp("mulPU", PACK_OP(mulPU), PU);
  checkOp("mulNU", PACK_OP(mulNU), NU);
}

TEST_F(F64PackTest, FmaAndItsSignForms) {
  checkOp("fma", PACK_OP(fma), Any3);
  constexpr Pre PP[] = {Pre::NonNeg, Pre::NonNeg, Pre::Any};
  constexpr Pre PN[] = {Pre::NonNeg, Pre::NonPos, Pre::Any};
  constexpr Pre NN[] = {Pre::NonPos, Pre::NonPos, Pre::Any};
  constexpr Pre PU[] = {Pre::NonNeg, Pre::Any, Pre::Any};
  constexpr Pre NU[] = {Pre::NonPos, Pre::Any, Pre::Any};
  checkOp("fmaPP", PACK_OP(fmaPP), PP);
  checkOp("fmaPN", PACK_OP(fmaPN), PN);
  checkOp("fmaNN", PACK_OP(fmaNN), NN);
  checkOp("fmaPU", PACK_OP(fmaPU), PU);
  checkOp("fmaNU", PACK_OP(fmaNU), NU);
}

TEST_F(F64PackTest, Division) {
  checkOp("div", PACK_OP(div), Any2);
  constexpr Pre Pos[] = {Pre::Any, Pre::Pos};
  constexpr Pre Neg[] = {Pre::Any, Pre::Neg};
  checkOp("divP", PACK_OP(divP), Pos);
  checkOp("divN", PACK_OP(divN), Neg);
}

/// The 128-bit div_p/div_n screen the scalar check value and the pack
/// sqrt reproduces sqrtRoundDown: each returns the scalar op's bits.
TEST_F(F64PackTest, SignedDivisionAndSqrtReturnScalarBits) {
  const std::vector<Interval> Ops = operands();
  RoundUpwardScope Up;
  int Failures = 0;
  auto Check = [&](const char *Name, const Interval &Got,
                   const Interval &Want) {
    if (!sameBits(Got, Want) && ++Failures <= 10)
      ADD_FAILURE() << Name << ": got " << show(Got) << " want "
                    << show(Want);
  };
  size_t Pairs = 0;
  for (const Interval &X : Ops) {
    const IntervalSse XS = IntervalSse::fromInterval(X);
    Check("sqrt", pack::sqrt(XS).toInterval(), iSqrt(X));
    for (const Interval &Y : Ops) {
      const IntervalSse YS = IntervalSse::fromInterval(Y);
      if (admits(Pre::Pos, Y)) {
        ++Pairs;
        Check("divP", iDivP(XS, YS).toInterval(), iDivP(X, Y));
      }
      if (admits(Pre::Neg, Y)) {
        ++Pairs;
        Check("divN", iDivN(XS, YS).toInterval(), iDivN(X, Y));
      }
    }
  }
  EXPECT_EQ(Failures, 0) << Pairs << " division pairs";
}

/// The scalar iDiv screens each endpoint's candidates apart, as the
/// 128-bit div screens its lanes, so the two agree on every grid pair
/// ([0, inf] / [2^-1074, 1] is [0, inf] in both, not the entire line).
TEST_F(F64PackTest, ScalarDivisionReturns128BitBits) {
  const std::vector<Interval> Grid = grid();
  RoundUpwardScope Up;
  int Failures = 0;
  for (const Interval &X : Grid)
    for (const Interval &Y : Grid) {
      const Interval Want = pack::div(IntervalSse::fromInterval(X),
                                      IntervalSse::fromInterval(Y))
                                .toInterval();
      const Interval Got = iDiv(X, Y);
      if (!sameBits(Got, Want) && ++Failures <= 10)
        ADD_FAILURE() << show(X) << " / " << show(Y) << ": scalar "
                      << show(Got) << ", 128-bit " << show(Want);
    }
  EXPECT_EQ(Failures, 0) << Grid.size() * Grid.size() << " pairs";
}

} // namespace
