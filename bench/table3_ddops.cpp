//===- table3_ddops.cpp - Table III: costs of double-double operations ---------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Table III: flops per double-double interval operation and the intrinsic
// counts of the vectorized implementations. Flops are *measured* with the
// counting operation policy (an FMA counts as two flops, comparisons are
// not flops); intrinsic counts of the AVX implementations are static
// properties of the code, tabulated here next to the paper's numbers: the
// AVX backend's primitives in src/interval/DdSimd.h
// (DdRegs<DdIntervalAvx>::addUp, mulUp, maxUp, signs, select, swap, neg,
// negFirst, dupFirst, dupSecond, xNonNeg, yNonNeg) as the one ddiMul body
// in src/interval/DdInterval.h calls them. Multiplication is reported per
// sign case. It uses FMA-based TwoProd instead of Dekker splitting
// (DESIGN.md substitution 8), so its flop count is lower than the paper's.
//
//===----------------------------------------------------------------------===//

#include "interval/DdInterval.h"
#include "interval/DoubleDouble.h"
#include "interval/Rounding.h"

#include <cstdio>

using namespace igen;

namespace {

/// Counts flops of one endpoint-level dd op via the counting policy.
template <typename Fn> uint64_t countFlops(Fn Op) {
  CountingOps::reset();
  Op();
  return CountingOps::flops();
}

/// Intrinsics of an AVX code path: arithmetic (add/sub/mul/fma,
/// compares, bitwise logic, movemask) and shuffles (permutes, lane
/// moves, blends). The special-value and overflow screens, and the scalar
/// fallback of a tie in maxUp, are left out.
struct Intrinsics {
  int Arith, Shuffles;
  Intrinsics operator+(Intrinsics O) const {
    return {Arith + O.Arith, Shuffles + O.Shuffles};
  }
  Intrinsics operator*(int N) const { return {Arith * N, Shuffles * N}; }
  int total() const { return Arith + Shuffles; }
};

// The building blocks of ddiMul on the AVX backend.
constexpr Intrinsics PairMul{12, 4}; // mulUp
// maxUp: RU(H + L) of both pairs (2 adds, 2 lane swaps), the tie test
// (compare, movemask), the pick (compare, lane duplicate, blendv).
constexpr Intrinsics PairMax{5, 4};
constexpr Intrinsics SignTest{3, 2}; // signs: lane moves, add, compare,
                                     // movemask
// neg and negFirst (two xors); swap twice, two selects (blendv) and their
// masks xNonNeg/yNonNeg (one shared in-lane permute, two lane moves).
constexpr Intrinsics KnownOps{2, 7};
constexpr Intrinsics StraddleOps{0, 3}; // dupFirst, dupSecond, swap

void printMul(const char *Case, uint64_t Flops, Intrinsics I) {
  std::printf("table3,multiplication-%s,flops,%llu,114\n", Case,
              (unsigned long long)Flops);
  std::printf("table3,multiplication-%s,arith-intrinsics,%d,27\n", Case,
              I.Arith);
  std::printf("table3,multiplication-%s,shuffles,%d,29\n", Case, I.Shuffles);
  std::printf("table3,multiplication-%s,total-intrinsics,%d,56\n", Case,
              I.total());
}

} // namespace

int main() {
  RoundUpwardScope Up;
  Dd X(1.25, 3e-18), Y(2.5, -1e-17);

  // Per-endpoint counts; an interval operation runs the endpoint
  // algorithm twice (add), once per endpoint or twice per endpoint (mul:
  // sign-known or straddling factor), or per sign-selected quotient
  // (div: 2).
  uint64_t AddEp = countFlops([&] { (void)ddAddUp<CountingOps>(X, Y); });
  uint64_t MulEp = countFlops([&] { (void)ddMulUp<CountingOps>(X, Y); });
  uint64_t DivEp = countFlops([&] { (void)ddDivUp<CountingOps>(X, Y); });

  std::printf("table,operation,metric,ours,paper\n");
  std::printf("table3,addition,flops,%llu,40\n",
              (unsigned long long)(2 * AddEp));
  std::printf("table3,division,flops,%llu,158\n",
              (unsigned long long)(2 * DivEp));

  // Intrinsic counts of the AVX implementations (static; see DdSimd.h).
  // Addition (addUp): twoSum256(6) + 2 adds + 2 fastTwoSum256(3) + 3
  // shuffles.
  std::printf("table3,addition,arith-intrinsics,14,14\n");
  std::printf("table3,addition,shuffles,3,3\n");
  std::printf("table3,addition,total-intrinsics,17,17\n");
  // Multiplication by sign case: one pairwise product when neither
  // factor straddles zero, two plus a pairwise maximum when one does.
  printMul("sign-known", 2 * MulEp, SignTest + KnownOps + PairMul);
  printMul("straddle", 4 * MulEp,
           SignTest + StraddleOps + PairMul * 2 + PairMax);
  // Division: scalar sign-case path in this implementation.
  std::printf("table3,division,total-intrinsics,scalar-path,85\n");
  return 0;
}
