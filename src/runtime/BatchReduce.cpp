//===- BatchReduce.cpp - Deterministic sound parallel reductions ----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Chunked sum/dot over interval arrays with a fixed accumulation order.
// Following Revol-Théveny, parallel interval reductions are only
// trustworthy when the result does not depend on the execution schedule,
// so the order here is a function of N alone:
//
//   1. The array is cut into fixed chunks of kReduceChunk intervals.
//   2. Inside a chunk, kReduceLanes interleaved double-double chains
//      (lane j accumulates elements with index ≡ j mod kReduceLanes,
//      using the upward-rounded ddAddUp of SumAccumulatorF64's
//      representation), combined pairwise into the chunk partial.
//   3. Chunk partials merge in a fixed pairwise tree over the chunk
//      index (stride 1, 2, 4, ...), on the calling thread.
//
// Threads only decide *who* computes a chunk partial, never the order in
// which values meet, so results are bit-identical from 1 to N threads.
// Every worker task establishes upward rounding with the Rounding.h RAII
// guard and restores the thread's previous mode when it finishes.
//
// The chain update runs four lanes per AVX register (two intervals, both
// endpoints): IEEE ops are lanewise, so the packed sequence is
// bit-identical to running the scalar sequence on each lane, and the
// scalar tail below reuses that exact sequence. Dot products come from
// the pack multiply of interval/IntervalSimd.h compiled into this TU (two
// at a time, the 128-bit op for tail elements, which computes the same
// bits), so reduction bits do not depend on the dispatched elementwise
// ISA tier at all.
//
//===----------------------------------------------------------------------===//

#include "harden/FaultInject.h"
#include "harden/FenvSentinel.h"
#include "interval/Accumulator.h"
#include "interval/DoubleDouble.h"
#include "interval/IntervalVector.h"
#include "runtime/BatchKernels.h"
#include "runtime/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <immintrin.h>
#include <new>
#include <vector>

namespace igen::runtime {

namespace {

/// Per-chunk partial sums: both endpoints in double-double, upper bounds
/// of the exact (negated-low, high) endpoint sums.
struct DdPartial {
  Dd NegLo;
  Dd Hi;
};

/// One step of a double-double chain: (H, L) += B for a plain double
/// addend. This is ddAddUp((H, L), Dd(B)) with the operations whose
/// inputs are exactly zero removed (twoSum against 0 and the final
/// TE + VE add are exact identities), so the result is bit-identical to
/// the general routine while costing 13 flops instead of 20.
inline void ddAccum1(double &H, double &L, double B) {
  double S = H + B;
  double A1 = S - B;
  double B1 = S - A1;
  double DA = H - A1;
  double DB = B - B1;
  double SE = DA + DB;
  double C = SE + L;
  double VH = S + C;
  double Z = VH - S;
  double VE = C - Z;
  double ZH = VH + VE;
  double Z2 = ZH - VH;
  double ZL = VE - Z2;
  H = ZH;
  L = ZL;
}

/// Four ddAccum1 chains at once (two intervals: lanes are
/// (-lo0, hi0, -lo1, hi1)). Packed IEEE ops round lanewise, so each lane
/// computes exactly the scalar sequence above.
inline void ddAccum4(__m256d &H, __m256d &L, __m256d B) {
  __m256d S = _mm256_add_pd(H, B);
  __m256d A1 = _mm256_sub_pd(S, B);
  __m256d B1 = _mm256_sub_pd(S, A1);
  __m256d DA = _mm256_sub_pd(H, A1);
  __m256d DB = _mm256_sub_pd(B, B1);
  __m256d SE = _mm256_add_pd(DA, DB);
  __m256d C = _mm256_add_pd(SE, L);
  __m256d VH = _mm256_add_pd(S, C);
  __m256d Z = _mm256_sub_pd(VH, S);
  __m256d VE = _mm256_sub_pd(C, Z);
  __m256d ZH = _mm256_add_pd(VH, VE);
  __m256d Z2 = _mm256_sub_pd(ZH, VH);
  __m256d ZL = _mm256_sub_pd(VE, Z2);
  H = ZH;
  L = ZL;
}

static_assert(kReduceLanes == 8, "chunk loops below assume 8 lanes");

/// Register-resident chain state for one chunk: four vector groups of
/// four lanes; group g holds element classes 2g and 2g+1 (mod 8), so
/// spilling group g to slots [4g, 4g+4) puts the class-k NegLo chain at
/// scalar slot 2k and its Hi chain at 2k+1.
struct ChunkAcc {
  __m256d H0, L0, H1, L1, H2, L2, H3, L3;

  ChunkAcc() {
    H0 = L0 = H1 = L1 = H2 = L2 = H3 = L3 = _mm256_setzero_pd();
  }

  void step8(__m256d B0, __m256d B1, __m256d B2, __m256d B3) {
    ddAccum4(H0, L0, B0);
    ddAccum4(H1, L1, B1);
    ddAccum4(H2, L2, B2);
    ddAccum4(H3, L3, B3);
  }

  /// Spills the vector chains and folds in the (< kReduceLanes) tail
  /// elements, \p Get mapping an element index to its Interval term;
  /// then combines the 2 * kReduceLanes chains in a fixed pairwise tree.
  template <typename GetFn>
  DdPartial finish(size_t I, size_t N, const GetFn &Get) {
    alignas(32) double HA[2 * kReduceLanes], LA[2 * kReduceLanes];
    _mm256_store_pd(HA + 0, H0);
    _mm256_store_pd(HA + 4, H1);
    _mm256_store_pd(HA + 8, H2);
    _mm256_store_pd(HA + 12, H3);
    _mm256_store_pd(LA + 0, L0);
    _mm256_store_pd(LA + 4, L1);
    _mm256_store_pd(LA + 8, L2);
    _mm256_store_pd(LA + 12, L3);
    for (; I < N; ++I) {
      size_t K = I % kReduceLanes;
      Interval T = Get(I);
      ddAccum1(HA[2 * K], LA[2 * K], T.NegLo);
      ddAccum1(HA[2 * K + 1], LA[2 * K + 1], T.Hi);
    }
    auto Combine = [&](size_t Base) {
      Dd C[kReduceLanes];
      for (size_t K = 0; K < kReduceLanes; ++K)
        C[K] = Dd(HA[2 * K + Base], LA[2 * K + Base]);
      return ddAddUp(ddAddUp(ddAddUp(C[0], C[1]), ddAddUp(C[2], C[3])),
                     ddAddUp(ddAddUp(C[4], C[5]), ddAddUp(C[6], C[7])));
    };
    return {Combine(0), Combine(1)};
  }
};

/// Accumulates N (<= kReduceChunk) intervals into a chunk partial with
/// kReduceLanes interleaved chains. Requires upward rounding.
DdPartial sumChunk(const Interval *X, size_t N) {
  assertRoundUpward();
  ChunkAcc Acc;
  size_t I = 0;
  for (; I + kReduceLanes <= N; I += kReduceLanes)
    Acc.step8(_mm256_loadu_pd(&X[I].NegLo), _mm256_loadu_pd(&X[I + 2].NegLo),
              _mm256_loadu_pd(&X[I + 4].NegLo),
              _mm256_loadu_pd(&X[I + 6].NegLo));
  return Acc.finish(I, N, [X](size_t J) { return X[J]; });
}

/// Accumulates the products X[i] * Y[i] of one chunk, the multiplies
/// fused into the accumulation loop (IntervalX2 iMul, two at a time; the
/// IntervalSse iMul for tail elements). Requires upward rounding.
DdPartial dotChunk(const Interval *X, const Interval *Y, size_t N) {
  assertRoundUpward();
  ChunkAcc Acc;
  size_t I = 0;
  for (; I + kReduceLanes <= N; I += kReduceLanes) {
    auto Prod = [&](size_t Off) {
      return iMul(IntervalX2(_mm256_loadu_pd(&X[I + Off].NegLo)),
                  IntervalX2(_mm256_loadu_pd(&Y[I + Off].NegLo)))
          .V;
    };
    Acc.step8(Prod(0), Prod(2), Prod(4), Prod(6));
  }
  return Acc.finish(I, N, [X, Y](size_t J) {
    return iMul(IntervalSse::fromInterval(X[J]),
                IntervalSse::fromInterval(Y[J]))
        .toInterval();
  });
}

/// Merges chunk partials in a fixed pairwise tree over the chunk index.
/// Requires upward rounding.
DdPartial mergePartials(std::vector<DdPartial> &P) {
  assertRoundUpward();
  for (size_t Stride = 1; Stride < P.size(); Stride *= 2)
    for (size_t I = 0; I + Stride < P.size(); I += 2 * Stride) {
      P[I].NegLo = ddAddUp(P[I].NegLo, P[I + Stride].NegLo);
      P[I].Hi = ddAddUp(P[I].Hi, P[I + Stride].Hi);
    }
  return P[0];
}

/// Sound degradation when the scratch-partial allocation fails (real
/// std::bad_alloc or the injected 'alloc' fault): the whole line encloses
/// every possible sum/dot, so the result stays correct, just useless.
[[gnu::cold]] Interval allocDegrade(const char *Where) {
  static std::atomic<bool> Warned{false};
  if (!Warned.exchange(true))
    std::fprintf(stderr,
                 "igen: warning: scratch allocation failed in %s; "
                 "returning [-inf, +inf] (sound degradation). Further "
                 "failures are silent.\n",
                 Where);
  return Interval::entire();
}

/// Shared driver: computes per-chunk partials (serially or on the pool),
/// then merges and rounds outward on the calling thread. ChunkFn maps
/// (Begin, Len) to a DdPartial and must itself establish upward rounding.
/// The fenv sentinel runs once per reduction, before any partial is
/// computed; under the poison policy a clobbered environment degrades
/// the whole result to [-inf, +inf].
template <typename ChunkFn>
Interval reduceChunked(const char *Where, size_t N, unsigned Threads,
                       const ChunkFn &Fn) {
  if (N == 0)
    return Interval::fromPoint(0.0);
  {
    RoundUpwardScope Up;
    if (__builtin_expect(harden::checkFenvUpward(Where), 0))
      return Interval::entire();
  }
  size_t NumChunks = (N + kReduceChunk - 1) / kReduceChunk;
  std::vector<DdPartial> Partials;
  if (__builtin_expect(harden::faultsArmedFromEnv(), 0) &&
      harden::faultFires(harden::FaultKind::Alloc))
    return allocDegrade(Where);
  try {
    Partials.resize(NumChunks);
  } catch (const std::bad_alloc &) {
    return allocDegrade(Where);
  }
  auto Task = [&](size_t C) {
    size_t Begin = C * kReduceChunk;
    Partials[C] = Fn(Begin, std::min(kReduceChunk, N - Begin));
  };
  if (Threads == 1 || NumChunks == 1)
    for (size_t C = 0; C < NumChunks; ++C)
      Task(C);
  else
    ThreadPool::instance().parallelFor(NumChunks, Threads, Task);
  RoundUpwardScope Up;
  DdPartial R = mergePartials(Partials);
  return Interval(ddToDoubleUp(R.NegLo), ddToDoubleUp(R.Hi));
}

Interval sumImpl(const Interval *X, size_t N, unsigned Threads) {
  return reduceChunked("iarr_sum", N, Threads,
                       [X](size_t Begin, size_t Len) {
    RoundUpwardScope Up; // Per-task: restores the worker's mode after.
    return sumChunk(X + Begin, Len);
  });
}

Interval dotImpl(const Interval *X, const Interval *Y, size_t N,
                 unsigned Threads) {
  return reduceChunked("iarr_dot", N, Threads,
                       [X, Y](size_t Begin, size_t Len) {
    RoundUpwardScope Up;
    return dotChunk(X + Begin, Y + Begin, Len);
  });
}

} // namespace

Interval iarr_sum(const Interval *X, size_t N) { return sumImpl(X, N, 1); }

Interval iarr_sum_par(const Interval *X, size_t N, unsigned Threads) {
  return sumImpl(X, N, Threads);
}

Interval iarr_dot(const Interval *X, const Interval *Y, size_t N) {
  return dotImpl(X, Y, N, 1);
}

Interval iarr_dot_par(const Interval *X, const Interval *Y, size_t N,
                      unsigned Threads) {
  return dotImpl(X, Y, N, Threads);
}

Interval iarr_norm2(const Interval *X, size_t N) {
  Interval Sq = iarr_dot(X, X, N);
  RoundUpwardScope Up;
  if (!Sq.hasNaN() && Sq.NegLo > 0.0)
    Sq.NegLo = 0.0; // True squares are >= 0: clip lo up to 0 (sound).
  return iSqrt(Sq);
}

} // namespace igen::runtime
