//===- BatchKernels.h - Batched interval array runtime ----------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched interval array runtime: contiguous-array kernels over
/// double-precision intervals with runtime CPU dispatch (CpuDispatch.h)
/// and deterministic, sound parallel reductions (BatchReduce.cpp).
///
/// Layouts. An array of N igen::Interval values is N contiguous
/// (-lo, hi) double pairs. IntervalSse stores exactly one such pair per
/// __m128d, so both arrays share one byte layout; the overloads at the end
/// reinterpret IntervalSse arrays onto the canonical Interval kernels (a
/// static_assert verifies the size).
///
/// Entry path. Every elementwise iarr_* entry here and every ddarr_* entry
/// (DdBatch.h) is one call to detail::runBatch, templated over the element
/// type, which owns the steps below in one fixed order.
///
/// Rounding. Every entry point establishes upward rounding internally
/// (RAII) and restores the caller's mode — callers do NOT need to be
/// inside a RoundUpwardScope, and the parallel reductions set the mode
/// per worker task. After establishing the mode, every entry point runs
/// the fenv sentinel (harden/FenvSentinel.h) exactly once — the hot loop
/// stays clean — so an FTZ/DAZ or rounding clobber left behind by
/// foreign code is detected and handled per IGEN_FENV_POLICY before any
/// bound is computed; under the poison policy the whole output batch
/// (or reduction result) degrades to [-inf, +inf], which is sound.
///
/// Aliasing. Elementwise kernels compute element i from element i only,
/// and every dispatch tier loads a block's inputs before storing its
/// outputs, so FULL aliasing (Dst == X and/or Dst == Y, identical base
/// pointer) is supported. PARTIAL overlap (Dst offset into an input
/// range) is a caller bug: debug builds assert on it; release builds
/// copy the overlapping input to scratch and proceed with defined
/// results. N == 0 is a no-op on every entry point.
///
/// Determinism. iarr_sum / iarr_dot accumulate in a fixed chunked order
/// (kReduceChunk elements per chunk, kReduceLanes interleaved
/// double-double chains per chunk, chunk partials merged in a fixed
/// pairwise tree over the chunk index). Dot products come from one
/// multiply routine compiled into BatchReduce.cpp, not from the
/// dispatched elementwise kernels. The order and the product bits
/// therefore depend only on N — never on the thread count or the
/// IGEN_ISA / forceIsa selection — so reduction results are
/// bit-reproducible from 1 to N threads and across ISA overrides.
/// Soundness (the result encloses every real sum/dot of reals drawn
/// from the inputs) holds unconditionally.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_RUNTIME_BATCHKERNELS_H
#define IGEN_RUNTIME_BATCHKERNELS_H

#include "harden/FaultInject.h"
#include "harden/FenvSentinel.h"
#include "interval/Interval.h"
#include "interval/IntervalSimd.h"
#include "interval/Rounding.h"
#include "runtime/CpuDispatch.h"

#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

namespace igen::runtime {

/// Intervals per reduction chunk. Fixed: changing it changes the
/// accumulation order and therefore the bit pattern of sum/dot results.
inline constexpr size_t kReduceChunk = 1024;

/// Interleaved double-double accumulator chains per chunk (covers the
/// ddAddUp latency chain; part of the fixed accumulation order). Lane j
/// takes elements with index ≡ j (mod kReduceLanes); the chains run four
/// per AVX register (two intervals, both endpoints).
inline constexpr size_t kReduceLanes = 8;

static_assert(sizeof(Interval) == 2 * sizeof(double));
static_assert(sizeof(IntervalSse) == sizeof(Interval));

//===----------------------------------------------------------------------===//
// The entry path (sentinel, aliasing contract, fault injection)
//===----------------------------------------------------------------------===//

namespace detail {

/// True when [A, A+N) and [B, B+N) overlap other than by being the exact
/// same range (A == B, which every kernel supports). Compared as
/// integers: A and B may point into unrelated arrays, where raw pointer
/// ordering is unspecified.
template <class T>
inline bool partialOverlap(const T *A, const T *B, size_t N) {
  if (A == B || N == 0)
    return false;
  uintptr_t LA = reinterpret_cast<uintptr_t>(A);
  uintptr_t LB = reinterpret_cast<uintptr_t>(B);
  uintptr_t Bytes = N * sizeof(T);
  return LA < LB + Bytes && LB < LA + Bytes;
}

/// Poison an output batch: every element becomes the whole line. Runs on
/// the sentinel's cold path only.
template <class T> [[gnu::cold]] inline void poisonBatch(T *Dst, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Dst[I] = T::entire();
}

/// Shared batch prologue, run once per kernel invocation with upward
/// rounding already established. Returns true when the caller must
/// poison its results and return.
template <class T>
inline bool batchPrologue(const char *Where, T *Dst, size_t N) {
  if (__builtin_expect(harden::checkFenvUpward(Where), 0)) {
    poisonBatch(Dst, N);
    return true;
  }
  return false;
}

/// Fault-injection support: when a nan/inf operand fault fires for this
/// invocation, copy \p X to \p Scratch with element N % \p N corrupted
/// and return Scratch.data(); otherwise return \p X unchanged. The
/// disarmed cost is one relaxed load + branch.
template <class T>
inline const T *maybeCorrupt(const T *X, size_t N, std::vector<T> &Scratch) {
  if (__builtin_expect(!harden::faultsArmedFromEnv(), 1) || N == 0)
    return X;
  long long At = 0;
  bool Nan = harden::faultFires(harden::FaultKind::Nan, &At);
  bool Inf = !Nan && harden::faultFires(harden::FaultKind::Inf, &At);
  if (!Nan && !Inf)
    return X;
  Scratch.assign(X, X + N);
  Scratch[static_cast<size_t>(At) % N] =
      Nan ? T::nan() : T::fromPoint(HUGE_VAL);
  return Scratch.data();
}

/// Release-build fallback of the aliasing contract: copy \p In to
/// \p Scratch when it partially overlaps [Dst, Dst+N). Debug builds
/// assert instead (the overlap is a caller bug; the copy merely keeps
/// the behavior defined).
template <class T>
inline const T *resolveOverlap(T *Dst, const T *In, size_t N,
                               std::vector<T> &Scratch) {
  if (__builtin_expect(!partialOverlap(Dst, In, N), 1))
    return In;
  assert(!"batch input partially overlaps the output range");
  Scratch.assign(In, In + N);
  return Scratch.data();
}

/// The one entry path of every elementwise iarr_* and ddarr_* kernel:
/// N == 0 returns; upward rounding for the call; the fenv prologue; the
/// overlap fallback for each input; the fault on the first input; then
/// \p Dispatch, called with the resolved input pointers.
template <class T, size_t K, class DispatchFn>
inline void runBatch(const char *Where, T *Dst, const T *const (&In)[K],
                     size_t N, DispatchFn Dispatch) {
  if (N == 0)
    return;
  RoundUpwardScope Up;
  if (batchPrologue(Where, Dst, N))
    return;
  std::vector<T> Scratch[K + 1];
  std::array<const T *, K> P;
  for (size_t I = 0; I < K; ++I)
    P[I] = resolveOverlap(Dst, In[I], N, Scratch[I]);
  P[0] = maybeCorrupt(P[0], N, Scratch[K]);
  std::apply(Dispatch, P);
}

} // namespace detail

//===----------------------------------------------------------------------===//
// Elementwise kernels (CPU-dispatched)
//===----------------------------------------------------------------------===//

/// Dst[i] = X[i] + Y[i].
inline void iarr_add(Interval *Dst, const Interval *X, const Interval *Y,
                     size_t N) {
  detail::runBatch("iarr_add", Dst, {X, Y}, N,
                   [&](auto... P) { kernels().Add(Dst, P..., N); });
}

/// Dst[i] = X[i] - Y[i].
inline void iarr_sub(Interval *Dst, const Interval *X, const Interval *Y,
                     size_t N) {
  detail::runBatch("iarr_sub", Dst, {X, Y}, N,
                   [&](auto... P) { kernels().Sub(Dst, P..., N); });
}

/// Dst[i] = X[i] * Y[i].
inline void iarr_mul(Interval *Dst, const Interval *X, const Interval *Y,
                     size_t N) {
  detail::runBatch("iarr_mul", Dst, {X, Y}, N,
                   [&](auto... P) { kernels().Mul(Dst, P..., N); });
}

/// Dst[i] = A[i] * B[i] + C[i] (fused single-rounding candidates on the
/// AVX2+FMA tier, composed mul+add elsewhere; the fused result is a
/// subset of the composed one).
inline void iarr_fma(Interval *Dst, const Interval *A, const Interval *B,
                     const Interval *C, size_t N) {
  detail::runBatch("iarr_fma", Dst, {A, B, C}, N,
                   [&](auto... P) { kernels().Fma(Dst, P..., N); });
}

/// Dst[i] = X[i] * S.
inline void iarr_scale(Interval *Dst, const Interval *X, const Interval &S,
                       size_t N) {
  detail::runBatch("iarr_scale", Dst, {X}, N,
                   [&](auto P) { kernels().Scale(Dst, P, S, N); });
}

/// Dst[i] = X[i] / Y[i]. Every tier routes each element through the same
/// sign-specialized lowering the scalar compiler output uses (iDivP for
/// strictly positive divisors, iDivN for strictly negative ones, the
/// generic iDiv case analysis otherwise), so results are bit-identical
/// across ISA tiers on all inputs. Divisors containing zero are sound:
/// the generic path yields the half-line / entire-line / NaN enclosures
/// of iDiv per element.
inline void iarr_div(Interval *Dst, const Interval *X, const Interval *Y,
                     size_t N) {
  detail::runBatch("iarr_div", Dst, {X, Y}, N,
                   [&](auto... P) { kernels().Div(Dst, P..., N); });
}

/// Dst[i] = sqrt(X[i]) with iSqrt semantics (bit-identical across tiers;
/// negative and NaN inputs degrade per element exactly like iSqrt).
inline void iarr_sqrt(Interval *Dst, const Interval *X, size_t N) {
  detail::runBatch("iarr_sqrt", Dst, {X}, N,
                   [&](auto P) { kernels().Sqrt(Dst, P, N); });
}

/// Dst[i] = certified enclosure of exp(X[i]) (iExpFast semantics: the
/// polynomial fast path inside |x| <= 690, the libm-widened iExp
/// outside). The SIMD tiers evaluate both endpoints in parallel lanes
/// with the exact scalar operation sequence, so results are
/// bit-identical across ISA tiers.
inline void iarr_exp(Interval *Dst, const Interval *X, size_t N) {
  detail::runBatch("iarr_exp", Dst, {X}, N,
                   [&](auto P) { kernels().Exp(Dst, P, N); });
}

/// Dst[i] = certified enclosure of log(X[i]) (iLogFast semantics).
inline void iarr_log(Interval *Dst, const Interval *X, size_t N) {
  detail::runBatch("iarr_log", Dst, {X}, N,
                   [&](auto P) { kernels().Log(Dst, P, N); });
}

/// Dst[i] = certified enclosure of sin(X[i]) (iSinFast semantics; the
/// range analysis keeps this scalar in every tier).
inline void iarr_sin(Interval *Dst, const Interval *X, size_t N) {
  detail::runBatch("iarr_sin", Dst, {X}, N,
                   [&](auto P) { kernels().Sin(Dst, P, N); });
}

/// Dst[i] = certified enclosure of cos(X[i]) (iCosFast semantics).
inline void iarr_cos(Interval *Dst, const Interval *X, size_t N) {
  detail::runBatch("iarr_cos", Dst, {X}, N,
                   [&](auto P) { kernels().Cos(Dst, P, N); });
}

//===----------------------------------------------------------------------===//
// Sound reductions (deterministic chunked order; see file comment)
//===----------------------------------------------------------------------===//

/// Sum of X[0..N-1], accumulated per-endpoint in double-double
/// (SumAccumulatorF64's representation) and rounded outward once at the
/// end. N == 0 yields [0, 0].
Interval iarr_sum(const Interval *X, size_t N);

/// Dot product sum(X[i] * Y[i]); the multiplies are fused into the
/// accumulation loop (fixed routine, independent of the dispatched
/// tier), accumulation as in iarr_sum.
Interval iarr_dot(const Interval *X, const Interval *Y, size_t N);

/// Enclosure of the Euclidean norm sqrt(sum X[i]^2): the dot(X, X)
/// enclosure intersected with [0, inf) (squares of reals are
/// nonnegative), then iSqrt.
Interval iarr_norm2(const Interval *X, size_t N);

/// Multithreaded variants: identical bit patterns to the serial versions
/// for every thread count (the chunk/merge structure is fixed by N).
/// Threads == 0 uses all pool participants; Threads == 1 runs inline.
Interval iarr_sum_par(const Interval *X, size_t N, unsigned Threads = 0);
Interval iarr_dot_par(const Interval *X, const Interval *Y, size_t N,
                      unsigned Threads = 0);

//===----------------------------------------------------------------------===//
// Layout overloads: IntervalSse arrays (igen_lib.h's ia_arr_* with
// IGEN_BATCH_RUNTIME)
//===----------------------------------------------------------------------===//

inline Interval *asIntervals(IntervalSse *P) {
  return reinterpret_cast<Interval *>(P);
}
inline const Interval *asIntervals(const IntervalSse *P) {
  return reinterpret_cast<const Interval *>(P);
}

inline void iarr_add(IntervalSse *Dst, const IntervalSse *X,
                     const IntervalSse *Y, size_t N) {
  iarr_add(asIntervals(Dst), asIntervals(X), asIntervals(Y), N);
}
inline void iarr_sub(IntervalSse *Dst, const IntervalSse *X,
                     const IntervalSse *Y, size_t N) {
  iarr_sub(asIntervals(Dst), asIntervals(X), asIntervals(Y), N);
}
inline void iarr_mul(IntervalSse *Dst, const IntervalSse *X,
                     const IntervalSse *Y, size_t N) {
  iarr_mul(asIntervals(Dst), asIntervals(X), asIntervals(Y), N);
}
inline void iarr_div(IntervalSse *Dst, const IntervalSse *X,
                     const IntervalSse *Y, size_t N) {
  iarr_div(asIntervals(Dst), asIntervals(X), asIntervals(Y), N);
}
inline void iarr_sqrt(IntervalSse *Dst, const IntervalSse *X, size_t N) {
  iarr_sqrt(asIntervals(Dst), asIntervals(X), N);
}

} // namespace igen::runtime

#endif // IGEN_RUNTIME_BATCHKERNELS_H
