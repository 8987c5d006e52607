//===- Lane.h - Portable lane backends for the batched kernels --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lane abstraction behind the per-ISA batched-kernel TUs. A backend
/// describes one tier's memory side: its pack type, load/store (plain,
/// non-temporal and masked), the multiply's group screen and prefetch,
/// and a handful of compile-time traits. It defines no arithmetic: the
/// SIMD tiers run the pack ops of interval/IntervalSimd.h, written once
/// for every register width, and the scalar tier runs the scalar ops (see
/// BatchKernelsImpl.h). BatchKernelsImpl.h instantiates the kernel
/// templates over a backend, so BatchKernels{Scalar,Sse2,Avx,Avx2,
/// Avx512}.cpp are one-line table definitions.
///
/// Determinism contract (see BatchKernels.h): the SIMD tiers are
/// bit-identical to each other on all inputs, because every interval of
/// a pack, a tail or a peel runs the same 128-bit op with its own screen
/// and fallback; fma is fused or composed per tier (fused where the TU
/// has FMA), never by position. The scalar tier is the reference: equal
/// as a set, and bit-identical for div and sqrt, whose pack ops return
/// the scalar bits on every input.
///
/// Backends compile only under their ISA macros, so each TU sees exactly
/// the backends its -m flags allow.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_RUNTIME_LANE_H
#define IGEN_RUNTIME_LANE_H

#include "interval/Interval.h"
#include "interval/IntervalSimd.h"
#if defined(__AVX__)
#include "interval/IntervalVector.h"
#endif

#include <cstddef>
#include <cstdint>
#include <immintrin.h>

namespace igen::runtime::lanes {

/// One Interval per pack: the scalar reference tier.
struct ScalarLanes {
  using Pack = Interval;
  using Elem = ScalarLanes; ///< The backend of tails and peels.
  static constexpr size_t kIntervals = 1;
  static constexpr size_t kUnroll = 1;
  static constexpr bool kNtStores = false;
  static constexpr size_t kNtAlign = 16;
  static constexpr size_t kNtMinBatch = ~size_t(0);
  static constexpr bool kMaskedTail = false;
  static constexpr bool kGroupMul = false;

  static Pack load(const Interval *P) { return *P; }
  template <bool NT> static void store(Interval *P, const Pack &V) {
    *P = V;
  }
  static void storeFence() {}
  static Pack broadcast(const Interval &I) { return I; }
};

/// A SIMD tier over the pack type \p P (IntervalSse, IntervalX2 or
/// IntervalX4). Tails and non-temporal peels run its 128-bit backend.
template <class P> struct SimdLanes {
  using Pack = P;
  using Regs = F64Regs<P>;
  using Elem = SimdLanes<IntervalSse>;
  static constexpr size_t kIntervals = Regs::kIntervals;
  static constexpr size_t kUnroll = 1;
  static constexpr bool kNtStores = false;
  static constexpr size_t kNtAlign = 16 * kIntervals;
  static constexpr size_t kNtMinBatch = ~size_t(0);
  static constexpr bool kMaskedTail = false;
  static constexpr bool kGroupMul = false;

  static Pack load(const Interval *X) { return Pack(Regs::load(X)); }
  /// NT: non-temporal, which requires kNtAlign alignment.
  template <bool NT> static void store(Interval *X, const Pack &V) {
    if constexpr (NT)
      Regs::stream(X, V.V);
    else
      Regs::store(X, V.V);
  }
  static void storeFence() { _mm_sfence(); }
  static Pack broadcast(const Interval &I) { return Regs::broadcast(I); }

  /// Masked tail (kMaskedTail): \p K live intervals, benign dead lanes.
  static Pack maskLoad(const Interval *X, size_t K) {
    return Pack(Regs::maskLoad(X, K));
  }
  static void maskStore(Interval *X, size_t K, const Pack &V) {
    Regs::maskStore(X, K, V.V);
  }

  /// The group screen of the multiply (kGroupMul): a bitwise OR over four
  /// loaded pack pairs. An inf or NaN lane keeps its all-ones exponent
  /// through the OR, so |OR| >= inf (unordered on NaN) detects every
  /// special input; a spurious all-ones exponent assembled from different
  /// lanes' bits only reroutes the group through the checked multiply.
  static bool anySpecial(const Pack &X0, const Pack &Y0, const Pack &X1,
                         const Pack &Y1, const Pack &X2, const Pack &Y2,
                         const Pack &X3, const Pack &Y3) {
    typename Regs::D O = Regs::or_(
        Regs::or_(Regs::or_(X0.V, Y0.V), Regs::or_(X1.V, Y1.V)),
        Regs::or_(Regs::or_(X2.V, Y2.V), Regs::or_(X3.V, Y3.V)));
    return Regs::anyNotLt(Regs::and_(O, Regs::absMask()),
                          Regs::set1(__builtin_inf()));
  }
  /// Prefetching a few groups ahead hides part of the L3 latency on big
  /// batches.
  static void prefetchMul(const Interval *X, const Interval *Y, size_t I) {
    constexpr size_t Ahead = 8 * kIntervals, Next = 10 * kIntervals;
    _mm_prefetch(reinterpret_cast<const char *>(X + I + Ahead), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Y + I + Ahead), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(X + I + Next), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Y + I + Next), _MM_HINT_T0);
  }
};

/// One interval per __m128d.
using Sse2Lanes = SimdLanes<IntervalSse>;

#if defined(__AVX__)
/// Two intervals per __m256d.
using AvxLanes = SimdLanes<IntervalX2>;
#endif

#if defined(__AVX2__) && defined(__FMA__)
/// AVX2+FMA: two packs per iteration, the group-screened multiply, and
/// non-temporal stores once the three streams (~1.5 MB) outgrow a
/// typical L2.
struct Avx2Lanes : SimdLanes<IntervalX2> {
  static constexpr size_t kUnroll = 2;
  static constexpr bool kNtStores = true;
  static constexpr size_t kNtMinBatch = 32768;
  static constexpr bool kGroupMul = true;
};
#endif

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)
/// Four intervals per __m512d: the AVX2 strategies at twice the width,
/// with masked tails instead of a 128-bit remainder loop.
struct Avx512Lanes : SimdLanes<IntervalX4> {
  static constexpr size_t kUnroll = 2;
  static constexpr bool kNtStores = true;
  static constexpr size_t kNtMinBatch = 32768;
  static constexpr bool kMaskedTail = true;
  static constexpr bool kGroupMul = true;
};
#endif

} // namespace igen::runtime::lanes

#endif // IGEN_RUNTIME_LANE_H
