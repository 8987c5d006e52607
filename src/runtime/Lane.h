//===- Lane.h - Portable lane backends for the batched kernels --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lane abstraction behind the per-ISA batched-kernel TUs. A backend
/// describes one SIMD tier as a set of pack primitives (load/store,
/// add/sub/mul/fma/div/sqrt, masked tails, non-temporal stores) plus a
/// handful of compile-time traits; BatchKernelsImpl.h instantiates the
/// kernel templates over a backend, so BatchKernels{Scalar,Sse2,Avx,Avx2,
/// Avx512}.cpp are one-line table definitions instead of five hand-rolled
/// near-duplicates. A future NEON/SVE tier is a new backend struct here,
/// not a kernel rewrite.
///
/// Determinism contract (see BatchKernels.h): every backend's add/sub/
/// mul/scale/div/sqrt produce results bit-identical to the scalar tier
/// element by element. For div this is guaranteed on *all* inputs by
/// construction: each pack classifies its divisors exactly like the
/// scalar `divAuto` (lo > 0 / hi < 0 / generic), the sign-specialized
/// fast paths are lanewise transcriptions of the scalar candidate
/// schemes, and the NaN screen sums the candidates across the endpoint
/// lanes so every element sees the exact scalar check value; any screen
/// hit falls back to the scalar routine per element. The same holds for
/// sqrt (the vector fast path reproduces sqrtRoundDown's bits; anything
/// outside the open domain (0, inf) x [0, ...] goes to scalar iSqrt).
/// fma is the one exemption: the AVX2+/AVX-512 tiers fuse, which is
/// sound and *tighter* than the composed scalar reference.
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

//===----------------------------------------------------------------------===//
// Scalar helpers shared by every backend's slow paths
//===----------------------------------------------------------------------===//

/// The one scalar division every tier agrees on: route through the PR 2
/// sign-specialized lowerings exactly when their preconditions hold.
/// (NaN endpoints fail both compares and take the generic case analysis.)
inline Interval divAuto(const Interval &X, const Interval &Y) {
  if (-Y.NegLo > 0.0)
    return iDivP(X, Y); // divisor strictly positive
  if (Y.Hi < 0.0)
    return iDivN(X, Y); // divisor strictly negative
  return iDiv(X, Y);
}

/// The composed (unfused) fma reference shared by the scalar tails.
inline Interval fmaComposed(const Interval &A, const Interval &B,
                            const Interval &C) {
  return iAdd(iMul(A, B), C);
}

//===----------------------------------------------------------------------===//
// ScalarLanes: one Interval per pack, plain scalar ops
//===----------------------------------------------------------------------===//

struct ScalarLanes {
  using Pack = Interval;
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
  static Pack add(const Pack &X, const Pack &Y) { return iAdd(X, Y); }
  static Pack sub(const Pack &X, const Pack &Y) { return iSub(X, Y); }
  static Pack mul(const Pack &X, const Pack &Y) { return iMul(X, Y); }
  // Explicitly composed even though this TU may be compiled with FMA
  // available: the scalar tier is the bit-reference for the others.
  static Pack fma(const Pack &A, const Pack &B, const Pack &C) {
    return fmaComposed(A, B, C);
  }
  static Pack div(const Pack &X, const Pack &Y) { return divAuto(X, Y); }
  static Pack sqrt(const Pack &X) { return iSqrt(X); }
};

//===----------------------------------------------------------------------===//
// Sse2Lanes: one interval per __m128d
//===----------------------------------------------------------------------===//

namespace sse2 {

inline __m128d signLane0() { return _mm_set_pd(0.0, -0.0); }

/// Positive-divisor division, one packed interval. Lanewise transcription
/// of the scalar iDivP: V1 = (N1, H1), V2 = (N2, H2). The screen sums
/// *across* the lanes so it equals the scalar check (N1+N2)+(H1+H2)
/// exactly; on a hit the scalar routine redoes the element bit-for-bit.
inline IntervalSse divP(const IntervalSse &X, const IntervalSse &Y) {
  __m128d Yl =
      _mm_xor_pd(igen::detail::broadcastLo(Y.V), _mm_set1_pd(-0.0));
  __m128d V1 = _mm_div_pd(X.V, Yl);
  __m128d V2 = _mm_div_pd(X.V, igen::detail::broadcastHi(Y.V));
  __m128d C = _mm_add_pd(V1, V2);
  __m128d Check = _mm_add_pd(C, igen::detail::swapLanes(C));
  if (__builtin_expect(igen::detail::anyNaN(Check), 0))
    return IntervalSse::fromInterval(
        iDivP(X.toInterval(), Y.toInterval()));
  return IntervalSse(_mm_max_pd(V1, V2));
}

/// Negative-divisor division; a/(-b) == (-a)/b under the same rounding,
/// so swapping X's lanes and negating the divisor reproduces the scalar
/// candidates N1 = (-xh)/yh, H1 = (-xn)/yh, N2 = xh/yn, H2 = xn/yn.
inline IntervalSse divN(const IntervalSse &X, const IntervalSse &Y) {
  __m128d A = igen::detail::swapLanes(X.V); // (xh, xn)
  __m128d Yh =
      _mm_xor_pd(igen::detail::broadcastHi(Y.V), _mm_set1_pd(-0.0));
  __m128d V1 = _mm_div_pd(A, Yh);
  __m128d V2 = _mm_div_pd(A, igen::detail::broadcastLo(Y.V));
  __m128d C = _mm_add_pd(V1, V2);
  __m128d Check = _mm_add_pd(C, igen::detail::swapLanes(C));
  if (__builtin_expect(igen::detail::anyNaN(Check), 0))
    return IntervalSse::fromInterval(
        iDivN(X.toInterval(), Y.toInterval()));
  return IntervalSse(_mm_max_pd(V1, V2));
}

/// Packed sqrt of one interval. Fast domain: lo in (0, inf) (finite,
/// strictly positive) and hi >= 0 with no NaN; everything else — lo <= 0,
/// lo == +inf, hi < 0, NaN endpoints — goes to scalar iSqrt. On the fast
/// path the hardware sqrt honors the ambient upward rounding for the hi
/// lane, and the lo lane reproduces sqrtRoundDown: under RU,
/// RU(s*s) == lo iff s*s == lo exactly, otherwise step one ulp down.
inline IntervalSse sqrtPack(const IntervalSse &X) {
  const __m128d Zero = _mm_setzero_pd();
  int MLt = _mm_movemask_pd(_mm_cmplt_pd(X.V, Zero));
  int MGt = _mm_movemask_pd(
      _mm_cmpgt_pd(X.V, _mm_set1_pd(-__builtin_inf())));
  int MGe = _mm_movemask_pd(_mm_cmpge_pd(X.V, Zero));
  if (__builtin_expect(!((MLt & MGt & 1) && (MGe & 2)), 0))
    return IntervalSse::fromInterval(iSqrt(X.toInterval()));
  __m128d SignLo = signLane0();
  __m128d Vpos = _mm_xor_pd(X.V, SignLo); // (lo, hi)
  __m128d S = _mm_sqrt_pd(Vpos);
  __m128d SS = _mm_mul_pd(S, S);
  __m128d Eq = _mm_cmpeq_pd(SS, Vpos);
  __m128d Sm1 = _mm_castsi128_pd(
      _mm_sub_epi64(_mm_castpd_si128(S), _mm_set1_epi64x(1)));
  __m128d Down = _mm_or_pd(_mm_and_pd(Eq, S), _mm_andnot_pd(Eq, Sm1));
  return IntervalSse(
      _mm_shuffle_pd(_mm_xor_pd(Down, SignLo), S, 0b10));
}

} // namespace sse2

struct Sse2Lanes {
  using Pack = IntervalSse;
  static constexpr size_t kIntervals = 1;
  static constexpr size_t kUnroll = 1;
  static constexpr bool kNtStores = false;
  static constexpr size_t kNtAlign = 16;
  static constexpr size_t kNtMinBatch = ~size_t(0);
  static constexpr bool kMaskedTail = false;
  static constexpr bool kGroupMul = false;

  static Pack load(const Interval *P) {
    return Pack(_mm_loadu_pd(&P->NegLo));
  }
  template <bool NT> static void store(Interval *P, const Pack &V) {
    _mm_storeu_pd(&P->NegLo, V.V);
  }
  static void storeFence() {}
  static Pack broadcast(const Interval &I) {
    return Pack::fromInterval(I);
  }
  static Pack add(const Pack &X, const Pack &Y) { return iAdd(X, Y); }
  static Pack sub(const Pack &X, const Pack &Y) { return iSub(X, Y); }
  static Pack mul(const Pack &X, const Pack &Y) { return iMul(X, Y); }
  static Pack fma(const Pack &A, const Pack &B, const Pack &C) {
    return iAdd(iMul(A, B), C);
  }
  static Pack div(const Pack &X, const Pack &Y) {
    igen::assertRoundUpward();
    int NegMask = _mm_movemask_pd(_mm_cmplt_pd(Y.V, _mm_setzero_pd()));
    if (NegMask & 1) // -lo < 0, i.e. lo > 0
      return sse2::divP(X, Y);
    if (NegMask & 2) // hi < 0
      return sse2::divN(X, Y);
    return Pack::fromInterval(divAuto(X.toInterval(), Y.toInterval()));
  }
  static Pack sqrt(const Pack &X) {
    igen::assertRoundUpward();
    return sse2::sqrtPack(X);
  }
};

//===----------------------------------------------------------------------===//
// AvxLanes / Avx2Lanes: two intervals per __m256d
//===----------------------------------------------------------------------===//

#if defined(__AVX__)

namespace avx {

/// Bit-decrement of every lane (nextDown for positive finite nonzero
/// doubles). AVX1 has no 256-bit integer subtract, so split; under AVX2
/// the single instruction produces the same bits.
inline __m256d subOneBit(__m256d S) {
#if defined(__AVX2__)
  return _mm256_castsi256_pd(
      _mm256_sub_epi64(_mm256_castpd_si256(S), _mm256_set1_epi64x(1)));
#else
  __m128i One = _mm_set1_epi64x(1);
  __m128i Lo = _mm_castpd_si128(_mm256_castpd256_pd128(S));
  __m128i Hi = _mm_castpd_si128(_mm256_extractf128_pd(S, 1));
  return _mm256_insertf128_pd(
      _mm256_castpd128_pd256(_mm_castsi128_pd(_mm_sub_epi64(Lo, One))),
      _mm_castsi128_pd(_mm_sub_epi64(Hi, One)), 1);
#endif
}

/// Two packed intervals through the scalar-equivalent division routing.
inline IntervalX2 divPack(const IntervalX2 &X, const IntervalX2 &Y) {
  int NegMask = _mm256_movemask_pd(
      _mm256_cmp_pd(Y.V, _mm256_setzero_pd(), _CMP_LT_OQ));
  if ((NegMask & 0b0101) == 0b0101) // both lo > 0
    return iDivP(X, Y);
  if ((NegMask & 0b1010) == 0b1010) // both hi < 0
    return iDivN(X, Y);
  return IntervalX2::fromIntervals(
      divAuto(X.interval(0), Y.interval(0)),
      divAuto(X.interval(1), Y.interval(1)));
}

/// Two packed intervals through the SSE2-identical sqrt scheme.
inline IntervalX2 sqrtPack(const IntervalX2 &X) {
  const __m256d Zero = _mm256_setzero_pd();
  int MLt = _mm256_movemask_pd(_mm256_cmp_pd(X.V, Zero, _CMP_LT_OQ));
  int MGt = _mm256_movemask_pd(
      _mm256_cmp_pd(X.V, _mm256_set1_pd(-__builtin_inf()), _CMP_GT_OQ));
  int MGe = _mm256_movemask_pd(_mm256_cmp_pd(X.V, Zero, _CMP_GE_OQ));
  if (__builtin_expect(!(((MLt & MGt) & 0b0101) == 0b0101 &&
                         (MGe & 0b1010) == 0b1010),
                       0))
    return IntervalX2::fromIntervals(iSqrt(X.interval(0)),
                                     iSqrt(X.interval(1)));
  __m256d SignLo = igen::detail::signLoMask256();
  __m256d Vpos = _mm256_xor_pd(X.V, SignLo);
  __m256d S = _mm256_sqrt_pd(Vpos);
  __m256d SS = _mm256_mul_pd(S, S);
  __m256d Eq = _mm256_cmp_pd(SS, Vpos, _CMP_EQ_OQ);
  __m256d Down = _mm256_blendv_pd(subOneBit(S), S, Eq);
  return IntervalX2(
      _mm256_blend_pd(_mm256_xor_pd(Down, SignLo), S, 0b1010));
}

} // namespace avx

struct AvxLanes {
  using Pack = IntervalX2;
  static constexpr size_t kIntervals = 2;
  static constexpr size_t kUnroll = 1;
  static constexpr bool kNtStores = false;
  static constexpr size_t kNtAlign = 32;
  static constexpr size_t kNtMinBatch = ~size_t(0);
  static constexpr bool kMaskedTail = false;
  static constexpr bool kGroupMul = false;

  static Pack load(const Interval *P) {
    return Pack(_mm256_loadu_pd(&P->NegLo));
  }
  template <bool NT> static void store(Interval *P, const Pack &V) {
    if constexpr (NT)
      _mm256_stream_pd(&P->NegLo, V.V); // requires 32-byte alignment
    else
      _mm256_storeu_pd(&P->NegLo, V.V);
  }
  static void storeFence() { _mm_sfence(); }
  static Pack broadcast(const Interval &I) { return Pack::broadcast(I); }
  static Pack add(const Pack &X, const Pack &Y) { return iAdd(X, Y); }
  static Pack sub(const Pack &X, const Pack &Y) { return iSub(X, Y); }
  static Pack mul(const Pack &X, const Pack &Y) { return iMul(X, Y); }
  static Pack fma(const Pack &A, const Pack &B, const Pack &C) {
    return iAdd(iMul(A, B), C);
  }
  static Pack div(const Pack &X, const Pack &Y) {
    igen::assertRoundUpward();
    return avx::divPack(X, Y);
  }
  static Pack sqrt(const Pack &X) {
    igen::assertRoundUpward();
    return avx::sqrtPack(X);
  }
};

#endif // __AVX__

#if defined(__AVX2__) && defined(__FMA__)

namespace avx2 {

/// The IntervalVector.h iMul candidate scheme reduced to one combined
/// result, with no per-pair NaN check: callers must have screened the
/// inputs (see the group multiply in BatchKernelsImpl.h). With all-finite
/// inputs no candidate can be NaN — finite * finite is a real, and
/// overflow to +/-inf only loosens the upper bound, which stays sound
/// under upward rounding.
inline __m256d mulScreened(__m256d X, __m256d Y) {
  using namespace igen::detail;
  __m256d Xn = broadcastLo256(X);
  __m256d Xh = broadcastHi256(X);
  __m256d Yn = broadcastLo256(Y);
  __m256d Yh = broadcastHi256(Y);
  __m256d YnNegLo = _mm256_xor_pd(Yn, signLoMask256());
  __m256d YnNegHi = swapLanes256(YnNegLo);
  __m256d XnNegHi = _mm256_xor_pd(Xn, signHiMask256());
  __m256d XhNegLo = _mm256_xor_pd(Xh, signLoMask256());
  __m256d V1 = _mm256_mul_pd(Xn, YnNegLo);
  __m256d V2 = _mm256_mul_pd(Xh, YnNegHi);
  __m256d V3 = _mm256_mul_pd(Yh, XnNegHi);
  __m256d V4 = _mm256_mul_pd(Yh, XhNegLo);
  return _mm256_max_pd(_mm256_max_pd(V1, V2), _mm256_max_pd(V3, V4));
}

/// Fused interval A*B + C on two packed intervals. Candidate layout is
/// the iMul scheme of IntervalVector.h with C.V as the FMA addend; the
/// hardware FMA rounds once under RU, so adding the addend inside each
/// candidate is sound *and* tighter than the composed RU(RU(p*q) + c) of
/// the other tiers. A NaN in any candidate routes both elements through
/// the conservative composed scalar path.
inline IntervalX2 fmaFused(const IntervalX2 &A, const IntervalX2 &B,
                           const IntervalX2 &C) {
  using namespace igen::detail;
  __m256d Xn = broadcastLo256(A.V);
  __m256d Xh = broadcastHi256(A.V);
  __m256d Yn = broadcastLo256(B.V);
  __m256d Yh = broadcastHi256(B.V);
  __m256d YnNegLo = _mm256_xor_pd(Yn, signLoMask256());
  __m256d YnNegHi = swapLanes256(YnNegLo);
  __m256d XnNegHi = _mm256_xor_pd(Xn, signHiMask256());
  __m256d XhNegLo = _mm256_xor_pd(Xh, signLoMask256());
  __m256d W1 = _mm256_fmadd_pd(Xn, YnNegLo, C.V);
  __m256d W2 = _mm256_fmadd_pd(Xh, YnNegHi, C.V);
  __m256d W3 = _mm256_fmadd_pd(Yh, XnNegHi, C.V);
  __m256d W4 = _mm256_fmadd_pd(Yh, XhNegLo, C.V);
  __m256d Check =
      _mm256_add_pd(_mm256_add_pd(W1, W2), _mm256_add_pd(W3, W4));
  if (__builtin_expect(anyNaN256(Check), 0))
    return IntervalX2::fromIntervals(
        iAdd(iMul(A.interval(0), B.interval(0)), C.interval(0)),
        iAdd(iMul(A.interval(1), B.interval(1)), C.interval(1)));
  return IntervalX2(
      _mm256_max_pd(_mm256_max_pd(W1, W2), _mm256_max_pd(W3, W4)));
}

} // namespace avx2

struct Avx2Lanes : AvxLanes {
  /// Batch size from which the three streams (~1.5 MB) outgrow a typical
  /// L2 and stores switch to the non-temporal path.
  static constexpr size_t kNtMinBatch = 32768;
  static constexpr size_t kUnroll = 2;
  static constexpr bool kNtStores = true;
  static constexpr size_t kNtAlign = 32;
  static constexpr bool kGroupMul = true;

  static Pack fma(const Pack &A, const Pack &B, const Pack &C) {
    igen::assertRoundUpward();
    return avx2::fmaFused(A, B, C);
  }

  static Pack mulUnchecked(const Pack &X, const Pack &Y) {
    return Pack(avx2::mulScreened(X.V, Y.V));
  }
  /// Bitwise-OR screen over four loaded pack pairs (eight intervals): an
  /// inf or NaN lane keeps its all-ones exponent through the OR, so
  /// |OR| >= inf (unordered on NaN) detects every special input. A
  /// spurious all-ones exponent assembled from different lanes' bits only
  /// reroutes the group through the sound checked fallback.
  static bool anySpecial(const Pack &X0, const Pack &Y0, const Pack &X1,
                         const Pack &Y1, const Pack &X2, const Pack &Y2,
                         const Pack &X3, const Pack &Y3) {
    const __m256d AbsMask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffll));
    const __m256d Inf = _mm256_set1_pd(__builtin_inf());
    __m256d O = _mm256_or_pd(
        _mm256_or_pd(_mm256_or_pd(X0.V, Y0.V), _mm256_or_pd(X1.V, Y1.V)),
        _mm256_or_pd(_mm256_or_pd(X2.V, Y2.V),
                     _mm256_or_pd(X3.V, Y3.V)));
    __m256d Bad =
        _mm256_cmp_pd(_mm256_and_pd(O, AbsMask), Inf, _CMP_NLT_UQ);
    return _mm256_movemask_pd(Bad) != 0;
  }
  /// Prefetching a few iterations ahead hides part of the L3 latency on
  /// big batches.
  static void prefetchMul(const Interval *X, const Interval *Y, size_t I) {
    _mm_prefetch(reinterpret_cast<const char *>(X + I + 16), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Y + I + 16), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(X + I + 20), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Y + I + 20), _MM_HINT_T0);
  }
};

#endif // __AVX2__ && __FMA__

//===----------------------------------------------------------------------===//
// Avx512Lanes: four intervals per __m512d, masked tails
//===----------------------------------------------------------------------===//

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

namespace avx512 {

inline __m512d broadcastLo512(__m512d X) {
  return _mm512_permute_pd(X, 0x00); // every pair: (x0, x0)
}
inline __m512d broadcastHi512(__m512d X) {
  return _mm512_permute_pd(X, 0xFF); // every pair: (x1, x1)
}
inline __m512d swapLanes512(__m512d X) {
  return _mm512_permute_pd(X, 0x55); // every pair: (x1, x0)
}
inline __m512d signLo512() {
  return _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
}
inline __m512d signHi512() {
  return _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
}
inline bool anyNaN512(__m512d X) {
  return _mm512_cmp_pd_mask(X, X, _CMP_UNORD_Q) != 0;
}
/// Benign filler for the dead lanes of a masked load: the interval
/// [1, 1], stored (-1, 1). Positive-divisor class, in every elementary
/// fast domain, and incapable of producing a NaN candidate — dead lanes
/// can ride through any kernel and are dropped by the masked store.
inline __m512d benign512() {
  return _mm512_set_pd(1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0);
}

} // namespace avx512

/// Four double intervals in one AVX-512 register.
struct IntervalX4 {
  __m512d V;
  IntervalX4() : V(_mm512_setzero_pd()) {}
  explicit IntervalX4(__m512d V) : V(V) {}

  Interval interval(int I) const {
    alignas(64) double Lanes[8];
    _mm512_store_pd(Lanes, V);
    return Interval(Lanes[2 * I], Lanes[2 * I + 1]);
  }
  static IntervalX4 fromIntervals(const Interval &I0, const Interval &I1,
                                  const Interval &I2, const Interval &I3) {
    return IntervalX4(_mm512_set_pd(I3.Hi, I3.NegLo, I2.Hi, I2.NegLo,
                                    I1.Hi, I1.NegLo, I0.Hi, I0.NegLo));
  }
  static IntervalX4 broadcast(const Interval &I) {
    return IntervalX4(_mm512_broadcast_f64x4(
        _mm256_set_pd(I.Hi, I.NegLo, I.Hi, I.NegLo)));
  }
};

struct Avx512Lanes {
  using Pack = IntervalX4;
  static constexpr size_t kIntervals = 4;
  static constexpr size_t kUnroll = 2;
  static constexpr bool kNtStores = true;
  static constexpr size_t kNtAlign = 64;
  static constexpr size_t kNtMinBatch = 32768;
  static constexpr bool kMaskedTail = true;
  static constexpr bool kGroupMul = true;

  static Pack load(const Interval *P) {
    return Pack(_mm512_loadu_pd(&P->NegLo));
  }
  template <bool NT> static void store(Interval *P, const Pack &V) {
    if constexpr (NT)
      _mm512_stream_pd(&P->NegLo, V.V); // requires 64-byte alignment
    else
      _mm512_storeu_pd(&P->NegLo, V.V);
  }
  static void storeFence() { _mm_sfence(); }

  /// Masked tail: K live intervals (1..3), dead lanes filled with the
  /// benign [1, 1] so they may flow through any kernel body; the masked
  /// store never writes them back and never touches memory past the
  /// live range.
  static Pack maskLoad(const Interval *P, size_t K) {
    __mmask8 M = static_cast<__mmask8>((1u << (2 * K)) - 1);
    return Pack(
        _mm512_mask_loadu_pd(avx512::benign512(), M, &P->NegLo));
  }
  static void maskStore(Interval *P, size_t K, const Pack &V) {
    __mmask8 M = static_cast<__mmask8>((1u << (2 * K)) - 1);
    _mm512_mask_storeu_pd(&P->NegLo, M, V.V);
  }

  static Pack broadcast(const Interval &I) { return Pack::broadcast(I); }

  static Pack add(const Pack &X, const Pack &Y) {
    igen::assertRoundUpward();
    return Pack(_mm512_add_pd(X.V, Y.V));
  }
  static Pack sub(const Pack &X, const Pack &Y) {
    igen::assertRoundUpward();
    return Pack(_mm512_add_pd(X.V, avx512::swapLanes512(Y.V)));
  }

  /// Recomputes a pack element by element with \p Elem: the fallback of
  /// a lanewise op whose NaN screen fired.
  template <typename ElemFn>
  static Pack perElement(ElemFn Elem, const Pack &X, const Pack &Y) {
    return Pack::fromIntervals(Elem(X.interval(0), Y.interval(0)),
                               Elem(X.interval(1), Y.interval(1)),
                               Elem(X.interval(2), Y.interval(2)),
                               Elem(X.interval(3), Y.interval(3)));
  }
  template <typename ElemFn>
  static Pack perElement(ElemFn Elem, const Pack &A, const Pack &B,
                         const Pack &C) {
    return Pack::fromIntervals(
        Elem(A.interval(0), B.interval(0), C.interval(0)),
        Elem(A.interval(1), B.interval(1), C.interval(1)),
        Elem(A.interval(2), B.interval(2), C.interval(2)),
        Elem(A.interval(3), B.interval(3), C.interval(3)));
  }

  /// The SSE iMul candidate scheme (IntervalSimd.h), lane for lane: the
  /// same products, NaN screen and maxima in the same order. A pack with
  /// a NaN candidate is recomputed by \p Elem: the scalar iMul here, the
  /// per-element f64i operation in the row kernels of igen_lib.h.
  template <typename ElemFn>
  static Pack mul(const Pack &X, const Pack &Y, ElemFn Elem) {
    igen::assertRoundUpward();
    using namespace avx512;
    __m512d Xn = broadcastLo512(X.V);
    __m512d Xh = broadcastHi512(X.V);
    __m512d Yn = broadcastLo512(Y.V);
    __m512d Yh = broadcastHi512(Y.V);
    __m512d YnNegLo = _mm512_xor_pd(Yn, signLo512());
    __m512d YnNegHi = swapLanes512(YnNegLo);
    __m512d XnNegHi = _mm512_xor_pd(Xn, signHi512());
    __m512d XhNegLo = _mm512_xor_pd(Xh, signLo512());
    __m512d V1 = _mm512_mul_pd(Xn, YnNegLo);
    __m512d V2 = _mm512_mul_pd(Xh, YnNegHi);
    __m512d V3 = _mm512_mul_pd(Yh, XnNegHi);
    __m512d V4 = _mm512_mul_pd(Yh, XhNegLo);
    __m512d Check = _mm512_add_pd(_mm512_add_pd(V1, V2),
                                  _mm512_add_pd(V3, V4));
    if (__builtin_expect(anyNaN512(Check), 0))
      return perElement(Elem, X, Y);
    return Pack(
        _mm512_max_pd(_mm512_max_pd(V1, V2), _mm512_max_pd(V3, V4)));
  }
  static Pack mul(const Pack &X, const Pack &Y) {
    return mul(X, Y, [](const Interval &A, const Interval &B) {
      return iMul(A, B);
    });
  }

  static Pack mulUnchecked(const Pack &X, const Pack &Y) {
    using namespace avx512;
    __m512d Xn = broadcastLo512(X.V);
    __m512d Xh = broadcastHi512(X.V);
    __m512d Yn = broadcastLo512(Y.V);
    __m512d Yh = broadcastHi512(Y.V);
    __m512d YnNegLo = _mm512_xor_pd(Yn, signLo512());
    __m512d YnNegHi = swapLanes512(YnNegLo);
    __m512d XnNegHi = _mm512_xor_pd(Xn, signHi512());
    __m512d XhNegLo = _mm512_xor_pd(Xh, signLo512());
    __m512d V1 = _mm512_mul_pd(Xn, YnNegLo);
    __m512d V2 = _mm512_mul_pd(Xh, YnNegHi);
    __m512d V3 = _mm512_mul_pd(Yh, XnNegHi);
    __m512d V4 = _mm512_mul_pd(Yh, XhNegLo);
    return Pack(
        _mm512_max_pd(_mm512_max_pd(V1, V2), _mm512_max_pd(V3, V4)));
  }
  static bool anySpecial(const Pack &X0, const Pack &Y0, const Pack &X1,
                         const Pack &Y1, const Pack &X2, const Pack &Y2,
                         const Pack &X3, const Pack &Y3) {
    const __m512d AbsMask = _mm512_castsi512_pd(
        _mm512_set1_epi64(0x7fffffffffffffffll));
    const __m512d Inf = _mm512_set1_pd(__builtin_inf());
    __m512d O = _mm512_or_pd(
        _mm512_or_pd(_mm512_or_pd(X0.V, Y0.V), _mm512_or_pd(X1.V, Y1.V)),
        _mm512_or_pd(_mm512_or_pd(X2.V, Y2.V),
                     _mm512_or_pd(X3.V, Y3.V)));
    return _mm512_cmp_pd_mask(_mm512_and_pd(O, AbsMask), Inf,
                              _CMP_NLT_UQ) != 0;
  }
  static void prefetchMul(const Interval *X, const Interval *Y, size_t I) {
    _mm_prefetch(reinterpret_cast<const char *>(X + I + 32), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Y + I + 32), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(X + I + 40), _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char *>(Y + I + 40), _MM_HINT_T0);
  }

  /// Fused A*B + C, the 512-bit lift of the AVX2 fused kernel and, lane
  /// for lane, of the SSE iFma. A NaN candidate sends the pack through
  /// \p Elem (default: the composed scalar reference).
  template <typename ElemFn>
  static Pack fma(const Pack &A, const Pack &B, const Pack &C, ElemFn Elem) {
    igen::assertRoundUpward();
    using namespace avx512;
    __m512d Xn = broadcastLo512(A.V);
    __m512d Xh = broadcastHi512(A.V);
    __m512d Yn = broadcastLo512(B.V);
    __m512d Yh = broadcastHi512(B.V);
    __m512d YnNegLo = _mm512_xor_pd(Yn, signLo512());
    __m512d YnNegHi = swapLanes512(YnNegLo);
    __m512d XnNegHi = _mm512_xor_pd(Xn, signHi512());
    __m512d XhNegLo = _mm512_xor_pd(Xh, signLo512());
    __m512d W1 = _mm512_fmadd_pd(Xn, YnNegLo, C.V);
    __m512d W2 = _mm512_fmadd_pd(Xh, YnNegHi, C.V);
    __m512d W3 = _mm512_fmadd_pd(Yh, XnNegHi, C.V);
    __m512d W4 = _mm512_fmadd_pd(Yh, XhNegLo, C.V);
    __m512d Check = _mm512_add_pd(_mm512_add_pd(W1, W2),
                                  _mm512_add_pd(W3, W4));
    if (__builtin_expect(anyNaN512(Check), 0))
      return perElement(Elem, A, B, C);
    return Pack(
        _mm512_max_pd(_mm512_max_pd(W1, W2), _mm512_max_pd(W3, W4)));
  }
  static Pack fma(const Pack &A, const Pack &B, const Pack &C) {
    return fma(A, B, C,
               [](const Interval &P, const Interval &Q, const Interval &R) {
                 return fmaComposed(P, Q, R);
               });
  }

  /// Fused A*B + C with lo(A) >= 0 and B of unknown sign: the SSE iFmaPU
  /// lane for lane (two candidates per endpoint, one maximum).
  template <typename ElemFn>
  static Pack fmaPU(const Pack &A, const Pack &B, const Pack &C,
                    ElemFn Elem) {
    igen::assertRoundUpward();
    using namespace avx512;
    __m512d A1 = _mm512_xor_pd(broadcastLo512(A.V), signHi512());
    __m512d B1 = _mm512_xor_pd(B.V, signLo512());
    __m512d V1 = _mm512_fmadd_pd(A1, B1, C.V);
    __m512d V2 = _mm512_fmadd_pd(broadcastHi512(A.V), B.V, C.V);
    if (__builtin_expect(anyNaN512(_mm512_add_pd(V1, V2)), 0))
      return perElement(Elem, A, B, C);
    return Pack(_mm512_max_pd(V1, V2));
  }

  /// Fused A*B + C with hi(A) <= 0 and B of unknown sign: the SSE iFmaNU
  /// lane for lane.
  template <typename ElemFn>
  static Pack fmaNU(const Pack &A, const Pack &B, const Pack &C,
                    ElemFn Elem) {
    igen::assertRoundUpward();
    using namespace avx512;
    __m512d Bs = swapLanes512(B.V);
    __m512d V1 = _mm512_fmadd_pd(broadcastLo512(A.V), Bs, C.V);
    __m512d A2 = _mm512_xor_pd(broadcastHi512(A.V), signLo512());
    __m512d B2 = _mm512_xor_pd(Bs, signHi512());
    __m512d V2 = _mm512_fmadd_pd(A2, B2, C.V);
    if (__builtin_expect(anyNaN512(_mm512_add_pd(V1, V2)), 0))
      return perElement(Elem, A, B, C);
    return Pack(_mm512_max_pd(V1, V2));
  }

  static Pack div(const Pack &X, const Pack &Y) {
    igen::assertRoundUpward();
    using namespace avx512;
    __mmask8 Neg =
        _mm512_cmp_pd_mask(Y.V, _mm512_setzero_pd(), _CMP_LT_OQ);
    if ((Neg & 0x55) == 0x55) { // all four divisors strictly positive
      __m512d Yl = _mm512_xor_pd(broadcastLo512(Y.V),
                                 _mm512_set1_pd(-0.0));
      __m512d V1 = _mm512_div_pd(X.V, Yl);
      __m512d V2 = _mm512_div_pd(X.V, broadcastHi512(Y.V));
      __m512d C = _mm512_add_pd(V1, V2);
      __m512d Check = _mm512_add_pd(C, swapLanes512(C));
      if (__builtin_expect(anyNaN512(Check), 0))
        return Pack::fromIntervals(iDivP(X.interval(0), Y.interval(0)),
                                   iDivP(X.interval(1), Y.interval(1)),
                                   iDivP(X.interval(2), Y.interval(2)),
                                   iDivP(X.interval(3), Y.interval(3)));
      return Pack(_mm512_max_pd(V1, V2));
    }
    if ((Neg & 0xAA) == 0xAA) { // all four divisors strictly negative
      __m512d A = swapLanes512(X.V);
      __m512d Yh = _mm512_xor_pd(broadcastHi512(Y.V),
                                 _mm512_set1_pd(-0.0));
      __m512d V1 = _mm512_div_pd(A, Yh);
      __m512d V2 = _mm512_div_pd(A, broadcastLo512(Y.V));
      __m512d C = _mm512_add_pd(V1, V2);
      __m512d Check = _mm512_add_pd(C, swapLanes512(C));
      if (__builtin_expect(anyNaN512(Check), 0))
        return Pack::fromIntervals(iDivN(X.interval(0), Y.interval(0)),
                                   iDivN(X.interval(1), Y.interval(1)),
                                   iDivN(X.interval(2), Y.interval(2)),
                                   iDivN(X.interval(3), Y.interval(3)));
      return Pack(_mm512_max_pd(V1, V2));
    }
    return Pack::fromIntervals(divAuto(X.interval(0), Y.interval(0)),
                               divAuto(X.interval(1), Y.interval(1)),
                               divAuto(X.interval(2), Y.interval(2)),
                               divAuto(X.interval(3), Y.interval(3)));
  }

  static Pack sqrt(const Pack &X) {
    igen::assertRoundUpward();
    using namespace avx512;
    const __m512d Zero = _mm512_setzero_pd();
    __mmask8 Lt = _mm512_cmp_pd_mask(X.V, Zero, _CMP_LT_OQ);
    __mmask8 Gt = _mm512_cmp_pd_mask(
        X.V, _mm512_set1_pd(-__builtin_inf()), _CMP_GT_OQ);
    __mmask8 Ge = _mm512_cmp_pd_mask(X.V, Zero, _CMP_GE_OQ);
    if (__builtin_expect(
            !(((Lt & Gt) & 0x55) == 0x55 && (Ge & 0xAA) == 0xAA), 0))
      return Pack::fromIntervals(iSqrt(X.interval(0)),
                                 iSqrt(X.interval(1)),
                                 iSqrt(X.interval(2)),
                                 iSqrt(X.interval(3)));
    __m512d SignLo = signLo512();
    __m512d Vpos = _mm512_xor_pd(X.V, SignLo);
    __m512d S = _mm512_sqrt_pd(Vpos);
    __m512d SS = _mm512_mul_pd(S, S);
    __mmask8 Eq = _mm512_cmp_pd_mask(SS, Vpos, _CMP_EQ_OQ);
    __m512d Sm1 = _mm512_castsi512_pd(
        _mm512_sub_epi64(_mm512_castpd_si512(S), _mm512_set1_epi64(1)));
    __m512d Down = _mm512_mask_blend_pd(Eq, Sm1, S);
    return Pack(_mm512_mask_blend_pd(
        0xAA, _mm512_xor_pd(Down, SignLo), S));
  }
};

#endif // __AVX512F__ && __AVX512DQ__ && __AVX512VL__

} // namespace igen::runtime::lanes

#endif // IGEN_RUNTIME_LANE_H
