//===- IntervalVector.h - AVX vectors of double intervals -------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The m256di_k vector-of-intervals types of Table II: an AVX register
/// holds two double-precision intervals ([ -lo0 | hi0 | -lo1 | hi1 ]) and
/// a SIMD input type of 2k doubles maps to k such registers:
///
///   __m128d          -> m256di_1   (2 intervals, 1 register)
///   __m256d, __m128  -> m256di_2   (4 intervals, 2 registers)
///   __m256           -> m256di_4   (8 intervals, 4 registers)
///
/// All interval algorithms are 128-bit-lane-local, so the pack ops of
/// IntervalSimd.h run on AVX registers through the 256-bit primitive set
/// below, and on AVX-512 registers (IntervalX4, four intervals, used by
/// the batched runtime and igen_lib.h's row kernels) through the 512-bit
/// one.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_INTERVALVECTOR_H
#define IGEN_INTERVAL_INTERVALVECTOR_H

#include "interval/Interval.h"
#include "interval/IntervalSimd.h"

#include <immintrin.h>

namespace igen {

/// Two double intervals in one AVX register.
struct IntervalX2 {
  __m256d V;

  IntervalX2() : V(_mm256_setzero_pd()) {}
  explicit IntervalX2(__m256d V) : V(V) {}

  static IntervalX2 fromIntervals(const Interval &I0, const Interval &I1) {
    return IntervalX2(_mm256_set_pd(I1.Hi, I1.NegLo, I0.Hi, I0.NegLo));
  }
  static IntervalX2 broadcast(const Interval &I) {
    return fromIntervals(I, I);
  }
  /// Lifts two exact doubles to point intervals.
  static IntervalX2 fromPoints(double X0, double X1) {
    return fromIntervals(Interval::fromPoint(X0), Interval::fromPoint(X1));
  }

  Interval interval(int I) const {
    alignas(32) double Lanes[4];
    _mm256_store_pd(Lanes, V);
    return Interval(Lanes[2 * I], Lanes[2 * I + 1]);
  }

  IntervalSse half(int I) const {
    return IntervalSse(I == 0 ? _mm256_castpd256_pd128(V)
                              : _mm256_extractf128_pd(V, 1));
  }

  static IntervalX2 fromHalves(const IntervalSse &L, const IntervalSse &H) {
    return IntervalX2(
        _mm256_insertf128_pd(_mm256_castpd128_pd256(L.V), H.V, 1));
  }
};

/// The 256-bit primitive set; see F64Regs<IntervalSse>.
template <> struct F64Regs<IntervalX2> {
  using D = __m256d;
  using I = __m256i;
  using Mask = int;
  static constexpr size_t kIntervals = 2;
  static constexpr bool kMaskedTail = false;

  static D dupLo(D X) { return _mm256_permute_pd(X, 0b0000); }
  static D dupHi(D X) { return _mm256_permute_pd(X, 0b1111); }
  static D swap(D X) { return _mm256_permute_pd(X, 0b0101); }
  static D signLo() { return _mm256_set_pd(0.0, -0.0, 0.0, -0.0); }
  static D signHi() { return _mm256_set_pd(-0.0, 0.0, -0.0, 0.0); }
  static D loHi(D L, D H) { return _mm256_blend_pd(L, H, 0b1010); }

  static D set1(double X) { return _mm256_set1_pd(X); }
  static D zero() { return _mm256_setzero_pd(); }
  static D add(D A, D B) { return _mm256_add_pd(A, B); }
  static D sub(D A, D B) { return _mm256_sub_pd(A, B); }
  static D mul(D A, D B) { return _mm256_mul_pd(A, B); }
  static D div(D A, D B) { return _mm256_div_pd(A, B); }
#if defined(__FMA__)
  static D fmadd(D A, D B, D C) { return _mm256_fmadd_pd(A, B, C); }
#endif
  static D max(D A, D B) { return _mm256_max_pd(A, B); }
  static D sqrt(D A) { return _mm256_sqrt_pd(A); }
  static D and_(D A, D B) { return _mm256_and_pd(A, B); }
  static D or_(D A, D B) { return _mm256_or_pd(A, B); }
  static D xor_(D A, D B) { return _mm256_xor_pd(A, B); }
  /// AVX has no 256-bit integer subtract, so the AVX tier splits it; the
  /// AVX2 instruction produces the same bits.
  static D dec(D X) {
#if defined(__AVX2__)
    return _mm256_castsi256_pd(
        _mm256_sub_epi64(_mm256_castpd_si256(X), _mm256_set1_epi64x(1)));
#else
    __m128i One = _mm_set1_epi64x(1);
    __m128i Lo = _mm_castpd_si128(_mm256_castpd256_pd128(X));
    __m128i Hi = _mm_castpd_si128(_mm256_extractf128_pd(X, 1));
    return _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_castsi128_pd(_mm_sub_epi64(Lo, One))),
        _mm_castsi128_pd(_mm_sub_epi64(Hi, One)), 1);
#endif
  }

  static bool anyNaN(D X) {
    return _mm256_movemask_pd(_mm256_cmp_pd(X, X, _CMP_UNORD_Q)) != 0;
  }
  /// Some lane with !(A < B), NaN lanes included.
  static bool anyNotLt(D A, D B) {
    return _mm256_movemask_pd(_mm256_cmp_pd(A, B, _CMP_NLT_UQ)) != 0;
  }
  static Mask ltMask(D A, D B) {
    return _mm256_movemask_pd(_mm256_cmp_pd(A, B, _CMP_LT_OQ));
  }
  static Mask gtMask(D A, D B) {
    return _mm256_movemask_pd(_mm256_cmp_pd(A, B, _CMP_GT_OQ));
  }
  static Mask geMask(D A, D B) {
    return _mm256_movemask_pd(_mm256_cmp_pd(A, B, _CMP_GE_OQ));
  }
  static bool everyLo(Mask M) { return (M & 0b0101) == 0b0101; }
  static bool everyHi(Mask M) { return (M & 0b1010) == 0b1010; }
  static bool everyAny(Mask M) {
    return (M & 0b0011) != 0 && (M & 0b1100) != 0;
  }
  static D selectEq(D A, D B, D T, D F) {
    return _mm256_blendv_pd(F, T, _mm256_cmp_pd(A, B, _CMP_EQ_OQ));
  }

#if defined(__AVX2__)
  static D absMask() {
    return _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  }
  static I set1i(int64_t X) { return _mm256_set1_epi64x(X); }
  static I castDI(D A) { return _mm256_castpd_si256(A); }
  static D castID(I A) { return _mm256_castsi256_pd(A); }
  static I addI(I A, I B) { return _mm256_add_epi64(A, B); }
  static I subI(I A, I B) { return _mm256_sub_epi64(A, B); }
  static I andI(I A, I B) { return _mm256_and_si256(A, B); }
  static I orI(I A, I B) { return _mm256_or_si256(A, B); }
  template <int N> static I slli(I A) { return _mm256_slli_epi64(A, N); }
  template <int N> static I srli(I A) { return _mm256_srli_epi64(A, N); }
#endif
  static D cmpGt(D A, D B) { return _mm256_cmp_pd(A, B, _CMP_GT_OQ); }
  static D select(D M, D T, D F) { return _mm256_blendv_pd(F, T, M); }
  static bool allLe(D A, D B) {
    return _mm256_movemask_pd(_mm256_cmp_pd(A, B, _CMP_LE_OQ)) == 0xF;
  }
  static bool allInRange(D A, D Lo, D Hi) {
    return _mm256_movemask_pd(
               _mm256_and_pd(_mm256_cmp_pd(A, Lo, _CMP_GE_OQ),
                             _mm256_cmp_pd(A, Hi, _CMP_LE_OQ))) == 0xF;
  }

  static D load(const Interval *P) { return _mm256_loadu_pd(&P->NegLo); }
  static void store(Interval *P, D V) { _mm256_storeu_pd(&P->NegLo, V); }
  /// Requires 32-byte alignment.
  static void stream(Interval *P, D V) { _mm256_stream_pd(&P->NegLo, V); }

  static IntervalX2 broadcast(const Interval &X) {
    return IntervalX2::broadcast(X);
  }
  static IntervalSse part(const IntervalX2 &X, int K) { return X.half(K); }
  template <class F, class... A>
  static IntervalX2 each(F Fn, const A &...X) {
    return IntervalX2::fromHalves(Fn(X.half(0)...), Fn(X.half(1)...));
  }
};

#if defined(__AVX512F__) && defined(__AVX512DQ__) && defined(__AVX512VL__)

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

/// The 512-bit primitive set: compares produce mask registers; where the
/// exp/log cores need an all-ones *vector* mask (the log normalization
/// select doubles as a -1 integer), _mm512_movm_epi64 (DQ) expands it.
template <> struct F64Regs<IntervalX4> {
  using D = __m512d;
  using I = __m512i;
  using Mask = __mmask8;
  static constexpr size_t kIntervals = 4;
  static constexpr bool kMaskedTail = true;

  static D dupLo(D X) { return _mm512_permute_pd(X, 0x00); }
  static D dupHi(D X) { return _mm512_permute_pd(X, 0xFF); }
  static D swap(D X) { return _mm512_permute_pd(X, 0x55); }
  static D signLo() {
    return _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
  }
  static D signHi() {
    return _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0);
  }
  static D loHi(D L, D H) { return _mm512_mask_blend_pd(0xAA, L, H); }

  static D set1(double X) { return _mm512_set1_pd(X); }
  static D zero() { return _mm512_setzero_pd(); }
  static D absMask() {
    return _mm512_castsi512_pd(_mm512_set1_epi64(0x7FFFFFFFFFFFFFFFll));
  }
  static D add(D A, D B) { return _mm512_add_pd(A, B); }
  static D sub(D A, D B) { return _mm512_sub_pd(A, B); }
  static D mul(D A, D B) { return _mm512_mul_pd(A, B); }
  static D div(D A, D B) { return _mm512_div_pd(A, B); }
  static D fmadd(D A, D B, D C) { return _mm512_fmadd_pd(A, B, C); }
  static D max(D A, D B) { return _mm512_max_pd(A, B); }
  static D sqrt(D A) { return _mm512_sqrt_pd(A); }
  static D and_(D A, D B) { return _mm512_and_pd(A, B); }
  static D or_(D A, D B) { return _mm512_or_pd(A, B); }
  static D xor_(D A, D B) { return _mm512_xor_pd(A, B); }
  static D dec(D X) {
    return _mm512_castsi512_pd(
        _mm512_sub_epi64(_mm512_castpd_si512(X), _mm512_set1_epi64(1)));
  }

  static bool anyNaN(D X) {
    return _mm512_cmp_pd_mask(X, X, _CMP_UNORD_Q) != 0;
  }
  static bool anyNotLt(D A, D B) {
    return _mm512_cmp_pd_mask(A, B, _CMP_NLT_UQ) != 0;
  }
  static Mask ltMask(D A, D B) {
    return _mm512_cmp_pd_mask(A, B, _CMP_LT_OQ);
  }
  static Mask gtMask(D A, D B) {
    return _mm512_cmp_pd_mask(A, B, _CMP_GT_OQ);
  }
  static Mask geMask(D A, D B) {
    return _mm512_cmp_pd_mask(A, B, _CMP_GE_OQ);
  }
  static bool everyLo(Mask M) { return (M & 0x55) == 0x55; }
  static bool everyHi(Mask M) { return (M & 0xAA) == 0xAA; }
  static bool everyAny(Mask M) { return ((M | (M >> 1)) & 0x55) == 0x55; }
  static D selectEq(D A, D B, D T, D F) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(A, B, _CMP_EQ_OQ), F, T);
  }

  static I set1i(int64_t X) { return _mm512_set1_epi64(X); }
  static I castDI(D A) { return _mm512_castpd_si512(A); }
  static D castID(I A) { return _mm512_castsi512_pd(A); }
  static I addI(I A, I B) { return _mm512_add_epi64(A, B); }
  static I subI(I A, I B) { return _mm512_sub_epi64(A, B); }
  static I andI(I A, I B) { return _mm512_and_si512(A, B); }
  static I orI(I A, I B) { return _mm512_or_si512(A, B); }
  template <int N> static I slli(I A) { return _mm512_slli_epi64(A, N); }
  template <int N> static I srli(I A) { return _mm512_srli_epi64(A, N); }
  static D cmpGt(D A, D B) {
    return _mm512_castsi512_pd(
        _mm512_movm_epi64(_mm512_cmp_pd_mask(A, B, _CMP_GT_OQ)));
  }
  static D select(D M, D T, D F) {
    return _mm512_mask_blend_pd(
        _mm512_movepi64_mask(_mm512_castpd_si512(M)), F, T);
  }
  static bool allLe(D A, D B) {
    return _mm512_cmp_pd_mask(A, B, _CMP_LE_OQ) == 0xFF;
  }
  static bool allInRange(D A, D Lo, D Hi) {
    return (_mm512_cmp_pd_mask(A, Lo, _CMP_GE_OQ) &
            _mm512_cmp_pd_mask(A, Hi, _CMP_LE_OQ)) == 0xFF;
  }

  static D load(const Interval *P) { return _mm512_loadu_pd(&P->NegLo); }
  static void store(Interval *P, D V) { _mm512_storeu_pd(&P->NegLo, V); }
  /// Requires 64-byte alignment.
  static void stream(Interval *P, D V) { _mm512_stream_pd(&P->NegLo, V); }
  /// Masked tail: \p K live intervals (1..3). The dead lanes hold the
  /// benign [1, 1], stored (-1, 1): positive divisor class, inside every
  /// elementary fast domain, and unable to produce a NaN candidate, so
  /// they may flow through any op body; the masked store never writes
  /// them back and never touches memory past the live range.
  static D maskLoad(const Interval *P, size_t K) {
    return _mm512_mask_loadu_pd(
        _mm512_set_pd(1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0),
        static_cast<__mmask8>((1u << (2 * K)) - 1), &P->NegLo);
  }
  static void maskStore(Interval *P, size_t K, D V) {
    _mm512_mask_storeu_pd(&P->NegLo,
                          static_cast<__mmask8>((1u << (2 * K)) - 1), V);
  }

  static IntervalX4 broadcast(const Interval &X) {
    return IntervalX4::broadcast(X);
  }
  static IntervalSse part(const IntervalX4 &X, int K) {
    alignas(64) double Lanes[8];
    _mm512_store_pd(Lanes, X.V);
    return IntervalSse(_mm_load_pd(Lanes + 2 * K));
  }
  template <class F, class... A>
  static IntervalX4 each(F Fn, const A &...X) {
    alignas(64) double Out[8];
    for (int K = 0; K < 4; ++K)
      _mm_store_pd(Out + 2 * K, Fn(part(X, K)...).V);
    return IntervalX4(_mm512_load_pd(Out));
  }
};

#endif // AVX-512

//===----------------------------------------------------------------------===//
// IntervalX2 operations (the pack ops are IntervalSimd.h's iAdd, iMul, ...)
//===----------------------------------------------------------------------===//

inline IntervalX2 iSqrt(const IntervalX2 &X) {
  return IntervalX2::fromIntervals(iSqrt(X.interval(0)),
                                   iSqrt(X.interval(1)));
}

//===----------------------------------------------------------------------===//
// k-register packs: m256di_1 / m256di_2 / m256di_4
//===----------------------------------------------------------------------===//

/// K AVX registers holding 2*K double intervals.
template <int K> struct IntervalVec {
  static_assert(K >= 1 && K <= 4, "supported packs: 1, 2, 4 registers");
  IntervalX2 Part[K];

  static constexpr int numIntervals() { return 2 * K; }

  Interval interval(int I) const { return Part[I / 2].interval(I % 2); }

  void setInterval(int I, const Interval &Val) {
    Interval Other = Part[I / 2].interval(1 - (I % 2));
    Part[I / 2] = (I % 2) == 0
                      ? IntervalX2::fromIntervals(Val, Other)
                      : IntervalX2::fromIntervals(Other, Val);
  }

  static IntervalVec broadcast(const Interval &I) {
    IntervalVec R;
    for (int P = 0; P < K; ++P)
      R.Part[P] = IntervalX2::broadcast(I);
    return R;
  }
};

using M256di1 = IntervalVec<1>;
using M256di2 = IntervalVec<2>;
using M256di4 = IntervalVec<4>;

/// Register by register: each Part through the IntervalX2 op \p Op.
template <int K, class OpFn, class... A>
inline IntervalVec<K> eachPart(OpFn Op, const A &...X) {
  IntervalVec<K> R;
  for (int P = 0; P < K; ++P)
    R.Part[P] = Op(X.Part[P]...);
  return R;
}

template <int K>
inline IntervalVec<K> iAdd(const IntervalVec<K> &X, const IntervalVec<K> &Y) {
  return eachPart<K>([](auto &A, auto &B) { return iAdd(A, B); }, X, Y);
}
template <int K>
inline IntervalVec<K> iSub(const IntervalVec<K> &X, const IntervalVec<K> &Y) {
  return eachPart<K>([](auto &A, auto &B) { return iSub(A, B); }, X, Y);
}
template <int K>
inline IntervalVec<K> iMul(const IntervalVec<K> &X, const IntervalVec<K> &Y) {
  return eachPart<K>([](auto &A, auto &B) { return iMul(A, B); }, X, Y);
}
template <int K>
inline IntervalVec<K> iDiv(const IntervalVec<K> &X, const IntervalVec<K> &Y) {
  return eachPart<K>([](auto &A, auto &B) { return iDiv(A, B); }, X, Y);
}
template <int K>
inline IntervalVec<K> iFma(const IntervalVec<K> &X, const IntervalVec<K> &Y,
                           const IntervalVec<K> &C) {
  return eachPart<K>(
      [](auto &A, auto &B, auto &Z) { return iFma(A, B, Z); }, X, Y, C);
}
template <int K> inline IntervalVec<K> iNeg(const IntervalVec<K> &X) {
  return eachPart<K>([](auto &A) { return iNeg(A); }, X);
}
template <int K> inline IntervalVec<K> iSqrt(const IntervalVec<K> &X) {
  return eachPart<K>([](auto &A) { return iSqrt(A); }, X);
}

} // namespace igen

#endif // IGEN_INTERVAL_INTERVALVECTOR_H
