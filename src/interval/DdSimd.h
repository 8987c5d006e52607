//===- DdSimd.h - AVX backend of double-double intervals -----*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AVX register backend of double-double intervals (Section VI-A): a
/// ddi is four doubles -- two per endpoint -- and fits exactly in one
/// __m256d. The op bodies (ddiAdd, ddiSub, ddiNeg, ddiMul) are the ones in
/// DdInterval.h; this file supplies only the pair-level primitives they
/// are written in, so the AVX ops agree with the scalar ones bit for bit.
///
/// Register layout: [ negLo.H | hi.H | negLo.L | hi.L ], i.e. the high
/// words of both endpoints sit in the low 128-bit lane and the low words in
/// the high lane. With this layout one 256-bit TwoSum computes the TwoSum
/// of the high words of *both* endpoints and the TwoSum of the low words of
/// both endpoints simultaneously, so DD_Add (Fig. 6) vectorizes to
/// 14 arithmetic intrinsics + 3 cross-lane shuffles = 17 intrinsics,
/// matching Table III. Every primitive works on a pair of double-doubles
/// in this layout, whatever the pair holds.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_DDSIMD_H
#define IGEN_INTERVAL_DDSIMD_H

#include "interval/DdInterval.h"

#include <immintrin.h>

namespace igen {

/// A double-double interval in one AVX register.
struct DdIntervalAvx {
  __m256d V;

  DdIntervalAvx() : V(_mm256_setzero_pd()) {}
  explicit DdIntervalAvx(__m256d V) : V(V) {}

  static DdIntervalAvx fromScalar(const DdInterval &I) {
    return DdIntervalAvx(
        _mm256_set_pd(I.Hi.L, I.NegLo.L, I.Hi.H, I.NegLo.H));
  }
  static DdIntervalAvx fromPoint(double X) {
    return fromScalar(DdInterval::fromPoint(X));
  }
  static DdIntervalAvx fromEndpoints(double Lo, double Hi) {
    return fromScalar(DdInterval::fromEndpoints(Dd(Lo), Dd(Hi)));
  }

  DdInterval toScalar() const {
    alignas(32) double L[4];
    _mm256_store_pd(L, V);
    return DdInterval(Dd(L[0], L[2]), Dd(L[1], L[3]));
  }

  bool hasSpecial() const {
    // NaN or infinity in any word.
    __m256d AbsMask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7fffffffffffffffLL));
    __m256d Abs = _mm256_and_pd(V, AbsMask);
    __m256d Inf = _mm256_set1_pd(std::numeric_limits<double>::infinity());
    // NaN fails all ordered comparisons; test Abs < Inf per lane.
    __m256d Finite = _mm256_cmp_pd(Abs, Inf, _CMP_LT_OQ);
    return _mm256_movemask_pd(Finite) != 0xF;
  }
};

namespace detail {

/// 256-wide TwoSum (6 intrinsics): per-lane directed bound, as in the
/// scalar twoSum().
inline void twoSum256(__m256d A, __m256d B, __m256d &S, __m256d &E) {
  S = _mm256_add_pd(A, B);
  __m256d A1 = _mm256_sub_pd(S, B);
  __m256d B1 = _mm256_sub_pd(S, A1);
  __m256d DA = _mm256_sub_pd(A, A1);
  __m256d DB = _mm256_sub_pd(B, B1);
  E = _mm256_add_pd(DA, DB);
}

/// 256-wide FastTwoSum (3 intrinsics); per-lane |A| >= |B| expected in the
/// lanes that matter.
inline void fastTwoSum256(__m256d A, __m256d B, __m256d &S, __m256d &E) {
  S = _mm256_add_pd(A, B);
  __m256d Z = _mm256_sub_pd(S, A);
  E = _mm256_sub_pd(B, Z);
}

/// Swaps the 128-bit lanes.
inline __m256d swap128(__m256d X) {
  return _mm256_permute2f128_pd(X, X, 0x01);
}

/// [low128(A) | low128(B)].
inline __m256d concatLow(__m256d A, __m256d B) {
  return _mm256_permute2f128_pd(A, B, 0x20);
}

/// Duplicates the low 128-bit lane into both lanes.
inline __m256d dupLow(__m256d X) {
  return _mm256_permute2f128_pd(X, X, 0x00);
}

/// Duplicates the high 128-bit lane into both lanes.
inline __m256d dupHigh(__m256d X) {
  return _mm256_permute2f128_pd(X, X, 0x11);
}

} // namespace detail

/// The AVX backend: one pair of double-doubles per __m256d.
template <> struct DdRegs<DdIntervalAvx> {
  using R = DdIntervalAvx;
  using Scalar = DdRegs<DdInterval>;

  /// Pairwise DD_Add of Fig. 6: 14 arithmetic intrinsics + 3 shuffles
  /// (Table III row 1).
  static R addUp(const R &X, const R &Y) {
    assertRoundUpward();
    __m256d S, E, C, VH, VE, W, ZH, ZL;
    // Lanes 0,1: TwoSum of high words; lanes 2,3: TwoSum of low words.
    detail::twoSum256(X.V, Y.V, S, E);
    // c = se + th (th lives in the high lane of S).
    C = _mm256_add_pd(E, detail::swap128(S));
    detail::fastTwoSum256(S, C, VH, VE);
    // w = te + ve (te lives in the high lane of E).
    W = _mm256_add_pd(detail::swap128(E), VE);
    detail::fastTwoSum256(VH, W, ZH, ZL);
    return R(detail::concatLow(ZH, ZL));
  }

  /// Pairwise upward dd product; mirrors ddMulUp.
  static R mulUp(const R &X, const R &Y) {
    __m256d A = X.V, B = Y.V;
    __m256d P = _mm256_mul_pd(A, B); // lanes01: AH*BH; lanes23: AL*BL (RU)
    __m256d E = _mm256_fmsub_pd(A, B, P); // lanes01: exact residues
    __m256d BS = detail::swap128(B);
    __m256d C = _mm256_mul_pd(A, BS); // lanes01: AH*BL; lanes23: AL*BH
    __m256d S1 = _mm256_add_pd(C, detail::swap128(C)); // lanes01: cross sum
    __m256d S2 = _mm256_add_pd(S1, detail::swap128(P)); // + AL*BL
    __m256d E2 = _mm256_add_pd(E, S2);
    __m256d ZH, ZL;
    detail::twoSum256(P, E2, ZH, ZL);
    return R(detail::concatLow(ZH, ZL));
  }

  /// Pairwise ddMax: RU(H + L) picks the larger of each pair when the two
  /// differ in both pairs; a tie (or NaN) in either defers the whole pair
  /// to the scalar ddMax, so the result is the scalar backend's bits.
  static R maxUp(const R &A, const R &B) {
    __m256d UA = _mm256_add_pd(A.V, detail::swap128(A.V)); // lanes01
    __m256d UB = _mm256_add_pd(B.V, detail::swap128(B.V));
    __m256d Tie = _mm256_cmp_pd(UA, UB, _CMP_EQ_UQ);
    if (__builtin_expect((_mm256_movemask_pd(Tie) & 0x3) != 0, 0))
      return maxUpTie(A, B);
    __m256d BAbove = _mm256_cmp_pd(UB, UA, _CMP_GT_OQ);
    return R(_mm256_blendv_pd(A.V, B.V, detail::dupLow(BAbove)));
  }
  [[gnu::cold, gnu::noinline]] static R maxUpTie(const R &A, const R &B) {
    return fromScalar(Scalar::maxUp(A.toScalar(), B.toScalar()));
  }

  /// [x1, x0, x3, x2]: swaps the two dd values within each lane.
  static R swap(const R &X) { return R(_mm256_permute_pd(X.V, 0b0101)); }
  static R neg(const R &X) {
    return R(_mm256_xor_pd(X.V, _mm256_set1_pd(-0.0)));
  }
  static R negFirst(const R &X) {
    return R(_mm256_xor_pd(X.V, _mm256_set_pd(0.0, -0.0, 0.0, -0.0)));
  }
  static R dupFirst(const R &X) {
    return R(_mm256_permute_pd(X.V, 0b0000)); // [x0,x0,x2,x2]
  }
  static R dupSecond(const R &X) {
    return R(_mm256_permute_pd(X.V, 0b1111)); // [x1,x1,x3,x3]
  }
  static R select(__m256d M, const R &T, const R &F) {
    return R(_mm256_blendv_pd(F.V, T.V, M));
  }

  /// RU(H + L) <= 0 of the four stored endpoints of X and Y, one per lane
  /// of [x >= 0 | x <= 0 | y >= 0 | y <= 0], and its movemask.
  struct Signs {
    __m256d NonPos;
    int Bits;
  };
  static Signs signs(const R &X, const R &Y) {
    __m256d H = _mm256_permute2f128_pd(X.V, Y.V, 0x20); // [xn xh yn yh].H
    __m256d L = _mm256_permute2f128_pd(X.V, Y.V, 0x31); // [xn xh yn yh].L
    __m256d NonPos =
        _mm256_cmp_pd(_mm256_add_pd(H, L), _mm256_setzero_pd(), _CMP_LE_OQ);
    return {NonPos, _mm256_movemask_pd(NonPos)};
  }
  static bool signKnown(const Signs &S) {
    return (S.Bits & 0x3) != 0 && (S.Bits & 0xC) != 0;
  }
  static __m256d xNonNeg(const Signs &S) { // [x >= 0] in every lane
    return detail::dupLow(_mm256_permute_pd(S.NonPos, 0b0000));
  }
  static __m256d yNonNeg(const Signs &S) { // [y >= 0] in every lane
    return detail::dupHigh(_mm256_permute_pd(S.NonPos, 0b0000));
  }

  static bool special(const R &X) { return X.hasSpecial(); }
  static bool unordered(const R &A, const R &B) {
    return _mm256_movemask_pd(_mm256_cmp_pd(A.V, B.V, _CMP_UNORD_Q)) != 0;
  }
  static DdInterval toScalar(const R &X) { return X.toScalar(); }
  static R fromScalar(const DdInterval &X) { return R::fromScalar(X); }

  /// DdInterval memory order is (negLo.H, negLo.L, hi.H, hi.L); the 0xD8
  /// permute (swap the two middle 64-bit lanes) converts to and from the
  /// register layout and is its own inverse. Needs AVX2.
  static R load(const DdInterval *P) {
    return R(_mm256_permute4x64_pd(_mm256_loadu_pd(&P->NegLo.H), 0xD8));
  }
  static void store(DdInterval *P, const R &V) {
    _mm256_storeu_pd(&P->NegLo.H, _mm256_permute4x64_pd(V.V, 0xD8));
  }
};

} // namespace igen

#endif // IGEN_INTERVAL_DDSIMD_H
