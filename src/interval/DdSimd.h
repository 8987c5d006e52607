//===- DdSimd.h - AVX-vectorized double-double intervals --------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AVX implementation of double-double intervals (Section VI-A): a ddi
/// is four doubles -- two per endpoint -- and fits exactly in one __m256d.
///
/// Register layout: [ negLo.H | hi.H | negLo.L | hi.L ], i.e. the high
/// words of both endpoints sit in the low 128-bit lane and the low words in
/// the high lane. With this layout one 256-bit TwoSum computes the TwoSum
/// of the high words of *both* endpoints and the TwoSum of the low words of
/// both endpoints simultaneously, so DD_Add (Fig. 6) vectorizes to
/// 14 arithmetic intrinsics + 3 cross-lane shuffles = 17 intrinsics,
/// matching Table III. Multiplication selects by sign case as the paper
/// does: when neither factor straddles zero, one pairwise dd product
/// computes the negated-low and the high endpoint together (operands
/// picked with blendv, no branch on the signs); when a factor straddles
/// zero, two pairwise products and one pairwise dd maximum. Division
/// falls back to the scalar sign-case path (see DESIGN.md).
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

/// [x1, x0, x3, x2]: swaps the two dd values within each lane.
inline __m256d swapDd(__m256d X) { return _mm256_permute_pd(X, 0b0101); }

} // namespace detail

/// Interval ddi addition: DD_Add of Fig. 6 on both endpoints at once.
/// 14 arithmetic intrinsics + 3 shuffles (Table III row 1).
inline DdIntervalAvx ddiAdd(const DdIntervalAvx &X, const DdIntervalAvx &Y) {
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
  return DdIntervalAvx(detail::concatLow(ZH, ZL));
}

inline DdIntervalAvx ddiNeg(const DdIntervalAvx &X) {
  // Swap the endpoints (negLo <-> hi), exact.
  return DdIntervalAvx(detail::swapDd(X.V));
}

inline DdIntervalAvx ddiSub(const DdIntervalAvx &X, const DdIntervalAvx &Y) {
  return ddiAdd(X, ddiNeg(Y));
}

namespace detail {

/// Pairwise upward double-double product of two dd 2-vectors in the
/// [H0 | H1 | L0 | L1] layout; returns the same layout. Mirrors ddMulUp.
inline __m256d ddPairMulUp(__m256d A, __m256d B) {
  __m256d P = _mm256_mul_pd(A, B); // lanes01: AH*BH; lanes23: AL*BL (RU)
  __m256d E = _mm256_fmsub_pd(A, B, P); // lanes01: exact residues
  __m256d BS = swap128(B);
  __m256d C = _mm256_mul_pd(A, BS); // lanes01: AH*BL; lanes23: AL*BH
  __m256d S1 = _mm256_add_pd(C, swap128(C)); // lanes01: cross sum
  __m256d S2 = _mm256_add_pd(S1, swap128(P)); // + AL*BL
  __m256d E2 = _mm256_add_pd(E, S2);
  __m256d ZH, ZL;
  twoSum256(P, E2, ZH, ZL);
  return concatLow(ZH, ZL);
}

/// Pairwise dd maximum: each __m256d holds two dd values [H0|H1|L0|L1];
/// selects per-dd the larger. No NaNs allowed.
inline __m256d ddPairMax(__m256d A, __m256d B) {
  __m256d GT = _mm256_cmp_pd(A, B, _CMP_GT_OQ); // lanes01: H>, lanes23: L>
  __m256d EQ = _mm256_cmp_pd(A, B, _CMP_EQ_OQ); // lanes01: H==
  __m256d GTL = swap128(GT);                    // lanes01: L>
  __m256d Sel01 = _mm256_or_pd(GT, _mm256_and_pd(EQ, GTL));
  __m256d Sel = dupLow(Sel01);
  return _mm256_blendv_pd(B, A, Sel);
}

inline __m256d dupLoWords(__m256d X) {
  return _mm256_permute_pd(X, 0b0000); // [x0,x0,x2,x2]
}
inline __m256d dupHiWords(__m256d X) {
  return _mm256_permute_pd(X, 0b1111); // [x1,x1,x3,x3]
}
inline __m256d negLane0(__m256d X) {
  return _mm256_xor_pd(X, _mm256_set_pd(0.0, -0.0, 0.0, -0.0));
}

/// RU(H + L) <= 0 of the four stored endpoints of X and Y, one per lane
/// of [x >= 0 | x <= 0 | y >= 0 | y <= 0] (a negated low endpoint <= 0
/// is a low endpoint >= 0); the scalar ddiMul's sign test.
inline __m256d nonPositive4(__m256d X, __m256d Y) {
  __m256d H = _mm256_permute2f128_pd(X, Y, 0x20); // [xn.H xh.H yn.H yh.H]
  __m256d L = _mm256_permute2f128_pd(X, Y, 0x31); // [xn.L xh.L yn.L yh.L]
  return _mm256_cmp_pd(_mm256_add_pd(H, L), _mm256_setzero_pd(),
                       _CMP_LE_OQ);
}

} // namespace detail

/// Interval ddi multiplication by the sign-case selection of the scalar
/// ddiMul (DdInterval.h), X = [a, b] = [xn | xh], Y = [c, d] = [yn | yh]:
///  - neither factor straddles zero: one ddPairMulUp(A, B) computes both
///    endpoints, A = y >= 0 ? [xn | xh] : -[xh | xn] and
///    B = x >= 0 ? [-yn | yh] : [yh | -yn], picked by blendv without a
///    branch on the signs;
///  - a factor straddles zero: [-a*d | a*c] and [-b*c | b*d] by two
///    ddPairMulUp, then one ddPairMax.
/// Every lane multiplies the scalar path's operands in the scalar path's
/// order, so the results agree bit for bit.
inline DdIntervalAvx ddiMul(const DdIntervalAvx &X, const DdIntervalAvx &Y) {
  assertRoundUpward();
  if (__builtin_expect(X.hasSpecial() || Y.hasSpecial(), 0))
    return DdIntervalAvx::fromScalar(ddiMul(X.toScalar(), Y.toScalar()));
  __m256d NonPos = detail::nonPositive4(X.V, Y.V);
  int Signs = _mm256_movemask_pd(NonPos);
  __m256d P, Bad;
  if (__builtin_expect((Signs & 0x3) != 0 && (Signs & 0xC) != 0, 1)) {
    // [x >= 0 | x >= 0 | y >= 0 | y >= 0]
    __m256d NonNeg = _mm256_permute_pd(NonPos, 0b0000);
    __m256d NY = detail::negLane0(Y.V);
    __m256d A = _mm256_blendv_pd(
        _mm256_xor_pd(detail::swapDd(X.V), _mm256_set1_pd(-0.0)), X.V,
        detail::dupHigh(NonNeg));
    __m256d B =
        _mm256_blendv_pd(detail::swapDd(NY), NY, detail::dupLow(NonNeg));
    P = detail::ddPairMulUp(A, B);
    Bad = _mm256_cmp_pd(P, P, _CMP_UNORD_Q);
  } else {
    __m256d P1 =
        detail::ddPairMulUp(detail::dupLoWords(X.V), detail::swapDd(Y.V));
    __m256d P2 = detail::ddPairMulUp(detail::dupHiWords(X.V), Y.V);
    Bad = _mm256_cmp_pd(P1, P2, _CMP_UNORD_Q);
    P = detail::ddPairMax(P1, P2);
  }
  // A product that overflowed to NaN: the scalar path recovers the hull.
  if (__builtin_expect(_mm256_movemask_pd(Bad) != 0, 0))
    return DdIntervalAvx::fromScalar(ddiMul(X.toScalar(), Y.toScalar()));
  return DdIntervalAvx(P);
}

/// Division: scalar sign-case path (two directed divisions); the paper's
/// fully vectorized division is future work here as well -- the benchmark
/// shapes are dominated by add/mul.
inline DdIntervalAvx ddiDiv(const DdIntervalAvx &X, const DdIntervalAvx &Y) {
  return DdIntervalAvx::fromScalar(ddiDiv(X.toScalar(), Y.toScalar()));
}

inline TBool ddiCmpLT(const DdIntervalAvx &X, const DdIntervalAvx &Y) {
  return ddiCmpLT(X.toScalar(), Y.toScalar());
}
inline TBool ddiCmpGT(const DdIntervalAvx &X, const DdIntervalAvx &Y) {
  return ddiCmpGT(X.toScalar(), Y.toScalar());
}
inline TBool ddiCmpLE(const DdIntervalAvx &X, const DdIntervalAvx &Y) {
  return ddiCmpLE(X.toScalar(), Y.toScalar());
}
inline TBool ddiCmpGE(const DdIntervalAvx &X, const DdIntervalAvx &Y) {
  return ddiCmpGE(X.toScalar(), Y.toScalar());
}

inline DdIntervalAvx operator+(const DdIntervalAvx &X,
                               const DdIntervalAvx &Y) {
  return ddiAdd(X, Y);
}
inline DdIntervalAvx operator-(const DdIntervalAvx &X,
                               const DdIntervalAvx &Y) {
  return ddiSub(X, Y);
}
inline DdIntervalAvx operator*(const DdIntervalAvx &X,
                               const DdIntervalAvx &Y) {
  return ddiMul(X, Y);
}
inline DdIntervalAvx operator/(const DdIntervalAvx &X,
                               const DdIntervalAvx &Y) {
  return ddiDiv(X, Y);
}

} // namespace igen

#endif // IGEN_INTERVAL_DDSIMD_H
