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
/// In TUs built with AVX-512, DdPack8 adds a third backend: eight ddi in
/// four __m512d, one register per word, every primitive the scalar one
/// lane by lane (igen_lib.h's ia_axpy_dd runs on it).
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

/// The AVX backend's pairwise max when RU(H + L) ties (or is NaN) in
/// either pair: the scalar backend's ddMax. Static and flattened, like
/// ddiMulOuter, so each TU runs its own copy.
template <DdRegister R>
[[gnu::cold, gnu::noinline, gnu::flatten]] static R maxUpTie(const R &A,
                                                             const R &B) {
  using Regs = DdRegs<R>;
  return Regs::fromScalar(
      DdRegs<DdInterval>::maxUp(Regs::toScalar(A), Regs::toScalar(B)));
}

} // namespace detail

/// The AVX backend: one pair of double-doubles per __m256d.
template <> struct DdRegs<DdIntervalAvx> {
  using R = DdIntervalAvx;

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
      return detail::maxUpTie(A, B);
    __m256d BAbove = _mm256_cmp_pd(UB, UA, _CMP_GT_OQ);
    return R(_mm256_blendv_pd(A.V, B.V, detail::dupLow(BAbove)));
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

#if defined(__AVX512F__) && defined(__AVX512DQ__)

/// Eight double-double intervals in four AVX-512 registers, one register
/// per word and one ddi per lane: W[0] = negLo.H, W[1] = hi.H,
/// W[2] = negLo.L, W[3] = hi.L -- the AVX layout with every element
/// widened to eight lanes. A pair's first dd is (W[0], W[2]), its second
/// (W[1], W[3]).
struct DdPack8 {
  __m512d W[4];
};

namespace detail {

inline void twoSum512(__m512d A, __m512d B, __m512d &S, __m512d &E) {
  S = _mm512_add_pd(A, B);
  const __m512d A1 = _mm512_sub_pd(S, B);
  const __m512d B1 = _mm512_sub_pd(S, A1);
  E = _mm512_add_pd(_mm512_sub_pd(A, A1), _mm512_sub_pd(B, B1));
}

inline void fastTwoSum512(__m512d A, __m512d B, __m512d &S, __m512d &E) {
  S = _mm512_add_pd(A, B);
  E = _mm512_sub_pd(B, _mm512_sub_pd(S, A));
}

/// ddAddUp in every lane: its operation sequence, eight lanes wide.
inline void ddAddUp8(__m512d XH, __m512d XL, __m512d YH, __m512d YL,
                     __m512d &ZH, __m512d &ZL) {
  __m512d SH, SE, TH, TE, VH, VE;
  twoSum512(XH, YH, SH, SE);
  twoSum512(XL, YL, TH, TE);
  fastTwoSum512(SH, _mm512_add_pd(SE, TH), VH, VE);
  fastTwoSum512(VH, _mm512_add_pd(TE, VE), ZH, ZL);
}

/// ddMulUp in every lane.
inline void ddMulUp8(__m512d XH, __m512d XL, __m512d YH, __m512d YL,
                     __m512d &ZH, __m512d &ZL) {
  const __m512d P = _mm512_mul_pd(XH, YH);
  const __m512d E = _mm512_fmsub_pd(XH, YH, P); // exact residue
  const __m512d S1 =
      _mm512_add_pd(_mm512_mul_pd(XH, YL), _mm512_mul_pd(XL, YH));
  const __m512d S2 = _mm512_add_pd(S1, _mm512_mul_pd(XL, YL));
  twoSum512(P, _mm512_add_pd(E, S2), ZH, ZL);
}

/// ddMax in every lane, ddOrder's decisions included: the larger
/// RU(H + L); where those tie, identical words give A, else an upward
/// difference of the lexicographically smaller minus the larger that is
/// <= 0 confirms the larger; otherwise (and for NaN) RU(A) with a zero
/// low word.
inline void ddMax8(__m512d AH, __m512d AL, __m512d BH, __m512d BL,
                   __m512d &ZH, __m512d &ZL) {
  const __m512d UA = _mm512_add_pd(AH, AL), UB = _mm512_add_pd(BH, BL);
  __mmask8 PickB = _mm512_cmp_pd_mask(UB, UA, _CMP_GT_OQ);
  const __mmask8 Tie = static_cast<__mmask8>(
      ~(PickB | _mm512_cmp_pd_mask(UB, UA, _CMP_LT_OQ)));
  if (__builtin_expect(Tie == 0, 1)) {
    ZH = _mm512_mask_blend_pd(PickB, AH, BH);
    ZL = _mm512_mask_blend_pd(PickB, AL, BL);
    return;
  }
  const __mmask8 HEq = _mm512_cmp_pd_mask(AH, BH, _CMP_EQ_OQ);
  const __mmask8 Differ = static_cast<__mmask8>(
      Tie & ~(HEq & _mm512_cmp_pd_mask(AL, BL, _CMP_EQ_OQ)));
  const __mmask8 YAbove = static_cast<__mmask8>(
      _mm512_cmp_pd_mask(AH, BH, _CMP_LT_OQ) |
      (HEq & _mm512_cmp_pd_mask(AL, BL, _CMP_LT_OQ)));
  // YAbove ? ddSubUp(A, B) : ddSubUp(B, A).
  const __m512d Neg = _mm512_set1_pd(-0.0);
  __m512d DH, DL;
  ddAddUp8(_mm512_mask_blend_pd(YAbove, BH, AH),
           _mm512_mask_blend_pd(YAbove, BL, AL),
           _mm512_xor_pd(_mm512_mask_blend_pd(YAbove, AH, BH), Neg),
           _mm512_xor_pd(_mm512_mask_blend_pd(YAbove, AL, BL), Neg), DH, DL);
  const __mmask8 Le = _mm512_cmp_pd_mask(_mm512_add_pd(DH, DL),
                                         _mm512_setzero_pd(), _CMP_LE_OQ);
  PickB = static_cast<__mmask8>(PickB | (Differ & Le & YAbove));
  const __mmask8 Open = static_cast<__mmask8>(Differ & ~Le);
  ZH = _mm512_mask_blend_pd(Open, _mm512_mask_blend_pd(PickB, AH, BH), UA);
  ZL = _mm512_mask_blend_pd(Open, _mm512_mask_blend_pd(PickB, AL, BL),
                            _mm512_setzero_pd());
}

/// Index vectors of the transposing load and store (vpermt2pd over two
/// registers, elements 0-7 of the first and 8-15 of the second). With two
/// registers of two ddi each, pick01 gathers words 0 and 1 of the four
/// ddi and pick23 words 2 and 3; applied to those results they give the
/// ddi back. lowHalves and highHalves join the low (high) four elements
/// of two registers.
inline __m512i pick01() { return _mm512_set_epi64(13, 9, 5, 1, 12, 8, 4, 0); }
inline __m512i pick23() { return _mm512_set_epi64(15, 11, 7, 3, 14, 10, 6, 2); }
inline __m512i lowHalves() {
  return _mm512_set_epi64(11, 10, 9, 8, 3, 2, 1, 0);
}
inline __m512i highHalves() {
  return _mm512_set_epi64(15, 14, 13, 12, 7, 6, 5, 4);
}

} // namespace detail

/// The pack backend: ddAddUp, ddMulUp and ddMax in each of eight lanes,
/// so every lane computes what the scalar backend computes. A multiply
/// that meets a special value or an overflow in any lane recomputes all
/// eight lanes with the scalar backend (lanewise).
template <> struct DdRegs<DdPack8> {
  using R = DdPack8;
  static constexpr unsigned Lanes = 8;

  static R addUp(const R &X, const R &Y) {
    assertRoundUpward();
    R Z;
    detail::ddAddUp8(X.W[0], X.W[2], Y.W[0], Y.W[2], Z.W[0], Z.W[2]);
    detail::ddAddUp8(X.W[1], X.W[3], Y.W[1], Y.W[3], Z.W[1], Z.W[3]);
    return Z;
  }
  static R mulUp(const R &X, const R &Y) {
    R Z;
    detail::ddMulUp8(X.W[0], X.W[2], Y.W[0], Y.W[2], Z.W[0], Z.W[2]);
    detail::ddMulUp8(X.W[1], X.W[3], Y.W[1], Y.W[3], Z.W[1], Z.W[3]);
    return Z;
  }
  static R maxUp(const R &A, const R &B) {
    R Z;
    detail::ddMax8(A.W[0], A.W[2], B.W[0], B.W[2], Z.W[0], Z.W[2]);
    detail::ddMax8(A.W[1], A.W[3], B.W[1], B.W[3], Z.W[1], Z.W[3]);
    return Z;
  }

  static R swap(const R &X) { return R{{X.W[1], X.W[0], X.W[3], X.W[2]}}; }
  /// Negates the second slot, then the first.
  static R neg(const R &X) { return negFirst(swap(negFirst(swap(X)))); }
  static R negFirst(const R &X) {
    const __m512d S = _mm512_set1_pd(-0.0);
    return R{{_mm512_xor_pd(X.W[0], S), X.W[1], _mm512_xor_pd(X.W[2], S),
              X.W[3]}};
  }
  static R dupFirst(const R &X) { return R{{X.W[0], X.W[0], X.W[2], X.W[2]}}; }
  static R dupSecond(const R &X) {
    return R{{X.W[1], X.W[1], X.W[3], X.W[3]}};
  }
  static R select(__mmask8 M, const R &T, const R &F) {
    R Z;
    for (int K = 0; K < 4; ++K)
      Z.W[K] = _mm512_mask_blend_pd(M, F.W[K], T.W[K]);
    return Z;
  }

  /// RU(H + L) <= 0 of the four endpoints, one lane mask each.
  struct Signs {
    __mmask8 XNonNeg, XNonPos, YNonNeg, YNonPos;
  };
  static Signs signs(const R &X, const R &Y) {
    auto NonPos = [](__m512d H, __m512d L) {
      return _mm512_cmp_pd_mask(_mm512_add_pd(H, L), _mm512_setzero_pd(),
                                _CMP_LE_OQ);
    };
    return {NonPos(X.W[0], X.W[2]), NonPos(X.W[1], X.W[3]),
            NonPos(Y.W[0], Y.W[2]), NonPos(Y.W[1], Y.W[3])};
  }
  /// The lanes where neither factor straddles zero.
  static __mmask8 knownLanes(const Signs &S) {
    return static_cast<__mmask8>((S.XNonNeg | S.XNonPos) &
                                 (S.YNonNeg | S.YNonPos));
  }
  static bool signKnown(const Signs &S) { return knownLanes(S) == 0xFF; }
  static __mmask8 xNonNeg(const Signs &S) { return S.XNonNeg; }
  static __mmask8 yNonNeg(const Signs &S) { return S.YNonNeg; }

  /// NaN or infinity in any word of any lane.
  static bool special(const R &X) {
    const __m512d Inf =
        _mm512_set1_pd(std::numeric_limits<double>::infinity());
    __mmask8 Finite = 0xFF;
    for (const __m512d &W : X.W)
      Finite = _mm512_mask_cmp_pd_mask(Finite, _mm512_abs_pd(W), Inf,
                                       _CMP_LT_OQ);
    return Finite != 0xFF;
  }
  static bool unordered(const R &A, const R &B) {
    __mmask8 M = 0;
    for (int K = 0; K < 4; ++K)
      M |= _mm512_cmp_pd_mask(A.W[K], B.W[K], _CMP_UNORD_Q);
    return M != 0;
  }

  /// Fn(lane of X, lane of Y) for every lane, on the scalar backend.
  template <class F> static R lanewise(const R &X, const R &Y, F Fn) {
    alignas(64) double A[4][Lanes], B[4][Lanes];
    for (int K = 0; K < 4; ++K) {
      _mm512_store_pd(A[K], X.W[K]);
      _mm512_store_pd(B[K], Y.W[K]);
    }
    auto Lane = [](const double (*W)[Lanes], unsigned L) {
      return DdInterval(Dd(W[0][L], W[2][L]), Dd(W[1][L], W[3][L]));
    };
    for (unsigned L = 0; L < Lanes; ++L) {
      const DdInterval Z = Fn(Lane(A, L), Lane(B, L));
      A[0][L] = Z.NegLo.H;
      A[1][L] = Z.Hi.H;
      A[2][L] = Z.NegLo.L;
      A[3][L] = Z.Hi.L;
    }
    R Z;
    for (int K = 0; K < 4; ++K)
      Z.W[K] = _mm512_load_pd(A[K]);
    return Z;
  }

  /// \p X in every lane.
  static R broadcast(const DdIntervalAvx &X) {
    alignas(32) double E[4];
    _mm256_store_pd(E, X.V);
    return R{{_mm512_set1_pd(E[0]), _mm512_set1_pd(E[1]),
              _mm512_set1_pd(E[2]), _mm512_set1_pd(E[3])}};
  }
  /// Eight consecutive DdIntervalAvx, transposed: four registers of two
  /// ddi each become one register per word.
  static R load(const DdIntervalAvx *P) {
    using namespace detail;
    const double *D = reinterpret_cast<const double *>(P);
    const __m512d Z0 = _mm512_loadu_pd(D), Z1 = _mm512_loadu_pd(D + 8);
    const __m512d Z2 = _mm512_loadu_pd(D + 16), Z3 = _mm512_loadu_pd(D + 24);
    const __m512d T0 = _mm512_permutex2var_pd(Z0, pick01(), Z1);
    const __m512d T1 = _mm512_permutex2var_pd(Z0, pick23(), Z1);
    const __m512d T2 = _mm512_permutex2var_pd(Z2, pick01(), Z3);
    const __m512d T3 = _mm512_permutex2var_pd(Z2, pick23(), Z3);
    return R{{_mm512_permutex2var_pd(T0, lowHalves(), T2),
              _mm512_permutex2var_pd(T0, highHalves(), T2),
              _mm512_permutex2var_pd(T1, lowHalves(), T3),
              _mm512_permutex2var_pd(T1, highHalves(), T3)}};
  }
  /// The inverse of load.
  static void store(DdIntervalAvx *P, const R &V) {
    using namespace detail;
    double *D = reinterpret_cast<double *>(P);
    const __m512d T0 = _mm512_permutex2var_pd(V.W[0], lowHalves(), V.W[1]);
    const __m512d T2 = _mm512_permutex2var_pd(V.W[0], highHalves(), V.W[1]);
    const __m512d T1 = _mm512_permutex2var_pd(V.W[2], lowHalves(), V.W[3]);
    const __m512d T3 = _mm512_permutex2var_pd(V.W[2], highHalves(), V.W[3]);
    _mm512_storeu_pd(D, _mm512_permutex2var_pd(T0, pick01(), T1));
    _mm512_storeu_pd(D + 8, _mm512_permutex2var_pd(T0, pick23(), T1));
    _mm512_storeu_pd(D + 16, _mm512_permutex2var_pd(T2, pick01(), T3));
    _mm512_storeu_pd(D + 24, _mm512_permutex2var_pd(T2, pick23(), T3));
  }
};

#endif

} // namespace igen

#endif // IGEN_INTERVAL_DDSIMD_H
