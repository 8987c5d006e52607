//===- igen_lib.h - Runtime API for IGen-generated code ---------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval runtime interface that IGen-generated code compiles
/// against (the `#include "igen_lib.h"` of Fig. 2). It exposes C-style
/// type names and functions (f64i, ddi, tbool, ia_add_f64, ...) backed by
/// the C++ interval library; generated sources are compiled as C++.
///
/// Configuration macros (define before including):
///   IGEN_F64I_SCALAR  -- f64i is the scalar two-double struct and ddi the
///                        scalar double-double struct (the IGen-ss
///                        configuration). Default: SIMD-backed types
///                        (f64i in one SSE register, ddi in one AVX
///                        register; IGen-sv / IGen-vv / *-dd).
///   IGEN_BATCH_RUNTIME -- back the ia_arr_* batched array operations
///                        with the runtime-dispatched SIMD kernels from
///                        runtime/BatchKernels.h (requires linking
///                        igen_runtime). Default: portable per-element
///                        loops with identical enclosures.
///
/// The caller must run generated functions inside igen::RoundUpwardScope.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_IGEN_LIB_H
#define IGEN_INTERVAL_IGEN_LIB_H

#include "interval/Accumulator.h"
#include "interval/DdInterval.h"
#include "interval/DdSimd.h"
#include "interval/Elementary.h"
#include "interval/Interval.h"
#include "interval/Interval32.h"
#include "interval/IntervalSimd.h"
#include "interval/IntervalVector.h"
#include "interval/PolyKernels.h"
#include "interval/TBool.h"

#if defined(IGEN_BATCH_RUNTIME)
#include "runtime/BatchKernels.h"
#endif

// The row kernels (see "Row kernels" below) pack four intervals per
// AVX-512 register when the including TU's -m flags allow it.
#if !defined(IGEN_F64I_SCALAR) && defined(__AVX512F__) &&                    \
    defined(__AVX512DQ__) && defined(__AVX512VL__) && defined(__FMA__)
#define IGEN_ROW_KERNELS_AVX512 1
#endif

#include <cmath>
#include <cstdint>

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

// The whole API lives in a configuration-specific namespace pulled in by a
// using-directive: a binary may then link translation units built with
// *different* configurations (e.g. an IGen-ss kernel next to an IGen-sv
// kernel in one benchmark) without ODR violations between same-named
// inline functions whose definitions differ.
#if defined(IGEN_F64I_SCALAR)
namespace igen_cfg_scalar {
#else
namespace igen_cfg_simd {
#endif

#if defined(IGEN_F64I_SCALAR)
typedef igen::Interval f64i;
typedef igen::DdInterval ddi;
#else
typedef igen::IntervalSse f64i;
typedef igen::DdIntervalAvx ddi;
#endif

typedef igen::TBool tbool;
typedef igen::SumAccumulatorF64 acc_f64;

/// Vector-of-interval types (Table II): 2k double intervals in k AVX
/// registers.
typedef igen::M256di1 m256di_1;
typedef igen::M256di2 m256di_2;
typedef igen::M256di4 m256di_4;

/// Double-double vectors: SIMD inputs compiled to double-double use k
/// element-wise ddi values (the automatic path of Section V).
struct ddi_2 {
  ddi v[2];
};
struct ddi_4 {
  ddi v[4];
};
struct ddi_8 {
  ddi v[8];
};

//===----------------------------------------------------------------------===//
// f64i operations
//===----------------------------------------------------------------------===//

inline f64i ia_set_f64(double Lo, double Hi) {
  return f64i::fromEndpoints(Lo, Hi);
}
inline f64i ia_cst_f64(double X) { return f64i::fromPoint(X); }
inline f64i ia_set_tol_f64(double X, double Tol) {
  return f64i::fromInterval(igen::iSetTol(X, Tol));
}

inline double ia_inf_f64(f64i X) { return X.lo(); }
inline double ia_sup_f64(f64i X) { return X.hi(); }

inline f64i ia_add_f64(f64i A, f64i B) { return igen::iAdd(A, B); }
inline f64i ia_sub_f64(f64i A, f64i B) { return igen::iSub(A, B); }
inline f64i ia_mul_f64(f64i A, f64i B) { return igen::iMul(A, B); }
inline f64i ia_div_f64(f64i A, f64i B) { return igen::iDiv(A, B); }
inline f64i ia_neg_f64(f64i A) { return igen::iNeg(A); }

// Sign-specialized variants and fused multiply-add, emitted by the
// transformer's -O mid-end when its value-range analysis proves operand
// signs (p = nonnegative, n = nonpositive, u = unknown; the last letter of
// a mul/fma suffix describes the second operand). Semantically identical
// to the generic calls -- each falls back to them at runtime if its
// precondition turns out violated -- just cheaper.
inline f64i ia_mul_pp_f64(f64i A, f64i B) { return igen::iMulPP(A, B); }
inline f64i ia_mul_pn_f64(f64i A, f64i B) { return igen::iMulPN(A, B); }
inline f64i ia_mul_nn_f64(f64i A, f64i B) { return igen::iMulNN(A, B); }
inline f64i ia_mul_pu_f64(f64i A, f64i B) { return igen::iMulPU(A, B); }
inline f64i ia_mul_nu_f64(f64i A, f64i B) { return igen::iMulNU(A, B); }
inline f64i ia_div_p_f64(f64i A, f64i B) { return igen::iDivP(A, B); }
inline f64i ia_div_n_f64(f64i A, f64i B) { return igen::iDivN(A, B); }
inline f64i ia_fma_f64(f64i A, f64i B, f64i C) {
  return igen::iFma(A, B, C);
}
inline f64i ia_fma_pp_f64(f64i A, f64i B, f64i C) {
  return igen::iFmaPP(A, B, C);
}
inline f64i ia_fma_pn_f64(f64i A, f64i B, f64i C) {
  return igen::iFmaPN(A, B, C);
}
inline f64i ia_fma_nn_f64(f64i A, f64i B, f64i C) {
  return igen::iFmaNN(A, B, C);
}
inline f64i ia_fma_pu_f64(f64i A, f64i B, f64i C) {
  return igen::iFmaPU(A, B, C);
}
inline f64i ia_fma_nu_f64(f64i A, f64i B, f64i C) {
  return igen::iFmaNU(A, B, C);
}

inline f64i ia_sqrt_f64(f64i A) { return igen::iSqrt(A); }
inline f64i ia_abs_f64(f64i A) { return igen::iAbs(A); }
inline f64i ia_floor_f64(f64i A) { return igen::iFloor(A); }
inline f64i ia_ceil_f64(f64i A) { return igen::iCeil(A); }
inline f64i ia_join_f64(f64i A, f64i B) { return igen::iHull(A, B); }
inline f64i ia_min_f64(f64i A, f64i B) {
  return f64i::fromInterval(igen::iMin(A.toInterval(), B.toInterval()));
}
inline f64i ia_max_f64(f64i A, f64i B) {
  return f64i::fromInterval(igen::iMax(A.toInterval(), B.toInterval()));
}
/// Rounds the interval outward to the single-precision grid: sound
/// replacement for a (float) cast in the source (values are promoted to
/// double intervals, Table II).
inline f64i ia_f32cast_f64(f64i A) {
  return f64i::fromInterval(
      igen::Interval32::fromInterval(A.toInterval()).widen());
}

/// Elementary functions run on the scalar representation.
#define IGEN_F64_VIA_SCALAR(NAME, KERNEL)                                    \
  inline f64i ia_##NAME##_f64(f64i A) {                                      \
    return f64i::fromInterval(igen::KERNEL(A.toInterval()));                 \
  }

IGEN_F64_VIA_SCALAR(exp, iExp)
IGEN_F64_VIA_SCALAR(log, iLog)
IGEN_F64_VIA_SCALAR(sin, iSin)
IGEN_F64_VIA_SCALAR(cos, iCos)
IGEN_F64_VIA_SCALAR(tan, iTan)
IGEN_F64_VIA_SCALAR(atan, iAtan)
IGEN_F64_VIA_SCALAR(asin, iAsin)
IGEN_F64_VIA_SCALAR(acos, iAcos)

/// Certified polynomial fast paths (interval/PolyKernels.h), emitted by
/// the transform at -O1 and above in place of the libm-widened versions:
/// no rounding-mode switch per call, and the enclosure is widened by the
/// statically certified kernel bound instead of the libm ulp band.
/// Outside the fast domain they defer to the libm path, so they accept
/// the same inputs as the plain versions.
IGEN_F64_VIA_SCALAR(exp_fast, iExpFast)
IGEN_F64_VIA_SCALAR(log_fast, iLogFast)
IGEN_F64_VIA_SCALAR(sin_fast, iSinFast)
IGEN_F64_VIA_SCALAR(cos_fast, iCosFast)

#undef IGEN_F64_VIA_SCALAR

inline tbool ia_cmplt_f64(f64i A, f64i B) { return igen::iCmpLT(A, B); }
inline tbool ia_cmple_f64(f64i A, f64i B) { return igen::iCmpLE(A, B); }
inline tbool ia_cmpgt_f64(f64i A, f64i B) { return igen::iCmpGT(A, B); }
inline tbool ia_cmpge_f64(f64i A, f64i B) { return igen::iCmpGE(A, B); }
inline tbool ia_cmpeq_f64(f64i A, f64i B) { return igen::iCmpEQ(A, B); }
inline tbool ia_cmpne_f64(f64i A, f64i B) { return igen::iCmpNE(A, B); }

//===----------------------------------------------------------------------===//
// Row kernels (-O innermost loops)
//===----------------------------------------------------------------------===//
//
// At -O the transform lowers two innermost-loop shapes to one call each:
//
//   for (j = L; j < U; j++) Y[ey + j] = Y[ey + j] + a * X[ex + j];
//       -> ia_axpy_f64(&Y[ey + L], a, &X[ex + L], U - L)
//   for (j = L; j < U; j++) s = s + X[ex + j] * Z[ez + j];   (or -)
//       -> ia_dot_f64(&s, &X[ex + L], &Z[ez + L], U - L)     (ia_dotsub)
//
// Each call returns the bits of the per-element -O loop it replaces. The
// axpy kernel makes that loop's sign-version test of a once and runs the
// copy it picks (ia_fma_pu/nu/plain); the dot kernels apply ia_mul_f64
// and then ia_add_f64 (ia_sub_f64) in source order. With AVX-512 they run
// four elements per IntervalX4 register through the same pack op bodies
// (IntervalSimd.h) as the per-element ops, which compute every interval
// as the 128-bit op does, fallback included. Packs are used only where
// they cannot change what the loop reads:
// axpy needs its two rows disjoint or identical, dot needs the
// accumulator outside both rows; anything else runs the per-element loop.

// GCC 12 reports the deliberately undefined pass-through operand of the
// unmasked AVX-512 intrinsics as maybe-uninitialized (the runtime's
// AVX-512 TUs turn the warning off for the same reason).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#pragma GCC diagnostic ignored "-Wuninitialized"
#endif

namespace igen_detail {

/// True when the \p PN elements at \p P and the \p QN elements at \p Q
/// share no byte.
template <class T>
inline bool rowsDisjoint(const T *P, unsigned long PN, const T *Q,
                         unsigned long QN) {
  const std::uintptr_t A = reinterpret_cast<std::uintptr_t>(P);
  const std::uintptr_t B = reinterpret_cast<std::uintptr_t>(Q);
  return A + PN * sizeof(T) <= B || B + QN * sizeof(T) <= A;
}

#if defined(IGEN_ROW_KERNELS_AVX512)

using RowPack = igen::IntervalX4;
using RowRegs = igen::F64Regs<RowPack>;

/// The \p K (<= 4) elements at \p P; the masked load fills dead lanes
/// with a benign interval.
inline RowPack rowLoad(const f64i *P, unsigned long K) {
  const igen::Interval *I = reinterpret_cast<const igen::Interval *>(P);
  return RowPack(K >= 4 ? RowRegs::load(I) : RowRegs::maskLoad(I, K));
}
inline void rowStore(f64i *P, unsigned long K, const RowPack &V) {
  igen::Interval *I = reinterpret_cast<igen::Interval *>(P);
  if (K >= 4)
    RowRegs::store(I, V.V);
  else
    RowRegs::maskStore(I, K, V.V);
}

/// Y[j] = Fused(A, X[j], Y[j]) four elements at a time, a masked pack
/// last. Fused is a pack fma (igen::pack::fma/fmaPU/fmaNU).
template <typename PackOp>
inline void axpyPacks(f64i *Y, f64i A, const f64i *X, unsigned long N,
                      PackOp Fused) {
  const RowPack Av = RowRegs::broadcast(A.toInterval());
  auto Step = [&](unsigned long J, unsigned long K) {
    rowStore(Y + J, K, Fused(Av, rowLoad(X + J, K), rowLoad(Y + J, K)));
  };
  unsigned long J = 0;
  for (; J + 4 <= N; J += 4)
    Step(J, 4);
  if (J < N)
    Step(J, N - J);
}

/// *S +- X[j] * Z[j]: four products per register, then the K live ones
/// added to the accumulator in order, as ia_add_f64/ia_sub_f64 would.
template <bool Sub>
inline void dotPacks(f64i *S, const f64i *X, const f64i *Z,
                     unsigned long N) {
  f64i Acc = *S;
  auto Fold = [&](unsigned long J, unsigned long K) {
    const __m512d P =
        igen::pack::mul(rowLoad(X + J, K), rowLoad(Z + J, K)).V;
    const __m128d Lanes[4] = {
        _mm512_castpd512_pd128(P), _mm512_extractf64x2_pd(P, 1),
        _mm512_extractf64x2_pd(P, 2), _mm512_extractf64x2_pd(P, 3)};
    for (unsigned long L = 0; L < K; ++L)
      Acc = Sub ? ia_sub_f64(Acc, f64i(Lanes[L]))
                : ia_add_f64(Acc, f64i(Lanes[L]));
  };
  unsigned long J = 0;
  for (; J + 4 <= N; J += 4)
    Fold(J, 4);
  if (J < N)
    Fold(J, N - J);
  *S = Acc;
}

#endif

/// *S +- X[j] * Z[j] for j = 0, 1, ..., N - 1, in that order.
template <bool Sub>
inline void dotRow(f64i *S, const f64i *X, const f64i *Z, unsigned long N) {
#if defined(IGEN_ROW_KERNELS_AVX512)
  if (rowsDisjoint(S, 1, X, N) && rowsDisjoint(S, 1, Z, N)) {
    dotPacks<Sub>(S, X, Z, N);
    return;
  }
#endif
  for (unsigned long J = 0; J < N; ++J)
    *S = Sub ? ia_sub_f64(*S, ia_mul_f64(X[J], Z[J]))
             : ia_add_f64(*S, ia_mul_f64(X[J], Z[J]));
}

} // namespace igen_detail

/// Y[j] = Y[j] + A * X[j] for j in [0, N), as the sign-versioned -O loop
/// computes it: ia_fma_pu_f64 when inf(A) >= 0, ia_fma_nu_f64 when
/// sup(A) <= 0, ia_fma_f64 otherwise.
inline void ia_axpy_f64(f64i *Y, f64i A, const f64i *X, unsigned long N) {
#if defined(IGEN_ROW_KERNELS_AVX512)
  if (Y == X || igen_detail::rowsDisjoint(Y, N, X, N)) {
    if (ia_inf_f64(A) >= 0.0)
      igen_detail::axpyPacks(Y, A, X, N, [](const auto &...P) {
        return igen::pack::fmaPU(P...);
      });
    else if (ia_sup_f64(A) <= 0.0)
      igen_detail::axpyPacks(Y, A, X, N, [](const auto &...P) {
        return igen::pack::fmaNU(P...);
      });
    else
      igen_detail::axpyPacks(Y, A, X, N, [](const auto &...P) {
        return igen::pack::fma(P...);
      });
    return;
  }
#endif
  if (ia_inf_f64(A) >= 0.0) {
    for (unsigned long J = 0; J < N; ++J)
      Y[J] = ia_fma_pu_f64(A, X[J], Y[J]);
  } else if (ia_sup_f64(A) <= 0.0) {
    for (unsigned long J = 0; J < N; ++J)
      Y[J] = ia_fma_nu_f64(A, X[J], Y[J]);
  } else {
    for (unsigned long J = 0; J < N; ++J)
      Y[J] = ia_fma_f64(A, X[J], Y[J]);
  }
}

/// *S = *S + X[j] * Z[j] for j = 0, 1, ..., N - 1, in that order.
inline void ia_dot_f64(f64i *S, const f64i *X, const f64i *Z,
                       unsigned long N) {
  igen_detail::dotRow<false>(S, X, Z, N);
}

/// *S = *S - X[j] * Z[j] for j = 0, 1, ..., N - 1, in that order.
inline void ia_dotsub_f64(f64i *S, const f64i *X, const f64i *Z,
                          unsigned long N) {
  igen_detail::dotRow<true>(S, X, Z, N);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

//===----------------------------------------------------------------------===//
// Batched array operations (driver --batch-loops)
//===----------------------------------------------------------------------===//
//
// Elementwise whole-array forms of the core operations, emitted by the
// transform for recognized `d[i] = a[i] OP b[i]` loops. With
// IGEN_BATCH_RUNTIME defined they dispatch to the runtime's SIMD-tiered
// kernels (one rounding-mode switch per call instead of per element);
// otherwise they are portable per-element loops. Both modes compute
// identical enclosures. Division bit patterns may differ between the two
// modes on inputs where the sign-specialized routing and the generic
// quotient enumeration resolve signed-zero candidate ties differently;
// within either mode results are deterministic.

#if defined(IGEN_BATCH_RUNTIME)
inline void ia_arr_add_f64(f64i *D, const f64i *A, const f64i *B,
                           unsigned long N) {
  igen::runtime::iarr_add(D, A, B, N);
}
inline void ia_arr_sub_f64(f64i *D, const f64i *A, const f64i *B,
                           unsigned long N) {
  igen::runtime::iarr_sub(D, A, B, N);
}
inline void ia_arr_mul_f64(f64i *D, const f64i *A, const f64i *B,
                           unsigned long N) {
  igen::runtime::iarr_mul(D, A, B, N);
}
inline void ia_arr_div_f64(f64i *D, const f64i *A, const f64i *B,
                           unsigned long N) {
  igen::runtime::iarr_div(D, A, B, N);
}
inline void ia_arr_sqrt_f64(f64i *D, const f64i *A, unsigned long N) {
  igen::runtime::iarr_sqrt(D, A, N);
}
#else
inline void ia_arr_add_f64(f64i *D, const f64i *A, const f64i *B,
                           unsigned long N) {
  for (unsigned long I = 0; I < N; ++I)
    D[I] = ia_add_f64(A[I], B[I]);
}
inline void ia_arr_sub_f64(f64i *D, const f64i *A, const f64i *B,
                           unsigned long N) {
  for (unsigned long I = 0; I < N; ++I)
    D[I] = ia_sub_f64(A[I], B[I]);
}
inline void ia_arr_mul_f64(f64i *D, const f64i *A, const f64i *B,
                           unsigned long N) {
  for (unsigned long I = 0; I < N; ++I)
    D[I] = ia_mul_f64(A[I], B[I]);
}
inline void ia_arr_div_f64(f64i *D, const f64i *A, const f64i *B,
                           unsigned long N) {
  for (unsigned long I = 0; I < N; ++I)
    D[I] = ia_div_f64(A[I], B[I]);
}
inline void ia_arr_sqrt_f64(f64i *D, const f64i *A, unsigned long N) {
  for (unsigned long I = 0; I < N; ++I)
    D[I] = ia_sqrt_f64(A[I]);
}
#endif

//===----------------------------------------------------------------------===//
// tbool operations
//===----------------------------------------------------------------------===//

inline bool ia_cvt2bool_tb(tbool B) { return igen::cvt2Bool(B); }
inline tbool ia_and_tb(tbool A, tbool B) { return igen::tboolAnd(A, B); }
inline tbool ia_or_tb(tbool A, tbool B) { return igen::tboolOr(A, B); }
inline tbool ia_not_tb(tbool A) { return igen::tboolNot(A); }
inline tbool ia_bool2tb(int B) { return igen::tboolFromBool(B != 0); }
inline bool ia_istrue_tb(tbool B) { return B == igen::TBool::True; }
inline bool ia_isfalse_tb(tbool B) { return B == igen::TBool::False; }

//===----------------------------------------------------------------------===//
// f64i reduction accumulator (Section VI-B)
//===----------------------------------------------------------------------===//

inline void isum_init_f64(acc_f64 *Acc, f64i First) { Acc->init(First); }
inline void isum_accumulate_f64(acc_f64 *Acc, f64i T) {
  Acc->accumulate(T);
}
inline f64i isum_reduce_f64(const acc_f64 *Acc) {
  return f64i::fromInterval(Acc->reduce());
}

//===----------------------------------------------------------------------===//
// ddi operations
//===----------------------------------------------------------------------===//

namespace igen_detail {
#if defined(IGEN_F64I_SCALAR)
inline ddi ddiFromScalar(const igen::DdInterval &I) { return I; }
inline igen::DdInterval ddiToScalar(const ddi &I) { return I; }
#else
inline ddi ddiFromScalar(const igen::DdInterval &I) {
  return ddi::fromScalar(I);
}
inline igen::DdInterval ddiToScalar(const ddi &I) { return I.toScalar(); }
#endif
} // namespace igen_detail

inline ddi ia_set_dd(double Lo, double Hi) {
  return igen_detail::ddiFromScalar(
      igen::DdInterval(igen::Dd(-Lo), igen::Dd(Hi)));
}
/// Full double-double endpoints: [LoH + LoL, HiH + HiL].
inline ddi ia_set_ddc(double LoH, double LoL, double HiH, double HiL) {
  return igen_detail::ddiFromScalar(igen::DdInterval(
      igen::Dd(-LoH, -LoL), igen::Dd(HiH, HiL)));
}
inline ddi ia_cst_dd(double X) {
  return igen_detail::ddiFromScalar(igen::DdInterval::fromPoint(X));
}
inline ddi ia_set_tol_dd(double X, double Tol) {
  return igen_detail::ddiFromScalar(
      igen::DdInterval::fromInterval(igen::iSetTol(X, Tol)));
}

inline ddi ia_add_dd(ddi A, ddi B) { return igen::ddiAdd(A, B); }
inline ddi ia_sub_dd(ddi A, ddi B) { return igen::ddiSub(A, B); }
inline ddi ia_mul_dd(ddi A, ddi B) { return igen::ddiMul(A, B); }
inline ddi ia_div_dd(ddi A, ddi B) { return igen::ddiDiv(A, B); }
inline ddi ia_neg_dd(ddi A) { return igen::ddiNeg(A); }

// The ddi row kernel: at -O under --precision=dd the transform lowers
//
//   for (j = L; j < U; j++) Y[ey + j] = Y[ey + j] + a * X[ex + j];
//       -> ia_axpy_dd(&Y[ey + L], a, &X[ex + L], U - L)
//
// (or `+= a * X[ex + j]`), and the call returns the bits of the loop
// Y[j] = ia_add_dd(Y[j], ia_mul_dd(a, X[j])) it replaces. With AVX-512 it
// runs eight elements per pack of DdSimd.h's DdPack8 backend: the same
// ddiAdd/ddiMul bodies, every lane computing the scalar backend's
// operations, a pack whose multiply overflows in some lane recomputed
// lane by lane. The multiplier is tested once per call: with a NaN or
// infinite word, every pack would take that fallback, so the loop runs.
// A pack whose Y holds a NaN word, or whose X a NaN or infinite one, runs
// element by element: which NaN an addition of two NaN words returns
// follows its operand order, which the compiler picks per backend.
// Packs are used only where they cannot change what the loop reads: the
// rows identical or disjoint. A tail of fewer than eight elements and
// every other case run the loop.

#if defined(IGEN_ROW_KERNELS_AVX512)
namespace igen_detail {
inline void ddAxpyPacks(ddi *Y, ddi A, const ddi *X, unsigned long N) {
  using Pack = igen::DdRegs<igen::DdPack8>;
  auto Loop = [&](unsigned long From, unsigned long To) {
    for (unsigned long J = From; J < To; ++J)
      Y[J] = ia_add_dd(Y[J], ia_mul_dd(A, X[J]));
  };
  const igen::DdPack8 Av = Pack::broadcast(A);
  unsigned long J = 0;
  for (; J + Pack::Lanes <= N; J += Pack::Lanes) {
    const igen::DdPack8 Yv = Pack::load(Y + J), Xv = Pack::load(X + J);
    if (__builtin_expect(Pack::unordered(Yv, Yv) || Pack::special(Xv), 0))
      Loop(J, J + Pack::Lanes);
    else
      Pack::store(Y + J, igen::ddiAdd(Yv, igen::ddiMul(Av, Xv)));
  }
  Loop(J, N);
}
} // namespace igen_detail
#endif

/// Y[j] = ia_add_dd(Y[j], ia_mul_dd(A, X[j])) for j in [0, N).
inline void ia_axpy_dd(ddi *Y, ddi A, const ddi *X, unsigned long N) {
#if defined(IGEN_ROW_KERNELS_AVX512)
  if (!A.hasSpecial() && (Y == X || igen_detail::rowsDisjoint(Y, N, X, N))) {
    igen_detail::ddAxpyPacks(Y, A, X, N);
    return;
  }
#endif
  for (unsigned long J = 0; J < N; ++J)
    Y[J] = ia_add_dd(Y[J], ia_mul_dd(A, X[J]));
}

/// Double-double sqrt/abs are computed on the scalar representation.
/// Every sign is read from RU(H + L) (ddToDoubleUp) and the maximum from
/// ddMax, exact also for an unnormalized endpoint whose low word
/// outweighs its high word.
inline ddi ia_abs_dd(ddi A) {
  igen::DdInterval S = igen_detail::ddiToScalar(A);
  if (S.hasNaN())
    return igen_detail::ddiFromScalar(igen::DdInterval::nan());
  if (igen::ddToDoubleUp(S.NegLo) <= 0.0) // lo >= 0
    return A;
  if (igen::ddToDoubleUp(S.Hi) <= 0.0) // hi <= 0
    return ia_neg_dd(A);
  return igen_detail::ddiFromScalar(igen::DdInterval(
      igen::Dd(0.0), igen::ddMax(S.NegLo, S.Hi)));
}

/// sqrt on ddi endpoints at full double-double accuracy: Heron-step
/// directed bounds (ddSqrtUp/ddSqrtDown). Negative lower endpoints yield
/// a NaN lower endpoint, as in the double-precision sqrt (Section IV-A).
inline ddi ia_sqrt_dd(ddi A) {
  igen::DdInterval S = igen_detail::ddiToScalar(A);
  if (S.hasNaN() || igen::ddToDoubleUp(S.Hi) < 0.0)
    return igen_detail::ddiFromScalar(igen::DdInterval::nan());
  igen::Dd Hi = igen::ddSqrtUp(S.Hi);
  igen::Dd Lo = igen::ddNeg(S.NegLo);
  if (igen::ddToDoubleUp(Lo) < 0.0)
    return igen_detail::ddiFromScalar(igen::DdInterval(
        igen::Dd(std::numeric_limits<double>::quiet_NaN(), 0.0), Hi));
  return igen_detail::ddiFromScalar(
      igen::DdInterval::fromEndpoints(igen::ddSqrtDown(Lo), Hi));
}

inline ddi ia_min_dd(ddi A, ddi B) {
  return igen_detail::ddiFromScalar(igen::ddiMin(
      igen_detail::ddiToScalar(A), igen_detail::ddiToScalar(B)));
}
inline ddi ia_max_dd(ddi A, ddi B) {
  return igen_detail::ddiFromScalar(igen::ddiMax(
      igen_detail::ddiToScalar(A), igen_detail::ddiToScalar(B)));
}
inline ddi ia_f32cast_dd(ddi A) {
  igen::Interval Hull = igen_detail::ddiToScalar(A).outerHull();
  return igen_detail::ddiFromScalar(igen::DdInterval::fromInterval(
      igen::Interval32::fromInterval(Hull).widen()));
}

/// Elementary functions on ddi fall back to the double-precision kernels
/// applied to the outer f64 hull of the argument: the result encloses the
/// true image (the hull encloses the argument, the f64 kernel is sound on
/// the hull), it is just no tighter than the f64 enclosure of a hull-wide
/// input. This is what makes transcendental kernels *compile* at the ddi
/// tier — the error amplification through exp/log/sin/cos is still
/// computed at dd precision everywhere else, and for the adaptive tiering
/// path (igen --tier) the escalated re-execution only needs the dd
/// arithmetic around these calls to recover the cancellation losses.
#define IGEN_DD_HULL_FALLBACK(NAME, F64_KERNEL)                              \
  inline ddi ia_##NAME##_dd(ddi A) {                                         \
    igen::Interval H = igen_detail::ddiToScalar(A).outerHull();              \
    return igen_detail::ddiFromScalar(                                       \
        igen::DdInterval::fromInterval(igen::F64_KERNEL(H)));                \
  }

IGEN_DD_HULL_FALLBACK(exp, iExp)
IGEN_DD_HULL_FALLBACK(log, iLog)
IGEN_DD_HULL_FALLBACK(sin, iSin)
IGEN_DD_HULL_FALLBACK(cos, iCos)
IGEN_DD_HULL_FALLBACK(tan, iTan)
IGEN_DD_HULL_FALLBACK(atan, iAtan)
IGEN_DD_HULL_FALLBACK(asin, iAsin)
IGEN_DD_HULL_FALLBACK(acos, iAcos)
IGEN_DD_HULL_FALLBACK(floor, iFloor)
IGEN_DD_HULL_FALLBACK(ceil, iCeil)

#undef IGEN_DD_HULL_FALLBACK

//===----------------------------------------------------------------------===//
// Precision-tier conversions (igen --tier, Section VI-A ladder)
//===----------------------------------------------------------------------===//

/// Exact f64i -> ddi promotion: every double endpoint is representable as
/// a double-double, so the promoted interval is the same set of reals.
/// Free of rounding; used to lift an escalation region's live-in snapshot
/// onto the ddi tier.
inline ddi ia_promote_f64_dd(f64i X) {
  return igen_detail::ddiFromScalar(
      igen::DdInterval::fromInterval(X.toInterval()));
}

/// Sound ddi -> f64i narrowing: the outer double hull (lo rounded down,
/// hi rounded up), i.e. the tightest f64i superset of the ddi enclosure.
inline f64i ia_narrow_dd_f64(ddi X) {
  return f64i::fromInterval(igen_detail::ddiToScalar(X).outerHull());
}

/// Intersection of two enclosures of the same real value: both are sound,
/// so their intersection is sound and at least as tight as either. NaN
/// endpoints act as "unbounded" (fmax/fmin ignore them); a numerically
/// empty meet — impossible for two sound enclosures of one value, but
/// reachable if a caller intersects unrelated intervals — degrades to the
/// first argument. Used by --tier to combine the f64i result with the
/// narrowed re-executed ddi result.
inline f64i ia_meet_f64(f64i A, f64i B) {
  double Lo = std::fmax(ia_inf_f64(A), ia_inf_f64(B));
  double Hi = std::fmin(ia_sup_f64(A), ia_sup_f64(B));
  if (!(Lo <= Hi))
    return A;
  return ia_set_f64(Lo, Hi);
}

inline tbool ia_cmplt_dd(ddi A, ddi B) { return igen::ddiCmpLT(A, B); }
inline tbool ia_cmple_dd(ddi A, ddi B) { return igen::ddiCmpLE(A, B); }
inline tbool ia_cmpgt_dd(ddi A, ddi B) { return igen::ddiCmpGT(A, B); }
inline tbool ia_cmpge_dd(ddi A, ddi B) { return igen::ddiCmpGE(A, B); }

inline ddi ia_join_dd(ddi A, ddi B) {
  return igen_detail::ddiFromScalar(igen::ddiHull(
      igen_detail::ddiToScalar(A), igen_detail::ddiToScalar(B)));
}

/// Double-double reduction accumulator (exponent-indexed exact array).
typedef igen::SumAccumulatorDd acc_dd;

inline void isum_init_dd(acc_dd *Acc, ddi First) {
  Acc->init(igen_detail::ddiToScalar(First));
}
inline void isum_accumulate_dd(acc_dd *Acc, ddi T) {
  Acc->accumulate(igen_detail::ddiToScalar(T));
}
inline ddi isum_reduce_dd(const acc_dd *Acc) {
  return igen_detail::ddiFromScalar(Acc->reduce());
}

//===----------------------------------------------------------------------===//
// Vector-of-interval operations (IGen-vv)
//===----------------------------------------------------------------------===//

inline m256di_1 ia_add_m256di_1(m256di_1 A, m256di_1 B) {
  return igen::iAdd(A, B);
}
inline m256di_1 ia_sub_m256di_1(m256di_1 A, m256di_1 B) {
  return igen::iSub(A, B);
}
inline m256di_1 ia_mul_m256di_1(m256di_1 A, m256di_1 B) {
  return igen::iMul(A, B);
}
inline m256di_1 ia_div_m256di_1(m256di_1 A, m256di_1 B) {
  return igen::iDiv(A, B);
}
inline m256di_1 ia_fma_m256di_1(m256di_1 A, m256di_1 B, m256di_1 C) {
  return igen::iFma(A, B, C);
}

inline m256di_2 ia_add_m256di_2(m256di_2 A, m256di_2 B) {
  return igen::iAdd(A, B);
}
inline m256di_2 ia_sub_m256di_2(m256di_2 A, m256di_2 B) {
  return igen::iSub(A, B);
}
inline m256di_2 ia_mul_m256di_2(m256di_2 A, m256di_2 B) {
  return igen::iMul(A, B);
}
inline m256di_2 ia_div_m256di_2(m256di_2 A, m256di_2 B) {
  return igen::iDiv(A, B);
}
inline m256di_2 ia_fma_m256di_2(m256di_2 A, m256di_2 B, m256di_2 C) {
  return igen::iFma(A, B, C);
}
inline m256di_2 ia_sqrt_m256di_2(m256di_2 A) { return igen::iSqrt(A); }

inline m256di_4 ia_add_m256di_4(m256di_4 A, m256di_4 B) {
  return igen::iAdd(A, B);
}
inline m256di_4 ia_sub_m256di_4(m256di_4 A, m256di_4 B) {
  return igen::iSub(A, B);
}
inline m256di_4 ia_mul_m256di_4(m256di_4 A, m256di_4 B) {
  return igen::iMul(A, B);
}
inline m256di_4 ia_div_m256di_4(m256di_4 A, m256di_4 B) {
  return igen::iDiv(A, B);
}
inline m256di_4 ia_fma_m256di_4(m256di_4 A, m256di_4 B, m256di_4 C) {
  return igen::iFma(A, B, C);
}

/// Loads/stores: an array of f64i has the layout [-lo0|hi0|-lo1|hi1|...],
/// exactly the m256di layout, so a __m256d load of 4 doubles becomes two
/// AVX loads of 4 interval halves.
inline m256di_2 ia_loadu_m256di_2(const f64i *P) {
  const double *D = reinterpret_cast<const double *>(P);
  m256di_2 R;
  R.Part[0] = igen::IntervalX2(_mm256_loadu_pd(D));
  R.Part[1] = igen::IntervalX2(_mm256_loadu_pd(D + 4));
  return R;
}
inline void ia_storeu_m256di_2(f64i *P, m256di_2 V) {
  double *D = reinterpret_cast<double *>(P);
  _mm256_storeu_pd(D, V.Part[0].V);
  _mm256_storeu_pd(D + 4, V.Part[1].V);
}
inline m256di_4 ia_loadu_m256di_4(const f64i *P) {
  const double *D = reinterpret_cast<const double *>(P);
  m256di_4 R;
  for (int I = 0; I < 4; ++I)
    R.Part[I] = igen::IntervalX2(_mm256_loadu_pd(D + 4 * I));
  return R;
}
inline void ia_storeu_m256di_4(f64i *P, m256di_4 V) {
  double *D = reinterpret_cast<double *>(P);
  for (int I = 0; I < 4; ++I)
    _mm256_storeu_pd(D + 4 * I, V.Part[I].V);
}
inline m256di_1 ia_loadu_m256di_1(const f64i *P) {
  m256di_1 R;
  R.Part[0] =
      igen::IntervalX2(_mm256_loadu_pd(reinterpret_cast<const double *>(P)));
  return R;
}
inline void ia_storeu_m256di_1(f64i *P, m256di_1 V) {
  _mm256_storeu_pd(reinterpret_cast<double *>(P), V.Part[0].V);
}
inline m256di_2 ia_set1_m256di_2(f64i X) {
  igen::Interval I = X.toInterval();
  m256di_2 R;
  R.Part[0] = igen::IntervalX2::broadcast(I);
  R.Part[1] = igen::IntervalX2::broadcast(I);
  return R;
}
inline m256di_1 ia_setzero_m256di_1() { return m256di_1(); }
inline m256di_2 ia_setzero_m256di_2() { return m256di_2(); }
inline m256di_4 ia_setzero_m256di_4() { return m256di_4(); }
inline m256di_1 ia_set1_m256di_1(f64i X) {
  m256di_1 R;
  R.Part[0] = igen::IntervalX2::broadcast(X.toInterval());
  return R;
}
/// Mirrors _mm256_set_pd(e3, e2, e1, e0): element i of the result is Ei.
inline m256di_2 ia_set_m256di_2(f64i E3, f64i E2, f64i E1, f64i E0) {
  m256di_2 R;
  R.Part[0] =
      igen::IntervalX2::fromIntervals(E0.toInterval(), E1.toInterval());
  R.Part[1] =
      igen::IntervalX2::fromIntervals(E2.toInterval(), E3.toInterval());
  return R;
}
/// Extracts interval lane \p I.
inline f64i ia_extract_m256di_1(m256di_1 V, int I) {
  return f64i::fromInterval(V.Part[0].interval(I));
}
inline f64i ia_extract_m256di_2(m256di_2 V, int I) {
  return f64i::fromInterval(V.interval(I));
}
/// _mm_cvtsd_f64 equivalent: the low interval of the vector.
inline f64i ia_extract0_m256di_1(m256di_1 V) {
  return ia_extract_m256di_1(V, 0);
}

/// _mm256_extractf128_pd equivalent: intervals {2*Imm, 2*Imm+1}.
inline m256di_1 ia_extractf128_m256di_2(m256di_2 V, int Imm) {
  m256di_1 R;
  R.Part[0] = V.Part[Imm & 1];
  return R;
}
/// _mm256_castpd256_pd128 equivalent: the low two intervals.
inline m256di_1 ia_castlow_m256di_2(m256di_2 V) {
  m256di_1 R;
  R.Part[0] = V.Part[0];
  return R;
}

//===----------------------------------------------------------------------===//
// Element-wise double-double vectors (IGen-vv-dd)
//===----------------------------------------------------------------------===//

inline ddi_2 ia_add_ddi_2(ddi_2 A, ddi_2 B) {
  ddi_2 R;
  for (int I = 0; I < 2; ++I)
    R.v[I] = ia_add_dd(A.v[I], B.v[I]);
  return R;
}
inline ddi_2 ia_sub_ddi_2(ddi_2 A, ddi_2 B) {
  ddi_2 R;
  for (int I = 0; I < 2; ++I)
    R.v[I] = ia_sub_dd(A.v[I], B.v[I]);
  return R;
}
inline ddi_2 ia_mul_ddi_2(ddi_2 A, ddi_2 B) {
  ddi_2 R;
  for (int I = 0; I < 2; ++I)
    R.v[I] = ia_mul_dd(A.v[I], B.v[I]);
  return R;
}
inline ddi_4 ia_add_ddi_4(ddi_4 A, ddi_4 B) {
  ddi_4 R;
  for (int I = 0; I < 4; ++I)
    R.v[I] = ia_add_dd(A.v[I], B.v[I]);
  return R;
}
inline ddi_4 ia_sub_ddi_4(ddi_4 A, ddi_4 B) {
  ddi_4 R;
  for (int I = 0; I < 4; ++I)
    R.v[I] = ia_sub_dd(A.v[I], B.v[I]);
  return R;
}
inline ddi_4 ia_mul_ddi_4(ddi_4 A, ddi_4 B) {
  ddi_4 R;
  for (int I = 0; I < 4; ++I)
    R.v[I] = ia_mul_dd(A.v[I], B.v[I]);
  return R;
}
inline ddi_4 ia_mul_ddi_4(ddi_4 A, ddi_4 B);
inline ddi_2 ia_loadu_ddi_2(const ddi *P) {
  ddi_2 R;
  R.v[0] = P[0];
  R.v[1] = P[1];
  return R;
}
inline void ia_storeu_ddi_2(ddi *P, ddi_2 V) {
  P[0] = V.v[0];
  P[1] = V.v[1];
}
inline ddi_2 ia_set1_ddi_2(ddi X) {
  ddi_2 R;
  R.v[0] = X;
  R.v[1] = X;
  return R;
}
inline ddi_4 ia_loadu_ddi_4(const ddi *P) {
  ddi_4 R;
  for (int I = 0; I < 4; ++I)
    R.v[I] = P[I];
  return R;
}
inline void ia_storeu_ddi_4(ddi *P, ddi_4 V) {
  for (int I = 0; I < 4; ++I)
    P[I] = V.v[I];
}
inline ddi_4 ia_set1_ddi_4(ddi X) {
  ddi_4 R;
  for (int I = 0; I < 4; ++I)
    R.v[I] = X;
  return R;
}
inline ddi_4 ia_set_ddi_4(ddi E3, ddi E2, ddi E1, ddi E0) {
  ddi_4 R;
  R.v[0] = E0;
  R.v[1] = E1;
  R.v[2] = E2;
  R.v[3] = E3;
  return R;
}
inline ddi_2 ia_setzero_ddi_2() {
  return ia_set1_ddi_2(ia_cst_dd(0.0));
}
inline ddi_4 ia_setzero_ddi_4() {
  return ia_set1_ddi_4(ia_cst_dd(0.0));
}
inline ddi_8 ia_loadu_ddi_8(const ddi *P) {
  ddi_8 R;
  for (int I = 0; I < 8; ++I)
    R.v[I] = P[I];
  return R;
}
inline void ia_storeu_ddi_8(ddi *P, ddi_8 V) {
  for (int I = 0; I < 8; ++I)
    P[I] = V.v[I];
}
inline ddi_2 ia_extractf128_ddi_4(ddi_4 V, int Imm) {
  ddi_2 R;
  R.v[0] = V.v[2 * (Imm & 1)];
  R.v[1] = V.v[2 * (Imm & 1) + 1];
  return R;
}
inline ddi_2 ia_castlow_ddi_4(ddi_4 V) {
  ddi_2 R;
  R.v[0] = V.v[0];
  R.v[1] = V.v[1];
  return R;
}
inline ddi ia_extract0_ddi_2(ddi_2 V) { return V.v[0]; }
inline ddi ia_extract_ddi_2(ddi_2 V, int I) { return V.v[I]; }
inline ddi ia_extract_ddi_4(ddi_4 V, int I) { return V.v[I]; }
inline ddi_4 ia_div_ddi_4(ddi_4 A, ddi_4 B) {
  ddi_4 R;
  for (int I = 0; I < 4; ++I)
    R.v[I] = ia_div_dd(A.v[I], B.v[I]);
  return R;
}
inline ddi_2 ia_div_ddi_2(ddi_2 A, ddi_2 B) {
  ddi_2 R;
  for (int I = 0; I < 2; ++I)
    R.v[I] = ia_div_dd(A.v[I], B.v[I]);
  return R;
}

#if defined(IGEN_F64I_SCALAR)
} // namespace igen_cfg_scalar
using namespace igen_cfg_scalar;
#else
} // namespace igen_cfg_simd
using namespace igen_cfg_simd;
#endif

#endif // IGEN_INTERVAL_IGEN_LIB_H
