//===- IntervalSimd.h - SSE-vectorized double intervals ---------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vectorized double-precision interval of Section IV-A: a full
/// interval (-lo, hi) fits exactly in one __m128d, so interval addition is
/// a single SIMD instruction and multiplication is four packed products,
/// three maxima and a few sign flips (after Goualard's SIMD interval
/// algorithms). This is the interval type behind the IGen-sv configuration.
///
/// Layout: lane 0 holds the negated lower endpoint, lane 1 the upper
/// endpoint. All operations require upward rounding (MXCSR), which
/// fesetround(FE_UPWARD) establishes on x86-64.
///
/// The pack ops are written once, in namespace igen::pack, over a register
/// backend F64Regs<P>: one primitive set per register width. This file
/// holds the 128-bit set (P = IntervalSse); IntervalVector.h adds the
/// 256-bit IntervalX2 and the 512-bit IntervalX4, which carry two and four
/// intervals, each in the 128-bit layout. Every op owns three decisions:
///
///   * its candidate scheme, the 128-bit instruction sequence run lane by
///     lane at every width;
///   * its screen, per interval: mul, fma, their sign forms and div test
///     each endpoint lane's candidates for NaN; div_p/div_n test the
///     interval's candidate sum (N1+N2)+(H1+H2), the scalar iDivP/iDivN
///     check value, so they return the scalar bits on every input;
///   * its fallback: a 128-bit pack whose screen fires runs the op's slow
///     path, a wider pack recomputes each interval with the 128-bit op
///     (which keeps its own fallback).
///
/// So an interval's result bits depend only on its operands, never on the
/// register width or its neighbours.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_INTERVALSIMD_H
#define IGEN_INTERVAL_INTERVALSIMD_H

#include "interval/Interval.h"

#include <cstddef>
#include <cstdint>
#include <immintrin.h>

namespace igen {

/// A double interval in one SSE register: [ -lo | hi ].
struct IntervalSse {
  __m128d V;

  IntervalSse() : V(_mm_setzero_pd()) {}
  explicit IntervalSse(__m128d V) : V(V) {}
  IntervalSse(double NegLo, double Hi) : V(_mm_set_pd(Hi, NegLo)) {}

  static IntervalSse fromEndpoints(double Lo, double Hi) {
    return IntervalSse(-Lo, Hi);
  }
  static IntervalSse fromPoint(double X) { return IntervalSse(-X, X); }
  static IntervalSse fromInterval(const Interval &I) {
    return IntervalSse(I.NegLo, I.Hi);
  }

  Interval toInterval() const {
    return Interval(_mm_cvtsd_f64(V),
                    _mm_cvtsd_f64(_mm_unpackhi_pd(V, V)));
  }

  double negLo() const { return _mm_cvtsd_f64(V); }
  double hi() const { return _mm_cvtsd_f64(_mm_unpackhi_pd(V, V)); }
  double lo() const { return -negLo(); }

  static IntervalSse entire() {
    return fromInterval(Interval::entire());
  }
  static IntervalSse nan() { return fromInterval(Interval::nan()); }
};

/// The primitive set of one register width: lanewise IEEE operations,
/// moves within each interval's (-lo, hi) lane pair, predicates, memory
/// access, and the integer operations of runtime/ElemCores.h's exp/log
/// cores. Specialized for IntervalSse here and for IntervalX2 and
/// IntervalX4 in IntervalVector.h.
template <class P> struct F64Regs;

template <> struct F64Regs<IntervalSse> {
  using D = __m128d;
  using I = __m128i;
  using Mask = int; ///< One bit per lane.
  static constexpr size_t kIntervals = 1;
  static constexpr bool kMaskedTail = false;

  /// Each pair's first (negated-low) lane in both lanes, its second
  /// (high) lane in both lanes, and the two swapped.
  static D dupLo(D X) { return _mm_shuffle_pd(X, X, 0); }
  static D dupHi(D X) { return _mm_shuffle_pd(X, X, 3); }
  static D swap(D X) { return _mm_shuffle_pd(X, X, 1); }
  /// XOR with these negates every negated-low (high) lane.
  static D signLo() { return _mm_set_pd(0.0, -0.0); }
  static D signHi() { return _mm_set_pd(-0.0, 0.0); }
  /// The negated-low lanes of \p L with the high lanes of \p H.
  static D loHi(D L, D H) { return _mm_shuffle_pd(L, H, 0b10); }

  static D set1(double X) { return _mm_set1_pd(X); }
  static D zero() { return _mm_setzero_pd(); }
  static D absMask() {
    return _mm_castsi128_pd(_mm_set1_epi64x(0x7FFFFFFFFFFFFFFFll));
  }
  static D add(D A, D B) { return _mm_add_pd(A, B); }
  static D sub(D A, D B) { return _mm_sub_pd(A, B); }
  static D mul(D A, D B) { return _mm_mul_pd(A, B); }
  static D div(D A, D B) { return _mm_div_pd(A, B); }
#if defined(__FMA__)
  static D fmadd(D A, D B, D C) { return _mm_fmadd_pd(A, B, C); }
#endif
  static D max(D A, D B) { return _mm_max_pd(A, B); }
  static D sqrt(D A) { return _mm_sqrt_pd(A); }
  static D and_(D A, D B) { return _mm_and_pd(A, B); }
  static D or_(D A, D B) { return _mm_or_pd(A, B); }
  static D xor_(D A, D B) { return _mm_xor_pd(A, B); }
  /// The bit pattern minus one: nextDown of a positive finite double.
  static D dec(D X) {
    return _mm_castsi128_pd(
        _mm_sub_epi64(_mm_castpd_si128(X), _mm_set1_epi64x(1)));
  }

  static bool anyNaN(D X) {
    return _mm_movemask_pd(_mm_cmpunord_pd(X, X)) != 0;
  }
  static Mask ltMask(D A, D B) { return _mm_movemask_pd(_mm_cmplt_pd(A, B)); }
  static Mask gtMask(D A, D B) { return _mm_movemask_pd(_mm_cmpgt_pd(A, B)); }
  static Mask geMask(D A, D B) { return _mm_movemask_pd(_mm_cmpge_pd(A, B)); }
  /// \p M set in every interval's negated-low lane, high lane, or either.
  static bool everyLo(Mask M) { return M & 1; }
  static bool everyHi(Mask M) { return M & 2; }
  static bool everyAny(Mask M) { return M != 0; }
  /// T where A == B, F elsewhere.
  static D selectEq(D A, D B, D T, D F) {
    D Eq = _mm_cmpeq_pd(A, B);
    return _mm_or_pd(_mm_and_pd(Eq, T), _mm_andnot_pd(Eq, F));
  }

  static I set1i(int64_t X) { return _mm_set1_epi64x(X); }
  static I castDI(D A) { return _mm_castpd_si128(A); }
  static D castID(I A) { return _mm_castsi128_pd(A); }
  static I addI(I A, I B) { return _mm_add_epi64(A, B); }
  static I subI(I A, I B) { return _mm_sub_epi64(A, B); }
  static I andI(I A, I B) { return _mm_and_si128(A, B); }
  static I orI(I A, I B) { return _mm_or_si128(A, B); }
  template <int N> static I slli(I A) { return _mm_slli_epi64(A, N); }
  template <int N> static I srli(I A) { return _mm_srli_epi64(A, N); }
  /// Full-width compare mask (all-ones lanes), usable as a -1 integer.
  static D cmpGt(D A, D B) { return _mm_cmpgt_pd(A, B); }
  /// T where the all-ones lanes of \p M are, F elsewhere.
  static D select(D M, D T, D F) {
    return _mm_or_pd(_mm_and_pd(M, T), _mm_andnot_pd(M, F));
  }
  static bool allLe(D A, D B) {
    return _mm_movemask_pd(_mm_cmple_pd(A, B)) == 0x3;
  }
  static bool allInRange(D A, D Lo, D Hi) {
    return _mm_movemask_pd(
               _mm_and_pd(_mm_cmpge_pd(A, Lo), _mm_cmple_pd(A, Hi))) == 0x3;
  }

  static D load(const Interval *P) { return _mm_loadu_pd(&P->NegLo); }
  static void store(Interval *P, D V) { _mm_storeu_pd(&P->NegLo, V); }

  static IntervalSse broadcast(const Interval &X) {
    return IntervalSse::fromInterval(X);
  }
  /// Interval \p K of a pack, and Fn applied to each interval of packs.
  static IntervalSse part(const IntervalSse &X, int) { return X; }
  template <class F, class... A>
  static IntervalSse each(F Fn, const A &...X) {
    return Fn(X...);
  }
};

namespace detail {

/// True when \p Pred holds for every interval of \p X (debug checks).
template <class P, class PredFn> bool everyInterval(const P &X, PredFn Pred) {
  for (size_t K = 0; K < F64Regs<P>::kIntervals; ++K)
    if (!Pred(F64Regs<P>::part(X, static_cast<int>(K)).toInterval()))
      return false;
  return true;
}

/// Op on each interval of a wider pack. Cold, out of line, flattened and
/// static, like DdSimd.h's maxUpTie: every translation unit runs its own
/// copy, never a weak one the linker may take from a unit built for
/// another ISA. The packs come by value, in registers: a caller's hot loop
/// need not keep them in memory for this call.
template <class P, class OpFn, class... A>
[[gnu::cold, gnu::noinline, gnu::flatten]] static P eachInterval(OpFn Op,
                                                               A... X) {
  return F64Regs<P>::each(Op, X...);
}

/// The one fallback of a pack op whose screen fired: a 128-bit pack runs
/// the op's slow path \p Slow in line, a wider pack recomputes each
/// interval with the 128-bit op \p Op, which keeps its own fallback.
template <class P, class OpFn, class SlowFn, class... A>
static inline P fallback(OpFn Op, SlowFn Slow, const A &...X) {
  if constexpr (F64Regs<P>::kIntervals == 1)
    return Slow(X...);
  else
    return eachInterval<P>(Op, X...);
}

/// The slow path of a 128-bit op: the scalar op \p Fn on one interval.
template <Interval (*Fn)(const Interval &, const Interval &)>
inline IntervalSse viaScalar(const IntervalSse &X, const IntervalSse &Y) {
  return IntervalSse::fromInterval(Fn(X.toInterval(), Y.toInterval()));
}

} // namespace detail

//===----------------------------------------------------------------------===//
// The pack ops, written once for every register width
//===----------------------------------------------------------------------===//

namespace pack {

/// The op and the slow path that detail::fallback takes: the 128-bit op
/// OP on each interval, and SLOW, an expression of the 128-bit operands
/// A... (the scalar op, or the generic or composed 128-bit op).
#define IGEN_PACK_OPS(OP, SLOW)                                              \
  [](const auto &...A) { return pack::OP(A...); },                           \
      [](const auto &...A) { return SLOW; }

/// X + Y: one SIMD addition.
template <class P> inline P add(const P &X, const P &Y) {
  assertRoundUpward();
  return P(F64Regs<P>::add(X.V, Y.V));
}

/// -X: swap the two lanes of each interval.
template <class P> inline P neg(const P &X) {
  return P(F64Regs<P>::swap(X.V));
}

/// X - Y == X + swap(Y).
template <class P> inline P sub(const P &X, const P &Y) {
  assertRoundUpward();
  return P(F64Regs<P>::add(X.V, F64Regs<P>::swap(Y.V)));
}

/// The scalar candidate scheme evaluated two-per-vector, each candidate
/// through Prod (a product, or a product plus an addend):
///   max(xn*[-yn,yn], xh*[yn,-yn], yh*[xn,-xn], yh*[-xh,xh])
/// where lane 0 collects the negated-low candidates and lane 1 the high
/// ones.
template <class R, class ProdFn>
inline void candidates(typename R::D X, typename R::D Y, ProdFn Prod,
                       typename R::D (&V)[4]) {
  using D = typename R::D;
  D Xn = R::dupLo(X); // [xn, xn]
  D Xh = R::dupHi(X); // [xh, xh]
  D Yn = R::dupLo(Y);
  D Yh = R::dupHi(Y);
  D YnNegLo = R::xor_(Yn, R::signLo()); // [-yn, yn]
  D YnNegHi = R::swap(YnNegLo);         // [yn, -yn]
  D XnNegHi = R::xor_(Xn, R::signHi()); // [xn, -xn]
  D XhNegLo = R::xor_(Xh, R::signLo()); // [-xh, xh]
  V[0] = Prod(Xn, YnNegLo);
  V[1] = Prod(Xh, YnNegHi);
  V[2] = Prod(Yh, XnNegHi);
  V[3] = Prod(Yh, XhNegLo);
}

/// The NaN screen of four candidates, lane by lane.
template <class R> inline bool anyNaN4(const typename R::D (&V)[4]) {
  return R::anyNaN(R::add(R::add(V[0], V[1]), R::add(V[2], V[3])));
}

template <class R> inline typename R::D max4(const typename R::D (&V)[4]) {
  return R::max(R::max(V[0], V[1]), R::max(V[2], V[3]));
}

/// X * Y. A NaN candidate (0*inf, NaN endpoints) takes the fallback:
/// _mm_max_pd does not propagate NaNs.
template <class P> inline P mul(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  typename R::D V[4];
  candidates<R>(X.V, Y.V, [](auto A, auto B) { return R::mul(A, B); }, V);
  if (__builtin_expect(anyNaN4<R>(V), 0))
    return detail::fallback<P>(
        IGEN_PACK_OPS(mul, detail::viaScalar<iMul>(A...)), X, Y);
  return P(max4<R>(V));
}

/// X*Y + C composed: the 128-bit slow path of the fused forms, and fma
/// itself without hardware FMA.
template <class P> inline P fmaComposed(const P &X, const P &Y, const P &C) {
  return pack::add(pack::mul(X, Y), C);
}

/// X * Y without the NaN screen: callers must have screened the inputs
/// (the group multiply of runtime/BatchKernelsImpl.h). With all-finite
/// inputs no candidate can be NaN -- finite * finite is a real, and
/// overflow to +inf only loosens the upper bound, which stays sound under
/// upward rounding -- so the result equals mul's.
template <class P> inline P mulUnchecked(const P &X, const P &Y) {
  using R = F64Regs<P>;
  typename R::D V[4];
  candidates<R>(X.V, Y.V, [](auto A, auto B) { return R::mul(A, B); }, V);
  return P(max4<R>(V));
}

/// X / Y: four packed quotients when 0 is outside every divisor; a
/// divisor that contains zero (or NaN) takes the fallback, the scalar
/// case analysis.
template <class P> inline P div(const P &X, const P &Y) {
  using R = F64Regs<P>;
  using D = typename R::D;
  assertRoundUpward();
  // 0 in Y <=> NegLo(Y) >= 0 && Hi(Y) >= 0 <=> no lane negative.
  if (__builtin_expect(!R::everyAny(R::ltMask(Y.V, R::zero())) ||
                           R::anyNaN(Y.V),
                       0))
    return detail::fallback<P>(
        IGEN_PACK_OPS(div, detail::viaScalar<iDiv>(A...)), X, Y);
  // Candidates (cf. scalar iDiv):
  //  lane0 (neg-lo): (-xn)/yn, xn/yh, xh/yn, (-xh)/yh
  //  lane1 (hi):       xn/yn, (-xn)/yh, xh/(-yn), xh/yh
  D Xn = R::dupLo(X.V);
  D Xh = R::dupHi(X.V);
  D Yn = R::dupLo(Y.V);
  D Yh = R::dupHi(Y.V);
  D XnNegLo = R::xor_(Xn, R::signLo()); // [-xn, xn]
  D XnNegHi = R::swap(XnNegLo);         // [xn, -xn]
  D XhNegLo = R::xor_(Xh, R::signLo()); // [-xh, xh]
  D YnNegHi = R::xor_(Yn, R::signHi()); // [yn, -yn]
  D V[4] = {R::div(XnNegLo, Yn), R::div(XnNegHi, Yh), R::div(Xh, YnNegHi),
            R::div(XhNegLo, Yh)};
  if (__builtin_expect(anyNaN4<R>(V), 0))
    return detail::fallback<P>(
        IGEN_PACK_OPS(div, detail::viaScalar<iDiv>(A...)), X, Y);
  return P(max4<R>(V));
}

/// The screen and maximum of the two-candidate ops (the sign forms):
/// V1 = (N1, H1), V2 = (N2, H2) per interval; Op and Slow are those of
/// detail::fallback for the operands X.
template <class P, class OpFn, class SlowFn, class... A>
inline P max2(typename F64Regs<P>::D V1, typename F64Regs<P>::D V2, OpFn Op,
              SlowFn Slow, const A &...X) {
  using R = F64Regs<P>;
  if (__builtin_expect(R::anyNaN(R::add(V1, V2)), 0))
    return detail::fallback<P>(Op, Slow, X...);
  return P(R::max(V1, V2));
}

/// One product per endpoint: its NaN screen.
template <class P, class OpFn, class SlowFn, class... A>
inline P checked1(typename F64Regs<P>::D V, OpFn Op, SlowFn Slow,
                  const A &...X) {
  if (__builtin_expect(F64Regs<P>::anyNaN(V), 0))
    return detail::fallback<P>(Op, Slow, X...);
  return P(V);
}

//===----------------------------------------------------------------------===//
// Sign-specialized multiply/divide and fused multiply-add
//===----------------------------------------------------------------------===//
//
// Counterparts of the scalar iMulPP/... family (see Interval.h for the
// preconditions and the soundness discussion). With both operand signs
// proven, the four packed products and three maxima of the generic mul
// collapse to a single packed multiply plus one or two sign-flip shuffles
// -- both extremal endpoint candidates sit in the right lanes of one
// product. Every variant keeps a NaN screen whose 128-bit slow path is
// the generic operation, so a violated precondition costs speed, never
// soundness.

/// X * Y with lo(X) >= 0 and lo(Y) >= 0: R = X * [lo(Y), hi(Y)].
template <class P> inline P mulPP(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonNegOk) &&
         detail::everyInterval(Y, detail::nonNegOk));
  // [xn, xh] * [-yn, yh] = [-(lo*lo), hi*hi]
  return checked1<P>(R::mul(X.V, R::xor_(Y.V, R::signLo())),
                     IGEN_PACK_OPS(mulPP, pack::mul(A...)), X, Y);
}

/// X * Y with lo(X) >= 0 and hi(Y) <= 0.
template <class P> inline P mulPN(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonNegOk) &&
         detail::everyInterval(Y, detail::nonPosOk));
  // [xh, -xn] * [yn, yh] = [-(hi(X)*lo(Y)), lo(X)*hi(Y)]
  typename R::D A = R::xor_(R::swap(X.V), R::signHi());
  return checked1<P>(R::mul(A, Y.V),
                     IGEN_PACK_OPS(mulPN, pack::mul(A...)), X, Y);
}

/// X * Y with hi(X) <= 0 and hi(Y) <= 0.
template <class P> inline P mulNN(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonPosOk) &&
         detail::everyInterval(Y, detail::nonPosOk));
  // [-xh, xn] * [yh, yn] = [-(hi*hi), lo*lo]
  typename R::D A = R::xor_(R::swap(X.V), R::signLo());
  return checked1<P>(R::mul(A, R::swap(Y.V)),
                     IGEN_PACK_OPS(mulNN, pack::mul(A...)), X, Y);
}

/// X * Y with lo(X) >= 0, Y of unknown sign: two products and one max.
template <class P> inline P mulPU(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonNegOk));
  // [xn, -xn] * [-yn, yh] = [-(lo(X)*lo(Y)), lo(X)*hi(Y)]
  typename R::D A1 = R::xor_(R::dupLo(X.V), R::signHi());
  typename R::D B1 = R::xor_(Y.V, R::signLo());
  typename R::D V1 = R::mul(A1, B1);
  // [xh, xh] * [yn, yh] = [-(hi(X)*lo(Y)), hi(X)*hi(Y)]
  typename R::D V2 = R::mul(R::dupHi(X.V), Y.V);
  return max2<P>(V1, V2, IGEN_PACK_OPS(mulPU, pack::mul(A...)), X, Y);
}

/// X * Y with hi(X) <= 0, Y of unknown sign.
template <class P> inline P mulNU(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonPosOk));
  // [xn, xn] * [yh, yn] = [-(lo(X)*hi(Y)), lo(X)*lo(Y)]
  typename R::D V1 = R::mul(R::dupLo(X.V), R::swap(Y.V));
  // [-xh, xh] * [yh, -yn] = [-(hi(X)*hi(Y)), hi(X)*lo(Y)]
  typename R::D A2 = R::xor_(R::dupHi(X.V), R::signLo());
  typename R::D B2 = R::xor_(R::swap(Y.V), R::signHi());
  typename R::D V2 = R::mul(A2, B2);
  return max2<P>(V1, V2, IGEN_PACK_OPS(mulNU, pack::mul(A...)), X, Y);
}

/// The screen of div_p/div_n: the candidates summed *across* the endpoint
/// lanes, so every interval sees the scalar check value (N1+N2)+(H1+H2)
/// and the 128-bit slow path, the scalar op, returns the same bits as the
/// fast path wherever both apply.
template <class P, class OpFn, class SlowFn, class... A>
inline P divMax2(typename F64Regs<P>::D V1, typename F64Regs<P>::D V2,
                 OpFn Op, SlowFn Slow, const A &...X) {
  using R = F64Regs<P>;
  typename R::D C = R::add(V1, V2);
  if (__builtin_expect(R::anyNaN(R::add(C, R::swap(C))), 0))
    return detail::fallback<P>(Op, Slow, X...);
  return P(R::max(V1, V2));
}

/// X / Y with lo(Y) > 0: X / [lo(Y), lo(Y)] and X / [hi(Y), hi(Y)]
/// cover all four candidates: V1 = (N1, H1), V2 = (N2, H2).
template <class P> inline P divP(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(
      Y, [](const Interval &I) { return !(I.lo() <= 0.0); }));
  typename R::D Yl = R::xor_(R::dupLo(Y.V), R::set1(-0.0));
  return divMax2<P>(
      R::div(X.V, Yl), R::div(X.V, R::dupHi(Y.V)),
      IGEN_PACK_OPS(divP, detail::viaScalar<iDivP>(A...)), X, Y);
}

/// X / Y with hi(Y) < 0; a/(-b) == (-a)/b under the same rounding, so
/// swapping X's lanes and negating the divisor gives the scalar
/// candidates N1 = (-xh)/yh, H1 = (-xn)/yh, N2 = xh/yn, H2 = xn/yn.
template <class P> inline P divN(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(
      Y, [](const Interval &I) { return !(I.hi() >= 0.0); }));
  typename R::D A = R::swap(X.V); // (xh, xn)
  typename R::D Yh = R::xor_(R::dupHi(Y.V), R::set1(-0.0));
  return divMax2<P>(
      R::div(A, Yh), R::div(A, R::dupLo(Y.V)),
      IGEN_PACK_OPS(divN, detail::viaScalar<iDivN>(A...)), X, Y);
}

/// Fused X*Y + C: the four candidate products of mul each gain the addend
/// lanes [-lo(C), hi(C)] through one packed fma (single outward rounding
/// per candidate; subset of add(mul(X, Y), C)). Requires hardware FMA,
/// which honours MXCSR; without it the unfused composition is used.
template <class P> inline P fma(const P &X, const P &Y, const P &C) {
#if defined(__FMA__)
  using R = F64Regs<P>;
  assertRoundUpward();
  typename R::D V[4];
  candidates<R>(
      X.V, Y.V, [&C](auto A, auto B) { return R::fmadd(A, B, C.V); }, V);
  if (__builtin_expect(anyNaN4<R>(V), 0))
    return detail::fallback<P>(
        IGEN_PACK_OPS(fma, pack::fmaComposed(A...)), X, Y, C);
  return P(max4<R>(V));
#else
  return pack::fmaComposed(X, Y, C);
#endif
}

/// The sign-specialized fused forms: the products of mulPP/... with the
/// addend lanes fused in; the 128-bit slow path is the composed generic
/// op. Without FMA, the composed sign-specialized op.
#if defined(__FMA__)
#define IGEN_PACK_FMA_FALLBACK(OP)                                           \
  IGEN_PACK_OPS(OP, pack::fmaComposed(A...)), X, Y, C
#endif

/// Fused X*Y + C with lo(X) >= 0 and lo(Y) >= 0: one packed fma.
template <class P> inline P fmaPP(const P &X, const P &Y, const P &C) {
#if defined(__FMA__)
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonNegOk) &&
         detail::everyInterval(Y, detail::nonNegOk));
  return checked1<P>(R::fmadd(X.V, R::xor_(Y.V, R::signLo()), C.V),
                     IGEN_PACK_FMA_FALLBACK(fmaPP));
#else
  return pack::add(pack::mulPP(X, Y), C);
#endif
}

/// Fused X*Y + C with lo(X) >= 0 and hi(Y) <= 0.
template <class P> inline P fmaPN(const P &X, const P &Y, const P &C) {
#if defined(__FMA__)
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonNegOk) &&
         detail::everyInterval(Y, detail::nonPosOk));
  typename R::D A = R::xor_(R::swap(X.V), R::signHi());
  return checked1<P>(R::fmadd(A, Y.V, C.V), IGEN_PACK_FMA_FALLBACK(fmaPN));
#else
  return pack::add(pack::mulPN(X, Y), C);
#endif
}

/// Fused X*Y + C with hi(X) <= 0 and hi(Y) <= 0.
template <class P> inline P fmaNN(const P &X, const P &Y, const P &C) {
#if defined(__FMA__)
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonPosOk) &&
         detail::everyInterval(Y, detail::nonPosOk));
  typename R::D A = R::xor_(R::swap(X.V), R::signLo());
  return checked1<P>(R::fmadd(A, R::swap(Y.V), C.V),
                     IGEN_PACK_FMA_FALLBACK(fmaNN));
#else
  return pack::add(pack::mulNN(X, Y), C);
#endif
}

/// Fused X*Y + C with lo(X) >= 0, Y of unknown sign.
template <class P> inline P fmaPU(const P &X, const P &Y, const P &C) {
#if defined(__FMA__)
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonNegOk));
  typename R::D A1 = R::xor_(R::dupLo(X.V), R::signHi());
  typename R::D B1 = R::xor_(Y.V, R::signLo());
  typename R::D V1 = R::fmadd(A1, B1, C.V);
  typename R::D V2 = R::fmadd(R::dupHi(X.V), Y.V, C.V);
  return max2<P>(V1, V2, IGEN_PACK_FMA_FALLBACK(fmaPU));
#else
  return pack::add(pack::mulPU(X, Y), C);
#endif
}

/// Fused X*Y + C with hi(X) <= 0, Y of unknown sign.
template <class P> inline P fmaNU(const P &X, const P &Y, const P &C) {
#if defined(__FMA__)
  using R = F64Regs<P>;
  assertRoundUpward();
  assert(detail::everyInterval(X, detail::nonPosOk));
  typename R::D V1 = R::fmadd(R::dupLo(X.V), R::swap(Y.V), C.V);
  typename R::D A2 = R::xor_(R::dupHi(X.V), R::signLo());
  typename R::D B2 = R::xor_(R::swap(Y.V), R::signHi());
  typename R::D V2 = R::fmadd(A2, B2, C.V);
  return max2<P>(V1, V2, IGEN_PACK_FMA_FALLBACK(fmaNU));
#else
  return pack::add(pack::mulNU(X, Y), C);
#endif
}

#undef IGEN_PACK_FMA_FALLBACK
#undef IGEN_PACK_OPS

/// Packed sqrt. Fast domain per interval: lo in (0, inf) (finite,
/// strictly positive) and hi >= 0 with no NaN; anything else -- lo <= 0,
/// lo == +inf, hi < 0, NaN endpoints -- takes the fallback, the scalar
/// iSqrt. On the fast path the hardware sqrt honours the ambient upward
/// rounding for the hi lane, and the lo lane reproduces sqrtRoundDown:
/// under RU, RU(s*s) == lo iff s*s == lo exactly, otherwise step one ulp
/// down. So the result is the scalar iSqrt's bits on every input.
template <class P> inline P sqrt(const P &X) {
  using R = F64Regs<P>;
  using D = typename R::D;
  assertRoundUpward();
  const D Zero = R::zero();
  auto MLt = R::ltMask(X.V, Zero);
  auto MGt = R::gtMask(X.V, R::set1(-__builtin_inf()));
  auto MGe = R::geMask(X.V, Zero);
  if (__builtin_expect(!(R::everyLo(MLt & MGt) && R::everyHi(MGe)), 0))
    return detail::fallback<P>(
        [](const auto &A) { return pack::sqrt(A); },
        [](const IntervalSse &A) {
          return IntervalSse::fromInterval(iSqrt(A.toInterval()));
        },
        X);
  D SignLo = R::signLo();
  D Vpos = R::xor_(X.V, SignLo); // (lo, hi)
  D S = R::sqrt(Vpos);
  D Down = R::selectEq(R::mul(S, S), Vpos, S, R::dec(S));
  return P(R::loHi(R::xor_(Down, SignLo), S));
}

/// The interval hull; NaN when either operand has a NaN endpoint.
template <class P> inline P hull(const P &X, const P &Y) {
  using R = F64Regs<P>;
  if (__builtin_expect(R::anyNaN(X.V) || R::anyNaN(Y.V), 0))
    return detail::fallback<P>(
        [](const auto &A, const auto &B) { return pack::hull(A, B); },
        [](const IntervalSse &, const IntervalSse &) {
          return IntervalSse::nan();
        },
        X, Y);
  return P(R::max(X.V, Y.V));
}

} // namespace pack

//===----------------------------------------------------------------------===//
// The pack ops under the names of the scalar ops
//===----------------------------------------------------------------------===//

/// IntervalSse, IntervalX2 and IntervalX4: the types with a register
/// backend.
template <class P>
concept F64Pack = requires { F64Regs<P>::kIntervals; };

template <F64Pack P> inline P iAdd(const P &X, const P &Y) {
  return pack::add(X, Y);
}
template <F64Pack P> inline P iNeg(const P &X) { return pack::neg(X); }
template <F64Pack P> inline P iSub(const P &X, const P &Y) {
  return pack::sub(X, Y);
}
template <F64Pack P> inline P iMul(const P &X, const P &Y) {
  return pack::mul(X, Y);
}
template <F64Pack P> inline P iDiv(const P &X, const P &Y) {
  return pack::div(X, Y);
}
template <F64Pack P> inline P iMulPP(const P &X, const P &Y) {
  return pack::mulPP(X, Y);
}
template <F64Pack P> inline P iMulPN(const P &X, const P &Y) {
  return pack::mulPN(X, Y);
}
template <F64Pack P> inline P iMulNN(const P &X, const P &Y) {
  return pack::mulNN(X, Y);
}
template <F64Pack P> inline P iMulPU(const P &X, const P &Y) {
  return pack::mulPU(X, Y);
}
template <F64Pack P> inline P iMulNU(const P &X, const P &Y) {
  return pack::mulNU(X, Y);
}
template <F64Pack P> inline P iDivP(const P &X, const P &Y) {
  return pack::divP(X, Y);
}
template <F64Pack P> inline P iDivN(const P &X, const P &Y) {
  return pack::divN(X, Y);
}
template <F64Pack P> inline P iFma(const P &X, const P &Y, const P &C) {
  return pack::fma(X, Y, C);
}
template <F64Pack P> inline P iFmaPP(const P &X, const P &Y, const P &C) {
  return pack::fmaPP(X, Y, C);
}
template <F64Pack P> inline P iFmaPN(const P &X, const P &Y, const P &C) {
  return pack::fmaPN(X, Y, C);
}
template <F64Pack P> inline P iFmaNN(const P &X, const P &Y, const P &C) {
  return pack::fmaNN(X, Y, C);
}
template <F64Pack P> inline P iFmaPU(const P &X, const P &Y, const P &C) {
  return pack::fmaPU(X, Y, C);
}
template <F64Pack P> inline P iFmaNU(const P &X, const P &Y, const P &C) {
  return pack::fmaNU(X, Y, C);
}
template <F64Pack P> inline P iHull(const P &X, const P &Y) {
  return pack::hull(X, Y);
}

/// Remaining operations route through the scalar implementation (they are
/// rare in inner loops; sqrt dominates only in potrf where it is O(n) of
/// an O(n^3) computation).
inline IntervalSse iSqrt(const IntervalSse &X) {
  return IntervalSse::fromInterval(iSqrt(X.toInterval()));
}
inline IntervalSse iAbs(const IntervalSse &X) {
  return IntervalSse::fromInterval(iAbs(X.toInterval()));
}
inline IntervalSse iFloor(const IntervalSse &X) {
  return IntervalSse::fromInterval(iFloor(X.toInterval()));
}
inline IntervalSse iCeil(const IntervalSse &X) {
  return IntervalSse::fromInterval(iCeil(X.toInterval()));
}

inline TBool iCmpLT(const IntervalSse &X, const IntervalSse &Y) {
  return iCmpLT(X.toInterval(), Y.toInterval());
}
inline TBool iCmpLE(const IntervalSse &X, const IntervalSse &Y) {
  return iCmpLE(X.toInterval(), Y.toInterval());
}
inline TBool iCmpGT(const IntervalSse &X, const IntervalSse &Y) {
  return iCmpGT(X.toInterval(), Y.toInterval());
}
inline TBool iCmpGE(const IntervalSse &X, const IntervalSse &Y) {
  return iCmpGE(X.toInterval(), Y.toInterval());
}
inline TBool iCmpEQ(const IntervalSse &X, const IntervalSse &Y) {
  return iCmpEQ(X.toInterval(), Y.toInterval());
}
inline TBool iCmpNE(const IntervalSse &X, const IntervalSse &Y) {
  return iCmpNE(X.toInterval(), Y.toInterval());
}

inline IntervalSse operator+(const IntervalSse &X, const IntervalSse &Y) {
  return iAdd(X, Y);
}
inline IntervalSse operator-(const IntervalSse &X, const IntervalSse &Y) {
  return iSub(X, Y);
}
inline IntervalSse operator*(const IntervalSse &X, const IntervalSse &Y) {
  return iMul(X, Y);
}
inline IntervalSse operator/(const IntervalSse &X, const IntervalSse &Y) {
  return iDiv(X, Y);
}
inline IntervalSse operator-(const IntervalSse &X) { return iNeg(X); }

} // namespace igen

#endif // IGEN_INTERVAL_INTERVALSIMD_H
