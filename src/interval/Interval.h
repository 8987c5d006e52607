//===- Interval.h - Scalar double-precision intervals -----------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scalar double-precision interval type (the paper's f64i) and its
/// operations (Table I). An interval [a, b] is the set of reals
/// { x | a <= x <= b } and is stored as the pair (-a, b) so that, with the
/// FPU rounding upward, both endpoint computations round outward without
/// ever switching the rounding mode (Section II).
///
/// Soundness contract: for every operation op and reals u in X, v in Y,
/// the real op(u, v) is contained in op(X, Y). NaN endpoints mean "the
/// represented value may be anything, including NaN" (Section IV-A); all
/// operations propagate this conservatively.
///
/// All operations require the FPU to round upward (RoundUpwardScope) unless
/// documented otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_INTERVAL_H
#define IGEN_INTERVAL_INTERVAL_H

#include "interval/Rounding.h"
#include "interval/TBool.h"
#include "interval/Ulp.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace igen {

/// A double-precision interval stored as (-lo, hi).
struct Interval {
  double NegLo = 0.0; ///< Negated lower endpoint.
  double Hi = 0.0;    ///< Upper endpoint.

  Interval() = default;
  constexpr Interval(double NegLo, double Hi) : NegLo(NegLo), Hi(Hi) {}

  double lo() const { return -NegLo; }
  double hi() const { return Hi; }

  /// Builds [Lo, Hi]. Requires Lo <= Hi (or NaNs).
  static Interval fromEndpoints(double Lo, double Hi) {
    return Interval(-Lo, Hi);
  }

  /// The degenerate interval [X, X].
  static Interval fromPoint(double X) { return Interval(-X, X); }

  /// Identity conversions, so code written over f64i converts to and from
  /// Interval the same way whether f64i is this type or IntervalSse.
  static Interval fromInterval(const Interval &I) { return I; }
  Interval toInterval() const { return *this; }

  /// The whole real line [-inf, +inf].
  static Interval entire() {
    double Inf = std::numeric_limits<double>::infinity();
    return Interval(Inf, Inf);
  }

  /// The invalid interval [NaN, NaN]: the value may be anything.
  static Interval nan() {
    double N = std::numeric_limits<double>::quiet_NaN();
    return Interval(N, N);
  }

  /// True if either endpoint is NaN.
  bool hasNaN() const { return std::isnan(NegLo) || std::isnan(Hi); }

  /// True if the real \p X is contained in this interval. NaN endpoints
  /// contain everything.
  bool contains(double X) const {
    if (hasNaN())
      return true;
    return -NegLo <= X && X <= Hi;
  }

  /// True if \p Other is a subset of this interval.
  bool containsInterval(const Interval &Other) const {
    if (hasNaN())
      return true;
    if (Other.hasNaN())
      return false;
    return Other.NegLo <= NegLo && Other.Hi <= Hi;
  }

  /// True if the interval is a single point (and finite).
  bool isPoint() const { return -NegLo == Hi && !std::isinf(Hi); }

  /// Upper bound of the width hi - lo (requires upward rounding).
  double width() const {
    assertRoundUpward();
    return Hi + NegLo;
  }
};

//===----------------------------------------------------------------------===//
// Basic arithmetic
//===----------------------------------------------------------------------===//

/// X + Y: [RD(a+c), RU(b+d)], two additions with the negated-low trick.
inline Interval iAdd(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  return Interval(X.NegLo + Y.NegLo, X.Hi + Y.Hi);
}

/// -X: swap the stored endpoints (exact).
inline Interval iNeg(const Interval &X) { return Interval(X.Hi, X.NegLo); }

/// X - Y == X + (-Y).
inline Interval iSub(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  return Interval(X.NegLo + Y.Hi, X.Hi + Y.NegLo);
}

namespace detail {

/// max of four doubles; inputs must not be NaN.
inline double max4(double A, double B, double C, double D) {
  double M1 = A > B ? A : B;
  double M2 = C > D ? C : D;
  return M1 > M2 ? M1 : M2;
}

/// Product for the conservative slow path: uses the interval convention
/// 0 * +-inf == 0 (an exact zero times any *real*, however large, is zero;
/// infinite endpoints still denote bounds on reals, Section IV-A).
inline double mulZeroFix(double U, double V) {
  double P = U * V;
  if (std::isnan(P) && (U == 0.0 || V == 0.0))
    return 0.0;
  return P;
}

/// Slow path of interval multiplication: taken when a fast-path product
/// was NaN (inputs contain 0 * inf combinations or NaN endpoints).
inline Interval mulSlow(const Interval &X, const Interval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return Interval::nan();
  double NegLo = max4(mulZeroFix(-X.NegLo, Y.NegLo), mulZeroFix(X.NegLo, Y.Hi),
                      mulZeroFix(X.Hi, Y.NegLo), mulZeroFix(-X.Hi, Y.Hi));
  double Hi = max4(mulZeroFix(X.NegLo, Y.NegLo), mulZeroFix(-X.NegLo, Y.Hi),
                   mulZeroFix(X.Hi, -Y.NegLo), mulZeroFix(X.Hi, Y.Hi));
  return Interval(NegLo, Hi);
}

} // namespace detail

/// X * Y: eight upward-rounded products and two 4-way maxima (Section II).
/// With a = -X.NegLo, b = X.Hi, c = -Y.NegLo, d = Y.Hi:
///   -lo' = max(RU(-ac), RU(-ad), RU(-bc), RU(-bd))
///    hi' = max(RU(ac), RU(ad), RU(bc), RU(bd))
/// where each negated product is computed by negating one (stored) factor
/// before the multiplication, which is exact.
inline Interval iMul(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  double Xn = X.NegLo, Xh = X.Hi, Yn = Y.NegLo, Yh = Y.Hi;
  // Candidates for the negated lower endpoint.
  double N1 = (-Xn) * Yn; // -(a*c)
  double N2 = Xn * Yh;    // -(a*d)
  double N3 = Xh * Yn;    // -(b*c)
  double N4 = (-Xh) * Yh; // -(b*d)
  // Candidates for the upper endpoint.
  double H1 = Xn * Yn;    // a*c
  double H2 = (-Xn) * Yh; // a*d
  double H3 = Xh * (-Yn); // b*c
  double H4 = Xh * Yh;    // b*d
  // 0 * inf (or NaN input endpoints) poison the candidates; detect via a
  // NaN-propagating sum and fall back to the careful path.
  double Check = ((N1 + N2) + (N3 + N4)) + ((H1 + H2) + (H3 + H4));
  if (__builtin_expect(std::isnan(Check), 0))
    return detail::mulSlow(X, Y);
  return Interval(detail::max4(N1, N2, N3, N4), detail::max4(H1, H2, H3, H4));
}

namespace detail {

/// Slow path of interval division for 0-free divisors whose quotients
/// produced NaN (inf/inf with infinite endpoints on both sides).
inline Interval divSlow(const Interval &X, const Interval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return Interval::nan();
  return Interval::entire();
}

/// Division when Y contains zero. If X may also be zero the quotient 0/0
/// is possible and the result is invalid; otherwise the result is a
/// half-line or the entire line depending on which side of Y touches 0.
inline Interval divByZeroContaining(const Interval &X, const Interval &Y) {
  double Inf = std::numeric_limits<double>::infinity();
  bool XHasZero = X.NegLo >= 0.0 && X.Hi >= 0.0;
  if (XHasZero)
    return Interval::nan(); // 0/0 possible: invalid operation.
  if (Y.NegLo == 0.0 && Y.Hi == 0.0)
    return Interval::nan(); // x/[0,0]: invalid.
  bool YLoIsZero = Y.NegLo == 0.0; // Y = [0, d], d > 0.
  bool YHiIsZero = Y.Hi == 0.0;    // Y = [c, 0], c < 0.
  if (!YLoIsZero && !YHiIsZero)
    return Interval::entire(); // 0 interior to Y: both signs possible.
  bool XPos = X.NegLo <= 0.0; // lo(X) >= 0 (and X is 0-free, so lo > 0).
  if (YLoIsZero) {
    // X / (0, d]: positive X gives [lo/d, +inf), negative X (-inf, hi/d].
    if (XPos)
      return Interval(X.NegLo / Y.Hi, Inf); // -lo' = RU((-lo)/d).
    return Interval(Inf, X.Hi / Y.Hi);      // hi' = RU(hi/d).
  }
  // X / [c, 0): signs flip.
  if (XPos)
    return Interval(Inf, X.NegLo / Y.NegLo); // hi' = RU((-lo)/(-c)).
  return Interval((-X.Hi) / (-Y.NegLo), Inf); // -lo' = RU(hi/c), c<0.
}

} // namespace detail

/// X / Y: eight upward-rounded quotients when 0 is outside Y, otherwise
/// the half-line/entire/invalid case analysis of divByZeroContaining().
inline Interval iDiv(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  if (__builtin_expect(X.hasNaN() || Y.hasNaN(), 0))
    return Interval::nan();
  // Y contains zero iff lo(Y) <= 0 <= hi(Y) iff NegLo >= 0 && Hi >= 0.
  if (__builtin_expect(Y.NegLo >= 0.0 && Y.Hi >= 0.0, 0))
    return detail::divByZeroContaining(X, Y);
  double Xn = X.NegLo, Xh = X.Hi, Yn = Y.NegLo, Yh = Y.Hi;
  double N1 = (-Xn) / Yn; // -(a/c)
  double N2 = Xn / Yh;    // -(a/d)
  double N3 = Xh / Yn;    // -(b/c)
  double N4 = (-Xh) / Yh; // -(b/d)
  double H1 = Xn / Yn;    // a/c
  double H2 = (-Xn) / Yh; // a/d
  double H3 = Xh / (-Yn); // b/c
  double H4 = Xh / Yh;    // b/d
  // Each endpoint's candidates are screened on their own, as the pack
  // op's lanes are: -inf among one endpoint's and +inf among the other's
  // is no NaN ([0, inf] / [tiny, 1] is [0, inf]).
  if (__builtin_expect(std::isnan((N1 + N2) + (N3 + N4)) ||
                           std::isnan((H1 + H2) + (H3 + H4)),
                       0))
    return detail::divSlow(X, Y);
  return Interval(detail::max4(N1, N2, N3, N4), detail::max4(H1, H2, H3, H4));
}

//===----------------------------------------------------------------------===//
// Sign-specialized multiply/divide and fused multiply-add
//===----------------------------------------------------------------------===//
//
// The transformer's -O mid-end emits these variants when its value-range
// analysis proves operand signs. Naming: p = subset of [0, +inf),
// n = subset of (-inf, 0], u = unknown sign; the divide variants require a
// strictly 0-free divisor. Each variant evaluates only the candidate
// products/quotients that can attain the extrema given the proven signs
// (2 instead of 8 when both signs are known), still rounds every endpoint
// outward, and keeps the NaN-propagating check of the generic operation so
// that 0 * inf candidates -- or inputs that violate the precondition at
// runtime -- fall back to the fully general code path. The preconditions
// are therefore a matter of speed, not of soundness; they are
// debug-asserted to surface analysis bugs in the test suite.

namespace detail {

/// Debug check for a "provably nonnegative" operand: no non-NaN endpoint
/// may contradict lo >= 0 (NaN endpoints pass; the runtime check catches
/// them).
inline bool nonNegOk(const Interval &X) { return !(X.NegLo > 0.0); }

/// Debug check for a "provably nonpositive" operand.
inline bool nonPosOk(const Interval &X) { return !(X.Hi > 0.0); }

} // namespace detail

/// X * Y with lo(X) >= 0 and lo(Y) >= 0: the extrema are lo*lo and hi*hi.
inline Interval iMulPP(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  assert(detail::nonNegOk(X) && detail::nonNegOk(Y));
  double N = X.NegLo * (-Y.NegLo); // -(lo(X)*lo(Y))
  double H = X.Hi * Y.Hi;
  if (__builtin_expect(std::isnan(N + H), 0))
    return iMul(X, Y);
  return Interval(N, H);
}

/// X * Y with lo(X) >= 0 and hi(Y) <= 0: extrema are hi(X)*lo(Y) and
/// lo(X)*hi(Y).
inline Interval iMulPN(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  assert(detail::nonNegOk(X) && detail::nonPosOk(Y));
  double N = X.Hi * Y.NegLo;    // -(hi(X)*lo(Y))
  double H = (-X.NegLo) * Y.Hi; // lo(X)*hi(Y)
  if (__builtin_expect(std::isnan(N + H), 0))
    return iMul(X, Y);
  return Interval(N, H);
}

/// X * Y with hi(X) <= 0 and hi(Y) <= 0: extrema are hi*hi and lo*lo.
inline Interval iMulNN(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  assert(detail::nonPosOk(X) && detail::nonPosOk(Y));
  double N = (-X.Hi) * Y.Hi;    // -(hi(X)*hi(Y))
  double H = X.NegLo * Y.NegLo; // lo(X)*lo(Y)
  if (__builtin_expect(std::isnan(N + H), 0))
    return iMul(X, Y);
  return Interval(N, H);
}

/// X * Y with lo(X) >= 0 and Y of unknown sign: x >= 0 makes x*lo(Y) the
/// only lower and x*hi(Y) the only upper family, four candidates total.
inline Interval iMulPU(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  assert(detail::nonNegOk(X));
  double N1 = X.NegLo * (-Y.NegLo); // -(lo(X)*lo(Y))
  double N2 = X.Hi * Y.NegLo;       // -(hi(X)*lo(Y))
  double H1 = (-X.NegLo) * Y.Hi;    // lo(X)*hi(Y)
  double H2 = X.Hi * Y.Hi;          // hi(X)*hi(Y)
  double Check = (N1 + N2) + (H1 + H2);
  if (__builtin_expect(std::isnan(Check), 0))
    return iMul(X, Y);
  return Interval(N1 > N2 ? N1 : N2, H1 > H2 ? H1 : H2);
}

/// X * Y with hi(X) <= 0 and Y of unknown sign.
inline Interval iMulNU(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  assert(detail::nonPosOk(X));
  double N1 = X.NegLo * Y.Hi;    // -(lo(X)*hi(Y))
  double N2 = (-X.Hi) * Y.Hi;    // -(hi(X)*hi(Y))
  double H1 = X.NegLo * Y.NegLo; // lo(X)*lo(Y)
  double H2 = X.Hi * (-Y.NegLo); // hi(X)*lo(Y)
  double Check = (N1 + N2) + (H1 + H2);
  if (__builtin_expect(std::isnan(Check), 0))
    return iMul(X, Y);
  return Interval(N1 > N2 ? N1 : N2, H1 > H2 ? H1 : H2);
}

/// X / Y with lo(Y) > 0: the divisor is 0-free by precondition, so the
/// zero-containment case analysis and half the quotients disappear.
inline Interval iDivP(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  assert(!(-Y.NegLo <= 0.0)); // lo(Y) > 0 (NaN endpoints pass)
  double Yl = -Y.NegLo;
  double N1 = X.NegLo / Yl;   // -(lo(X)/lo(Y))
  double N2 = X.NegLo / Y.Hi; // -(lo(X)/hi(Y))
  double H1 = X.Hi / Yl;      // hi(X)/lo(Y)
  double H2 = X.Hi / Y.Hi;    // hi(X)/hi(Y)
  double Check = (N1 + N2) + (H1 + H2);
  if (__builtin_expect(std::isnan(Check), 0))
    return iDiv(X, Y);
  return Interval(N1 > N2 ? N1 : N2, H1 > H2 ? H1 : H2);
}

/// X / Y with hi(Y) < 0.
inline Interval iDivN(const Interval &X, const Interval &Y) {
  assertRoundUpward();
  assert(!(Y.Hi >= 0.0)); // hi(Y) < 0 (NaN endpoints pass)
  double N1 = (-X.Hi) / Y.Hi;    // -(hi(X)/hi(Y))
  double N2 = X.Hi / Y.NegLo;    // -(hi(X)/lo(Y))
  double H1 = (-X.NegLo) / Y.Hi; // lo(X)/hi(Y)
  double H2 = X.NegLo / Y.NegLo; // lo(X)/lo(Y)
  double Check = (N1 + N2) + (H1 + H2);
  if (__builtin_expect(std::isnan(Check), 0))
    return iDiv(X, Y);
  return Interval(N1 > N2 ? N1 : N2, H1 > H2 ? H1 : H2);
}

/// X*Y + C as one fused operation: each candidate product of iMul gains
/// the addend through a hardware fma, so every endpoint is rounded once
/// instead of twice. The result contains {u*v + w : u in X, v in Y,
/// w in C} and is a subset of iAdd(iMul(X, Y), C) (single rounding can
/// only tighten). Hardware FMA honours the dynamic rounding mode; libm's
/// software fallback does not, so without __FMA__ this degrades to the
/// unfused composition instead.
inline Interval iFma(const Interval &X, const Interval &Y,
                     const Interval &C) {
#if defined(__FMA__)
  assertRoundUpward();
  double Xn = X.NegLo, Xh = X.Hi, Yn = Y.NegLo, Yh = Y.Hi;
  double Cn = C.NegLo, Ch = C.Hi;
  // RU(-(p) + (-lo(C))) >= -(p + lo(C)) for each candidate product p; the
  // max over all candidates bounds -(lo(X*Y) + lo(C)) from above.
  double N1 = __builtin_fma(-Xn, Yn, Cn);
  double N2 = __builtin_fma(Xn, Yh, Cn);
  double N3 = __builtin_fma(Xh, Yn, Cn);
  double N4 = __builtin_fma(-Xh, Yh, Cn);
  double H1 = __builtin_fma(Xn, Yn, Ch);
  double H2 = __builtin_fma(-Xn, Yh, Ch);
  double H3 = __builtin_fma(Xh, -Yn, Ch);
  double H4 = __builtin_fma(Xh, Yh, Ch);
  double Check = ((N1 + N2) + (N3 + N4)) + ((H1 + H2) + (H3 + H4));
  if (__builtin_expect(std::isnan(Check), 0))
    return iAdd(iMul(X, Y), C);
  return Interval(detail::max4(N1, N2, N3, N4),
                  detail::max4(H1, H2, H3, H4));
#else
  return iAdd(iMul(X, Y), C);
#endif
}

/// Fused X*Y + C with lo(X) >= 0 and lo(Y) >= 0: one fma per endpoint.
inline Interval iFmaPP(const Interval &X, const Interval &Y,
                       const Interval &C) {
#if defined(__FMA__)
  assertRoundUpward();
  assert(detail::nonNegOk(X) && detail::nonNegOk(Y));
  double N = __builtin_fma(X.NegLo, -Y.NegLo, C.NegLo);
  double H = __builtin_fma(X.Hi, Y.Hi, C.Hi);
  if (__builtin_expect(std::isnan(N + H), 0))
    return iAdd(iMul(X, Y), C);
  return Interval(N, H);
#else
  return iAdd(iMulPP(X, Y), C);
#endif
}

/// Fused X*Y + C with lo(X) >= 0 and hi(Y) <= 0.
inline Interval iFmaPN(const Interval &X, const Interval &Y,
                       const Interval &C) {
#if defined(__FMA__)
  assertRoundUpward();
  assert(detail::nonNegOk(X) && detail::nonPosOk(Y));
  double N = __builtin_fma(X.Hi, Y.NegLo, C.NegLo);
  double H = __builtin_fma(-X.NegLo, Y.Hi, C.Hi);
  if (__builtin_expect(std::isnan(N + H), 0))
    return iAdd(iMul(X, Y), C);
  return Interval(N, H);
#else
  return iAdd(iMulPN(X, Y), C);
#endif
}

/// Fused X*Y + C with hi(X) <= 0 and hi(Y) <= 0.
inline Interval iFmaNN(const Interval &X, const Interval &Y,
                       const Interval &C) {
#if defined(__FMA__)
  assertRoundUpward();
  assert(detail::nonPosOk(X) && detail::nonPosOk(Y));
  double N = __builtin_fma(-X.Hi, Y.Hi, C.NegLo);
  double H = __builtin_fma(X.NegLo, Y.NegLo, C.Hi);
  if (__builtin_expect(std::isnan(N + H), 0))
    return iAdd(iMul(X, Y), C);
  return Interval(N, H);
#else
  return iAdd(iMulNN(X, Y), C);
#endif
}

/// Fused X*Y + C with lo(X) >= 0, Y of unknown sign.
inline Interval iFmaPU(const Interval &X, const Interval &Y,
                       const Interval &C) {
#if defined(__FMA__)
  assertRoundUpward();
  assert(detail::nonNegOk(X));
  double N1 = __builtin_fma(X.NegLo, -Y.NegLo, C.NegLo);
  double N2 = __builtin_fma(X.Hi, Y.NegLo, C.NegLo);
  double H1 = __builtin_fma(-X.NegLo, Y.Hi, C.Hi);
  double H2 = __builtin_fma(X.Hi, Y.Hi, C.Hi);
  double Check = (N1 + N2) + (H1 + H2);
  if (__builtin_expect(std::isnan(Check), 0))
    return iAdd(iMul(X, Y), C);
  return Interval(N1 > N2 ? N1 : N2, H1 > H2 ? H1 : H2);
#else
  return iAdd(iMulPU(X, Y), C);
#endif
}

/// Fused X*Y + C with hi(X) <= 0, Y of unknown sign.
inline Interval iFmaNU(const Interval &X, const Interval &Y,
                       const Interval &C) {
#if defined(__FMA__)
  assertRoundUpward();
  assert(detail::nonPosOk(X));
  double N1 = __builtin_fma(X.NegLo, Y.Hi, C.NegLo);
  double N2 = __builtin_fma(-X.Hi, Y.Hi, C.NegLo);
  double H1 = __builtin_fma(X.NegLo, Y.NegLo, C.Hi);
  double H2 = __builtin_fma(X.Hi, -Y.NegLo, C.Hi);
  double Check = (N1 + N2) + (H1 + H2);
  if (__builtin_expect(std::isnan(Check), 0))
    return iAdd(iMul(X, Y), C);
  return Interval(N1 > N2 ? N1 : N2, H1 > H2 ? H1 : H2);
#else
  return iAdd(iMulNU(X, Y), C);
#endif
}

//===----------------------------------------------------------------------===//
// Elementary point operations (sqrt, abs, floor, ceil)
//===----------------------------------------------------------------------===//

namespace detail {

/// Largest double S with S*S <= X, given SUp = RU(sqrt(X)) and X >= 0
/// finite. Uses the exactness of the FMA residue: SUp*SUp - X is exactly
/// representable (standard square-root residue argument), so
/// fma(SUp, SUp, -X) computes it exactly in any rounding mode.
inline double sqrtRoundDown(double X, double SUp) {
  if (SUp * SUp == X && std::fma(SUp, SUp, -X) == 0.0)
    return SUp; // RU(sqrt(X)) is exact.
  return nextDown(SUp);
}

} // namespace detail

/// sqrt(X). A negative lower endpoint yields a NaN lower endpoint (the
/// paper's sqrt([-1,1]) == [NaN, 1]); an entirely negative X is invalid.
inline Interval iSqrt(const Interval &X) {
  assertRoundUpward();
  if (X.hasNaN())
    return Interval::nan();
  if (X.Hi < 0.0)
    return Interval::nan();
  double HiUp = std::sqrt(X.Hi); // Hardware sqrt honours RU: upper bound.
  double Lo = -X.NegLo;
  if (Lo < 0.0)
    return Interval(std::numeric_limits<double>::quiet_NaN(), HiUp);
  if (Lo == 0.0)
    return Interval(-0.0, HiUp);
  double SUp = std::sqrt(Lo);
  return Interval(-detail::sqrtRoundDown(Lo, SUp), HiUp);
}

/// |X|: exact endpoint selection.
inline Interval iAbs(const Interval &X) {
  if (X.hasNaN())
    return Interval::nan();
  if (X.NegLo <= 0.0) // lo >= 0: already nonnegative.
    return X;
  if (X.Hi <= 0.0) // hi <= 0: entirely nonpositive.
    return iNeg(X);
  // Straddles zero: [0, max(-lo, hi)].
  return Interval(0.0, X.NegLo > X.Hi ? X.NegLo : X.Hi);
}

/// floor(X): exact and monotone; floor(lo) == -ceil(-lo).
inline Interval iFloor(const Interval &X) {
  return Interval(std::ceil(X.NegLo), std::floor(X.Hi));
}

/// ceil(X): exact and monotone.
inline Interval iCeil(const Interval &X) {
  return Interval(std::floor(X.NegLo), std::ceil(X.Hi));
}

/// min(X, Y): endpoint-wise minimum (the set {min(u,v)}).
inline Interval iMin(const Interval &X, const Interval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return Interval::nan();
  return Interval(X.NegLo > Y.NegLo ? X.NegLo : Y.NegLo,
                  X.Hi < Y.Hi ? X.Hi : Y.Hi);
}

/// max(X, Y): endpoint-wise maximum.
inline Interval iMax(const Interval &X, const Interval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return Interval::nan();
  return Interval(X.NegLo < Y.NegLo ? X.NegLo : Y.NegLo,
                  X.Hi > Y.Hi ? X.Hi : Y.Hi);
}

//===----------------------------------------------------------------------===//
// Comparisons (Section IV-B): three-valued results
//===----------------------------------------------------------------------===//

inline TBool iCmpLT(const Interval &X, const Interval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return TBool::Unknown;
  if (X.Hi < -Y.NegLo)
    return TBool::True; // hi(X) < lo(Y)
  if (-X.NegLo >= Y.Hi)
    return TBool::False; // lo(X) >= hi(Y)
  return TBool::Unknown;
}

inline TBool iCmpLE(const Interval &X, const Interval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return TBool::Unknown;
  if (X.Hi <= -Y.NegLo)
    return TBool::True;
  if (-X.NegLo > Y.Hi)
    return TBool::False;
  return TBool::Unknown;
}

inline TBool iCmpGT(const Interval &X, const Interval &Y) {
  return iCmpLT(Y, X);
}

inline TBool iCmpGE(const Interval &X, const Interval &Y) {
  return iCmpLE(Y, X);
}

inline TBool iCmpEQ(const Interval &X, const Interval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return TBool::Unknown;
  if (X.isPoint() && Y.isPoint() && X.Hi == Y.Hi)
    return TBool::True;
  // Disjoint intervals are certainly unequal.
  if (X.Hi < -Y.NegLo || Y.Hi < -X.NegLo)
    return TBool::False;
  return TBool::Unknown;
}

inline TBool iCmpNE(const Interval &X, const Interval &Y) {
  return tboolNot(iCmpEQ(X, Y));
}

//===----------------------------------------------------------------------===//
// Set operations and conversions
//===----------------------------------------------------------------------===//

/// Smallest interval containing both X and Y (used to join branches).
inline Interval iHull(const Interval &X, const Interval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return Interval::nan();
  return Interval(X.NegLo > Y.NegLo ? X.NegLo : Y.NegLo,
                  X.Hi > Y.Hi ? X.Hi : Y.Hi);
}

/// Builds the interval X +- Tol (the language extension of Section IV-C).
/// Requires Tol >= 0.
inline Interval iSetTol(double X, double Tol) {
  assertRoundUpward();
  return Interval((-X) + Tol, X + Tol);
}

/// Tightest interval around a value known only as a double: the exact
/// degenerate interval (a double *is* a real).
inline Interval iFromDouble(double X) { return Interval::fromPoint(X); }

//===----------------------------------------------------------------------===//
// Operator sugar for the C++ API (examples, tests)
//===----------------------------------------------------------------------===//

inline Interval operator+(const Interval &X, const Interval &Y) {
  return iAdd(X, Y);
}
inline Interval operator-(const Interval &X, const Interval &Y) {
  return iSub(X, Y);
}
inline Interval operator*(const Interval &X, const Interval &Y) {
  return iMul(X, Y);
}
inline Interval operator/(const Interval &X, const Interval &Y) {
  return iDiv(X, Y);
}
inline Interval operator-(const Interval &X) { return iNeg(X); }

} // namespace igen

#endif // IGEN_INTERVAL_INTERVAL_H
