//===- DdInterval.h - Double-double-precision intervals ---------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Intervals whose endpoints are double-double numbers (the paper's ddi,
/// Section VI-A): ~106 bits of precision per endpoint with the dynamic
/// range of double. As with f64i, the interval [a, b] is stored as
/// (-a, b) so everything uses upward rounding only; Lemma 1 supplies the
/// directed-bound property of the double-double operations.
///
/// Multiplication and division use sign-case selection. A product needs
/// one directed dd product per endpoint when neither factor straddles
/// zero, two when one does. When the divisor contains zero, division
/// degrades to the same half-line/entire/invalid analysis as the
/// double-precision layer, computed on the outer double hull (sound).
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_DDINTERVAL_H
#define IGEN_INTERVAL_DDINTERVAL_H

#include "interval/DoubleDouble.h"
#include "interval/Interval.h"
#include "interval/TBool.h"

namespace igen {

/// A double-double interval stored as (-lo, hi), each endpoint a Dd.
struct DdInterval {
  Dd NegLo;
  Dd Hi;

  DdInterval() = default;
  DdInterval(const Dd &NegLo, const Dd &Hi) : NegLo(NegLo), Hi(Hi) {}

  Dd lo() const { return ddNeg(NegLo); }
  Dd hi() const { return Hi; }

  static DdInterval fromEndpoints(const Dd &Lo, const Dd &Hi) {
    return DdInterval(ddNeg(Lo), Hi);
  }
  static DdInterval fromPoint(const Dd &X) {
    return DdInterval(ddNeg(X), X);
  }
  static DdInterval fromPoint(double X) {
    return DdInterval(Dd(-X), Dd(X));
  }
  /// Widens a double-precision interval (exact).
  static DdInterval fromInterval(const Interval &X) {
    return DdInterval(Dd(X.NegLo), Dd(X.Hi));
  }

  static DdInterval entire() {
    double Inf = std::numeric_limits<double>::infinity();
    return DdInterval(Dd(Inf), Dd(Inf));
  }
  static DdInterval nan() {
    double N = std::numeric_limits<double>::quiet_NaN();
    return DdInterval(Dd(N), Dd(N));
  }

  bool hasNaN() const { return NegLo.hasNaN() || Hi.hasNaN(); }
  bool hasInf() const { return NegLo.isInf() || Hi.isInf(); }

  /// Outer double-precision hull (requires upward rounding): the smallest
  /// f64i containing this interval.
  Interval outerHull() const {
    assertRoundUpward();
    return Interval(ddToDoubleUp(NegLo), ddToDoubleUp(Hi));
  }

  /// True if the real \p X lies within the interval. NaN endpoints contain
  /// everything. Exact double-double comparisons.
  bool contains(double X) const {
    if (hasNaN())
      return true;
    // lo <= X  <=>  -X <= -lo == NegLo;  X <= hi  <=>  !(hi < X).
    return !ddLess(NegLo, Dd(-X)) && !ddLess(Hi, Dd(X));
  }

  /// Containment of a double-double value.
  bool contains(const Dd &X) const {
    if (hasNaN())
      return true;
    return !ddLess(NegLo, ddNeg(X)) && !ddLess(Hi, X);
  }
};

//===----------------------------------------------------------------------===//
// Arithmetic
//===----------------------------------------------------------------------===//

inline DdInterval ddiAdd(const DdInterval &X, const DdInterval &Y) {
  return DdInterval(ddAddUp(X.NegLo, Y.NegLo), ddAddUp(X.Hi, Y.Hi));
}

inline DdInterval ddiNeg(const DdInterval &X) {
  return DdInterval(X.Hi, X.NegLo);
}

inline DdInterval ddiSub(const DdInterval &X, const DdInterval &Y) {
  return DdInterval(ddAddUp(X.NegLo, Y.Hi), ddAddUp(X.Hi, Y.NegLo));
}

namespace detail {

/// Conservative fallback for ddi multiplication/division with special
/// values: compute on the outer double hull with the double-precision
/// interval code (which handles 0*inf etc.) and widen back.
inline DdInterval ddiFromOuter(const Interval &I) {
  return DdInterval(Dd(I.NegLo), Dd(I.Hi));
}

} // namespace detail

/// X * Y with double-double endpoints by sign-case selection, ddMulUp
/// being the directed product. With X = [a, b] and Y = [c, d]:
///  - neither factor straddles zero: one product per endpoint,
///      lo = (Y >= 0 ? a : b) * (X >= 0 ? c : d),
///      hi = (Y >= 0 ? b : a) * (X >= 0 ? d : c);
///  - a factor straddles zero: lo = min(a*d, b*c), hi = max(a*c, b*d).
/// "X >= 0" is RU(NegLo.H + NegLo.L) <= 0. Since 0 is a double, that
/// test is exact for any Dd, and on normalized endpoints it equals
/// NegLo.sign() <= 0; [0, 0] counts as nonnegative. Each product is one
/// of iMul's eight candidates, hence the result lies within the
/// eight-candidate enclosure. The AVX ddiMul (DdSimd.h) forms
/// the same products with the same operands and agrees bit for bit.
/// Special values (NaN endpoints, infinities) fall back to the
/// double-precision hull.
inline DdInterval ddiMul(const DdInterval &X, const DdInterval &Y) {
  assertRoundUpward();
  if (__builtin_expect(X.hasNaN() || Y.hasNaN() || X.hasInf() || Y.hasInf(),
                       0))
    return detail::ddiFromOuter(iMul(X.outerHull(), Y.outerHull()));
  const Dd &Xn = X.NegLo, &Xh = X.Hi, &Yn = Y.NegLo, &Yh = Y.Hi;
  bool XNonNeg = ddToDoubleUp(Xn) <= 0.0, YNonNeg = ddToDoubleUp(Yn) <= 0.0;
  Dd NegLo, Hi;
  bool Overflow;
  if (__builtin_expect((XNonNeg || ddToDoubleUp(Xh) <= 0.0) &&
                           (YNonNeg || ddToDoubleUp(Yh) <= 0.0),
                       1)) {
    NegLo = ddMulUp(YNonNeg ? Xn : ddNeg(Xh), XNonNeg ? ddNeg(Yn) : Yh);
    Hi = ddMulUp(YNonNeg ? Xh : ddNeg(Xn), XNonNeg ? Yh : ddNeg(Yn));
    Overflow = NegLo.hasNaN() || Hi.hasNaN();
  } else {
    Dd NegAD = ddMulUp(Xn, Yh), AC = ddMulUp(Xn, Yn);
    Dd NegBC = ddMulUp(Xh, Yn), BD = ddMulUp(Xh, Yh);
    Overflow =
        NegAD.hasNaN() || AC.hasNaN() || NegBC.hasNaN() || BD.hasNaN();
    NegLo = ddMax(NegBC, NegAD);
    Hi = ddMax(BD, AC);
  }
  // Finite inputs can still overflow inside a product (inf - inf -> NaN
  // in the renormalization), and the max would silently drop a NaN:
  // recover the sound +-inf bounds from the double hull instead.
  if (__builtin_expect(Overflow, 0))
    return detail::ddiFromOuter(iMul(X.outerHull(), Y.outerHull()));
  return DdInterval(NegLo, Hi);
}

/// X / Y with double-double endpoints. 0-free divisors use sign-case
/// selection with two directed divisions; divisors containing zero are
/// resolved on the outer double hull. Every sign is read from
/// RU(H + L), as in ddiMul: H + L is a multiple of the smallest denormal,
/// so RU(H + L) has the sign of H + L exactly, also for an unnormalized
/// endpoint whose low word outweighs its high word (where sign() reads
/// the wrong one).
inline DdInterval ddiDiv(const DdInterval &X, const DdInterval &Y) {
  assertRoundUpward();
  if (__builtin_expect(X.hasNaN() || Y.hasNaN() || X.hasInf() || Y.hasInf(),
                       0))
    return detail::ddiFromOuter(iDiv(X.outerHull(), Y.outerHull()));
  bool YLoPos = ddToDoubleUp(Y.NegLo) < 0.0; // lo(Y) > 0
  bool YHiNeg = ddToDoubleUp(Y.Hi) < 0.0;    // hi(Y) < 0
  if (!YLoPos && !YHiNeg) // 0 in Y
    return detail::ddiFromOuter(iDiv(X.outerHull(), Y.outerHull()));
  if (YHiNeg) // Y < 0: X/Y == (-X)/(-Y)
    return ddiDiv(ddiNeg(X), ddiNeg(Y));
  // Y > 0 now. ddDivUp's error bound needs normalized operands, and no
  // dividend in the subnormal range; a hand-built endpoint (ia_set_ddc)
  // need not be normalized.
  if (__builtin_expect(!detail::ddDivOperand(X.NegLo) ||
                           !detail::ddDivOperand(X.Hi) ||
                           !detail::ddDivOperand(Y.NegLo) ||
                           !detail::ddDivOperand(Y.Hi),
                       0))
    return detail::ddiFromOuter(iDiv(X.outerHull(), Y.outerHull()));
  // lo' = lo(X) / (lo(X) >= 0 ? hi(Y) : lo(Y)),
  // hi' = hi(X) / (hi(X) >= 0 ? lo(Y) : hi(Y)).
  // In negated-low form: NegLo' = ddDivUp(NegLo(X), divisor) because
  // -(lo/d) == (-lo)/d.
  Dd YLo = ddNeg(Y.NegLo);
  bool XLoNonNeg = ddToDoubleUp(X.NegLo) <= 0.0; // lo(X) >= 0
  bool XHiNonNeg = ddToDoubleUp(X.Hi) >= 0.0;
  Dd NegLo = ddDivUp(X.NegLo, XLoNonNeg ? Y.Hi : YLo);
  Dd Hi = ddDivUp(X.Hi, XHiNonNeg ? YLo : Y.Hi);
  return DdInterval(NegLo, Hi);
}

//===----------------------------------------------------------------------===//
// Comparisons (same semantics as the double layer)
//===----------------------------------------------------------------------===//

inline TBool ddiCmpLT(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return TBool::Unknown;
  if (ddLess(X.Hi, ddNeg(Y.NegLo)))
    return TBool::True;
  if (!ddLess(ddNeg(X.NegLo), Y.Hi))
    return TBool::False;
  return TBool::Unknown;
}

inline TBool ddiCmpGT(const DdInterval &X, const DdInterval &Y) {
  return ddiCmpLT(Y, X);
}

inline TBool ddiCmpLE(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return TBool::Unknown;
  if (!ddLess(ddNeg(Y.NegLo), X.Hi))
    return TBool::True;
  if (ddLess(Y.Hi, ddNeg(X.NegLo)))
    return TBool::False;
  return TBool::Unknown;
}

inline TBool ddiCmpGE(const DdInterval &X, const DdInterval &Y) {
  return ddiCmpLE(Y, X);
}

/// min(X, Y): endpoint-wise minimum (the set {min(u,v)}).
inline DdInterval ddiMin(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return DdInterval::nan();
  return DdInterval(ddMax(X.NegLo, Y.NegLo),
                    ddLess(X.Hi, Y.Hi) ? X.Hi : Y.Hi);
}

/// max(X, Y): endpoint-wise maximum.
inline DdInterval ddiMax(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return DdInterval::nan();
  return DdInterval(ddLess(X.NegLo, Y.NegLo) ? X.NegLo : Y.NegLo,
                    ddMax(X.Hi, Y.Hi));
}

/// Hull (branch joining).
inline DdInterval ddiHull(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return DdInterval::nan();
  return DdInterval(ddMax(X.NegLo, Y.NegLo), ddMax(X.Hi, Y.Hi));
}

inline DdInterval operator+(const DdInterval &X, const DdInterval &Y) {
  return ddiAdd(X, Y);
}
inline DdInterval operator-(const DdInterval &X, const DdInterval &Y) {
  return ddiSub(X, Y);
}
inline DdInterval operator*(const DdInterval &X, const DdInterval &Y) {
  return ddiMul(X, Y);
}
inline DdInterval operator/(const DdInterval &X, const DdInterval &Y) {
  return ddiDiv(X, Y);
}
inline DdInterval operator-(const DdInterval &X) { return ddiNeg(X); }

} // namespace igen

#endif // IGEN_INTERVAL_DDINTERVAL_H
