//===- DoubleDouble.h - Directed double-double arithmetic -------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Double-double ("double-word") arithmetic with *upward* rounding
/// (Section VI-A). A double-double a is an unevaluated sum ah + al of two
/// doubles. The classical error-free transformations (TwoSum, FastTwoSum,
/// TwoProd) are only error-free in round-to-nearest; under a directed
/// rounding mode they instead yield *directed bounds*: computed entirely
/// with upward rounding, DD_Add/DD_Mul/DD_Div return z with
/// zh + zl >= exact result (the paper's Lemma 1, after Graillat-Jezequel).
/// Combined with the negated-lower-endpoint representation this is all the
/// interval layer needs.
///
/// All algorithms are templated over an operation policy so that the
/// Table III benchmark can count flops with CountingOps while the hot path
/// uses FastOps with zero overhead.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_DOUBLEDOUBLE_H
#define IGEN_INTERVAL_DOUBLEDOUBLE_H

#include "interval/Rounding.h"
#include "interval/Ulp.h"

#include <cmath>
#include <cstdint>

namespace igen {

/// A double-double value ah + al. The directed algorithms return the RU
/// form H = RU(H + L) through their final renormalization step; a pair
/// built elsewhere may have any form (round-to-nearest with a low word of
/// either sign, or unnormalized), and ddOrder orders every form.
struct Dd {
  double H = 0.0;
  double L = 0.0;

  Dd() = default;
  constexpr Dd(double H, double L) : H(H), L(L) {}
  explicit constexpr Dd(double H) : H(H), L(0.0) {}

  bool hasNaN() const { return std::isnan(H) || std::isnan(L); }
  bool isInf() const { return std::isinf(H); }
};

/// Exact negation.
inline Dd ddNeg(const Dd &X) { return Dd(-X.H, -X.L); }

/// Default operation policy: plain hardware arithmetic.
struct FastOps {
  static double add(double A, double B) { return A + B; }
  static double sub(double A, double B) { return A - B; }
  static double mul(double A, double B) { return A * B; }
  static double div(double A, double B) { return A / B; }
  static double fma(double A, double B, double C) {
    return __builtin_fma(A, B, C);
  }
};

/// Counting policy used by the Table III reproduction: counts every
/// floating-point operation (an FMA counts as two flops). The counters
/// are inline (defined in every TU) rather than out-of-line: an extern
/// thread_local member is reached through a weak TLS wrapper function,
/// which -fsanitize=null flags as a possibly-null store (GCC false
/// positive); inline thread_locals need no wrapper.
struct CountingOps {
  static inline thread_local uint64_t Adds = 0, Muls = 0, Divs = 0,
                                      Fmas = 0;
  static void reset() { Adds = Muls = Divs = Fmas = 0; }
  static uint64_t flops() { return Adds + Muls + Divs + 2 * Fmas; }

  static double add(double A, double B) {
    ++Adds;
    return A + B;
  }
  static double sub(double A, double B) {
    ++Adds;
    return A - B;
  }
  static double mul(double A, double B) {
    ++Muls;
    return A * B;
  }
  static double div(double A, double B) {
    ++Divs;
    return A / B;
  }
  static double fma(double A, double B, double C) {
    ++Fmas;
    return __builtin_fma(A, B, C);
  }
};

//===----------------------------------------------------------------------===//
// Error "bounding" transformations under directed rounding
//===----------------------------------------------------------------------===//

/// TwoSum of Fig. 6 (6 flops). Under upward rounding, S + E >= A + B
/// (under downward rounding, <=); in round-to-nearest it is the classical
/// error-free transformation S + E == A + B.
template <class Ops = FastOps>
inline void twoSum(double A, double B, double &S, double &E) {
  S = Ops::add(A, B);
  double A1 = Ops::sub(S, B);
  double B1 = Ops::sub(S, A1);
  double DA = Ops::sub(A, A1);
  double DB = Ops::sub(B, B1);
  E = Ops::add(DA, DB);
}

/// FastTwoSum (3 flops); requires |A| >= |B| (or A == 0). Same directed
/// bound property as twoSum.
template <class Ops = FastOps>
inline void fastTwoSum(double A, double B, double &S, double &E) {
  S = Ops::add(A, B);
  double Z = Ops::sub(S, A);
  E = Ops::sub(B, Z);
}

/// TwoProd via FMA (2 flops, counted as 3). P = RU(A*B) and E is the
/// *exact* residue A*B - P: the residue of a directed-rounded product is
/// exactly representable (barring underflow), so the FMA computes it
/// exactly in any rounding mode. Hence P + E == A * B exactly.
/// (The paper uses Dekker splitting to stay FMA-free; see DESIGN.md
/// substitution 8. Underflow of the residue makes E an upper bound rather
/// than exact under RU, which preserves the directed-bound property.)
template <class Ops = FastOps>
inline void twoProd(double A, double B, double &P, double &E) {
  P = Ops::mul(A, B);
  E = Ops::fma(A, B, -P);
}

//===----------------------------------------------------------------------===//
// Double-double operations, upward-rounded (results are upper bounds)
//===----------------------------------------------------------------------===//

/// DD_Add of Fig. 6 (20 flops). With the FPU rounding upward, returns
/// Z with Z.H + Z.L >= (X.H + X.L) + (Y.H + Y.L) -- Lemma 1.
template <class Ops = FastOps>
inline Dd ddAddUp(const Dd &X, const Dd &Y) {
  assertRoundUpward();
  double SH, SE, TH, TE;
  twoSum<Ops>(X.H, Y.H, SH, SE);
  twoSum<Ops>(X.L, Y.L, TH, TE);
  double C = Ops::add(SE, TH);
  double VH, VE;
  fastTwoSum<Ops>(SH, C, VH, VE);
  double W = Ops::add(TE, VE);
  double ZH, ZL;
  fastTwoSum<Ops>(VH, W, ZH, ZL);
  return Dd(ZH, ZL);
}

template <class Ops = FastOps>
inline Dd ddSubUp(const Dd &X, const Dd &Y) {
  return ddAddUp<Ops>(X, ddNeg(Y));
}

/// Upward-rounded double-double product (14 flops + one FMA):
///   (P, E) = TwoProd(xh, yh)                exact
///   E' = RU(E + RU(RU(xh*yl) + RU(xl*yh)) + RU(xl*yl))  >= true tail
///   Z  = TwoSum(P, E')                      >= P + E' under RU
/// hence Z >= exact product by monotonicity of RU.
template <class Ops = FastOps>
inline Dd ddMulUp(const Dd &X, const Dd &Y) {
  assertRoundUpward();
  double P, E;
  twoProd<Ops>(X.H, Y.H, P, E);
  double C1 = Ops::mul(X.H, Y.L);
  double C2 = Ops::mul(X.L, Y.H);
  double C3 = Ops::mul(X.L, Y.L);
  double S1 = Ops::add(C1, C2);
  double S2 = Ops::add(S1, C3);
  double E2 = Ops::add(E, S2);
  double ZH, ZL;
  twoSum<Ops>(P, E2, ZH, ZL);
  return Dd(ZH, ZL);
}

/// Relative widening margin used by ddDivUp: the double-double division
/// candidate below has relative error well under 2^-102 (Joldes et al.
/// bound degraded by directed rounding); widening by 2^-96 is a 64x safety
/// margin. The absolute floor covers the subnormal range, where rounding
/// errors are multiples of 2^-1074 (a handful per operation); 2^-1065 is
/// 512x headroom while staying negligible for any quotient above ~1e-305.
/// Validated against the expansion oracle in the dd test suites.
inline constexpr double DdDivRelMargin = 0x1p-96;
inline constexpr double DdDivAbsMargin = 0x1p-1065;

/// Upward-rounded double-double quotient: computes an accurate candidate
/// (DWDivDW-style refinement) and widens it upward past the worst-case
/// error so that the result is >= the exact quotient. Requires Y != 0.
template <class Ops = FastOps>
inline Dd ddDivUp(const Dd &X, const Dd &Y) {
  assertRoundUpward();
  double Q1 = Ops::div(X.H, Y.H);
  if (std::isnan(Q1) || std::isinf(Q1))
    return Dd(Q1, 0.0);
  // Residual R = X - Q1*Y, accumulated in plain doubles (the widening
  // absorbs the rounding of the residual path).
  double P, E;
  twoProd<Ops>(Q1, Y.H, P, E);
  double DH = Ops::sub(X.H, P); // Nearly exact (Sterbenz-like cancellation).
  double T1 = Ops::fma(Q1, Y.L, E);
  double D = Ops::add(DH, Ops::sub(X.L, T1));
  double Q2 = Ops::div(D, Y.H);
  double ZH, ZL;
  fastTwoSum<Ops>(Q1, Q2, ZH, ZL);
  // Widen upward beyond the worst-case relative error of the candidate.
  double Margin =
      Ops::add(Ops::mul(std::fabs(ZH), DdDivRelMargin), DdDivAbsMargin);
  double WH, WL;
  twoSum<Ops>(ZH, Ops::add(ZL, Margin), WH, WL);
  return Dd(WH, WL);
}

/// Upper bound of the double-double X as a single double: RU(H + L).
/// H + L is a multiple of the smallest denormal, so RU(H + L) also has
/// the exact sign of X, even for an unnormalized X whose low word
/// outweighs its high word (where the high word's sign is the wrong one).
inline double ddToDoubleUp(const Dd &X) {
  assertRoundUpward();
  return X.H + X.L;
}

namespace detail {

/// True when ddDivUp's error bound covers \p X as an operand:
/// |L| <= 2^-52 |H|, which every normalized Dd meets (exact: scaling by
/// 2^52 is exact, or overflows to inf and fails), and H zero or at least
/// 2^-900 in magnitude. A dividend below that leaves a residual whose
/// error, a few multiples of 2^-1074, can reach the quotient's own size
/// once divided (8 denormal steps over 6e-162 came out with lo > hi).
inline bool ddDivOperand(const Dd &X) {
  const double A = std::fabs(X.H);
  return std::fabs(X.L) * 0x1p52 <= A && (A == 0.0 || A >= 0x1p-900);
}

/// True when the Heron step of ddSqrtUp/ddSqrtDown keeps its bound for
/// X > 0: a finite positive high word that ddDivUp covers as dividend.
inline bool ddHeronOperand(const Dd &X) {
  return X.H > 0.0 && !std::isinf(X.H) && ddDivOperand(X);
}

} // namespace detail

/// The signs X - Y may have, as far as ddOrder proves: a nonempty union of
/// DdBelow (X < Y), DdEqual and DdAbove (X > Y).
enum DdOrder : unsigned {
  DdBelow = 1,
  DdEqual = 2,
  DdAbove = 4,
  DdUnordered = DdBelow | DdEqual | DdAbove,
};

/// The one order of double-doubles, for every form (RU, round-to-nearest
/// with either sign of low word, unnormalized). Exact where it decides:
///  - RU(H + L) orders values in different double ulps: RU(X) < RU(Y)
///    puts X at or below a double that lies below Y;
///  - inside one ulp, identical words are equal, and an upward difference
///    must confirm the lexicographic order of (H, L): with M the
///    lexicographically larger and O the other, RU(O - M) < 0 proves
///    O < M and RU(O - M) == 0 proves O <= M.
/// Otherwise (an order the difference does not confirm, NaN words) the
/// answer is DdUnordered. Requires upward rounding.
inline unsigned ddOrder(const Dd &X, const Dd &Y) {
  const double UX = ddToDoubleUp(X), UY = ddToDoubleUp(Y);
  if (UX < UY)
    return DdBelow;
  if (UY < UX)
    return DdAbove;
  if (UX != UY) // NaN
    return DdUnordered;
  if (X.H == Y.H && X.L == Y.L)
    return DdEqual;
  const bool YAbove = X.H < Y.H || (X.H == Y.H && X.L < Y.L);
  const double D = ddToDoubleUp(YAbove ? ddSubUp(X, Y) : ddSubUp(Y, X));
  if (!(D <= 0.0))
    return DdUnordered;
  return (YAbove ? DdBelow : DdAbove) | (D < 0.0 ? 0u : DdEqual);
}

/// An upper bound of max(X, Y): the larger of the two whenever ddOrder
/// proves their order (X on a tie), otherwise their common RU(H + L),
/// which bounds both. NaN words give an unspecified result; callers
/// screen them.
inline Dd ddMax(const Dd &X, const Dd &Y) {
  const unsigned O = ddOrder(X, Y);
  if (!(O & DdBelow))
    return X;
  if (!(O & DdAbove))
    return Y;
  return Dd(ddToDoubleUp(X));
}

/// Upward-rounded double-double square root for X >= 0: one Heron step
/// from the hardware sqrt. Soundness is by AM-GM, not by error analysis:
/// for *any* s > 0, (s + x/s)/2 >= sqrt(x), so with ddDivUp and ddAddUp
/// the computed value is an upper bound; starting from s ~ sqrt(x) within
/// 1 ulp it is also tight to ~2^-104 relative. The sign of X is read from
/// RU(H + L).
template <class Ops = FastOps> inline Dd ddSqrtUp(const Dd &X) {
  const double Up = ddToDoubleUp(X);
  if (!(Up >= 0.0)) // negative, or NaN words
    return Dd(std::numeric_limits<double>::quiet_NaN(), 0.0);
  if (Up == 0.0)
    return Dd(0.0);
  // Tiny, infinite or unnormalized: the crude bound from RU(H + L).
  if (!detail::ddHeronOperand(X))
    return Dd(std::sqrt(Up) * (1 + 0x1p-50), 0.0);
  double S = std::sqrt(X.H); // RU hardware sqrt: fine as Heron seed
  Dd Q = ddDivUp<Ops>(X, Dd(S));
  Dd Sum = ddAddUp<Ops>(Dd(S), Q);
  return Dd(0.5 * Sum.H, 0.5 * Sum.L); // exact halving
}

/// Downward-rounded double-double square root for X >= 0: x/sqrt_up(x)
/// computed downward (sqrt(x) == x / sqrt(x), and dividing by an upper
/// bound from below yields a lower bound). Signs are read from RU(H + L).
template <class Ops = FastOps> inline Dd ddSqrtDown(const Dd &X) {
  const double Up = ddToDoubleUp(X);
  if (!(Up >= 0.0))
    return Dd(std::numeric_limits<double>::quiet_NaN(), 0.0);
  if (Up == 0.0)
    return Dd(0.0);
  if (!detail::ddHeronOperand(X)) {
    // The crude bound: one step below RU(sqrt(RD(H + L))).
    const double Down = -(-X.H - X.L);
    return Down > 0.0 ? Dd(nextDown(std::sqrt(Down)), 0.0) : Dd(0.0);
  }
  Dd SUp = ddSqrtUp<Ops>(X);
  if (!(ddToDoubleUp(SUp) > 0.0))
    return Dd(0.0); // sound: sqrt(x) >= 0
  // RD(x / up) == -RU((-x) / up).
  return ddNeg(ddDivUp<Ops>(ddNeg(X), SUp));
}

/// Converts X to the nearest double (used when rounding certified
/// double-double results back to double precision). Under directed
/// rounding the H word is *not* the nearest double, so the words are
/// re-added once in round-to-nearest: a single RN addition correctly
/// rounds the exact sum H + L.
inline double ddToDoubleNearest(const Dd &X) {
  RoundNearestScope RN;
  // Both barriers matter: the first pins the operands below the mode
  // switch, the second pins the addition above the mode restore (GCC may
  // otherwise schedule FP operations across fesetround()).
  return opaque(opaque(X.H) + X.L);
}

} // namespace igen

#endif // IGEN_INTERVAL_DOUBLEDOUBLE_H
