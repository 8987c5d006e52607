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
/// Addition, subtraction, negation and multiplication are written once,
/// over a register backend (DdRegs): the scalar backend below holds one
/// DdInterval, the AVX backend in DdSimd.h one ddi per __m256d, and both
/// run the same op body, so results never depend on the register width.
///
/// Multiplication and division use sign-case selection. A product needs
/// one directed dd product per endpoint when neither factor straddles
/// zero, two when one does. When the divisor contains zero, division
/// degrades to the same half-line/entire/invalid analysis as the
/// double-precision layer, computed on the outer double hull (sound).
/// Division, the comparisons, min, max and hull run on the scalar
/// representation; every endpoint order comes from ddOrder.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_DDINTERVAL_H
#define IGEN_INTERVAL_DDINTERVAL_H

#include "interval/DoubleDouble.h"
#include "interval/Interval.h"
#include "interval/TBool.h"

#include <bit>
#include <cstdint>

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

  /// True if ddOrder proves lo <= X <= hi, so never for a value the
  /// endpoints exclude. NaN endpoints contain everything. Requires upward
  /// rounding.
  bool contains(const Dd &X) const {
    if (hasNaN())
      return true;
    // lo <= X  <=>  -X <= -lo == NegLo.
    return !(ddOrder(ddNeg(X), NegLo) & DdAbove) && !(ddOrder(X, Hi) & DdAbove);
  }
  bool contains(double X) const { return contains(Dd(X)); }
};

//===----------------------------------------------------------------------===//
// Register backends
//===----------------------------------------------------------------------===//

/// A register backend holds ddi in a register type R and supplies the
/// pair-level primitives the op bodies below are written in. A register
/// holds a pair of double-doubles: the negated low endpoint's slot first,
/// then the high endpoint's. DdRegs<DdInterval> is the scalar backend;
/// DdSimd.h adds the AVX one (one ddi per register) and a pack of eight
/// ddi per register set. Every backend must give the same bits for the
/// same primitive, so every op agrees bit for bit across backends.
template <class R> struct DdRegs;

template <class R>
concept DdRegister = requires { typename DdRegs<R>::Signs; };

/// A backend whose register holds several ddi (lanes): it blends lanes
/// of known sign into a straddling multiply and runs its fallbacks lane
/// by lane through the scalar backend.
template <class R>
concept DdPackRegister = DdRegister<R> && requires { DdRegs<R>::Lanes; };

/// The scalar backend: one DdInterval, ddAddUp/ddMulUp/ddMax once per
/// slot. The pairwise operations are always inlined: left to the early
/// inliner, their DdInterval operands stay on the stack and the multiply
/// grows too large to inline into a loop.
template <> struct DdRegs<DdInterval> {
  using R = DdInterval;
  [[gnu::always_inline]] static R addUp(const R &A, const R &B) {
    return R(ddAddUp(A.NegLo, B.NegLo), ddAddUp(A.Hi, B.Hi));
  }
  [[gnu::always_inline]] static R mulUp(const R &A, const R &B) {
    return R(ddMulUp(A.NegLo, B.NegLo), ddMulUp(A.Hi, B.Hi));
  }
  [[gnu::always_inline]] static R maxUp(const R &A, const R &B) {
    return R(ddMax(A.NegLo, B.NegLo), ddMax(A.Hi, B.Hi));
  }
  static R swap(const R &A) { return R(A.Hi, A.NegLo); }
  static R neg(const R &A) { return R(ddNeg(A.NegLo), ddNeg(A.Hi)); }
  static R negFirst(const R &A) { return R(ddNeg(A.NegLo), A.Hi); }
  static R dupFirst(const R &A) { return R(A.NegLo, A.NegLo); }
  static R dupSecond(const R &A) { return R(A.Hi, A.Hi); }
  /// Masks the words instead of branching on M: the multiply's sign
  /// cases then share one path, and a whole-struct select would go
  /// through memory.
  static R select(bool M, const R &T, const R &F) {
    const uint64_t Mask = -uint64_t(M);
    auto Pick = [Mask](double A, double B) {
      return std::bit_cast<double>((std::bit_cast<uint64_t>(A) & Mask) |
                                   (std::bit_cast<uint64_t>(B) & ~Mask));
    };
    return R(Dd(Pick(T.NegLo.H, F.NegLo.H), Pick(T.NegLo.L, F.NegLo.L)),
             Dd(Pick(T.Hi.H, F.Hi.H), Pick(T.Hi.L, F.Hi.L)));
  }

  /// RU(H + L) <= 0 of the four endpoints: x >= 0, x <= 0, y >= 0, y <= 0
  /// (a negated low endpoint <= 0 is a low endpoint >= 0).
  struct Signs {
    bool XNonNeg, XNonPos, YNonNeg, YNonPos;
  };
  static Signs signs(const R &X, const R &Y) {
    return {ddToDoubleUp(X.NegLo) <= 0.0, ddToDoubleUp(X.Hi) <= 0.0,
            ddToDoubleUp(Y.NegLo) <= 0.0, ddToDoubleUp(Y.Hi) <= 0.0};
  }
  /// Bitwise, not short-circuit: one branch on the four tests.
  static bool signKnown(const Signs &S) {
    return (S.XNonNeg | S.XNonPos) & (S.YNonNeg | S.YNonPos);
  }
  static bool xNonNeg(const Signs &S) { return S.XNonNeg; }
  static bool yNonNeg(const Signs &S) { return S.YNonNeg; }

  static bool special(const R &X) { return X.hasNaN() || X.hasInf(); }
  static bool unordered(const R &A, const R &B) {
    return A.hasNaN() || B.hasNaN();
  }
  static DdInterval toScalar(const R &X) { return X; }
  static R fromScalar(const DdInterval &X) { return X; }
  static R load(const DdInterval *P) { return *P; }
  static void store(DdInterval *P, const R &V) { *P = V; }
};

//===----------------------------------------------------------------------===//
// Arithmetic: one body for every backend
//===----------------------------------------------------------------------===//

template <DdRegister R> inline R ddiAdd(const R &X, const R &Y) {
  return DdRegs<R>::addUp(X, Y);
}

/// Swaps the endpoints (-lo <-> hi), exact.
template <DdRegister R> inline R ddiNeg(const R &X) {
  return DdRegs<R>::swap(X);
}

template <DdRegister R> inline R ddiSub(const R &X, const R &Y) {
  return DdRegs<R>::addUp(X, DdRegs<R>::swap(Y));
}

template <DdRegister R> inline R ddiMul(const R &X, const R &Y);

namespace detail {

/// Conservative fallback for ddi multiplication/division with special
/// values: compute on the outer double hull with the double-precision
/// interval code (which handles 0*inf etc.) and widen back.
inline DdInterval ddiFromOuter(const Interval &I) {
  return DdInterval(Dd(I.NegLo), Dd(I.Hi));
}

/// ddiMul's special-value and overflow fallback: the double-precision
/// hull of one ddi, or for a pack every lane again through the scalar
/// multiply (whose own fallback then decides lane by lane). Out of line,
/// so the multiply inlines as small as its common path. Static and
/// flattened: every translation unit runs its own copy, compiled for its
/// own -march, never one the linker took from a TU built for another ISA.
template <DdRegister R>
[[gnu::cold, gnu::noinline, gnu::flatten]] static R
ddiMulOuter(const R &X, const R &Y) {
  using B = DdRegs<R>;
  if constexpr (DdPackRegister<R>)
    return B::lanewise(X, Y, [](const DdInterval &A, const DdInterval &C) {
      return ddiMul(A, C);
    });
  else
    return B::fromScalar(ddiFromOuter(
        iMul(B::toScalar(X).outerHull(), B::toScalar(Y).outerHull())));
}

/// ddiMul's product when neither factor straddles zero (see ddiMul).
template <DdRegister R>
[[gnu::always_inline]] inline R
ddiMulKnownSign(const R &X, const R &Y, const typename DdRegs<R>::Signs &S) {
  using B = DdRegs<R>;
  const R NY = B::negFirst(Y);
  return B::mulUp(B::select(B::yNonNeg(S), X, B::neg(B::swap(X))),
                  B::select(B::xNonNeg(S), NY, B::swap(NY)));
}

} // namespace detail

/// X * Y with double-double endpoints by sign-case selection, ddMulUp
/// being the directed product. With X = [a, b] and Y = [c, d]:
///  - neither factor straddles zero: one pairwise product computes both
///    endpoints, [-lo | hi] = A * B with
///      A = y >= 0 ? [-a | b] : -[b | -a],
///      B = x >= 0 ? [c | d] : [d | c];
///  - a factor straddles zero: [-a*d | a*c] and [-b*c | b*d] by two
///    pairwise products, then one pairwise ddMax.
/// "x >= 0" is RU(-a) <= 0: 0 is a double, so the test is exact for any
/// Dd, and [0, 0] counts as nonnegative. Each product is one of iMul's
/// eight candidates, hence the result lies within the eight-candidate
/// enclosure. Special values (NaN or infinite words), and finite inputs
/// whose product overflows to NaN inside a renormalization, fall back to
/// the double-precision hull: the max would silently drop a NaN. A pack
/// whose lanes mix known signs with straddling ones computes both forms
/// and blends the known-sign lanes in; its tests cover every lane, so a
/// lane the scalar multiply would send to the fallback sends the pack.
template <DdRegister R> inline R ddiMul(const R &X, const R &Y) {
  using B = DdRegs<R>;
  assertRoundUpward();
  if (__builtin_expect(B::special(X) || B::special(Y), 0))
    return detail::ddiMulOuter(X, Y);
  const typename B::Signs S = B::signs(X, Y);
  R P;
  bool Overflow;
  if (__builtin_expect(B::signKnown(S), 1)) {
    P = detail::ddiMulKnownSign(X, Y, S);
    Overflow = B::unordered(P, P);
  } else {
    const R P1 = B::mulUp(B::dupFirst(X), B::swap(Y));
    const R P2 = B::mulUp(B::dupSecond(X), Y);
    Overflow = B::unordered(P1, P2);
    P = B::maxUp(P2, P1);
    if constexpr (DdPackRegister<R>) {
      if (const auto Known = B::knownLanes(S)) {
        const R K = detail::ddiMulKnownSign(X, Y, S);
        Overflow = Overflow || B::unordered(K, K);
        P = B::select(Known, K, P);
      }
    }
  }
  if (__builtin_expect(Overflow, 0))
    return detail::ddiMulOuter(X, Y);
  return P;
}

/// X / Y with double-double endpoints. 0-free divisors use sign-case
/// selection with two directed divisions; divisors containing zero are
/// resolved on the outer double hull. Every sign is read from
/// RU(H + L), as in ddiMul: H + L is a multiple of the smallest denormal,
/// so RU(H + L) has the sign of H + L exactly, also for an unnormalized
/// endpoint whose low word outweighs its high word.
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
// Comparisons, min, max and hull (same semantics as the double layer).
// Every endpoint order is ddOrder's: a comparison is True or False only
// when ddOrder proves it, and a max keeps an upper bound of both.
//===----------------------------------------------------------------------===//

inline TBool ddiCmpLT(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return TBool::Unknown;
  if (ddOrder(X.Hi, Y.lo()) == DdBelow) // hi(X) < lo(Y)
    return TBool::True;
  if (!(ddOrder(X.lo(), Y.Hi) & DdBelow)) // lo(X) >= hi(Y)
    return TBool::False;
  return TBool::Unknown;
}

inline TBool ddiCmpGT(const DdInterval &X, const DdInterval &Y) {
  return ddiCmpLT(Y, X);
}

inline TBool ddiCmpLE(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return TBool::Unknown;
  if (!(ddOrder(X.Hi, Y.lo()) & DdAbove)) // hi(X) <= lo(Y)
    return TBool::True;
  if (ddOrder(Y.Hi, X.lo()) == DdBelow) // hi(Y) < lo(X)
    return TBool::False;
  return TBool::Unknown;
}

inline TBool ddiCmpGE(const DdInterval &X, const DdInterval &Y) {
  return ddiCmpLE(Y, X);
}

/// min(X, Y): endpoint-wise minimum (the set {min(u,v)}). Either upper
/// endpoint bounds min(hi(X), hi(Y)); the smaller is kept when proven.
inline DdInterval ddiMin(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return DdInterval::nan();
  return DdInterval(ddMax(X.NegLo, Y.NegLo),
                    ddOrder(X.Hi, Y.Hi) == DdBelow ? X.Hi : Y.Hi);
}

/// max(X, Y): endpoint-wise maximum.
inline DdInterval ddiMax(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return DdInterval::nan();
  return DdInterval(ddOrder(X.NegLo, Y.NegLo) == DdBelow ? X.NegLo : Y.NegLo,
                    ddMax(X.Hi, Y.Hi));
}

/// Hull (branch joining).
inline DdInterval ddiHull(const DdInterval &X, const DdInterval &Y) {
  if (X.hasNaN() || Y.hasNaN())
    return DdInterval::nan();
  return DdInterval(ddMax(X.NegLo, Y.NegLo), ddMax(X.Hi, Y.Hi));
}

//===----------------------------------------------------------------------===//
// Scalar-only ops on a register backend: division and the comparisons run
// on the scalar representation.
//===----------------------------------------------------------------------===//

template <DdRegister R> inline R ddiDiv(const R &X, const R &Y) {
  using B = DdRegs<R>;
  return B::fromScalar(ddiDiv(B::toScalar(X), B::toScalar(Y)));
}

#define IGEN_DDI_SCALAR_CMP(NAME)                                            \
  template <DdRegister R> inline TBool NAME(const R &X, const R &Y) {        \
    return NAME(DdRegs<R>::toScalar(X), DdRegs<R>::toScalar(Y));             \
  }
IGEN_DDI_SCALAR_CMP(ddiCmpLT)
IGEN_DDI_SCALAR_CMP(ddiCmpGT)
IGEN_DDI_SCALAR_CMP(ddiCmpLE)
IGEN_DDI_SCALAR_CMP(ddiCmpGE)
#undef IGEN_DDI_SCALAR_CMP

template <DdRegister R> inline R operator+(const R &X, const R &Y) {
  return ddiAdd(X, Y);
}
template <DdRegister R> inline R operator-(const R &X, const R &Y) {
  return ddiSub(X, Y);
}
template <DdRegister R> inline R operator*(const R &X, const R &Y) {
  return ddiMul(X, Y);
}
template <DdRegister R> inline R operator/(const R &X, const R &Y) {
  return ddiDiv(X, Y);
}
template <DdRegister R> inline R operator-(const R &X) { return ddiNeg(X); }

} // namespace igen

#endif // IGEN_INTERVAL_DDINTERVAL_H
