//===- TestHelpers.h - Shared helpers for interval tests --------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Random input generation and the quad-precision soundness oracle shared
/// by the interval test suites. __float128 has 113 bits of precision --
/// enough to serve as "exact" reference for single operations on doubles
/// and for bounding double-double results.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TESTS_INTERVAL_TESTHELPERS_H
#define IGEN_TESTS_INTERVAL_TESTHELPERS_H

#include "interval/DdInterval.h"
#include "interval/Expansion.h"
#include "interval/Interval.h"
#include "interval/Ulp.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>

namespace igen::test {

/// Deterministic RNG for reproducible tests.
class Rng {
public:
  explicit Rng(uint64_t Seed) : Gen(Seed) {}

  uint64_t bits() { return Gen(); }

  /// Uniform in [Lo, Hi).
  double uniform(double Lo, double Hi) {
    return std::uniform_real_distribution<double>(Lo, Hi)(Gen);
  }

  int intIn(int Lo, int Hi) {
    return std::uniform_int_distribution<int>(Lo, Hi)(Gen);
  }

  /// A finite double spread over many binades (log-uniform magnitude,
  /// random sign), occasionally denormal or exactly zero.
  double finiteDouble() {
    int Kind = intIn(0, 19);
    if (Kind == 0)
      return 0.0;
    if (Kind == 1) // denormal
      return std::ldexp(uniform(-1.0, 1.0), -1060);
    int Exp = intIn(-300, 300);
    return std::ldexp(uniform(-1.0, 1.0), Exp);
  }

  /// A double in a moderate range (no overflow in products).
  double moderateDouble() {
    int Exp = intIn(-30, 30);
    return std::ldexp(uniform(-1.0, 1.0), Exp);
  }

  /// Any double including specials.
  double anyDouble() {
    int Kind = intIn(0, 9);
    if (Kind == 0)
      return std::numeric_limits<double>::infinity();
    if (Kind == 1)
      return -std::numeric_limits<double>::infinity();
    if (Kind == 2)
      return std::numeric_limits<double>::quiet_NaN();
    return finiteDouble();
  }

  /// A valid interval around a random finite center, width up to
  /// \p MaxUlps ulps.
  Interval interval(int64_t MaxUlps = 64) {
    double C = finiteDouble();
    int64_t Down = intIn(0, static_cast<int>(MaxUlps));
    int64_t Up = intIn(0, static_cast<int>(MaxUlps));
    return Interval::fromEndpoints(addUlps(C, -Down), addUlps(C, Up));
  }

  /// A moderate-range interval (products/quotients stay finite).
  Interval moderateInterval(int64_t MaxUlps = 64) {
    double C = moderateDouble();
    int64_t Down = intIn(0, static_cast<int>(MaxUlps));
    int64_t Up = intIn(0, static_cast<int>(MaxUlps));
    return Interval::fromEndpoints(addUlps(C, -Down), addUlps(C, Up));
  }

  /// A random normalized double-double value of moderate magnitude.
  Dd dd() {
    double H = moderateDouble();
    double L = H * std::ldexp(uniform(-1.0, 1.0), -53);
    // Normalize: H must absorb L's leading part.
    double S = H + L;
    return Dd(S, L - (S - H));
  }

private:
  std::mt19937_64 Gen;
};

/// An unnormalized dd interval: hi = -k + (k + m) denormal steps > 0
/// although its H is negative; lo is -j steps, or +j steps (j < m)
/// behind the same disguise; negated half the time. The high word's sign
/// is the wrong one for these endpoints.
inline DdInterval unnormalizedInterval(Rng &R) {
  double U = std::numeric_limits<double>::denorm_min();
  int K = R.intIn(1, 64), M = R.intIn(1, 64), J = R.intIn(0, M - 1);
  Dd Hi(-K * U, (K + M) * U);
  Dd Lo = R.intIn(0, 1) ? Dd(-J * U, 0.0) : Dd(-K * U, (K + J) * U);
  DdInterval I = DdInterval::fromEndpoints(Lo, Hi);
  return R.intIn(0, 1) ? I : ddiNeg(I);
}

/// Quad-precision value of a double-double.
inline __float128 toQuad(const Dd &X) {
  return static_cast<__float128>(X.H) + static_cast<__float128>(X.L);
}

/// True if the interval contains the quad value \p Q (NaN endpoints
/// contain everything; NaN Q is contained only by NaN intervals).
inline bool containsQuad(const Interval &I, __float128 Q) {
  if (I.hasNaN())
    return true;
  return -static_cast<__float128>(I.NegLo) <= Q &&
         Q <= static_cast<__float128>(I.Hi);
}

inline bool containsQuad(const DdInterval &I, __float128 Q) {
  if (I.hasNaN())
    return true;
  __float128 Lo = -toQuad(I.NegLo);
  __float128 Hi = toQuad(I.Hi);
  return Lo <= Q && Q <= Hi;
}

/// Sign and representation classes of dd intervals for the multiply
/// sweeps: every ordered pair of them is fed to the multiply tests.
enum DdSignClass {
  LoPositive,       // lo > 0
  HiNegative,       // hi < 0
  Straddling,       // lo < 0 < hi
  ZeroPoint,        // [0, 0], zero words of either sign
  ZeroLo,           // [0, b], b > 0
  ZeroHi,           // [a, 0], a < 0
  NegZeroEnds,      // -0.0 words as endpoints: [-0, -0], [-0, b], [a, -0]
  ZeroHighWord,     // endpoints with H == 0 and a nonzero L
  OneUlpLowWord,    // [c, c + one ulp of the low word], either sign
  LowOutweighsHigh, // unnormalized: a denormal H, larger opposite L
  NumDdSignClasses
};

/// A positive dd: mostly moderate; one in four in any binade from
/// denormal to near DBL_MAX, so that products underflow (and round up to
/// the smallest denormal) or overflow.
inline Dd positiveDd(Rng &R) {
  Dd C = R.dd();
  if (R.intIn(0, 3) == 0) {
    RoundNearestScope RN;
    double H = std::ldexp(R.uniform(0.5, 1.0), R.intIn(-1073, 1024));
    C = Dd(H, H * std::ldexp(R.uniform(0.0, 1.0), -54));
  }
  return C.H < 0 ? ddNeg(C) : C.H > 0 ? C : Dd(1.0);
}

inline double signedZero(Rng &R) { return R.intIn(0, 1) ? 0.0 : -0.0; }

/// A positive interval of a few low-word ulps around a random value.
inline DdInterval positiveDdInterval(Rng &R) {
  Dd C = positiveDd(R), Hi = C;
  Hi.L = addUlps(Hi.L, R.intIn(1, 8));
  return DdInterval::fromEndpoints(C, Hi);
}

/// An interval of DdSignClass \p Class.
inline DdInterval ddClassInterval(Rng &R, int Class) {
  auto ZeroDd = [&] { return Dd(signedZero(R), signedZero(R)); };
  switch (Class) {
  case LoPositive:
    return positiveDdInterval(R);
  case HiNegative:
    return ddiNeg(positiveDdInterval(R));
  case Straddling:
    return DdInterval(positiveDd(R), positiveDd(R));
  case ZeroPoint:
    return DdInterval(ZeroDd(), ZeroDd());
  case ZeroLo:
    return DdInterval(ZeroDd(), positiveDd(R));
  case ZeroHi:
    return DdInterval(positiveDd(R), ZeroDd());
  case NegZeroEnds: {
    Dd NegZero(-0.0, -0.0);
    switch (R.intIn(0, 2)) {
    case 0:
      return DdInterval::fromEndpoints(NegZero, NegZero);
    case 1:
      return DdInterval::fromEndpoints(NegZero, positiveDd(R));
    default:
      return DdInterval::fromEndpoints(ddNeg(positiveDd(R)), NegZero);
    }
  }
  case ZeroHighWord: {
    // One endpoint (or both) has a zero high word, so the low word
    // carries its sign; the endpoints are ordered by value.
    auto ZeroHigh = [&] {
      return Dd(signedZero(R),
                R.intIn(0, 1) ? R.moderateDouble() : R.finiteDouble());
    };
    Dd U = ZeroHigh();
    Dd V = R.intIn(0, 1)   ? ZeroHigh()
           : R.intIn(0, 1) ? positiveDd(R)
                           : ddNeg(positiveDd(R));
    if (toQuad(V) < toQuad(U))
      std::swap(U, V);
    return DdInterval::fromEndpoints(U, V);
  }
  case OneUlpLowWord: {
    Dd C = R.dd(), Hi = C;
    Hi.L = nextUp(Hi.L);
    return DdInterval::fromEndpoints(C, Hi);
  }
  default: // LowOutweighsHigh
    return unnormalizedInterval(R);
  }
}

/// A straddling pair whose two candidate products per endpoint share
/// one RU(H + L), so the straddle max must order values inside one
/// double ulp: X = [-2^k, 2^k] and Y = [-u, v] with u and v in one ulp,
/// one of them in round-to-nearest form (a positive low word). The
/// first is the example X = [-1, 1], Y = [-A, B] with A = 1 + 2^-60 in
/// RU form and B = 1 + 2^-54 in round-to-nearest form.
inline std::pair<DdInterval, DdInterval> sharedUlpStraddle(Rng &R, int I) {
  double S = 1.0, H = 1.0, Ulp = 0x1p-52, Low = 0x1p-60, Near = 0x1p-54;
  if (I > 0) {
    RoundNearestScope RN;
    int K = R.intIn(-40, 40);
    S = std::ldexp(1.0, R.intIn(-8, 8));
    H = std::ldexp(R.uniform(1.0, 2.0), K);
    Ulp = std::ldexp(0x1p-52, K);
    Low = Ulp * std::ldexp(R.uniform(0.0, 1.0), -R.intIn(1, 20));
    Near = Ulp * R.uniform(0.0, 0.5);
  }
  Dd U(H + Ulp, -Ulp + Low), V(H, Near);
  if (I % 2)
    std::swap(U, V);
  return {DdInterval(Dd(S), Dd(S)), DdInterval(U, V)};
}

//===----------------------------------------------------------------------===//
// Exact (expansion-based) oracles
//
// __float128 has 113 bits; the exact sum of two double-doubles can need
// ~118 and an exact dd product ~212, so quad comparisons near the boundary
// are unreliable. These helpers evaluate signs exactly.
//===----------------------------------------------------------------------===//

/// Builds the expansion of (A + B) for double-doubles (exact).
inline Expansion exactDdSum(const Dd &A, const Dd &B) {
  RoundNearestScope RN;
  Expansion E;
  E.add(A.H);
  E.add(A.L);
  E.add(B.H);
  E.add(B.L);
  return E;
}

/// Builds the expansion of (A * B) for double-doubles (exact).
inline Expansion exactDdProduct(const Dd &A, const Dd &B) {
  RoundNearestScope RN;
  Expansion E;
  E.addProduct(A.H, B.H);
  E.addProduct(A.H, B.L);
  E.addProduct(A.L, B.H);
  E.addProduct(A.L, B.L);
  return E;
}

/// True if the double-double Z >= the exact value V (sign-exact).
inline bool ddGeExact(const Dd &Z, const Expansion &V) {
  RoundNearestScope RN;
  Expansion D = V;
  // D = V - Z; Z >= V  <=>  D <= 0.
  D.add(-Z.H);
  D.add(-Z.L);
  return D.sign() <= 0;
}

/// True if the double-double Z <= the exact value V.
inline bool ddLeExact(const Dd &Z, const Expansion &V) {
  RoundNearestScope RN;
  Expansion D = V;
  D.add(-Z.H);
  D.add(-Z.L);
  return D.sign() >= 0;
}

/// True if the dd interval \p I contains the exact value \p V.
inline bool containsExact(const DdInterval &I, const Expansion &V) {
  if (I.hasNaN())
    return true;
  // lo <= V <= hi, with lo == -NegLo.
  return ddLeExact(ddNeg(I.NegLo), V) && ddGeExact(I.Hi, V);
}

/// A set of "interesting" doubles for exhaustive special-value sweeps.
inline const double *specialValues(int &Count) {
  static const double Values[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      1.0,
      -1.0,
      1.5,
      -2.5,
      1e300,
      -1e300,
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  Count = sizeof(Values) / sizeof(Values[0]);
  return Values;
}

} // namespace igen::test

#endif // IGEN_TESTS_INTERVAL_TESTHELPERS_H
