//===- Expansion.h - Exact floating-point expansions ------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shewchuk-style floating-point expansions: a value represented exactly as
/// a sum of nonoverlapping doubles of increasing magnitude. Used as the
/// exactness oracle in tests and by the certified variant of double-double
/// division (sign-exact evaluation of residuals like q*y - x).
///
/// IMPORTANT: the underlying error-free transformations are only exact in
/// round-to-nearest. Every public entry point asserts the rounding mode;
/// callers wrap uses in RoundNearestScope.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_INTERVAL_EXPANSION_H
#define IGEN_INTERVAL_EXPANSION_H

#include "interval/DoubleDouble.h"
#include "interval/Rounding.h"

#include <cassert>
#include <cfenv>
#include <cmath>
#include <vector>

namespace igen {

/// An exact, arbitrary-length sum of doubles. Components are kept
/// nonoverlapping and sorted by increasing magnitude; the value is the
/// exact mathematical sum of the components.
class Expansion {
public:
  Expansion() = default;

  /// Creates the expansion holding the single value \p X.
  explicit Expansion(double X) {
    if (X != 0.0)
      Components.push_back(X);
  }

  /// Adds the double \p B exactly (Shewchuk's GROW-EXPANSION). Defined
  /// out of line: the error-free transformations must execute under the
  /// round-to-nearest mode established by the caller, and out-of-line
  /// calls cannot be scheduled across the caller's fesetround().
  void add(double B);

  /// Adds the exact product A*B (TwoProd + two grows).
  void addProduct(double A, double B);

  /// Adds another expansion exactly.
  void add(const Expansion &Other) {
    for (double C : Other.Components)
      add(C);
  }

  /// Sign of the exact value: -1, 0 or +1. The largest-magnitude component
  /// of a nonoverlapping expansion determines the sign.
  int sign() const {
    if (Components.empty())
      return 0;
    double Top = Components.back();
    return Top > 0.0 ? 1 : (Top < 0.0 ? -1 : 0);
  }

  /// True if the exact value is zero.
  bool isZero() const { return sign() == 0; }

  /// Nearest-double estimate of the value (sum from small to large).
  double estimate() const {
    double S = 0.0;
    for (double C : Components)
      S += C;
    return S;
  }

  /// Most significant component (0 if empty); exact value lies within
  /// one ulp of it relative to itself.
  double leading() const {
    return Components.empty() ? 0.0 : Components.back();
  }

  size_t size() const { return Components.size(); }

  const std::vector<double> &components() const { return Components; }

private:
  std::vector<double> Components;
};

/// Exact sign of (Q * Y - X) for double-double Q, Y, X. Switches to
/// round-to-nearest internally. Used to verify directed division results.
inline int ddResidualSign(const Dd &Q, const Dd &Y, const Dd &X) {
  RoundNearestScope RN;
  Expansion E;
  E.addProduct(Q.H, Y.H);
  E.addProduct(Q.H, Y.L);
  E.addProduct(Q.L, Y.H);
  E.addProduct(Q.L, Y.L);
  E.add(-X.H);
  E.add(-X.L);
  return E.sign();
}

} // namespace igen

#endif // IGEN_INTERVAL_EXPANSION_H
