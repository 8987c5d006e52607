//===- ElemCores.h - Width-generic batched elementary kernels ---*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lane-parallel transcriptions of the PolyKernels.h exp/log point cores,
/// generic over the register width: V is the F64Regs primitive set of
/// interval/IntervalSimd.h and IntervalVector.h (128-, 256- or 512-bit),
/// the one the interval pack ops run on. Every
/// vector operation corresponds 1:1 to a scalar operation of the core
/// (plain mul/add/sub/div, NO FMA even on tiers that have it, no
/// reassociation), so under the same ambient upward rounding every lane is
/// bit-identical to iExpFast/iLogFast regardless of register width — the
/// dispatch tiers agree to the last bit.
///
/// The integer parts of the cores use the same tricks as the scalar code:
/// the exponent k drops out of the shifter bit pattern
/// (bits(U) - bits(Shifter)), the 2^k scale is built by integer add+shift
/// (exact on the fast domain), and the int64 -> double conversion of the
/// log exponent goes through the shifter bias (exact for |e| <= 1024).
///
/// Intervals whose endpoints fail the vector fast-domain screen (NaN
/// fails every compare) fall back per element to the scalar kernel, which
/// re-checks and widens via libm — identical to what the scalar tier
/// would produce for that element.
///
/// The primitives are plain double/int64 lane operations; predicates
/// return bool over all lanes so mask-register ISAs (AVX-512) and
/// movemask ISAs share one kernel body. The masked tail of the 512-bit
/// set fills its dead lanes with the benign [1, 1], inside both fast
/// domains.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_RUNTIME_ELEMCORES_H
#define IGEN_RUNTIME_ELEMCORES_H

#include "interval/IntervalSimd.h"
#include "interval/PolyKernels.h"
#if defined(__AVX__)
#include "interval/IntervalVector.h"
#endif

#include <bit>
#include <cstddef>
#include <cstdint>
#include <immintrin.h>
#include <limits>

namespace igen::runtime::elem {

//===----------------------------------------------------------------------===//
// The cores, operation for operation
//===----------------------------------------------------------------------===//

/// Every endpoint lane of expCore (PolyKernels.h).
template <class V> inline typename V::D expCoreW(typename V::D X) {
  const typename V::D Shift = V::set1(poly::Shifter);
  typename V::D P = V::mul(X, V::set1(poly::InvLn2));
  typename V::D U = V::add(V::sub(P, V::set1(0.5)), Shift);
  typename V::D Kd = V::sub(U, Shift);
  typename V::I K = V::subI(
      V::castDI(U), V::set1i(std::bit_cast<int64_t>(poly::Shifter)));
  typename V::D R0 = V::sub(X, V::mul(Kd, V::set1(poly::Ln2Hi)));
  typename V::D R = V::sub(R0, V::mul(Kd, V::set1(poly::Ln2Lo)));
  typename V::D Q = V::set1(poly::ExpC[11]);
  for (int I = 10; I >= 0; --I)
    Q = V::add(V::set1(poly::ExpC[I]), V::mul(R, Q));
  typename V::D Z = V::mul(R, R);
  typename V::D Y = V::add(V::set1(1.0), V::add(R, V::mul(Z, Q)));
  typename V::I ScaleBits =
      V::template slli<52>(V::addI(K, V::set1i(1023)));
  return V::mul(Y, V::castID(ScaleBits));
}

/// Every endpoint lane of logCore. The conditional sqrt(2) normalization
/// becomes a bitwise select (the discarded halved value is exact, so
/// selection preserves bit-identity with the scalar branch).
template <class V> inline typename V::D logCoreW(typename V::D X) {
  typename V::I Bits = V::castDI(X);
  // Positive normal input: logical shift == arithmetic shift.
  typename V::I E2 =
      V::subI(V::template srli<52>(Bits), V::set1i(1023));
  typename V::D M = V::castID(
      V::orI(V::andI(Bits, V::set1i(0xFFFFFFFFFFFFFll)),
             V::set1i(0x3FF0000000000000ll)));
  typename V::D Gt = V::cmpGt(M, V::set1(poly::Sqrt2));
  typename V::D MHalf = V::mul(M, V::set1(0.5)); // exact
  M = V::select(Gt, MHalf, M);
  E2 = V::subI(E2, V::castDI(Gt)); // true lane is -1
  // int64 -> double through the shifter bias; exact for |E2| <= 1024, so
  // identical to the scalar static_cast.
  typename V::I EdBits =
      V::addI(E2, V::set1i(std::bit_cast<int64_t>(poly::Shifter)));
  typename V::D Ed = V::sub(V::castID(EdBits), V::set1(poly::Shifter));
  typename V::D A = V::sub(M, V::set1(1.0));
  typename V::D B = V::add(M, V::set1(1.0));
  typename V::D S = V::div(A, B);
  typename V::D Z = V::mul(S, S);
  typename V::D Q = V::set1(poly::LogC[10]);
  for (int I = 9; I >= 0; --I)
    Q = V::add(V::set1(poly::LogC[I]), V::mul(Z, Q));
  typename V::D T = V::mul(V::mul(S, Z), Q);
  typename V::D S2 = V::add(S, S);
  typename V::D VHi = V::mul(Ed, V::set1(poly::Ln2Hi));
  typename V::D VLo = V::mul(Ed, V::set1(poly::Ln2Lo));
  return V::add(V::add(VHi, S2), V::add(T, VLo));
}

//===----------------------------------------------------------------------===//
// The kernel loops
//===----------------------------------------------------------------------===//

template <class V>
inline void expKernel(Interval *Dst, const Interval *X, size_t N) {
  const typename V::D SignLo = V::signLo();
  const typename V::D Abs = V::absMask();
  const typename V::D Limit = V::set1(poly::ExpFastLimit);
  const typename V::D Eps = V::set1(poly::ExpEpsRel);
  constexpr size_t P = V::kIntervals;
  size_t I = 0;
  for (; I + P <= N; I += P) {
    typename V::D Vv = V::load(&X[I]);
    typename V::D E = V::xor_(Vv, SignLo); // endpoint pairs (lo, hi)
    if (!V::allLe(V::and_(E, Abs), Limit)) {
      for (size_t J = 0; J < P; ++J)
        Dst[I + J] = iExpFast(X[I + J]); // re-checks; libm-widened
      continue;
    }
    typename V::D Y = expCoreW<V>(E);  // all lanes positive
    typename V::D Mg = V::mul(Y, Eps); // RU margins
    V::store(&Dst[I], V::add(V::xor_(Y, SignLo), Mg));
  }
  if constexpr (V::kMaskedTail) {
    if (I < N) {
      size_t K = N - I;
      typename V::D E = V::xor_(V::maskLoad(&X[I], K), SignLo);
      if (V::allLe(V::and_(E, Abs), Limit)) {
        typename V::D Y = expCoreW<V>(E);
        typename V::D Mg = V::mul(Y, Eps);
        V::maskStore(&Dst[I], K, V::add(V::xor_(Y, SignLo), Mg));
        return;
      }
    }
  }
  for (; I < N; ++I)
    Dst[I] = iExpFast(X[I]);
}

template <class V>
inline void logKernel(Interval *Dst, const Interval *X, size_t N) {
  const typename V::D SignLo = V::signLo();
  const typename V::D Abs = V::absMask();
  const typename V::D MinN = V::set1(std::numeric_limits<double>::min());
  const typename V::D MaxF = V::set1(std::numeric_limits<double>::max());
  const typename V::D Eps = V::set1(poly::LogEpsRel);
  constexpr size_t P = V::kIntervals;
  size_t I = 0;
  for (; I + P <= N; I += P) {
    typename V::D Vv = V::load(&X[I]);
    typename V::D E = V::xor_(Vv, SignLo);
    // All endpoints positive normal finite (stricter than the scalar
    // lo >= MinN && hi <= MaxF check, which these imply for lo <= hi).
    if (!V::allInRange(E, MinN, MaxF)) {
      for (size_t J = 0; J < P; ++J)
        Dst[I + J] = iLogFast(X[I + J]);
      continue;
    }
    typename V::D Y = logCoreW<V>(E);
    typename V::D Mg = V::mul(V::and_(Y, Abs), Eps);
    V::store(&Dst[I], V::add(V::xor_(Y, SignLo), Mg));
  }
  if constexpr (V::kMaskedTail) {
    if (I < N) {
      size_t K = N - I;
      typename V::D E = V::xor_(V::maskLoad(&X[I], K), SignLo);
      if (V::allInRange(E, MinN, MaxF)) {
        typename V::D Y = logCoreW<V>(E);
        typename V::D Mg = V::mul(V::and_(Y, Abs), Eps);
        V::maskStore(&Dst[I], K, V::add(V::xor_(Y, SignLo), Mg));
        return;
      }
    }
  }
  for (; I < N; ++I)
    Dst[I] = iLogFast(X[I]);
}

} // namespace igen::runtime::elem

#endif // IGEN_RUNTIME_ELEMCORES_H
