//===- BatchKernelsImpl.h - Lane-generic batched kernel bodies --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel templates behind every per-ISA batched-kernel TU. Each
/// kernel is one loop skeleton instantiated over a Lane.h backend:
///
///   [optional NT peel]  128-bit prefix until Dst reaches kNtAlign
///   [unrolled body]     kUnroll packs per iteration
///   [pack body]         one pack per iteration
///   [tail]              masked pack (kMaskedTail) or 128-bit loop
///
/// Peels and tails run the tier's 128-bit op, which computes an interval
/// exactly as a lane pair of the wider pack does, so a batch is
/// bit-identical no matter how it is carved into peel, packs, and tail.
/// The multiply starts with a group-screened loop (kGroupMul): four pack
/// pairs share one bitwise-OR special-value screen and skip the per-pack
/// check.
///
/// A TU instantiates makeTable<Backend>(...) and is done. Everything here
/// is static, and every op is flattened into its own TU: a tier calls no
/// weak definition the linker may take from a TU built for another ISA.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_RUNTIME_BATCHKERNELSIMPL_H
#define IGEN_RUNTIME_BATCHKERNELSIMPL_H

#include "runtime/BatchElem.h"
#include "runtime/CpuDispatch.h"
#include "runtime/Lane.h"

#include <cstdint>
#include <type_traits>

namespace igen::runtime::impl {

//===----------------------------------------------------------------------===//
// The tier ops
//===----------------------------------------------------------------------===//
//
// The SIMD tiers run the pack ops, fma fused where the TU has FMA; each
// op is flattened into the tier's TU. The scalar tier is the reference:
// the scalar ops, fma composed (even where the TU could fuse), left to
// the compiler's inlining, which vectorizes its loops.

template <class P> [[gnu::flatten]] static inline P addOp(const P &X,
                                                         const P &Y) {
  return pack::add(X, Y);
}

template <class P> [[gnu::flatten]] static inline P subOp(const P &X,
                                                         const P &Y) {
  return pack::sub(X, Y);
}

template <class P> [[gnu::flatten]] static inline P mulOp(const P &X,
                                                         const P &Y) {
  return pack::mul(X, Y);
}

template <class P>
[[gnu::flatten]] static inline P fmaOp(const P &A, const P &B, const P &C) {
  return pack::fma(A, B, C);
}

/// Division through the sign-specialized ops exactly when their
/// preconditions hold (NaN endpoints fail both compares): iDivP for a
/// strictly positive divisor, iDivN for a strictly negative one, the
/// generic iDiv otherwise. A pack whose divisors are not all of one sign
/// is routed interval by interval.
template <class P>
[[gnu::flatten]] static inline P divOp(const P &X, const P &Y) {
  using R = F64Regs<P>;
  assertRoundUpward();
  typename R::Mask Neg = R::ltMask(Y.V, R::zero());
  if (R::everyLo(Neg)) // -lo < 0, i.e. lo > 0
    return pack::divP(X, Y);
  if (R::everyHi(Neg)) // hi < 0
    return pack::divN(X, Y);
  return igen::detail::fallback<P>(
      [](const IntervalSse &A, const IntervalSse &B) { return divOp(A, B); },
      [](const IntervalSse &A, const IntervalSse &B) {
        return igen::detail::viaScalar<iDiv>(A, B);
      },
      X, Y);
}

template <class P> [[gnu::flatten]] static inline P sqrtOp(const P &X) {
  return pack::sqrt(X);
}

static inline Interval addOp(const Interval &X, const Interval &Y) {
  return iAdd(X, Y);
}
static inline Interval subOp(const Interval &X, const Interval &Y) {
  return iSub(X, Y);
}
static inline Interval mulOp(const Interval &X, const Interval &Y) {
  return iMul(X, Y);
}
static inline Interval fmaOp(const Interval &A, const Interval &B,
                             const Interval &C) {
  return iAdd(iMul(A, B), C);
}
static inline Interval divOp(const Interval &X, const Interval &Y) {
  if (-Y.NegLo > 0.0)
    return iDivP(X, Y);
  if (Y.Hi < 0.0)
    return iDivN(X, Y);
  return iDiv(X, Y);
}
static inline Interval sqrtOp(const Interval &X) { return iSqrt(X); }

//===----------------------------------------------------------------------===//
// The loops
//===----------------------------------------------------------------------===//

/// Decides the store flavor for a batch. When streaming pays off and Dst
/// can be aligned to L::kNtAlign by peeling at most a few leading
/// elements (Interval is 16 bytes), returns true and sets \p Peel;
/// otherwise plain stores.
template <class L>
inline bool useNtStores(const Interval *Dst, size_t N, size_t &Peel) {
  Peel = 0;
  uintptr_t A = reinterpret_cast<uintptr_t>(Dst);
  if (N < L::kNtMinBatch || A % 16 != 0)
    return false;
  Peel = (A % L::kNtAlign) ? (L::kNtAlign - A % L::kNtAlign) / 16 : 0;
  return true;
}

/// The group-screened multiply (kGroupMul): four pack pairs share one
/// bitwise-OR special-value screen and skip the per-pack check. Returns
/// the number of elements stored.
template <class L, bool NT, class OpFn>
static inline size_t mulGroups(Interval *Dst, size_t N, OpFn Op,
                               const Interval *X, const Interval *Y) {
  constexpr size_t P = L::kIntervals;
  size_t I = 0;
  for (; I + 4 * P <= N; I += 4 * P) {
    L::prefetchMul(X, Y, I);
    auto X0 = L::load(X + I), Y0 = L::load(Y + I);
    auto X1 = L::load(X + I + P), Y1 = L::load(Y + I + P);
    auto X2 = L::load(X + I + 2 * P), Y2 = L::load(Y + I + 2 * P);
    auto X3 = L::load(X + I + 3 * P), Y3 = L::load(Y + I + 3 * P);
    if (__builtin_expect(L::anySpecial(X0, Y0, X1, Y1, X2, Y2, X3, Y3), 0)) {
      L::template store<NT>(Dst + I, Op(X0, Y0));
      L::template store<NT>(Dst + I + P, Op(X1, Y1));
      L::template store<NT>(Dst + I + 2 * P, Op(X2, Y2));
      L::template store<NT>(Dst + I + 3 * P, Op(X3, Y3));
      continue;
    }
    L::template store<NT>(Dst + I, pack::mulUnchecked(X0, Y0));
    L::template store<NT>(Dst + I + P, pack::mulUnchecked(X1, Y1));
    L::template store<NT>(Dst + I + 2 * P, pack::mulUnchecked(X2, Y2));
    L::template store<NT>(Dst + I + 3 * P, pack::mulUnchecked(X3, Y3));
  }
  return I;
}

/// Elementwise body: Op(S[i]...) -> Dst[i], one to three sources; the
/// multiply (Group) starts with its group-screened loop where the backend
/// has one.
template <class L, bool NT, bool Group, class OpFn, class... Src>
static inline void body(Interval *Dst, size_t N, OpFn Op, const Src *...S) {
  constexpr size_t P = L::kIntervals;
  size_t I = 0;
  if constexpr (Group && L::kGroupMul)
    I = mulGroups<L, NT>(Dst, N, Op, S...);
  if constexpr (L::kUnroll >= 2) {
    for (; I + 2 * P <= N; I += 2 * P) {
      L::template store<NT>(Dst + I, Op(L::load(S + I)...));
      L::template store<NT>(Dst + I + P, Op(L::load(S + I + P)...));
    }
  }
  for (; I + P <= N; I += P)
    L::template store<NT>(Dst + I, Op(L::load(S + I)...));
  if constexpr (L::kMaskedTail) {
    if (I < N)
      L::maskStore(Dst + I, N - I, Op(L::maskLoad(S + I, N - I)...));
  } else if constexpr (P > 1) {
    body<typename L::Elem, false, false>(Dst + I, N - I, Op, (S + I)...);
  }
}

/// Runs \p Op over a batch: after a 128-bit peel with non-temporal stores
/// when streaming pays off, with plain stores otherwise.
template <class L, bool Group = false, class OpFn, class... Src>
static inline void run(Interval *Dst, size_t N, OpFn Op, const Src *...S) {
  if constexpr (L::kNtStores) {
    size_t Peel;
    if (useNtStores<L>(Dst, N, Peel)) {
      body<typename L::Elem, false, false>(Dst, Peel, Op, S...);
      body<L, true, Group>(Dst + Peel, N - Peel, Op, (S + Peel)...);
      L::storeFence();
      return;
    }
  }
  body<L, false, Group>(Dst, N, Op, S...);
}

//===----------------------------------------------------------------------===//
// The kernel entry points
//===----------------------------------------------------------------------===//

template <class L>
static void addK(Interval *Dst, const Interval *X, const Interval *Y,
                 size_t N) {
  run<L>(Dst, N, [](const auto &A, const auto &B) { return addOp(A, B); },
         X, Y);
}

template <class L>
static void subK(Interval *Dst, const Interval *X, const Interval *Y,
                 size_t N) {
  run<L>(Dst, N, [](const auto &A, const auto &B) { return subOp(A, B); },
         X, Y);
}

template <class L>
static void mulK(Interval *Dst, const Interval *X, const Interval *Y,
                 size_t N) {
  run<L, true>(Dst, N,
               [](const auto &A, const auto &B) { return mulOp(A, B); }, X,
               Y);
}

template <class L>
static void fmaK(Interval *Dst, const Interval *A, const Interval *B,
                 const Interval *C, size_t N) {
  run<L>(
      Dst, N,
      [](const auto &X, const auto &Y, const auto &Z) {
        return fmaOp(X, Y, Z);
      },
      A, B, C);
}

template <class L>
static void scaleK(Interval *Dst, const Interval *X, Interval S, size_t N) {
  const typename L::Pack SV = L::broadcast(S);
  const typename L::Elem::Pack SE = L::Elem::broadcast(S);
  run<L>(
      Dst, N,
      [&SV, &SE](const auto &A) {
        if constexpr (std::is_same_v<std::decay_t<decltype(A)>,
                                     typename L::Pack>)
          return mulOp(A, SV);
        else
          return mulOp(A, SE);
      },
      X);
}

template <class L>
static void divK(Interval *Dst, const Interval *X, const Interval *Y,
                 size_t N) {
  run<L>(Dst, N, [](const auto &A, const auto &B) { return divOp(A, B); },
         X, Y);
}

template <class L>
static void sqrtK(Interval *Dst, const Interval *X, size_t N) {
  run<L>(Dst, N, [](const auto &A) { return sqrtOp(A); }, X);
}

/// One fully populated dispatch row for a backend. The elementary
/// kernels keep their per-ISA entry points (ElemCores.h) because their
/// structure is screen-heavy rather than loop-shaped.
template <class L>
constexpr KernelTable makeTable(const char *Name, ElemFn Exp, ElemFn Log,
                                ElemFn Sin, ElemFn Cos) {
  return KernelTable{Name,     addK<L>, subK<L>, mulK<L>,
                     fmaK<L>,  scaleK<L>, divK<L>, sqrtK<L>,
                     Exp,      Log,     Sin,     Cos};
}

} // namespace igen::runtime::impl

#endif // IGEN_RUNTIME_BATCHKERNELSIMPL_H
