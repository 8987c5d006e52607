//===- DdBatch.h - Batched double-double interval runtime ------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The batched ddi (double-double interval) tier: contiguous-array
/// kernels over DdInterval values, the escalation targets of the
/// adaptive-precision work. Every elementwise entry runs the f64i
/// runtime's entry path (BatchKernels.h, detail::runBatch) over
/// DdInterval: same rounding contract (entry points establish upward
/// rounding themselves), same fenv sentinel with whole-batch poisoning to
/// [-inf, +inf] endpoints, same aliasing rules (full aliasing allowed,
/// partial overlap asserts in debug and is copied to scratch in release),
/// same IGEN_FAULT operand-corruption hooks.
///
/// Dispatch: only two kernel tiers exist (scalar and AVX2+FMA — the
/// DdSimd layout wants 256-bit FMA); ddKernels() maps every Isa onto the
/// best available one. Both tiers instantiate one loop template
/// (detail::DdLoops) over a register backend (DdInterval.h's DdRegs), and
/// both backends run the same op bodies, so the tiers agree bit for bit.
///
/// Reductions (ddarr_sum/ddarr_dot) accumulate sequentially in index
/// order with ddiAdd — one fixed routine compiled in the scalar TU, so
/// the result bits never depend on the ISA selection.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_RUNTIME_DDBATCH_H
#define IGEN_RUNTIME_DDBATCH_H

#include "interval/DdInterval.h"
#include "runtime/BatchKernels.h"
#include "runtime/CpuDispatch.h"

#include <cstddef>

namespace igen::runtime {

static_assert(sizeof(DdInterval) == 4 * sizeof(double));

namespace detail {

/// The elementwise ddarr_* loops over the register backend of \p R: each
/// element is loaded into a register, computed by the one op body and
/// stored back. DdBatchKernels.cpp instantiates it for DdInterval,
/// DdBatchKernelsAvx2.cpp for DdIntervalAvx. Every loop is flattened, so
/// each kernel TU runs the op bodies compiled with its own -march flags
/// rather than an out-of-line copy the linker may take from a TU built
/// for another ISA.
template <class R> struct DdLoops {
  using Regs = DdRegs<R>;
  [[gnu::flatten]] static void add(DdInterval *Dst, const DdInterval *X,
                                   const DdInterval *Y, size_t N) {
    for (size_t I = 0; I < N; ++I)
      Regs::store(Dst + I, ddiAdd(Regs::load(X + I), Regs::load(Y + I)));
  }
  [[gnu::flatten]] static void sub(DdInterval *Dst, const DdInterval *X,
                                   const DdInterval *Y, size_t N) {
    for (size_t I = 0; I < N; ++I)
      Regs::store(Dst + I, ddiSub(Regs::load(X + I), Regs::load(Y + I)));
  }
  [[gnu::flatten]] static void mul(DdInterval *Dst, const DdInterval *X,
                                   const DdInterval *Y, size_t N) {
    for (size_t I = 0; I < N; ++I)
      Regs::store(Dst + I, ddiMul(Regs::load(X + I), Regs::load(Y + I)));
  }
  [[gnu::flatten]] static void fma(DdInterval *Dst, const DdInterval *A,
                                   const DdInterval *B, const DdInterval *C,
                                   size_t N) {
    for (size_t I = 0; I < N; ++I)
      Regs::store(Dst + I, ddiAdd(ddiMul(Regs::load(A + I), Regs::load(B + I)),
                                  Regs::load(C + I)));
  }
  static constexpr DdKernelTable table(const char *Name) {
    return {Name, add, sub, mul, fma};
  }
};

} // namespace detail

//===----------------------------------------------------------------------===//
// Elementwise kernels (CPU-dispatched)
//===----------------------------------------------------------------------===//

/// Dst[i] = X[i] + Y[i].
inline void ddarr_add(DdInterval *Dst, const DdInterval *X,
                      const DdInterval *Y, size_t N) {
  detail::runBatch("ddarr_add", Dst, {X, Y}, N,
                   [&](auto... P) { ddKernels().Add(Dst, P..., N); });
}

/// Dst[i] = X[i] - Y[i].
inline void ddarr_sub(DdInterval *Dst, const DdInterval *X,
                      const DdInterval *Y, size_t N) {
  detail::runBatch("ddarr_sub", Dst, {X, Y}, N,
                   [&](auto... P) { ddKernels().Sub(Dst, P..., N); });
}

/// Dst[i] = X[i] * Y[i].
inline void ddarr_mul(DdInterval *Dst, const DdInterval *X,
                      const DdInterval *Y, size_t N) {
  detail::runBatch("ddarr_mul", Dst, {X, Y}, N,
                   [&](auto... P) { ddKernels().Mul(Dst, P..., N); });
}

/// Dst[i] = A[i] * B[i] + C[i] (composed ddiAdd(ddiMul) on every tier;
/// the dd error-free transformations already carry products exactly).
inline void ddarr_fma(DdInterval *Dst, const DdInterval *A,
                      const DdInterval *B, const DdInterval *C, size_t N) {
  detail::runBatch("ddarr_fma", Dst, {A, B, C}, N,
                   [&](auto... P) { ddKernels().Fma(Dst, P..., N); });
}

//===----------------------------------------------------------------------===//
// Sound reductions (fixed sequential order; ISA-independent)
//===----------------------------------------------------------------------===//

/// Sum of X[0..N-1], accumulated left to right with ddiAdd (the ~106-bit
/// endpoints make interleaved chains unnecessary for accuracy; a single
/// chain keeps the order trivially fixed). N == 0 yields [0, 0].
DdInterval ddarr_sum(const DdInterval *X, size_t N);

/// Dot product sum(X[i] * Y[i]), products by ddiMul, accumulation as in
/// ddarr_sum.
DdInterval ddarr_dot(const DdInterval *X, const DdInterval *Y, size_t N);

} // namespace igen::runtime

#endif // IGEN_RUNTIME_DDBATCH_H
