//===- BatchElemSse2.cpp - SSE2 batched elementary kernels ----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// SSE2 tier of the batched exp/log kernels: the width-generic cores of
// runtime/ElemCores.h instantiated over the 128-bit backend (one interval
// per __m128d, lane 0 the negated lower endpoint, lane 1 the upper).
// Compiled with -march=x86-64.
//
//===----------------------------------------------------------------------===//

#include "runtime/BatchElem.h"
#include "runtime/ElemCores.h"

namespace igen::runtime::elem {

void expSse2(Interval *Dst, const Interval *X, size_t N) {
  expKernel<F64Regs<IntervalSse>>(Dst, X, N);
}

void logSse2(Interval *Dst, const Interval *X, size_t N) {
  logKernel<F64Regs<IntervalSse>>(Dst, X, N);
}

} // namespace igen::runtime::elem
