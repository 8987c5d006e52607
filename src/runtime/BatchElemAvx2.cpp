//===- BatchElemAvx2.cpp - AVX2 batched elementary kernels ----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// AVX2 tier of the batched exp/log kernels: the width-generic cores of
// runtime/ElemCores.h instantiated over the 256-bit backend (two
// intervals per __m256d). FMA is deliberately NOT used inside the cores
// (it would change the bits versus the other tiers); the -mfma flag only
// matches the TU's dispatch tier. Compiled with -mavx2 -mfma.
//
//===----------------------------------------------------------------------===//

#include "runtime/BatchElem.h"
#include "runtime/ElemCores.h"

namespace igen::runtime::elem {

void expAvx2(Interval *Dst, const Interval *X, size_t N) {
  expKernel<F64Regs<IntervalX2>>(Dst, X, N);
}

void logAvx2(Interval *Dst, const Interval *X, size_t N) {
  logKernel<F64Regs<IntervalX2>>(Dst, X, N);
}

} // namespace igen::runtime::elem
