//===- BatchElemAvx512.cpp - AVX-512 batched elementary kernels -----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// AVX-512 tier of the batched exp/log kernels: the width-generic cores of
// runtime/ElemCores.h instantiated over the 512-bit backend (four
// intervals per __m512d), with a masked-lane tail instead of a scalar
// remainder loop. Compiled with -mavx512f -mavx512dq -mavx512vl -mfma;
// FMA is deliberately NOT used inside the cores.
//
//===----------------------------------------------------------------------===//

#include "runtime/BatchElem.h"
#include "runtime/ElemCores.h"

namespace igen::runtime::elem {

void expAvx512(Interval *Dst, const Interval *X, size_t N) {
  expKernel<F64Regs<IntervalX4>>(Dst, X, N);
}

void logAvx512(Interval *Dst, const Interval *X, size_t N) {
  logKernel<F64Regs<IntervalX4>>(Dst, X, N);
}

} // namespace igen::runtime::elem
