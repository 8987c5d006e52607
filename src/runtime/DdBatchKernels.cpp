//===- DdBatchKernels.cpp - Scalar batched ddi kernels --------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The portable tier of the batched double-double interval kernels: the
// DdLoops template over the scalar backend (one DdInterval per register),
// plus the fixed-order reductions shared by every dispatch tier. Compiled
// with -march=x86-64 so the emitted code (and the reduction bit patterns)
// never depend on the build host. FastOps::fma-based double-double
// primitives are correctly rounded regardless of -march.
//
//===----------------------------------------------------------------------===//

#include "runtime/DdBatch.h"

namespace igen::runtime {

extern const DdKernelTable kDdKernelsScalar; // external linkage
constinit const DdKernelTable kDdKernelsScalar =
    detail::DdLoops<DdInterval>::table("dd-scalar");

//===----------------------------------------------------------------------===//
// Reductions (one fixed routine for every ISA tier)
//===----------------------------------------------------------------------===//

namespace {

// Flattened like the DdLoops, so the reductions run this TU's code.
[[gnu::flatten]] DdInterval sumLoop(const DdInterval *X, size_t N) {
  DdInterval Acc = DdInterval::fromPoint(0.0);
  for (size_t I = 0; I < N; ++I)
    Acc = ddiAdd(Acc, X[I]);
  return Acc;
}

[[gnu::flatten]] DdInterval dotLoop(const DdInterval *X, const DdInterval *Y,
                                    size_t N) {
  DdInterval Acc = DdInterval::fromPoint(0.0);
  for (size_t I = 0; I < N; ++I)
    Acc = ddiAdd(Acc, ddiMul(X[I], Y[I]));
  return Acc;
}

} // namespace

DdInterval ddarr_sum(const DdInterval *X, size_t N) {
  RoundUpwardScope Up;
  if (__builtin_expect(harden::checkFenvUpward("ddarr_sum"), 0))
    return DdInterval::entire();
  std::vector<DdInterval> SC;
  return sumLoop(detail::maybeCorrupt(X, N, SC), N);
}

DdInterval ddarr_dot(const DdInterval *X, const DdInterval *Y, size_t N) {
  RoundUpwardScope Up;
  if (__builtin_expect(harden::checkFenvUpward("ddarr_dot"), 0))
    return DdInterval::entire();
  std::vector<DdInterval> SC;
  return dotLoop(detail::maybeCorrupt(X, N, SC), Y, N);
}

} // namespace igen::runtime
