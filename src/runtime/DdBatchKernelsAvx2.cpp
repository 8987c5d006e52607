//===- DdBatchKernelsAvx2.cpp - AVX2+FMA batched ddi kernels --------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// AVX2+FMA tier of the batched double-double interval kernels: one ddi
// per __m256d through the DdSimd.h algorithms (vectorized DD_Add /
// sign-case multiply). Results are bit-identical to the scalar
// tier: the vector sequences mirror the scalar error-free
// transformations lane for lane and every screen hit falls back to the
// scalar routine.
//
// The DdSimd register layout interleaves the endpoints' high and low
// words ([negLo.H | hi.H | negLo.L | hi.L]) while DdInterval memory
// order is (negLo.H, negLo.L, hi.H, hi.L); the 0xD8 permute (swap the
// two middle 64-bit lanes) converts between them and is its own
// inverse. Compiled with -march=x86-64 -mavx2 -mfma.
//
//===----------------------------------------------------------------------===//

#include "interval/DdSimd.h"
#include "runtime/DdBatch.h"

namespace igen::runtime {

namespace {

inline DdIntervalAvx loadDd(const DdInterval *P) {
  return DdIntervalAvx(
      _mm256_permute4x64_pd(_mm256_loadu_pd(&P->NegLo.H), 0xD8));
}

inline void storeDd(DdInterval *P, const DdIntervalAvx &V) {
  _mm256_storeu_pd(&P->NegLo.H, _mm256_permute4x64_pd(V.V, 0xD8));
}

void addK(DdInterval *Dst, const DdInterval *X, const DdInterval *Y,
          size_t N) {
  for (size_t I = 0; I < N; ++I)
    storeDd(Dst + I, ddiAdd(loadDd(X + I), loadDd(Y + I)));
}

void subK(DdInterval *Dst, const DdInterval *X, const DdInterval *Y,
          size_t N) {
  for (size_t I = 0; I < N; ++I)
    storeDd(Dst + I, ddiSub(loadDd(X + I), loadDd(Y + I)));
}

void mulK(DdInterval *Dst, const DdInterval *X, const DdInterval *Y,
          size_t N) {
  for (size_t I = 0; I < N; ++I)
    storeDd(Dst + I, ddiMul(loadDd(X + I), loadDd(Y + I)));
}

void fmaK(DdInterval *Dst, const DdInterval *A, const DdInterval *B,
          const DdInterval *C, size_t N) {
  for (size_t I = 0; I < N; ++I)
    storeDd(Dst + I,
            ddiAdd(ddiMul(loadDd(A + I), loadDd(B + I)), loadDd(C + I)));
}

} // namespace

extern const DdKernelTable kDdKernelsAvx2; // external linkage
constinit const DdKernelTable kDdKernelsAvx2 = {"dd-avx2", addK, subK, mulK,
                                                fmaK};

} // namespace igen::runtime
