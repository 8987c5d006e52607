//===- DdBatchKernelsAvx2.cpp - AVX2+FMA batched ddi kernels --------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// AVX2+FMA tier of the batched double-double interval kernels: the
// DdLoops template over the AVX backend (DdSimd.h, one ddi per __m256d,
// loaded and stored through its 0xD8 permute). The op bodies are the
// scalar tier's, so results are bit-identical to it. Compiled with
// -march=x86-64 -mavx2 -mfma.
//
//===----------------------------------------------------------------------===//

#include "interval/DdSimd.h"
#include "runtime/DdBatch.h"

namespace igen::runtime {

extern const DdKernelTable kDdKernelsAvx2; // external linkage
constinit const DdKernelTable kDdKernelsAvx2 =
    detail::DdLoops<DdIntervalAvx>::table("dd-avx2");

} // namespace igen::runtime
