//===- BatchElem.h - Batched elementary-function kernels --------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal declarations of the per-ISA batched elementary-function
/// kernels (interval/PolyKernels.h cores) wired into the KernelTable of
/// each dispatch tier. The SIMD exp/log kernels evaluate both interval
/// endpoints in parallel lanes with the *exact* operation sequence of
/// the scalar cores, so results are bit-identical across tiers.
///
/// sin/cos stay scalar in every tier: the range analysis (sectionRangeUp
/// plus the modular peak/trough test) is control-flow heavy and the
/// polynomial work per endpoint is already fesetround-free, so a plain
/// loop over iSinFast/iCosFast is shared by all tables. The loop bodies
/// are out-of-line calls into igen_interval, so the shared translation
/// unit emits no tier-specific instructions.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_RUNTIME_BATCHELEM_H
#define IGEN_RUNTIME_BATCHELEM_H

#include "interval/Interval.h"

#include <cstddef>

namespace igen::runtime::elem {

// Portable tier (BatchElemScalar.cpp): plain loops over the scalar fast
// kernels. Also the bit-level reference for the SIMD tiers, and the
// shared sin/cos implementation for every table.
void expScalar(Interval *Dst, const Interval *X, size_t N);
void logScalar(Interval *Dst, const Interval *X, size_t N);
void sinScalar(Interval *Dst, const Interval *X, size_t N);
void cosScalar(Interval *Dst, const Interval *X, size_t N);

// SSE2 tier (BatchElemSse2.cpp, -march=x86-64): one interval per
// __m128d, both endpoints per iteration. Also used by the AVX table —
// the elementary cores gain nothing from VEX encoding alone.
void expSse2(Interval *Dst, const Interval *X, size_t N);
void logSse2(Interval *Dst, const Interval *X, size_t N);

// AVX2 tier (BatchElemAvx2.cpp, -mavx2 -mfma): two intervals per
// __m256d. FMA is deliberately NOT used inside the cores (it would
// change the bits versus the other tiers); the flag only matches the
// TU's tier.
void expAvx2(Interval *Dst, const Interval *X, size_t N);
void logAvx2(Interval *Dst, const Interval *X, size_t N);

// AVX-512 tier (BatchElemAvx512.cpp, -mavx512f -mavx512dq -mavx512vl):
// four intervals per __m512d, with a masked-lane tail (dead lanes carry
// a benign [1, 1] inside every fast domain) instead of a scalar remainder
// loop. Same no-FMA operation sequence as every other tier.
void expAvx512(Interval *Dst, const Interval *X, size_t N);
void logAvx512(Interval *Dst, const Interval *X, size_t N);

} // namespace igen::runtime::elem

#endif // IGEN_RUNTIME_BATCHELEM_H
