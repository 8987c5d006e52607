//===- CpuDispatch.h - Runtime ISA selection for batched kernels -*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime CPU dispatch for the batched interval array kernels. Each ISA
/// tier (scalar, SSE2, AVX, AVX2+FMA, AVX-512) provides one KernelTable,
/// compiled in its own translation unit with the matching -march flags; the
/// dispatcher picks the best supported table at first use via CPUID
/// (__builtin_cpu_supports).
///
/// The selection can be overridden two ways:
///  * environment: IGEN_ISA=scalar|sse2|avx|avx2|avx512, read through the
///    knob table (support/Knobs.h) when the cached selection is empty;
///    unsupported or unknown values fall back to auto-detection with a
///    warning, and
///  * programmatically: forceIsa() / clearForcedIsa(), used by the tests
///    and benchmarks to exercise every tier in one process.
///
/// This header deliberately includes no intrinsics so that per-ISA kernel
/// translation units can include it under any -march setting.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_RUNTIME_CPUDISPATCH_H
#define IGEN_RUNTIME_CPUDISPATCH_H

#include "interval/Interval.h"

#include <cstddef>
#include <string>

namespace igen {
struct DdInterval; // interval/DdInterval.h
} // namespace igen

namespace igen::runtime {

/// ISA tiers, ordered from most portable to most capable. Avx512 requires
/// AVX-512 F+DQ+VL and handles batch tails with masked lanes instead of a
/// scalar remainder loop.
enum class Isa { Scalar = 0, Sse2 = 1, Avx = 2, Avx2Fma = 3, Avx512 = 4 };

inline constexpr int NumIsas = 5;

/// Signature of the single-input elementwise kernels (exp/log/sin/cos and
/// sqrt share it).
using ElemFn = void (*)(Interval *Dst, const Interval *X, size_t N);

/// One function pointer per batched elementwise kernel. All kernels require
/// upward rounding (established by the iarr_* wrappers) and permit
/// Dst == X/Y/A/B/C aliasing of whole arrays (element I only reads inputs
/// at index I).
struct KernelTable {
  const char *Name;
  void (*Add)(Interval *Dst, const Interval *X, const Interval *Y, size_t N);
  void (*Sub)(Interval *Dst, const Interval *X, const Interval *Y, size_t N);
  void (*Mul)(Interval *Dst, const Interval *X, const Interval *Y, size_t N);
  /// Elementwise A*B + C. The AVX2+FMA tier fuses the candidate products
  /// with the addend (single rounding: tighter and sound); other tiers
  /// compose iAdd(iMul(a, b), c).
  void (*Fma)(Interval *Dst, const Interval *A, const Interval *B,
              const Interval *C, size_t N);
  /// Elementwise X * S for a fixed interval scalar S.
  void (*Scale)(Interval *Dst, const Interval *X, Interval S, size_t N);
  /// Elementwise X / Y. Every tier routes each element through the same
  /// sign-specialized lowering the scalar tier uses (divisor strictly
  /// positive / strictly negative / generic case analysis), and the
  /// vector fast paths reproduce the scalar screen decisions exactly, so
  /// the tiers are bit-identical on *all* inputs — including divisors
  /// containing zero, which degrade to the scalar half-line/entire/NaN
  /// case analysis per element.
  void (*Div)(Interval *Dst, const Interval *X, const Interval *Y, size_t N);
  /// Elementwise sqrt(X), bit-identical across tiers (the vector fast
  /// path reproduces sqrtRoundDown; anything outside lo in (0, inf),
  /// hi >= 0 falls back to scalar iSqrt per element).
  ElemFn Sqrt;
  /// Elementwise certified polynomial elementary functions
  /// (iExpFast-family semantics, see interval/PolyKernels.h). The SIMD
  /// tiers vectorize the exp/log point cores across both endpoints and
  /// mirror the scalar operation sequence exactly, so every lane is
  /// bit-identical to the scalar tier; intervals outside the fast domain
  /// take the per-element scalar fallback.
  void (*Exp)(Interval *Dst, const Interval *X, size_t N);
  void (*Log)(Interval *Dst, const Interval *X, size_t N);
  void (*Sin)(Interval *Dst, const Interval *X, size_t N);
  void (*Cos)(Interval *Dst, const Interval *X, size_t N);
};

/// One function pointer per batched double-double-interval (ddi) kernel;
/// the escalation targets of the adaptive-precision work. Only two tiers
/// exist (scalar and AVX2+FMA — the DdSimd layout wants 256-bit FMA); the
/// dispatcher maps every Isa onto the best available one.
struct DdKernelTable {
  const char *Name;
  void (*Add)(DdInterval *Dst, const DdInterval *X, const DdInterval *Y,
              size_t N);
  void (*Sub)(DdInterval *Dst, const DdInterval *X, const DdInterval *Y,
              size_t N);
  void (*Mul)(DdInterval *Dst, const DdInterval *X, const DdInterval *Y,
              size_t N);
  /// Composed A*B + C (ddiAdd(ddiMul(a, b), c)) on every tier: the dd
  /// error-free transformations already carry the products exactly, so
  /// there is no fused/unfused split like the double table has.
  void (*Fma)(DdInterval *Dst, const DdInterval *A, const DdInterval *B,
              const DdInterval *C, size_t N);
};

/// True if the running CPU can execute the given tier.
bool isaSupported(Isa I);

/// Best tier the running CPU supports.
Isa detectIsa();

/// The tier in effect: forced > IGEN_ISA env override > CPUID detection.
Isa activeIsa();

/// Resolves an IGEN_ISA value from the knob table (an Isa index, or -1
/// for auto): a tier the CPU supports wins; -1 or an unsupported tier
/// falls back to auto-detection, and an unsupported one stores a warning
/// into \p Warning when non-null. activeIsa() applies it to the table's
/// value and prints the warning once per process.
Isa resolveIsa(long long Requested, std::string *Warning = nullptr);

/// Short lowercase name ("scalar", "sse2", "avx", "avx2", "avx512").
const char *isaName(Isa I);

/// Pins the dispatcher to \p I for this process (clamped to a supported
/// tier). Testing/benchmarking hook; not thread-safe against concurrent
/// kernel launches.
void forceIsa(Isa I);

/// Drops the pin (and the cached selection): the next activeIsa() call
/// re-reads IGEN_ISA from the environment and consults CPUID.
void clearForcedIsa();

/// Kernel table of a specific tier (must be supported).
const KernelTable &kernelTableFor(Isa I);

/// Kernel table of the active tier.
const KernelTable &kernels();

/// ddi kernel table of a specific tier (must be supported). Tiers below
/// Avx2Fma share the scalar dd table; Avx2Fma and above use the DdSimd
/// one.
const DdKernelTable &ddKernelTableFor(Isa I);

/// ddi kernel table of the active tier.
const DdKernelTable &ddKernels();

/// Verifies that every KernelTable and DdKernelTable row is populated
/// (non-null) for every Isa, so a new op can never silently fall through
/// to a null pointer on some tier. Returns true when complete; otherwise
/// false, and when \p Missing is non-null, stores a "tier.op" list of the
/// holes. Debug builds also assert this on first dispatch.
bool kernelTablesComplete(std::string *Missing = nullptr);

} // namespace igen::runtime

#endif // IGEN_RUNTIME_CPUDISPATCH_H
