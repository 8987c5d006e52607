//===- FenvSentinel.h - FP-environment soundness sentinel -------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime guard against floating-point-environment clobber.
///
/// Every directed-rounding bound the interval runtime computes is wrong --
/// silently -- if the FP environment is not what the runtime assumes: a
/// caller (or a library loaded into the process) that enables FTZ/DAZ in
/// MXCSR makes subnormal bounds collapse to zero, and a foreign
/// fesetround(FE_TONEAREST) behind a cached rounding scope
/// (interval/Rounding.h) makes *every* bound round the wrong way. This is
/// the environment-hazard class Revol & Théveny catalog for parallel
/// interval computations.
///
/// igen_fenv_check() reads MXCSR (one stmxcsr, ~5 cycles) and compares the
/// soundness-relevant bits -- rounding-control, FTZ, DAZ -- against the
/// expected upward-rounding/no-flush state. On a mismatch it applies the
/// policy selected by IGEN_FENV_POLICY (read through the knob table,
/// support/Knobs.h):
///
///   repair (default)  restore the expected state (MXCSR and the x87
///                     control word via fesetround) and warn once; the
///                     computation continues with sound bounds from this
///                     point on.
///   poison            repair the environment, but additionally tell the
///                     caller to replace the affected results with whole
///                     intervals [-inf, +inf]: degraded but sound -- the
///                     enclosure property is preserved, a wrong bound is
///                     never returned.
///   abort             print the offending bits and abort(): for debugging
///                     the clobbering caller.
///
/// Check placement: the batched runtime checks once per iarr_* entry (the
/// hot loops stay clean), generated code compiled with `igen --harden`
/// checks at sound-region entry and after calls to external user
/// functions, and the certified polynomial kernels check after their
/// libm fallback paths. The check sites run *inside* an upward-rounding
/// region, so the expected state is fixed: RC=up, FTZ=0, DAZ=0.
///
/// Only MXCSR is checked: all FP arithmetic in this codebase is SSE/AVX
/// (x86-64 doubles never go through the x87 stack), and repairs still
/// rewrite both control registers through fesetround().
///
/// Everything here is header-only (C++17 inline variables) so that any
/// layer -- including the interval library itself and generated
/// translation units -- can use the sentinel without a link-time
/// dependency cycle. Its one out-of-line dependency is the knob table in
/// igen_support, which every layer already links.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_HARDEN_FENVSENTINEL_H
#define IGEN_HARDEN_FENVSENTINEL_H

#include "interval/Rounding.h"
#include "support/Knobs.h"

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <xmmintrin.h>

namespace igen::harden {

//===----------------------------------------------------------------------===//
// MXCSR accessors and the expected-state mask
//===----------------------------------------------------------------------===//

inline uint32_t readMxcsr() { return _mm_getcsr(); }
inline void writeMxcsr(uint32_t V) { _mm_setcsr(V); }

inline constexpr uint32_t kMxcsrFtz = 1u << 15;    ///< flush-to-zero
inline constexpr uint32_t kMxcsrDaz = 1u << 6;     ///< denormals-are-zero
inline constexpr uint32_t kMxcsrRcMask = 3u << 13; ///< rounding control
inline constexpr uint32_t kMxcsrRcUp = 2u << 13;   ///< RC = toward +inf

/// The soundness-relevant MXCSR bits and their required value inside an
/// upward-rounding sound region. Exception masks/flags are deliberately
/// excluded: they do not change computed values.
inline constexpr uint32_t kMxcsrSoundMask = kMxcsrFtz | kMxcsrDaz | kMxcsrRcMask;
inline constexpr uint32_t kMxcsrWantUpward = kMxcsrRcUp;

/// True when MXCSR is in the exact state every upward-rounding sound
/// region assumes. This is the sentinel's hot-path predicate.
inline bool fenvIsSoundUpward() {
  return (readMxcsr() & kMxcsrSoundMask) == kMxcsrWantUpward;
}

//===----------------------------------------------------------------------===//
// Policy selection (IGEN_FENV_POLICY)
//===----------------------------------------------------------------------===//

enum class FenvPolicy { Repair, Poison, Abort };

namespace detail {

inline std::atomic<bool> WarnedRepair{false};

// Violation counters (process-wide, exposed for tests and diagnostics).
inline std::atomic<uint64_t> ViolationCount{0};
inline std::atomic<uint64_t> RepairCount{0};
inline std::atomic<uint64_t> PoisonCount{0};
inline std::atomic<uint32_t> LastViolationBits{0};

} // namespace detail

/// The active policy: IGEN_FENV_POLICY (its spellings are listed in
/// FenvPolicy order), read on first use.
inline FenvPolicy fenvPolicy() {
  return static_cast<FenvPolicy>(knobInt(Knob::FenvPolicy));
}

/// Pins the policy programmatically (tests; wins over the environment).
inline void setFenvPolicy(FenvPolicy P) {
  pinKnob(Knob::FenvPolicy, {.Int = static_cast<long long>(P)});
}

/// Drops the cached policy so the next check re-reads IGEN_FENV_POLICY.
inline void clearFenvPolicyCache() { refreshKnob(Knob::FenvPolicy); }

/// Snapshot of the violation counters.
struct FenvStats {
  uint64_t Violations; ///< sentinel checks that found a clobbered state
  uint64_t Repairs;    ///< states restored (repair and poison both repair)
  uint64_t Poisoned;   ///< batches/results replaced by whole intervals
  uint32_t LastBits;   ///< soundness-relevant MXCSR bits of the last hit
};

inline FenvStats fenvStats() {
  return {detail::ViolationCount.load(std::memory_order_relaxed),
          detail::RepairCount.load(std::memory_order_relaxed),
          detail::PoisonCount.load(std::memory_order_relaxed),
          detail::LastViolationBits.load(std::memory_order_relaxed)};
}

inline void resetFenvStats() {
  detail::ViolationCount.store(0, std::memory_order_relaxed);
  detail::RepairCount.store(0, std::memory_order_relaxed);
  detail::PoisonCount.store(0, std::memory_order_relaxed);
  detail::LastViolationBits.store(0, std::memory_order_relaxed);
  detail::WarnedRepair.store(false, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// The check
//===----------------------------------------------------------------------===//

/// Records a clobbered FP environment and restores the sound upward
/// state: counts the violation and keeps its bits, clears FTZ/DAZ and
/// forces RC=up in MXCSR, routes through fesetround() so the x87 control
/// word agrees, invalidates the per-thread rounding cache (the clobber
/// proved it stale), and counts the repair -- and the poisoning, when
/// \p Poison. \p Found is the MXCSR value the check read. Both the
/// policy-driven sentinel below and the daemon's request-local check
/// repair through here.
inline void repairFenv(uint32_t Found, bool Poison) {
  detail::ViolationCount.fetch_add(1, std::memory_order_relaxed);
  detail::LastViolationBits.store(Found & kMxcsrSoundMask,
                                  std::memory_order_relaxed);
  writeMxcsr((Found & ~kMxcsrSoundMask) | kMxcsrWantUpward);
  invalidateRoundingCache();
  std::fesetround(FE_UPWARD);
  detail::RepairCount.fetch_add(1, std::memory_order_relaxed);
  if (Poison)
    detail::PoisonCount.fetch_add(1, std::memory_order_relaxed);
}

/// Cold path of the sentinel: describe and act on a clobbered FP
/// environment per the active policy. Returns true when the caller must
/// poison its results (policy == poison); never returns under abort.
[[gnu::cold, gnu::noinline]] inline bool
handleFenvViolation(const char *Where) {
  uint32_t Cur = readMxcsr();
  uint32_t Bits = Cur & kMxcsrSoundMask;
  char Desc[96];
  std::snprintf(Desc, sizeof(Desc), "%s%s%s%s",
                (Bits & kMxcsrFtz) ? "FTZ " : "",
                (Bits & kMxcsrDaz) ? "DAZ " : "",
                (Bits & kMxcsrRcMask) != kMxcsrRcUp ? "rounding-mode " : "",
                "clobbered");

  FenvPolicy P = fenvPolicy();
  if (P == FenvPolicy::Abort) {
    std::fprintf(stderr,
                 "igen: fatal: FP environment %s at %s "
                 "(MXCSR=0x%04x, IGEN_FENV_POLICY=abort)\n",
                 Desc, Where, Cur);
    std::abort();
  }

  bool Poison = P == FenvPolicy::Poison;
  repairFenv(Cur, Poison);
  if (!detail::WarnedRepair.exchange(true))
    std::fprintf(stderr,
                 "igen: warning: FP environment %s at %s (MXCSR was "
                 "0x%04x); %s. Further repairs are silent.\n",
                 Desc, Where, Cur,
                 Poison ? "repaired, affected results poisoned to "
                          "[-inf, +inf]"
                        : "repaired");
  return Poison;
}

/// The sentinel: verifies the FP environment inside an upward-rounding
/// sound region. Returns true when the caller must poison its results
/// (whole intervals), false when it may proceed (the environment was
/// clean, or was repaired in place). \p Where names the check site for
/// diagnostics.
inline bool checkFenvUpward(const char *Where) {
  if (__builtin_expect(fenvIsSoundUpward(), 1))
    return false;
  return handleFenvViolation(Where);
}

} // namespace igen::harden

#endif // IGEN_HARDEN_FENVSENTINEL_H
