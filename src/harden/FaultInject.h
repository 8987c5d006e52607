//===- FaultInject.h - Deterministic soundness-fault injection --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test-only fault injector for the soundness-hardening subsystem. It
/// simulates, deterministically, the hazards the fenv sentinel
/// (FenvSentinel.h) exists to catch -- so the tests can prove each
/// IGEN_FENV_POLICY actually detects and recovers -- plus operand and
/// allocation faults for the batched runtime's edge-case handling.
///
/// Faults are armed from the IGEN_FAULT environment variable (read
/// through the knob table on the first trigger point; a programmatic
/// armFaults() or disarmFaults() before that wins) with the grammar
///
///   IGEN_FAULT = fault ("," fault)*
///   fault      = kind [ "@" N ]          (N defaults to 0)
///   kind       = "ftz" | "daz" | "rnd" | "nan" | "inf" | "alloc"
///              | "accept" | "read" | "write" | "conreset" | "partial"
///              | "stall"
///
/// Each fault fires exactly once, at the Nth (0-based) occurrence of its
/// trigger point, then disarms itself:
///
///   ftz / daz / rnd   at the Nth upward-rounding scope *entry*
///                     (interval/Rounding.h hook): set the FTZ/DAZ MXCSR
///                     bit, or fesetround(FE_TONEAREST) -- deliberately
///                     without invalidating the rounding cache, exactly
///                     like a foreign library would.
///   nan / inf         at the Nth batched-kernel invocation
///                     (runtime/BatchKernels.h): replace element N % size
///                     of the first input array by a NaN interval / a
///                     point interval at +inf (on a scratch copy; caller
///                     arrays are const).
///   alloc             at the Nth scratch allocation in the array runtime
///                     (runtime/BatchReduce.cpp): make it behave as if
///                     std::bad_alloc had been thrown.
///
/// Transport faults (the --serve daemon's socket shim,
/// server/TransportOps.h, routes every socket syscall through these):
///
///   accept            the Nth accept() fails with EMFILE (fd
///                     exhaustion under a connection flood)
///   read / conreset   the Nth recv() fails with EIO / ECONNRESET
///                     (hard read error / peer reset mid-frame)
///   stall             the Nth recv() fails with EAGAIN (spurious
///                     poll readiness; a stalled slow client)
///   write / partial   the Nth send() fails with EPIPE (peer gone) /
///                     returns a short count (partial write, the
///                     caller's write loop must resume cleanly)
///
/// When nothing is armed (the production case) the only cost is one
/// relaxed atomic load and branch per trigger point; the rounding-scope
/// hook additionally costs one relaxed load per scope entry (measured in
/// bench/batch_runtime's sentinel rows).
///
/// Header-only for the same layering reason as FenvSentinel.h.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_HARDEN_FAULTINJECT_H
#define IGEN_HARDEN_FAULTINJECT_H

#include "harden/FenvSentinel.h"
#include "interval/Rounding.h"
#include "support/Knobs.h"

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace igen::harden {

enum class FaultKind : int {
  Ftz = 0,
  Daz,
  Rnd,
  Nan,
  Inf,
  Alloc,
  // Transport faults (server/TransportOps.h trigger points).
  AcceptFail,   ///< "accept": accept() -> EMFILE
  ReadFail,     ///< "read": recv() -> EIO
  WriteFail,    ///< "write": send() -> EPIPE
  ConnReset,    ///< "conreset": recv() -> ECONNRESET
  PartialWrite, ///< "partial": send() returns a short count
  ReadStall,    ///< "stall": recv() -> EAGAIN despite poll readiness
};
inline constexpr int kNumFaultKinds = 12;

namespace detail {

/// One armed fault: fires when its trigger counter reaches FireAt.
struct FaultSlot {
  std::atomic<long long> Trigger{0}; ///< occurrences seen so far
  std::atomic<long long> FireAt{-1}; ///< -1: disarmed
};

inline FaultSlot FaultSlots[kNumFaultKinds];

/// Trigger points check this first: 1 while any fault is armed, 0 when
/// none is, -1 until IGEN_FAULT has been applied.
inline std::atomic<int> ArmState{-1};

inline const char *faultKindName(int K) {
  static const char *Names[kNumFaultKinds] = {
      "ftz",    "daz",   "rnd",      "nan",     "inf",     "alloc",
      "accept", "read",  "write",    "conreset", "partial", "stall"};
  return Names[K];
}

inline int faultKindFromName(const char *Name, size_t Len) {
  for (int K = 0; K < kNumFaultKinds; ++K)
    if (std::strlen(faultKindName(K)) == Len &&
        std::strncmp(Name, faultKindName(K), Len) == 0)
      return K;
  return -1;
}

/// The rounding-scope hook: clobber the FP environment on entry to the
/// Nth *upward* scope, simulating a foreign thread/library racing the
/// sound region. Installed only while a ftz/daz/rnd fault is armed.
inline void scopeEntryFault(int EnteredMode) {
  if (EnteredMode != FE_UPWARD)
    return; // only sound regions are interesting targets
  auto Fire = [](FaultKind K) {
    FaultSlot &S = FaultSlots[static_cast<int>(K)];
    long long At = S.FireAt.load(std::memory_order_relaxed);
    if (At < 0)
      return false;
    if (S.Trigger.fetch_add(1, std::memory_order_relaxed) != At)
      return false;
    S.FireAt.store(-1, std::memory_order_relaxed); // one-shot
    return true;
  };
  if (Fire(FaultKind::Ftz))
    writeMxcsr(readMxcsr() | kMxcsrFtz);
  if (Fire(FaultKind::Daz))
    writeMxcsr(readMxcsr() | kMxcsrDaz);
  if (Fire(FaultKind::Rnd)) {
    // A real clobberer goes through fesetround (or raw ldmxcsr) and does
    // NOT tell the runtime: the cached rounding scope must stay stale.
    std::fesetround(FE_TONEAREST);
  }
}

} // namespace detail

/// True while any fault is armed. Trigger points gate on this so the
/// disarmed cost is one relaxed load + branch.
inline bool faultsArmed() {
  return detail::ArmState.load(std::memory_order_relaxed) > 0;
}

/// Consumes one occurrence of \p K's trigger point; true when the armed
/// fault fires here (one-shot). Returns false instantly when disarmed.
/// \p NOut, when non-null, receives the armed @N count on firing (the
/// operand faults reuse it as the element index to corrupt).
inline bool faultFires(FaultKind K, long long *NOut = nullptr) {
  if (!faultsArmed())
    return false;
  detail::FaultSlot &S = detail::FaultSlots[static_cast<int>(K)];
  long long At = S.FireAt.load(std::memory_order_relaxed);
  if (At < 0)
    return false;
  if (S.Trigger.fetch_add(1, std::memory_order_relaxed) != At)
    return false;
  S.FireAt.store(-1, std::memory_order_relaxed);
  if (NOut)
    *NOut = At;
  return true;
}

/// Disarms everything and resets trigger counters (tests call this
/// between cases).
inline void disarmFaults() {
  detail::ArmState.store(0, std::memory_order_relaxed);
  igen::detail::ScopeEntryHook.store(nullptr, std::memory_order_relaxed);
  for (auto &S : detail::FaultSlots) {
    S.FireAt.store(-1, std::memory_order_relaxed);
    S.Trigger.store(0, std::memory_order_relaxed);
  }
}

/// Arms faults from an IGEN_FAULT-grammar spec ("ftz@2,nan"). Unknown
/// kinds or malformed counts are skipped, with one warning per process
/// through the knob table. Passing nullptr or "" disarms.
inline void armFaults(const char *Spec) {
  disarmFaults();
  if (!Spec || !*Spec)
    return;
  bool Armed = false;
  bool NeedScopeHook = false;
  const char *P = Spec;
  while (*P) {
    const char *End = P;
    while (*End && *End != ',')
      ++End;
    // One "kind[@N]" item in [P, End).
    const char *At = P;
    while (At < End && *At != '@')
      ++At;
    int Kind = detail::faultKindFromName(P, static_cast<size_t>(At - P));
    long long N = 0;
    bool Ok = Kind >= 0;
    if (Ok && At < End) {
      char *NumEnd = nullptr;
      N = std::strtoll(At + 1, &NumEnd, 10);
      Ok = NumEnd == End && N >= 0;
    }
    if (Ok) {
      detail::FaultSlot &S = detail::FaultSlots[Kind];
      S.Trigger.store(0, std::memory_order_relaxed);
      S.FireAt.store(N, std::memory_order_relaxed);
      Armed = true;
      NeedScopeHook |= Kind <= static_cast<int>(FaultKind::Rnd);
    } else {
      warnKnobOnce(Knob::Fault,
                   knobWarning(Knob::Fault, "malformed",
                               std::string_view(P, size_t(End - P)),
                               "want kind[@N], kind in "
                               "ftz|daz|rnd|nan|inf|alloc|accept|read|"
                               "write|conreset|partial|stall",
                               "the other items"));
    }
    P = *End ? End + 1 : End;
  }
  if (NeedScopeHook)
    igen::detail::ScopeEntryHook.store(detail::scopeEntryFault,
                                       std::memory_order_relaxed);
  detail::ArmState.store(Armed, std::memory_order_relaxed);
}

/// faultsArmed() that applies IGEN_FAULT first if nothing has armed or
/// disarmed faults yet: the batched runtime's and the transport's
/// trigger points use this, so plain processes pay one relaxed load.
inline bool faultsArmedFromEnv() {
  int State = detail::ArmState.load(std::memory_order_relaxed);
  if (__builtin_expect(State < 0, 0)) {
    if (detail::ArmState.compare_exchange_strong(State, 0))
      armFaults(knobString(Knob::Fault));
    return faultsArmed();
  }
  return State > 0;
}

} // namespace igen::harden

#endif // IGEN_HARDEN_FAULTINJECT_H
