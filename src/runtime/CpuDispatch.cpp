//===- CpuDispatch.cpp - Runtime ISA selection ----------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CpuDispatch.h"

#include "support/Knobs.h"

#include <atomic>
#include <cassert>

namespace igen::runtime {

// Defined in the per-ISA translation units (BatchKernels<Tier>.cpp).
extern const KernelTable kKernelsScalar;
extern const KernelTable kKernelsSse2;
extern const KernelTable kKernelsAvx;
extern const KernelTable kKernelsAvx2;
extern const KernelTable kKernelsAvx512;

// Defined in DdBatchKernels{,Avx2}.cpp.
extern const DdKernelTable kDdKernelsScalar;
extern const DdKernelTable kDdKernelsAvx2;

bool isaSupported(Isa I) {
  switch (I) {
  case Isa::Scalar:
    return true;
  case Isa::Sse2:
    return __builtin_cpu_supports("sse2");
  case Isa::Avx:
    return __builtin_cpu_supports("avx");
  case Isa::Avx2Fma:
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  case Isa::Avx512:
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("fma");
  }
  return false;
}

Isa detectIsa() {
  for (Isa I : {Isa::Avx512, Isa::Avx2Fma, Isa::Avx, Isa::Sse2})
    if (isaSupported(I))
      return I;
  return Isa::Scalar;
}

const char *isaName(Isa I) {
  switch (I) {
  case Isa::Scalar:
    return "scalar";
  case Isa::Sse2:
    return "sse2";
  case Isa::Avx:
    return "avx";
  case Isa::Avx2Fma:
    return "avx2";
  case Isa::Avx512:
    return "avx512";
  }
  return "?";
}

namespace {

/// The dispatcher's selection; -1 means "not resolved yet" (forceIsa()
/// writes it directly, clearForcedIsa() resets it).
std::atomic<int> ActiveCache{-1};

} // namespace

Isa resolveIsa(long long Requested, std::string *Warning) {
  if (Requested < 0)
    return detectIsa();
  Isa Wanted = static_cast<Isa>(Requested);
  if (isaSupported(Wanted))
    return Wanted;
  if (Warning)
    *Warning = knobWarning(Knob::Isa, "unsupported", isaName(Wanted),
                           "this CPU cannot run it");
  return detectIsa();
}

Isa activeIsa() {
  int Cached = ActiveCache.load(std::memory_order_acquire);
  if (Cached < 0) {
    std::string Warning;
    Cached = static_cast<int>(resolveIsa(knobInt(Knob::Isa), &Warning));
    if (!Warning.empty())
      warnKnobOnce(Knob::Isa, Warning);
    ActiveCache.store(Cached, std::memory_order_release);
  }
  return static_cast<Isa>(Cached);
}

void forceIsa(Isa I) {
  if (!isaSupported(I))
    I = detectIsa();
  ActiveCache.store(static_cast<int>(I), std::memory_order_release);
}

void clearForcedIsa() {
  refreshKnob(Knob::Isa);
  ActiveCache.store(-1, std::memory_order_release);
}

const KernelTable &kernelTableFor(Isa I) {
  assert(kernelTablesComplete() && "null kernel-table entry");
  switch (I) {
  case Isa::Scalar:
    return kKernelsScalar;
  case Isa::Sse2:
    return kKernelsSse2;
  case Isa::Avx:
    return kKernelsAvx;
  case Isa::Avx2Fma:
    return kKernelsAvx2;
  case Isa::Avx512:
    return kKernelsAvx512;
  }
  return kKernelsScalar;
}

const KernelTable &kernels() { return kernelTableFor(activeIsa()); }

const DdKernelTable &ddKernelTableFor(Isa I) {
  return I >= Isa::Avx2Fma ? kDdKernelsAvx2 : kDdKernelsScalar;
}

const DdKernelTable &ddKernels() { return ddKernelTableFor(activeIsa()); }

bool kernelTablesComplete(std::string *Missing) {
  // The one-time check result is cached: kernelTableFor() asserts on it
  // in debug builds, so it runs on every dispatch.
  auto Check = [&Missing]() {
    bool Ok = true;
    auto Note = [&](Isa I, const char *Op) {
      Ok = false;
      if (Missing) {
        if (!Missing->empty())
          *Missing += ", ";
        *Missing += std::string(isaName(I)) + "." + Op;
      }
    };
    for (int N = 0; N < NumIsas; ++N) {
      Isa I = static_cast<Isa>(N);
      const KernelTable *T;
      switch (I) {
      case Isa::Scalar:
        T = &kKernelsScalar;
        break;
      case Isa::Sse2:
        T = &kKernelsSse2;
        break;
      case Isa::Avx:
        T = &kKernelsAvx;
        break;
      case Isa::Avx2Fma:
        T = &kKernelsAvx2;
        break;
      case Isa::Avx512:
        T = &kKernelsAvx512;
        break;
      }
      if (!T->Name)
        Note(I, "Name");
      if (!T->Add)
        Note(I, "Add");
      if (!T->Sub)
        Note(I, "Sub");
      if (!T->Mul)
        Note(I, "Mul");
      if (!T->Fma)
        Note(I, "Fma");
      if (!T->Scale)
        Note(I, "Scale");
      if (!T->Div)
        Note(I, "Div");
      if (!T->Sqrt)
        Note(I, "Sqrt");
      if (!T->Exp)
        Note(I, "Exp");
      if (!T->Log)
        Note(I, "Log");
      if (!T->Sin)
        Note(I, "Sin");
      if (!T->Cos)
        Note(I, "Cos");
      const DdKernelTable &D = ddKernelTableFor(I);
      if (!D.Name)
        Note(I, "Dd.Name");
      if (!D.Add)
        Note(I, "Dd.Add");
      if (!D.Sub)
        Note(I, "Dd.Sub");
      if (!D.Mul)
        Note(I, "Dd.Mul");
      if (!D.Fma)
        Note(I, "Dd.Fma");
    }
    return Ok;
  };
  if (Missing) // uncached: the caller wants the hole list
    return Check();
  static const bool Complete = Check();
  return Complete;
}

} // namespace igen::runtime
