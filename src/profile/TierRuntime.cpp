//===- TierRuntime.cpp - Adaptive precision-tier runtime ------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "profile/TierRuntime.h"

#include "support/Knobs.h"

#include <atomic>
#include <memory>
#include <mutex>

namespace {

//===----------------------------------------------------------------------===//
// Region registry
//===----------------------------------------------------------------------===//

struct RegionCounters {
  std::atomic<uint64_t> Checks{0};
  std::atomic<uint64_t> Escalations{0};
  std::atomic<uint64_t> Pruned{0};
};

struct Registry {
  std::mutex M;
  struct ModuleInfo {
    std::string Name;
    const igen_tier_region *Regions = nullptr;
    unsigned N = 0;
    unsigned Base = 0;
  };
  std::vector<ModuleInfo> Modules;
  /// Counter storage, indexed by global region id. Deque-like stable
  /// chunks are unnecessary: registration happens at static-init time,
  /// before any counting, and the counting paths only read the pointer
  /// loaded below.
  std::vector<std::unique_ptr<RegionCounters>> Counters;
};

Registry &registry() {
  static Registry R;
  return R;
}

/// Counter array pointer + size for the lock-free counting fast path.
/// Rebuilt under the registry lock on every registration; counting
/// threads load it acquire and index it without taking the lock.
std::atomic<RegionCounters *const *> CountersPtr{nullptr};
std::atomic<unsigned> CountersN{0};

RegionCounters *counters(unsigned Region) {
  if (Region >= CountersN.load(std::memory_order_acquire))
    return nullptr;
  RegionCounters *const *P = CountersPtr.load(std::memory_order_acquire);
  return P ? P[Region] : nullptr;
}

/// Raw (unowned) pointer snapshot handed to the fast path. Grows only.
std::vector<RegionCounters *> CounterView;

} // namespace

//===----------------------------------------------------------------------===//
// C API
//===----------------------------------------------------------------------===//

extern "C" unsigned igen_tier_register_regions(const char *Module,
                                               const igen_tier_region *Regions,
                                               unsigned N) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  unsigned Base = static_cast<unsigned>(R.Counters.size());
  Registry::ModuleInfo MI;
  MI.Name = Module ? Module : "";
  MI.Regions = Regions;
  MI.N = N;
  MI.Base = Base;
  R.Modules.push_back(std::move(MI));
  for (unsigned I = 0; I < N; ++I)
    R.Counters.push_back(std::make_unique<RegionCounters>());
  CounterView.clear();
  CounterView.reserve(R.Counters.size());
  for (auto &C : R.Counters)
    CounterView.push_back(C.get());
  CountersPtr.store(CounterView.data(), std::memory_order_release);
  CountersN.store(static_cast<unsigned>(CounterView.size()),
                  std::memory_order_release);
  return Base;
}

extern "C" void igen_tier_count_check(unsigned Region) {
  if (RegionCounters *C = counters(Region))
    C->Checks.fetch_add(1, std::memory_order_relaxed);
}

extern "C" void igen_tier_count_escalate(unsigned Region) {
  if (RegionCounters *C = counters(Region))
    C->Escalations.fetch_add(1, std::memory_order_relaxed);
}

extern "C" void igen_tier_count_pruned(unsigned Region) {
  if (RegionCounters *C = counters(Region))
    C->Pruned.fetch_add(1, std::memory_order_relaxed);
}

extern "C" double igen_tier_width_threshold(void) {
  return igen::knobReal(igen::Knob::TierWidth);
}

extern "C" int igen_tier_max(void) {
  return static_cast<int>(igen::knobInt(igen::Knob::TierMax));
}

extern "C" void igen_tier_env_refresh(void) {
  igen::refreshKnob(igen::Knob::TierWidth);
  igen::refreshKnob(igen::Knob::TierMax);
}

extern "C" void igen_tier_reset(void) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  for (auto &C : R.Counters) {
    C->Checks.store(0, std::memory_order_relaxed);
    C->Escalations.store(0, std::memory_order_relaxed);
    C->Pruned.store(0, std::memory_order_relaxed);
  }
}

std::vector<igen::tier::RegionReport> igen::tier::snapshot() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  std::vector<RegionReport> Out;
  Out.reserve(R.Counters.size());
  for (const Registry::ModuleInfo &M : R.Modules) {
    for (unsigned I = 0; I < M.N; ++I) {
      RegionReport Rep;
      Rep.Id = M.Base + I;
      Rep.Module = M.Name;
      Rep.Func = M.Regions[I].func ? M.Regions[I].func : "";
      Rep.Line = M.Regions[I].line;
      Rep.Movable = M.Regions[I].movable != 0;
      const RegionCounters &C = *R.Counters[M.Base + I];
      Rep.Checks = C.Checks.load(std::memory_order_relaxed);
      Rep.Escalations = C.Escalations.load(std::memory_order_relaxed);
      Rep.Pruned = C.Pruned.load(std::memory_order_relaxed);
      Out.push_back(std::move(Rep));
    }
  }
  return Out;
}

extern "C" void igen_tier_report(FILE *Out) {
  if (!Out)
    Out = stderr;
  std::vector<igen::tier::RegionReport> Regions = igen::tier::snapshot();
  std::fprintf(Out, "%-4s %-24s %-8s %10s %10s %10s\n", "id", "region",
               "movable", "checks", "escalated", "pruned");
  for (const igen::tier::RegionReport &R : Regions)
    std::fprintf(Out, "%-4u %-24s %-8s %10llu %10llu %10llu\n", R.Id,
                 R.Func.c_str(), R.Movable ? "yes" : "no",
                 static_cast<unsigned long long>(R.Checks),
                 static_cast<unsigned long long>(R.Escalations),
                 static_cast<unsigned long long>(R.Pruned));
}
