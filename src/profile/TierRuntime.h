//===- TierRuntime.h - Adaptive precision-tier runtime ----------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime side of the adaptive precision-tiering subsystem (igen --tier,
/// ROADMAP open item 2). Code emitted with --tier runs each escalation
/// region (currently: a function body) at the f64i tier, evaluates a cheap
/// blowup predicate on the region's result at region exit, and — when the
/// predicate fires and the region is *movable* (a higher-precision rerun
/// can actually tighten the result) — re-executes the region's ddi clone
/// from a live-in snapshot captured at region entry.
///
/// This translation unit owns:
///
///  * the region registry: generated TUs embed a static igen_tier_region
///    table and self-register it (igen_tier_register_regions), mirroring
///    the --profile site table so several tiered TUs coexist per binary;
///  * per-region escalation counters (checks / escalations / pruned),
///    queried by tests and the tier benchmark and printed by
///    igen_tier_report();
///  * the C entry points generated code reads its two knobs through:
///    IGEN_TIER_WIDTH (relative-width escalation threshold, default 1e-8)
///    and IGEN_TIER_MAX (highest tier to run, 1 = never escalate, 2 = ddi
///    (default)). The knob table (support/Knobs.h) parses, caches and
///    warns about both.
///
/// The escalation predicate itself is inline in profile/igen_tier.h (it
/// needs the configuration-selected f64i typedef); only the counter
/// bumps and the knob reads live out of line here.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_PROFILE_TIERRUNTIME_H
#define IGEN_PROFILE_TIERRUNTIME_H

#include <cstdio>

#ifdef __cplusplus
extern "C" {
#endif

/// One row of the compile-time region table embedded in generated code.
/// Field order matters: the transformer emits positional initializers.
typedef struct igen_tier_region {
  const char *func; /* source function delimiting the region */
  unsigned line;    /* 1-based source line of the function (0 = unknown) */
  int movable;      /* 0: result provably cannot improve at ddi */
} igen_tier_region;

/// Registers a module's region table and returns the global base offset
/// its regions were assigned (generated code adds this base to its local
/// region indices). The table memory must stay valid for the process
/// lifetime. Thread-safe; typically runs from a static initializer.
unsigned igen_tier_register_regions(const char *module,
                                    const igen_tier_region *regions,
                                    unsigned n);

/// Counter bumps, one per region-exit outcome. \p region is the global
/// (base-offset) region index; out-of-range indices are ignored.
void igen_tier_count_check(unsigned region);     /* predicate evaluated  */
void igen_tier_count_escalate(unsigned region);  /* ddi rerun performed  */
void igen_tier_count_pruned(unsigned region);    /* fired but immovable  */

/// Escalation threshold on the relative width of a region result
/// (IGEN_TIER_WIDTH, read once).
double igen_tier_width_threshold(void);

/// Highest tier to run (IGEN_TIER_MAX, read once): 1 disables
/// escalation, 2 (default) escalates to ddi.
int igen_tier_max(void);

/// Drops the cached env values so the next read re-parses IGEN_TIER_WIDTH
/// and IGEN_TIER_MAX. Test/bench hook; not thread-safe against
/// concurrently executing tiered code.
void igen_tier_env_refresh(void);

/// Clears all escalation counters (registered regions are kept).
void igen_tier_reset(void);

/// Prints the per-region counter table to \p out (stderr when null).
void igen_tier_report(FILE *out);

#ifdef __cplusplus
} /* extern "C" */
#endif

#ifdef __cplusplus

#include <cstdint>
#include <string>
#include <vector>

namespace igen::tier {

/// Per-region counters as seen by tests and the tier benchmark.
struct RegionReport {
  uint32_t Id = 0;          ///< global region index
  std::string Module;
  std::string Func;
  uint32_t Line = 0;
  bool Movable = true;
  uint64_t Checks = 0;      ///< region exits that evaluated the predicate
  uint64_t Escalations = 0; ///< ddi re-executions performed
  uint64_t Pruned = 0;      ///< predicate fired, movability pruned rerun
};

/// All registered regions with their counters, in registration order.
std::vector<RegionReport> snapshot();

} // namespace igen::tier

#endif // __cplusplus

#endif // IGEN_PROFILE_TIERRUNTIME_H
