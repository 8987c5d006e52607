//===- IntervalTransform.h - AST-to-interval-C transformer ------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The IGen transformation proper (Section IV): lowers each function of
/// the type-checked AST once into typed nodes (transform/Lowered.h) that
/// make every decision below, then prints them as an equivalent *sound*
/// C function over interval types. The serve evaluator runs the same
/// nodes.
///
///  * Types are promoted per Table II (float/double -> f64i or ddi; SIMD
///    vectors -> m256di_k or ddi_k).
///  * Expressions become calls into the interval runtime (ia_add_f64 ...),
///    with constants lifted to sound enclosures and folded when possible.
///  * Floating-point comparisons yield tbool; branches either signal on
///    unknown (default) or compute both sides and join (Section IV-B).
///  * Parameters annotated with tolerances and `t`-suffixed constants
///    (Section IV-C) become the corresponding widened intervals.
///  * With reductions enabled, detected reduction statements are rewritten
///    onto accurate accumulators (Section VI-B).
///  * SIMD intrinsics map to hand-optimized vector interval operations
///    when available, otherwise to the implementations produced by the
///    simdspec generator (Section V).
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TRANSFORM_INTERVALTRANSFORM_H
#define IGEN_TRANSFORM_INTERVALTRANSFORM_H

#include "frontend/AST.h"
#include "support/Diagnostics.h"
#include "transform/SiteTable.h"

#include <string>

namespace igen {

struct TransformOptions {
  enum class Precision { Double, DoubleDouble };
  Precision Prec = Precision::Double;

  /// IGen-ss: back f64i/ddi with the scalar structs instead of SIMD
  /// registers (emits #define IGEN_F64I_SCALAR).
  bool ScalarLibrary = false;

  /// Enable the reduction accuracy transformation (Section VI-B).
  bool EnableReductions = false;

  /// Route recognized elementwise array loops (d[i] = a[i] OP b[i],
  /// d[i] = sqrt(a[i])) onto the batched runtime's ia_arr_* entry
  /// points instead of per-element interval calls (driver
  /// --batch-loops). Same enclosures, amortized rounding-mode setup,
  /// SIMD dispatch at runtime. f64i only; ddi loops stay elementwise.
  bool EnableBatchLoops = false;

  enum class BranchPolicy {
    Exception, ///< unknown branch conditions signal (default)
    Join,      ///< compute both branches and join results when safe
  };
  BranchPolicy Branches = BranchPolicy::Exception;

  /// Mid-end optimization level (driver -O/-O0). At level >= 1 the
  /// transformer runs the src/opt value-range analysis and uses it for
  /// sign-specialized multiplies/divides (ia_mul_pp/... / ia_div_p),
  /// fuses add+mul into ia_fma, reuses repeated enclosures (interval
  /// CSE), and hoists loop-invariant interval computations. Every
  /// rewrite preserves or tightens the computed enclosures; 0 disables
  /// the whole pipeline and reproduces the naive translation.
  int OptLevel = 1;

  /// Header providing the ia_* runtime (paper: "igen_lib.h").
  std::string RuntimeHeader = "interval/igen_lib.h";

  /// Header with generated interval intrinsics (_ci_*); included when the
  /// input uses intrinsics beyond the hand-optimized set.
  std::string GeneratedIntrinsicsHeader = "igen_simd.h";

  /// Emit precision-profiling instrumentation (driver --profile): every
  /// interval arithmetic call is routed through the iap_* wrappers from
  /// profile/igen_prof.h carrying a static site ID, and the generated TU
  /// self-registers its site table with the profiler runtime. The
  /// computed enclosures are unchanged; with Profile off the output is
  /// byte-identical to a build without this feature.
  bool Profile = false;

  /// Emit adaptive precision tiering (driver --tier, requires the f64
  /// precision): each eligible function becomes an escalation region that
  /// runs at f64i speed, checks a cheap blowup predicate on its result at
  /// region exit, and — when the predicate fires, the region's result is
  /// *movable* (src/opt movability lattice: a higher-precision rerun can
  /// actually tighten it) and IGEN_TIER_MAX permits — transparently
  /// re-executes a ddi clone of the region from a live-in snapshot
  /// captured at entry, returning the meet of both sound enclosures.
  /// Ineligible functions (out-parameter read/write aliasing, SIMD, calls
  /// to user functions, ...) fall back to the plain f64i translation with
  /// a warning. The generated TU self-registers its region table with the
  /// tier runtime, mirroring --profile's site table.
  bool Tier = false;

  /// Header providing igen_tier_escalate / igen_tier_note_immovable and
  /// the region-table registration API for --tier.
  std::string TierHeader = "profile/igen_tier.h";

  /// Emit FP-environment sentinel checks (driver --harden): every
  /// generated function verifies MXCSR at sound-region entry, and calls
  /// to external user functions (declared but not defined in the TU) are
  /// re-checked afterwards -- a callback that flipped FTZ/DAZ or the
  /// rounding mode is detected and handled per IGEN_FENV_POLICY (see
  /// harden/FenvSentinel.h). With the environment clean the checks cost
  /// one MXCSR read + compare each; enclosures are unchanged.
  bool Harden = false;

  /// Header providing igen_fenv_check / ia_fenv_guard for --harden.
  std::string HardenHeader = "harden/igen_fenv.h";

  /// Module name baked into the emitted site table (defaults to "igen"
  /// when empty). The driver sets it to the output file's stem.
  std::string ModuleName;

  /// Source file name recorded in the site table for report locations.
  std::string SourceName;
};

/// Transforms the (parsed and type-checked) translation unit into interval
/// C code. Reports unsupported constructs through \p Diags. When
/// \p SitesOut is non-null and Options.Profile or Options.Tier is set,
/// receives the compile-time site/region table matching the IDs embedded
/// in the generated code.
std::string transformToIntervals(ASTContext &Ctx, DiagnosticsEngine &Diags,
                                 const TransformOptions &Options,
                                 SiteTable *SitesOut = nullptr);

namespace lowered {
struct Program;
}

/// transformToIntervals that also moves every lowered function into
/// \p Keep (transform/Lowered.h), for a back end that runs them. Without
/// \p Keep each function is freed as soon as it is printed.
std::string transformToIntervals(ASTContext &Ctx, DiagnosticsEngine &Diags,
                                 const TransformOptions &Options,
                                 SiteTable *SitesOut, lowered::Program *Keep);

} // namespace igen

#endif // IGEN_TRANSFORM_INTERVALTRANSFORM_H
