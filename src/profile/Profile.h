//===- Profile.h - Interval-width profiler runtime --------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime side of the precision-observability subsystem. Code emitted by
/// `igen --profile` calls `iap_*` wrappers (src/profile/igen_prof.h) that
/// feed every executed interval operation into this collector, keyed by a
/// static *site ID*: an index into the compile-time site table the
/// transformer embedded into the generated translation unit (op name,
/// source line/column, expression text).
///
/// Collection is per-thread (TLS buffers registered with a global
/// registry) and merge is deterministic: every per-site statistic is
/// either an integer sum, an integer/floating max, or an
/// order-independent fixed-point sum, so the merged result is
/// bit-identical no matter how the work was split across IGEN_THREADS
/// (the same contract as the batched reductions).
///
/// Per site the profiler tracks: executed-op count, max and mean relative
/// width of the produced enclosure, the worst width-growth ratio
/// (out-width relative to the widest input, at binade resolution: a power
/// of two), the total "growth bits" (sum of positive binade-exponent
/// differences, the blowup-attribution score), and NaN /
/// non-finite-width escapes. The per-operation path is append-only: the
/// wrappers store the raw operand bytes into a per-thread ring
/// (RecordRing) and all derived math — relative widths, binade
/// exponents, growth — happens in the batched flush, under a pinned
/// rounding mode. That keeps the instrumentation overhead low and the
/// statistics independent of the kernel's FPU state.
///
/// Reports: igen_prof_report() prints a ranked text table;
/// igen_prof_report_json() writes the stable-schema JSON document
/// (schema_version 1); setting IGEN_PROF_OUT=path.json writes the JSON
/// report automatically at process exit.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_PROFILE_PROFILE_H
#define IGEN_PROFILE_PROFILE_H

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

/// Sentinel "relative-width binade exponents" (see igen_prof_relw_e):
/// RELW_NONE marks a point / NaN input (no width to grow from),
/// RELW_WHOLE an input of unbounded width. Both are excluded from
/// growth attribution.
#define IGEN_PROF_RELW_NONE (-2147483647 - 1)
#define IGEN_PROF_RELW_WHOLE 2147483647

/// Binade exponent (floor(log2 x)) of a positive finite double, branch
/// free for normals and exact for subnormals; returns 1024 for +inf.
static inline int igen_prof_ilogb_(double X) {
  uint64_t B;
  std::memcpy(&B, &X, sizeof(B));
  int E = static_cast<int>((B >> 52) & 0x7FF);
  if (E != 0)
    return E - 1023;
  /* Subnormal: X = mant * 2^-1074, mant != 0 since X > 0. */
  return -1074 + (63 - __builtin_clzll(B & 0xFFFFFFFFFFFFFull));
}

/// Binade exponent of the relative width (hi-lo)/max(|lo|,|hi|) of an
/// enclosure, computed purely with integer exponent arithmetic (within
/// one binade of ilogb of the true ratio). IGEN_PROF_RELW_NONE for
/// point, inverted, or NaN-endpoint inputs; IGEN_PROF_RELW_WHOLE for
/// unbounded width.
static inline int igen_prof_relw_e(double Lo, double Hi) {
  double W = Hi - Lo;
  if (!(W > 0.0))
    return IGEN_PROF_RELW_NONE;
  int Ew = igen_prof_ilogb_(W);
  if (Ew > 1023)
    return IGEN_PROF_RELW_WHOLE;
  double ALo = std::fabs(Lo), AHi = std::fabs(Hi);
  return Ew - igen_prof_ilogb_(ALo < AHi ? AHi : ALo);
}

#ifdef __cplusplus
extern "C" {
#endif

/// One row of the compile-time site table embedded in generated code.
/// Field order matters: the transformer emits positional initializers.
typedef struct igen_prof_site {
  const char *op;   /* runtime op name: "mul", "fma_pu", "sub", ... */
  const char *func; /* enclosing source function */
  const char *text; /* unparsed source expression */
  unsigned line;    /* 1-based source line (0 = unknown) */
  unsigned col;     /* 1-based source column */
} igen_prof_site;

/// Registers a module's site table and returns the global base offset its
/// sites were assigned (generated code adds this base to its local site
/// indices). The table memory must stay valid for the process lifetime
/// (generated code uses static arrays). Thread-safe; typically runs from
/// a static initializer.
unsigned igen_prof_register_sites(const char *module, const char *source_file,
                                  const igen_prof_site *sites, unsigned n);

/// Prints the ranked text report to \p out (stderr when null).
void igen_prof_report(FILE *out);

/// Writes the JSON report (schema_version 1) to \p path.
/// Returns 0 on success, nonzero on I/O failure.
int igen_prof_report_json(const char *path);

/// Clears all collected statistics (registered sites are kept). Must not
/// race with concurrently recording threads.
void igen_prof_reset(void);

#ifdef __cplusplus
} /* extern "C" */
#endif

#ifdef __cplusplus

#include <string>
#include <vector>

namespace igen::prof::detail {

/// One raw recorded operation, queued on the calling thread's ring and
/// folded into per-site statistics in batches (see RecordRing). V holds
/// the untouched 16-byte interval representations ({negated lo, hi}, the
/// shared layout of the scalar and SSE runtimes): V[0..1] is the result,
/// V[2*k+2 .. 2*k+3] input k. Derived quantities (relative widths,
/// binade exponents) are computed at flush time, not on the kernel path.
struct RingEntry {
  double V[8];
  uint32_t Site;
  uint32_t NIn;
};

/// Per-thread staging buffer for recorded operations. The record fast
/// path is append-only — raw vector stores of the operands, no FP math,
/// no divisions, no read-modify-write of statistics. The expensive fold
/// into per-site statistics (relative width, fixed-point sum, growth
/// attribution) runs once per Cap records, under a pinned rounding mode,
/// which both amortizes its cost and makes the derived statistics
/// independent of the kernel's FPU state.
struct RecordRing {
  static constexpr uint32_t Cap = 256;
  uint32_t N = 0;
  RingEntry E[Cap];
};

/// The calling thread's view of its own ring; null until the first
/// record attaches the thread to the registry.
struct TlsView {
  RecordRing *Ring = nullptr;
};

/// Inline, like CountingOps' counters (DoubleDouble.h): an extern
/// thread_local is reached through a weak TLS wrapper function, which
/// -fsanitize=null flags as a null access (a GCC false positive).
inline thread_local TlsView Tls;

/// Out-of-line path: attaches this thread's buffer to the registry on
/// first use, flushes the full ring into per-site statistics, then
/// queues \p E.
void recordSlow(const RingEntry &E);

/// Returns the next free ring slot for the calling thread (bumping the
/// fill count), or null when the ring is full / the thread has not
/// attached yet — callers then fill a stack-local entry and hand it to
/// recordSlow(). Fully inline: an out-of-line call here would force the
/// caller to treat every live xmm/ymm register as clobbered around each
/// instrumented op, which measurably dominates the profiling overhead.
inline RingEntry *ringSlot() {
  RecordRing *R = Tls.Ring;
  if (!R || R->N >= RecordRing::Cap)
    return nullptr;
  return &R->E[R->N++];
}

} // namespace igen::prof::detail

namespace igen::prof {

/// Merged per-site statistics, in blowup-attribution rank order.
struct SiteReport {
  uint32_t Id = 0;
  std::string Module;
  std::string Op;
  std::string Func;
  std::string Text;
  uint32_t Line = 0;
  uint32_t Col = 0;

  uint64_t Count = 0;       ///< executed ops recorded at this site
  uint64_t NanCount = 0;    ///< results with a NaN endpoint
  uint64_t WholeCount = 0;  ///< results with non-finite width
  uint64_t GrowthBits = 0;  ///< sum of positive exponent growth (rank key)
  double MaxRelW = 0.0;     ///< max relative width of the output
  double MeanRelW = 0.0;    ///< mean relative width of the output
  /// Worst out-relw / in-relw ratio, at binade resolution (an exact
  /// power of two); 0 when no growth was attributable.
  double MaxGrowth = 0.0;
};

/// Deterministically merges every thread buffer and returns all
/// registered sites ranked by contributed growth: descending GrowthBits,
/// then descending Count, then ascending site ID. Bit-identical across
/// IGEN_THREADS for the same recorded multiset of operations.
std::vector<SiteReport> snapshot();

/// The text report as a string (what igen_prof_report prints).
std::string reportText();

/// The JSON report document (schema_version 1).
std::string reportJson();

} // namespace igen::prof

#endif // __cplusplus

#endif // IGEN_PROFILE_PROFILE_H
