//===- Pipeline.h - Full IGen compilation pipeline --------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience entry point chaining the whole pipeline of Fig. 1:
/// parse -> type check -> (reduction analysis) -> interval transformation.
/// Used by the igen CLI driver, the build-time kernel generation, and the
/// integration tests.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TRANSFORM_PIPELINE_H
#define IGEN_TRANSFORM_PIPELINE_H

#include "support/Diagnostics.h"
#include "transform/IntervalTransform.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace igen {

class ASTContext;

/// Pipeline stage that produced the first error, for callers (the
/// driver) that map failures to distinct exit codes. Cancelled means a
/// caller-provided cancellation check fired at a stage boundary (the
/// serve daemon uses this for wall-clock compile deadlines).
enum class PipelineStage { None, Parse, Sema, Transform, Cancelled };

/// Cooperative cancellation for compileToProgram: polled at every stage
/// boundary (before parse, sema, transform, and emission). Returning
/// true abandons the pipeline; the partial AST is discarded exactly as
/// on a compile error, so cancellation leaves no state behind.
using PipelineCancelFn = std::function<bool()>;

namespace lowered {
struct Program;
}

/// A fully compiled program kept in memory: the type-checked AST (owned,
/// so references into it stay valid for the lifetime of this object),
/// the lowered functions (transform/Lowered.h) and the interval C printed
/// from them. This is the re-entrant pipeline product the serve mode
/// caches and its evaluator executes; the one-shot CLI only ever needs
/// \c EmittedC and never keeps the lowered form.
struct InMemoryProgram {
  std::unique_ptr<ASTContext> Ast;
  std::unique_ptr<lowered::Program> Lowered;
  std::string EmittedC;
  TransformOptions Opts;

  InMemoryProgram();
  ~InMemoryProgram();
  InMemoryProgram(InMemoryProgram &&) = default;
  InMemoryProgram &operator=(InMemoryProgram &&) = default;
};

/// Re-entrant pipeline entry: compiles C source text and returns the
/// program in memory (AST, lowered form and emitted interval C) instead
/// of text only.
/// Returns nullptr (with diagnostics in \p Diags) on any error; the
/// partially built AST is discarded, so a failed run leaves no state
/// behind — callers may invoke this concurrently from many threads.
std::unique_ptr<InMemoryProgram>
compileToProgram(std::string_view Source, const TransformOptions &Opts,
                 DiagnosticsEngine &Diags,
                 ProfileSiteTable *SitesOut = nullptr,
                 PipelineStage *FailedStage = nullptr,
                 const PipelineCancelFn &Cancel = {});

/// Compiles C source text to interval C. Returns std::nullopt (with
/// diagnostics in \p Diags) on any error. With Opts.Profile set and
/// \p SitesOut non-null, receives the compile-time profile site table.
/// \p FailedStage, when non-null, receives the stage that failed (None
/// on success). Parsing continues past recoverable syntax errors, so a
/// Parse failure can carry several diagnostics.
std::optional<std::string> compileToIntervals(std::string_view Source,
                                              const TransformOptions &Opts,
                                              DiagnosticsEngine &Diags,
                                              ProfileSiteTable *SitesOut =
                                                  nullptr,
                                              PipelineStage *FailedStage =
                                                  nullptr);

} // namespace igen

#endif // IGEN_TRANSFORM_PIPELINE_H
