//===- ReductionAnalysis.h - Reduction detection ----------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Detection of reduction statements (Section VI-B). The paper runs Polly
/// on the LLVM-IR to find loop-carried self-dependences like
/// Stmt[i0,i1] -> Stmt[i0,i1+1] and maps them back to AST locations; here
/// the same information is computed directly on the AST: inside a loop
/// marked `#pragma igen reduce <vars>`, a statement
///
///     target = target + t1 [+ t2 ...]      (or +=, or t + target)
///
/// is a reduction when the root of `target` is the declaration a pragma
/// name resolves to, no term refers to that declaration, and indices in
/// `target` load nothing. It is carried by a loop when the target is the
/// same location on every iteration (no variable it reads is in the
/// loop's write set, init included) and nothing else in the loop refers
/// to the root declaration. The accumulator wraps the outermost loop,
/// from the innermost outward and never beyond the pragma loop, that
/// carries the update (Polly's reduction dependence gives the same
/// level).
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_ANALYSIS_REDUCTIONANALYSIS_H
#define IGEN_ANALYSIS_REDUCTIONANALYSIS_H

#include "frontend/AST.h"
#include "support/Diagnostics.h"

#include <vector>

namespace igen {

class WriteSets;

/// One additive term of a detected reduction.
struct ReductionTerm {
  const Expr *Term;
  bool Negated; ///< target = target - term
};

/// A detected reduction statement.
struct ReductionSite {
  /// The full update statement (an ExprStmt holding the assignment).
  const ExprStmt *Update = nullptr;
  /// The accumulation target (DeclRef or IndexExpr over the pragma var).
  const Expr *Target = nullptr;
  /// The terms accumulated per iteration.
  std::vector<ReductionTerm> Terms;
  /// Loop around which the accumulator is initialized/reduced: the
  /// outermost loop that carries the update.
  const ForStmt *AccumLoop = nullptr;
};

/// Result of analyzing one function: its reduction sites.
struct ReductionAnalysisResult {
  std::vector<ReductionSite> Sites;

  /// Sites whose accumulator wraps the given loop.
  std::vector<const ReductionSite *> sitesForLoop(const Stmt *Loop) const {
    std::vector<const ReductionSite *> Out;
    for (const ReductionSite &Site : Sites)
      if (Site.AccumLoop == Loop)
        Out.push_back(&Site);
    return Out;
  }
};

/// Runs reduction detection over \p F, whose write sets are \p Writes.
/// Sites are in source order. Emits warnings for pragma loops in which
/// no reduction could be identified.
ReductionAnalysisResult analyzeReductions(const FunctionDecl &F,
                                          const WriteSets &Writes,
                                          DiagnosticsEngine &Diags);

} // namespace igen

#endif // IGEN_ANALYSIS_REDUCTIONANALYSIS_H
