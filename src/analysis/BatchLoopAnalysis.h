//===- BatchLoopAnalysis.h - Batched array-loop detection -------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recognition of elementwise array loops the transformer can route onto
/// the batched runtime (src/runtime/BatchKernels.h) instead of emitting a
/// per-element interval loop:
///
///     for (i = 0; i < n; i++)         // or ++i / i += 1; int or long i
///       d[i] = a[i] OP b[i];          // OP in + - * /
///     for (i = 0; i < n; i++)
///       d[i] = sqrt(a[i]);
///
/// where d, a, b are plain identifiers of pointer/array-of-double type
/// and every subscript is exactly the induction variable. The rewrite is
/// a pure strength reduction: the batch kernels compute the same
/// enclosures (div and sqrt bit-identically, via the shared
/// sign-classified routing) while amortizing the rounding-mode setup and
/// engaging the SIMD tiers. Full aliasing (d == a, d == a == b) is
/// allowed -- the runtime's kernels handle it exactly -- and partial
/// overlap cannot be expressed with plain identifier operands.
///
/// The matcher is deliberately structural and conservative: any
/// deviation (different subscript, extra statement in the body, bound
/// that is not a plain variable or literal, float element type, writes
/// to the bound inside the loop -- impossible here since the body is a
/// single recognized assignment) simply means no rewrite, never wrong
/// code.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_ANALYSIS_BATCHLOOPANALYSIS_H
#define IGEN_ANALYSIS_BATCHLOOPANALYSIS_H

#include "frontend/AST.h"

#include <optional>

namespace igen {

/// A recognized batchable loop.
struct BatchLoop {
  enum class Op { Add, Sub, Mul, Div, Sqrt };
  Op O = Op::Add;
  /// Destination, first and (binary ops only) second source arrays, as
  /// the DeclRefs appearing in the loop body.
  const DeclRefExpr *Dst = nullptr;
  const DeclRefExpr *A = nullptr;
  const DeclRefExpr *B = nullptr; ///< null for sqrt
  /// The trip-count expression (the `n` of `i < n`): a DeclRef or an
  /// integer literal.
  const Expr *Count = nullptr;

  /// ia_arr_* runtime suffix for the recognized operation.
  const char *opName() const {
    switch (O) {
    case Op::Add:
      return "add";
    case Op::Sub:
      return "sub";
    case Op::Mul:
      return "mul";
    case Op::Div:
      return "div";
    case Op::Sqrt:
      return "sqrt";
    }
    return "?";
  }
};

/// Matches \p S against the batchable-loop shape. Returns std::nullopt
/// when the loop does not match exactly.
std::optional<BatchLoop> matchBatchLoop(const ForStmt *S);

/// True when \p E is `++i`, `i++` or `i += 1` for the variable \p IV.
bool isUnitIncrement(const Expr *E, const VarDecl *IV);

/// The single statement of a loop body (unwrapping one-statement
/// compounds); null when the body has any other shape.
const Stmt *singleBodyStmt(const Stmt *Body);

} // namespace igen

#endif // IGEN_ANALYSIS_BATCHLOOPANALYSIS_H
