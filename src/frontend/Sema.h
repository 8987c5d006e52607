//===- Sema.h - Semantic analysis for the C subset --------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name resolution and type checking. Sema also enforces IGen's documented
/// limitations (Section IV-B): no bit-level manipulation of floating-point
/// values, no float-to-integer casts, and a warning on malloc (byte counts
/// do not survive the interval type promotion).
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_FRONTEND_SEMA_H
#define IGEN_FRONTEND_SEMA_H

#include "frontend/AST.h"
#include "support/Diagnostics.h"

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace igen {

/// Classifies known callees so Sema can type calls and the transformer can
/// translate them.
enum class CalleeKind {
  UserFunction, ///< defined/declared in this translation unit
  MathFunction, ///< sin, cos, exp, log, sqrt, fabs, floor, ceil, tan, fmin, fmax
  Intrinsic,    ///< _mm*/_mm256* SIMD intrinsic
  Allocation,   ///< malloc/calloc/free
  Unknown,
};

CalleeKind classifyCallee(std::string_view Name);

/// Return type of a SIMD intrinsic derived from its name, or null if the
/// intrinsic is unknown. (Names follow Intel's conventions; the full
/// operational semantics come from the simdspec generator.)
const Type *intrinsicReturnType(const std::string &Name, TypeContext &Types);

class Sema {
public:
  Sema(ASTContext &Ctx, DiagnosticsEngine &Diags)
      : Ctx(Ctx), Diags(Diags) {}

  /// Resolves and type-checks the whole translation unit. Returns false if
  /// errors were reported.
  bool run();

private:
  void checkFunction(FunctionDecl *F);
  void checkStmt(Stmt *S);
  void checkVarDecl(VarDecl *D);
  const Type *checkExpr(Expr *E);
  const Type *checkCall(CallExpr *E);
  const Type *commonArithType(const Type *A, const Type *B);

  void pushScope() { Scopes.emplace_back(); }
  void popScope() { Scopes.pop_back(); }
  void declare(VarDecl *D);
  VarDecl *lookup(const std::string &Name);

  ASTContext &Ctx;
  DiagnosticsEngine &Diags;
  std::vector<std::map<std::string, VarDecl *>> Scopes;
  FunctionDecl *CurFunction = nullptr;
};

} // namespace igen

#endif // IGEN_FRONTEND_SEMA_H
