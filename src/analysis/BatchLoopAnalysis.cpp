//===- BatchLoopAnalysis.cpp - Batched array-loop detection ---------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "analysis/BatchLoopAnalysis.h"

namespace igen {

namespace {

/// The induction variable declared or assigned in the loop init, when
/// the init has the shape `int i = 0` / `i = 0`.
const VarDecl *inductionFromInit(const Stmt *Init) {
  if (!Init)
    return nullptr;
  if (const auto *D = dynCast<DeclStmt>(Init)) {
    if (D->Decls.size() != 1)
      return nullptr;
    const VarDecl *V = D->Decls[0];
    if (!V->Init || !V->Ty || !V->Ty->isInteger())
      return nullptr;
    const auto *Zero = dynCast<IntLiteralExpr>(ignoreParens(V->Init));
    return Zero && Zero->Value == 0 ? V : nullptr;
  }
  if (const auto *E = dynCast<ExprStmt>(Init)) {
    const auto *Assign = dynCast<BinaryExpr>(ignoreParens(E->E));
    if (!Assign || Assign->O != BinaryExpr::Op::Assign)
      return nullptr;
    const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(Assign->LHS));
    const auto *Zero = dynCast<IntLiteralExpr>(ignoreParens(Assign->RHS));
    if (!Ref || !Ref->Decl || !Zero || Zero->Value != 0)
      return nullptr;
    return Ref->Decl;
  }
  return nullptr;
}

/// Matches `base[iv]` where base is a plain identifier of pointer/array
/// of double; returns the base DeclRef or null.
const DeclRefExpr *matchSubscript(const Expr *E, const VarDecl *IV) {
  const auto *Ix = dynCast<IndexExpr>(ignoreParens(E));
  if (!Ix)
    return nullptr;
  const auto *Idx = dynCast<DeclRefExpr>(ignoreParens(Ix->Idx));
  if (!Idx || Idx->Decl != IV)
    return nullptr;
  const auto *Base = dynCast<DeclRefExpr>(ignoreParens(Ix->Base));
  if (!Base || !Base->Decl)
    return nullptr;
  const Type *T = Base->type();
  if (!T || (!T->isPointer() && !T->isArray()) || !T->element() ||
      T->element()->kind() != Type::Kind::Double)
    return nullptr;
  return Base;
}

} // namespace

std::optional<BatchLoop> matchBatchLoop(const ForStmt *S) {
  const VarDecl *IV = inductionFromInit(S->Init);
  if (!IV || !S->Cond || !S->Inc || !S->Body)
    return std::nullopt;
  if (!isUnitIncrement(S->Inc, IV))
    return std::nullopt;

  // Condition: `i < n`, n a plain variable or an integer literal. The
  // body below references no integer variable, so n is loop-invariant.
  const auto *Cmp = dynCast<BinaryExpr>(ignoreParens(S->Cond));
  if (!Cmp || Cmp->O != BinaryExpr::Op::LT)
    return std::nullopt;
  const auto *CondIv = dynCast<DeclRefExpr>(ignoreParens(Cmp->LHS));
  if (!CondIv || CondIv->Decl != IV)
    return std::nullopt;
  const Expr *Count = ignoreParens(Cmp->RHS);
  if (const auto *Bound = dynCast<DeclRefExpr>(Count)) {
    if (!Bound->Decl || Bound->Decl == IV)
      return std::nullopt;
  } else if (!dynCast<IntLiteralExpr>(Count)) {
    return std::nullopt;
  }

  const auto *BodyStmt = dynCast<ExprStmt>(singleBodyStmt(S->Body));
  if (!BodyStmt)
    return std::nullopt;
  const auto *Assign = dynCast<BinaryExpr>(ignoreParens(BodyStmt->E));
  if (!Assign || Assign->O != BinaryExpr::Op::Assign)
    return std::nullopt;

  BatchLoop L;
  L.Count = Count;
  L.Dst = matchSubscript(Assign->LHS, IV);
  if (!L.Dst)
    return std::nullopt;

  const Expr *Rhs = ignoreParens(Assign->RHS);
  if (const auto *Call = dynCast<CallExpr>(Rhs)) {
    if (Call->Callee != "sqrt" || Call->Args.size() != 1)
      return std::nullopt;
    L.O = BatchLoop::Op::Sqrt;
    L.A = matchSubscript(Call->Args[0], IV);
    return L.A ? std::optional<BatchLoop>(L) : std::nullopt;
  }

  const auto *Bin = dynCast<BinaryExpr>(Rhs);
  if (!Bin)
    return std::nullopt;
  switch (Bin->O) {
  case BinaryExpr::Op::Add:
    L.O = BatchLoop::Op::Add;
    break;
  case BinaryExpr::Op::Sub:
    L.O = BatchLoop::Op::Sub;
    break;
  case BinaryExpr::Op::Mul:
    L.O = BatchLoop::Op::Mul;
    break;
  case BinaryExpr::Op::Div:
    L.O = BatchLoop::Op::Div;
    break;
  default:
    return std::nullopt;
  }
  L.A = matchSubscript(Bin->LHS, IV);
  L.B = matchSubscript(Bin->RHS, IV);
  if (!L.A || !L.B)
    return std::nullopt;
  return L;
}

bool isUnitIncrement(const Expr *E, const VarDecl *IV) {
  E = ignoreParens(E);
  if (const auto *U = dynCast<UnaryExpr>(E)) {
    if (U->O != UnaryExpr::Op::PreInc && U->O != UnaryExpr::Op::PostInc)
      return false;
    const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(U->Sub));
    return Ref && Ref->Decl == IV;
  }
  if (const auto *B = dynCast<BinaryExpr>(E)) {
    if (B->O != BinaryExpr::Op::AddAssign)
      return false;
    const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(B->LHS));
    const auto *One = dynCast<IntLiteralExpr>(ignoreParens(B->RHS));
    return Ref && Ref->Decl == IV && One && One->Value == 1;
  }
  return false;
}

const Stmt *singleBodyStmt(const Stmt *Body) {
  while (const auto *C = dynCast<CompoundStmt>(Body)) {
    if (C->Body.size() != 1)
      return nullptr;
    Body = C->Body[0];
  }
  return Body;
}

} // namespace igen
