//===- AstQueries.cpp - AST queries shared by the analyses ----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "analysis/AstQueries.h"

#include "frontend/Sema.h"

#include <iterator>

using namespace igen;

void igen::forEachSubexprPruned(const Expr *E,
                                const std::function<bool(const Expr *)> &Fn) {
  if (!E || !Fn(E))
    return;
  forEachChild(E, [&](const Expr *Sub) { forEachSubexprPruned(Sub, Fn); });
}

bool igen::exprEqual(const Expr *A, const Expr *B) {
  A = ignoreParens(A);
  B = ignoreParens(B);
  if (A->kind() != B->kind())
    return false;
  switch (A->kind()) {
  case Expr::Kind::IntLiteral:
    return cast<IntLiteralExpr>(A)->Value == cast<IntLiteralExpr>(B)->Value;
  case Expr::Kind::FloatLiteral: {
    // The spelling, not just the value: a double-double enclosure and a
    // tolerance are lifted from the decimal text.
    const auto *FA = cast<FloatLiteralExpr>(A), *FB = cast<FloatLiteralExpr>(B);
    return FA->Spelling == FB->Spelling &&
           FA->IsFloatSuffix == FB->IsFloatSuffix &&
           FA->IsTolerance == FB->IsTolerance;
  }
  case Expr::Kind::DeclRef: {
    const VarDecl *D = cast<DeclRefExpr>(A)->Decl;
    return D && D == cast<DeclRefExpr>(B)->Decl;
  }
  case Expr::Kind::Unary: {
    const auto *UA = cast<UnaryExpr>(A), *UB = cast<UnaryExpr>(B);
    return UA->O == UB->O && exprEqual(UA->Sub, UB->Sub);
  }
  case Expr::Kind::Binary: {
    const auto *BA = cast<BinaryExpr>(A), *BB = cast<BinaryExpr>(B);
    return BA->O == BB->O && exprEqual(BA->LHS, BB->LHS) &&
           exprEqual(BA->RHS, BB->RHS);
  }
  case Expr::Kind::Conditional: {
    const auto *CA = cast<ConditionalExpr>(A), *CB = cast<ConditionalExpr>(B);
    return exprEqual(CA->Cond, CB->Cond) && exprEqual(CA->Then, CB->Then) &&
           exprEqual(CA->Else, CB->Else);
  }
  case Expr::Kind::Call: {
    const auto *CA = cast<CallExpr>(A), *CB = cast<CallExpr>(B);
    if (CA->Callee != CB->Callee || CA->Args.size() != CB->Args.size())
      return false;
    for (size_t I = 0; I < CA->Args.size(); ++I)
      if (!exprEqual(CA->Args[I], CB->Args[I]))
        return false;
    return true;
  }
  case Expr::Kind::Index: {
    const auto *IA = cast<IndexExpr>(A), *IB = cast<IndexExpr>(B);
    return exprEqual(IA->Base, IB->Base) && exprEqual(IA->Idx, IB->Idx);
  }
  case Expr::Kind::Cast: {
    const auto *CA = cast<CastExpr>(A), *CB = cast<CastExpr>(B);
    return CA->To == CB->To && exprEqual(CA->Sub, CB->Sub);
  }
  case Expr::Kind::Paren:
    return false; // unreachable: parens stripped above
  }
  return false;
}

bool igen::exprIsPureValue(const Expr *E, bool AllowLoads) {
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
  case Expr::Kind::FloatLiteral:
  case Expr::Kind::DeclRef:
    return true;
  case Expr::Kind::Paren:
    return exprIsPureValue(cast<ParenExpr>(E)->Sub, AllowLoads);
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->O == UnaryExpr::Op::Neg || U->O == UnaryExpr::Op::Plus)
      return exprIsPureValue(U->Sub, AllowLoads);
    if (U->O == UnaryExpr::Op::Deref)
      return AllowLoads && exprIsPureValue(U->Sub, AllowLoads);
    return false;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    switch (B->O) {
    case BinaryExpr::Op::Add:
    case BinaryExpr::Op::Sub:
    case BinaryExpr::Op::Mul:
    case BinaryExpr::Op::Div:
    case BinaryExpr::Op::Rem:
    case BinaryExpr::Op::Shl:
    case BinaryExpr::Op::Shr:
    case BinaryExpr::Op::BitAnd:
    case BinaryExpr::Op::BitOr:
    case BinaryExpr::Op::BitXor:
      return exprIsPureValue(B->LHS, AllowLoads) &&
             exprIsPureValue(B->RHS, AllowLoads);
    default:
      return false; // assignments, comparisons, && / ||
    }
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    if (classifyCallee(C->Callee) != CalleeKind::MathFunction)
      return false;
    for (const Expr *A : C->Args)
      if (!exprIsPureValue(A, AllowLoads))
        return false;
    return true;
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    return AllowLoads && exprIsPureValue(I->Base, AllowLoads) &&
           exprIsPureValue(I->Idx, AllowLoads);
  }
  case Expr::Kind::Cast:
    return exprIsPureValue(cast<CastExpr>(E)->Sub, AllowLoads);
  default:
    return false;
  }
}

const VarDecl *igen::lvalueRoot(const Expr *E) {
  E = ignoreParens(E);
  while (true) {
    if (const auto *I = dynCast<IndexExpr>(E)) {
      E = ignoreParens(I->Base);
      continue;
    }
    const auto *U = dynCast<UnaryExpr>(E);
    if (U && U->O == UnaryExpr::Op::Deref) {
      E = ignoreParens(U->Sub);
      continue;
    }
    break;
  }
  const auto *D = dynCast<DeclRefExpr>(E);
  return D ? D->Decl : nullptr;
}

bool igen::fixedLocation(const Expr *E, const VarSet &Writes) {
  const Expr *T = ignoreParens(E);
  if (T->kind() == Expr::Kind::DeclRef)
    return true;
  bool Fixed = true;
  forEachDeclRef(T, [&](const DeclRefExpr *Ref) {
    if (!Ref->Decl || setHas(Writes, Ref->Decl))
      Fixed = false;
  });
  return Fixed;
}

//===----------------------------------------------------------------------===//
// Variable writes
//===----------------------------------------------------------------------===//

WriteSets::WriteSets(const Stmt *Body) {
  VarSet Outside;
  walk(Body, Outside);
  sortUnique(AddrTaken);
}

VarSet WriteSets::loopAndInit(const Stmt *Loop) const {
  const VarSet &Iter = loop(Loop);
  const auto *FS = dynCast<ForStmt>(Loop);
  if (!FS)
    return Iter;
  const VarSet &Init = ForInits.at(FS);
  VarSet Mod;
  Mod.reserve(Iter.size() + Init.size());
  std::set_union(Iter.begin(), Iter.end(), Init.begin(), Init.end(),
                 std::back_inserter(Mod), std::less<>());
  return Mod;
}

/// Appends the writes of \p S to \p Out and records every loop in it.
void WriteSets::walk(const Stmt *S, VarSet &Out) {
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
      walk(Sub, Out);
    return;
  case Stmt::Kind::DeclStmt:
    for (const VarDecl *D : cast<DeclStmt>(S)->Decls) {
      Out.push_back(D); // re-initialized every time it runs
      if (D->Init)
        walk(D->Init, Out);
    }
    return;
  case Stmt::Kind::ExprStmt:
    walk(cast<ExprStmt>(S)->E, Out);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    walk(I->Cond, Out);
    walk(I->Then, Out);
    if (I->Else)
      walk(I->Else, Out);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    VarSet Init, Iter;
    if (F->Init)
      walk(F->Init, Init);
    if (F->Cond)
      walk(F->Cond, Iter);
    if (F->Inc)
      walk(F->Inc, Iter);
    if (F->Body)
      walk(F->Body, Iter);
    Out.insert(Out.end(), Init.begin(), Init.end());
    sortUnique(Init);
    ForInits[F] = std::move(Init);
    finishLoop(F, std::move(Iter), Out);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    VarSet Iter;
    walk(W->Cond, Iter);
    walk(W->Body, Iter);
    finishLoop(W, std::move(Iter), Out);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    VarSet Iter;
    walk(D->Body, Iter);
    walk(D->Cond, Iter);
    finishLoop(D, std::move(Iter), Out);
    return;
  }
  case Stmt::Kind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->Value)
      walk(V, Out);
    return;
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
  case Stmt::Kind::Null:
    return;
  }
}

void WriteSets::finishLoop(const Stmt *Loop, VarSet Iter, VarSet &Out) {
  sortUnique(Iter);
  Out.insert(Out.end(), Iter.begin(), Iter.end());
  Loops[Loop] = std::move(Iter);
}

void WriteSets::walk(const Expr *E, VarSet &Out) {
  if (const auto *B = dynCast<BinaryExpr>(E)) {
    if (B->isAssignment())
      if (const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(B->LHS)))
        if (Ref->Decl)
          Out.push_back(Ref->Decl);
  } else if (const auto *U = dynCast<UnaryExpr>(E)) {
    const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(U->Sub));
    if (Ref && Ref->Decl) {
      if (U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PreDec ||
          U->O == UnaryExpr::Op::PostInc || U->O == UnaryExpr::Op::PostDec)
        Out.push_back(Ref->Decl);
      else if (U->O == UnaryExpr::Op::AddrOf)
        AddrTaken.push_back(Ref->Decl);
    }
  }
  forEachChild(E, [&](const Expr *Sub) { walk(Sub, Out); });
}
