//===- AstQueries.h - AST queries shared by the analyses --------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AST queries the mid-end (src/opt), the reduction analysis and the
/// transformer share, each defined once: the walks over an expression's
/// children and a statement's expressions, structural equality, purity,
/// the root variable of an lvalue, and what each loop of a function
/// writes. Variables are compared by the VarDecl Sema resolved, never by
/// name, so a shadowing declaration is always a different variable.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_ANALYSIS_ASTQUERIES_H
#define IGEN_ANALYSIS_ASTQUERIES_H

#include "frontend/AST.h"

#include <algorithm>
#include <functional>
#include <unordered_map>
#include <vector>

namespace igen {

/// Calls \p Fn on each direct subexpression of \p E.
template <typename FnT> void forEachChild(const Expr *E, FnT &&Fn) {
  switch (E->kind()) {
  case Expr::Kind::Paren:
    Fn(cast<ParenExpr>(E)->Sub);
    return;
  case Expr::Kind::Unary:
    Fn(cast<UnaryExpr>(E)->Sub);
    return;
  case Expr::Kind::Binary:
    Fn(cast<BinaryExpr>(E)->LHS);
    Fn(cast<BinaryExpr>(E)->RHS);
    return;
  case Expr::Kind::Conditional:
    Fn(cast<ConditionalExpr>(E)->Cond);
    Fn(cast<ConditionalExpr>(E)->Then);
    Fn(cast<ConditionalExpr>(E)->Else);
    return;
  case Expr::Kind::Call:
    for (const Expr *A : cast<CallExpr>(E)->Args)
      Fn(A);
    return;
  case Expr::Kind::Index:
    Fn(cast<IndexExpr>(E)->Base);
    Fn(cast<IndexExpr>(E)->Idx);
    return;
  case Expr::Kind::Cast:
    Fn(cast<CastExpr>(E)->Sub);
    return;
  default:
    return;
  }
}

/// Calls \p Fn on each expression statement \p S holds, nested
/// statements included: initializers, conditions, increments and
/// returned values, in source order (a do-loop's condition after its
/// body).
template <typename FnT> void forEachExprIn(const Stmt *S, FnT &&Fn) {
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
      forEachExprIn(Sub, Fn);
    return;
  case Stmt::Kind::DeclStmt:
    for (const VarDecl *D : cast<DeclStmt>(S)->Decls)
      if (D->Init)
        Fn(D->Init);
    return;
  case Stmt::Kind::ExprStmt:
    Fn(cast<ExprStmt>(S)->E);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    Fn(I->Cond);
    forEachExprIn(I->Then, Fn);
    if (I->Else)
      forEachExprIn(I->Else, Fn);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    if (F->Init)
      forEachExprIn(F->Init, Fn);
    if (F->Cond)
      Fn(F->Cond);
    if (F->Inc)
      Fn(F->Inc);
    if (F->Body)
      forEachExprIn(F->Body, Fn);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    Fn(W->Cond);
    forEachExprIn(W->Body, Fn);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    forEachExprIn(D->Body, Fn);
    Fn(D->Cond);
    return;
  }
  case Stmt::Kind::Return:
    if (const Expr *V = cast<ReturnStmt>(S)->Value)
      Fn(V);
    return;
  default:
    return;
  }
}

/// Calls \p Fn on every variable reference in \p E.
template <typename FnT> void forEachDeclRef(const Expr *E, FnT &&Fn) {
  if (const auto *Ref = dynCast<DeclRefExpr>(E)) {
    Fn(Ref);
    return;
  }
  forEachChild(E, [&](const Expr *Sub) { forEachDeclRef(Sub, Fn); });
}

/// Pre-order walk over \p E and its subexpressions. When \p Fn returns
/// false the node's children are skipped. Lets the transformer count
/// which CSE occurrences remain visible once enclosing expressions have
/// been replaced by temporaries.
void forEachSubexprPruned(const Expr *E,
                          const std::function<bool(const Expr *)> &Fn);

/// Structural equality, parentheses ignored. Variables compare by their
/// resolved declaration (an unresolved one equals nothing), literals by
/// spelling and suffix, so two equal expressions always lower to the
/// same interval code.
bool exprEqual(const Expr *A, const Expr *B);

/// True when \p E is a side-effect-free value computation whose
/// transformed form is a plain expression: safe to re-evaluate or
/// reorder against other pure values. With \p AllowLoads, Index/Deref
/// reads count as pure (fine within one statement; not across loop
/// iterations).
bool exprIsPureValue(const Expr *E, bool AllowLoads = true);

/// The variable at the root of an lvalue chain (`y` in y, y[i], *y), or
/// null when the chain bottoms out in something else (pointer
/// arithmetic, an unresolved name).
const VarDecl *lvalueRoot(const Expr *E);

/// A small set of variables, sorted by address. The order serves
/// membership tests only; nothing may be emitted in it.
using VarSet = std::vector<const VarDecl *>;

inline bool setHas(const VarSet &S, const VarDecl *D) {
  return std::binary_search(S.begin(), S.end(), D, std::less<>());
}

inline void sortUnique(VarSet &S) {
  std::sort(S.begin(), S.end(), std::less<>());
  S.erase(std::unique(S.begin(), S.end()), S.end());
}

/// True when the lvalue \p E is the same location on every iteration of
/// a loop that writes \p Writes: a scalar, or an element whose base and
/// index variables the loop does not write.
bool fixedLocation(const Expr *E, const VarSet &Writes);

/// What one walk over a function body finds out about writes: for each
/// loop, the variables an iteration may write (its condition, body and
/// increment assign, increment, decrement or declare them, nested loops
/// included); for each for-loop, what its init statement writes; and the
/// variables whose address is taken. Built once per function; the range
/// analysis, the CSE/LICM/versioning/row-kernel collector and the
/// reduction analysis all read it.
class WriteSets {
public:
  explicit WriteSets(const Stmt *Body);

  /// Variables one iteration of the for/while/do statement \p Loop may
  /// write.
  const VarSet &loop(const Stmt *Loop) const { return Loops.at(Loop); }
  /// Everything \p Loop writes or declares, a for-loop's init included.
  VarSet loopAndInit(const Stmt *Loop) const;
  bool addressTaken(const VarDecl *D) const { return setHas(AddrTaken, D); }

private:
  std::unordered_map<const Stmt *, VarSet> Loops;
  std::unordered_map<const ForStmt *, VarSet> ForInits;
  VarSet AddrTaken;

  void walk(const Stmt *S, VarSet &Out);
  void walk(const Expr *E, VarSet &Out);
  void finishLoop(const Stmt *Loop, VarSet Iter, VarSet &Out);
};

} // namespace igen

#endif // IGEN_ANALYSIS_ASTQUERIES_H
