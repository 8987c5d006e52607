//===- Movability.cpp - Result-movability lattice for --tier --------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "opt/Movability.h"

#include "analysis/AstQueries.h"

#include <cmath>
#include <set>
#include <vector>

using namespace igen;

namespace {

/// Largest double below which every integer is exactly representable.
const double MaxExactInt = 9007199254740992.0; // 2^53

/// The math calls whose interval transfer functions are exact given
/// exact inputs: they only select, copy or round-to-integer endpoint
/// values, never round real results. (Sema has already normalized the
/// spelling variants; we accept both forms defensively.)
bool isExactMathCall(const std::string &Callee) {
  return Callee == "fabs" || Callee == "abs" || Callee == "fmin" ||
         Callee == "min" || Callee == "fmax" || Callee == "max" ||
         Callee == "floor" || Callee == "ceil" || Callee == "fabsf" ||
         Callee == "fminf" || Callee == "fmaxf" || Callee == "floorf" ||
         Callee == "ceilf";
}

class MovabilityAnalysis {
public:
  explicit MovabilityAnalysis(const FunctionDecl &F) : F(F) {}

  MovabilityInfo run() {
    MovabilityInfo Info;
    if (!F.Body)
      return Info;
    forEachExprIn(F.Body, [&](const Expr *E) {
      HasFloatStore = HasFloatStore || exprHasFloatStore(E);
    });
    for (const VarDecl *P : F.Params)
      if (!P->HasTolerance)
        Exact.insert(P);
    AllReturnsExact = true;
    ControlExact = true;
    SawValueReturn = false;
    transferStmt(F.Body);
    Info.ControlExact = ControlExact;
    Info.ResultImmovable = SawValueReturn && AllReturnsExact && ControlExact;
    return Info;
  }

private:
  //===--------------------------------------------------------------------===//
  // Float-store prescan
  //===--------------------------------------------------------------------===//

  static bool isFloatMemWrite(const Expr *E) {
    const auto *B = dynCast<BinaryExpr>(ignoreParens(E));
    if (!B || !B->isAssignment())
      return false;
    const Expr *L = ignoreParens(B->LHS);
    bool IsMem = L->kind() == Expr::Kind::Index ||
                 (L->kind() == Expr::Kind::Unary &&
                  cast<UnaryExpr>(L)->O == UnaryExpr::Op::Deref);
    return IsMem && L->type() && L->type()->isFloating();
  }

  static bool exprHasFloatStore(const Expr *E) {
    if (isFloatMemWrite(E))
      return true;
    bool Found = false;
    forEachChild(E, [&](const Expr *C) { Found |= exprHasFloatStore(C); });
    return Found;
  }

  //===--------------------------------------------------------------------===//
  // Expression exactness under the current variable state
  //===--------------------------------------------------------------------===//

  /// True when both tiers provably compute the identical value for \p E.
  /// Non-floating expressions are trivially exact: integer and pointer
  /// code is emitted verbatim in both tiers.
  bool exprExact(const Expr *E) {
    if (!E)
      return true;
    E = ignoreParens(E);
    const Type *T = E->type();
    if (T && !T->isFloating())
      return !T->isSimdVector(); // int/pointer identical; SIMD ineligible
    switch (E->kind()) {
    case Expr::Kind::IntLiteral:
      return true;
    case Expr::Kind::FloatLiteral: {
      const auto *L = cast<FloatLiteralExpr>(E);
      if (L->IsTolerance)
        return false; // dd widens v +/- tol more tightly
      // Integral values are exactly representable in double, so both
      // tiers lift them to the same point interval. Non-integral
      // spellings may round (0.1), where the dd lift is tighter.
      return std::floor(L->Value) == L->Value &&
             std::fabs(L->Value) <= MaxExactInt;
    }
    case Expr::Kind::DeclRef: {
      const auto *D = cast<DeclRefExpr>(E);
      return D->Decl && Exact.count(D->Decl) != 0;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      switch (U->O) {
      case UnaryExpr::Op::Neg:
      case UnaryExpr::Op::Plus:
        return exprExact(U->Sub);
      case UnaryExpr::Op::Deref:
        return !HasFloatStore && exprExact(U->Sub);
      default:
        return false;
      }
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (B->O == BinaryExpr::Op::Assign)
        return exprExact(B->RHS); // value of the assignment expression
      return false; // rounded arithmetic (incl. compound assigns)
    }
    case Expr::Kind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      return condExact(C->Cond) && exprExact(C->Then) && exprExact(C->Else);
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      if (!isExactMathCall(C->Callee))
        return false;
      for (const Expr *A : C->Args)
        if (!exprExact(A))
          return false;
      return true;
    }
    case Expr::Kind::Index:
      return !HasFloatStore; // load of untouched (exact param) memory
    case Expr::Kind::Cast:
      // float <-> double casts round identically given identical inputs.
      return exprExact(cast<CastExpr>(E)->Sub);
    case Expr::Kind::Paren:
      return exprExact(cast<ParenExpr>(E)->Sub);
    }
    return false;
  }

  /// Condition exactness: every floating comparison reachable in \p E
  /// must have exact operands for both tiers to branch identically.
  /// Integer-only conditions are always exact.
  bool condExact(const Expr *E) {
    if (!E)
      return true;
    E = ignoreParens(E);
    if (const auto *B = dynCast<BinaryExpr>(E)) {
      if (B->isComparison()) {
        const Type *LT = ignoreParens(B->LHS)->type();
        const Type *RT = ignoreParens(B->RHS)->type();
        bool Floating = (LT && LT->isFloating()) || (RT && RT->isFloating());
        return !Floating || (exprExact(B->LHS) && exprExact(B->RHS));
      }
      if (B->O == BinaryExpr::Op::LAnd || B->O == BinaryExpr::Op::LOr)
        return condExact(B->LHS) && condExact(B->RHS);
    }
    if (const auto *U = dynCast<UnaryExpr>(E))
      if (U->O == UnaryExpr::Op::LogicalNot)
        return condExact(U->Sub);
    // A bare value used as a condition: exact iff the value is.
    return exprExact(E);
  }

  //===--------------------------------------------------------------------===//
  // Dataflow over statements
  //===--------------------------------------------------------------------===//

  /// Applies assignments in \p E to the variable state (in evaluation
  /// order for the few compound forms the subset allows).
  void transferExpr(const Expr *E) {
    if (!E)
      return;
    E = ignoreParens(E);
    const auto *B = dynCast<BinaryExpr>(E);
    if (B && B->isAssignment()) {
      transferExpr(B->RHS);
      const Expr *L = ignoreParens(B->LHS);
      if (const auto *D = dynCast<DeclRefExpr>(L)) {
        if (D->Decl) {
          bool IsExact =
              B->O == BinaryExpr::Op::Assign && exprExact(B->RHS);
          if (IsExact)
            Exact.insert(D->Decl);
          else
            Exact.erase(D->Decl);
        }
      }
      return;
    }
    if (const auto *C = dynCast<ConditionalExpr>(E))
      if (!condExact(C->Cond))
        ControlExact = false;
    forEachChild(E, [&](const Expr *C) { transferExpr(C); });
  }

  void transferStmt(const Stmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case Stmt::Kind::Compound:
      for (const Stmt *C : cast<CompoundStmt>(S)->Body)
        transferStmt(C);
      return;
    case Stmt::Kind::DeclStmt:
      for (const VarDecl *D : cast<DeclStmt>(S)->Decls) {
        transferExpr(D->Init);
        if (D->Init && exprExact(D->Init))
          Exact.insert(D);
        else
          Exact.erase(D);
      }
      return;
    case Stmt::Kind::ExprStmt:
      transferExpr(cast<ExprStmt>(S)->E);
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      if (!condExact(I->Cond))
        ControlExact = false;
      transferExpr(I->Cond);
      std::set<const VarDecl *> In = Exact;
      transferStmt(I->Then);
      std::set<const VarDecl *> ThenOut = std::move(Exact);
      Exact = In;
      transferStmt(I->Else); // no-op state change when Else is null
      intersectInto(Exact, ThenOut);
      return;
    }
    case Stmt::Kind::For: {
      const auto *L = cast<ForStmt>(S);
      transferStmt(L->Init);
      loopFixpoint(L->Cond, L->Body, L->Inc);
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      loopFixpoint(W->Cond, W->Body, nullptr);
      return;
    }
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(S);
      // Body runs at least once; the fixpoint below covers repeats.
      loopFixpoint(D->Cond, D->Body, nullptr);
      transferStmt(D->Body);
      if (!condExact(D->Cond))
        ControlExact = false;
      transferExpr(D->Cond);
      return;
    }
    case Stmt::Kind::Return: {
      const auto *R = cast<ReturnStmt>(S);
      if (R->Value) {
        SawValueReturn = true;
        transferExpr(R->Value);
        if (!exprExact(R->Value))
          AllReturnsExact = false;
      }
      return;
    }
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      // Conservative: loop-exit state is the head fixpoint, which the
      // state at any break/continue always contains.
      return;
    case Stmt::Kind::Null:
      return;
    }
  }

  /// Descending fixpoint for a loop: the state at the loop head is the
  /// largest exact-set stable under one more body execution. Also the
  /// loop-exit state (zero-trip loops keep the entry state, so exit =
  /// entry intersect stable-head = stable-head).
  void loopFixpoint(const Expr *Cond, const Stmt *Body, const Expr *Inc) {
    for (;;) {
      std::set<const VarDecl *> Head = Exact;
      if (!condExact(Cond))
        ControlExact = false;
      transferExpr(Cond);
      transferStmt(Body);
      transferExpr(Inc);
      intersectInto(Exact, Head);
      if (Exact == Head)
        return;
    }
  }

  static void intersectInto(std::set<const VarDecl *> &A,
                            const std::set<const VarDecl *> &B) {
    for (auto It = A.begin(); It != A.end();)
      It = B.count(*It) ? std::next(It) : A.erase(It);
  }

  const FunctionDecl &F;
  std::set<const VarDecl *> Exact;
  bool HasFloatStore = false;
  bool AllReturnsExact = true;
  bool ControlExact = true;
  bool SawValueReturn = false;
};

} // namespace

MovabilityInfo igen::analyzeMovability(const FunctionDecl &F) {
  return MovabilityAnalysis(F).run();
}
