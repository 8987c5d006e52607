//===- ReductionAnalysis.cpp - Reduction detection ---------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "analysis/ReductionAnalysis.h"

#include "analysis/AstQueries.h"

#include <algorithm>

using namespace igen;

namespace {

/// Flattens an additive expression tree into signed terms.
void flattenAdditive(const Expr *E, bool Negated,
                     std::vector<ReductionTerm> &Out) {
  if (const auto *B = dynCast<BinaryExpr>(ignoreParens(E))) {
    if (B->O == BinaryExpr::Op::Add) {
      flattenAdditive(B->LHS, Negated, Out);
      flattenAdditive(B->RHS, Negated, Out);
      return;
    }
    if (B->O == BinaryExpr::Op::Sub) {
      flattenAdditive(B->LHS, Negated, Out);
      flattenAdditive(B->RHS, !Negated, Out);
      return;
    }
  }
  Out.push_back(ReductionTerm{E, Negated});
}

/// The terms \p Assign adds to its target, or none when it is not an
/// accumulation (`t += ...`, `t -= ...`, or `t = <sum holding t once>`).
std::vector<ReductionTerm> accumulatedTerms(const BinaryExpr *Assign) {
  std::vector<ReductionTerm> Terms;
  switch (Assign->O) {
  case BinaryExpr::Op::AddAssign:
  case BinaryExpr::Op::SubAssign:
    flattenAdditive(Assign->RHS, Assign->O == BinaryExpr::Op::SubAssign,
                    Terms);
    return Terms;
  case BinaryExpr::Op::Assign: {
    std::vector<ReductionTerm> All;
    flattenAdditive(Assign->RHS, false, All);
    int TargetHits = 0;
    for (const ReductionTerm &T : All) {
      if (!T.Negated && exprEqual(T.Term, Assign->LHS))
        ++TargetHits;
      else
        Terms.push_back(T);
    }
    if (TargetHits != 1)
      Terms.clear();
    return Terms;
  }
  default:
    return Terms;
  }
}

/// True when \p E refers to the variable \p D anywhere.
bool mentions(const Expr *E, const VarDecl *D) {
  bool Found = false;
  forEachDeclRef(E, [&](const DeclRefExpr *Ref) {
    Found = Found || Ref->Decl == D;
  });
  return Found;
}

/// True when the element \p Target addresses is computed without a load:
/// the write sets track variables, not memory.
bool loadFreeIndices(const Expr *Target) {
  for (const Expr *E = ignoreParens(Target);;) {
    if (const auto *I = dynCast<IndexExpr>(E)) {
      if (!exprIsPureValue(I->Idx, /*AllowLoads=*/false))
        return false;
      E = ignoreParens(I->Base);
      continue;
    }
    const auto *U = dynCast<UnaryExpr>(E);
    if (!U || U->O != UnaryExpr::Op::Deref)
      return true;
    E = ignoreParens(U->Sub);
  }
}

class ReductionFinder {
public:
  ReductionFinder(const WriteSets &Writes, DiagnosticsEngine &Diags,
                  ReductionAnalysisResult &Result)
      : Writes(Writes), Diags(Diags), Result(Result) {}

  void visitStmt(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Compound:
      for (const Stmt *Child : cast<CompoundStmt>(S)->Body)
        visitStmt(Child);
      return;
    case Stmt::Kind::If: {
      const auto *If = cast<IfStmt>(S);
      visitStmt(If->Then);
      if (If->Else)
        visitStmt(If->Else);
      return;
    }
    case Stmt::Kind::For: {
      const auto *For = cast<ForStmt>(S);
      Active.insert(Active.end(), For->ReduceDecls.begin(),
                    For->ReduceDecls.end());
      Loops.push_back(For);
      const size_t SitesBefore = Result.Sites.size();
      visitStmt(For->Body);
      Loops.pop_back();
      if (!For->ReduceDecls.empty()) {
        if (Result.Sites.size() == SitesBefore)
          Diags.warning(For->loc(),
                        "#pragma igen reduce: no reduction statement "
                        "found in this loop nest");
        Active.resize(Active.size() - For->ReduceDecls.size());
      }
      return;
    }
    case Stmt::Kind::While:
      visitStmt(cast<WhileStmt>(S)->Body);
      return;
    case Stmt::Kind::Do:
      visitStmt(cast<DoStmt>(S)->Body);
      return;
    case Stmt::Kind::ExprStmt:
      visitUpdate(cast<ExprStmt>(S));
      return;
    default:
      return;
    }
  }

private:
  const WriteSets &Writes;
  DiagnosticsEngine &Diags;
  ReductionAnalysisResult &Result;
  /// The declarations the pragmas of the enclosing loops name, and those
  /// for-loops, outermost first.
  std::vector<const VarDecl *> Active;
  std::vector<const ForStmt *> Loops;

  void visitUpdate(const ExprStmt *S) {
    const auto *Assign = dynCast<BinaryExpr>(ignoreParens(S->E));
    if (!Assign || !Assign->isAssignment())
      return;
    const Expr *Target = Assign->LHS;
    const VarDecl *Root = lvalueRoot(Target);
    if (!Root || std::find(Active.begin(), Active.end(), Root) == Active.end())
      return;
    std::vector<ReductionTerm> Terms = accumulatedTerms(Assign);
    if (Terms.empty() || !loadFreeIndices(Target))
      return;
    // A term that reads the root would read it stale: the accumulator
    // holds the running value until the loop ends.
    for (const ReductionTerm &T : Terms)
      if (mentions(T.Term, Root))
        return;
    const ForStmt *Accum = accumLoop(S, Target, Root);
    if (!Accum)
      return; // the innermost loop carries nothing
    Result.Sites.push_back({S, Target, std::move(Terms), Accum});
  }

  /// The outermost loop that carries the update \p S, walking from the
  /// innermost outward and never beyond the pragma loop naming \p Root:
  /// \p Target stays one location in it, and nothing else in it refers
  /// to \p Root (the final reduction is hoisted past the loop).
  const ForStmt *accumLoop(const ExprStmt *S, const Expr *Target,
                           const VarDecl *Root) const {
    const ForStmt *Pragma = *std::find_if(
        Loops.begin(), Loops.end(), [&](const ForStmt *L) {
          return std::count(L->ReduceDecls.begin(), L->ReduceDecls.end(),
                            Root) != 0;
        });
    const ForStmt *Accum = nullptr;
    for (auto It = Loops.rbegin(); It != Loops.rend() && Accum != Pragma;
         ++It) {
      if (!fixedLocation(Target, Writes.loopAndInit(*It)))
        break;
      bool OtherUse = false;
      forEachExprIn(*It, [&](const Expr *E) {
        OtherUse = OtherUse || (E != S->E && mentions(E, Root));
      });
      if (OtherUse)
        break;
      Accum = *It;
    }
    return Accum;
  }
};

} // namespace

ReductionAnalysisResult igen::analyzeReductions(const FunctionDecl &F,
                                                const WriteSets &Writes,
                                                DiagnosticsEngine &Diags) {
  ReductionAnalysisResult Result;
  if (F.Body)
    ReductionFinder(Writes, Diags, Result).visitStmt(F.Body);
  return Result;
}
