//===- OptAnalysis.cpp - Mid-end facts for interval lowering --------------===//
//
// Value-range/sign analysis plus the syntactic CSE/LICM collectors.
//
// Soundness model for the range part: a ValueFact for an expression bounds
// the *endpoints* of the runtime enclosure the transformed code computes
// for that expression. Transfer functions run in the host's nearest
// arithmetic and nudge every computed bound one ulp outward (nextDown /
// nextUp), which covers the target's directed rounding regardless of the
// rounding mode either side uses: for any mode, fl(s) is one of the two
// doubles bracketing the real s, so nextDown(fl(s)) <= s <= nextUp(fl(s)).
// Anything the analysis cannot bound becomes Top, which only costs
// performance (a generic runtime call), never soundness.
//
// Runtime invariant relied upon throughout: enclosures are either fully
// valid (both endpoints non-NaN) or fully NaN; partially-NaN intervals do
// not occur (see src/interval/Interval.h).
//
//===----------------------------------------------------------------------===//

#include "opt/OptAnalysis.h"

#include "analysis/AstQueries.h"
#include "analysis/BatchLoopAnalysis.h"
#include "frontend/Sema.h"
#include "interval/Ulp.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace igen;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// One ulp below \p F: a lower bound for any real that rounds to F under
/// any rounding mode. NaN collapses to -inf (no information).
double outDown(double F) {
  if (std::isnan(F) || F == -Inf)
    return -Inf;
  return nextDown(F);
}

/// One ulp above \p F (see outDown).
double outUp(double F) {
  if (std::isnan(F) || F == Inf)
    return Inf;
  return nextUp(F);
}

ValueFact joinFacts(const ValueFact &A, const ValueFact &B) {
  ValueFact R;
  R.Lo = std::min(A.Lo, B.Lo);
  R.Hi = std::max(A.Hi, B.Hi);
  R.NoNaN = A.NoNaN && B.NoNaN;
  return R;
}

bool sameFact(const ValueFact &A, const ValueFact &B) {
  return A.Lo == B.Lo && A.Hi == B.Hi && A.NoNaN == B.NoNaN;
}

ValueFact vNeg(const ValueFact &A) {
  ValueFact R;
  R.Lo = -A.Hi;
  R.Hi = -A.Lo;
  R.NoNaN = A.NoNaN;
  return R;
}

ValueFact vAdd(const ValueFact &A, const ValueFact &B) {
  if (!A.NoNaN || !B.NoNaN)
    return ValueFact::top();
  // Opposite infinities can meet at runtime and produce NaN endpoints.
  if ((A.Lo == -Inf && B.Hi == Inf) || (A.Hi == Inf && B.Lo == -Inf))
    return ValueFact::top();
  return ValueFact::range(outDown(A.Lo + B.Lo), outUp(A.Hi + B.Hi));
}

ValueFact vSub(const ValueFact &A, const ValueFact &B) {
  return vAdd(A, vNeg(B));
}

ValueFact vMul(const ValueFact &A, const ValueFact &B) {
  if (!A.NoNaN || !B.NoNaN)
    return ValueFact::top();
  const double P[4] = {A.Lo * B.Lo, A.Lo * B.Hi, A.Hi * B.Lo, A.Hi * B.Hi};
  double Lo = Inf, Hi = -Inf;
  bool SawNaN = false;
  for (double V : P) {
    if (std::isnan(V)) {
      // 0 * inf corner: the runtime slow path maps it to 0.
      SawNaN = true;
      continue;
    }
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
  if (SawNaN) {
    Lo = std::min(Lo, 0.0);
    Hi = std::max(Hi, 0.0);
  }
  ValueFact R = ValueFact::range(outDown(Lo), outUp(Hi));
  // Exact sign information survives directed rounding (0 is a double, so
  // rounding a nonnegative real down stays >= 0, and symmetrically).
  if ((A.provenNonNeg() && B.provenNonNeg()) ||
      (A.provenNonPos() && B.provenNonPos()))
    R.Lo = std::max(R.Lo, 0.0);
  if ((A.provenNonNeg() && B.provenNonPos()) ||
      (A.provenNonPos() && B.provenNonNeg()))
    R.Hi = std::min(R.Hi, 0.0);
  return R;
}

ValueFact vDiv(const ValueFact &A, const ValueFact &B) {
  if (!A.NoNaN || !B.NoNaN)
    return ValueFact::top();
  const bool PosDen = B.provenPos(), NegDen = B.provenNeg();
  if (!PosDen && !NegDen)
    return ValueFact::top(); // divisor may contain 0: anything can happen
  // A zero-free, NaN-free divisor keeps the runtime out of the NaN paths;
  // the worst case (inf/inf) falls back to the entire line, not NaN.
  ValueFact R;
  R.NoNaN = true;
  const bool InfNum = A.Lo == -Inf || A.Hi == Inf;
  const bool InfDen = PosDen ? B.Hi == Inf : B.Lo == -Inf;
  if (InfNum && InfDen)
    return R; // [-inf, inf], NoNaN
  const double P[4] = {A.Lo / B.Lo, A.Lo / B.Hi, A.Hi / B.Lo, A.Hi / B.Hi};
  double Lo = Inf, Hi = -Inf;
  for (double V : P) {
    Lo = std::min(Lo, V);
    Hi = std::max(Hi, V);
  }
  R.Lo = outDown(Lo);
  R.Hi = outUp(Hi);
  if ((A.provenNonNeg() && PosDen) || (A.provenNonPos() && NegDen))
    R.Lo = std::max(R.Lo, 0.0);
  if ((A.provenNonNeg() && NegDen) || (A.provenNonPos() && PosDen))
    R.Hi = std::min(R.Hi, 0.0);
  return R;
}

ValueFact vSqrt(const ValueFact &A) {
  if (!A.provenNonNeg())
    return ValueFact::top(); // a negative lo endpoint yields NaN
  ValueFact R;
  R.NoNaN = true;
  R.Lo = A.Lo > 0.0 ? std::max(0.0, outDown(std::sqrt(A.Lo))) : 0.0;
  R.Hi = A.Hi == Inf ? Inf : outUp(std::sqrt(A.Hi));
  return R;
}

ValueFact vAbs(const ValueFact &A) {
  // iAbs only selects/negates existing endpoints; no rounding happens.
  ValueFact R;
  R.NoNaN = A.NoNaN;
  if (A.Lo >= 0.0) {
    R.Lo = A.Lo;
    R.Hi = A.Hi;
  } else if (A.Hi <= 0.0) {
    R.Lo = -A.Hi;
    R.Hi = -A.Lo;
  } else {
    R.Lo = 0.0;
    R.Hi = std::max(-A.Lo, A.Hi);
  }
  return R;
}

/// Widens \p F outward to the single-precision grid, for casts to float.
ValueFact toFloatGrid(const ValueFact &A) {
  ValueFact R;
  R.NoNaN = A.NoNaN; // float overflow saturates to +-inf, never NaN
  R.Lo = A.Lo == -Inf
             ? -Inf
             : static_cast<double>(
                   std::nextafterf(static_cast<float>(A.Lo), -INFINITY));
  R.Hi = A.Hi == Inf
             ? Inf
             : static_cast<double>(
                   std::nextafterf(static_cast<float>(A.Hi), INFINITY));
  return R;
}

bool finiteBounds(const ValueFact &A) {
  return A.NoNaN && A.Lo > -Inf && A.Hi < Inf;
}

//===----------------------------------------------------------------------===//
// Range analysis
//===----------------------------------------------------------------------===//

/// The range analysis' state: a fact per variable, sorted by declaration
/// address. Top facts are left out (a missing variable reads as Top), so
/// two states that read the same for every variable hold the same
/// entries.
class VarEnv {
public:
  ValueFact get(const VarDecl *D) const {
    auto It = lowerBound(D);
    return It != Entries.end() && It->first == D ? It->second
                                                 : ValueFact::top();
  }

  void set(const VarDecl *D, const ValueFact &F) {
    auto It = lowerBound(D);
    const bool Present = It != Entries.end() && It->first == D;
    if (F.isTop()) {
      if (Present)
        Entries.erase(It);
    } else if (Present) {
      It->second = F;
    } else {
      Entries.insert(It, {D, F});
    }
  }

  /// Joins \p O into this state: a variable keeps a fact only if both
  /// states have one (joining with Top is Top).
  void joinWith(const VarEnv &O) {
    size_t Out = 0;
    auto OIt = O.Entries.begin();
    for (const auto &[D, F] : Entries) {
      while (OIt != O.Entries.end() && std::less<>()(OIt->first, D))
        ++OIt;
      if (OIt == O.Entries.end())
        break;
      if (OIt->first != D)
        continue;
      ValueFact J = joinFacts(F, OIt->second);
      if (!J.isTop())
        Entries[Out++] = {D, J};
    }
    Entries.resize(Out);
  }

  /// Accelerates convergence: bounds that moved since \p Old jump to the
  /// nearest of {0, +-inf}, preserving a proven sign where possible.
  void widenFrom(const VarEnv &Old) {
    size_t Out = 0;
    for (auto [D, F] : Entries) {
      const ValueFact O = Old.get(D);
      if (F.Lo < O.Lo)
        F.Lo = F.Lo >= 0.0 ? 0.0 : -Inf;
      if (F.Hi > O.Hi)
        F.Hi = F.Hi <= 0.0 ? 0.0 : Inf;
      if (!F.isTop())
        Entries[Out++] = {D, F};
    }
    Entries.resize(Out);
  }

  bool operator==(const VarEnv &O) const {
    return std::equal(Entries.begin(), Entries.end(), O.Entries.begin(),
                      O.Entries.end(), [](const auto &A, const auto &B) {
                        return A.first == B.first &&
                               sameFact(A.second, B.second);
                      });
  }

private:
  using Entry = std::pair<const VarDecl *, ValueFact>;
  std::vector<Entry> Entries;

  static bool before(const Entry &E, const VarDecl *D) {
    return std::less<>()(E.first, D);
  }
  std::vector<Entry>::iterator lowerBound(const VarDecl *D) {
    return std::lower_bound(Entries.begin(), Entries.end(), D, before);
  }
  std::vector<Entry>::const_iterator lowerBound(const VarDecl *D) const {
    return std::lower_bound(Entries.begin(), Entries.end(), D, before);
  }
};

class RangeAnalyzer {
public:
  RangeAnalyzer(OptFunctionInfo &Info, const OptOptions &Opts,
                const WriteSets &Writes)
      : Info(Info), Opts(Opts), Writes(Writes) {}

  void run(const Stmt *Body) {
    VarEnv Env; // parameters are runtime doubles: unknown, possibly NaN
    analyzeStmt(Body, Env);
  }

private:
  OptFunctionInfo &Info;
  const OptOptions &Opts;
  const WriteSets &Writes;
  bool Record = true;

  bool tracked(const VarDecl *D) const {
    return D && D->Ty && D->Ty->isFloating() && !Writes.addressTaken(D);
  }

  void record(const Expr *E, const ValueFact &F) {
    if (!Record || F.isTop())
      return;
    auto [It, Inserted] = Info.Facts.try_emplace(E, F);
    if (!Inserted)
      It->second = joinFacts(It->second, F);
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  ValueFact evalExpr(const Expr *E, VarEnv &Env) {
    ValueFact F = evalExprImpl(E, Env);
    if (std::isnan(F.Lo))
      F.Lo = -Inf;
    if (std::isnan(F.Hi))
      F.Hi = Inf;
    record(E, F);
    return F;
  }

  ValueFact evalExprImpl(const Expr *E, VarEnv &Env) {
    switch (E->kind()) {
    case Expr::Kind::IntLiteral: {
      const double V = static_cast<double>(cast<IntLiteralExpr>(E)->Value);
      if (std::fabs(V) < 0x1p53)
        return ValueFact::range(V, V);
      return ValueFact::range(outDown(V), outUp(V));
    }
    case Expr::Kind::FloatLiteral:
      return literalFact(cast<FloatLiteralExpr>(E));
    case Expr::Kind::DeclRef: {
      const VarDecl *D = cast<DeclRefExpr>(E)->Decl;
      return tracked(D) ? Env.get(D) : ValueFact::top();
    }
    case Expr::Kind::Paren:
      return evalExpr(cast<ParenExpr>(E)->Sub, Env);
    case Expr::Kind::Unary:
      return evalUnary(cast<UnaryExpr>(E), Env);
    case Expr::Kind::Binary:
      return evalBinary(cast<BinaryExpr>(E), Env);
    case Expr::Kind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      evalExpr(C->Cond, Env);
      ValueFact T = evalExpr(C->Then, Env);
      ValueFact El = evalExpr(C->Else, Env);
      return joinFacts(T, El);
    }
    case Expr::Kind::Call:
      return evalCall(cast<CallExpr>(E), Env);
    case Expr::Kind::Index: {
      const auto *I = cast<IndexExpr>(E);
      evalExpr(I->Base, Env);
      evalExpr(I->Idx, Env);
      return ValueFact::top(); // memory contents are unknown
    }
    case Expr::Kind::Cast: {
      const auto *C = cast<CastExpr>(E);
      ValueFact Sub = evalExpr(C->Sub, Env);
      if (!C->To || !C->To->isFloating())
        return ValueFact::top();
      if (C->To->kind() == Type::Kind::Float)
        return toFloatGrid(Sub);
      return Sub; // widening to double is value-preserving
    }
    }
    return ValueFact::top();
  }

  /// Mirrors the transformer's constant lifting (IntervalTransform.cpp,
  /// FloatLiteral case): integer-valued doubles become exact points,
  /// everything else the bracketing [prev(v), next(v)] pair.
  ValueFact literalFact(const FloatLiteralExpr *F) {
    const double V = F->Value;
    if (std::isnan(V))
      return ValueFact::top();
    if (F->IsTolerance) {
      const double H = outUp(std::fabs(V));
      return ValueFact::range(-H, H);
    }
    if (F->IsFloatSuffix) {
      ValueFact R = ValueFact::range(V, V);
      return toFloatGrid(R);
    }
    if (V == std::trunc(V) && std::fabs(V) < 0x1p53)
      return ValueFact::range(V, V);
    return ValueFact::range(nextDown(V), nextUp(V));
  }

  ValueFact evalUnary(const UnaryExpr *U, VarEnv &Env) {
    switch (U->O) {
    case UnaryExpr::Op::Neg:
      return vNeg(evalExpr(U->Sub, Env));
    case UnaryExpr::Op::Plus:
      return evalExpr(U->Sub, Env);
    case UnaryExpr::Op::PreInc:
    case UnaryExpr::Op::PreDec:
    case UnaryExpr::Op::PostInc:
    case UnaryExpr::Op::PostDec: {
      evalExpr(U->Sub, Env);
      if (const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(U->Sub)))
        if (tracked(Ref->Decl))
          Env.set(Ref->Decl, ValueFact::top());
      return ValueFact::top();
    }
    case UnaryExpr::Op::Deref:
      evalExpr(U->Sub, Env);
      return ValueFact::top();
    default:
      evalExpr(U->Sub, Env);
      return ValueFact::top();
    }
  }

  ValueFact evalBinary(const BinaryExpr *B, VarEnv &Env) {
    if (B->isAssignment())
      return evalAssignment(B, Env);
    ValueFact L = evalExpr(B->LHS, Env);
    ValueFact R = evalExpr(B->RHS, Env);
    const bool Floating = B->type() && B->type()->isFloating();
    if (!Floating)
      return ValueFact::top();
    switch (B->O) {
    case BinaryExpr::Op::Add:
      return vAdd(L, R);
    case BinaryExpr::Op::Sub:
      return vSub(L, R);
    case BinaryExpr::Op::Mul:
      return vMul(L, R);
    case BinaryExpr::Op::Div:
      return vDiv(L, R);
    default:
      return ValueFact::top();
    }
  }

  ValueFact evalAssignment(const BinaryExpr *B, VarEnv &Env) {
    // Record the LHS with its pre-store fact: that is the value a
    // compound assignment reads.
    const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(B->LHS));
    if (Ref) {
      ValueFact Old =
          tracked(Ref->Decl) ? Env.get(Ref->Decl) : ValueFact::top();
      record(B->LHS, Old);
      if (B->LHS != ignoreParens(B->LHS))
        record(ignoreParens(B->LHS), Old);
    } else {
      evalExpr(B->LHS, Env); // records index/deref subexpressions
    }
    ValueFact R = evalExpr(B->RHS, Env);
    ValueFact New = ValueFact::top();
    if (Ref && tracked(Ref->Decl)) {
      ValueFact Old = Env.get(Ref->Decl);
      switch (B->O) {
      case BinaryExpr::Op::Assign:
        New = R;
        break;
      case BinaryExpr::Op::AddAssign:
        New = vAdd(Old, R);
        break;
      case BinaryExpr::Op::SubAssign:
        New = vSub(Old, R);
        break;
      case BinaryExpr::Op::MulAssign:
        New = vMul(Old, R);
        break;
      case BinaryExpr::Op::DivAssign:
        New = vDiv(Old, R);
        break;
      default:
        break;
      }
      Env.set(Ref->Decl, New);
    }
    return New;
  }

  ValueFact evalCall(const CallExpr *C, VarEnv &Env) {
    std::vector<ValueFact> Args;
    Args.reserve(C->Args.size());
    for (const Expr *A : C->Args)
      Args.push_back(evalExpr(A, Env));
    if (classifyCallee(C->Callee) != CalleeKind::MathFunction)
      return ValueFact::top();
    std::string N = C->Callee;
    if (N.size() > 1 && N.back() == 'f' && N != "fabsf")
      N.pop_back(); // sinf -> sin etc.
    if (N == "fabsf")
      N = "fabs";
    const ValueFact A0 = Args.empty() ? ValueFact::top() : Args[0];
    if (N == "sqrt")
      return vSqrt(A0);
    if (N == "fabs")
      return vAbs(A0);
    if (N == "exp")
      return A0.NoNaN ? ValueFact::range(0.0, Inf) : ValueFact::top();
    if ((N == "sin" || N == "cos" || N == "atan") && finiteBounds(A0))
      return ValueFact::range(-2.0, 2.0); // unit range + libm slop
    if (N == "tan" && finiteBounds(A0)) {
      ValueFact R; // poles yield the entire line, but never NaN
      R.NoNaN = true;
      return R;
    }
    if (N == "floor" && A0.NoNaN)
      return ValueFact::range(std::floor(A0.Lo), std::floor(A0.Hi));
    if (N == "ceil" && A0.NoNaN)
      return ValueFact::range(std::ceil(A0.Lo), std::ceil(A0.Hi));
    if ((N == "fmin" || N == "fmax") && Args.size() == 2 && A0.NoNaN &&
        Args[1].NoNaN) {
      const ValueFact &A1 = Args[1];
      if (N == "fmin")
        return ValueFact::range(std::min(A0.Lo, A1.Lo),
                                std::min(A0.Hi, A1.Hi));
      return ValueFact::range(std::max(A0.Lo, A1.Lo),
                              std::max(A0.Hi, A1.Hi));
    }
    return ValueFact::top();
  }

  //===--------------------------------------------------------------------===//
  // Branch-guard refinement
  //===--------------------------------------------------------------------===//

  /// Narrows \p Env assuming the condition evaluated to the given truth
  /// value. Only sound under the Exception branch policy: a branch runs
  /// iff its interval comparison is *certainly* true/false, which both
  /// orders the endpoints and excludes NaN.
  void refineByCond(const Expr *Cond, bool IsTrue, VarEnv &Env) {
    Cond = ignoreParens(Cond);
    if (const auto *U = dynCast<UnaryExpr>(Cond)) {
      if (U->O == UnaryExpr::Op::LogicalNot)
        refineByCond(U->Sub, !IsTrue, Env);
      return;
    }
    const auto *B = dynCast<BinaryExpr>(Cond);
    if (!B)
      return;
    if (B->O == BinaryExpr::Op::LAnd && IsTrue) {
      refineByCond(B->LHS, true, Env);
      refineByCond(B->RHS, true, Env);
      return;
    }
    if (B->O == BinaryExpr::Op::LOr && !IsTrue) {
      refineByCond(B->LHS, false, Env);
      refineByCond(B->RHS, false, Env);
      return;
    }
    if (!B->isComparison())
      return;
    // Normalize to L < R / L <= R by swapping operands for > and >=.
    const Expr *L = B->LHS, *R = B->RHS;
    bool Strict;
    switch (B->O) {
    case BinaryExpr::Op::LT:
      Strict = true;
      break;
    case BinaryExpr::Op::LE:
      Strict = false;
      break;
    case BinaryExpr::Op::GT:
      std::swap(L, R);
      Strict = true;
      break;
    case BinaryExpr::Op::GE:
      std::swap(L, R);
      Strict = false;
      break;
    default:
      return; // ==/!= carry no usable endpoint information
    }
    // tbool semantics (Interval.h): L < R is True iff hi(L) < lo(R) and
    // False iff lo(L) >= hi(R); L <= R is True iff hi(L) <= lo(R) and
    // False iff lo(L) > hi(R). Either verdict orders real (non-NaN)
    // endpoints, so the refined variable also gains NoNaN.
    auto refineVar = [&](const Expr *Side, bool IsUpper, double Bound,
                         bool StrictBound) {
      const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(Side));
      if (!Ref || !tracked(Ref->Decl))
        return;
      if (!Ref->type() || !Ref->type()->isFloating())
        return;
      ValueFact F = Env.get(Ref->Decl);
      F.NoNaN = true;
      if (IsUpper)
        F.Hi = std::min(F.Hi, StrictBound ? outDown(Bound) : Bound);
      else
        F.Lo = std::max(F.Lo, StrictBound ? outUp(Bound) : Bound);
      Env.set(Ref->Decl, F);
    };
    const ValueFact LF = evalNoSideEffects(L, Env),
                    RF = evalNoSideEffects(R, Env);
    if (IsTrue) {
      // hi(L) < lo(R) <= RF.Hi  and  LF.Lo <= hi(L) ... lo(R) > ...
      refineVar(L, /*IsUpper=*/true, RF.Hi, Strict);
      refineVar(R, /*IsUpper=*/false, LF.Lo, Strict);
    } else {
      // lo(L) >= hi(R) >= RF.Lo  (strict for <=)
      refineVar(L, /*IsUpper=*/false, RF.Lo, !Strict);
      refineVar(R, /*IsUpper=*/true, LF.Hi, !Strict);
    }
  }

  /// Evaluates an expression for its fact only: no recording, no
  /// environment updates (used on already-evaluated condition operands).
  ValueFact evalNoSideEffects(const Expr *E, VarEnv Scratch) {
    bool Saved = Record;
    Record = false;
    ValueFact F = evalExpr(E, Scratch);
    Record = Saved;
    return F;
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  void analyzeStmt(const Stmt *S, VarEnv &Env) {
    switch (S->kind()) {
    case Stmt::Kind::Compound:
      for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
        analyzeStmt(Sub, Env);
      return;
    case Stmt::Kind::DeclStmt:
      for (const VarDecl *D : cast<DeclStmt>(S)->Decls) {
        if (D->Init) {
          ValueFact F = evalExpr(D->Init, Env);
          if (tracked(D))
            Env.set(D, F);
        } else if (tracked(D)) {
          Env.set(D, ValueFact::top());
        }
      }
      return;
    case Stmt::Kind::ExprStmt:
      evalExpr(cast<ExprStmt>(S)->E, Env);
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      evalExpr(I->Cond, Env);
      VarEnv ElseEnv = Env; // Env itself becomes the then-state
      if (Opts.GuardFacts) {
        refineByCond(I->Cond, true, Env);
        refineByCond(I->Cond, false, ElseEnv);
      }
      analyzeStmt(I->Then, Env);
      if (I->Else)
        analyzeStmt(I->Else, ElseEnv);
      Env.joinWith(ElseEnv);
      return;
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      if (F->Init)
        analyzeStmt(F->Init, Env);
      analyzeLoop(F, F->Cond, F->Body, F->Inc, Env);
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      analyzeLoop(W, W->Cond, W->Body, nullptr, Env);
      return;
    }
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(S);
      analyzeLoop(D, D->Cond, D->Body, nullptr, Env);
      return;
    }
    case Stmt::Kind::Return:
      if (const Expr *V = cast<ReturnStmt>(S)->Value)
        evalExpr(V, Env);
      return;
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
    case Stmt::Kind::Null:
      return;
    }
  }

  /// Fixpoint over one loop. \p Env enters as the state after the init
  /// statement and leaves as a sound post-loop state (the loop head
  /// invariant, which also covers zero iterations).
  void analyzeLoop(const Stmt *Loop, const Expr *Cond, const Stmt *Body,
                   const Expr *Inc, VarEnv &Env) {
    const VarSet &Mod = Writes.loop(Loop);
    VarEnv Head = Env;
    // break/continue exit mid-iteration, so the end-of-body join below
    // would not cover them; give up on anything the loop writes.
    const bool HasJump = Body && containsJump(Body);
    if (HasJump)
      for (const VarDecl *D : Mod)
        Head.set(D, ValueFact::top());
    const bool Saved = Record;
    Record = false;
    bool Converged = HasJump; // top'd modified vars are already stable
    VarEnv B;
    for (int Iter = 0; Iter < 8 && !Converged; ++Iter) {
      B = Head;
      if (Cond)
        evalExpr(Cond, B);
      if (Body)
        analyzeStmt(Body, B);
      if (Inc)
        evalExpr(Inc, B);
      B.joinWith(Head);
      if (Iter >= 2)
        B.widenFrom(Head);
      Converged = B == Head;
      std::swap(Head, B);
    }
    if (!Converged)
      for (const VarDecl *D : Mod)
        Head.set(D, ValueFact::top());
    Record = Saved;
    // One recording pass over the stable head state.
    B = Head;
    if (Cond)
      evalExpr(Cond, B);
    if (Body)
      analyzeStmt(Body, B);
    if (Inc)
      evalExpr(Inc, B);
    Env = std::move(Head);
  }

  /// break/continue belonging to THIS loop (nested loops own theirs).
  bool containsJump(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return true;
    case Stmt::Kind::Compound:
      for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
        if (containsJump(Sub))
          return true;
      return false;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      return containsJump(I->Then) || (I->Else && containsJump(I->Else));
    }
    default:
      return false; // For/While/Do capture their own jumps
    }
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// CSE / LICM collection (syntactic; independent of the range analysis)
//===----------------------------------------------------------------------===//

namespace {

/// A node worth naming: a floating-typed operation (not a bare leaf).
bool isFloatingOpNode(const Expr *E) {
  E = ignoreParens(E);
  if (!E->type() || !E->type()->isFloating())
    return false;
  switch (E->kind()) {
  case Expr::Kind::Binary: {
    const auto O = cast<BinaryExpr>(E)->O;
    return O == BinaryExpr::Op::Add || O == BinaryExpr::Op::Sub ||
           O == BinaryExpr::Op::Mul || O == BinaryExpr::Op::Div;
  }
  case Expr::Kind::Unary:
    return cast<UnaryExpr>(E)->O == UnaryExpr::Op::Neg;
  case Expr::Kind::Call:
    return classifyCallee(cast<CallExpr>(E)->Callee) ==
           CalleeKind::MathFunction;
  default:
    return false;
  }
}

int countOps(const Expr *E) {
  // A paren node reads as its operand; count that operand once.
  int N = E->kind() != Expr::Kind::Paren && isFloatingOpNode(E) ? 1 : 0;
  forEachChild(E, [&](const Expr *Sub) { N += countOps(Sub); });
  return N;
}

class SyntaxCollector {
public:
  SyntaxCollector(OptFunctionInfo &Info, const WriteSets &Writes)
      : Info(Info), Writes(Writes) {}

  void run(const Stmt *Body) { walkStmt(Body); }

private:
  OptFunctionInfo &Info;
  const WriteSets &Writes;
  /// The innermost loop around the statement being walked (null outside
  /// every loop) and what one of its iterations or its init writes.
  const Stmt *Loop = nullptr;
  VarSet LoopMod;
  /// The for-loops around the statement being walked, outermost first.
  std::vector<const ForStmt *> Fors;
  // collectCse's working sets, reused from statement to statement.
  std::vector<const Expr *> Roots, Reps;
  std::vector<int> Counts;
  VarSet OwnDecls;
  // collectVersionVar's tally of multiplies per candidate variable, and
  // the hoisting candidates of the loop and the for-loops around it.
  std::vector<std::pair<const VarDecl *, int>> Tally;
  std::vector<const Expr *> Hoists;

  /// Walks \p Body with \p L as the innermost loop, writing \p Mod.
  void walkLoopBody(const Stmt *L, const Stmt *Body, VarSet Mod) {
    const Stmt *SavedLoop = std::exchange(Loop, L);
    std::swap(LoopMod, Mod);
    walkStmt(Body);
    Loop = SavedLoop;
    std::swap(LoopMod, Mod);
  }

  void walkStmt(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Compound:
      for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
        walkStmt(Sub);
      return;
    case Stmt::Kind::DeclStmt:
    case Stmt::Kind::Return:
      collectCse(S);
      return;
    case Stmt::Kind::ExprStmt:
      collectCse(S);
      if (Loop)
        collectFmaHazards(cast<ExprStmt>(S)->E);
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      walkStmt(I->Then);
      if (I->Else)
        walkStmt(I->Else);
      return;
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      if (!F->Body)
        return;
      // Everything the loop writes or declares, its init included: the
      // hoisted code and the versioning test run before the init.
      VarSet Mod = Writes.loopAndInit(F);
      collectLoopInvariants(F, Mod);
      collectVersionVar(F, Mod);
      Fors.push_back(F);
      walkLoopBody(F, F->Body, Mod);
      Fors.pop_back();
      // After the body: the dot shape reads the hazards found there.
      collectRowKernel(F, Mod);
      return;
    }
    case Stmt::Kind::While:
      walkLoopBody(S, cast<WhileStmt>(S)->Body, Writes.loopAndInit(S));
      return;
    case Stmt::Kind::Do:
      walkLoopBody(S, cast<DoStmt>(S)->Body, Writes.loopAndInit(S));
      return;
    default:
      return;
    }
  }

  //===-- Loop-carried FMA hazards ----------------------------------------===//

  /// Marks accumulation statements inside loops whose multiply-add must
  /// not fuse: when the addend of `target = ... target +- a*b ...` (or a
  /// `target +=`/`-=` form) is the assignment target itself and that
  /// target is the same location on every iteration, the add is the
  /// loop-carried dependency. Fusion would put the multiply's latency
  /// on that recurrence; unfused, the multiplies overlap across
  /// iterations and only the cheap add serializes.
  void collectFmaHazards(const Expr *E) {
    const auto *B = dynCast<BinaryExpr>(ignoreParens(E));
    if (!B || !B->isAssignment())
      return;
    if (B->O == BinaryExpr::Op::AddAssign ||
        B->O == BinaryExpr::Op::SubAssign) {
      if (fixedLocation(B->LHS, LoopMod))
        Info.FmaLoopHazards.insert(B);
      return;
    }
    if (B->O != BinaryExpr::Op::Assign)
      return;
    if (fixedLocation(B->LHS, LoopMod))
      markCarriedAddSub(B->LHS, B->RHS);
    collectFmaHazards(B->RHS); // chained assignments: a = b = ...
  }

  //===-- Sign versioning -------------------------------------------------===//

  /// Picks the version variable of \p FS when it is an innermost loop
  /// with neither break/continue nor a reduce pragma. Candidates are the
  /// floating scalars the loop and its init do not write and whose
  /// address is not taken; each scores the scalar multiplies left in the
  /// loop (not inside a hoisted invariant) that have it as an operand of
  /// unknown sign. The highest score wins, ties by declaration order.
  void collectVersionVar(const ForStmt *FS, const VarSet &Mod) {
    if (!FS->ReduceVars.empty() || hasLoopOrJump(FS->Body))
      return;
    Tally.clear();
    Hoists.clear();
    for (const ForStmt *L : Fors)
      addHoists(L);
    addHoists(FS);
    forEachExprIn(FS, [&](const Expr *E) { tallyMuls(E, Mod); });
    const VarDecl *Best = nullptr;
    int BestCount = 0;
    for (const auto &[D, N] : Tally)
      if (N > BestCount ||
          (N == BestCount && std::make_pair(D->Loc.Line, D->Loc.Col) <
                                 std::make_pair(Best->Loc.Line,
                                                Best->Loc.Col))) {
        Best = D;
        BestCount = N;
      }
    if (Best)
      Info.VersionVars[FS] = Best;
  }

  static bool hasLoopOrJump(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Compound:
      for (const Stmt *Sub : cast<CompoundStmt>(S)->Body)
        if (hasLoopOrJump(Sub))
          return true;
      return false;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      return hasLoopOrJump(I->Then) || (I->Else && hasLoopOrJump(I->Else));
    }
    case Stmt::Kind::For:
    case Stmt::Kind::While:
    case Stmt::Kind::Do:
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
      return true;
    default:
      return false;
    }
  }

  void addHoists(const ForStmt *L) {
    auto It = Info.LoopInvariants.find(L);
    if (It != Info.LoopInvariants.end())
      Hoists.insert(Hoists.end(), It->second.begin(), It->second.end());
  }

  /// True when \p E is replaced by a hoisted temp inside the loop.
  bool hoisted(const Expr *E) const {
    return !Hoists.empty() && isFloatingOpNode(E) &&
           std::any_of(Hoists.begin(), Hoists.end(),
                       [&](const Expr *H) { return exprEqual(H, E); });
  }

  void tallyMuls(const Expr *E, const VarSet &Mod) {
    if (hoisted(E))
      return;
    if (const auto *B = dynCast<BinaryExpr>(E)) {
      const bool ScalarMul =
          (B->O == BinaryExpr::Op::Mul && B->type() &&
           B->type()->isFloating()) ||
          (B->O == BinaryExpr::Op::MulAssign && B->LHS->type() &&
           B->LHS->type()->isFloating());
      if (ScalarMul) {
        const VarDecl *L = unknownSignInvariant(B->LHS, Mod);
        const VarDecl *R = unknownSignInvariant(B->RHS, Mod);
        if (L)
          tally(L);
        if (R && R != L)
          tally(R);
      }
    }
    forEachChild(E, [&](const Expr *Sub) { tallyMuls(Sub, Mod); });
  }

  /// The variable \p Operand names when it is a version candidate whose
  /// sign the range analysis leaves unknown at this reference.
  const VarDecl *unknownSignInvariant(const Expr *Operand,
                                      const VarSet &Mod) const {
    const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(Operand));
    if (!Ref || !Ref->Decl || !Ref->Decl->Ty || !Ref->Decl->Ty->isFloating() ||
        setHas(Mod, Ref->Decl) || Writes.addressTaken(Ref->Decl))
      return nullptr;
    const ValueFact F = Info.factFor(Operand);
    if (F.provenNonNeg() || F.provenNonPos())
      return nullptr;
    return Ref->Decl;
  }

  void tally(const VarDecl *D) {
    for (auto &[Seen, N] : Tally)
      if (Seen == D) {
        ++N;
        return;
      }
    Tally.push_back({D, 1});
  }

  /// Walks the add/sub spine of \p E and marks every node with an operand
  /// structurally equal to \p Target.
  void markCarriedAddSub(const Expr *Target, const Expr *E) {
    const auto *B = dynCast<BinaryExpr>(ignoreParens(E));
    if (!B ||
        (B->O != BinaryExpr::Op::Add && B->O != BinaryExpr::Op::Sub))
      return;
    if (exprEqual(B->LHS, Target) || exprEqual(B->RHS, Target))
      Info.FmaLoopHazards.insert(B);
    markCarriedAddSub(Target, B->LHS);
    markCarriedAddSub(Target, B->RHS);
  }

  //===-- Row kernels -----------------------------------------------------===//

  /// Records \p FS in RowKernels when it has the axpy or dot shape and
  /// its per-element -O lowering is the one the kernel reproduces.
  void collectRowKernel(const ForStmt *FS, const VarSet &Mod) {
    if (!FS->ReduceVars.empty() || !FS->Cond || !FS->Inc ||
        Info.LoopInvariants.count(FS))
      return;
    const auto *Init = dynCast<DeclStmt>(FS->Init);
    if (!Init || Init->Decls.size() != 1)
      return;
    const VarDecl *IV = Init->Decls[0];
    if (!IV->Init || !isIntOrLong(IV->Ty))
      return;
    const auto *Cmp = dynCast<BinaryExpr>(ignoreParens(FS->Cond));
    if (!Cmp || Cmp->O != BinaryExpr::Op::LT || !refersTo(Cmp->LHS, IV) ||
        !isUnitIncrement(FS->Inc, IV))
      return;
    RowKernelLoop K;
    K.Lower = IV->Init;
    K.Upper = Cmp->RHS;
    // j starts at exactly L: an int j takes no long L.
    if (!fixedInt(K.Lower, Mod) || !fixedInt(K.Upper, Mod) ||
        (IV->Ty->kind() == Type::Kind::Int &&
         K.Lower->type()->kind() != Type::Kind::Int))
      return;
    const auto *ES = dynCast<ExprStmt>(singleBodyStmt(FS->Body));
    if (!ES || Info.CommonSubexprs.count(ES))
      return;
    const auto *B = dynCast<BinaryExpr>(ignoreParens(ES->E));
    if (!B || !B->isAssignment())
      return;
    K.Update = ES;
    if (matchAxpy(FS, B, IV, Mod, K) || matchDot(B, IV, Mod, K))
      Info.RowKernels[FS] = K;
  }

  static bool isIntOrLong(const Type *T) {
    return T && (T->kind() == Type::Kind::Int || T->kind() == Type::Kind::Long);
  }
  static bool refersTo(const Expr *E, const VarDecl *D) {
    const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(E));
    return Ref && Ref->Decl == D;
  }

  /// A pure, load-free int or long expression of variables \p Mod does
  /// not hold.
  bool fixedInt(const Expr *E, const VarSet &Mod) const {
    if (!isIntOrLong(E->type()) || !exprIsPureValue(E, /*AllowLoads=*/false))
      return false;
    bool Fixed = true;
    forEachDeclRef(E, [&](const DeclRefExpr *Ref) {
      if (!Ref->Decl || setHas(Mod, Ref->Decl))
        Fixed = false;
    });
    return Fixed;
  }

  /// `Base[j]`, `Base[off + j]` or `Base[j + off]` over a double array
  /// or pointer the loop does not reassign.
  bool matchRow(const Expr *E, const VarDecl *IV, const VarSet &Mod,
                RowKernelLoop::Row &R) const {
    const auto *Ix = dynCast<IndexExpr>(ignoreParens(E));
    if (!Ix || !isDouble(Ix->type()))
      return false;
    const auto *Base = dynCast<DeclRefExpr>(ignoreParens(Ix->Base));
    const Type *BT = Base ? Base->type() : nullptr;
    if (!BT || (!BT->isPointer() && !BT->isArray()) || !Base->Decl ||
        setHas(Mod, Base->Decl))
      return false;
    R.Base = Base;
    R.Offset = nullptr;
    if (refersTo(Ix->Idx, IV))
      return true;
    const auto *Sum = dynCast<BinaryExpr>(ignoreParens(Ix->Idx));
    if (!Sum || Sum->O != BinaryExpr::Op::Add)
      return false;
    if (refersTo(Sum->RHS, IV))
      R.Offset = Sum->LHS;
    else if (refersTo(Sum->LHS, IV))
      R.Offset = Sum->RHS;
    return R.Offset && fixedInt(R.Offset, Mod);
  }

  static bool isDouble(const Type *T) {
    return T && T->kind() == Type::Kind::Double;
  }
  /// Neither sign class of \p E is proven, so a multiply by it lowers
  /// to the generic (or version-copy) call.
  bool unknownSign(const Expr *E) const {
    const ValueFact F = Info.factFor(E);
    return !F.provenNonNeg() && !F.provenNonPos();
  }
  /// `a * X[ex + j]` with a the version variable of \p FS.
  bool matchScaledRow(const ForStmt *FS, const Expr *E, const VarDecl *IV,
                      const VarSet &Mod, RowKernelLoop &K) const {
    const auto *M = dynCast<BinaryExpr>(ignoreParens(E));
    if (!M || M->O != BinaryExpr::Op::Mul || !isDouble(M->type()))
      return false;
    auto V = Info.VersionVars.find(FS);
    if (V == Info.VersionVars.end() || !refersTo(M->LHS, V->second) ||
        !isDouble(M->LHS->type()) || !unknownSign(M->LHS) ||
        !unknownSign(M->RHS))
      return false;
    K.Scalar = M->LHS;
    return matchRow(M->RHS, IV, Mod, K.Second);
  }

  bool matchAxpy(const ForStmt *FS, const BinaryExpr *B, const VarDecl *IV,
                 const VarSet &Mod, RowKernelLoop &K) const {
    if (Info.FmaLoopHazards.count(B) || !matchRow(B->LHS, IV, Mod, K.First))
      return false;
    K.K = RowKernelLoop::Kind::Axpy;
    if (B->O == BinaryExpr::Op::AddAssign)
      return matchScaledRow(FS, B->RHS, IV, Mod, K);
    const auto *Add = dynCast<BinaryExpr>(ignoreParens(B->RHS));
    if (B->O != BinaryExpr::Op::Assign || !Add ||
        Add->O != BinaryExpr::Op::Add || Info.FmaLoopHazards.count(Add))
      return false;
    if (exprEqual(Add->LHS, B->LHS))
      return matchScaledRow(FS, Add->RHS, IV, Mod, K);
    K.ProductFirst = exprEqual(Add->RHS, B->LHS) &&
                     matchScaledRow(FS, Add->LHS, IV, Mod, K);
    return K.ProductFirst;
  }

  /// `X[ex + j] * Z[ez + j]`, both factors of unknown sign.
  bool matchRowProduct(const Expr *E, const VarDecl *IV, const VarSet &Mod,
                       RowKernelLoop &K) const {
    const auto *M = dynCast<BinaryExpr>(ignoreParens(E));
    return M && M->O == BinaryExpr::Op::Mul && isDouble(M->type()) &&
           unknownSign(M->LHS) && unknownSign(M->RHS) &&
           matchRow(M->LHS, IV, Mod, K.First) &&
           matchRow(M->RHS, IV, Mod, K.Second);
  }

  bool matchDot(const BinaryExpr *B, const VarDecl *IV, const VarSet &Mod,
                RowKernelLoop &K) const {
    if (!isDouble(B->LHS->type()))
      return false;
    K.Scalar = B->LHS;
    if (B->O == BinaryExpr::Op::AddAssign ||
        B->O == BinaryExpr::Op::SubAssign) {
      K.K = B->O == BinaryExpr::Op::AddAssign ? RowKernelLoop::Kind::Dot
                                              : RowKernelLoop::Kind::DotSub;
      return Info.FmaLoopHazards.count(B) &&
             matchRowProduct(B->RHS, IV, Mod, K);
    }
    const auto *Op = dynCast<BinaryExpr>(ignoreParens(B->RHS));
    if (B->O != BinaryExpr::Op::Assign || !Op ||
        (Op->O != BinaryExpr::Op::Add && Op->O != BinaryExpr::Op::Sub) ||
        !Info.FmaLoopHazards.count(Op) || !exprEqual(Op->LHS, B->LHS))
      return false;
    K.K = Op->O == BinaryExpr::Op::Add ? RowKernelLoop::Kind::Dot
                                       : RowKernelLoop::Kind::DotSub;
    return matchRowProduct(Op->RHS, IV, Mod, K);
  }

  //===-- Loop-invariant hoisting candidates ------------------------------===//

  void collectLoopInvariants(const ForStmt *FS, const VarSet &Mod) {
    std::vector<const Expr *> Out;
    // Expressions in a nested loop still repeat per outer iteration;
    // hoisting them in front of the outer loop is strictly better.
    forEachExprIn(FS->Body, [&](const Expr *E) {
      collectInvariantsInExpr(E, Mod, Out);
    });
    if (Out.empty())
      return;
    // Contained candidates first, so an outer hoist can reuse them.
    std::stable_sort(Out.begin(), Out.end(),
                     [](const Expr *A, const Expr *B) {
                       return countOps(A) < countOps(B);
                     });
    Info.LoopInvariants[FS] = std::move(Out);
  }

  bool isInvariantCandidate(const Expr *E, const VarSet &Mod) {
    if (!isFloatingOpNode(E) || !exprIsPureValue(E, /*AllowLoads=*/false))
      return false;
    bool Ok = true, AnyRef = false;
    forEachDeclRef(E, [&](const DeclRefExpr *Ref) {
      AnyRef = true;
      if (!Ref->Decl || setHas(Mod, Ref->Decl))
        Ok = false;
    });
    // Pure literal trees fold to constants anyway; require a variable.
    return Ok && AnyRef;
  }

  void collectInvariantsInExpr(const Expr *E,
                               const VarSet &Mod,
                               std::vector<const Expr *> &Out) {
    if (isInvariantCandidate(E, Mod)) {
      for (const Expr *Seen : Out)
        if (exprEqual(Seen, E))
          return;
      Out.push_back(E);
      return; // maximal: don't also hoist the pieces
    }
    forEachChild(E, [&](const Expr *Sub) {
      collectInvariantsInExpr(Sub, Mod, Out);
    });
  }

  //===-- Per-statement common subexpressions -----------------------------===//

  void collectCse(const Stmt *S) {
    Roots.clear();
    OwnDecls.clear();
    switch (S->kind()) {
    case Stmt::Kind::DeclStmt:
      for (const VarDecl *D : cast<DeclStmt>(S)->Decls) {
        OwnDecls.push_back(D);
        if (D->Init)
          Roots.push_back(D->Init);
      }
      sortUnique(OwnDecls);
      break;
    case Stmt::Kind::ExprStmt: {
      const Expr *E = ignoreParens(cast<ExprStmt>(S)->E);
      if (const auto *B = dynCast<BinaryExpr>(E); B && B->isAssignment()) {
        Roots.push_back(B->LHS);
        Roots.push_back(B->RHS);
      } else {
        Roots.push_back(E);
      }
      break;
    }
    case Stmt::Kind::Return:
      if (const Expr *V = cast<ReturnStmt>(S)->Value)
        Roots.push_back(V);
      break;
    default:
      return;
    }
    if (Roots.empty())
      return;
    // A nested side effect (assignment, ++/--, unknown call) could change
    // a value between the hoisted temp and its original use: bail.
    for (const Expr *R : Roots)
      if (hasSideEffects(R))
        return;
    Reps.clear();
    Counts.clear();
    for (const Expr *R : Roots)
      countPureSubtrees(R, OwnDecls, Reps, Counts);
    std::vector<const Expr *> Out;
    for (size_t I = 0; I < Reps.size(); ++I)
      if (Counts[I] >= 2)
        Out.push_back(Reps[I]); // post-order append: innermost first
    if (!Out.empty())
      Info.CommonSubexprs[S] = std::move(Out);
  }

  bool hasSideEffects(const Expr *E) {
    if (const auto *B = dynCast<BinaryExpr>(E); B && B->isAssignment())
      return true;
    if (const auto *U = dynCast<UnaryExpr>(E))
      if (U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PreDec ||
          U->O == UnaryExpr::Op::PostInc || U->O == UnaryExpr::Op::PostDec)
        return true;
    if (const auto *C = dynCast<CallExpr>(E)) {
      const CalleeKind K = classifyCallee(C->Callee);
      if (K == CalleeKind::UserFunction || K == CalleeKind::Allocation ||
          K == CalleeKind::Unknown)
        return true;
    }
    bool Any = false;
    forEachChild(E, [&](const Expr *Sub) { Any = Any || hasSideEffects(Sub); });
    return Any;
  }

  void countPureSubtrees(const Expr *E, const VarSet &Own,
                         std::vector<const Expr *> &Reps,
                         std::vector<int> &Counts) {
    // Post-order: count children before the node itself.
    if (const auto *P = dynCast<ParenExpr>(E)) {
      countPureSubtrees(P->Sub, Own, Reps, Counts);
      return; // the inner node already counted; parens add nothing
    }
    forEachChild(E, [&](const Expr *Sub) {
      countPureSubtrees(Sub, Own, Reps, Counts);
    });
    if (!isFloatingOpNode(E) || !exprIsPureValue(E))
      return;
    bool RefsOwn = false;
    forEachDeclRef(E, [&](const DeclRefExpr *Ref) {
      if (Ref->Decl && setHas(Own, Ref->Decl))
        RefsOwn = true;
    });
    if (RefsOwn)
      return; // would be emitted before its variable is declared
    for (size_t I = 0; I < Reps.size(); ++I)
      if (exprEqual(Reps[I], E)) {
        ++Counts[I];
        return;
      }
    Reps.push_back(E);
    Counts.push_back(1);
  }
};

} // namespace

OptFunctionInfo igen::analyzeFunctionForOpt(const FunctionDecl &F,
                                            const OptOptions &Opts) {
  if (!F.Body)
    return OptFunctionInfo();
  return analyzeFunctionForOpt(F, Opts, WriteSets(F.Body));
}

OptFunctionInfo igen::analyzeFunctionForOpt(const FunctionDecl &F,
                                            const OptOptions &Opts,
                                            const WriteSets &Writes) {
  OptFunctionInfo Info;
  if (!F.Body)
    return Info;
  RangeAnalyzer(Info, Opts, Writes).run(F.Body);
  SyntaxCollector(Info, Writes).run(F.Body);
  return Info;
}
