//===- IntervalTransform.cpp - AST-to-interval-C transformer ----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "transform/IntervalTransform.h"

#include "analysis/BatchLoopAnalysis.h"
#include "frontend/Sema.h"
#include "interval/DdInterval.h"
#include "opt/Movability.h"
#include "opt/OptAnalysis.h"
#include "interval/DecimalFp.h"
#include "interval/Interval.h"
#include "interval/Rounding.h"
#include "interval/Ulp.h"
#include "support/StringExtras.h"

#include <cmath>
#include <cstdlib>
#include <map>
#include <set>

using namespace igen;

namespace {

/// Category of a transformed expression.
enum class Cat {
  Plain,    ///< ordinary C value (integers, pointers, plain conditions)
  Interval, ///< an interval (f64i/ddi or a vector of intervals)
  TBool,    ///< three-valued boolean from an interval comparison
};

/// Result of transforming one expression.
struct TR {
  std::string Code;
  Cat C = Cat::Plain;
  const Type *OrigTy = nullptr;

  // Compile-time interval constant (Section IV-B, "Interval constants").
  bool IsConst = false;
  Interval CF64;  ///< enclosure used when targeting double
  DdInterval CDd; ///< enclosure used when targeting double-double
};

/// Formats a double as a C expression reconstructing it exactly.
std::string fmtDouble(double V) {
  if (std::isnan(V))
    return "__builtin_nan(\"\")";
  if (std::isinf(V))
    return V > 0 ? "__builtin_inf()" : "-__builtin_inf()";
  std::string Out;
  appendDouble17g(Out, V); // always round-trips IEEE doubles
  return Out;
}

/// Parenthesizes plain compound expressions when embedded.
std::string maybeParen(const TR &V) {
  if (V.C != Cat::Plain)
    return V.Code;
  if (V.Code.find(' ') != std::string::npos)
    return "(" + V.Code + ")";
  return V.Code;
}

//===----------------------------------------------------------------------===//
// Profile-site support: source-text reconstruction for reports
//===----------------------------------------------------------------------===//

const char *unaryOpSpelling(UnaryExpr::Op O) {
  switch (O) {
  case UnaryExpr::Op::Neg:
    return "-";
  case UnaryExpr::Op::Plus:
    return "+";
  case UnaryExpr::Op::LogicalNot:
    return "!";
  case UnaryExpr::Op::BitNot:
    return "~";
  case UnaryExpr::Op::PreInc:
  case UnaryExpr::Op::PostInc:
    return "++";
  case UnaryExpr::Op::PreDec:
  case UnaryExpr::Op::PostDec:
    return "--";
  case UnaryExpr::Op::Deref:
    return "*";
  case UnaryExpr::Op::AddrOf:
    return "&";
  }
  return "?";
}

const char *binaryOpSpelling(BinaryExpr::Op O) {
  switch (O) {
  case BinaryExpr::Op::Add:
    return "+";
  case BinaryExpr::Op::Sub:
    return "-";
  case BinaryExpr::Op::Mul:
    return "*";
  case BinaryExpr::Op::Div:
    return "/";
  case BinaryExpr::Op::Rem:
    return "%";
  case BinaryExpr::Op::Shl:
    return "<<";
  case BinaryExpr::Op::Shr:
    return ">>";
  case BinaryExpr::Op::BitAnd:
    return "&";
  case BinaryExpr::Op::BitOr:
    return "|";
  case BinaryExpr::Op::BitXor:
    return "^";
  case BinaryExpr::Op::LT:
    return "<";
  case BinaryExpr::Op::GT:
    return ">";
  case BinaryExpr::Op::LE:
    return "<=";
  case BinaryExpr::Op::GE:
    return ">=";
  case BinaryExpr::Op::EQ:
    return "==";
  case BinaryExpr::Op::NE:
    return "!=";
  case BinaryExpr::Op::LAnd:
    return "&&";
  case BinaryExpr::Op::LOr:
    return "||";
  case BinaryExpr::Op::Assign:
    return "=";
  case BinaryExpr::Op::AddAssign:
    return "+=";
  case BinaryExpr::Op::SubAssign:
    return "-=";
  case BinaryExpr::Op::MulAssign:
    return "*=";
  case BinaryExpr::Op::DivAssign:
    return "/=";
  }
  return "?";
}

/// Reconstructs approximate source text for a profile site's "where"
/// column. Best effort only — reports consume it, nothing parses it.
std::string unparseExpr(const Expr *E) {
  if (!E)
    return "";
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    return cast<IntLiteralExpr>(E)->Spelling;
  case Expr::Kind::FloatLiteral:
    return cast<FloatLiteralExpr>(E)->Spelling;
  case Expr::Kind::DeclRef:
    return cast<DeclRefExpr>(E)->Name;
  case Expr::Kind::Paren:
    return "(" + unparseExpr(cast<ParenExpr>(E)->Sub) + ")";
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->O == UnaryExpr::Op::PostInc || U->O == UnaryExpr::Op::PostDec)
      return unparseExpr(U->Sub) + unaryOpSpelling(U->O);
    return std::string(unaryOpSpelling(U->O)) + unparseExpr(U->Sub);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return unparseExpr(B->LHS) + " " + binaryOpSpelling(B->O) + " " +
           unparseExpr(B->RHS);
  }
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    return unparseExpr(C->Cond) + " ? " + unparseExpr(C->Then) + " : " +
           unparseExpr(C->Else);
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    std::string S = C->Callee + "(";
    for (size_t I = 0; I < C->Args.size(); ++I)
      S += (I ? ", " : "") + unparseExpr(C->Args[I]);
    return S + ")";
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    return unparseExpr(I->Base) + "[" + unparseExpr(I->Idx) + "]";
  }
  case Expr::Kind::Cast: {
    const auto *C = cast<CastExpr>(E);
    return "(" + C->To->cName() + ")" + unparseExpr(C->Sub);
  }
  }
  return "";
}

//===----------------------------------------------------------------------===//
// --tier eligibility: can this function be an escalation region?
//===----------------------------------------------------------------------===//

/// Variable at the base of an Index/Deref lvalue chain, or null when the
/// chain bottoms out in something other than a plain variable reference
/// (e.g. pointer arithmetic).
const VarDecl *memRootDecl(const Expr *E) {
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

/// Decides whether a function can be compiled as an escalation region.
/// The wrapper must capture the region's live-ins at entry (params plus
/// the memory behind pointer params) and be able to re-execute the
/// <name>__dd clone as a function of that snapshot alone. Anything that
/// lets state escape the region (address-taken values, local pointers,
/// calls into other code) or that reads param memory the f64i pass
/// already overwrote disqualifies; \p Why names the first blocker.
class TierEligibility {
public:
  std::string Why;

  bool check(const FunctionDecl &F) {
    if (!F.Body)
      return no("declaration only");
    if (!F.RetTy || !F.RetTy->isFloating())
      return no("return type is not a floating scalar");
    for (const VarDecl *P : F.Params) {
      const Type *T = P->Ty;
      if (T->isSimdVector())
        return no("SIMD vector parameter '" + P->Name + "'");
      if ((T->isPointer() || T->isArray()) &&
          (T->element()->isPointer() || T->element()->isSimdVector()))
        return no("unsupported pointer parameter '" + P->Name + "'");
    }
    if (!visitStmt(F.Body))
      return false;
    for (const VarDecl *P : F.Params)
      if (MemReads.count(P) && MemWrites.count(P))
        return no("memory behind parameter '" + P->Name +
                  "' is both read and written");
    return true;
  }

private:
  std::set<const VarDecl *> MemReads, MemWrites;

  bool no(const std::string &Reason) {
    if (Why.empty())
      Why = Reason;
    return false;
  }

  /// Records a memory access rooted at a variable and scans the chain's
  /// index expressions. \p E is the full Index/Deref chain.
  bool access(const Expr *E, bool IsWrite, bool IsRead) {
    const VarDecl *Root = memRootDecl(E);
    if (!Root)
      return no("unsupported pointer expression");
    if (IsWrite)
      MemWrites.insert(Root);
    if (IsRead)
      MemReads.insert(Root);
    const Expr *S = ignoreParens(E);
    while (true) {
      if (const auto *I = dynCast<IndexExpr>(S)) {
        if (!visitExpr(I->Idx))
          return false;
        S = ignoreParens(I->Base);
        continue;
      }
      const auto *U = dynCast<UnaryExpr>(S);
      if (U && U->O == UnaryExpr::Op::Deref) {
        S = ignoreParens(U->Sub);
        continue;
      }
      return true;
    }
  }

  bool visitExpr(const Expr *E) {
    if (!E)
      return true;
    if (E->type() && E->type()->isSimdVector())
      return no("uses SIMD vector values");
    switch (E->kind()) {
    case Expr::Kind::IntLiteral:
    case Expr::Kind::FloatLiteral:
    case Expr::Kind::DeclRef:
      return true;
    case Expr::Kind::Paren:
      return visitExpr(cast<ParenExpr>(E)->Sub);
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      if (U->O == UnaryExpr::Op::AddrOf)
        return no("takes the address of a value");
      if (U->O == UnaryExpr::Op::Deref)
        return access(E, /*IsWrite=*/false, /*IsRead=*/true);
      if (U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PreDec ||
          U->O == UnaryExpr::Op::PostInc ||
          U->O == UnaryExpr::Op::PostDec) {
        const Expr *S = ignoreParens(U->Sub);
        if (!dynCast<DeclRefExpr>(S))
          return access(S, /*IsWrite=*/true, /*IsRead=*/true);
        return true;
      }
      return visitExpr(U->Sub);
    }
    case Expr::Kind::Index:
      return access(E, /*IsWrite=*/false, /*IsRead=*/true);
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (B->isAssignment()) {
        const Expr *L = ignoreParens(B->LHS);
        if (!dynCast<DeclRefExpr>(L) &&
            !access(L, /*IsWrite=*/true,
                    /*IsRead=*/B->O != BinaryExpr::Op::Assign))
          return false;
        return visitExpr(B->RHS);
      }
      if ((B->O == BinaryExpr::Op::EQ || B->O == BinaryExpr::Op::NE) &&
          ((B->LHS->type() && B->LHS->type()->isFloating()) ||
           (B->RHS->type() && B->RHS->type()->isFloating())))
        return no("floating ==/!= has no double-double comparison");
      return visitExpr(B->LHS) && visitExpr(B->RHS);
    }
    case Expr::Kind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      return visitExpr(C->Cond) && visitExpr(C->Then) &&
             visitExpr(C->Else);
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      if (classifyCallee(C->Callee) != CalleeKind::MathFunction)
        return no("calls '" + C->Callee + "'");
      for (const Expr *A : C->Args)
        if (!visitExpr(A))
          return false;
      return true;
    }
    case Expr::Kind::Cast:
      return visitExpr(cast<CastExpr>(E)->Sub);
    }
    return true;
  }

  bool visitStmt(const Stmt *S) {
    if (!S)
      return true;
    switch (S->kind()) {
    case Stmt::Kind::Compound:
      for (const Stmt *C : cast<CompoundStmt>(S)->Body)
        if (!visitStmt(C))
          return false;
      return true;
    case Stmt::Kind::DeclStmt:
      for (const VarDecl *D : cast<DeclStmt>(S)->Decls) {
        if (D->Ty->isPointer())
          return no("declares local pointer '" + D->Name + "'");
        if (D->Ty->isSimdVector() ||
            (D->Ty->isArray() && D->Ty->element()->isSimdVector()))
          return no("uses SIMD vector values");
        if (!visitExpr(D->Init))
          return false;
      }
      return true;
    case Stmt::Kind::ExprStmt:
      return visitExpr(cast<ExprStmt>(S)->E);
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      return visitExpr(I->Cond) && visitStmt(I->Then) &&
             visitStmt(I->Else);
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      return visitStmt(F->Init) && visitExpr(F->Cond) &&
             visitExpr(F->Inc) && visitStmt(F->Body);
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      return visitExpr(W->Cond) && visitStmt(W->Body);
    }
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(S);
      return visitStmt(D->Body) && visitExpr(D->Cond);
    }
    case Stmt::Kind::Return:
      return visitExpr(cast<ReturnStmt>(S)->Value);
    case Stmt::Kind::Break:
    case Stmt::Kind::Continue:
    case Stmt::Kind::Null:
      return true;
    }
    return true;
  }
};

/// Escapes a string for embedding in a C string literal.
std::string escapeCString(const std::string &S) {
  std::string Out;
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += Ch;
    }
  }
  return Out;
}

class Transformer {
public:
  Transformer(ASTContext &Ctx, DiagnosticsEngine &Diags,
              const TransformOptions &Opts)
      : Ctx(Ctx), Diags(&Diags), Opts(Opts) {}

  std::string run();

  const ProfileSiteTable &siteTable() const { return SiteTable; }

private:
  /// --tier emission mode for the function currently being emitted.
  /// Wrapper: the f64i fast path with snapshot + escalation codegen.
  /// DdClone: the <name>__dd body, emitted as double-double with the
  /// uniform f64i memory ABI (loads promote, stores narrow).
  enum class TierMode { Off, Wrapper, DdClone };

  bool isDd() const {
    return Opts.Prec == TransformOptions::Precision::DoubleDouble ||
           TMode == TierMode::DdClone;
  }
  std::string sfx() const { return isDd() ? "dd" : "f64"; }
  std::string scalarIntervalType() const { return isDd() ? "ddi" : "f64i"; }

  /// Promoted spelling of a SIMD vector type (Table II).
  std::string vecTypeName(const Type *T) const {
    switch (T->kind()) {
    case Type::Kind::M128D:
      return isDd() ? "ddi_2" : "m256di_1";
    case Type::Kind::M128:
    case Type::Kind::M256D:
      return isDd() ? "ddi_4" : "m256di_2";
    case Type::Kind::M256:
      return isDd() ? "ddi_8" : "m256di_4";
    default:
      return scalarIntervalType();
    }
  }

  static bool needsPromotion(const Type *T) {
    if (!T)
      return false;
    if (T->isFloatingOrVector())
      return true;
    if (T->isPointer() || T->isArray())
      return needsPromotion(T->element());
    return false;
  }

  /// \p InMemory: the spelling describes a memory element (pointee or
  /// array element). The tier clone keeps memory at the f64i ABI so the
  /// wrapper and clone can share the caller's buffers; everything else
  /// promotes to the current tier's interval type.
  std::string promoteTypeSpelling(const Type *T, bool InMemory = false) const {
    if (T->isFloating())
      return TMode == TierMode::DdClone && InMemory ? "f64i"
                                                    : scalarIntervalType();
    if (T->isSimdVector())
      return vecTypeName(T);
    if (T->isPointer())
      return promoteTypeSpelling(T->element(), /*InMemory=*/true) + " *";
    return T->cName();
  }

  /// --harden: whole-interval ([-inf, +inf]) constructor call for a
  /// promoted interval type, or "" when \p T does not promote to one.
  std::string wholeCtorFor(const Type *T) const {
    if (!T)
      return "";
    if (T->isFloating())
      return "ia_whole_" + sfx() + "()";
    if (T->isSimdVector())
      return "ia_whole_" + vecTypeName(T) + "()";
    return "";
  }

  std::string promoteTypeAndName(const Type *T, const std::string &Name) {
    std::string Dims;
    const Type *Base = T;
    while (Base->isArray()) {
      Dims +=
          formatString("[%lld]", static_cast<long long>(Base->arraySize()));
      Base = Base->element();
    }
    std::string TypeName = promoteTypeSpelling(Base, /*InMemory=*/!Dims.empty());
    return TypeName + (endsWith(TypeName, "*") ? "" : " ") + Name + Dims;
  }

  /// True when \p E is a floating lvalue that lives in f64i memory under
  /// the clone's uniform ABI (array element or pointer dereference).
  bool cloneMemLvalue(const Expr *E) const {
    if (TMode != TierMode::DdClone || !E->type() || !E->type()->isFloating())
      return false;
    const Expr *S = ignoreParens(E);
    if (S->kind() == Expr::Kind::Index)
      return true;
    const auto *U = dynCast<UnaryExpr>(S);
    return U && U->O == UnaryExpr::Op::Deref;
  }

  // Expressions.
  TR transformExpr(const Expr *E);
  TR transformBinary(const BinaryExpr *B);
  TR transformUnary(const UnaryExpr *U);
  TR transformCall(const CallExpr *C);
  TR transformCast(const CastExpr *C);

  // Mid-end optimizer hooks (src/opt). All of them degrade to "emit the
  // generic call" when the analysis proved nothing.
  bool optOn() const { return Opts.OptLevel > 0; }
  /// Scalar-double sign specialization and fusion only applies when the
  /// operation lowers to the f64 scalar runtime (not dd, not vectors).
  bool scalarF64(const Type *T) const {
    return !isDd() && T && T->isFloating();
  }
  /// 'p': enclosure proven within [0,+inf); 'n': within (-inf,0]; 'u'.
  /// Inside a sign-versioned loop copy, references to the version
  /// variable take the class that copy's run-time test established.
  char signClassOf(const Expr *E) const {
    if (VersionClass) {
      const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(E));
      if (Ref && Ref->Decl == VersionVar)
        return VersionClass;
    }
    ValueFact F = OptInfo.factFor(E);
    if (F.provenNonNeg())
      return 'p';
    if (F.provenNonPos())
      return 'n';
    return 'u';
  }
  std::string specializedMul(const Expr *LE, const Expr *RE,
                             const std::string &LC, const std::string &RC);
  std::string specializedDiv(const Expr *RE, const std::string &LC,
                             const std::string &RC);
  /// Fuses add/sub-of-mul into ia_fma_* (empty string: no fusion).
  std::string tryFuseFma(const Expr *MulSide, const Expr *AddendExpr,
                         const std::string &AddendCode, bool NegateMul,
                         bool NegateAddend);
  const std::string *findActiveTemp(const Expr *E) const;
  size_t emitCseTemps(const Stmt *S);
  void popTemps(size_t N) { ActiveTemps.resize(ActiveTemps.size() - N); }
  TR makeConstant(const Interval &F64, const DdInterval &Dd,
                  const Type *OrigTy);
  std::string materializeConst(const TR &V) const;
  std::string asInterval(const TR &V);
  std::string asTBool(const TR &V);
  std::string lvalueOf(const Expr *E);

  // Statements.
  void emitStmt(const Stmt *S);
  void emitCompound(const CompoundStmt *S);
  /// Emits a statement as a brace-wrapped body (flattens compounds).
  void emitBody(const Stmt *S);
  void emitIf(const IfStmt *S);
  void emitFor(const ForStmt *S);
  void emitLoopCopy(const ForStmt *S, const VarDecl *V, char Class);
  void emitRowKernel(const RowKernelLoop &K);
  void emitWhileCond(std::string Keyword, const Expr *Cond);
  void emitDecl(const VarDecl *D);
  void emitExprStmt(const ExprStmt *S);
  std::string forHeader(const ForStmt *S);
  void emitFunction(FunctionDecl *F);
  void emitFunctionImpl(FunctionDecl *F, const std::string &EmitName);

  // Join-mode branch support: collects scalar interval variables assigned
  // within \p S; returns false if the branch does anything the join
  // transformation cannot handle (Section IV-B).
  bool collectJoinTargets(const Stmt *S, std::set<VarDecl *> &Targets);
  bool collectAssignTargetsInExpr(const Expr *E,
                                  std::set<VarDecl *> &Targets);

  void line(const std::string &Text) {
    Body += std::string(Indent * 2, ' ');
    Body += Text;
    Body += '\n';
  }
  std::string freshTemp() { return formatString("_t%d", ++TempCounter); }

  /// Profiling hook wrapped around every scalar ia_* arithmetic call the
  /// transformer emits. With Opts.Profile off it returns \p Call verbatim
  /// (making the unprofiled output byte-identical by construction); with
  /// it on, the call is rewritten to the corresponding iap_* wrapper
  /// carrying a freshly assigned static site ID, and the site's metadata
  /// (op, enclosing function, source location, reconstructed text) is
  /// recorded in SiteTable. Called at emission time, so sign-specialized
  /// and FMA-fused rewrites inherit the originating expression's site.
  std::string prof(std::string Call, const Expr *Origin) {
    if (!Opts.Profile)
      return Call;
    size_t Paren = Call.find('(');
    if (Paren == std::string::npos || Call.compare(0, 3, "ia_") != 0)
      return Call;
    std::string Op = Call.substr(3, Paren - 3);
    // Only the scalar f64/dd runtime has iap_* wrappers; vector calls
    // (ia_*_m256di_k / ia_*_ddi_k) pass through uninstrumented.
    if (endsWith(Op, "_f64"))
      Op.resize(Op.size() - 4);
    else if (endsWith(Op, "_dd"))
      Op.resize(Op.size() - 3);
    else
      return Call;
    ProfileSite Site;
    Site.Op = Op;
    Site.Func = CurFuncName;
    if (Origin) {
      Site.Line = Origin->loc().Line;
      Site.Col = Origin->loc().Col;
      Site.Text = unparseExpr(Origin);
      if (Site.Text.size() > 60)
        Site.Text = Site.Text.substr(0, 57) + "...";
    }
    unsigned Id = static_cast<unsigned>(SiteTable.Sites.size());
    SiteTable.Sites.push_back(std::move(Site));
    return "iap" + Call.substr(2, Paren - 2) +
           formatString("(_igen_prof_base + %uu, ", Id) +
           Call.substr(Paren + 1);
  }

  /// Drops site- and region-table rows whose IDs never appear in the
  /// emitted body and renumbers the survivors (one shared pass per table;
  /// see compactIdReferences). Rewrites like FMA fusion build (and
  /// thereby instrument) their operand code before deciding to replace
  /// it, which can orphan a site; the embedded tables must only describe
  /// entries that can actually execute.
  void compactSites() {
    std::vector<bool> KeepSite = compactIdReferences(
        Body, "_igen_prof_base + ", SiteTable.Sites.size());
    filterByMask(SiteTable.Sites, KeepSite);
    std::vector<bool> KeepRegion = compactIdReferences(
        Body, "_igen_tier_base + ", SiteTable.Regions.size());
    filterByMask(SiteTable.Regions, KeepRegion);
  }

  template <typename T>
  static void filterByMask(std::vector<T> &Rows,
                           const std::vector<bool> &Keep) {
    size_t Next = 0;
    for (size_t I = 0; I < Rows.size(); ++I)
      if (Keep[I]) {
        if (Next != I)
          Rows[Next] = std::move(Rows[I]);
        ++Next;
      }
    Rows.resize(Next);
  }

  ASTContext &Ctx;
  /// Where diagnostics go; a throwaway engine while a versioned loop's
  /// second and third copies re-lower what the first already reported.
  DiagnosticsEngine *Diags;
  TransformOptions Opts;
  std::string Body;
  int Indent = 0;
  int TempCounter = 0;
  int AccCounter = 0;
  bool UsedGeneratedIntrinsics = false;
  std::map<const VarDecl *, std::string> Renames;
  ReductionAnalysisResult Reductions;
  std::map<const Stmt *, std::pair<const ReductionSite *, std::string>>
      UpdateToAcc;

  // Profiling state (per translation unit).
  ProfileSiteTable SiteTable;
  std::string CurFuncName;

  // --tier state (set per function while emitting the wrapper).
  TierMode TMode = TierMode::Off;
  unsigned TierRegionId = 0;
  bool TierMovable = true;
  std::string TierCloneCall; ///< "<name>__dd(<snapshotted args>)"

  /// Functions *defined* in this TU (for --harden: calls to these need
  /// no post-call fenv guard, their own prologue re-checks; calls to
  /// declared-only externals do).
  std::set<std::string> DefinedFns;

  // Mid-end optimizer state (per function).
  OptFunctionInfo OptInfo;
  /// Enclosures currently available in a named temp (_cseN/_hoistN),
  /// innermost scope last. transformExpr consults this before emitting.
  std::vector<std::pair<const Expr *, std::string>> ActiveTemps;
  int HoistCounter = 0;
  int CseCounter = 0;
  /// The loop copy being emitted by a sign-versioned for-loop: its
  /// version variable and the class ('p' or 'n') its test proved, or 0.
  const VarDecl *VersionVar = nullptr;
  char VersionClass = 0;
};

//===----------------------------------------------------------------------===//
// Constants
//===----------------------------------------------------------------------===//

TR Transformer::makeConstant(const Interval &F64, const DdInterval &Dd,
                             const Type *OrigTy) {
  TR R;
  R.C = Cat::Interval;
  R.OrigTy = OrigTy;
  R.IsConst = true;
  R.CF64 = F64;
  R.CDd = Dd;
  R.Code = materializeConst(R);
  return R;
}

std::string Transformer::materializeConst(const TR &V) const {
  if (!isDd()) {
    const Interval &I = V.CF64;
    if (I.isPoint())
      return "ia_cst_f64(" + fmtDouble(I.hi()) + ")";
    return "ia_set_f64(" + fmtDouble(I.lo()) + ", " + fmtDouble(I.hi()) +
           ")";
  }
  const DdInterval &I = V.CDd;
  bool Point = I.NegLo.H == -I.Hi.H && I.NegLo.L == -I.Hi.L;
  if (Point && I.Hi.L == 0.0)
    return "ia_cst_dd(" + fmtDouble(I.Hi.H) + ")";
  return "ia_set_ddc(" + fmtDouble(-I.NegLo.H) + ", " +
         fmtDouble(-I.NegLo.L) + ", " + fmtDouble(I.Hi.H) + ", " +
         fmtDouble(I.Hi.L) + ")";
}

//===----------------------------------------------------------------------===//
// Category conversions
//===----------------------------------------------------------------------===//

std::string Transformer::asInterval(const TR &V) {
  if (V.C == Cat::Interval)
    return V.Code;
  if (V.C == Cat::TBool) {
    Diags->error(SourceLoc(), "cannot use a comparison result as a value");
    return V.Code;
  }
  if (V.OrigTy && V.OrigTy->isInteger())
    return "ia_cst_" + sfx() + "((double)(" + V.Code + "))";
  return "ia_cst_" + sfx() + "(" + V.Code + ")";
}

std::string Transformer::asTBool(const TR &V) {
  if (V.C == Cat::TBool)
    return V.Code;
  return "ia_bool2tb(" + V.Code + ")";
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

TR Transformer::transformExpr(const Expr *E) {
  if (const std::string *Temp = findActiveTemp(E)) {
    TR R;
    R.Code = *Temp;
    R.C = Cat::Interval;
    R.OrigTy = E->type();
    return R;
  }
  switch (E->kind()) {
  case Expr::Kind::IntLiteral: {
    const auto *I = cast<IntLiteralExpr>(E);
    TR R;
    R.Code = I->Spelling;
    R.OrigTy = E->type();
    return R;
  }
  case Expr::Kind::FloatLiteral: {
    const auto *F = cast<FloatLiteralExpr>(E);
    RoundUpwardScope Up;
    if (F->IsTolerance) {
      // 0.25t denotes the interval [-t, t] around zero (Section IV-C).
      DdInterval Enc = ddIntervalFromDecimal(F->Spelling);
      DdInterval DdI(Enc.Hi, Enc.Hi); // stored (-lo, hi) = (hi, hi)
      Interval Hull = Enc.outerHull();
      Interval F64I(Hull.Hi, Hull.Hi);
      return makeConstant(F64I, DdI, E->type());
    }
    // Double target follows the paper: integer-valued constants are
    // exact, others become [prev(v), next(v)]. The double-double target
    // uses the tight decimal enclosure.
    double V = F->Value;
    Interval F64I;
    if (V == std::trunc(V) && std::fabs(V) < 0x1p53)
      F64I = Interval::fromPoint(V);
    else
      F64I = Interval::fromEndpoints(nextDown(V), nextUp(V));
    DdInterval DdI = ddIntervalFromDecimal(F->Spelling);
    if (DdI.hasNaN())
      DdI = DdInterval::fromPoint(V);
    return makeConstant(F64I, DdI, E->type());
  }
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    TR R;
    auto It = Renames.find(Ref->Decl);
    R.Code = It != Renames.end() ? It->second : Ref->Name;
    R.OrigTy = E->type();
    if (It != Renames.end() ||
        (E->type() && E->type()->isFloatingOrVector()))
      R.C = Cat::Interval;
    return R;
  }
  case Expr::Kind::Paren: {
    TR R = transformExpr(cast<ParenExpr>(E)->Sub);
    if (R.C == Cat::Plain && !R.IsConst)
      R.Code = "(" + R.Code + ")";
    return R;
  }
  case Expr::Kind::Unary:
    return transformUnary(cast<UnaryExpr>(E));
  case Expr::Kind::Binary:
    return transformBinary(cast<BinaryExpr>(E));
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    TR Cond = transformExpr(C->Cond);
    TR Then = transformExpr(C->Then);
    TR Else = transformExpr(C->Else);
    if (Cond.C == Cat::TBool)
      Diags->error(E->loc(),
                   "interval-dependent '?:' conditions are not supported; "
                   "rewrite as an if statement");
    TR R;
    R.OrigTy = E->type();
    if (E->type() && E->type()->isFloatingOrVector()) {
      R.C = Cat::Interval;
      R.Code = "(" + Cond.Code + " ? " + asInterval(Then) + " : " +
               asInterval(Else) + ")";
    } else {
      R.Code =
          "(" + Cond.Code + " ? " + Then.Code + " : " + Else.Code + ")";
    }
    return R;
  }
  case Expr::Kind::Call:
    return transformCall(cast<CallExpr>(E));
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    TR Base = transformExpr(I->Base);
    TR Idx = transformExpr(I->Idx);
    TR R;
    R.Code = Base.Code + "[" + Idx.Code + "]";
    R.OrigTy = E->type();
    if (E->type() && E->type()->isFloatingOrVector())
      R.C = Cat::Interval;
    if (cloneMemLvalue(E))
      R.Code = "ia_promote_f64_dd(" + R.Code + ")";
    return R;
  }
  case Expr::Kind::Cast:
    return transformCast(cast<CastExpr>(E));
  }
  return TR();
}

TR Transformer::transformUnary(const UnaryExpr *U) {
  TR Sub = transformExpr(U->Sub);
  TR R;
  R.OrigTy = U->type();
  switch (U->O) {
  case UnaryExpr::Op::Neg:
    if (Sub.IsConst) {
      RoundUpwardScope Up;
      return makeConstant(iNeg(Sub.CF64), ddiNeg(Sub.CDd), U->type());
    }
    if (Sub.C == Cat::Interval) {
      R.C = Cat::Interval;
      std::string OpSfx = (Sub.OrigTy && Sub.OrigTy->isSimdVector())
                              ? vecTypeName(Sub.OrigTy)
                              : sfx();
      R.Code = prof("ia_neg_" + OpSfx + "(" + Sub.Code + ")", U);
      return R;
    }
    R.Code = Sub.Code[0] == '-' ? "-(" + Sub.Code + ")"
                                : "-" + maybeParen(Sub);
    return R;
  case UnaryExpr::Op::Plus:
    return Sub;
  case UnaryExpr::Op::LogicalNot:
    if (Sub.C == Cat::TBool) {
      R.C = Cat::TBool;
      R.Code = "ia_not_tb(" + Sub.Code + ")";
      return R;
    }
    R.Code = "!" + maybeParen(Sub);
    return R;
  case UnaryExpr::Op::BitNot:
    R.Code = "~" + maybeParen(Sub);
    return R;
  case UnaryExpr::Op::PreInc:
  case UnaryExpr::Op::PreDec:
  case UnaryExpr::Op::PostInc:
  case UnaryExpr::Op::PostDec: {
    if (Sub.C == Cat::Interval) {
      Diags->error(U->loc(), "++/-- on floating-point values is not "
                             "supported in the IGen C subset");
      return Sub;
    }
    bool Pre =
        U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PreDec;
    bool Inc =
        U->O == UnaryExpr::Op::PreInc || U->O == UnaryExpr::Op::PostInc;
    R.Code = Pre ? (std::string(Inc ? "++" : "--") + Sub.Code)
                 : (Sub.Code + (Inc ? "++" : "--"));
    return R;
  }
  case UnaryExpr::Op::Deref:
    R.Code = "*" + maybeParen(Sub);
    if (U->type() && U->type()->isFloatingOrVector())
      R.C = Cat::Interval;
    if (cloneMemLvalue(U))
      R.Code = "ia_promote_f64_dd(" + R.Code + ")";
    return R;
  case UnaryExpr::Op::AddrOf:
    R.Code = "&" + maybeParen(Sub);
    return R;
  }
  return R;
}

const std::string *Transformer::findActiveTemp(const Expr *E) const {
  if (ActiveTemps.empty())
    return nullptr;
  switch (ignoreParens(E)->kind()) {
  case Expr::Kind::Binary:
  case Expr::Kind::Unary:
  case Expr::Kind::Call:
    break; // only op nodes ever become temps
  default:
    return nullptr;
  }
  for (const auto &[Rep, Name] : ActiveTemps)
    if (exprCseEqual(Rep, E))
      return &Name;
  return nullptr;
}

std::string Transformer::specializedMul(const Expr *LE, const Expr *RE,
                                        const std::string &LC,
                                        const std::string &RC) {
  const char SL = signClassOf(LE), SR = signClassOf(RE);
  if (SL == 'u' && SR == 'u')
    return "";
  // Multiplication commutes and argument evaluation order is unspecified
  // in C anyway, but only reorder operands we know are side-effect-free.
  const bool Swappable = exprIsPureValue(LE) && exprIsPureValue(RE);
  auto call = [&](const char *V, const std::string &A,
                  const std::string &B) {
    return std::string("ia_mul_") + V + "_f64(" + A + ", " + B + ")";
  };
  if (SL == 'p' && SR == 'p')
    return call("pp", LC, RC);
  if (SL == 'n' && SR == 'n')
    return call("nn", LC, RC);
  if (SL == 'p' && SR == 'n')
    return call("pn", LC, RC);
  if (SL == 'n' && SR == 'p')
    return Swappable ? call("pn", RC, LC) : "";
  if (SL == 'p')
    return call("pu", LC, RC);
  if (SR == 'p')
    return Swappable ? call("pu", RC, LC) : "";
  if (SL == 'n')
    return call("nu", LC, RC);
  return Swappable ? call("nu", RC, LC) : ""; // SR == 'n'
}

std::string Transformer::specializedDiv(const Expr *RE,
                                        const std::string &LC,
                                        const std::string &RC) {
  const ValueFact F = OptInfo.factFor(RE);
  if (F.provenPos())
    return "ia_div_p_f64(" + LC + ", " + RC + ")";
  if (F.provenNeg())
    return "ia_div_n_f64(" + LC + ", " + RC + ")";
  return "";
}

/// Fuses `mul(a,b) + addend` (NegateMul/NegateAddend select the sub
/// forms) into one ia_fma_* call. \p MulSide must be a floating scalar
/// multiply that was not const-folded or CSE'd by the caller.
std::string Transformer::tryFuseFma(const Expr *MulSide,
                                    const Expr *AddendExpr,
                                    const std::string &AddendCode,
                                    bool NegateMul, bool NegateAddend) {
  const auto *M = dynCast<BinaryExpr>(ignoreParens(MulSide));
  if (!M || M->O != BinaryExpr::Op::Mul || !scalarF64(M->type()))
    return "";
  (void)AddendExpr;
  TR A = transformExpr(M->LHS);
  TR Bv = transformExpr(M->RHS);
  if (A.IsConst && Bv.IsConst)
    return ""; // would have folded; keep the constant path
  std::string AC = asInterval(A), BC = asInterval(Bv);
  char SA = signClassOf(M->LHS);
  const char SB = signClassOf(M->RHS);
  if (NegateMul) {
    // -(a*b) + c == (-a)*b + c; negation flips a's sign class exactly.
    AC = "ia_neg_f64(" + AC + ")";
    SA = SA == 'p' ? 'n' : SA == 'n' ? 'p' : 'u';
  }
  std::string CC = AddendCode;
  if (NegateAddend)
    CC = "ia_neg_f64(" + CC + ")";
  const bool Swappable =
      exprIsPureValue(M->LHS) && exprIsPureValue(M->RHS) && !NegateMul;
  auto call = [&](const char *V, const std::string &X,
                  const std::string &Y) {
    return std::string("ia_fma") + (*V ? "_" : "") + V + "_f64(" + X +
           ", " + Y + ", " + CC + ")";
  };
  if (SA == 'p' && SB == 'p')
    return call("pp", AC, BC);
  if (SA == 'n' && SB == 'n')
    return call("nn", AC, BC);
  if (SA == 'p' && SB == 'n')
    return call("pn", AC, BC);
  if (SA == 'n' && SB == 'p')
    return Swappable ? call("pn", BC, AC) : call("", AC, BC);
  if (SA == 'p')
    return call("pu", AC, BC);
  if (SB == 'p')
    return Swappable ? call("pu", BC, AC) : call("", AC, BC);
  if (SA == 'n')
    return call("nu", AC, BC);
  if (SB == 'n')
    return Swappable ? call("nu", BC, AC) : call("", AC, BC);
  return call("", AC, BC);
}

TR Transformer::transformBinary(const BinaryExpr *B) {
  if (B->isAssignment()) {
    std::string LHS = lvalueOf(B->LHS);
    TR RHS = transformExpr(B->RHS);
    bool IntervalTarget =
        B->LHS->type() && B->LHS->type()->isFloatingOrVector();
    TR R;
    R.OrigTy = B->type();
    if (!IntervalTarget) {
      const char *OpStr = B->O == BinaryExpr::Op::Assign      ? " = "
                          : B->O == BinaryExpr::Op::AddAssign ? " += "
                          : B->O == BinaryExpr::Op::SubAssign ? " -= "
                          : B->O == BinaryExpr::Op::MulAssign ? " *= "
                                                              : " /= ";
      R.Code = LHS + OpStr + RHS.Code;
      return R;
    }
    R.C = Cat::Interval;
    std::string OpSfx = B->LHS->type()->isSimdVector()
                            ? vecTypeName(B->LHS->type())
                            : sfx();
    std::string Value = asInterval(RHS);
    // Clone memory ABI: the stored element is f64i; compound updates
    // promote the current value into the dd arithmetic and the final
    // value narrows back to its outer f64 hull on the way out.
    const bool MemAbi = cloneMemLvalue(B->LHS);
    const std::string Cur =
        MemAbi ? "ia_promote_f64_dd(" + LHS + ")" : LHS;
    if (optOn() && scalarF64(B->LHS->type())) {
      std::string Opt;
      switch (B->O) {
      case BinaryExpr::Op::AddAssign: // y += a*b  ->  y = fma(a, b, y)
        if (!RHS.IsConst && !findActiveTemp(B->RHS) &&
            !OptInfo.FmaLoopHazards.count(B))
          Opt = tryFuseFma(B->RHS, nullptr, LHS, false, false);
        break;
      case BinaryExpr::Op::SubAssign: // y -= a*b  ->  y = fma(-a, b, y)
        if (!RHS.IsConst && !findActiveTemp(B->RHS) &&
            !OptInfo.FmaLoopHazards.count(B))
          Opt = tryFuseFma(B->RHS, nullptr, LHS, true, false);
        break;
      case BinaryExpr::Op::MulAssign:
        Opt = specializedMul(B->LHS, B->RHS, LHS, Value);
        break;
      case BinaryExpr::Op::DivAssign:
        Opt = specializedDiv(B->RHS, LHS, Value);
        break;
      default:
        break;
      }
      if (!Opt.empty()) {
        R.Code = LHS + " = " + prof(Opt, B);
        return R;
      }
    }
    switch (B->O) {
    case BinaryExpr::Op::AddAssign:
      Value = prof("ia_add_" + OpSfx + "(" + Cur + ", " + Value + ")", B);
      break;
    case BinaryExpr::Op::SubAssign:
      Value = prof("ia_sub_" + OpSfx + "(" + Cur + ", " + Value + ")", B);
      break;
    case BinaryExpr::Op::MulAssign:
      Value = prof("ia_mul_" + OpSfx + "(" + Cur + ", " + Value + ")", B);
      break;
    case BinaryExpr::Op::DivAssign:
      Value = prof("ia_div_" + OpSfx + "(" + Cur + ", " + Value + ")", B);
      break;
    default:
      break;
    }
    if (MemAbi)
      Value = "ia_narrow_dd_f64(" + Value + ")";
    R.Code = LHS + " = " + Value;
    return R;
  }

  TR L = transformExpr(B->LHS);
  TR R = transformExpr(B->RHS);
  bool FloatOp =
      (B->LHS->type() && B->LHS->type()->isFloatingOrVector()) ||
      (B->RHS->type() && B->RHS->type()->isFloatingOrVector());

  switch (B->O) {
  case BinaryExpr::Op::Add:
  case BinaryExpr::Op::Sub:
  case BinaryExpr::Op::Mul:
  case BinaryExpr::Op::Div: {
    TR Out;
    Out.OrigTy = B->type();
    if (!FloatOp) {
      const char *Op = B->O == BinaryExpr::Op::Add   ? " + "
                       : B->O == BinaryExpr::Op::Sub ? " - "
                       : B->O == BinaryExpr::Op::Mul ? " * "
                                                     : " / ";
      Out.Code = maybeParen(L) + Op + maybeParen(R);
      return Out;
    }
    // Constant folding on intervals (Section IV-B). Integer literals
    // fold too: lift them first.
    auto liftConst = [&](TR &V, const Expr *Orig) {
      if (V.IsConst)
        return true;
      const auto *IL = dynCast<IntLiteralExpr>(ignoreParens(Orig));
      if (!IL)
        return false;
      double D = static_cast<double>(IL->Value);
      V.IsConst = true;
      V.CF64 = Interval::fromPoint(D);
      V.CDd = DdInterval::fromPoint(D);
      return true;
    };
    if (liftConst(L, B->LHS) && liftConst(R, B->RHS)) {
      RoundUpwardScope Up;
      Interval F64;
      DdInterval Dd;
      switch (B->O) {
      case BinaryExpr::Op::Add:
        F64 = iAdd(L.CF64, R.CF64);
        Dd = ddiAdd(L.CDd, R.CDd);
        break;
      case BinaryExpr::Op::Sub:
        F64 = iSub(L.CF64, R.CF64);
        Dd = ddiSub(L.CDd, R.CDd);
        break;
      case BinaryExpr::Op::Mul:
        F64 = iMul(L.CF64, R.CF64);
        Dd = ddiMul(L.CDd, R.CDd);
        break;
      default:
        F64 = iDiv(L.CF64, R.CF64);
        Dd = ddiDiv(L.CDd, R.CDd);
        break;
      }
      return makeConstant(F64, Dd, B->type());
    }
    Out.C = Cat::Interval;
    bool Vector = B->type() && B->type()->isSimdVector();
    std::string OpSfx = Vector ? vecTypeName(B->type()) : sfx();
    if (optOn() && !Vector && scalarF64(B->type())) {
      std::string Opt;
      switch (B->O) {
      case BinaryExpr::Op::Mul:
        Opt = specializedMul(B->LHS, B->RHS, asInterval(L), asInterval(R));
        break;
      case BinaryExpr::Op::Div:
        Opt = specializedDiv(B->RHS, asInterval(L), asInterval(R));
        break;
      case BinaryExpr::Op::Add:
        // a*b + c (either side). A mul that is already const-folded or
        // available in a CSE/hoist temp stays a plain operand; a mul
        // feeding a loop-carried accumulation stays unfused.
        if (OptInfo.FmaLoopHazards.count(B))
          break;
        if (!L.IsConst && !findActiveTemp(B->LHS))
          Opt = tryFuseFma(B->LHS, B->RHS, asInterval(R), false, false);
        if (Opt.empty() && !R.IsConst && !findActiveTemp(B->RHS))
          Opt = tryFuseFma(B->RHS, B->LHS, asInterval(L), false, false);
        break;
      case BinaryExpr::Op::Sub:
        // a*b - c = fma(a, b, -c);  c - a*b = fma(-a, b, c).
        if (OptInfo.FmaLoopHazards.count(B))
          break;
        if (!L.IsConst && !findActiveTemp(B->LHS))
          Opt = tryFuseFma(B->LHS, B->RHS, asInterval(R), false, true);
        if (Opt.empty() && !R.IsConst && !findActiveTemp(B->RHS))
          Opt = tryFuseFma(B->RHS, B->LHS, asInterval(L), true, false);
        break;
      default:
        break;
      }
      if (!Opt.empty()) {
        Out.Code = prof(Opt, B);
        return Out;
      }
    }
    const char *Name = B->O == BinaryExpr::Op::Add   ? "add"
                       : B->O == BinaryExpr::Op::Sub ? "sub"
                       : B->O == BinaryExpr::Op::Mul ? "mul"
                                                     : "div";
    Out.Code = prof(std::string("ia_") + Name + "_" + OpSfx + "(" +
                        asInterval(L) + ", " + asInterval(R) + ")",
                    B);
    return Out;
  }
  case BinaryExpr::Op::LT:
  case BinaryExpr::Op::GT:
  case BinaryExpr::Op::LE:
  case BinaryExpr::Op::GE:
  case BinaryExpr::Op::EQ:
  case BinaryExpr::Op::NE: {
    TR Out;
    Out.OrigTy = B->type();
    if (!FloatOp) {
      const char *Op = B->O == BinaryExpr::Op::LT   ? " < "
                       : B->O == BinaryExpr::Op::GT ? " > "
                       : B->O == BinaryExpr::Op::LE ? " <= "
                       : B->O == BinaryExpr::Op::GE ? " >= "
                       : B->O == BinaryExpr::Op::EQ ? " == "
                                                    : " != ";
      Out.Code = maybeParen(L) + Op + maybeParen(R);
      return Out;
    }
    if ((B->LHS->type() && B->LHS->type()->isSimdVector()) ||
        (B->RHS->type() && B->RHS->type()->isSimdVector()))
      Diags->error(B->loc(),
                   "comparisons of SIMD vectors are not supported");
    if (isDd() &&
        (B->O == BinaryExpr::Op::EQ || B->O == BinaryExpr::Op::NE))
      Diags->error(B->loc(),
                   "==/!= on double-double intervals is not supported");
    const char *Name = B->O == BinaryExpr::Op::LT   ? "cmplt"
                       : B->O == BinaryExpr::Op::GT ? "cmpgt"
                       : B->O == BinaryExpr::Op::LE ? "cmple"
                       : B->O == BinaryExpr::Op::GE ? "cmpge"
                       : B->O == BinaryExpr::Op::EQ ? "cmpeq"
                                                    : "cmpne";
    Out.C = Cat::TBool;
    Out.Code = std::string("ia_") + Name + "_" + sfx() + "(" +
               asInterval(L) + ", " + asInterval(R) + ")";
    return Out;
  }
  case BinaryExpr::Op::LAnd:
  case BinaryExpr::Op::LOr: {
    TR Out;
    Out.OrigTy = B->type();
    if (L.C == Cat::TBool || R.C == Cat::TBool) {
      Out.C = Cat::TBool;
      Out.Code = std::string(B->O == BinaryExpr::Op::LAnd ? "ia_and_tb"
                                                          : "ia_or_tb") +
                 "(" + asTBool(L) + ", " + asTBool(R) + ")";
      return Out;
    }
    Out.Code = maybeParen(L) +
               (B->O == BinaryExpr::Op::LAnd ? " && " : " || ") +
               maybeParen(R);
    return Out;
  }
  default: {
    TR Out;
    Out.OrigTy = B->type();
    const char *Op = B->O == BinaryExpr::Op::Rem      ? " % "
                     : B->O == BinaryExpr::Op::Shl    ? " << "
                     : B->O == BinaryExpr::Op::Shr    ? " >> "
                     : B->O == BinaryExpr::Op::BitAnd ? " & "
                     : B->O == BinaryExpr::Op::BitOr  ? " | "
                                                      : " ^ ";
    Out.Code = maybeParen(L) + Op + maybeParen(R);
    return Out;
  }
  }
}

std::string Transformer::lvalueOf(const Expr *E) {
  const Expr *Stripped = ignoreParens(E);
  switch (Stripped->kind()) {
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(Stripped);
    auto It = Renames.find(Ref->Decl);
    return It != Renames.end() ? It->second : Ref->Name;
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(Stripped);
    TR Idx = transformExpr(I->Idx);
    return lvalueOf(I->Base) + "[" + Idx.Code + "]";
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(Stripped);
    if (U->O == UnaryExpr::Op::Deref)
      return "*" + lvalueOf(U->Sub);
    break;
  }
  default:
    break;
  }
  Diags->error(Stripped->loc(), "unsupported assignment target");
  return transformExpr(Stripped).Code;
}

TR Transformer::transformCast(const CastExpr *C) {
  TR Sub = transformExpr(C->Sub);
  TR R;
  R.OrigTy = C->type();
  const Type *From = C->Sub->type();
  if (C->To->isPointer()) {
    R.Code = "(" + promoteTypeSpelling(C->To) + ")(" + Sub.Code + ")";
    return R;
  }
  if (C->To->isFloating()) {
    if (Sub.IsConst)
      return makeConstant(Sub.CF64, Sub.CDd, C->type());
    if (Sub.C == Cat::Interval) {
      if (C->To->kind() == Type::Kind::Float && From &&
          From->kind() == Type::Kind::Double) {
        R.C = Cat::Interval;
        R.Code = prof("ia_f32cast_" + sfx() + "(" + Sub.Code + ")", C);
        return R;
      }
      return Sub; // float<->double widening: intervals already double
    }
    R.C = Cat::Interval;
    R.Code = "ia_cst_" + sfx() + "((double)(" + Sub.Code + "))";
    return R;
  }
  R.Code = "(" + C->To->cName() + ")(" + Sub.Code + ")";
  return R;
}

//===----------------------------------------------------------------------===//
// Calls: math functions, SIMD intrinsics, user functions (Section V)
//===----------------------------------------------------------------------===//

namespace detail {

/// Hand-optimized interval implementations of common intrinsics
/// (Section V, "Optimized implementations"), double-precision target.
const std::map<std::string, std::string> &handOptimizedF64() {
  static const std::map<std::string, std::string> Map = {
      {"_mm256_add_pd", "ia_add_m256di_2"},
      {"_mm256_sub_pd", "ia_sub_m256di_2"},
      {"_mm256_mul_pd", "ia_mul_m256di_2"},
      {"_mm256_div_pd", "ia_div_m256di_2"},
      {"_mm256_sqrt_pd", "ia_sqrt_m256di_2"},
      {"_mm256_loadu_pd", "ia_loadu_m256di_2"},
      {"_mm256_load_pd", "ia_loadu_m256di_2"},
      {"_mm256_storeu_pd", "ia_storeu_m256di_2"},
      {"_mm256_store_pd", "ia_storeu_m256di_2"},
      {"_mm256_set1_pd", "ia_set1_m256di_2"},
      {"_mm256_set_pd", "ia_set_m256di_2"},
      {"_mm256_setzero_pd", "ia_setzero_m256di_2"},
      {"_mm_add_pd", "ia_add_m256di_1"},
      {"_mm_sub_pd", "ia_sub_m256di_1"},
      {"_mm_mul_pd", "ia_mul_m256di_1"},
      {"_mm_div_pd", "ia_div_m256di_1"},
      {"_mm_loadu_pd", "ia_loadu_m256di_1"},
      {"_mm_load_pd", "ia_loadu_m256di_1"},
      {"_mm_storeu_pd", "ia_storeu_m256di_1"},
      {"_mm_store_pd", "ia_storeu_m256di_1"},
      {"_mm_set1_pd", "ia_set1_m256di_1"},
      {"_mm_setzero_pd", "ia_setzero_m256di_1"},
      {"_mm_cvtsd_f64", "ia_extract0_m256di_1"},
      {"_mm256_extractf128_pd", "ia_extractf128_m256di_2"},
      {"_mm256_castpd256_pd128", "ia_castlow_m256di_2"},
  };
  return Map;
}

/// Memory/shuffle-free intrinsics that stay hand-written even for the
/// double-double target (arithmetic goes through the generated automatic
/// path, which is what makes IGen-vv-dd slow in the paper).
const std::map<std::string, std::string> &handOptimizedDd() {
  static const std::map<std::string, std::string> Map = {
      {"_mm256_loadu_pd", "ia_loadu_ddi_4"},
      {"_mm256_load_pd", "ia_loadu_ddi_4"},
      {"_mm256_storeu_pd", "ia_storeu_ddi_4"},
      {"_mm256_store_pd", "ia_storeu_ddi_4"},
      {"_mm256_set1_pd", "ia_set1_ddi_4"},
      {"_mm256_set_pd", "ia_set_ddi_4"},
      {"_mm256_setzero_pd", "ia_setzero_ddi_4"},
      {"_mm256_add_pd", "ia_add_ddi_4"},
      {"_mm256_sub_pd", "ia_sub_ddi_4"},
      {"_mm256_mul_pd", "ia_mul_ddi_4"},
      {"_mm256_div_pd", "ia_div_ddi_4"},
      {"_mm_loadu_pd", "ia_loadu_ddi_2"},
      {"_mm_load_pd", "ia_loadu_ddi_2"},
      {"_mm_storeu_pd", "ia_storeu_ddi_2"},
      {"_mm_store_pd", "ia_storeu_ddi_2"},
      {"_mm_set1_pd", "ia_set1_ddi_2"},
      {"_mm_setzero_pd", "ia_setzero_ddi_2"},
      {"_mm_add_pd", "ia_add_ddi_2"},
      {"_mm_sub_pd", "ia_sub_ddi_2"},
      {"_mm_mul_pd", "ia_mul_ddi_2"},
      {"_mm_div_pd", "ia_div_ddi_2"},
      {"_mm_cvtsd_f64", "ia_extract0_ddi_2"},
      {"_mm256_extractf128_pd", "ia_extractf128_ddi_4"},
      {"_mm256_castpd256_pd128", "ia_castlow_ddi_4"},
  };
  return Map;
}

} // namespace detail

TR Transformer::transformCall(const CallExpr *C) {
  TR R;
  R.OrigTy = C->type();
  CalleeKind CK = classifyCallee(C->Callee);

  if (CK == CalleeKind::MathFunction) {
    // sinf/cosf/... promote to the double interval versions.
    std::string Base = C->Callee;
    if (endsWith(Base, "f") && Base != "fabsf")
      Base.pop_back();
    if (Base == "fabsf" || Base == "fabs")
      Base = "abs";
    if (Base == "fmin")
      Base = "min";
    if (Base == "fmax")
      Base = "max";
    // Every math function has a double-double form: abs/sqrt/min/max are
    // native, the elementary functions fall back to the f64 kernel on the
    // interval's outer hull (sound, though no tighter than f64i).
    if (C->Args.empty() || ((Base == "min" || Base == "max") &&
                            C->Args.size() < 2)) {
      Diags->error(C->loc(), "wrong number of arguments to '" + C->Callee +
                                 "'");
      R.C = Cat::Interval;
      R.Code = "ia_cst_" + sfx() + "(0.0)";
      return R;
    }
    TR Arg = transformExpr(C->Args[0]);
    R.C = Cat::Interval;
    if (Base == "min" || Base == "max") {
      TR Arg2 = transformExpr(C->Args[1]);
      R.Code = prof("ia_" + Base + "_" + sfx() + "(" + asInterval(Arg) +
                        ", " + asInterval(Arg2) + ")",
                    C);
      return R;
    }
    // At -O1 and above the transcendentals with certified polynomial
    // kernels (interval/PolyKernels.h) lower to the fast variants: no
    // rounding-mode switch per call, enclosure widened by the certified
    // bound instead of the libm ulp band. -O0 keeps the libm path.
    static const std::set<std::string> PolyFast = {"exp", "log", "sin",
                                                   "cos"};
    if (optOn() && !isDd() && PolyFast.count(Base))
      Base += "_fast";
    R.Code = prof("ia_" + Base + "_" + sfx() + "(" + asInterval(Arg) + ")", C);
    return R;
  }

  if (CK == CalleeKind::Intrinsic) {
    // Vector FMA fusion: _mm{256,}_add_pd(_mm{256,}_mul_pd(a, b), c) and the
    // mirrored form lower to the fused interval FMA kernels.
    if (optOn() && !isDd() &&
        (C->Callee == "_mm256_add_pd" || C->Callee == "_mm_add_pd") &&
        C->Args.size() == 2) {
      bool Wide = C->Callee == "_mm256_add_pd";
      const char *MulName = Wide ? "_mm256_mul_pd" : "_mm_mul_pd";
      const char *FmaName = Wide ? "ia_fma_m256di_2" : "ia_fma_m256di_1";
      for (int Side = 0; Side < 2; ++Side) {
        const auto *MC = dynCast<CallExpr>(ignoreParens(C->Args[Side]));
        if (!MC || MC->Callee != MulName || MC->Args.size() != 2)
          continue;
        // Mirrored form reorders argument evaluation; only do it when both
        // call operands are pure values.
        if (Side == 1 &&
            !(exprIsPureValue(C->Args[0]) && exprIsPureValue(C->Args[1])))
          continue;
        TR MA = transformExpr(MC->Args[0]);
        TR MB = transformExpr(MC->Args[1]);
        TR Addend = transformExpr(C->Args[1 - Side]);
        R.C = Cat::Interval;
        R.Code = std::string(FmaName) + "(" + asInterval(MA) + ", " +
                 asInterval(MB) + ", " + asInterval(Addend) + ")";
        return R;
      }
    }
    const auto &Hand =
        isDd() ? detail::handOptimizedDd() : detail::handOptimizedF64();
    auto It = Hand.find(C->Callee);
    std::string Name;
    if (It != Hand.end()) {
      Name = It->second;
    } else {
      // Automatic path: implementation produced by the SIMD generator
      // and compiled through IGen itself (Fig. 4).
      Name = (isDd() ? "_ci_dd" : "_ci") + C->Callee;
      UsedGeneratedIntrinsics = true;
    }
    std::string Args;
    for (size_t I = 0; I < C->Args.size(); ++I) {
      if (I)
        Args += ", ";
      TR Arg = transformExpr(C->Args[I]);
      const Type *ArgTy = C->Args[I]->type();
      bool WantInterval = ArgTy && ArgTy->isFloatingOrVector();
      Args += WantInterval ? asInterval(Arg) : Arg.Code;
    }
    R.Code = Name + "(" + Args + ")";
    if (C->type() && C->type()->isFloatingOrVector())
      R.C = Cat::Interval;
    return R;
  }

  if (CK == CalleeKind::Allocation) {
    std::string Args;
    for (size_t I = 0; I < C->Args.size(); ++I) {
      if (I)
        Args += ", ";
      Args += transformExpr(C->Args[I]).Code;
    }
    R.Code = C->Callee + "(" + Args + ")";
    return R;
  }

  // User function: arguments promote exactly like parameters do.
  std::string Args;
  for (size_t I = 0; I < C->Args.size(); ++I) {
    if (I)
      Args += ", ";
    TR Arg = transformExpr(C->Args[I]);
    const Type *ArgTy = C->Args[I]->type();
    bool WantInterval = ArgTy && ArgTy->isFloatingOrVector();
    Args += WantInterval ? asInterval(Arg) : Arg.Code;
  }
  R.Code = C->Callee + "(" + Args + ")";
  if (C->type() && C->type()->isFloatingOrVector()) {
    R.C = Cat::Interval;
    // --harden: an external callee (declared, not defined here) may have
    // disturbed the FP environment. ia_fenv_guard evaluates the call
    // first, checks after, and poisons its result if required.
    if (Opts.Harden && !DefinedFns.count(C->Callee))
      R.Code = "ia_fenv_guard(" + R.Code + ")";
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

void Transformer::emitDecl(const VarDecl *D) {
  std::string S = promoteTypeAndName(D->Ty, D->Name);
  if (D->Init) {
    TR Init = transformExpr(D->Init);
    bool WantInterval = D->Ty->isFloatingOrVector();
    S += " = " + (WantInterval ? asInterval(Init) : Init.Code);
  }
  line(S + ";");
}

void Transformer::emitExprStmt(const ExprStmt *S) {
  // Reduction update statements become accumulator feeds (Fig. 7).
  auto It = UpdateToAcc.find(S);
  if (It != UpdateToAcc.end()) {
    const ReductionSite *Site = It->second.first;
    const std::string &Acc = It->second.second;
    for (const ReductionTerm &T : Site->Terms) {
      TR Term = transformExpr(T.Term);
      std::string Code = asInterval(Term);
      if (T.Negated)
        Code = "ia_neg_" + sfx() + "(" + Code + ")";
      line("isum_accumulate_" + sfx() + "(&" + Acc + ", " + Code + ");");
    }
    return;
  }
  line(transformExpr(S->E).Code + ";");
  // --harden: a statement-position external call with a non-interval
  // result got no ia_fenv_guard wrapper; re-check the environment here.
  if (Opts.Harden) {
    const auto *CE = dynCast<CallExpr>(ignoreParens(S->E));
    if (CE && classifyCallee(CE->Callee) == CalleeKind::UserFunction &&
        !DefinedFns.count(CE->Callee) &&
        !(CE->type() && CE->type()->isFloatingOrVector()))
      line("igen_fenv_check();");
  }
}

bool Transformer::collectAssignTargetsInExpr(const Expr *E,
                                             std::set<VarDecl *> &Targets) {
  const auto *B = dynCast<BinaryExpr>(ignoreParens(E));
  if (!B)
    return !dynCast<CallExpr>(ignoreParens(E)); // calls may have effects
  if (!B->isAssignment())
    return true;
  const auto *Ref = dynCast<DeclRefExpr>(ignoreParens(B->LHS));
  if (!Ref || !Ref->Decl)
    return false; // array/pointer stores: join unsupported (paper)
  const Type *Ty = Ref->Decl->Ty;
  if (!Ty->isFloating())
    return false; // integer or vector variables: unsupported
  Targets.insert(Ref->Decl);
  return collectAssignTargetsInExpr(B->RHS, Targets);
}

bool Transformer::collectJoinTargets(const Stmt *S,
                                     std::set<VarDecl *> &Targets) {
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->Body)
      if (!collectJoinTargets(Child, Targets))
        return false;
    return true;
  case Stmt::Kind::ExprStmt:
    return collectAssignTargetsInExpr(cast<ExprStmt>(S)->E, Targets);
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    return collectJoinTargets(If->Then, Targets) &&
           (!If->Else || collectJoinTargets(If->Else, Targets));
  }
  case Stmt::Kind::Null:
    return true;
  default:
    return false; // loops, returns, declarations: bail out
  }
}

void Transformer::emitIf(const IfStmt *S) {
  TR Cond = transformExpr(S->Cond);
  if (Cond.C != Cat::TBool) {
    line("if (" + Cond.Code + ")");
    emitBody(S->Then);
    if (S->Else) {
      line("else");
      emitBody(S->Else);
    }
    return;
  }

  std::string Tmp = freshTemp();
  line("tbool " + Tmp + " = " + Cond.Code + ";");

  std::set<VarDecl *> Targets;
  bool JoinSafe = Opts.Branches == TransformOptions::BranchPolicy::Join &&
                  collectJoinTargets(S->Then, Targets) &&
                  (!S->Else || collectJoinTargets(S->Else, Targets));
  if (!JoinSafe) {
    if (Opts.Branches == TransformOptions::BranchPolicy::Join)
      Diags->warning(S->loc(),
                     "cannot join this branch (arrays, integers or control "
                     "flow are modified); unknown conditions will signal");
    // Default policy: ia_cvt2bool_tb signals on unknown (Fig. 2).
    line("if (ia_cvt2bool_tb(" + Tmp + ")) /*may signal*/");
    emitBody(S->Then);
    if (S->Else) {
      line("else");
      emitBody(S->Else);
    }
    return;
  }

  // Join mode: run both branches on the unknown state and hull the
  // results (Section IV-B, "Unknown-state in if-else statements").
  line("if (ia_istrue_tb(" + Tmp + "))");
  emitBody(S->Then);
  line("else if (ia_isfalse_tb(" + Tmp + "))");
  if (S->Else)
    emitBody(S->Else);
  else
    line("{ ; }");
  line("else");
  line("{");
  ++Indent;
  std::string Ty = scalarIntervalType();
  for (VarDecl *V : Targets)
    line(Ty + " _sav_" + V->Name + " = " + V->Name + ";");
  emitBody(S->Then);
  for (VarDecl *V : Targets) {
    line(Ty + " _res_" + V->Name + " = " + V->Name + ";");
    line(V->Name + " = _sav_" + V->Name + ";");
  }
  if (S->Else)
    emitBody(S->Else);
  else
    line("{ ; }");
  for (VarDecl *V : Targets)
    line(V->Name + " = ia_join_" + sfx() + "(" + V->Name + ", _res_" +
         V->Name + ");");
  --Indent;
  line("}");
}

std::string Transformer::forHeader(const ForStmt *S) {
  std::string Init;
  if (S->Init && S->Init->kind() == Stmt::Kind::DeclStmt) {
    const auto *DS = cast<DeclStmt>(S->Init);
    for (size_t I = 0; I < DS->Decls.size(); ++I) {
      const VarDecl *D = DS->Decls[I];
      std::string Piece = promoteTypeAndName(D->Ty, D->Name);
      if (D->Init) {
        TR InitTR = transformExpr(D->Init);
        Piece += " = " + (D->Ty->isFloatingOrVector() ? asInterval(InitTR)
                                                      : InitTR.Code);
      }
      Init += (I ? ", " : "") + Piece;
    }
  } else if (S->Init && S->Init->kind() == Stmt::Kind::ExprStmt) {
    Init = transformExpr(cast<ExprStmt>(S->Init)->E).Code;
  }
  std::string Cond;
  if (S->Cond) {
    TR CondTR = transformExpr(S->Cond);
    Cond = CondTR.C == Cat::TBool
               ? "ia_cvt2bool_tb(" + CondTR.Code + ")"
               : CondTR.Code;
  }
  std::string Inc = S->Inc ? transformExpr(S->Inc).Code : "";
  return "for (" + Init + "; " + Cond + "; " + Inc + ")";
}

size_t Transformer::emitCseTemps(const Stmt *S) {
  if (!optOn())
    return 0;
  auto It = OptInfo.CommonSubexprs.find(S);
  if (It == OptInfo.CommonSubexprs.end())
    return 0;

  // Expression roots of the statement, for occurrence counting.
  std::vector<const Expr *> Roots;
  if (const auto *DS = dynCast<DeclStmt>(S)) {
    for (const VarDecl *D : DS->Decls)
      if (D->Init)
        Roots.push_back(D->Init);
  } else if (const auto *ES = dynCast<ExprStmt>(S)) {
    Roots.push_back(ES->E);
  } else if (const auto *RS = dynCast<ReturnStmt>(S)) {
    if (RS->Value)
      Roots.push_back(RS->Value);
  }

  // Occurrences hidden inside an already-active temp (e.g. a hoisted
  // loop invariant containing this candidate) are never re-emitted, so
  // they must not count toward the reuse threshold.
  auto visibleCount = [&](const Expr *Rep) {
    int N = 0;
    for (const Expr *Root : Roots)
      forEachSubexprPruned(Root, [&](const Expr *E) {
        if (findActiveTemp(E))
          return false;
        if (exprCseEqual(E, Rep)) {
          ++N;
          return false;
        }
        return true;
      });
    return N;
  };

  size_t N = 0;
  for (const Expr *Rep : It->second) {
    if (findActiveTemp(Rep))
      continue; // already available from a hoist or an enclosing statement
    if (visibleCount(Rep) < 2)
      continue;
    TR Init = transformExpr(Rep);
    if (Init.IsConst || Init.C != Cat::Interval)
      continue; // constants fold; nothing to reuse
    std::string Name = formatString("_cse%d", ++CseCounter);
    line(scalarIntervalType() + " " + Name + " = " + Init.Code + ";");
    ActiveTemps.push_back({Rep, Name});
    ++N;
  }
  return N;
}

void Transformer::emitFor(const ForStmt *S) {
  // Batched array loops (--batch-loops): a recognized elementwise loop
  // collapses to one ia_arr_* call. f64i only -- the ddi runtime (and
  // the tier's dd clone) keeps elementwise emission -- and not under
  // --profile, which wants the per-site call instrumentation the
  // elementwise path carries.
  if (Opts.EnableBatchLoops &&
      Opts.Prec == TransformOptions::Precision::Double && !Opts.Profile &&
      TMode != TierMode::DdClone) {
    if (std::optional<BatchLoop> L = matchBatchLoop(S)) {
      TR Dst = transformExpr(L->Dst);
      TR A = transformExpr(L->A);
      TR Count = transformExpr(L->Count);
      std::string Call = std::string("ia_arr_") + L->opName() + "_" +
                         sfx() + "(" + Dst.Code + ", " + A.Code;
      if (L->B)
        Call += ", " + transformExpr(L->B).Code;
      Call += ", (unsigned long)(" + Count.Code + "));";
      line(Call);
      return;
    }
  }

  // Row kernels: an axpy- or dot-shaped innermost loop becomes one call
  // that computes the per-element loop's bits (igen_lib.h). Not under
  // --profile, which instruments every element operation, nor under
  // --batch-loops, where the batched runtime routes loops; an update the
  // reduction transformation feeds to an accumulator stays a loop.
  if (optOn() && !isDd() && !Opts.Profile && !Opts.EnableBatchLoops) {
    auto RIt = OptInfo.RowKernels.find(S);
    if (RIt != OptInfo.RowKernels.end() &&
        !UpdateToAcc.count(RIt->second.Update) &&
        (!Opts.EnableReductions || Reductions.sitesForLoop(S).empty())) {
      emitRowKernel(RIt->second);
      return;
    }
  }

  // Hoist loop-invariant enclosures ahead of the header; they stay
  // visible (via ActiveTemps) for the whole loop emission.
  size_t Hoisted = 0;
  if (optOn()) {
    auto HIt = OptInfo.LoopInvariants.find(S);
    if (HIt != OptInfo.LoopInvariants.end()) {
      for (const Expr *Rep : HIt->second) {
        if (findActiveTemp(Rep))
          continue;
        TR Init = transformExpr(Rep);
        if (Init.IsConst || Init.C != Cat::Interval)
          continue;
        std::string Name = formatString("_hoist%d", ++HoistCounter);
        line(scalarIntervalType() + " " + Name + " = " + Init.Code + ";");
        ActiveTemps.push_back({Rep, Name});
        ++Hoisted;
      }
    }
  }

  std::vector<const ReductionSite *> Sites;
  if (Opts.EnableReductions)
    Sites = Reductions.sitesForLoop(S);

  std::vector<std::pair<const ReductionSite *, std::string>> Accs;
  for (const ReductionSite *Site : Sites) {
    std::string Acc = formatString("_acc%d", ++AccCounter);
    Accs.push_back({Site, Acc});
    UpdateToAcc[Site->Update] = {Site, Acc};
    line("acc_" + sfx() + " " + Acc + ";");
    TR Target = transformExpr(Site->Target);
    line("isum_init_" + sfx() + "(&" + Acc + ", " + asInterval(Target) +
         ");");
  }

  // Sign versioning: one run-time test of the version variable's sign per
  // loop entry picks a copy whose multiplies by it lower as nonnegative
  // or nonpositive operands; the last copy is the plain loop. Hoisted
  // temps and reduction accumulators stay outside the three copies.
  const VarDecl *V = nullptr;
  if (optOn() && !isDd() && !Opts.Profile) {
    auto VIt = OptInfo.VersionVars.find(S);
    if (VIt != OptInfo.VersionVars.end())
      V = VIt->second;
  }
  if (V) {
    auto RIt = Renames.find(V);
    const std::string &Name = RIt != Renames.end() ? RIt->second : V->Name;
    line("if (ia_inf_f64(" + Name + ") >= 0.0)");
    emitLoopCopy(S, V, 'p');
    DiagnosticsEngine Repeats;
    DiagnosticsEngine *Real = Diags;
    Diags = &Repeats; // the first copy reported everything already
    line("else if (ia_sup_f64(" + Name + ") <= 0.0)");
    emitLoopCopy(S, V, 'n');
    line("else");
    emitLoopCopy(S, V, 0);
    Diags = Real;
  } else {
    line(forHeader(S));
    emitBody(S->Body);
  }

  for (auto &[Site, Acc] : Accs) {
    std::string Red = "isum_reduce_" + sfx() + "(&" + Acc + ")";
    if (cloneMemLvalue(Site->Target))
      Red = "ia_narrow_dd_f64(" + Red + ")";
    line(lvalueOf(Site->Target) + " = " + Red + ";");
    UpdateToAcc.erase(Site->Update);
  }
  popTemps(Hoisted);
}

void Transformer::emitRowKernel(const RowKernelLoop &K) {
  const TR Lo = transformExpr(K.Lower), Hi = transformExpr(K.Upper);
  const auto *Zero = dynCast<IntLiteralExpr>(ignoreParens(K.Lower));
  const bool FromZero = Zero && Zero->Value == 0;
  // &Base[Offset + L]: the first element the loop touches.
  auto row = [&](const RowKernelLoop::Row &R) {
    std::string Idx = FromZero ? "0" : Lo.Code;
    if (R.Offset) {
      const TR Off = transformExpr(R.Offset);
      Idx = FromZero ? Off.Code : maybeParen(Off) + " + " + maybeParen(Lo);
    }
    std::string Ptr = "&";
    Ptr += transformExpr(R.Base).Code;
    Ptr += '[';
    Ptr += Idx;
    Ptr += ']';
    return Ptr;
  };
  // U - L > 0 as an unsigned long: exact, with no signed overflow.
  std::string Count = "(unsigned long)" + maybeParen(Hi);
  if (!FromZero)
    Count += " - (unsigned long)" + maybeParen(Lo);
  std::string Call;
  if (K.K == RowKernelLoop::Kind::Axpy)
    Call = "ia_axpy_f64(" + row(K.First) + ", " +
           asInterval(transformExpr(K.Scalar)) + ", " + row(K.Second);
  else
    Call = std::string(K.K == RowKernelLoop::Kind::Dot ? "ia_dot_f64"
                                                       : "ia_dotsub_f64") +
           "(&" + lvalueOf(K.Scalar) + ", " + row(K.First) + ", " +
           row(K.Second);
  line("if (" + maybeParen(Lo) + " < " + maybeParen(Hi) + ")");
  line("{");
  ++Indent;
  line(Call + ", " + Count + ");");
  --Indent;
  line("}");
}

void Transformer::emitLoopCopy(const ForStmt *S, const VarDecl *V,
                               char Class) {
  line("{");
  ++Indent;
  VersionVar = V;
  VersionClass = Class;
  line(forHeader(S));
  emitBody(S->Body);
  VersionVar = nullptr;
  VersionClass = 0;
  --Indent;
  line("}");
}

void Transformer::emitWhileCond(std::string Keyword, const Expr *Cond) {
  TR CondTR = transformExpr(Cond);
  std::string Code = CondTR.C == Cat::TBool
                         ? "ia_cvt2bool_tb(" + CondTR.Code + ")"
                         : CondTR.Code;
  line(Keyword + " (" + Code + ")");
}

void Transformer::emitCompound(const CompoundStmt *S) {
  for (const Stmt *Child : S->Body)
    emitStmt(Child);
}

void Transformer::emitBody(const Stmt *S) {
  line("{");
  ++Indent;
  if (const auto *C = dynCast<CompoundStmt>(S))
    emitCompound(C);
  else
    emitStmt(S);
  --Indent;
  line("}");
}

void Transformer::emitStmt(const Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    line("{");
    ++Indent;
    emitCompound(cast<CompoundStmt>(S));
    --Indent;
    line("}");
    return;
  case Stmt::Kind::DeclStmt: {
    size_t Temps = emitCseTemps(S);
    for (const VarDecl *D : cast<DeclStmt>(S)->Decls)
      emitDecl(D);
    popTemps(Temps);
    return;
  }
  case Stmt::Kind::ExprStmt: {
    size_t Temps = emitCseTemps(S);
    emitExprStmt(cast<ExprStmt>(S));
    popTemps(Temps);
    return;
  }
  case Stmt::Kind::If:
    emitIf(cast<IfStmt>(S));
    return;
  case Stmt::Kind::For:
    emitFor(cast<ForStmt>(S));
    return;
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    emitWhileCond("while", W->Cond);
    emitBody(W->Body);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    line("do");
    emitBody(D->Body);
    TR CondTR = transformExpr(D->Cond);
    std::string Code = CondTR.C == Cat::TBool
                           ? "ia_cvt2bool_tb(" + CondTR.Code + ")"
                           : CondTR.Code;
    line("while (" + Code + ");");
    return;
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    if (!R->Value) {
      line("return;");
      return;
    }
    size_t Temps = emitCseTemps(S);
    TR V = transformExpr(R->Value);
    if (TMode == TierMode::Wrapper) {
      // Region exit: check the blowup predicate on the f64i result and
      // re-execute the region at ddi from the entry snapshot when it
      // fires. The meet of the two enclosures is sound (both contain the
      // true result set) and never wider than the f64i answer.
      std::string Id = formatString("_igen_tier_base + %uu", TierRegionId);
      line("{");
      ++Indent;
      line("f64i _tier_ret = " + asInterval(V) + ";");
      if (TierMovable) {
        line("if (igen_tier_escalate(_tier_ret, " + Id + "))");
        ++Indent;
        line("_tier_ret = ia_meet_f64(_tier_ret, ia_narrow_dd_f64(" +
             TierCloneCall + "));");
        --Indent;
      } else {
        line("igen_tier_note_immovable(_tier_ret, " + Id + ");");
      }
      line("return _tier_ret;");
      --Indent;
      line("}");
      popTemps(Temps);
      return;
    }
    // Wrap per the function's (promoted) return type.
    bool WantInterval = R->Value->type() &&
                        R->Value->type()->isFloatingOrVector();
    line("return " + (WantInterval ? asInterval(V) : V.Code) + ";");
    popTemps(Temps);
    return;
  }
  case Stmt::Kind::Break:
    line("break;");
    return;
  case Stmt::Kind::Continue:
    line("continue;");
    return;
  case Stmt::Kind::Null:
    line(";");
    return;
  }
}

void Transformer::emitFunction(FunctionDecl *F) {
  // Analyzed once: a --tier function's ddi clone and f64i wrapper lower
  // the same AST under the same options.
  if (Opts.OptLevel > 0 && F->Body) {
    OptOptions OO;
    // Guard-derived facts require the Exception policy: under Join both
    // branch bodies execute unconditionally.
    OO.GuardFacts =
        Opts.Branches == TransformOptions::BranchPolicy::Exception;
    OptInfo = analyzeFunctionForOpt(*F, OO);
  } else {
    OptInfo = OptFunctionInfo();
  }
  if (Opts.Tier && F->Body) {
    TierEligibility El;
    if (El.check(*F)) {
      // Clone first so the wrapper's escalation call sees it defined.
      TMode = TierMode::DdClone;
      emitFunctionImpl(F, F->Name + "__dd");
      Body += '\n';
      TierMovable = !analyzeMovability(*F).ResultImmovable;
      TMode = TierMode::Wrapper;
      emitFunctionImpl(F, F->Name);
      TMode = TierMode::Off;
      return;
    }
    Diags->warning(F->Loc, "function '" + F->Name +
                               "' is not tier-eligible (" + El.Why +
                               "); emitting the plain f64i translation");
  }
  emitFunctionImpl(F, F->Name);
}

void Transformer::emitFunctionImpl(FunctionDecl *F,
                                   const std::string &EmitName) {
  CurFuncName = F->Name;
  if (Opts.EnableReductions)
    Reductions = analyzeReductions(F, *Diags);
  else
    Reductions = ReductionAnalysisResult();
  UpdateToAcc.clear();
  Renames.clear();
  ActiveTemps.clear();

  // Header (Fig. 2/3): floating types promote; tolerance parameters keep
  // their scalar type and gain an interval shadow in the body.
  std::string Header;
  if (F->IsStatic)
    Header += "static ";
  std::string Ret =
      F->RetTy->isFloatingOrVector() || needsPromotion(F->RetTy)
          ? promoteTypeSpelling(F->RetTy)
          : F->RetTy->cName();
  Header += Ret + (endsWith(Ret, "*") ? "" : " ") + EmitName + "(";
  for (size_t I = 0; I < F->Params.size(); ++I) {
    VarDecl *P = F->Params[I];
    if (I)
      Header += ", ";
    std::string TypeName = P->HasTolerance ? P->Ty->cName()
                                           : promoteTypeSpelling(P->Ty);
    Header += TypeName + (endsWith(TypeName, "*") ? "" : " ") + P->Name;
  }
  if (F->Params.empty())
    Header += "void";
  Header += ")";

  if (!F->Body) {
    line(Header + ";");
    return;
  }
  line(Header);
  line("{");
  ++Indent;
  if (Opts.Harden) {
    // Sound-region entry: the caller may arrive with any FP environment.
    std::string Whole = wholeCtorFor(F->RetTy);
    if (!Whole.empty())
      line("if (igen_fenv_check()) return " + Whole + ";");
    else
      line("igen_fenv_check();");
  }
  if (TMode == TierMode::Wrapper) {
    // Region snapshot, captured at f64i cost: the body may overwrite
    // parameters, and on blowup the dd clone re-executes from the entry
    // state. Promotion to ddi is exact, so both tiers start from
    // bit-identical intervals (what makes movability analysis possible).
    std::string Args;
    for (size_t I = 0; I < F->Params.size(); ++I) {
      VarDecl *P = F->Params[I];
      if (I)
        Args += ", ";
      if (P->HasTolerance) {
        // The body only reads its interval shadow, never the raw value,
        // and the clone applies its own dd-tight widening.
        Args += P->Name;
        continue;
      }
      const Type *T = P->Ty;
      std::string Snap = "_tier_in_" + P->Name;
      std::string Spell =
          T->isArray() ? promoteTypeSpelling(T->element(), true) + " *"
                       : promoteTypeSpelling(T);
      line(Spell + (endsWith(Spell, "*") ? "" : " ") + Snap + " = " +
           P->Name + ";");
      Args += T->isFloating() ? "ia_promote_f64_dd(" + Snap + ")" : Snap;
    }
    TierCloneCall = F->Name + "__dd(" + Args + ")";
    TierRegionId = static_cast<unsigned>(SiteTable.Regions.size());
    TierRegion Region;
    Region.Func = F->Name;
    Region.Line = F->Loc.Line;
    Region.Movable = TierMovable;
    SiteTable.Regions.push_back(Region);
  }
  for (VarDecl *P : F->Params) {
    if (!P->HasTolerance)
      continue;
    std::string Shadow = "_" + P->Name;
    // _a = a +- tol (Fig. 3). The tolerance literal is widened upward.
    RoundUpwardScope Up;
    DdInterval TolEnc = ddIntervalFromDecimal(P->ToleranceSpelling);
    double TolUp = TolEnc.hasNaN() ? P->Tolerance
                                   : ddToDoubleUp(TolEnc.Hi);
    line(scalarIntervalType() + " " + Shadow + " = ia_set_tol_" + sfx() +
         "(" + P->Name + ", " + fmtDouble(TolUp) + "); // " + P->Name +
         " +- " + P->ToleranceSpelling);
    Renames[P] = Shadow;
  }
  emitCompound(F->Body);
  --Indent;
  line("}");
}

//===----------------------------------------------------------------------===//
// Whole translation unit
//===----------------------------------------------------------------------===//

std::string Transformer::run() {
  Body.clear();
  SiteTable = ProfileSiteTable();
  SiteTable.Module = Opts.ModuleName.empty() ? "igen" : Opts.ModuleName;
  SiteTable.SourceFile = Opts.SourceName;
  DefinedFns.clear();
  for (const TopLevelItem &Item : Ctx.TU.Items)
    if (Item.Function && Item.Function->Body)
      DefinedFns.insert(Item.Function->Name);
  for (const TopLevelItem &Item : Ctx.TU.Items) {
    if (!Item.Function) {
      line(Item.Directive);
      continue;
    }
    emitFunction(Item.Function);
    Body += '\n';
  }
  if ((Opts.Profile && !SiteTable.Sites.empty()) ||
      (Opts.Tier && !SiteTable.Regions.empty()))
    compactSites();

  std::string Out;
  Out += "// Generated by igen (IGen reproduction). Do not edit.\n";
  Out += formatString("// target precision: %s, library: %s\n",
                      isDd() ? "double-double" : "double",
                      Opts.ScalarLibrary ? "scalar" : "SIMD");
  if (Opts.ScalarLibrary)
    Out += "#define IGEN_F64I_SCALAR 1\n";
  Out += "#include \"" + Opts.RuntimeHeader + "\"\n";
  if (Opts.Harden)
    Out += "#include \"" + Opts.HardenHeader + "\"\n";
  if (Opts.Profile)
    Out += "#include \"profile/igen_prof.h\"\n";
  if (Opts.Tier)
    Out += "#include \"" + Opts.TierHeader + "\"\n";
  if (UsedGeneratedIntrinsics)
    Out += "#include \"" + Opts.GeneratedIntrinsicsHeader + "\"\n";
  Out += "\n";
  if (Opts.Profile && !SiteTable.Sites.empty()) {
    // Compile-time site table: self-registers with the profiler runtime
    // at static-init time; _igen_prof_base offsets this TU's IDs so
    // several profiled TUs can coexist in one binary.
    Out += formatString("static const igen_prof_site _igen_prof_sites[%zu] "
                        "= {\n",
                        SiteTable.Sites.size());
    for (const ProfileSite &S : SiteTable.Sites)
      Out += formatString("  {\"%s\", \"%s\", \"%s\", %uu, %uu},\n",
                          escapeCString(S.Op).c_str(),
                          escapeCString(S.Func).c_str(),
                          escapeCString(S.Text).c_str(), S.Line, S.Col);
    Out += "};\n";
    Out += formatString(
        "static const unsigned _igen_prof_base = "
        "igen_prof_register_sites(\"%s\", \"%s\", _igen_prof_sites, %zu);\n",
        escapeCString(SiteTable.Module).c_str(),
        escapeCString(SiteTable.SourceFile).c_str(), SiteTable.Sites.size());
    Out += "\n";
  }
  if (Opts.Tier && !SiteTable.Regions.empty()) {
    // Compile-time region table: self-registers with the tier runtime at
    // static-init time; _igen_tier_base offsets this TU's region IDs so
    // several tiered TUs can coexist in one binary.
    Out += formatString(
        "static const igen_tier_region _igen_tier_regions[%zu] = {\n",
        SiteTable.Regions.size());
    for (const TierRegion &R : SiteTable.Regions)
      Out += formatString("  {\"%s\", %uu, %d},\n",
                          escapeCString(R.Func).c_str(), R.Line,
                          R.Movable ? 1 : 0);
    Out += "};\n";
    Out += formatString(
        "static const unsigned _igen_tier_base = "
        "igen_tier_register_regions(\"%s\", _igen_tier_regions, %zu);\n",
        escapeCString(SiteTable.Module).c_str(), SiteTable.Regions.size());
    Out += "\n";
  }
  Out += Body;
  return Out;
}

} // namespace

std::string igen::transformToIntervals(ASTContext &Ctx,
                                       DiagnosticsEngine &Diags,
                                       const TransformOptions &Options,
                                       ProfileSiteTable *SitesOut) {
  Transformer T(Ctx, Diags, Options);
  std::string Out = T.run();
  if (SitesOut)
    *SitesOut = T.siteTable();
  return Out;
}
