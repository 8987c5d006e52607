//===- IntervalTransform.cpp - AST-to-interval-C transformer ----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "transform/IntervalTransform.h"

#include "transform/Lowered.h"

#include "analysis/AstQueries.h"
#include "analysis/BatchLoopAnalysis.h"
#include "analysis/ReductionAnalysis.h"
#include "frontend/Sema.h"
#include "interval/DdInterval.h"
#include "opt/Movability.h"
#include "opt/OptAnalysis.h"
#include "interval/DecimalFp.h"
#include "interval/Interval.h"
#include "interval/Rounding.h"
#include "interval/Ulp.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>

using namespace igen;
namespace L = igen::lowered;
using L::Cat;

namespace {
//===----------------------------------------------------------------------===//
// Profile-site support: source-text reconstruction for reports
//===----------------------------------------------------------------------===//

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
      return unparseExpr(U->Sub) + L::opSpelling(U->O);
    return std::string(L::opSpelling(U->O)) + unparseExpr(U->Sub);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return unparseExpr(B->LHS) + " " + L::opSpelling(B->O) + " " +
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
    const VarDecl *Root = lvalueRoot(E);
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



/// Result of lowering one expression: its node plus what the lowering of
/// the enclosing expression needs to know about it.
struct TR {
  TR(L::Expr *N = nullptr, const Type *OrigTy = nullptr)
      : N(N), OrigTy(OrigTy) {}

  L::Expr *N;
  const Type *OrigTy;

  // Compile-time interval constant (Section IV-B, "Interval constants").
  bool IsConst = false;
  Interval CF64;  ///< enclosure used when targeting double
  DdInterval CDd; ///< enclosure used when targeting double-double

  Cat C() const { return N->C; }
};

/// The math functions with interval kernels (classifyCallee's set, after
/// the float suffix and fabs/fmin/fmax are canonicalized), with their
/// certified-polynomial `_fast` variants.
std::optional<L::Op> mathOp(const std::string &Base, bool Fast) {
  static const std::tuple<const char *, L::Op, L::Op> Table[] = {
      {"sqrt", L::Op::Sqrt, L::Op::Sqrt},  {"abs", L::Op::Abs, L::Op::Abs},
      {"ceil", L::Op::Ceil, L::Op::Ceil},
      {"floor", L::Op::Floor, L::Op::Floor},
      {"exp", L::Op::Exp, L::Op::ExpFast}, {"log", L::Op::Log, L::Op::LogFast},
      {"sin", L::Op::Sin, L::Op::SinFast}, {"cos", L::Op::Cos, L::Op::CosFast},
      {"tan", L::Op::Tan, L::Op::Tan},     {"atan", L::Op::Atan, L::Op::Atan},
      {"asin", L::Op::Asin, L::Op::Asin},  {"acos", L::Op::Acos, L::Op::Acos},
  };
  for (const auto &[Name, Plain, FastOp] : Table)
    if (Base == Name)
      return Fast ? FastOp : Plain;
  return std::nullopt;
}

class Transformer {
public:
  Transformer(ASTContext &Ctx, DiagnosticsEngine &Diags,
              const TransformOptions &Opts)
      : Ctx(Ctx), Diags(&Diags), Opts(Opts) {}

  /// Lowers and prints the translation unit. With \p Keep, the lowered
  /// functions move there after printing; without, each is freed once
  /// printed, so a one-shot compile never holds a whole TU's nodes.
  std::string run(L::Program *Keep);

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
  L::Sfx sfxOp() const { return isDd() ? L::Sfx::Dd : L::Sfx::F64; }
  std::string scalarIntervalType() const { return isDd() ? "ddi" : "f64i"; }

  /// Promoted spelling of a SIMD vector type (Table II).
  std::string vecTypeName(const Type *T) const {
    return T->isSimdVector() ? L::sfxName(vecSfx(T)) : scalarIntervalType();
  }
  L::Sfx vecSfx(const Type *T) const {
    switch (T->kind()) {
    case Type::Kind::M128D:
      return isDd() ? L::Sfx::Ddi2 : L::Sfx::M256di1;
    case Type::Kind::M128:
    case Type::Kind::M256D:
      return isDd() ? L::Sfx::Ddi4 : L::Sfx::M256di2;
    case Type::Kind::M256:
      return isDd() ? L::Sfx::Ddi8 : L::Sfx::M256di4;
    default:
      return sfxOp();
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

  // Node construction.
  L::Expr *node(L::EK K, Cat C) { return Fn->Store->newExpr(K, C); }
  L::Expr *iop(L::Op O, L::Sfx S, std::initializer_list<L::Expr *> Args,
               Cat C = Cat::Interval) {
    L::Expr *N = node(L::EK::IOp, C);
    N->O = O;
    N->S = S;
    unsigned I = 0;
    for (L::Expr *A : Args)
      N->A[I++] = A;
    return N;
  }
  L::Expr *plain(L::EK K, L::Expr *A, L::Expr *B, Cat C = Cat::Plain) {
    L::Expr *N = node(K, C);
    N->A[0] = A;
    N->A[1] = B;
    return N;
  }
  L::Expr *unary(UnaryExpr::Op O, L::Expr *Sub, Cat C = Cat::Plain) {
    L::Expr *N = plain(L::EK::Unary, Sub, nullptr, C);
    N->UOp = O;
    return N;
  }
  L::Expr *binary(BinaryExpr::Op O, L::Expr *A, L::Expr *B) {
    L::Expr *N = plain(L::EK::Binary, A, B);
    N->BOp = O;
    return N;
  }
  /// A reference to frame slot \p Slot; one shared node per slot.
  L::Expr *var(int Slot, Cat C) {
    if (Slot >= static_cast<int>(VarNodes.size()))
      VarNodes.resize(Slot + 1);
    L::Expr *&N = VarNodes[Slot];
    if (!N || N->C != C) {
      N = node(L::EK::Var, C);
      N->Slot = Slot;
    }
    return N;
  }
  /// Reference to a source variable (its tolerance shadow when renamed).
  L::Expr *declRef(const DeclRefExpr *Ref) {
    auto It = Renames.find(Ref->Decl);
    const Type *Ty = Ref->type();
    Cat C = It != Renames.end() || (Ty && Ty->isFloatingOrVector())
                ? Cat::Interval
                : Cat::Plain;
    if (It != Renames.end())
      return var(It->second, C);
    if (!Ref->Decl) {
      L::Expr *N = node(L::EK::Var, C);
      N->Text = Ref->Name;
      return N;
    }
    return var(varSlot(Ref->Decl), C);
  }
  L::Stmt *add(L::Stmt *S) {
    Cur->push_back(S);
    return S;
  }
  L::Stmt *emit(std::string Text) {
    L::Stmt *S = Fn->Store->newStmt(L::SK::Emit);
    S->Text = Fn->Store->own(std::move(Text));
    return add(S);
  }
  int varSlot(const VarDecl *D) {
    auto [It, New] = SlotOf.try_emplace(D, static_cast<int>(Fn->Slots.size()));
    if (New)
      Fn->Slots.push_back(D->Name);
    return It->second;
  }
  int tempSlot(std::string Name) {
    Fn->Slots.push_back(std::move(Name));
    return static_cast<int>(Fn->Slots.size()) - 1;
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
  L::Expr *specializedMul(const Expr *LE, const Expr *RE, L::Expr *LC,
                          L::Expr *RC);
  L::Expr *specializedDiv(const Expr *RE, L::Expr *LC, L::Expr *RC);
  /// Fuses add/sub-of-mul into ia_fma_* (null: no fusion).
  L::Expr *tryFuseFma(const Expr *MulSide, L::Expr *Addend, bool NegateMul,
                      bool NegateAddend);
  int findActiveTemp(const Expr *E) const;
  size_t emitCseTemps(const Stmt *S);
  void popTemps(size_t N) { ActiveTemps.resize(ActiveTemps.size() - N); }
  TR makeConstant(const Interval &F64, const DdInterval &Dd,
                  const Type *OrigTy);
  L::Expr *asInterval(const TR &V);
  L::Expr *asTBool(const TR &V);
  L::Expr *asCondition(const TR &V) {
    return V.C() == Cat::TBool ? iop(L::Op::Cvt2Bool, L::Sfx::None, {V.N},
                                     Cat::Plain)
                               : V.N;
  }
  L::Expr *lvalueOf(const Expr *E);

  // Statements.
  void emitStmt(const Stmt *S);
  void emitCompound(const CompoundStmt *S);
  /// Lowers a statement as a brace-wrapped body (flattens compounds).
  L::Stmt *body(const Stmt *S);
  void emitIf(const IfStmt *S);
  void emitFor(const ForStmt *S);
  L::Stmt *loopCopy(const ForStmt *S, const VarDecl *V, char Class);
  void emitRowKernel(const RowKernelLoop &K);
  L::Stmt *lowerDecl(const VarDecl *D);
  /// A CSE or hoist temp holding \p Init, reused for \p Rep while active.
  void emitTemp(std::string Name, const Expr *Rep, L::Expr *Init);
  void emitExprStmt(const ExprStmt *S);
  L::Stmt *forHeader(const ForStmt *S);
  void emitFunction(FunctionDecl *F);
  void emitFunctionImpl(FunctionDecl *F, const std::string &EmitName);
  void finishFunction(std::unique_ptr<L::Function> LF);

  // Join-mode branch support: collects scalar interval variables assigned
  // within \p S; returns false if the branch does anything the join
  // transformation cannot handle (Section IV-B).
  bool collectJoinTargets(const Stmt *S, std::set<VarDecl *> &Targets);
  bool collectAssignTargetsInExpr(const Expr *E,
                                  std::set<VarDecl *> &Targets);

  std::string freshTemp() { return formatString("_t%d", ++TempCounter); }

  /// Profiling hook on every scalar interval arithmetic op the lowering
  /// picks. With Opts.Profile off it returns \p N unchanged; with it on,
  /// an f64/dd op gets a freshly assigned site ID (the printer routes it
  /// through the iap_* wrapper) and the site's metadata (op, enclosing
  /// function, source location, reconstructed text) is recorded in
  /// SiteTable. Sign-specialized and FMA-fused ops inherit the
  /// originating expression's site. Vector ops stay uninstrumented.
  L::Expr *prof(L::Expr *N, const Expr *Origin) {
    N->Origin = Origin;
    if (!Opts.Profile || (N->S != L::Sfx::F64 && N->S != L::Sfx::Dd))
      return N;
    ProfileSite Site;
    Site.Op = L::opInfo(N->O).Stem;
    Site.Func = CurFuncName;
    if (Origin) {
      Site.Line = Origin->loc().Line;
      Site.Col = Origin->loc().Col;
      Site.Text = unparseExpr(Origin);
      if (Site.Text.size() > 60)
        Site.Text = Site.Text.substr(0, 57) + "...";
    }
    N->Site = static_cast<int>(SiteTable.Sites.size());
    SiteTable.Sites.push_back(std::move(Site));
    return N;
  }

  /// Drops the site- and region-table rows of \p F that no node of its
  /// final body references, and renumbers the survivors densely after the
  /// rows of earlier functions. Rewrites like FMA fusion lower (and
  /// thereby instrument) their operands before deciding to replace them,
  /// which can orphan a site; the embedded tables must only describe
  /// entries that can actually execute.
  void compactSites(L::Function &F);

  template <typename T>
  static void filterByMask(std::vector<T> &Rows, size_t Begin,
                           const std::vector<bool> &Keep) {
    size_t Next = Begin;
    for (size_t I = Begin; I < Rows.size(); ++I)
      if (Keep[I - Begin]) {
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
  L::Program *Keep = nullptr;
  /// Without Keep: the nodes of the function being lowered.
  std::unique_ptr<L::NodeStore> FunctionStore;
  int TempCounter = 0;
  int AccCounter = 0;
  bool UsedGeneratedIntrinsics = false;

  // Per-function lowering state.
  L::Function *Fn = nullptr;
  std::vector<L::Stmt *> *Cur = nullptr;
  std::unordered_map<const VarDecl *, int> SlotOf;
  std::vector<L::Expr *> VarNodes; ///< per slot (see var())
  std::map<const VarDecl *, int> Renames;
  ReductionAnalysisResult Reductions;
  /// Reduction update statement -> its site and accumulator (AccInit).
  std::map<const Stmt *, std::pair<const ReductionSite *, const L::Stmt *>>
      UpdateToAcc;

  // Profiling state (per translation unit).
  ProfileSiteTable SiteTable;
  std::string CurFuncName;
  /// Rows of SiteTable already final (earlier functions).
  size_t SitesDone = 0, RegionsDone = 0;

  // --tier state (set per function while emitting the wrapper).
  TierMode TMode = TierMode::Off;
  unsigned TierRegionId = 0;
  bool TierMovable = true;

  /// Functions *defined* in this TU (for --harden: calls to these need
  /// no post-call fenv guard, their own prologue re-checks; calls to
  /// declared-only externals do).
  std::set<std::string> DefinedFns;

  // Mid-end optimizer state (per function).
  OptFunctionInfo OptInfo;
  /// Enclosures currently available in a temp slot (_cseN/_hoistN),
  /// innermost scope last. transformExpr consults this before lowering.
  std::vector<std::pair<const Expr *, int>> ActiveTemps;
  int HoistCounter = 0;
  int CseCounter = 0;
  /// The loop copy being emitted by a sign-versioned for-loop: its
  /// version variable and the class ('p' or 'n') its test proved, or 0.
  const VarDecl *VersionVar = nullptr;
  char VersionClass = 0;
};

//===----------------------------------------------------------------------===//
// Constants and category conversions
//===----------------------------------------------------------------------===//

TR Transformer::makeConstant(const Interval &F64, const DdInterval &Dd,
                             const Type *OrigTy) {
  TR R;
  R.N = node(L::EK::Const, Cat::Interval);
  L::Constant *K = Fn->Store->newConstant();
  K->F64 = F64;
  K->Dd = Dd;
  K->PrintUp = isRoundUpward();
  R.N->K = K;
  R.OrigTy = OrigTy;
  R.IsConst = true;
  R.CF64 = F64;
  R.CDd = Dd;
  return R;
}

L::Expr *Transformer::asInterval(const TR &V) {
  if (V.C() == Cat::Interval)
    return V.N;
  if (V.C() == Cat::TBool) {
    Diags->error(SourceLoc(), "cannot use a comparison result as a value");
    return V.N;
  }
  if (V.OrigTy && V.OrigTy->isInteger())
    return iop(L::Op::CstOfDouble, sfxOp(), {V.N});
  return iop(L::Op::Cst, sfxOp(), {V.N});
}

L::Expr *Transformer::asTBool(const TR &V) {
  if (V.C() == Cat::TBool)
    return V.N;
  return iop(L::Op::Bool2Tb, L::Sfx::None, {V.N}, Cat::TBool);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

TR Transformer::transformExpr(const Expr *E) {
  int Temp = findActiveTemp(E);
  if (Temp >= 0)
    return {var(Temp, Cat::Interval), E->type()};
  switch (E->kind()) {
  case Expr::Kind::IntLiteral: {
    const auto *I = cast<IntLiteralExpr>(E);
    L::Expr *N = node(L::EK::IntLit, Cat::Plain);
    N->Text = I->Spelling;
    N->Int = I->Value;
    return {N, E->type()};
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
  case Expr::Kind::DeclRef:
    return {declRef(cast<DeclRefExpr>(E)), E->type()};
  case Expr::Kind::Paren: {
    TR R = transformExpr(cast<ParenExpr>(E)->Sub);
    if (R.C() == Cat::Plain && !R.IsConst)
      R.N = plain(L::EK::Paren, R.N, nullptr);
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
    if (Cond.C() == Cat::TBool)
      Diags->error(E->loc(),
                   "interval-dependent '?:' conditions are not supported; "
                   "rewrite as an if statement");
    bool IsInterval = E->type() && E->type()->isFloatingOrVector();
    L::Expr *N = node(L::EK::Cond, IsInterval ? Cat::Interval : Cat::Plain);
    N->A[0] = Cond.N;
    N->A[1] = IsInterval ? asInterval(Then) : Then.N;
    N->A[2] = IsInterval ? asInterval(Else) : Else.N;
    return {N, E->type()};
  }
  case Expr::Kind::Call:
    return transformCall(cast<CallExpr>(E));
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    TR Base = transformExpr(I->Base);
    TR Idx = transformExpr(I->Idx);
    bool IsInterval = E->type() && E->type()->isFloatingOrVector();
    L::Expr *N = plain(L::EK::Index, Base.N, Idx.N,
                       IsInterval ? Cat::Interval : Cat::Plain);
    if (cloneMemLvalue(E))
      N = iop(L::Op::Promote, L::Sfx::None, {N});
    return {N, E->type()};
  }
  case Expr::Kind::Cast:
    return transformCast(cast<CastExpr>(E));
  }
  return {node(L::EK::IntLit, Cat::Plain), nullptr};
}

TR Transformer::transformUnary(const UnaryExpr *U) {
  TR Sub = transformExpr(U->Sub);
  const Type *Ty = U->type();
  auto un = [&](Cat C = Cat::Plain) -> TR {
    return {unary(U->O, Sub.N, C), Ty};
  };
  switch (U->O) {
  case UnaryExpr::Op::Neg:
    if (Sub.IsConst) {
      RoundUpwardScope Up;
      return makeConstant(iNeg(Sub.CF64), ddiNeg(Sub.CDd), Ty);
    }
    if (Sub.C() == Cat::Interval) {
      L::Sfx S = Sub.OrigTy && Sub.OrigTy->isSimdVector()
                     ? vecSfx(Sub.OrigTy)
                     : sfxOp();
      return {prof(iop(L::Op::Neg, S, {Sub.N}), U), Ty};
    }
    return un();
  case UnaryExpr::Op::Plus:
    return Sub;
  case UnaryExpr::Op::LogicalNot:
    if (Sub.C() == Cat::TBool)
      return {iop(L::Op::NotTb, L::Sfx::None, {Sub.N}, Cat::TBool), Ty};
    return un();
  case UnaryExpr::Op::BitNot:
    return un();
  case UnaryExpr::Op::PreInc:
  case UnaryExpr::Op::PreDec:
  case UnaryExpr::Op::PostInc:
  case UnaryExpr::Op::PostDec:
    if (Sub.C() == Cat::Interval) {
      Diags->error(U->loc(), "++/-- on floating-point values is not "
                             "supported in the IGen C subset");
      return Sub;
    }
    return un();
  case UnaryExpr::Op::Deref: {
    TR R = un(Ty && Ty->isFloatingOrVector() ? Cat::Interval : Cat::Plain);
    if (cloneMemLvalue(U))
      R.N = iop(L::Op::Promote, L::Sfx::None, {R.N});
    return R;
  }
  case UnaryExpr::Op::AddrOf:
    return un();
  }
  return un();
}

int Transformer::findActiveTemp(const Expr *E) const {
  if (ActiveTemps.empty())
    return -1;
  switch (ignoreParens(E)->kind()) {
  case Expr::Kind::Binary:
  case Expr::Kind::Unary:
  case Expr::Kind::Call:
    break; // only op nodes ever become temps
  default:
    return -1;
  }
  for (const auto &[Rep, Slot] : ActiveTemps)
    if (exprEqual(Rep, E))
      return Slot;
  return -1;
}

L::Expr *Transformer::specializedMul(const Expr *LE, const Expr *RE,
                                     L::Expr *LC, L::Expr *RC) {
  const char SL = signClassOf(LE), SR = signClassOf(RE);
  if (SL == 'u' && SR == 'u')
    return nullptr;
  // Multiplication commutes and argument evaluation order is unspecified
  // in C anyway, but only reorder operands we know are side-effect-free.
  const bool Swappable = exprIsPureValue(LE) && exprIsPureValue(RE);
  auto call = [&](L::Op O, L::Expr *A, L::Expr *B) {
    return iop(O, L::Sfx::F64, {A, B});
  };
  if (SL == 'p' && SR == 'p')
    return call(L::Op::MulPP, LC, RC);
  if (SL == 'n' && SR == 'n')
    return call(L::Op::MulNN, LC, RC);
  if (SL == 'p' && SR == 'n')
    return call(L::Op::MulPN, LC, RC);
  if (SL == 'n' && SR == 'p')
    return Swappable ? call(L::Op::MulPN, RC, LC) : nullptr;
  if (SL == 'p')
    return call(L::Op::MulPU, LC, RC);
  if (SR == 'p')
    return Swappable ? call(L::Op::MulPU, RC, LC) : nullptr;
  if (SL == 'n')
    return call(L::Op::MulNU, LC, RC);
  return Swappable ? call(L::Op::MulNU, RC, LC) : nullptr; // SR == 'n'
}

L::Expr *Transformer::specializedDiv(const Expr *RE, L::Expr *LC,
                                     L::Expr *RC) {
  const ValueFact F = OptInfo.factFor(RE);
  if (F.provenPos())
    return iop(L::Op::DivP, L::Sfx::F64, {LC, RC});
  if (F.provenNeg())
    return iop(L::Op::DivN, L::Sfx::F64, {LC, RC});
  return nullptr;
}

/// Fuses `mul(a,b) + addend` (NegateMul/NegateAddend select the sub
/// forms) into one ia_fma_* call. \p MulSide must be a floating scalar
/// multiply that was not const-folded or CSE'd by the caller.
L::Expr *Transformer::tryFuseFma(const Expr *MulSide, L::Expr *Addend,
                                 bool NegateMul, bool NegateAddend) {
  const auto *M = dynCast<BinaryExpr>(ignoreParens(MulSide));
  if (!M || M->O != BinaryExpr::Op::Mul || !scalarF64(M->type()))
    return nullptr;
  TR A = transformExpr(M->LHS);
  TR Bv = transformExpr(M->RHS);
  if (A.IsConst && Bv.IsConst)
    return nullptr; // would have folded; keep the constant path
  L::Expr *AC = asInterval(A), *BC = asInterval(Bv);
  char SA = signClassOf(M->LHS);
  const char SB = signClassOf(M->RHS);
  if (NegateMul) {
    // -(a*b) + c == (-a)*b + c; negation flips a's sign class exactly.
    AC = iop(L::Op::Neg, L::Sfx::F64, {AC});
    SA = SA == 'p' ? 'n' : SA == 'n' ? 'p' : 'u';
  }
  L::Expr *CC = Addend;
  if (NegateAddend)
    CC = iop(L::Op::Neg, L::Sfx::F64, {CC});
  const bool Swappable =
      exprIsPureValue(M->LHS) && exprIsPureValue(M->RHS) && !NegateMul;
  auto call = [&](L::Op O, L::Expr *X, L::Expr *Y) {
    return iop(O, L::Sfx::F64, {X, Y, CC});
  };
  if (SA == 'p' && SB == 'p')
    return call(L::Op::FmaPP, AC, BC);
  if (SA == 'n' && SB == 'n')
    return call(L::Op::FmaNN, AC, BC);
  if (SA == 'p' && SB == 'n')
    return call(L::Op::FmaPN, AC, BC);
  if (SA == 'n' && SB == 'p')
    return Swappable ? call(L::Op::FmaPN, BC, AC) : call(L::Op::Fma, AC, BC);
  if (SA == 'p')
    return call(L::Op::FmaPU, AC, BC);
  if (SB == 'p')
    return Swappable ? call(L::Op::FmaPU, BC, AC) : call(L::Op::Fma, AC, BC);
  if (SA == 'n')
    return call(L::Op::FmaNU, AC, BC);
  if (SB == 'n')
    return Swappable ? call(L::Op::FmaNU, BC, AC) : call(L::Op::Fma, AC, BC);
  return call(L::Op::Fma, AC, BC);
}

TR Transformer::transformBinary(const BinaryExpr *B) {
  const Type *Ty = B->type();
  if (B->isAssignment()) {
    L::Expr *LHS = lvalueOf(B->LHS);
    TR RHS = transformExpr(B->RHS);
    bool IntervalTarget =
        B->LHS->type() && B->LHS->type()->isFloatingOrVector();
    if (!IntervalTarget)
      return {binary(B->O, LHS, RHS.N), Ty};
    L::Sfx OpSfx = B->LHS->type()->isSimdVector() ? vecSfx(B->LHS->type())
                                                  : sfxOp();
    L::Expr *Value = asInterval(RHS);
    auto store = [&](L::Expr *V) -> TR {
      return {plain(L::EK::IStore, LHS, V, Cat::Interval),
              Ty};
    };
    // Clone memory ABI: the stored element is f64i; compound updates
    // promote the current value into the dd arithmetic and the final
    // value narrows back to its outer f64 hull on the way out.
    const bool MemAbi = cloneMemLvalue(B->LHS);
    L::Expr *Cur =
        MemAbi ? iop(L::Op::Promote, L::Sfx::None, {LHS}) : LHS;
    if (optOn() && scalarF64(B->LHS->type())) {
      L::Expr *Opt = nullptr;
      switch (B->O) {
      case BinaryExpr::Op::AddAssign: // y += a*b  ->  y = fma(a, b, y)
        if (!RHS.IsConst && findActiveTemp(B->RHS) < 0 &&
            !OptInfo.FmaLoopHazards.count(B))
          Opt = tryFuseFma(B->RHS, LHS, false, false);
        break;
      case BinaryExpr::Op::SubAssign: // y -= a*b  ->  y = fma(-a, b, y)
        if (!RHS.IsConst && findActiveTemp(B->RHS) < 0 &&
            !OptInfo.FmaLoopHazards.count(B))
          Opt = tryFuseFma(B->RHS, LHS, true, false);
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
      if (Opt)
        return store(prof(Opt, B));
    }
    L::Op O = L::Op::Add;
    switch (B->O) {
    case BinaryExpr::Op::AddAssign:
      O = L::Op::Add;
      break;
    case BinaryExpr::Op::SubAssign:
      O = L::Op::Sub;
      break;
    case BinaryExpr::Op::MulAssign:
      O = L::Op::Mul;
      break;
    case BinaryExpr::Op::DivAssign:
      O = L::Op::Div;
      break;
    default:
      break;
    }
    if (B->O != BinaryExpr::Op::Assign)
      Value = prof(iop(O, OpSfx, {Cur, Value}), B);
    if (MemAbi)
      Value = iop(L::Op::Narrow, L::Sfx::None, {Value});
    return store(Value);
  }

  TR L = transformExpr(B->LHS);
  TR R = transformExpr(B->RHS);
  bool FloatOp =
      (B->LHS->type() && B->LHS->type()->isFloatingOrVector()) ||
      (B->RHS->type() && B->RHS->type()->isFloatingOrVector());
  auto plainOp = [&]() -> TR {
    return {binary(B->O, L.N, R.N), Ty};
  };

  switch (B->O) {
  case BinaryExpr::Op::Add:
  case BinaryExpr::Op::Sub:
  case BinaryExpr::Op::Mul:
  case BinaryExpr::Op::Div: {
    if (!FloatOp)
      return plainOp();
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
      return makeConstant(F64, Dd, Ty);
    }
    bool Vector = Ty && Ty->isSimdVector();
    L::Sfx OpSfx = Vector ? vecSfx(Ty) : sfxOp();
    if (optOn() && !Vector && scalarF64(Ty)) {
      L::Expr *Opt = nullptr;
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
        if (!L.IsConst && findActiveTemp(B->LHS) < 0)
          Opt = tryFuseFma(B->LHS, asInterval(R), false, false);
        if (!Opt && !R.IsConst && findActiveTemp(B->RHS) < 0)
          Opt = tryFuseFma(B->RHS, asInterval(L), false, false);
        break;
      case BinaryExpr::Op::Sub:
        // a*b - c = fma(a, b, -c);  c - a*b = fma(-a, b, c).
        if (OptInfo.FmaLoopHazards.count(B))
          break;
        if (!L.IsConst && findActiveTemp(B->LHS) < 0)
          Opt = tryFuseFma(B->LHS, asInterval(R), false, true);
        if (!Opt && !R.IsConst && findActiveTemp(B->RHS) < 0)
          Opt = tryFuseFma(B->RHS, asInterval(L), true, false);
        break;
      default:
        break;
      }
      if (Opt)
        return {prof(Opt, B), Ty};
    }
    L::Op O = B->O == BinaryExpr::Op::Add   ? L::Op::Add
              : B->O == BinaryExpr::Op::Sub ? L::Op::Sub
              : B->O == BinaryExpr::Op::Mul ? L::Op::Mul
                                            : L::Op::Div;
    L::Expr *LI = asInterval(L);
    L::Expr *RI = asInterval(R);
    return {prof(iop(O, OpSfx, {LI, RI}), B), Ty};
  }
  case BinaryExpr::Op::LT:
  case BinaryExpr::Op::GT:
  case BinaryExpr::Op::LE:
  case BinaryExpr::Op::GE:
  case BinaryExpr::Op::EQ:
  case BinaryExpr::Op::NE: {
    if (!FloatOp)
      return plainOp();
    if ((B->LHS->type() && B->LHS->type()->isSimdVector()) ||
        (B->RHS->type() && B->RHS->type()->isSimdVector()))
      Diags->error(B->loc(),
                   "comparisons of SIMD vectors are not supported");
    if (isDd() &&
        (B->O == BinaryExpr::Op::EQ || B->O == BinaryExpr::Op::NE))
      Diags->error(B->loc(),
                   "==/!= on double-double intervals is not supported");
    L::Op O = B->O == BinaryExpr::Op::LT   ? L::Op::CmpLT
              : B->O == BinaryExpr::Op::GT ? L::Op::CmpGT
              : B->O == BinaryExpr::Op::LE ? L::Op::CmpLE
              : B->O == BinaryExpr::Op::GE ? L::Op::CmpGE
              : B->O == BinaryExpr::Op::EQ ? L::Op::CmpEQ
                                           : L::Op::CmpNE;
    L::Expr *LI = asInterval(L);
    L::Expr *RI = asInterval(R);
    return {iop(O, sfxOp(), {LI, RI}, Cat::TBool), Ty};
  }
  case BinaryExpr::Op::LAnd:
  case BinaryExpr::Op::LOr: {
    if (L.C() == Cat::TBool || R.C() == Cat::TBool) {
      L::Expr *LT = asTBool(L);
      L::Expr *RT = asTBool(R);
      return {iop(B->O == BinaryExpr::Op::LAnd ? L::Op::AndTb : L::Op::OrTb,
                  L::Sfx::None, {LT, RT}, Cat::TBool),
              Ty};
    }
    return plainOp();
  }
  default:
    return plainOp();
  }
}

L::Expr *Transformer::lvalueOf(const Expr *E) {
  const Expr *Stripped = ignoreParens(E);
  const Type *Ty = Stripped->type();
  switch (Stripped->kind()) {
  case Expr::Kind::DeclRef:
    return declRef(cast<DeclRefExpr>(Stripped));
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(Stripped);
    TR Idx = transformExpr(I->Idx);
    return plain(L::EK::Index, lvalueOf(I->Base), Idx.N,
                 Ty && Ty->isFloatingOrVector() ? Cat::Interval : Cat::Plain);
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(Stripped);
    if (U->O == UnaryExpr::Op::Deref) {
      L::Expr *N = unary(U->O, lvalueOf(U->Sub),
                         Ty && Ty->isFloatingOrVector() ? Cat::Interval
                                                        : Cat::Plain);
      N->LvalueForm = true;
      return N;
    }
    break;
  }
  default:
    break;
  }
  Diags->error(Stripped->loc(), "unsupported assignment target");
  return transformExpr(Stripped).N;
}

TR Transformer::transformCast(const CastExpr *C) {
  TR Sub = transformExpr(C->Sub);
  const Type *Ty = C->type();
  const Type *From = C->Sub->type();
  auto castTo = [&](std::string Spelling) -> TR {
    L::Expr *N = plain(L::EK::Cast, Sub.N, nullptr);
    N->To = C->To;
    N->Text = Fn->Store->own(std::move(Spelling));
    return {N, Ty};
  };
  if (C->To->isPointer())
    return castTo(promoteTypeSpelling(C->To));
  if (C->To->isFloating()) {
    if (Sub.IsConst)
      return makeConstant(Sub.CF64, Sub.CDd, Ty);
    if (Sub.C() == Cat::Interval) {
      if (C->To->kind() == Type::Kind::Float && From &&
          From->kind() == Type::Kind::Double)
        return {prof(iop(L::Op::F32Cast, sfxOp(), {Sub.N}), C), Ty};
      return Sub; // float<->double widening: intervals already double
    }
    return {iop(L::Op::CstOfDouble, sfxOp(), {Sub.N}), Ty};
  }
  return castTo(C->To->cName());
}

//===----------------------------------------------------------------------===//
// Calls: math functions, SIMD intrinsics, user functions (Section V)
//===----------------------------------------------------------------------===//

/// Hand-optimized interval implementation of an intrinsic (Section V,
/// "Optimized implementations"), or "" for the automatic path. The
/// double-double target keeps only some of them hand-written (its sqrt
/// goes through the generated path, which is what makes IGen-vv-dd slow
/// in the paper).
std::string handOptimized(std::string_view Callee, bool Dd) {
  struct Entry {
    const char *Intrinsic, *Op;
    bool Wide, Narrow, HasDd;
  };
  static const Entry Table[] = {
      {"add_pd", "add", 1, 1, 1},          {"sub_pd", "sub", 1, 1, 1},
      {"mul_pd", "mul", 1, 1, 1},          {"div_pd", "div", 1, 1, 1},
      {"sqrt_pd", "sqrt", 1, 0, 0},        {"loadu_pd", "loadu", 1, 1, 1},
      {"load_pd", "loadu", 1, 1, 1},       {"storeu_pd", "storeu", 1, 1, 1},
      {"store_pd", "storeu", 1, 1, 1},     {"set1_pd", "set1", 1, 1, 1},
      {"set_pd", "set", 1, 0, 1},          {"setzero_pd", "setzero", 1, 1, 1},
      {"cvtsd_f64", "extract0", 0, 1, 1},
      {"castpd256_pd128", "castlow", 1, 0, 1},
      {"extractf128_pd", "extractf128", 1, 0, 1},
  };
  const bool Wide = startsWith(Callee, "_mm256_");
  if (!Wide && !startsWith(Callee, "_mm_"))
    return "";
  std::string_view Rest = Callee.substr(Wide ? 7 : 4);
  for (const Entry &E : Table)
    if (Rest == E.Intrinsic && (Wide ? E.Wide : E.Narrow) && (!Dd || E.HasDd))
      return std::string("ia_") + E.Op + "_" +
             (Dd ? (Wide ? "ddi_4" : "ddi_2")
                 : (Wide ? "m256di_2" : "m256di_1"));
  return "";
}

TR Transformer::transformCall(const CallExpr *C) {
  const Type *Ty = C->type();
  const bool IntervalResult = Ty && Ty->isFloatingOrVector();
  CalleeKind CK = classifyCallee(C->Callee);
  /// Lowers the arguments of an intrinsic or a user-function call; they
  /// promote exactly like parameters do.
  auto callArgs = [&](L::Expr *N) {
    N->Args = Fn->Store->newArgs();
    for (const Expr *A : C->Args) {
      TR Arg = transformExpr(A);
      const Type *ArgTy = A->type();
      const bool WantInterval = ArgTy && ArgTy->isFloatingOrVector();
      N->Args->push_back(WantInterval ? asInterval(Arg) : Arg.N);
    }
  };
  auto externCall = [&](std::string Name, CalleeKind K, Cat Ct) {
    L::Expr *N = node(L::EK::Extern, Ct);
    N->Text = Fn->Store->own(std::move(Name));
    N->Callee = K;
    return N;
  };

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
    if (C->Args.empty() ||
        ((Base == "min" || Base == "max") && C->Args.size() < 2)) {
      Diags->error(C->loc(), "wrong number of arguments to '" + C->Callee +
                                 "'");
      L::Expr *Zero = node(L::EK::IntLit, Cat::Plain);
      Zero->Text = "0.0";
      return {iop(L::Op::Cst, sfxOp(), {Zero}), Ty};
    }
    TR Arg = transformExpr(C->Args[0]);
    if (Base == "min" || Base == "max") {
      TR Arg2 = transformExpr(C->Args[1]);
      L::Expr *A0 = asInterval(Arg);
      L::Expr *A1 = asInterval(Arg2);
      return {prof(iop(Base == "min" ? L::Op::Min : L::Op::Max, sfxOp(),
                       {A0, A1}),
                   C),
              Ty};
    }
    // At -O1 and above the transcendentals with certified polynomial
    // kernels (interval/PolyKernels.h) lower to the fast variants: no
    // rounding-mode switch per call, enclosure widened by the certified
    // bound instead of the libm ulp band. -O0 keeps the libm path.
    std::optional<L::Op> O = mathOp(Base, optOn() && !isDd());
    L::Expr *A0 = asInterval(Arg);
    if (!O) // not reachable for classifyCallee's names
      return {externCall("ia_" + Base + "_" + sfx(), CK, Cat::Interval), Ty};
    return {prof(iop(*O, sfxOp(), {A0}), C), Ty};
  }

  if (CK == CalleeKind::Intrinsic) {
    // Vector FMA fusion: _mm{256,}_add_pd(_mm{256,}_mul_pd(a, b), c) and the
    // mirrored form lower to the fused interval FMA kernels.
    if (optOn() && !isDd() &&
        (C->Callee == "_mm256_add_pd" || C->Callee == "_mm_add_pd") &&
        C->Args.size() == 2) {
      bool Wide = C->Callee == "_mm256_add_pd";
      const char *MulName = Wide ? "_mm256_mul_pd" : "_mm_mul_pd";
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
        L::Expr *A0 = asInterval(MA);
        L::Expr *A1 = asInterval(MB);
        L::Expr *A2 = asInterval(Addend);
        return {iop(L::Op::Fma, Wide ? L::Sfx::M256di2 : L::Sfx::M256di1,
                    {A0, A1, A2}),
                Ty};
      }
    }
    std::string Name = handOptimized(C->Callee, isDd());
    if (Name.empty()) {
      // Automatic path: implementation produced by the SIMD generator
      // and compiled through IGen itself (Fig. 4).
      Name = (isDd() ? "_ci_dd" : "_ci") + C->Callee;
      UsedGeneratedIntrinsics = true;
    }
    L::Expr *N = externCall(std::move(Name), CK,
                            IntervalResult ? Cat::Interval : Cat::Plain);
    callArgs(N);
    return {N, Ty};
  }

  if (CK == CalleeKind::Allocation) {
    L::Expr *N = externCall(C->Callee, CK, Cat::Plain);
    N->Args = Fn->Store->newArgs();
    for (const Expr *A : C->Args)
      N->Args->push_back(transformExpr(A).N);
    return {N, Ty};
  }

  // User function: a call of a function defined here runs in-process; an
  // external one only exists in the emitted C.
  const bool Defined = DefinedFns.count(C->Callee);
  L::Expr *N = Defined ? node(L::EK::Call, Cat::Plain)
                       : externCall(C->Callee, CK, Cat::Plain);
  N->Text = C->Callee;
  callArgs(N);
  if (IntervalResult) {
    N->C = Cat::Interval;
    // --harden: an external callee (declared, not defined here) may have
    // disturbed the FP environment. ia_fenv_guard evaluates the call
    // first, checks after, and poisons its result if required.
    if (Opts.Harden && !Defined)
      N = iop(L::Op::FenvGuard, L::Sfx::None, {N});
  }
  return {N, Ty};
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

L::Stmt *Transformer::lowerDecl(const VarDecl *D) {
  L::Stmt *S = Fn->Store->newStmt(L::SK::Decl);
  S->Var = D;
  S->Slot = varSlot(D);
  S->Text = Fn->Store->own(promoteTypeAndName(D->Ty, D->Name));
  if (D->Init) {
    TR Init = transformExpr(D->Init);
    S->E = D->Ty->isFloatingOrVector() ? asInterval(Init) : Init.N;
  }
  return S;
}

void Transformer::emitTemp(std::string Name, const Expr *Rep, L::Expr *Init) {
  L::Stmt *D = add(Fn->Store->newStmt(L::SK::Decl));
  D->Text = Fn->Store->own(scalarIntervalType() + " " + Name);
  D->Slot = tempSlot(std::move(Name));
  D->E = Init;
  ActiveTemps.push_back({Rep, D->Slot});
}

void Transformer::emitExprStmt(const ExprStmt *S) {
  // Reduction update statements become accumulator feeds (Fig. 7).
  auto It = UpdateToAcc.find(S);
  if (It != UpdateToAcc.end()) {
    const ReductionSite *Site = It->second.first;
    const L::Stmt *Acc = It->second.second;
    for (const ReductionTerm &T : Site->Terms) {
      TR Term = transformExpr(T.Term);
      L::Expr *Code = asInterval(Term);
      if (T.Negated)
        Code = iop(L::Op::Neg, sfxOp(), {Code});
      L::Stmt *Feed = add(Fn->Store->newStmt(L::SK::AccFeed));
      Feed->Slot = Acc->Slot;
      Feed->Slot2 = Acc->Slot2;
      Feed->E = Code;
    }
    return;
  }
  add(Fn->Store->newStmt(L::SK::ExprS))->E = transformExpr(S->E).N;
  // --harden: a statement-position external call with a non-interval
  // result got no ia_fenv_guard wrapper; re-check the environment here.
  if (Opts.Harden) {
    const auto *CE = dynCast<CallExpr>(ignoreParens(S->E));
    if (CE && classifyCallee(CE->Callee) == CalleeKind::UserFunction &&
        !DefinedFns.count(CE->Callee) &&
        !(CE->type() && CE->type()->isFloatingOrVector()))
      emit("igen_fenv_check();");
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
  if (Cond.C() != Cat::TBool) {
    L::Stmt *If = add(Fn->Store->newStmt(L::SK::If));
    If->E = Cond.N;
    If->Then = body(S->Then);
    if (S->Else)
      If->Else = body(S->Else);
    return;
  }

  L::Stmt *If = add(Fn->Store->newStmt(L::SK::IfTBool));
  If->Slot = tempSlot(freshTemp());
  If->E = Cond.N;

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
    If->Then = body(S->Then);
    if (S->Else)
      If->Else = body(S->Else);
    return;
  }

  // Join mode: run both branches on the unknown state and hull the
  // results (Section IV-B, "Unknown-state in if-else statements").
  If->Join = true;
  If->Ext = Fn->Store->newExt();
  If->Then = body(S->Then);
  if (S->Else)
    If->Else = body(S->Else);
  // A target is saved, restored and hulled where its assignments store:
  // a tolerance parameter's shadow, not the scalar parameter.
  for (VarDecl *V : Targets) {
    auto RIt = Renames.find(V);
    If->Ext->Targets.push_back(RIt != Renames.end() ? RIt->second
                                                    : varSlot(V));
  }
  If->Ext->Then2 = body(S->Then);
  if (S->Else)
    If->Ext->Else2 = body(S->Else);
}

L::Stmt *Transformer::forHeader(const ForStmt *S) {
  L::Stmt *F = Fn->Store->newStmt(L::SK::For);
  if (S->Init && S->Init->kind() == Stmt::Kind::DeclStmt) {
    for (const VarDecl *D : cast<DeclStmt>(S->Init)->Decls)
      F->Body.push_back(lowerDecl(D));
  } else if (S->Init && S->Init->kind() == Stmt::Kind::ExprStmt) {
    L::Stmt *Piece = Fn->Store->newStmt(L::SK::ExprS);
    Piece->E = transformExpr(cast<ExprStmt>(S->Init)->E).N;
    F->Body.push_back(Piece);
  }
  if (S->Cond)
    F->E = asCondition(transformExpr(S->Cond));
  if (S->Inc)
    F->E2 = transformExpr(S->Inc).N;
  return F;
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
        if (findActiveTemp(E) >= 0)
          return false;
        if (exprEqual(E, Rep)) {
          ++N;
          return false;
        }
        return true;
      });
    return N;
  };

  size_t N = 0;
  for (const Expr *Rep : It->second) {
    if (findActiveTemp(Rep) >= 0)
      continue; // already available from a hoist or an enclosing statement
    if (visibleCount(Rep) < 2)
      continue;
    TR Init = transformExpr(Rep);
    if (Init.IsConst || Init.C() != Cat::Interval)
      continue; // constants fold; nothing to reuse
    emitTemp(formatString("_cse%d", ++CseCounter), Rep, Init.N);
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
    if (std::optional<BatchLoop> BL = matchBatchLoop(S)) {
      L::Stmt *Call = Fn->Store->newStmt(L::SK::BatchLoop);
      Call->Text = BL->opName();
      Call->Ext = Fn->Store->newExt();
      Call->E = transformExpr(BL->Dst).N;
      Call->Ext->X[0] = transformExpr(BL->A).N;
      Call->Ext->X[2] = transformExpr(BL->Count).N;
      if (BL->B)
        Call->Ext->X[1] = transformExpr(BL->B).N;
      add(Call);
      return;
    }
  }

  // Row kernels: an axpy- or dot-shaped innermost loop becomes one call
  // that computes the per-element loop's bits (igen_lib.h). Not under
  // --profile, which instruments every element operation, nor under
  // --batch-loops, where the batched runtime routes loops; an update the
  // reduction transformation feeds to an accumulator stays a loop. Under
  // double-double only `Y = Y + a * X` (or `+=`) routes, to ia_axpy_dd:
  // the dot shapes wait on their in-order add chain, `a * X + Y` adds in
  // the other order, and the tier's dd clone keeps f64i memory.
  if (optOn() && !Opts.Profile && !Opts.EnableBatchLoops &&
      TMode != TierMode::DdClone) {
    auto RIt = OptInfo.RowKernels.find(S);
    if (RIt != OptInfo.RowKernels.end() &&
        (!isDd() || (RIt->second.K == RowKernelLoop::Kind::Axpy &&
                     !RIt->second.ProductFirst)) &&
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
        if (findActiveTemp(Rep) >= 0)
          continue;
        TR Init = transformExpr(Rep);
        if (Init.IsConst || Init.C() != Cat::Interval)
          continue;
        emitTemp(formatString("_hoist%d", ++HoistCounter), Rep, Init.N);
        ++Hoisted;
      }
    }
  }

  std::vector<const ReductionSite *> Sites;
  if (Opts.EnableReductions)
    Sites = Reductions.sitesForLoop(S);

  std::vector<std::pair<const ReductionSite *, L::Stmt *>> Accs;
  for (const ReductionSite *Site : Sites) {
    L::Stmt *Init = Fn->Store->newStmt(L::SK::AccInit);
    Init->Slot = tempSlot(formatString("_acc%d", ++AccCounter));
    Init->Slot2 = Fn->NumAccs++;
    Accs.push_back({Site, Init});
    UpdateToAcc[Site->Update] = {Site, Init};
    Init->E = asInterval(transformExpr(Site->Target));
    add(Init);
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
    L::Stmt *Ver = add(Fn->Store->newStmt(L::SK::Versioned));
    Ver->E =
        var(RIt != Renames.end() ? RIt->second : varSlot(V), Cat::Interval);
    Ver->Then = loopCopy(S, V, 'p');
    DiagnosticsEngine Repeats;
    DiagnosticsEngine *Real = Diags;
    Diags = &Repeats; // the first copy reported everything already
    Ver->Else = loopCopy(S, V, 'n');
    Ver->Ext = Fn->Store->newExt();
    Ver->Ext->Then2 = loopCopy(S, V, 0);
    Diags = Real;
  } else {
    L::Stmt *F = add(forHeader(S));
    F->Then = body(S->Body);
  }

  for (auto &[Site, Init] : Accs) {
    L::Stmt *Red = Fn->Store->newStmt(L::SK::AccReduce);
    Red->Slot = Init->Slot;
    Red->Slot2 = Init->Slot2;
    Red->Narrow = cloneMemLvalue(Site->Target);
    Red->E2 = lvalueOf(Site->Target);
    add(Red);
    UpdateToAcc.erase(Site->Update);
  }
  popTemps(Hoisted);
}

void Transformer::emitRowKernel(const RowKernelLoop &K) {
  L::Stmt *R = Fn->Store->newStmt(L::SK::RowKernel);
  R->S = sfxOp();
  R->Ext = Fn->Store->newExt();
  R->E = transformExpr(K.Lower).N;
  R->E2 = transformExpr(K.Upper).N;
  const auto *Zero = dynCast<IntLiteralExpr>(ignoreParens(K.Lower));
  R->FromZero = Zero && Zero->Value == 0;
  // &Base[Offset + L]: the first element the loop touches.
  auto row = [&](int I, const RowKernelLoop::Row &Row) {
    if (Row.Offset)
      R->Ext->X[2 * I + 1] = transformExpr(Row.Offset).N;
    R->Ext->X[2 * I] = transformExpr(Row.Base).N;
  };
  if (K.K == RowKernelLoop::Kind::Axpy) {
    R->Row = L::Stmt::RowKind::Axpy;
    row(0, K.First);
    R->Ext->Scalar = asInterval(transformExpr(K.Scalar));
  } else {
    R->Row = K.K == RowKernelLoop::Kind::Dot ? L::Stmt::RowKind::Dot
                                             : L::Stmt::RowKind::DotSub;
    R->Ext->Scalar = lvalueOf(K.Scalar);
    row(0, K.First);
  }
  row(1, K.Second);
  add(R);
}

L::Stmt *Transformer::loopCopy(const ForStmt *S, const VarDecl *V,
                               char Class) {
  L::Stmt *Block = Fn->Store->newStmt(L::SK::Block);
  std::vector<L::Stmt *> *Saved = Cur;
  Cur = &Block->Body;
  VersionVar = V;
  VersionClass = Class;
  L::Stmt *F = add(forHeader(S));
  F->Then = body(S->Body);
  VersionVar = nullptr;
  VersionClass = 0;
  Cur = Saved;
  return Block;
}

void Transformer::emitCompound(const CompoundStmt *S) {
  for (const Stmt *Child : S->Body)
    emitStmt(Child);
}

L::Stmt *Transformer::body(const Stmt *S) {
  L::Stmt *Block = Fn->Store->newStmt(L::SK::Block);
  std::vector<L::Stmt *> *Saved = Cur;
  Cur = &Block->Body;
  if (const auto *C = dynCast<CompoundStmt>(S))
    emitCompound(C);
  else
    emitStmt(S);
  Cur = Saved;
  return Block;
}

void Transformer::emitStmt(const Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    add(body(S));
    return;
  case Stmt::Kind::DeclStmt: {
    size_t Temps = emitCseTemps(S);
    for (const VarDecl *D : cast<DeclStmt>(S)->Decls)
      add(lowerDecl(D));
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
    L::Stmt *Loop = Fn->Store->newStmt(L::SK::While);
    Loop->E = asCondition(transformExpr(W->Cond));
    add(Loop)->Then = body(W->Body);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    L::Stmt *Loop = add(Fn->Store->newStmt(L::SK::Do));
    Loop->Then = body(D->Body);
    Loop->E = asCondition(transformExpr(D->Cond));
    return;
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    if (!R->Value) {
      add(Fn->Store->newStmt(L::SK::Return));
      return;
    }
    size_t Temps = emitCseTemps(S);
    TR V = transformExpr(R->Value);
    if (TMode == TierMode::Wrapper) {
      // Region exit: check the blowup predicate on the f64i result and
      // re-execute the region at ddi from the entry snapshot when it
      // fires. The meet of the two enclosures is sound (both contain the
      // true result set) and never wider than the f64i answer.
      L::Stmt *Ret = Fn->Store->newStmt(L::SK::TierReturn);
      Ret->E = asInterval(V);
      Ret->Region = static_cast<int>(TierRegionId);
      Ret->Movable = TierMovable;
      add(Ret);
      popTemps(Temps);
      return;
    }
    // Wrap per the function's (promoted) return type.
    bool WantInterval = R->Value->type() &&
                        R->Value->type()->isFloatingOrVector();
    add(Fn->Store->newStmt(L::SK::Return))->E = WantInterval ? asInterval(V) : V.N;
    popTemps(Temps);
    return;
  }
  case Stmt::Kind::Break:
    add(Fn->Store->newStmt(L::SK::Break));
    return;
  case Stmt::Kind::Continue:
    add(Fn->Store->newStmt(L::SK::Continue));
    return;
  case Stmt::Kind::Null:
    add(Fn->Store->newStmt(L::SK::Null));
    return;
  }
}

void Transformer::emitFunction(FunctionDecl *F) {
  TierEligibility El;
  const bool Tier = Opts.Tier && F->Body && El.check(*F);
  if (Opts.Tier && F->Body && !Tier)
    Diags->warning(F->Loc, "function '" + F->Name +
                               "' is not tier-eligible (" + El.Why +
                               "); emitting the plain f64i translation");
  // Analyzed once: a --tier function's ddi clone and f64i wrapper lower
  // the same AST under the same options, and both analyses read one set
  // of loop write sets.
  OptInfo = OptFunctionInfo();
  Reductions = ReductionAnalysisResult();
  if (F->Body && (Opts.OptLevel > 0 || Opts.EnableReductions)) {
    const WriteSets Writes(F->Body);
    if (Opts.OptLevel > 0) {
      OptOptions OO;
      // Guard-derived facts require the Exception policy: under Join both
      // branch bodies execute unconditionally.
      OO.GuardFacts =
          Opts.Branches == TransformOptions::BranchPolicy::Exception;
      OptInfo = analyzeFunctionForOpt(*F, OO, Writes);
    }
    if (Opts.EnableReductions)
      Reductions = analyzeReductions(*F, Writes, *Diags);
  }
  if (!Tier) {
    emitFunctionImpl(F, F->Name);
    return;
  }
  // Clone first so the wrapper's escalation call sees it defined.
  TMode = TierMode::DdClone;
  emitFunctionImpl(F, F->Name + "__dd");
  Body += '\n';
  TierMovable = !analyzeMovability(*F).ResultImmovable;
  TMode = TierMode::Wrapper;
  emitFunctionImpl(F, F->Name);
  TMode = TierMode::Off;
}

void Transformer::emitFunctionImpl(FunctionDecl *F,
                                   const std::string &EmitName) {
  CurFuncName = F->Name;
  UpdateToAcc.clear();
  Renames.clear();
  ActiveTemps.clear();
  SlotOf.clear();
  VarNodes.clear();

  auto LF = std::make_unique<L::Function>();
  if (Keep) {
    LF->Store = &Keep->Store;
  } else {
    // Printed and freed one function at a time.
    FunctionStore = std::make_unique<L::NodeStore>();
    LF->Store = FunctionStore.get();
  }
  Fn = LF.get();
  LF->Name = EmitName;
  LF->Decl = F;
  LF->Dd = isDd();
  LF->TierClone = TMode == TierMode::DdClone;

  // Header (Fig. 2/3): floating types promote; tolerance parameters keep
  // their scalar type and gain an interval shadow in the body.
  std::string &Header = LF->Header;
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
    LF->ParamSlots.push_back(varSlot(P));
  }
  if (F->Params.empty())
    Header += "void";
  Header += ")";

  if (!F->Body) {
    finishFunction(std::move(LF));
    return;
  }
  LF->Body = LF->Store->newStmt(L::SK::Block);
  Cur = &LF->Body->Body;
  if (Opts.Harden) {
    // Sound-region entry: the caller may arrive with any FP environment.
    std::string Whole = wholeCtorFor(F->RetTy);
    emit(Whole.empty() ? "igen_fenv_check();"
                       : "if (igen_fenv_check()) return " + Whole + ";");
  }
  if (TMode == TierMode::Wrapper && TierMovable) {
    // Region snapshot, captured at f64i cost: the body may overwrite
    // parameters, and on blowup the dd clone re-executes from the entry
    // state. Promotion to ddi is exact, so both tiers start from
    // bit-identical intervals (what makes movability analysis possible).
    // An immovable region never escalates, so nothing reads a snapshot.
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
      emit(Spell + (endsWith(Spell, "*") ? "" : " ") + Snap + " = " +
           P->Name + ";");
      Args += T->isFloating() ? "ia_promote_f64_dd(" + Snap + ")" : Snap;
    }
    LF->TierCloneCall = F->Name + "__dd(" + Args + ")";
  }
  if (TMode == TierMode::Wrapper) {
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
    // _a = a +- tol (Fig. 3). The tolerance literal is widened upward.
    RoundUpwardScope Up;
    DdInterval TolEnc = ddIntervalFromDecimal(P->ToleranceSpelling);
    L::Stmt *Shadow = add(LF->Store->newStmt(L::SK::TolShadow));
    Shadow->Tol = TolEnc.hasNaN() ? P->Tolerance : ddToDoubleUp(TolEnc.Hi);
    Shadow->Slot = tempSlot("_" + P->Name);
    Shadow->Slot2 = varSlot(P);
    Shadow->Text = P->ToleranceSpelling;
    Renames[P] = Shadow->Slot;
  }
  emitCompound(F->Body);
  finishFunction(std::move(LF));
}

void Transformer::compactSites(L::Function &F) {
  const bool Sites = Opts.Profile && SiteTable.Sites.size() > SitesDone;
  const bool Regions = Opts.Tier && SiteTable.Regions.size() > RegionsDone;
  if (!Sites && !Regions)
    return;
  std::vector<L::Expr *> Instrumented;
  std::vector<L::Stmt *> Exits;
  L::forEachNode(
      F,
      [&](L::Expr &E) {
        if (E.Site >= 0)
          Instrumented.push_back(&E);
      },
      [&](L::Stmt &S) {
        if (S.Kind == L::SK::TierReturn)
          Exits.push_back(&S);
      });
  // A shared node is visited once per use; renumber it once.
  std::sort(Instrumented.begin(), Instrumented.end());
  Instrumented.erase(std::unique(Instrumented.begin(), Instrumented.end()),
                     Instrumented.end());
  // Dense renumbering of [Done, Ids) in creation order; returns the mask.
  auto renumber = [](size_t Done, size_t Ids, auto &&Refs) {
    std::vector<bool> Used(Ids - Done, false);
    for (int *Id : Refs)
      Used[*Id - Done] = true;
    std::vector<int> Remap(Ids - Done);
    int Next = static_cast<int>(Done);
    for (size_t I = 0; I < Used.size(); ++I) {
      Remap[I] = Next;
      Next += Used[I];
    }
    for (int *Id : Refs)
      *Id = Remap[*Id - Done];
    return Used;
  };
  if (Sites) {
    std::vector<int *> Refs;
    for (L::Expr *E : Instrumented)
      Refs.push_back(&E->Site);
    filterByMask(SiteTable.Sites, SitesDone,
                 renumber(SitesDone, SiteTable.Sites.size(), Refs));
  }
  if (Regions) {
    std::vector<int *> Refs;
    for (L::Stmt *S : Exits)
      Refs.push_back(&S->Region);
    filterByMask(SiteTable.Regions, RegionsDone,
                 renumber(RegionsDone, SiteTable.Regions.size(), Refs));
  }
}

void Transformer::finishFunction(std::unique_ptr<L::Function> LF) {
  compactSites(*LF);
  SitesDone = SiteTable.Sites.size();
  RegionsDone = SiteTable.Regions.size();
  L::printFunction(*LF, Body);
  Fn = nullptr;
  Cur = nullptr;
  if (Keep)
    Keep->Functions.push_back(std::move(LF));
  else
    FunctionStore.reset();
}

//===----------------------------------------------------------------------===//
// Whole translation unit
//===----------------------------------------------------------------------===//

std::string Transformer::run(L::Program *KeepInto) {
  Keep = KeepInto;
  Body.clear();
  SiteTable = ProfileSiteTable();
  SiteTable.Module = Opts.ModuleName.empty() ? "igen" : Opts.ModuleName;
  SiteTable.SourceFile = Opts.SourceName;
  SitesDone = RegionsDone = 0;
  DefinedFns.clear();
  for (const TopLevelItem &Item : Ctx.TU.Items)
    if (Item.Function && Item.Function->Body)
      DefinedFns.insert(Item.Function->Name);
  for (const TopLevelItem &Item : Ctx.TU.Items) {
    if (!Item.Function) {
      Body += Item.Directive;
      Body += '\n';
      continue;
    }
    emitFunction(Item.Function);
    Body += '\n';
  }

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
  return transformToIntervals(Ctx, Diags, Options, SitesOut, nullptr);
}

std::string igen::transformToIntervals(ASTContext &Ctx,
                                       DiagnosticsEngine &Diags,
                                       const TransformOptions &Options,
                                       ProfileSiteTable *SitesOut,
                                       lowered::Program *Keep) {
  Transformer T(Ctx, Diags, Options);
  std::string Out = T.run(Keep);
  if (SitesOut)
    *SitesOut = T.siteTable();
  return Out;
}
