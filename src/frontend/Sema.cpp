//===- Sema.cpp - Semantic analysis for the C subset ------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Sema.h"

#include "support/StringExtras.h"

using namespace igen;

CalleeKind igen::classifyCallee(std::string_view Name) {
  // Each double function and its float twin (the name plus 'f').
  static constexpr std::string_view MathFns[] = {
      "sin",  "cos",  "tan",  "exp",  "log",  "sqrt", "fabs",
      "floor", "ceil", "fmin", "fmax", "atan", "asin", "acos"};
  std::string_view Base =
      endsWith(Name, "f") ? Name.substr(0, Name.size() - 1) : Name;
  for (std::string_view Fn : MathFns)
    if (Fn == Name || Fn == Base)
      return CalleeKind::MathFunction;
  if (Name == "malloc" || Name == "calloc" || Name == "free" ||
      Name == "aligned_alloc")
    return CalleeKind::Allocation;
  if (startsWith(Name, "_mm"))
    return CalleeKind::Intrinsic;
  return CalleeKind::UserFunction;
}

const Type *igen::intrinsicReturnType(const std::string &Name,
                                      TypeContext &Types) {
  bool Is256 = startsWith(Name, "_mm256_");
  // Scalar extracts.
  if (endsWith(Name, "_cvtsd_f64"))
    return Types.get(Type::Kind::Double);
  if (endsWith(Name, "_cvtss_f32"))
    return Types.get(Type::Kind::Float);
  if (Name.find("_movemask_") != std::string::npos)
    return Types.get(Type::Kind::Int);
  // Stores return void.
  if (Name.find("_store") != std::string::npos ||
      Name.find("_stream") != std::string::npos)
    return Types.get(Type::Kind::Void);
  // Cross-width conversions and casts.
  if (Name.find("_cvtps_pd") != std::string::npos)
    return Types.get(Is256 ? Type::Kind::M256D : Type::Kind::M128D);
  if (Name.find("_cvtpd_ps") != std::string::npos)
    return Types.get(Type::Kind::M128);
  if (Name.find("_extractf128_pd") != std::string::npos)
    return Types.get(Type::Kind::M128D);
  if (Name.find("_extractf128_ps") != std::string::npos)
    return Types.get(Type::Kind::M128);
  if (Name.find("_castpd256_pd128") != std::string::npos)
    return Types.get(Type::Kind::M128D);
  if (Name.find("_castpd128_pd256") != std::string::npos)
    return Types.get(Type::Kind::M256D);
  // Packed results by suffix.
  if (endsWith(Name, "_pd") || Name.find("_pd(") != std::string::npos ||
      endsWith(Name, "_pd1") || Name.find("_pd_") != std::string::npos)
    return Types.get(Is256 ? Type::Kind::M256D : Type::Kind::M128D);
  if (endsWith(Name, "_sd"))
    return Types.get(Type::Kind::M128D);
  if (endsWith(Name, "_ps") || endsWith(Name, "_ps1"))
    return Types.get(Is256 ? Type::Kind::M256 : Type::Kind::M128);
  if (endsWith(Name, "_ss"))
    return Types.get(Type::Kind::M128);
  return nullptr;
}

bool Sema::run() {
  unsigned ErrorsBefore = Diags.errorCount();
  for (TopLevelItem &Item : Ctx.TU.Items)
    if (Item.Function && Item.Function->Body)
      checkFunction(Item.Function);
  return Diags.errorCount() == ErrorsBefore;
}

void Sema::declare(VarDecl *D) {
  assert(!Scopes.empty());
  auto [It, Inserted] = Scopes.back().insert({D->Name, D});
  if (!Inserted)
    Diags.error(D->Loc, "redefinition of '" + D->Name + "'");
}

VarDecl *Sema::lookup(const std::string &Name) {
  for (auto It = Scopes.rbegin(); It != Scopes.rend(); ++It) {
    auto Found = It->find(Name);
    if (Found != It->end())
      return Found->second;
  }
  return nullptr;
}

void Sema::checkFunction(FunctionDecl *F) {
  CurFunction = F;
  pushScope();
  for (VarDecl *P : F->Params)
    declare(P);
  checkStmt(F->Body);
  popScope();
  CurFunction = nullptr;
}

void Sema::checkVarDecl(VarDecl *D) {
  declare(D);
  if (D->Init) {
    const Type *InitTy = checkExpr(D->Init);
    if (D->Ty->isSimdVector() && InitTy && InitTy != D->Ty &&
        !InitTy->isSimdVector())
      Diags.error(D->Loc, "cannot initialize SIMD vector '" + D->Name +
                              "' from a scalar");
  }
}

void Sema::checkStmt(Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::Compound: {
    pushScope();
    for (Stmt *Child : cast<CompoundStmt>(S)->Body)
      checkStmt(Child);
    popScope();
    return;
  }
  case Stmt::Kind::DeclStmt:
    for (VarDecl *D : cast<DeclStmt>(S)->Decls)
      checkVarDecl(D);
    return;
  case Stmt::Kind::ExprStmt:
    checkExpr(cast<ExprStmt>(S)->E);
    return;
  case Stmt::Kind::If: {
    auto *If = cast<IfStmt>(S);
    checkExpr(If->Cond);
    checkStmt(If->Then);
    if (If->Else)
      checkStmt(If->Else);
    return;
  }
  case Stmt::Kind::For: {
    auto *For = cast<ForStmt>(S);
    pushScope();
    if (For->Init)
      checkStmt(For->Init);
    if (For->Cond)
      checkExpr(For->Cond);
    if (For->Inc)
      checkExpr(For->Inc);
    checkStmt(For->Body);
    // Reduction pragma variables must be visible here; the analysis
    // matches updates against the declarations they name.
    for (const std::string &Var : For->ReduceVars) {
      if (const VarDecl *D = lookup(Var))
        For->ReduceDecls.push_back(D);
      else
        Diags.error(For->loc(), "reduction variable '" + Var +
                                    "' is not in scope");
    }
    popScope();
    return;
  }
  case Stmt::Kind::While: {
    auto *W = cast<WhileStmt>(S);
    checkExpr(W->Cond);
    checkStmt(W->Body);
    return;
  }
  case Stmt::Kind::Do: {
    auto *D = cast<DoStmt>(S);
    checkStmt(D->Body);
    checkExpr(D->Cond);
    return;
  }
  case Stmt::Kind::Return: {
    auto *R = cast<ReturnStmt>(S);
    if (R->Value)
      checkExpr(R->Value);
    else if (CurFunction && !CurFunction->RetTy->isVoid())
      Diags.error(R->loc(), "non-void function must return a value");
    return;
  }
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
  case Stmt::Kind::Null:
    return;
  }
}

const Type *Sema::commonArithType(const Type *A, const Type *B) {
  if (!A || !B)
    return A ? A : B;
  if (A->isSimdVector())
    return A;
  if (B->isSimdVector())
    return B;
  if (A->kind() == Type::Kind::Double || B->kind() == Type::Kind::Double)
    return Ctx.Types.get(Type::Kind::Double);
  if (A->isFloating())
    return A;
  if (B->isFloating())
    return B;
  if (A->kind() == Type::Kind::ULong || B->kind() == Type::Kind::ULong)
    return Ctx.Types.get(Type::Kind::ULong);
  if (A->kind() == Type::Kind::Long || B->kind() == Type::Kind::Long)
    return Ctx.Types.get(Type::Kind::Long);
  if (A->kind() == Type::Kind::UInt || B->kind() == Type::Kind::UInt)
    return Ctx.Types.get(Type::Kind::UInt);
  return Ctx.Types.get(Type::Kind::Int);
}

const Type *Sema::checkCall(CallExpr *E) {
  for (Expr *Arg : E->Args)
    checkExpr(Arg);
  switch (classifyCallee(E->Callee)) {
  case CalleeKind::MathFunction: {
    bool IsFloat = endsWith(E->Callee, "f") && E->Callee != "fabs";
    // fminf etc. end in f; fabs/fabsf disambiguated above.
    if (E->Callee == "fabsf")
      IsFloat = true;
    return Ctx.Types.get(IsFloat ? Type::Kind::Float : Type::Kind::Double);
  }
  case CalleeKind::Intrinsic: {
    const Type *T = intrinsicReturnType(E->Callee, Ctx.Types);
    if (!T) {
      Diags.error(E->loc(),
                  "unsupported SIMD intrinsic '" + E->Callee + "'");
      return Ctx.Types.get(Type::Kind::M256D);
    }
    return T;
  }
  case CalleeKind::Allocation:
    Diags.warning(E->loc(),
                  "'" + E->Callee +
                      "' with a byte count is dangerous under interval "
                      "promotion; ensure sizes use the interval type");
    if (E->Callee == "free")
      return Ctx.Types.get(Type::Kind::Void);
    return Ctx.Types.getPointer(Ctx.Types.get(Type::Kind::Void));
  case CalleeKind::UserFunction:
  case CalleeKind::Unknown: {
    if (FunctionDecl *F = Ctx.TU.findFunction(E->Callee)) {
      if (F->Params.size() != E->Args.size())
        Diags.error(E->loc(), formatString(
                                  "call to '%s' with %zu arguments; "
                                  "%zu expected",
                                  E->Callee.c_str(), E->Args.size(),
                                  F->Params.size()));
      return F->RetTy;
    }
    Diags.error(E->loc(), "call to unknown function '" + E->Callee + "'");
    return Ctx.Types.get(Type::Kind::Double);
  }
  }
  return Ctx.Types.get(Type::Kind::Double);
}

const Type *Sema::checkExpr(Expr *E) {
  const Type *Result = nullptr;
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    Result = Ctx.Types.get(Type::Kind::Int);
    break;
  case Expr::Kind::FloatLiteral: {
    auto *F = cast<FloatLiteralExpr>(E);
    Result = Ctx.Types.get(F->IsFloatSuffix ? Type::Kind::Float
                                            : Type::Kind::Double);
    break;
  }
  case Expr::Kind::DeclRef: {
    auto *Ref = cast<DeclRefExpr>(E);
    Ref->Decl = lookup(Ref->Name);
    if (!Ref->Decl) {
      Diags.error(E->loc(), "use of undeclared identifier '" + Ref->Name +
                                "'");
      Result = Ctx.Types.get(Type::Kind::Int);
    } else {
      Result = Ref->Decl->Ty;
    }
    break;
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    const Type *SubTy = checkExpr(U->Sub);
    switch (U->O) {
    case UnaryExpr::Op::Deref:
      if (SubTy && (SubTy->isPointer() || SubTy->isArray()))
        Result = SubTy->element();
      else {
        Diags.error(E->loc(), "cannot dereference a non-pointer");
        Result = SubTy;
      }
      break;
    case UnaryExpr::Op::AddrOf:
      Result = Ctx.Types.getPointer(SubTy);
      break;
    case UnaryExpr::Op::LogicalNot:
      Result = Ctx.Types.get(Type::Kind::Int);
      break;
    case UnaryExpr::Op::BitNot:
      if (SubTy && SubTy->isFloatingOrVector())
        Diags.error(E->loc(), "bit-level manipulation of floating-point "
                              "values is not supported");
      Result = SubTy;
      break;
    default:
      Result = SubTy;
      break;
    }
    break;
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    const Type *L = checkExpr(B->LHS);
    const Type *R = checkExpr(B->RHS);
    switch (B->O) {
    case BinaryExpr::Op::Rem:
    case BinaryExpr::Op::Shl:
    case BinaryExpr::Op::Shr:
    case BinaryExpr::Op::BitAnd:
    case BinaryExpr::Op::BitOr:
    case BinaryExpr::Op::BitXor:
      if ((L && L->isFloatingOrVector()) || (R && R->isFloatingOrVector()))
        Diags.error(E->loc(), "bit-level manipulation of floating-point "
                              "values is not supported");
      Result = commonArithType(L, R);
      break;
    case BinaryExpr::Op::LT:
    case BinaryExpr::Op::GT:
    case BinaryExpr::Op::LE:
    case BinaryExpr::Op::GE:
    case BinaryExpr::Op::EQ:
    case BinaryExpr::Op::NE:
    case BinaryExpr::Op::LAnd:
    case BinaryExpr::Op::LOr:
      Result = Ctx.Types.get(Type::Kind::Int);
      break;
    case BinaryExpr::Op::Assign:
    case BinaryExpr::Op::AddAssign:
    case BinaryExpr::Op::SubAssign:
    case BinaryExpr::Op::MulAssign:
    case BinaryExpr::Op::DivAssign:
      Result = L;
      break;
    default:
      // Pointer arithmetic keeps the pointer type.
      if (L && (L->isPointer() || L->isArray()) &&
          (B->O == BinaryExpr::Op::Add || B->O == BinaryExpr::Op::Sub))
        Result = L;
      else if (R && (R->isPointer() || R->isArray()) &&
               B->O == BinaryExpr::Op::Add)
        Result = R;
      else
        Result = commonArithType(L, R);
      break;
    }
    break;
  }
  case Expr::Kind::Conditional: {
    auto *C = cast<ConditionalExpr>(E);
    checkExpr(C->Cond);
    const Type *T = checkExpr(C->Then);
    const Type *F = checkExpr(C->Else);
    Result = commonArithType(T, F);
    break;
  }
  case Expr::Kind::Call:
    Result = checkCall(cast<CallExpr>(E));
    break;
  case Expr::Kind::Index: {
    auto *I = cast<IndexExpr>(E);
    const Type *BaseTy = checkExpr(I->Base);
    checkExpr(I->Idx);
    if (BaseTy && (BaseTy->isPointer() || BaseTy->isArray()))
      Result = BaseTy->element();
    else {
      Diags.error(E->loc(), "subscripted value is not a pointer or array");
      Result = BaseTy;
    }
    break;
  }
  case Expr::Kind::Cast: {
    auto *C = cast<CastExpr>(E);
    const Type *From = checkExpr(C->Sub);
    if (From && From->isFloating() && C->To->isInteger())
      Diags.error(E->loc(), "casts from floating-point to integer are not "
                            "supported (intervals on integers are not "
                            "implemented)");
    Result = C->To;
    break;
  }
  case Expr::Kind::Paren:
    Result = checkExpr(cast<ParenExpr>(E)->Sub);
    break;
  }
  E->setType(Result);
  return Result;
}
