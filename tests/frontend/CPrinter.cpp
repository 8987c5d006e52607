//===- CPrinter.cpp - AST-to-C pretty printer -------------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "CPrinter.h"

#include "support/StringExtras.h"

using namespace igen;

namespace {

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

/// Precedence for minimal-parenthesis printing; mirrors the parser.
int printPrec(const Expr *E) {
  if (const auto *B = dynCast<BinaryExpr>(E)) {
    switch (B->O) {
    case BinaryExpr::Op::Assign:
    case BinaryExpr::Op::AddAssign:
    case BinaryExpr::Op::SubAssign:
    case BinaryExpr::Op::MulAssign:
    case BinaryExpr::Op::DivAssign:
      return 0;
    case BinaryExpr::Op::LOr:
      return 1;
    case BinaryExpr::Op::LAnd:
      return 2;
    case BinaryExpr::Op::BitOr:
      return 3;
    case BinaryExpr::Op::BitXor:
      return 4;
    case BinaryExpr::Op::BitAnd:
      return 5;
    case BinaryExpr::Op::EQ:
    case BinaryExpr::Op::NE:
      return 6;
    case BinaryExpr::Op::LT:
    case BinaryExpr::Op::GT:
    case BinaryExpr::Op::LE:
    case BinaryExpr::Op::GE:
      return 7;
    case BinaryExpr::Op::Shl:
    case BinaryExpr::Op::Shr:
      return 8;
    case BinaryExpr::Op::Add:
    case BinaryExpr::Op::Sub:
      return 9;
    case BinaryExpr::Op::Mul:
    case BinaryExpr::Op::Div:
    case BinaryExpr::Op::Rem:
      return 10;
    }
  }
  if (E->kind() == Expr::Kind::Conditional)
    return 0;
  if (E->kind() == Expr::Kind::Unary || E->kind() == Expr::Kind::Cast)
    return 11;
  return 12; // primary
}

} // namespace

std::string CPrinter::typeAndName(const Type *Ty,
                                  const std::string &Name) const {
  // Handles the array declarator syntax: T name[a][b].
  std::string Dims;
  const Type *T = Ty;
  while (T->isArray()) {
    Dims += formatString("[%lld", static_cast<long long>(T->arraySize()));
    Dims += "]";
    T = T->element();
  }
  return T->cName() + (endsWith(T->cName(), "*") ? "" : " ") + Name + Dims;
}

std::string CPrinter::exprToString(const Expr *E) {
  auto Sub = [&](const Expr *Child, int MinPrec) {
    std::string S = exprToString(Child);
    if (printPrec(Child) < MinPrec)
      return "(" + S + ")";
    return S;
  };
  switch (E->kind()) {
  case Expr::Kind::IntLiteral:
    return cast<IntLiteralExpr>(E)->Spelling;
  case Expr::Kind::FloatLiteral: {
    const auto *F = cast<FloatLiteralExpr>(E);
    std::string S = F->Spelling;
    if (F->IsFloatSuffix && !endsWith(S, "f") && !endsWith(S, "F"))
      S += "f";
    if (F->IsTolerance && !endsWith(S, "t"))
      S += "t";
    return S;
  }
  case Expr::Kind::DeclRef:
    return cast<DeclRefExpr>(E)->Name;
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    std::string S = Sub(U->Sub, 11);
    switch (U->O) {
    case UnaryExpr::Op::Neg:
      // Avoid "--a" (lexes as decrement) when negating a negative.
      return S[0] == '-' ? "-(" + S + ")" : "-" + S;
    case UnaryExpr::Op::Plus:
      return S[0] == '+' ? "+(" + S + ")" : "+" + S;
    case UnaryExpr::Op::LogicalNot:
      return "!" + S;
    case UnaryExpr::Op::BitNot:
      return "~" + S;
    case UnaryExpr::Op::PreInc:
      return "++" + S;
    case UnaryExpr::Op::PreDec:
      return "--" + S;
    case UnaryExpr::Op::PostInc:
      return S + "++";
    case UnaryExpr::Op::PostDec:
      return S + "--";
    case UnaryExpr::Op::Deref:
      return "*" + S;
    case UnaryExpr::Op::AddrOf:
      return "&" + S;
    }
    return S;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    int Prec = printPrec(E);
    bool RightAssoc = B->isAssignment();
    std::string L = Sub(B->LHS, RightAssoc ? Prec + 1 : Prec);
    std::string R = Sub(B->RHS, RightAssoc ? Prec : Prec + 1);
    return L + " " + binaryOpSpelling(B->O) + " " + R;
  }
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    return Sub(C->Cond, 1) + " ? " + exprToString(C->Then) + " : " +
           Sub(C->Else, 0);
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    std::string S = C->Callee + "(";
    for (size_t I = 0; I < C->Args.size(); ++I) {
      if (I)
        S += ", ";
      S += exprToString(C->Args[I]);
    }
    return S + ")";
  }
  case Expr::Kind::Index: {
    const auto *I = cast<IndexExpr>(E);
    return Sub(I->Base, 12) + "[" + exprToString(I->Idx) + "]";
  }
  case Expr::Kind::Cast: {
    const auto *C = cast<CastExpr>(E);
    const std::string To = C->To->cName();
    return "(" + To + ")" + Sub(C->Sub, 11);
  }
  case Expr::Kind::Paren: {
    const std::string Inner = exprToString(cast<ParenExpr>(E)->Sub);
    return "(" + Inner + ")";
  }
  }
  return "?";
}

std::string CPrinter::declToString(const VarDecl *D) {
  std::string S = typeAndName(D->Ty, D->Name);
  if (D->Init)
    S += " = " + exprToString(D->Init);
  return S;
}

std::string CPrinter::functionHeader(const FunctionDecl *F) {
  std::string S;
  if (F->IsStatic)
    S += "static ";
  S += F->RetTy->cName();
  if (!endsWith(S, "*"))
    S += " ";
  S += F->Name + "(";
  for (size_t I = 0; I < F->Params.size(); ++I) {
    if (I)
      S += ", ";
    const VarDecl *P = F->Params[I];
    std::string TypeName = P->Ty->cName();
    if (P->HasTolerance)
      TypeName += ":" + P->ToleranceSpelling;
    S += TypeName;
    if (!endsWith(TypeName, "*"))
      S += " ";
    S += P->Name;
  }
  if (F->Params.empty())
    S += "void";
  S += ")";
  return S;
}

void CPrinter::line(const std::string &Text) {
  Out += indentStr();
  Out += Text;
  Out += '\n';
}

void CPrinter::printStmt(const Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::Compound: {
    line("{");
    ++Indent;
    for (const Stmt *Child : cast<CompoundStmt>(S)->Body)
      printStmt(Child);
    --Indent;
    line("}");
    return;
  }
  case Stmt::Kind::DeclStmt: {
    for (const VarDecl *D : cast<DeclStmt>(S)->Decls)
      line(declToString(D) + ";");
    return;
  }
  case Stmt::Kind::ExprStmt:
    line(exprToString(cast<ExprStmt>(S)->E) + ";");
    return;
  case Stmt::Kind::If: {
    const auto *If = cast<IfStmt>(S);
    line("if (" + exprToString(If->Cond) + ")");
    printStmt(If->Then);
    if (If->Else) {
      line("else");
      printStmt(If->Else);
    }
    return;
  }
  case Stmt::Kind::For: {
    const auto *For = cast<ForStmt>(S);
    if (!For->ReduceVars.empty()) {
      std::string Vars;
      for (const std::string &V : For->ReduceVars)
        Vars += " " + V;
      line("#pragma igen reduce" + Vars);
    }
    std::string Init;
    if (For->Init && For->Init->kind() == Stmt::Kind::DeclStmt) {
      const auto *DS = cast<DeclStmt>(For->Init);
      for (size_t I = 0; I < DS->Decls.size(); ++I)
        Init += (I ? ", " : "") + declToString(DS->Decls[I]);
    } else if (For->Init && For->Init->kind() == Stmt::Kind::ExprStmt) {
      Init = exprToString(cast<ExprStmt>(For->Init)->E);
    }
    std::string Cond = For->Cond ? exprToString(For->Cond) : "";
    std::string Inc = For->Inc ? exprToString(For->Inc) : "";
    line("for (" + Init + "; " + Cond + "; " + Inc + ")");
    printStmt(For->Body);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    line("while (" + exprToString(W->Cond) + ")");
    printStmt(W->Body);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    line("do");
    printStmt(D->Body);
    line("while (" + exprToString(D->Cond) + ");");
    return;
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    line(R->Value ? "return " + exprToString(R->Value) + ";" : "return;");
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

void CPrinter::printFunction(const FunctionDecl *F) {
  if (!F->Body) {
    line(functionHeader(F) + ";");
    return;
  }
  line(functionHeader(F));
  printStmt(F->Body);
}

std::string CPrinter::print(const TranslationUnit &TU) {
  Out.clear();
  Indent = 0;
  for (const TopLevelItem &Item : TU.Items) {
    if (!Item.Function) {
      line(Item.Directive);
      continue;
    }
    printFunction(Item.Function);
    Out += '\n';
  }
  return Out;
}
