//===- Parser.cpp - Recursive-descent parser for the C subset --------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "support/StringExtras.h"

using namespace igen;

Parser::Parser(std::string_view Source, ASTContext &Ctx,
               DiagnosticsEngine &Diags)
    : Ctx(Ctx), Diags(Diags), ErrorsBefore(Diags.errorCount()) {
  Lexer L(Source, Diags);
  Tokens = L.lexAll();
  // A lexer that hit its diagnostic cap already said it gave up.
  ErrorLimitDiagnosed = L.gaveUp();
}

bool Parser::expect(TokenKind K, const char *Context) {
  if (consumeIf(K))
    return true;
  Diags.error(cur().Loc, formatString("expected %s %s, found %s",
                                      tokenKindName(K), Context,
                                      tokenKindName(cur().Kind)));
  return false;
}

bool Parser::tooDeep(const char *What) {
  if (Depth <= MaxNestingDepth)
    return false;
  if (!DepthDiagnosed) {
    Diags.error(cur().Loc,
                formatString("%s nesting exceeds the supported depth of "
                             "%d",
                             What, MaxNestingDepth));
    DepthDiagnosed = true;
  }
  return true;
}

void Parser::skipToSync() {
  // Recover at the next ';' or '}' so one error does not cascade.
  while (!cur().is(TokenKind::EndOfFile)) {
    if (cur().is(TokenKind::Semi) || cur().is(TokenKind::RBrace)) {
      consume();
      return;
    }
    consume();
  }
}

void Parser::syncStmt() {
  while (!cur().is(TokenKind::EndOfFile)) {
    switch (cur().Kind) {
    case TokenKind::Semi:
      consume();
      return;
    case TokenKind::RBrace: // enclosing block's close: let it handle
      return;
    case TokenKind::LBrace:
    case TokenKind::KwIf:
    case TokenKind::KwFor:
    case TokenKind::KwWhile:
    case TokenKind::KwDo:
    case TokenKind::KwReturn:
    case TokenKind::KwBreak:
    case TokenKind::KwContinue:
      return; // a fresh statement can start here
    default:
      if (startsType())
        return; // a declaration can start here
      consume();
    }
  }
}

bool Parser::errorLimitReached() {
  if (Diags.errorCount() < MaxParseErrors)
    return false;
  if (!ErrorLimitDiagnosed) {
    ErrorLimitDiagnosed = true;
    Diags.error(cur().Loc,
                formatString("too many errors (limit %u); giving up",
                             MaxParseErrors));
  }
  // Drain the token stream so every caller loop terminates.
  while (!cur().is(TokenKind::EndOfFile))
    consume();
  return true;
}

//===----------------------------------------------------------------------===//
// Types
//===----------------------------------------------------------------------===//

bool Parser::startsType() const {
  switch (cur().Kind) {
  case TokenKind::KwVoid:
  case TokenKind::KwChar:
  case TokenKind::KwInt:
  case TokenKind::KwLong:
  case TokenKind::KwShort:
  case TokenKind::KwUnsigned:
  case TokenKind::KwSigned:
  case TokenKind::KwFloat:
  case TokenKind::KwDouble:
  case TokenKind::KwConst:
    return true;
  case TokenKind::Identifier:
    return startsWith(cur().Text, "__m128") ||
           startsWith(cur().Text, "__m256");
  default:
    return false;
  }
}

const Type *Parser::parseTypeSpecifier() {
  consumeIf(TokenKind::KwConst); // const is tracked only syntactically
  const Type *T = nullptr;
  switch (cur().Kind) {
  case TokenKind::KwVoid:
    consume();
    T = Ctx.Types.get(Type::Kind::Void);
    break;
  case TokenKind::KwChar:
    consume();
    T = Ctx.Types.get(Type::Kind::Char);
    break;
  case TokenKind::KwInt:
    consume();
    T = Ctx.Types.get(Type::Kind::Int);
    break;
  case TokenKind::KwShort:
    consume();
    consumeIf(TokenKind::KwInt);
    T = Ctx.Types.get(Type::Kind::Int);
    break;
  case TokenKind::KwLong:
    consume();
    consumeIf(TokenKind::KwLong);
    consumeIf(TokenKind::KwInt);
    T = Ctx.Types.get(Type::Kind::Long);
    break;
  case TokenKind::KwSigned:
    consume();
    consumeIf(TokenKind::KwInt);
    T = Ctx.Types.get(Type::Kind::Int);
    break;
  case TokenKind::KwUnsigned:
    consume();
    if (consumeIf(TokenKind::KwLong)) {
      consumeIf(TokenKind::KwLong);
      T = Ctx.Types.get(Type::Kind::ULong);
    } else {
      consumeIf(TokenKind::KwInt);
      T = Ctx.Types.get(Type::Kind::UInt);
    }
    break;
  case TokenKind::KwFloat:
    consume();
    T = Ctx.Types.get(Type::Kind::Float);
    break;
  case TokenKind::KwDouble:
    consume();
    T = Ctx.Types.get(Type::Kind::Double);
    break;
  case TokenKind::Identifier:
    if (const Type *Simd = Ctx.Types.getSimdTypeByName(cur().Text)) {
      consume();
      T = Simd;
      break;
    }
    [[fallthrough]];
  default:
    Diags.error(cur().Loc, formatString("expected a type, found %s",
                                        tokenKindName(cur().Kind)));
    consume();
    T = Ctx.Types.get(Type::Kind::Int);
    break;
  }
  consumeIf(TokenKind::KwConst);
  return parsePointerSuffix(T);
}

const Type *Parser::parsePointerSuffix(const Type *Base) {
  while (consumeIf(TokenKind::Star)) {
    consumeIf(TokenKind::KwConst);
    Base = Ctx.Types.getPointer(Base);
  }
  return Base;
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

bool Parser::parseTranslationUnit() {
  while (!cur().is(TokenKind::EndOfFile) && !errorLimitReached()) {
    if (cur().is(TokenKind::PassthroughDirective)) {
      Ctx.TU.Items.push_back(
          TopLevelItem{nullptr, std::string(consume().Text)});
      continue;
    }
    if (cur().is(TokenKind::PragmaIgen)) {
      Diags.warning(cur().Loc, "#pragma igen outside a function; ignored");
      consume();
      continue;
    }
    if (consumeIf(TokenKind::Semi))
      continue;
    bool IsStatic = consumeIf(TokenKind::KwStatic);
    if (!startsType()) {
      Diags.error(cur().Loc,
                  formatString("expected a declaration, found %s",
                               tokenKindName(cur().Kind)));
      skipToSync();
      continue;
    }
    if (FunctionDecl *F = parseFunction(IsStatic))
      Ctx.TU.Items.push_back(TopLevelItem{F, {}});
  }
  return Diags.errorCount() == ErrorsBefore;
}

FunctionDecl *Parser::parseFunction(bool IsStatic) {
  const Type *RetTy = parseTypeSpecifier();
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected function name");
    skipToSync();
    return nullptr;
  }
  const Token &NameTok = consume();
  auto *F = Ctx.create<FunctionDecl>(NameTok.Loc, RetTy,
                                     std::string(NameTok.Text));
  F->IsStatic = IsStatic;
  if (!expect(TokenKind::LParen, "after function name")) {
    skipToSync();
    return nullptr;
  }
  if (!cur().is(TokenKind::RParen)) {
    if (cur().is(TokenKind::KwVoid) && peek().is(TokenKind::RParen)) {
      consume();
    } else {
      do {
        if (VarDecl *P = parseParam())
          F->Params.push_back(P);
      } while (consumeIf(TokenKind::Comma));
    }
  }
  expect(TokenKind::RParen, "after parameter list");
  if (consumeIf(TokenKind::Semi))
    return F; // prototype
  if (!cur().is(TokenKind::LBrace)) {
    Diags.error(cur().Loc, "expected function body or ';'");
    skipToSync();
    return F;
  }
  F->Body = parseCompound();
  return F;
}

VarDecl *Parser::parseParam() {
  const Type *T = parseTypeSpecifier();
  // Tolerance extension: `double:0.125 a` (Section IV-C).
  bool HasTol = false;
  double Tol = 0.0;
  std::string TolSpelling;
  if (consumeIf(TokenKind::Colon)) {
    if (cur().is(TokenKind::FloatLiteral) ||
        cur().is(TokenKind::IntegerLiteral)) {
      const Token &TolTok = consume();
      HasTol = true;
      Tol = TolTok.is(TokenKind::FloatLiteral)
                ? TolTok.FloatValue
                : static_cast<double>(TolTok.IntValue);
      TolSpelling = std::string(TolTok.Text);
    } else {
      Diags.error(cur().Loc, "expected tolerance literal after ':'");
    }
  }
  if (!cur().is(TokenKind::Identifier)) {
    Diags.error(cur().Loc, "expected parameter name");
    return nullptr;
  }
  const Token &NameTok = consume();
  // Array parameter suffix decays to pointer.
  while (consumeIf(TokenKind::LBracket)) {
    if (cur().is(TokenKind::IntegerLiteral))
      consume();
    expect(TokenKind::RBracket, "in array parameter");
    T = Ctx.Types.getPointer(T);
  }
  auto *P = Ctx.create<VarDecl>(NameTok.Loc, T, std::string(NameTok.Text));
  P->IsParam = true;
  P->HasTolerance = HasTol;
  P->Tolerance = Tol;
  P->ToleranceSpelling = TolSpelling;
  if (HasTol && !T->isFloating())
    Diags.error(NameTok.Loc,
                "tolerance annotations require a floating-point parameter");
  return P;
}

DeclStmt *Parser::parseDeclStmt() {
  SourceLoc Loc = cur().Loc;
  const Type *Base = parseTypeSpecifier();
  auto *DS = Ctx.create<DeclStmt>(Loc);
  do {
    const Type *T = parsePointerSuffix(Base);
    if (!cur().is(TokenKind::Identifier)) {
      Diags.error(cur().Loc, "expected variable name");
      skipToSync();
      return DS;
    }
    const Token &NameTok = consume();
    // Array dimensions (innermost last).
    std::vector<int64_t> Dims;
    while (consumeIf(TokenKind::LBracket)) {
      if (cur().is(TokenKind::IntegerLiteral))
        Dims.push_back(consume().IntValue);
      else {
        Diags.error(cur().Loc, "expected constant array size");
        Dims.push_back(1);
      }
      expect(TokenKind::RBracket, "after array size");
    }
    for (auto It = Dims.rbegin(); It != Dims.rend(); ++It)
      T = Ctx.Types.getArray(T, *It);
    auto *V = Ctx.create<VarDecl>(NameTok.Loc, T, std::string(NameTok.Text));
    if (consumeIf(TokenKind::Equal))
      V->Init = parseAssignment();
    DS->Decls.push_back(V);
  } while (consumeIf(TokenKind::Comma));
  if (!expect(TokenKind::Semi, "after declaration"))
    syncStmt();
  return DS;
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

CompoundStmt *Parser::parseCompound() {
  SourceLoc Loc = cur().Loc;
  expect(TokenKind::LBrace, "to open block");
  auto *C = Ctx.create<CompoundStmt>(Loc);
  while (!cur().is(TokenKind::RBrace) && !cur().is(TokenKind::EndOfFile) &&
         !errorLimitReached())
    C->Body.push_back(parseStmt());
  expect(TokenKind::RBrace, "to close block");
  return C;
}

Stmt *Parser::parseStmt() {
  DepthGuard Guard(*this);
  if (tooDeep("statement")) {
    SourceLoc Loc = cur().Loc;
    skipToSync();
    return Ctx.create<NullStmt>(Loc);
  }
  switch (cur().Kind) {
  case TokenKind::LBrace:
    return parseCompound();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwDo:
    return parseDo();
  case TokenKind::KwReturn: {
    SourceLoc Loc = consume().Loc;
    Expr *Value = nullptr;
    if (!cur().is(TokenKind::Semi))
      Value = parseExpr();
    if (!expect(TokenKind::Semi, "after return"))
      syncStmt();
    return Ctx.create<ReturnStmt>(Loc, Value);
  }
  case TokenKind::KwBreak: {
    SourceLoc Loc = consume().Loc;
    if (!expect(TokenKind::Semi, "after break"))
      syncStmt();
    return Ctx.create<BreakStmt>(Loc);
  }
  case TokenKind::KwContinue: {
    SourceLoc Loc = consume().Loc;
    if (!expect(TokenKind::Semi, "after continue"))
      syncStmt();
    return Ctx.create<ContinueStmt>(Loc);
  }
  case TokenKind::Semi:
    return Ctx.create<NullStmt>(consume().Loc);
  case TokenKind::PragmaIgen: {
    const Token &P = consume();
    // "#pragma igen reduce <var> <var> ..." applies to the next loop.
    std::string_view Rest = trim(P.Text);
    if (startsWith(Rest, "reduce")) {
      for (std::string_view Part : split(trim(Rest.substr(6)), ' '))
        if (!trim(Part).empty())
          PendingReduceVars.push_back(std::string(trim(Part)));
    } else {
      Diags.warning(P.Loc,
                    "unknown igen pragma '" + std::string(Rest) + "'");
    }
    return parseStmt();
  }
  case TokenKind::PassthroughDirective: {
    Diags.warning(cur().Loc, "preprocessor directive inside function "
                             "body is not supported; ignored");
    consume();
    return parseStmt();
  }
  default:
    break;
  }
  if (startsType())
    return parseDeclStmt();
  SourceLoc Loc = cur().Loc;
  Expr *E = parseExpr();
  if (!expect(TokenKind::Semi, "after expression"))
    syncStmt();
  return Ctx.create<ExprStmt>(Loc, E);
}

Stmt *Parser::parseIf() {
  SourceLoc Loc = consume().Loc; // 'if'
  expect(TokenKind::LParen, "after 'if'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after condition");
  Stmt *Then = parseStmt();
  Stmt *Else = nullptr;
  if (consumeIf(TokenKind::KwElse))
    Else = parseStmt();
  return Ctx.create<IfStmt>(Loc, Cond, Then, Else);
}

Stmt *Parser::parseFor() {
  SourceLoc Loc = consume().Loc; // 'for'
  auto *F = Ctx.create<ForStmt>(Loc);
  F->ReduceVars = std::move(PendingReduceVars);
  PendingReduceVars.clear();
  expect(TokenKind::LParen, "after 'for'");
  if (cur().is(TokenKind::Semi)) {
    F->Init = Ctx.create<NullStmt>(consume().Loc);
  } else if (startsType()) {
    F->Init = parseDeclStmt(); // consumes ';'
  } else {
    SourceLoc ELoc = cur().Loc;
    Expr *E = parseExpr();
    expect(TokenKind::Semi, "after for-init");
    F->Init = Ctx.create<ExprStmt>(ELoc, E);
  }
  if (!cur().is(TokenKind::Semi))
    F->Cond = parseExpr();
  expect(TokenKind::Semi, "after for-condition");
  if (!cur().is(TokenKind::RParen))
    F->Inc = parseExpr();
  expect(TokenKind::RParen, "after for-increment");
  F->Body = parseStmt();
  return F;
}

Stmt *Parser::parseWhile() {
  SourceLoc Loc = consume().Loc; // 'while'
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after condition");
  Stmt *Body = parseStmt();
  return Ctx.create<WhileStmt>(Loc, Cond, Body);
}

Stmt *Parser::parseDo() {
  SourceLoc Loc = consume().Loc; // 'do'
  Stmt *Body = parseStmt();
  expect(TokenKind::KwWhile, "after do-body");
  expect(TokenKind::LParen, "after 'while'");
  Expr *Cond = parseExpr();
  expect(TokenKind::RParen, "after condition");
  expect(TokenKind::Semi, "after do-while");
  return Ctx.create<DoStmt>(Loc, Body, Cond);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Expr *Parser::parseAssignment() {
  Expr *LHS = parseConditional();
  BinaryExpr::Op O;
  switch (cur().Kind) {
  case TokenKind::Equal:
    O = BinaryExpr::Op::Assign;
    break;
  case TokenKind::PlusEqual:
    O = BinaryExpr::Op::AddAssign;
    break;
  case TokenKind::MinusEqual:
    O = BinaryExpr::Op::SubAssign;
    break;
  case TokenKind::StarEqual:
    O = BinaryExpr::Op::MulAssign;
    break;
  case TokenKind::SlashEqual:
    O = BinaryExpr::Op::DivAssign;
    break;
  default:
    return LHS;
  }
  SourceLoc Loc = consume().Loc;
  Expr *RHS = parseAssignment(); // right-associative
  return Ctx.create<BinaryExpr>(Loc, O, LHS, RHS);
}

Expr *Parser::parseConditional() {
  Expr *Cond = parseBinary(0);
  if (!cur().is(TokenKind::Question))
    return Cond;
  SourceLoc Loc = consume().Loc;
  Expr *Then = parseExpr();
  expect(TokenKind::Colon, "in conditional expression");
  Expr *Else = parseConditional();
  return Ctx.create<ConditionalExpr>(Loc, Cond, Then, Else);
}

namespace {

/// Binary operator precedence; higher binds tighter. -1: not binary.
int binaryPrec(TokenKind K) {
  switch (K) {
  case TokenKind::PipePipe:
    return 1;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::Pipe:
    return 3;
  case TokenKind::Caret:
    return 4;
  case TokenKind::Amp:
    return 5;
  case TokenKind::EqualEqual:
  case TokenKind::ExclaimEqual:
    return 6;
  case TokenKind::Less:
  case TokenKind::Greater:
  case TokenKind::LessEqual:
  case TokenKind::GreaterEqual:
    return 7;
  case TokenKind::LessLess:
  case TokenKind::GreaterGreater:
    return 8;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 9;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 10;
  default:
    return -1;
  }
}

BinaryExpr::Op binaryOpFor(TokenKind K) {
  switch (K) {
  case TokenKind::PipePipe:
    return BinaryExpr::Op::LOr;
  case TokenKind::AmpAmp:
    return BinaryExpr::Op::LAnd;
  case TokenKind::Pipe:
    return BinaryExpr::Op::BitOr;
  case TokenKind::Caret:
    return BinaryExpr::Op::BitXor;
  case TokenKind::Amp:
    return BinaryExpr::Op::BitAnd;
  case TokenKind::EqualEqual:
    return BinaryExpr::Op::EQ;
  case TokenKind::ExclaimEqual:
    return BinaryExpr::Op::NE;
  case TokenKind::Less:
    return BinaryExpr::Op::LT;
  case TokenKind::Greater:
    return BinaryExpr::Op::GT;
  case TokenKind::LessEqual:
    return BinaryExpr::Op::LE;
  case TokenKind::GreaterEqual:
    return BinaryExpr::Op::GE;
  case TokenKind::LessLess:
    return BinaryExpr::Op::Shl;
  case TokenKind::GreaterGreater:
    return BinaryExpr::Op::Shr;
  case TokenKind::Plus:
    return BinaryExpr::Op::Add;
  case TokenKind::Minus:
    return BinaryExpr::Op::Sub;
  case TokenKind::Star:
    return BinaryExpr::Op::Mul;
  case TokenKind::Slash:
    return BinaryExpr::Op::Div;
  case TokenKind::Percent:
    return BinaryExpr::Op::Rem;
  default:
    return BinaryExpr::Op::Add;
  }
}

} // namespace

Expr *Parser::parseBinary(int MinPrec) {
  Expr *LHS = parseUnary();
  // Left-associative chains parse iteratively but still build trees whose
  // *depth* equals their length; cap it so downstream recursive passes
  // (sema, the transformer) cannot overflow either.
  constexpr int MaxChainTerms = 1024;
  int Terms = 0;
  while (true) {
    int Prec = binaryPrec(cur().Kind);
    if (Prec < 0 || Prec < MinPrec)
      return LHS;
    if (++Terms > MaxChainTerms) {
      if (!DepthDiagnosed) {
        Diags.error(cur().Loc,
                    formatString("operator chain exceeds the supported "
                                 "length of %d terms",
                                 MaxChainTerms));
        DepthDiagnosed = true;
      }
      skipToSync();
      return LHS;
    }
    const Token &OpTok = consume();
    Expr *RHS = parseBinary(Prec + 1);
    LHS = Ctx.create<BinaryExpr>(OpTok.Loc, binaryOpFor(OpTok.Kind), LHS,
                                 RHS);
  }
}

Expr *Parser::parseUnary() {
  DepthGuard Guard(*this);
  SourceLoc Loc = cur().Loc;
  if (tooDeep("expression")) {
    consume();
    return Ctx.create<IntLiteralExpr>(Loc, 0, "0");
  }
  switch (cur().Kind) {
  case TokenKind::Minus:
    consume();
    return Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::Neg, parseUnary());
  case TokenKind::Plus:
    consume();
    return Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::Plus, parseUnary());
  case TokenKind::Exclaim:
    consume();
    return Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::LogicalNot,
                                 parseUnary());
  case TokenKind::Tilde:
    consume();
    return Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::BitNot, parseUnary());
  case TokenKind::PlusPlus:
    consume();
    return Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::PreInc, parseUnary());
  case TokenKind::MinusMinus:
    consume();
    return Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::PreDec, parseUnary());
  case TokenKind::Star:
    consume();
    return Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::Deref, parseUnary());
  case TokenKind::Amp:
    consume();
    return Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::AddrOf, parseUnary());
  case TokenKind::KwSizeof:
    Diags.error(Loc, "sizeof is not supported in the IGen C subset (its "
                     "value would change under interval promotion)");
    consume();
    skipToSync();
    return Ctx.create<IntLiteralExpr>(Loc, 0, "0");
  case TokenKind::LParen:
    // Cast or parenthesized expression.
    if (peek().is(TokenKind::KwConst) || peek().is(TokenKind::KwVoid) ||
        peek().is(TokenKind::KwChar) || peek().is(TokenKind::KwInt) ||
        peek().is(TokenKind::KwLong) || peek().is(TokenKind::KwShort) ||
        peek().is(TokenKind::KwUnsigned) ||
        peek().is(TokenKind::KwSigned) || peek().is(TokenKind::KwFloat) ||
        peek().is(TokenKind::KwDouble) ||
        (peek().is(TokenKind::Identifier) &&
         (startsWith(peek().Text, "__m128") ||
          startsWith(peek().Text, "__m256")))) {
      consume(); // '('
      const Type *To = parseTypeSpecifier();
      expect(TokenKind::RParen, "after cast type");
      return Ctx.create<CastExpr>(Loc, To, parseUnary());
    }
    break;
  default:
    break;
  }
  return parsePostfix();
}

Expr *Parser::parsePostfix() {
  Expr *E = parsePrimary();
  while (true) {
    SourceLoc Loc = cur().Loc;
    if (consumeIf(TokenKind::LBracket)) {
      Expr *Idx = parseExpr();
      expect(TokenKind::RBracket, "after index");
      E = Ctx.create<IndexExpr>(Loc, E, Idx);
      continue;
    }
    if (consumeIf(TokenKind::PlusPlus)) {
      E = Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::PostInc, E);
      continue;
    }
    if (consumeIf(TokenKind::MinusMinus)) {
      E = Ctx.create<UnaryExpr>(Loc, UnaryExpr::Op::PostDec, E);
      continue;
    }
    return E;
  }
}

Expr *Parser::parsePrimary() {
  SourceLoc Loc = cur().Loc;
  switch (cur().Kind) {
  case TokenKind::IntegerLiteral: {
    const Token &T = consume();
    return Ctx.create<IntLiteralExpr>(Loc, T.IntValue, std::string(T.Text));
  }
  case TokenKind::FloatLiteral: {
    const Token &T = consume();
    return Ctx.create<FloatLiteralExpr>(Loc, T.FloatValue, std::string(T.Text),
                                        T.IsFloatSuffix, T.IsTolerance);
  }
  case TokenKind::Identifier: {
    const Token &T = consume();
    if (cur().is(TokenKind::LParen)) {
      consume();
      std::vector<Expr *> Args;
      if (!cur().is(TokenKind::RParen)) {
        do {
          Args.push_back(parseAssignment());
        } while (consumeIf(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after call arguments");
      return Ctx.create<CallExpr>(Loc, std::string(T.Text), std::move(Args));
    }
    return Ctx.create<DeclRefExpr>(Loc, std::string(T.Text));
  }
  case TokenKind::LParen: {
    consume();
    Expr *E = parseExpr();
    expect(TokenKind::RParen, "after expression");
    return Ctx.create<ParenExpr>(Loc, E);
  }
  default:
    Diags.error(Loc, formatString("expected an expression, found %s",
                                  tokenKindName(cur().Kind)));
    // Do NOT consume ';' / '}' / EOF: they are the statement-recovery
    // sync points, and eating one here would turn a single missing
    // expression into a cascade of missed-semicolon errors.
    if (!cur().is(TokenKind::Semi) && !cur().is(TokenKind::RBrace) &&
        !cur().is(TokenKind::EndOfFile))
      consume();
    return Ctx.create<IntLiteralExpr>(Loc, 0, "0");
  }
}
