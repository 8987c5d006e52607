//===- PseudoLang.cpp - Intel operation pseudo-language ----------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "simdspec/PseudoLang.h"

#include "support/StringExtras.h"

#include <cctype>
#include <cstdlib>

using namespace igen;
using namespace igen::pseudo;

namespace {

enum class Tok {
  End,
  Newline,
  Ident,
  Number,
  Assign, // :=
  LBracket,
  RBracket,
  LParen,
  RParen,
  Colon,
  Comma,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  EqEq,
  NotEq,
  Less,
  Greater,
  LessEq,
  GreaterEq,
  KwFor,
  KwTo,
  KwEndFor,
  KwIf,
  KwElse,
  KwFi,
  KwEndIf,
  KwAnd,
  KwOr,
  KwNot,
  Question,
};

struct Token {
  Tok K = Tok::End;
  std::string Text;
  long long Num = 0;
  uint32_t Line = 1;
};

class PLexer {
public:
  PLexer(std::string_view Text, DiagnosticsEngine &Diags)
      : Text(Text), Diags(Diags) {}

  std::vector<Token> lexAll() {
    std::vector<Token> Out;
    while (true) {
      Token T = lex();
      // Collapse consecutive newlines.
      if (T.K == Tok::Newline && !Out.empty() &&
          Out.back().K == Tok::Newline)
        continue;
      Out.push_back(T);
      if (T.K == Tok::End)
        return Out;
    }
  }

private:
  char peek(unsigned A = 0) const {
    return Pos + A < Text.size() ? Text[Pos + A] : '\0';
  }
  char advance() {
    char C = Text[Pos++];
    if (C == '\n')
      ++Line;
    return C;
  }

  Token make(Tok K, std::string S = {}) {
    Token T;
    T.K = K;
    T.Text = std::move(S);
    T.Line = Line;
    return T;
  }

  Token lex() {
    while (Pos < Text.size()) {
      char C = peek();
      if (C == '\n') {
        advance();
        return make(Tok::Newline);
      }
      if (std::isspace(static_cast<unsigned char>(C))) {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (Pos < Text.size() && peek() != '\n')
          advance();
        continue;
      }
      break;
    }
    if (Pos >= Text.size())
      return make(Tok::End);

    char C = peek();
    if (std::isdigit(static_cast<unsigned char>(C))) {
      std::string Num;
      // Hex?
      if (C == '0' && (peek(1) == 'x' || peek(1) == 'X')) {
        Num.push_back(advance());
        Num.push_back(advance());
        while (std::isxdigit(static_cast<unsigned char>(peek())))
          Num.push_back(advance());
        Token T = make(Tok::Number, Num);
        T.Num = std::strtoll(Num.c_str(), nullptr, 16);
        return T;
      }
      while (std::isdigit(static_cast<unsigned char>(peek())))
        Num.push_back(advance());
      // Reject fractional constants (do not appear in supported specs).
      Token T = make(Tok::Number, Num);
      T.Num = std::strtoll(Num.c_str(), nullptr, 10);
      return T;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      std::string Id;
      while (std::isalnum(static_cast<unsigned char>(peek())) ||
             peek() == '_')
        Id.push_back(advance());
      if (Id == "FOR")
        return make(Tok::KwFor);
      if (Id == "to" || Id == "TO")
        return make(Tok::KwTo);
      if (Id == "ENDFOR")
        return make(Tok::KwEndFor);
      if (Id == "IF")
        return make(Tok::KwIf);
      if (Id == "ELSE")
        return make(Tok::KwElse);
      if (Id == "FI")
        return make(Tok::KwFi);
      if (Id == "ENDIF")
        return make(Tok::KwEndIf);
      if (Id == "AND")
        return make(Tok::KwAnd);
      if (Id == "OR")
        return make(Tok::KwOr);
      if (Id == "NOT")
        return make(Tok::KwNot);
      return make(Tok::Ident, Id);
    }
    advance();
    switch (C) {
    case ':':
      if (peek() == '=') {
        advance();
        return make(Tok::Assign);
      }
      return make(Tok::Colon);
    case '[':
      return make(Tok::LBracket);
    case ']':
      return make(Tok::RBracket);
    case '(':
      return make(Tok::LParen);
    case ')':
      return make(Tok::RParen);
    case ',':
      return make(Tok::Comma);
    case '+':
      return make(Tok::Plus);
    case '-':
      return make(Tok::Minus);
    case '*':
      return make(Tok::Star);
    case '/':
      return make(Tok::Slash);
    case '%':
      return make(Tok::Percent);
    case '?':
      return make(Tok::Question);
    case '=':
      if (peek() == '=')
        advance();
      return make(Tok::EqEq); // '=' in specs means comparison
    case '!':
      if (peek() == '=') {
        advance();
        return make(Tok::NotEq);
      }
      return make(Tok::KwNot);
    case '<':
      if (peek() == '=') {
        advance();
        return make(Tok::LessEq);
      }
      return make(Tok::Less);
    case '>':
      if (peek() == '=') {
        advance();
        return make(Tok::GreaterEq);
      }
      return make(Tok::Greater);
    case '&':
      if (peek() == '&')
        advance();
      return make(Tok::KwAnd);
    case '|':
      if (peek() == '|')
        advance();
      return make(Tok::KwOr);
    default:
      Diags.error(SourceLoc{0, Line, 0},
                  formatString("pseudo-language: unexpected '%c'", C));
      return lex();
    }
  }

  std::string_view Text;
  DiagnosticsEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
};

class PParser {
public:
  PParser(std::vector<Token> Tokens, DiagnosticsEngine &Diags)
      : Tokens(std::move(Tokens)), Diags(Diags) {}

  std::optional<Operation> parse() {
    Operation Op;
    skipNewlines();
    while (!at(Tok::End)) {
      StmtPtr S = parseStmt();
      if (!S)
        return std::nullopt;
      Op.Stmts.push_back(std::move(S));
      skipNewlines();
    }
    if (HadError)
      return std::nullopt;
    return Op;
  }

private:
  const Token &cur() const { return Tokens[Index]; }
  bool at(Tok K) const { return cur().K == K; }
  /// Advances, but never past the trailing End sentinel: error recovery
  /// (expect() skipping a token) must not run cur() off the buffer.
  void bump() {
    if (!at(Tok::End))
      ++Index;
  }
  Token consume() {
    Token T = cur();
    bump();
    return T;
  }
  bool accept(Tok K) {
    if (at(K)) {
      bump();
      return true;
    }
    return false;
  }
  void expect(Tok K, const char *What) {
    if (!accept(K)) {
      Diags.error(SourceLoc{0, cur().Line, 0},
                  std::string("pseudo-language: expected ") + What);
      HadError = true;
      bump();
    }
  }
  void skipNewlines() {
    while (accept(Tok::Newline))
      ;
  }

  StmtPtr parseStmt() {
    skipNewlines();
    if (at(Tok::KwFor))
      return parseFor();
    if (at(Tok::KwIf))
      return parseIf();
    return parseAssign();
  }

  StmtPtr parseFor() {
    consume(); // FOR
    auto S = std::make_unique<Stmt>();
    S->K = Stmt::Kind::For;
    if (!at(Tok::Ident)) {
      fail("loop variable after FOR");
      return nullptr;
    }
    S->LoopVar = consume().Text;
    expect(Tok::Assign, "':=' in FOR");
    S->From = parseExpr();
    expect(Tok::KwTo, "'to' in FOR");
    S->To = parseExpr();
    skipNewlines();
    while (!at(Tok::KwEndFor) && !at(Tok::End)) {
      StmtPtr Child = parseStmt();
      if (!Child)
        return nullptr;
      S->Body.push_back(std::move(Child));
      skipNewlines();
    }
    expect(Tok::KwEndFor, "ENDFOR");
    return S;
  }

  StmtPtr parseIf() {
    consume(); // IF
    auto S = std::make_unique<Stmt>();
    S->K = Stmt::Kind::If;
    S->Cond = parseExpr();
    skipNewlines();
    while (!at(Tok::KwElse) && !at(Tok::KwFi) && !at(Tok::KwEndIf) &&
           !at(Tok::End)) {
      StmtPtr Child = parseStmt();
      if (!Child)
        return nullptr;
      S->Then.push_back(std::move(Child));
      skipNewlines();
    }
    if (accept(Tok::KwElse)) {
      skipNewlines();
      while (!at(Tok::KwFi) && !at(Tok::KwEndIf) && !at(Tok::End)) {
        StmtPtr Child = parseStmt();
        if (!Child)
          return nullptr;
        S->Else.push_back(std::move(Child));
        skipNewlines();
      }
    }
    if (!accept(Tok::KwFi))
      expect(Tok::KwEndIf, "FI/ENDIF");
    return S;
  }

  StmtPtr parseAssign() {
    ExprPtr Target = parsePrimary();
    if (!Target)
      return nullptr;
    auto S = std::make_unique<Stmt>();
    S->K = Stmt::Kind::Assign;
    S->Target = std::move(Target);
    expect(Tok::Assign, "':='");
    S->Value = parseExpr();
    return S;
  }

  // expr := ternary over comparisons over additive over multiplicative.
  ExprPtr parseExpr() { return parseTernary(); }

  ExprPtr parseTernary() {
    ExprPtr Cond = parseLogical();
    if (!accept(Tok::Question))
      return Cond;
    // cond ? a : b (used in some specs).
    ExprPtr Then = parseExpr();
    expect(Tok::Colon, "':' in '?:'");
    ExprPtr Else = parseExpr();
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Call;
    E->Name = "SELECT";
    E->Args.push_back(std::move(Cond));
    E->Args.push_back(std::move(Then));
    E->Args.push_back(std::move(Else));
    return E;
  }

  ExprPtr parseLogical() {
    ExprPtr L = parseComparison();
    while (at(Tok::KwAnd) || at(Tok::KwOr)) {
      std::string Op = at(Tok::KwAnd) ? "&&" : "||";
      consume();
      ExprPtr R = parseComparison();
      L = makeBinary(Op, std::move(L), std::move(R));
    }
    return L;
  }

  ExprPtr parseComparison() {
    ExprPtr L = parseAdditive();
    while (true) {
      std::string Op;
      if (at(Tok::EqEq))
        Op = "==";
      else if (at(Tok::NotEq))
        Op = "!=";
      else if (at(Tok::Less))
        Op = "<";
      else if (at(Tok::Greater))
        Op = ">";
      else if (at(Tok::LessEq))
        Op = "<=";
      else if (at(Tok::GreaterEq))
        Op = ">=";
      else
        return L;
      consume();
      ExprPtr R = parseAdditive();
      L = makeBinary(Op, std::move(L), std::move(R));
    }
  }

  ExprPtr parseAdditive() {
    ExprPtr L = parseMultiplicative();
    while (at(Tok::Plus) || at(Tok::Minus)) {
      std::string Op = at(Tok::Plus) ? "+" : "-";
      consume();
      ExprPtr R = parseMultiplicative();
      L = makeBinary(Op, std::move(L), std::move(R));
    }
    return L;
  }

  ExprPtr parseMultiplicative() {
    ExprPtr L = parseUnary();
    while (at(Tok::Star) || at(Tok::Slash) || at(Tok::Percent)) {
      std::string Op = at(Tok::Star) ? "*" : at(Tok::Slash) ? "/" : "%";
      consume();
      ExprPtr R = parseUnary();
      L = makeBinary(Op, std::move(L), std::move(R));
    }
    return L;
  }

  ExprPtr parseUnary() {
    if (accept(Tok::Minus))
      return makeUnary("-", parseUnary());
    if (accept(Tok::KwNot))
      return makeUnary("!", parseUnary());
    return parsePrimary();
  }

  ExprPtr parsePrimary() {
    if (at(Tok::Number)) {
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::Number;
      E->Num = consume().Num;
      return E;
    }
    if (accept(Tok::LParen)) {
      ExprPtr E = parseExpr();
      expect(Tok::RParen, "')'");
      return E;
    }
    if (!at(Tok::Ident)) {
      fail("expression");
      ++Index;
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::Number;
      return E;
    }
    std::string Name = consume().Text;
    if (accept(Tok::LParen)) { // helper call
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::Call;
      E->Name = Name;
      if (!at(Tok::RParen)) {
        do {
          E->Args.push_back(parseExpr());
        } while (accept(Tok::Comma));
      }
      expect(Tok::RParen, "')' after call");
      return E;
    }
    if (accept(Tok::LBracket)) { // bit range
      auto E = std::make_unique<Expr>();
      E->K = Expr::Kind::BitRange;
      E->Name = Name;
      E->Hi = parseExpr();
      if (accept(Tok::Colon))
        E->Lo = parseExpr();
      expect(Tok::RBracket, "']' after bit range");
      return E;
    }
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Var;
    E->Name = Name;
    return E;
  }

  ExprPtr makeUnary(std::string Op, ExprPtr Sub) {
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Unary;
    E->Op = std::move(Op);
    E->LHS = std::move(Sub);
    return E;
  }

  ExprPtr makeBinary(std::string Op, ExprPtr L, ExprPtr R) {
    auto E = std::make_unique<Expr>();
    E->K = Expr::Kind::Binary;
    E->Op = std::move(Op);
    E->LHS = std::move(L);
    E->RHS = std::move(R);
    return E;
  }

  void fail(const char *What) {
    Diags.error(SourceLoc{0, cur().Line, 0},
                std::string("pseudo-language: expected ") + What);
    HadError = true;
  }

  std::vector<Token> Tokens;
  DiagnosticsEngine &Diags;
  size_t Index = 0;
  bool HadError = false;
};

} // namespace

std::optional<Operation>
igen::pseudo::parseOperation(std::string_view Text,
                             DiagnosticsEngine &Diags) {
  unsigned Before = Diags.errorCount();
  PLexer L(Text, Diags);
  PParser P(L.lexAll(), Diags);
  std::optional<Operation> Op = P.parse();
  if (Diags.errorCount() != Before)
    return std::nullopt;
  return Op;
}

std::optional<Affine> igen::pseudo::tryAffine(const Expr &E) {
  switch (E.K) {
  case Expr::Kind::Number: {
    Affine A;
    A.Constant = E.Num;
    return A;
  }
  case Expr::Kind::Var: {
    Affine A;
    A.Coeffs[E.Name] = 1;
    return A;
  }
  case Expr::Kind::Unary: {
    if (E.Op != "-")
      return std::nullopt;
    auto Sub = tryAffine(*E.LHS);
    if (!Sub)
      return std::nullopt;
    Sub->Constant = -Sub->Constant;
    for (auto &[_, C] : Sub->Coeffs)
      C = -C;
    return Sub;
  }
  case Expr::Kind::Binary: {
    auto L = tryAffine(*E.LHS);
    auto R = tryAffine(*E.RHS);
    if (!L || !R)
      return std::nullopt;
    if (E.Op == "+" || E.Op == "-") {
      long long Sign = E.Op == "+" ? 1 : -1;
      Affine Out = *L;
      Out.Constant += Sign * R->Constant;
      for (auto &[V, C] : R->Coeffs) {
        Out.Coeffs[V] += Sign * C;
        if (Out.Coeffs[V] == 0)
          Out.Coeffs.erase(V);
      }
      return Out;
    }
    if (E.Op == "*") {
      // One side must be constant.
      const Affine *Const = L->isConstant() ? &*L : nullptr;
      const Affine *Other = Const ? &*R : &*L;
      if (!Const && R->isConstant()) {
        Const = &*R;
        Other = &*L;
      }
      if (!Const)
        return std::nullopt;
      Affine Out;
      Out.Constant = Other->Constant * Const->Constant;
      for (auto &[V, C] : Other->Coeffs)
        if (C * Const->Constant != 0)
          Out.Coeffs[V] = C * Const->Constant;
      return Out;
    }
    return std::nullopt;
  }
  default:
    return std::nullopt;
  }
}

std::optional<long long> igen::pseudo::rangeWidth(const Expr &Range) {
  if (Range.K != Expr::Kind::BitRange)
    return std::nullopt;
  if (!Range.Lo)
    return 1; // single-bit access
  auto Hi = tryAffine(*Range.Hi);
  auto Lo = tryAffine(*Range.Lo);
  if (!Hi || !Lo)
    return std::nullopt;
  Affine Diff = *Hi;
  Diff.Constant -= Lo->Constant;
  for (auto &[V, C] : Lo->Coeffs) {
    Diff.Coeffs[V] -= C;
    if (Diff.Coeffs[V] == 0)
      Diff.Coeffs.erase(V);
  }
  if (!Diff.isConstant())
    return std::nullopt;
  return Diff.Constant + 1;
}
