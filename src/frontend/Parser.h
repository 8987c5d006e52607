//===- Parser.h - Recursive-descent parser for the C subset -----*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser producing the AST of AST.h. Supports the
/// subset of C that IGen compiles plus the IGen language extensions:
/// parameter tolerances (`double:0.125 x`), tolerance constants (`0.25t`)
/// and `#pragma igen reduce <vars>` attached to the following loop.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_FRONTEND_PARSER_H
#define IGEN_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include "frontend/Lexer.h"
#include "support/Diagnostics.h"

#include <vector>

namespace igen {

class Parser {
public:
  /// Lexes \p Source up front. The tokens view it (Token::Text), so the
  /// caller keeps \p Source alive until the Parser is destroyed; the AST
  /// copies every spelling it keeps and does not refer to it.
  Parser(std::string_view Source, ASTContext &Ctx,
         DiagnosticsEngine &Diags);

  /// Parses the whole translation unit into Ctx.TU. Returns false if any
  /// lexical or parse error was reported.
  bool parseTranslationUnit();

private:
  // Token stream helpers. Index never moves past the final EndOfFile
  // token (only advance() moves it): on truncated input the parser may
  // consume that token and keep asking for more.
  const Token &cur() const { return Tokens[Index]; }
  const Token &peek(unsigned Ahead = 1) const {
    return Tokens[std::min(Index + Ahead, Tokens.size() - 1)];
  }
  void advance() {
    if (Index + 1 < Tokens.size())
      ++Index;
  }
  const Token &consume() {
    const Token &T = Tokens[Index];
    advance();
    return T;
  }
  bool consumeIf(TokenKind K) {
    if (cur().is(K)) {
      advance();
      return true;
    }
    return false;
  }
  bool expect(TokenKind K, const char *Context);
  void skipToSync();
  /// Statement-level recovery after a missed ';': skip to the next ';'
  /// (consumed), or stop before a '}' / end-of-file / token that can
  /// start a new statement, so one malformed statement costs exactly one
  /// diagnostic and the rest of the function still parses.
  void syncStmt();
  /// True once the error cap is hit; parsing bails out quietly (one
  /// final note) instead of spewing thousands of cascading diagnostics
  /// on pathological (fuzzed) inputs.
  bool errorLimitReached();

  /// Recoverable-diagnostic cap per parse (far above anything a real
  /// source hits; bounds the work on adversarial inputs).
  static constexpr unsigned MaxParseErrors = 256;

  // Types and declarators.
  bool startsType() const;
  const Type *parseTypeSpecifier();
  const Type *parsePointerSuffix(const Type *Base);

  // Declarations.
  FunctionDecl *parseFunction(bool IsStatic);
  VarDecl *parseParam();
  DeclStmt *parseDeclStmt();

  // Statements.
  Stmt *parseStmt();
  CompoundStmt *parseCompound();
  Stmt *parseIf();
  Stmt *parseFor();
  Stmt *parseWhile();
  Stmt *parseDo();

  // Expressions (precedence climbing).
  Expr *parseExpr() { return parseAssignment(); }
  Expr *parseAssignment();
  Expr *parseConditional();
  Expr *parseBinary(int MinPrec);
  Expr *parseUnary();
  Expr *parsePostfix();
  Expr *parsePrimary();

  /// Recursion guard: pathological nesting (fuzzing, generated code)
  /// must degrade into a diagnostic, not a stack overflow.
  static constexpr int MaxNestingDepth = 256;
  struct DepthGuard {
    explicit DepthGuard(Parser &P) : P(P) { ++P.Depth; }
    ~DepthGuard() { --P.Depth; }
    Parser &P;
  };
  bool tooDeep(const char *What);

  ASTContext &Ctx;
  DiagnosticsEngine &Diags;
  unsigned ErrorsBefore; ///< errors reported before lexing began
  std::vector<Token> Tokens;
  size_t Index = 0;
  int Depth = 0;
  bool DepthDiagnosed = false;
  bool ErrorLimitDiagnosed = false;
  std::vector<std::string> PendingReduceVars;
};

} // namespace igen

#endif // IGEN_FRONTEND_PARSER_H
