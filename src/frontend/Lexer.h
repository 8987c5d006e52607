//===- Lexer.h - Lexer for the C subset -------------------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for the C subset IGen compiles. Comments are
/// skipped; `#pragma igen` becomes a token; other preprocessor directives
/// become passthrough tokens so the transformer can reproduce them
/// verbatim (e.g. #include <immintrin.h>).
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_FRONTEND_LEXER_H
#define IGEN_FRONTEND_LEXER_H

#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <string>
#include <string_view>
#include <vector>

namespace igen {

/// Characters are classified as the "C" locale's <cctype> classes do, so
/// bytes outside printable ASCII are never identifier characters or
/// whitespace. Token texts are views into \p Source (see Token::Text).
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticsEngine &Diags);

  /// Lexes the next token. A run of characters that start no token is
  /// skipped with one diagnostic; after MaxLexErrors diagnostics the lexer
  /// reports that it gives up and returns EndOfFile from then on.
  Token lex();

  /// Lexes the entire input (convenience for the parser and tests).
  std::vector<Token> lexAll();

  /// True once the diagnostic cap stopped lexing early.
  bool gaveUp() const { return GaveUp; }

  /// Lexer diagnostics per input, as the parser caps parse errors: far
  /// above anything a real source hits, and a bound on adversarial ones.
  static constexpr unsigned MaxLexErrors = 256;

private:
  SourceLoc currentLoc() const;
  char peek(unsigned Ahead = 0) const;
  void advance();
  /// Advances over \p N characters known to be neither whitespace nor
  /// newlines (identifier, number and operator spellings).
  void advanceInLine(size_t N);
  bool match(char C);
  void skipTrivia();
  void error(SourceLoc Loc, std::string Message);

  Token lexNumber(SourceLoc Loc);
  Token lexIdentifier(SourceLoc Loc);
  Token lexDirective(SourceLoc Loc);
  Token lexPunctuation(SourceLoc Loc);

  std::string_view Source;
  DiagnosticsEngine &Diags;
  size_t Pos = 0;
  uint32_t Line = 1;
  uint32_t Col = 1;
  bool AtLineStart = true;
  unsigned Errors = 0;
  bool GaveUp = false;
};

} // namespace igen

#endif // IGEN_FRONTEND_LEXER_H
