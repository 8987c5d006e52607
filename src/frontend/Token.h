//===- Token.h - Lexer tokens for the C subset ------------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds for the supported C subset (Section IV), including IGen's
/// language extensions: the ':' tolerance annotation on parameters and the
/// 't' suffix on floating-point constants (Section IV-C), and the
/// `#pragma igen` directive (Section VI-B).
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_FRONTEND_TOKEN_H
#define IGEN_FRONTEND_TOKEN_H

#include "support/SourceLoc.h"

#include <string_view>

namespace igen {

enum class TokenKind {
  EndOfFile,
  Identifier,
  IntegerLiteral,
  FloatLiteral, ///< Includes the 0.25t tolerance form (IsTolerance set).

  // Keywords.
  KwVoid,
  KwChar,
  KwInt,
  KwLong,
  KwShort,
  KwUnsigned,
  KwSigned,
  KwFloat,
  KwDouble,
  KwConst,
  KwStatic,
  KwIf,
  KwElse,
  KwFor,
  KwWhile,
  KwDo,
  KwReturn,
  KwBreak,
  KwContinue,
  KwSizeof,

  // Punctuation.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semi,
  Comma,
  Colon,
  Question,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Amp,
  Pipe,
  Caret,
  Tilde,
  Exclaim,
  Less,
  Greater,
  LessEqual,
  GreaterEqual,
  EqualEqual,
  ExclaimEqual,
  AmpAmp,
  PipePipe,
  LessLess,
  GreaterGreater,
  Equal,
  PlusEqual,
  MinusEqual,
  StarEqual,
  SlashEqual,
  PlusPlus,
  MinusMinus,
  Arrow,
  Period,

  // Preprocessor-ish lines the frontend understands or passes through.
  PragmaIgen,     ///< "#pragma igen <rest>": rest stored in Text.
  PassthroughDirective, ///< #include and other directives, kept verbatim.
};

/// A lexed token; for literals the lexer also fills in the parsed value
/// fields.
struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  SourceLoc Loc;
  /// Source spelling of identifiers, literals (without their f/t suffix)
  /// and directives (for `#pragma igen`, the text after "igen"); empty for
  /// keywords, punctuation and end of file, whose kind says everything.
  /// A view into the buffer handed to the Lexer: whoever owns that buffer
  /// keeps it alive for as long as the token is used (the Parser's caller,
  /// for the whole parse).
  std::string_view Text;

  // Literal payloads.
  long long IntValue = 0;
  double FloatValue = 0.0;
  bool IsFloatSuffix = false; ///< 1.0f
  bool IsTolerance = false;   ///< 0.25t (IGen extension)

  bool is(TokenKind K) const { return Kind == K; }
  bool isNot(TokenKind K) const { return Kind != K; }
  bool isOneOf(TokenKind K1, TokenKind K2) const {
    return Kind == K1 || Kind == K2;
  }
};

/// Returns a human-readable name for diagnostics ("identifier", "'+'").
const char *tokenKindName(TokenKind K);

} // namespace igen

#endif // IGEN_FRONTEND_TOKEN_H
