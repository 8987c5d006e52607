//===- Lexer.cpp - Lexer for the C subset -----------------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/StringExtras.h"

#include <cstdlib>
#include <cstring>
#include <utility>

using namespace igen;

const char *igen::tokenKindName(TokenKind K) {
  switch (K) {
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntegerLiteral:
    return "integer literal";
  case TokenKind::FloatLiteral:
    return "floating-point literal";
  case TokenKind::KwVoid:
    return "'void'";
  case TokenKind::KwChar:
    return "'char'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwLong:
    return "'long'";
  case TokenKind::KwShort:
    return "'short'";
  case TokenKind::KwUnsigned:
    return "'unsigned'";
  case TokenKind::KwSigned:
    return "'signed'";
  case TokenKind::KwFloat:
    return "'float'";
  case TokenKind::KwDouble:
    return "'double'";
  case TokenKind::KwConst:
    return "'const'";
  case TokenKind::KwStatic:
    return "'static'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwFor:
    return "'for'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwDo:
    return "'do'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwBreak:
    return "'break'";
  case TokenKind::KwContinue:
    return "'continue'";
  case TokenKind::KwSizeof:
    return "'sizeof'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Question:
    return "'?'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Amp:
    return "'&'";
  case TokenKind::Pipe:
    return "'|'";
  case TokenKind::Caret:
    return "'^'";
  case TokenKind::Tilde:
    return "'~'";
  case TokenKind::Exclaim:
    return "'!'";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::LessEqual:
    return "'<='";
  case TokenKind::GreaterEqual:
    return "'>='";
  case TokenKind::EqualEqual:
    return "'=='";
  case TokenKind::ExclaimEqual:
    return "'!='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::LessLess:
    return "'<<'";
  case TokenKind::GreaterGreater:
    return "'>>'";
  case TokenKind::Equal:
    return "'='";
  case TokenKind::PlusEqual:
    return "'+='";
  case TokenKind::MinusEqual:
    return "'-='";
  case TokenKind::StarEqual:
    return "'*='";
  case TokenKind::SlashEqual:
    return "'/='";
  case TokenKind::PlusPlus:
    return "'++'";
  case TokenKind::MinusMinus:
    return "'--'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::Period:
    return "'.'";
  case TokenKind::PragmaIgen:
    return "'#pragma igen'";
  case TokenKind::PassthroughDirective:
    return "preprocessor directive";
  }
  return "unknown token";
}

namespace {

// The "C" locale's <cctype> classes, tested inline instead of through a
// library call per byte. Bytes outside ASCII are in none of them, whether
// char is signed (they compare below '\t') or unsigned (above 'z').
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}
bool isXDigit(char C) {
  return isDigit(C) || (C >= 'a' && C <= 'f') || (C >= 'A' && C <= 'F');
}
bool isIdentChar(char C) { return isAlpha(C) || isDigit(C) || C == '_'; }
/// ' ', '\t', '\n', '\v', '\f', '\r'.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }
/// Characters that begin an operator or punctuation token.
bool isPunctuation(char C) {
  switch (C) {
  case '(': case ')': case '{': case '}': case '[': case ']': case ';':
  case ',': case ':': case '?': case '~': case '.': case '+': case '-':
  case '*': case '/': case '%': case '&': case '|': case '^': case '!':
  case '<': case '>': case '=':
    return true;
  default:
    return false;
  }
}

TokenKind keywordKind(std::string_view S) {
  static constexpr std::pair<std::string_view, TokenKind> Keywords[] = {
      {"void", TokenKind::KwVoid},       {"char", TokenKind::KwChar},
      {"int", TokenKind::KwInt},         {"long", TokenKind::KwLong},
      {"short", TokenKind::KwShort},     {"unsigned", TokenKind::KwUnsigned},
      {"signed", TokenKind::KwSigned},   {"float", TokenKind::KwFloat},
      {"double", TokenKind::KwDouble},   {"const", TokenKind::KwConst},
      {"static", TokenKind::KwStatic},   {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},       {"for", TokenKind::KwFor},
      {"while", TokenKind::KwWhile},     {"do", TokenKind::KwDo},
      {"return", TokenKind::KwReturn},   {"break", TokenKind::KwBreak},
      {"continue", TokenKind::KwContinue}, {"sizeof", TokenKind::KwSizeof},
  };
  // S is never empty; the first byte rules out most keywords cheaply.
  for (const auto &[Spelling, Kind] : Keywords)
    if (Spelling[0] == S[0] && Spelling == S)
      return Kind;
  return TokenKind::Identifier;
}

/// Calls \p Parse (strtod, strtoll) on a terminated copy of \p S: the
/// source buffer need not be terminated after a number.
template <typename Fn> auto parseSpelling(std::string_view S, Fn &&Parse) {
  char Buf[64];
  if (S.size() < sizeof(Buf)) {
    std::memcpy(Buf, S.data(), S.size());
    Buf[S.size()] = '\0';
    return Parse(Buf);
  }
  return Parse(std::string(S).c_str());
}

/// "'@'" for printable ASCII, "'\xNN'" for any other byte.
std::string quoteByte(char C) {
  unsigned char U = static_cast<unsigned char>(C);
  if (U >= 0x20 && U < 0x7f)
    return formatString("'%c'", C);
  return formatString("'\\x%02x'", U);
}

} // namespace

Lexer::Lexer(std::string_view Source, DiagnosticsEngine &Diags)
    : Source(Source), Diags(Diags) {}

SourceLoc Lexer::currentLoc() const {
  return SourceLoc{static_cast<uint32_t>(Pos), Line, Col};
}

char Lexer::peek(unsigned Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

void Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
    AtLineStart = true;
  } else {
    ++Col;
    if (!isSpace(C))
      AtLineStart = false;
  }
}

void Lexer::advanceInLine(size_t N) {
  Pos += N;
  Col += static_cast<uint32_t>(N);
  AtLineStart = false;
}

bool Lexer::match(char C) {
  if (peek() != C)
    return false;
  advanceInLine(1);
  return true;
}

void Lexer::error(SourceLoc Loc, std::string Message) {
  if (GaveUp)
    return;
  if (Errors == MaxLexErrors) {
    Diags.error(Loc, formatString("too many errors (limit %u); giving up",
                                  MaxLexErrors));
    GaveUp = true;
    return;
  }
  ++Errors;
  Diags.error(Loc, std::move(Message));
}

void Lexer::skipTrivia() {
  while (Pos < Source.size()) {
    char C = Source[Pos];
    if (isSpace(C)) {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      size_t End = Source.find('\n', Pos);
      advanceInLine((End == std::string_view::npos ? Source.size() : End) -
                    Pos);
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      size_t End = Source.find("*/", Pos + 2);
      size_t Stop = End == std::string_view::npos ? Source.size() : End + 2;
      while (Pos < Stop)
        advance();
      if (End == std::string_view::npos)
        error(currentLoc(), "unterminated block comment");
      continue;
    }
    return;
  }
}

Token Lexer::lexDirective(SourceLoc Loc) {
  // Consume to end of line (no continuation lines in the subset).
  size_t Begin = Pos - 1; // at '#'
  size_t End = Source.find('\n', Pos);
  advanceInLine((End == std::string_view::npos ? Source.size() : End) - Pos);
  std::string_view Text = Source.substr(Begin, Pos - Begin);
  Token T;
  T.Loc = Loc;
  std::string_view Trimmed = trim(Text);
  if (startsWith(Trimmed, "#pragma")) {
    std::string_view Rest = trim(Trimmed.substr(7));
    if (startsWith(Rest, "igen")) {
      T.Kind = TokenKind::PragmaIgen;
      T.Text = trim(Rest.substr(4));
      return T;
    }
  }
  T.Kind = TokenKind::PassthroughDirective;
  T.Text = Text;
  return T;
}

Token Lexer::lexNumber(SourceLoc Loc) {
  const size_t Begin = Pos;
  size_t P = Pos;
  auto At = [&](size_t I) { return I < Source.size() ? Source[I] : '\0'; };
  Token T;
  T.Loc = Loc;
  // Hex integers.
  if (At(P) == '0' && (At(P + 1) == 'x' || At(P + 1) == 'X')) {
    P += 2;
    while (isXDigit(At(P)))
      ++P;
    advanceInLine(P - Begin);
    T.Kind = TokenKind::IntegerLiteral;
    T.Text = Source.substr(Begin, P - Begin);
    T.IntValue = parseSpelling(
        T.Text, [](const char *S) { return std::strtoll(S, nullptr, 16); });
    return T;
  }
  bool IsFloat = false;
  while (isDigit(At(P)))
    ++P;
  // A '.' after digits always starts a fraction ("1.", "1.5", "1.f"); the
  // member-access ambiguity only exists after identifiers.
  if (At(P) == '.') {
    IsFloat = true;
    ++P;
    while (isDigit(At(P)))
      ++P;
  }
  if (At(P) == 'e' || At(P) == 'E') {
    size_t Exp = P + 1;
    if (At(Exp) == '+' || At(Exp) == '-')
      ++Exp;
    if (isDigit(At(Exp))) { // else not an exponent
      IsFloat = true;
      P = Exp;
      while (isDigit(At(P)))
        ++P;
    }
  }
  T.Text = Source.substr(Begin, P - Begin);
  bool FloatSuffix = false, TolSuffix = false;
  if (At(P) == 'f' || At(P) == 'F') {
    ++P;
    FloatSuffix = true;
    IsFloat = true;
  } else if (At(P) == 't') { // IGen tolerance extension: 0.25t
    ++P;
    TolSuffix = true;
    IsFloat = true;
  }
  advanceInLine(P - Begin);
  if (IsFloat) {
    T.Kind = TokenKind::FloatLiteral;
    T.FloatValue = parseSpelling(
        T.Text, [](const char *S) { return std::strtod(S, nullptr); });
    T.IsFloatSuffix = FloatSuffix;
    T.IsTolerance = TolSuffix;
  } else {
    T.Kind = TokenKind::IntegerLiteral;
    T.IntValue = parseSpelling(
        T.Text, [](const char *S) { return std::strtoll(S, nullptr, 10); });
  }
  return T;
}

Token Lexer::lexIdentifier(SourceLoc Loc) {
  size_t End = Pos + 1;
  while (End < Source.size() && isIdentChar(Source[End]))
    ++End;
  std::string_view Text = Source.substr(Pos, End - Pos);
  advanceInLine(End - Pos);
  Token T;
  T.Loc = Loc;
  T.Kind = keywordKind(Text);
  if (T.Kind == TokenKind::Identifier)
    T.Text = Text;
  return T;
}

Token Lexer::lexPunctuation(SourceLoc Loc) {
  Token T;
  T.Loc = Loc;
  char C = Source[Pos];
  advanceInLine(1);
  auto Pick = [&](TokenKind K) {
    T.Kind = K;
    return T;
  };
  switch (C) {
  case '(':
    return Pick(TokenKind::LParen);
  case ')':
    return Pick(TokenKind::RParen);
  case '{':
    return Pick(TokenKind::LBrace);
  case '}':
    return Pick(TokenKind::RBrace);
  case '[':
    return Pick(TokenKind::LBracket);
  case ']':
    return Pick(TokenKind::RBracket);
  case ';':
    return Pick(TokenKind::Semi);
  case ',':
    return Pick(TokenKind::Comma);
  case ':':
    return Pick(TokenKind::Colon);
  case '?':
    return Pick(TokenKind::Question);
  case '~':
    return Pick(TokenKind::Tilde);
  case '.':
    return Pick(TokenKind::Period);
  case '+':
    if (match('+'))
      return Pick(TokenKind::PlusPlus);
    if (match('='))
      return Pick(TokenKind::PlusEqual);
    return Pick(TokenKind::Plus);
  case '-':
    if (match('-'))
      return Pick(TokenKind::MinusMinus);
    if (match('='))
      return Pick(TokenKind::MinusEqual);
    if (match('>'))
      return Pick(TokenKind::Arrow);
    return Pick(TokenKind::Minus);
  case '*':
    if (match('='))
      return Pick(TokenKind::StarEqual);
    return Pick(TokenKind::Star);
  case '/':
    if (match('='))
      return Pick(TokenKind::SlashEqual);
    return Pick(TokenKind::Slash);
  case '%':
    return Pick(TokenKind::Percent);
  case '&':
    if (match('&'))
      return Pick(TokenKind::AmpAmp);
    return Pick(TokenKind::Amp);
  case '|':
    if (match('|'))
      return Pick(TokenKind::PipePipe);
    return Pick(TokenKind::Pipe);
  case '^':
    return Pick(TokenKind::Caret);
  case '!':
    if (match('='))
      return Pick(TokenKind::ExclaimEqual);
    return Pick(TokenKind::Exclaim);
  case '<':
    if (match('='))
      return Pick(TokenKind::LessEqual);
    if (match('<'))
      return Pick(TokenKind::LessLess);
    return Pick(TokenKind::Less);
  case '>':
    if (match('='))
      return Pick(TokenKind::GreaterEqual);
    if (match('>'))
      return Pick(TokenKind::GreaterGreater);
    return Pick(TokenKind::Greater);
  default: // '='; lex() only calls this on isPunctuation characters
    if (match('='))
      return Pick(TokenKind::EqualEqual);
    return Pick(TokenKind::Equal);
  }
}

Token Lexer::lex() {
  while (true) {
    skipTrivia();
    SourceLoc Loc = currentLoc();
    if (Pos >= Source.size() || GaveUp) {
      Token T;
      T.Kind = TokenKind::EndOfFile;
      T.Loc = Loc;
      return T;
    }
    char C = Source[Pos];
    if (C == '#' && AtLineStart) {
      advanceInLine(1);
      return lexDirective(Loc);
    }
    if (isDigit(C) || (C == '.' && isDigit(peek(1))))
      return lexNumber(Loc);
    if (isAlpha(C) || C == '_')
      return lexIdentifier(Loc);
    if (isPunctuation(C))
      return lexPunctuation(Loc);
    // A run of characters that start no token ('#' included, since it
    // is not at the start of a line here): skip it, one diagnostic.
    size_t Begin = Pos;
    do
      advanceInLine(1);
    while (Pos < Source.size() && !isSpace(Source[Pos]) &&
           !isIdentChar(Source[Pos]) && !isPunctuation(Source[Pos]));
    size_t N = Pos - Begin;
    if (N == 1)
      error(Loc, "unexpected character " + quoteByte(C));
    else
      error(Loc, formatString("%zu unexpected characters starting with %s",
                              N, quoteByte(C).c_str()));
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  // C sources run at about 4-6 bytes per token.
  Tokens.reserve(Source.size() / 4 + 2);
  while (true) {
    Tokens.push_back(lex());
    if (Tokens.back().is(TokenKind::EndOfFile))
      return Tokens;
  }
}
