//===- Json.cpp - Minimal JSON value parser for serve frames -----------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/Json.h"

#include "support/JsonWriter.h"

#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

using namespace igen;
using namespace igen::server;

/// The parser behind parseJson(). It is JsonValue's friend so that it can
/// fill each value in place rather than build a temporary and assign it.
class igen::server::JsonParser {
public:
  JsonParser(std::string_view Text, const JsonLimits &Limits)
      : Text(Text), Limits(Limits) {}
  ~JsonParser() {
    releaseScratch(Items);
    releaseScratch(Members);
    releaseScratch(Order);
  }

  JsonParseResult run() {
    JsonParseResult R;
    skipWs();
    JsonValue V;
    if (!parseValue(V, 0)) {
      R.Error = Err;
      R.ErrorOffset = ErrOff;
      return R;
    }
    skipWs();
    if (Pos != Text.size()) {
      R.Error = "trailing characters after JSON value";
      R.ErrorOffset = Pos;
      return R;
    }
    R.Ok = true;
    R.Value = std::move(V);
    return R;
  }

private:
  std::string_view Text;
  const JsonLimits &Limits;
  size_t Pos = 0;
  size_t Elements = 0;
  std::string Err;
  size_t ErrOff = 0;
  /// Members of the arrays and objects still open, innermost last. A
  /// container that closes moves its members out into one vector of its
  /// final size and pops them. The stacks stay allocated for the thread's
  /// next frame unless one grew past ScratchKeep entries.
  static inline thread_local std::vector<JsonValue> Items;
  static inline thread_local std::vector<std::pair<std::string, JsonValue>>
      Members;
  /// Scratch for takeObject(): member positions in key order.
  static inline thread_local std::vector<size_t> Order;
  static constexpr size_t ScratchKeep = 1024;

  template <typename T> static void releaseScratch(std::vector<T> &V) {
    V.clear();
    if (V.capacity() > ScratchKeep)
      std::vector<T>().swap(V);
  }

  bool fail(const char *Msg) {
    if (Err.empty()) {
      Err = Msg;
      ErrOff = Pos;
    }
    return false;
  }

  bool atEnd() const { return Pos >= Text.size(); }
  char peek() const { return Text[Pos]; }

  void skipWs() {
    while (!atEnd()) {
      char C = Text[Pos];
      if (C == ' ' || C == '\t' || C == '\n' || C == '\r')
        ++Pos;
      else
        break;
    }
  }

  bool countElement() {
    if (++Elements > Limits.MaxElements)
      return fail("document has too many elements");
    return true;
  }

  bool literal(const char *Word) {
    size_t N = std::strlen(Word);
    if (Text.size() - Pos < N || Text.compare(Pos, N, Word) != 0)
      return fail("invalid literal");
    Pos += N;
    return true;
  }

  bool parseValue(JsonValue &Out, size_t Depth) {
    if (Depth > Limits.MaxDepth)
      return fail("nesting too deep");
    if (!countElement())
      return false;
    if (atEnd())
      return fail("unexpected end of input");
    char C = peek();
    switch (C) {
    case 'n':
      return literal("null"); // Out is already null
    case 't':
    case 'f':
      if (!literal(C == 't' ? "true" : "false"))
        return false;
      Out.K = JsonValue::Kind::Bool;
      Out.BoolV = C == 't';
      return true;
    case '"':
      Out.K = JsonValue::Kind::String;
      return parseString(Out.StrV);
    case '[':
      return parseArray(Out, Depth);
    case '{':
      return parseObject(Out, Depth);
    default:
      if (C == '-' || (C >= '0' && C <= '9'))
        return parseNumber(Out);
      return fail("unexpected character");
    }
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (!atEnd() && peek() == '-')
      ++Pos;
    if (atEnd() || peek() < '0' || peek() > '9')
      return fail("invalid number");
    if (peek() == '0') {
      ++Pos;
    } else {
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    if (!atEnd() && peek() == '.') {
      ++Pos;
      if (atEnd() || peek() < '0' || peek() > '9')
        return fail("invalid number");
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
      ++Pos;
      if (!atEnd() && (peek() == '+' || peek() == '-'))
        ++Pos;
      if (atEnd() || peek() < '0' || peek() > '9')
        return fail("invalid number");
      while (!atEnd() && peek() >= '0' && peek() <= '9')
        ++Pos;
    }
    std::string &Raw = Out.StrV;
    Raw.assign(Text.data() + Start, Pos - Start);
    errno = 0;
    char *End = nullptr;
    Out.NumV = std::strtod(Raw.c_str(), &End);
    if (End != Raw.c_str() + Raw.size())
      return fail("invalid number");
    // Overflow to +-inf is accepted; the raw spelling is preserved so
    // callers that care can reject or re-round it themselves.
    Out.K = JsonValue::Kind::Number;
    return true;
  }

  static bool hexDigit(char C, unsigned &V) {
    if (C >= '0' && C <= '9') {
      V = unsigned(C - '0');
      return true;
    }
    if (C >= 'a' && C <= 'f') {
      V = unsigned(C - 'a' + 10);
      return true;
    }
    if (C >= 'A' && C <= 'F') {
      V = unsigned(C - 'A' + 10);
      return true;
    }
    return false;
  }

  bool parseHex4(unsigned &Out) {
    if (Text.size() - Pos < 4)
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      unsigned D;
      if (!hexDigit(Text[Pos + size_t(I)], D))
        return fail("invalid \\u escape");
      Out = (Out << 4) | D;
    }
    Pos += 4;
    return true;
  }

  void appendUtf8(std::string &S, unsigned CP) {
    if (CP < 0x80) {
      S.push_back(char(CP));
    } else if (CP < 0x800) {
      S.push_back(char(0xC0 | (CP >> 6)));
      S.push_back(char(0x80 | (CP & 0x3F)));
    } else if (CP < 0x10000) {
      S.push_back(char(0xE0 | (CP >> 12)));
      S.push_back(char(0x80 | ((CP >> 6) & 0x3F)));
      S.push_back(char(0x80 | (CP & 0x3F)));
    } else {
      S.push_back(char(0xF0 | (CP >> 18)));
      S.push_back(char(0x80 | ((CP >> 12) & 0x3F)));
      S.push_back(char(0x80 | ((CP >> 6) & 0x3F)));
      S.push_back(char(0x80 | (CP & 0x3F)));
    }
  }

  static bool plainStringByte(char C) {
    return static_cast<unsigned char>(C) >= 0x20 && C != '"' && C != '\\';
  }

  /// Length of the run of plain bytes (see plainStringByte) among the
  /// \p N at \p P, tested eight at a time.
  static size_t plainRun(const char *P, size_t N) {
    constexpr uint64_t Ones = 0x0101010101010101ull;
    size_t I = 0;
    if constexpr (std::endian::native == std::endian::little) {
      for (; I + 8 <= N; I += 8) {
        uint64_t W, Quote, Slash;
        std::memcpy(&W, P + I, 8);
        Quote = W ^ (Ones * '"');
        Slash = W ^ (Ones * '\\');
        // The lowest byte flagged is exact: a byte below 0x20 or equal to
        // '"' or '\\'. Borrows only flag bytes above a true hit.
        uint64_t Hit = ((W - Ones * 0x20) & ~W) | ((Quote - Ones) & ~Quote) |
                       ((Slash - Ones) & ~Slash);
        Hit &= Ones * 0x80;
        if (Hit)
          return I + (std::countr_zero(Hit) >> 3);
      }
    }
    while (I < N && plainStringByte(P[I]))
      ++I;
    return I;
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (true) {
      if (atEnd())
        return fail("unterminated string");
      if (Out.size() > Limits.MaxStringBytes)
        return fail("string too long");
      // The run of bytes that need no decoding, appended in one call. It
      // ends at most where Out first exceeds MaxStringBytes, so the checks
      // above fail at the same byte as they would one byte at a time.
      size_t Avail = Text.size() - Pos;
      size_t Room = Limits.MaxStringBytes - Out.size();
      size_t End = Pos + (Room < Avail ? Room + 1 : Avail);
      size_t RunEnd = Pos + plainRun(Text.data() + Pos, End - Pos);
      if (RunEnd != Pos) {
        Out.append(Text.data() + Pos, RunEnd - Pos);
        Pos = RunEnd;
        continue;
      }
      unsigned char C = (unsigned char)Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("unescaped control character in string");
      ++Pos;
      if (atEnd())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      case 'n': Out.push_back('\n'); break;
      case 'r': Out.push_back('\r'); break;
      case 't': Out.push_back('\t'); break;
      case 'u': {
        unsigned CP;
        if (!parseHex4(CP))
          return false;
        if (CP >= 0xD800 && CP <= 0xDBFF) {
          // Surrogate pair.
          if (Text.size() - Pos < 2 || Text[Pos] != '\\' ||
              Text[Pos + 1] != 'u')
            return fail("unpaired surrogate");
          Pos += 2;
          unsigned Low;
          if (!parseHex4(Low))
            return false;
          if (Low < 0xDC00 || Low > 0xDFFF)
            return fail("invalid low surrogate");
          CP = 0x10000 + ((CP - 0xD800) << 10) + (Low - 0xDC00);
        } else if (CP >= 0xDC00 && CP <= 0xDFFF) {
          return fail("unpaired surrogate");
        }
        appendUtf8(Out, CP);
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
  }

  bool parseArray(JsonValue &Out, size_t Depth) {
    ++Pos; // '['
    size_t Base = Items.size();
    skipWs();
    Out.K = JsonValue::Kind::Array;
    if (!atEnd() && peek() == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Items.push_back(std::move(V));
      skipWs();
      if (atEnd())
        return fail("unterminated array");
      char C = Text[Pos];
      if (C == ',') {
        ++Pos;
        continue;
      }
      if (C == ']') {
        ++Pos;
        Out.ArrV.assign(std::make_move_iterator(Items.begin() + Base),
                        std::make_move_iterator(Items.end()));
        Items.erase(Items.begin() + Base, Items.end());
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseObject(JsonValue &Out, size_t Depth) {
    ++Pos; // '{'
    size_t Base = Members.size();
    skipWs();
    Out.K = JsonValue::Kind::Object;
    if (!atEnd() && peek() == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      if (atEnd() || peek() != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipWs();
      if (atEnd() || peek() != ':')
        return fail("expected ':'");
      ++Pos;
      skipWs();
      JsonValue V;
      if (!parseValue(V, Depth + 1))
        return false;
      Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (atEnd())
        return fail("unterminated object");
      char C = Text[Pos];
      if (C == ',') {
        ++Pos;
        continue;
      }
      if (C == '}') {
        ++Pos;
        takeObject(Base, Out.ObjV);
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  /// Pops the members from \p Base on into a JsonObject: sorted by key,
  /// and of several members with one key only the last in the document.
  void takeObject(size_t Base, JsonObject &O) {
    size_t N = Members.size() - Base;
    Order.resize(N);
    for (size_t I = 0; I < N; ++I)
      Order[I] = Base + I;
    std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
      int C = Members[A].first.compare(Members[B].first);
      return C < 0 || (C == 0 && A < B);
    });
    O.reserve(N);
    for (size_t I = 0; I < N; ++I)
      if (I + 1 == N ||
          Members[Order[I]].first != Members[Order[I + 1]].first)
        O.push_back(std::move(Members[Order[I]]));
    Members.erase(Members.begin() + Base, Members.end());
  }
};

JsonParseResult igen::server::parseJson(std::string_view Text,
                                        const JsonLimits &Limits) {
  return JsonParser(Text, Limits).run();
}

std::string igen::server::jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  appendJsonEscaped(Out, S);
  return Out;
}
