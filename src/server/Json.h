//===- Json.h - Minimal JSON value parser for serve frames ------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader for the serve protocol. The
/// repo already has a streaming *writer* (support/JsonWriter.h); this is
/// its input-side counterpart, sized for one request frame at a time.
/// It is deliberately strict (RFC 8259 grammar, no comments, no
/// trailing commas) and hardened for untrusted input: nesting depth and
/// total element counts are capped so a hostile frame cannot stack- or
/// heap-exhaust the daemon. Errors carry a byte offset for typed error
/// responses. Each array and object keeps its members in one vector
/// allocated at its final size.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SERVER_JSON_H
#define IGEN_SERVER_JSON_H

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace igen {
namespace server {

class JsonValue;
class JsonParser;
using JsonArray = std::vector<JsonValue>;
/// Object members sorted by key, one per key (the last duplicate in the
/// document wins). Sorted keys keep member iteration deterministic, which
/// the tests rely on when comparing rendered errors, and let member()
/// binary-search.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;

/// A parsed JSON value. Numbers keep both the double value and the raw
/// spelling: eval requests may pass interval endpoints as decimal text,
/// and the raw spelling lets callers re-parse with directed rounding.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  /// A null. parseJson() builds every other value.
  JsonValue() : K(Kind::Null) {}

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  bool boolValue() const { return BoolV; }
  double numberValue() const { return NumV; }
  /// Raw spelling for numbers; the decoded text for strings.
  const std::string &stringValue() const { return StrV; }
  const JsonArray &arrayValue() const { return ArrV; }
  const JsonObject &objectValue() const { return ObjV; }

  /// Object member lookup; returns nullptr when absent or not an object.
  const JsonValue *member(std::string_view Name) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = std::lower_bound(
        ObjV.begin(), ObjV.end(), Name,
        [](const auto &M, std::string_view N) { return M.first < N; });
    return It != ObjV.end() && It->first == Name ? &It->second : nullptr;
  }

private:
  friend class JsonParser; // parseJson() fills values in place

  Kind K;
  bool BoolV = false;
  double NumV = 0.0;
  std::string StrV;
  // Held inline, so a container costs the one allocation of its members.
  // Copies are deep; the serve path moves parsed frames, never copies.
  JsonArray ArrV;
  JsonObject ObjV;
};

/// Parse limits. The defaults comfortably fit every legitimate serve
/// frame while bounding adversarial ones.
struct JsonLimits {
  size_t MaxDepth = 32;
  size_t MaxElements = 1 << 16; ///< total values across the document
  size_t MaxStringBytes = 1 << 20;
};

struct JsonParseResult {
  bool Ok = false;
  JsonValue Value;
  std::string Error;   ///< empty on success
  size_t ErrorOffset = 0;
};

/// Parses exactly one JSON document from \p Text (trailing whitespace
/// allowed, trailing garbage is an error).
JsonParseResult parseJson(std::string_view Text,
                          const JsonLimits &Limits = JsonLimits());

/// Escapes \p S as the body of a JSON string literal (no quotes added).
/// Mirrors support/JsonWriter.h so server code composing error strings
/// by hand stays consistent with the streaming writer.
std::string jsonEscape(std::string_view S);

} // namespace server
} // namespace igen

#endif // IGEN_SERVER_JSON_H
