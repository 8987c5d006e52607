//===- JsonWriter.h - Minimal streaming JSON emitter ------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shared JSON emitter for every machine-readable report the project
/// writes: the bench `--json` files, the profiler report
/// (IGEN_PROF_OUT / igen_prof_report_json) and the driver's `--profile`
/// site-table sidecar. Streaming with explicit begin/end calls, comma and
/// indentation management, and full string escaping; every report carries
/// a top-level "schema_version" field so downstream tooling can detect
/// format changes.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SUPPORT_JSONWRITER_H
#define IGEN_SUPPORT_JSONWRITER_H

#include "support/StringExtras.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace igen {

/// Appends \p S escaped as the body of a JSON string literal (no quotes):
/// '"', '\\', '\n', '\t' and '\r' get their short escapes, other control
/// characters \u00xx, and every other byte passes through. Each run that
/// needs no escape is appended in one call.
inline void appendJsonEscaped(std::string &Out, std::string_view S) {
  static constexpr char Hex[] = "0123456789abcdef";
  size_t Run = 0;
  for (size_t I = 0; I < S.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(S[I]);
    if (C >= 0x20 && C != '"' && C != '\\')
      continue;
    Out.append(S.data() + Run, I - Run);
    Run = I + 1;
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default: {
      const char Esc[] = {'\\', 'u', '0', '0', Hex[C >> 4], Hex[C & 15]};
      Out.append(Esc, sizeof(Esc));
    }
    }
  }
  Out.append(S.data() + Run, S.size() - Run);
}

/// Streaming JSON writer with 2-space pretty printing. Values inside an
/// object must be preceded by key(); values inside an array are appended
/// directly. Non-finite doubles are emitted as JSON strings ("inf",
/// "-inf", "nan") since JSON has no literal for them.
class JsonWriter {
public:
  void beginObject() { open('{'); }
  void endObject() { close('}'); }
  void beginArray() { open('['); }
  void endArray() { close(']'); }

  void key(std::string_view K) {
    prepareValue();
    appendQuoted(K);
    Out += ": ";
    PendingKey = true;
  }

  void value(std::string_view S) {
    prepareValue();
    appendQuoted(S);
  }
  void value(const char *S) { value(std::string_view(S)); }
  void value(bool B) {
    prepareValue();
    Out += B ? "true" : "false";
  }
  void value(double D) {
    prepareValue();
    if (!std::isfinite(D)) {
      Out += std::isnan(D) ? "\"nan\"" : (D > 0 ? "\"inf\"" : "\"-inf\"");
      return;
    }
    appendDouble17g(Out, D);
  }
  void value(uint64_t V) {
    prepareValue();
    appendInteger(V);
  }
  void value(int64_t V) {
    prepareValue();
    appendInteger(V);
  }
  void value(int V) { value(static_cast<int64_t>(V)); }
  void value(unsigned V) { value(static_cast<uint64_t>(V)); }

  /// key() + value() in one call.
  template <typename T> void field(std::string_view K, T V) {
    key(K);
    value(V);
  }

  /// The finished document (call after the outermost end*()).
  std::string take() {
    Out += '\n';
    return std::move(Out);
  }

  /// Writes the finished document to \p Path; false on I/O failure.
  bool writeTo(const char *Path) {
    std::string Text = take();
    std::FILE *F = std::fopen(Path, "w");
    if (!F)
      return false;
    bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
    return (std::fclose(F) == 0) && Ok;
  }

private:
  struct Level {
    bool HasItems = false;
  };

  void open(char C) {
    prepareValue();
    Out += C;
    Levels.push_back({});
  }

  void close(char C) {
    bool Had = !Levels.empty() && Levels.back().HasItems;
    if (!Levels.empty())
      Levels.pop_back();
    if (Had) {
      Out += '\n';
      indent();
    }
    Out += C;
  }

  /// Comma/newline/indent before the next value (or key) at this level.
  void prepareValue() {
    if (PendingKey) { // value completing a "key": pair
      PendingKey = false;
      return;
    }
    if (Levels.empty())
      return;
    if (Levels.back().HasItems)
      Out += ',';
    Levels.back().HasItems = true;
    Out += '\n';
    indent();
  }

  void indent() { Out.append(Levels.size() * 2, ' '); }

  template <typename Int> void appendInteger(Int V) {
    char Buf[24];
    const char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
    Out.append(Buf, static_cast<size_t>(End - Buf));
  }

  void appendQuoted(std::string_view S) {
    Out += '"';
    appendJsonEscaped(Out, S);
    Out += '"';
  }

  std::string Out;
  std::vector<Level> Levels;
  bool PendingKey = false;
};

} // namespace igen

#endif // IGEN_SUPPORT_JSONWRITER_H
