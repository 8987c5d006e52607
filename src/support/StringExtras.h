//===- StringExtras.h - Small string helpers --------------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String helpers shared by the frontend, the transformer, and the SIMD
/// specification parser.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SUPPORT_STRINGEXTRAS_H
#define IGEN_SUPPORT_STRINGEXTRAS_H

#include <cfenv>
#include <charconv>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace igen {

/// Returns true if \p S starts with \p Prefix.
inline bool startsWith(std::string_view S, std::string_view Prefix) {
  return S.substr(0, Prefix.size()) == Prefix;
}

/// Returns true if \p S ends with \p Suffix.
inline bool endsWith(std::string_view S, std::string_view Suffix) {
  return S.size() >= Suffix.size() &&
         S.substr(S.size() - Suffix.size()) == Suffix;
}

/// Strips ASCII whitespace from both ends of \p S.
inline std::string_view trim(std::string_view S) {
  const char *WS = " \t\r\n\f\v";
  size_t B = S.find_first_not_of(WS);
  if (B == std::string_view::npos)
    return {};
  size_t E = S.find_last_not_of(WS);
  return S.substr(B, E - B + 1);
}

/// Splits \p S on character \p Sep; empty pieces are kept.
std::vector<std::string_view> split(std::string_view S, char Sep);

/// Replaces every occurrence of \p From in \p S with \p To.
std::string replaceAll(std::string S, std::string_view From,
                       std::string_view To);

/// Appends the printf "%.17g" spelling of \p D, which round-trips every
/// finite double. std::to_chars writes the same bytes as glibc's printf,
/// but only under round-to-nearest: printf rounds the 17th digit in the
/// current rounding mode, to_chars always to nearest. Other modes keep
/// snprintf, so the mode never changes a byte.
inline void appendDouble17g(std::string &Out, double D) {
  char Buf[32];
  if (std::fegetround() == FE_TONEAREST)
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), D,
                                  std::chars_format::general, 17)
                        .ptr);
  else
    Out.append(Buf, std::snprintf(Buf, sizeof(Buf), "%.17g", D));
}

/// Formats like printf into a std::string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Reads a whole file into a string. Returns false on I/O failure.
bool readFile(const std::string &Path, std::string &Out);

/// Writes \p Contents to \p Path, replacing the file. Returns false on
/// failure.
bool writeFile(const std::string &Path, const std::string &Contents);

} // namespace igen

#endif // IGEN_SUPPORT_STRINGEXTRAS_H
