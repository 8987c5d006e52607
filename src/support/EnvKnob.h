//===- EnvKnob.h - Positive-integer environment knob parsing ----*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one parser behind the positive-integer IGEN_* knobs (serve queue,
/// cache and frame bounds, drain budget). Callers keep the
/// `…FromSpec(const char *Spec, std::string *Warning)` shape, so the spec
/// is testable without touching the environment, and print the warning
/// once per process.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SUPPORT_ENVKNOB_H
#define IGEN_SUPPORT_ENVKNOB_H

#include <cerrno>
#include <cstdlib>
#include <string>

namespace igen {

/// Resolves the spelling \p Spec of the knob \p Name. Null or empty
/// selects \p Default silently. Anything but a positive decimal integer
/// (a unit, trailing text, zero, a negative number, overflow) also selects
/// \p Default, and sets *Warning to a line naming the knob, the spelling,
/// what was expected (a positive integer \p Unit) and the default used.
inline long long positiveKnobFromSpec(const char *Name, const char *Spec,
                                      const char *Unit, long long Default,
                                      std::string *Warning) {
  if (!Spec || !*Spec)
    return Default;
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Spec, &End, 10);
  if (errno == 0 && End && *End == '\0' && V > 0)
    return V;
  if (Warning)
    *Warning = std::string("ignoring ") + Name + " '" + Spec +
               "' (expected a positive integer " + Unit +
               "); using the default " + std::to_string(Default);
  return Default;
}

} // namespace igen

#endif // IGEN_SUPPORT_ENVKNOB_H
