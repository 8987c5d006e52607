//===- Knobs.cpp - The IGEN_* environment knob table ----------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "support/Knobs.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <type_traits>

namespace igen {

namespace {

using T = KnobType;

// Enum spellings are listed in the order of the enums they select
// (runtime::Isa, harden::FenvPolicy).
constexpr KnobInfo Table[NumKnobs] = {
    {.Name = "IGEN_ISA",
     .Type = T::Enum,
     .Accepts = "scalar|sse2|avx|avx2|avx512",
     .Default = {.Int = -1},
     .DefaultText = "CPUID detection",
     .Doc = "pin the batched-kernel ISA tier; a tier this CPU lacks "
            "falls back to CPUID detection"},
    {.Name = "IGEN_THREADS",
     .Type = T::PositiveInt,
     .Accepts = "a positive integer participant count",
     .Default = {.Int = 0},
     .DefaultText = "max(4, hardware threads)",
     .Doc = "thread-pool participants for the parallel reductions and "
            "--serve workers, clamped to max(4, hardware threads)",
     .Saturates = true},
    {.Name = "IGEN_TIER_WIDTH",
     .Type = T::PositiveDouble,
     .Accepts = "a finite decimal > 0",
     .Default = {.Real = 1e-8},
     .Doc = "relative result width above which a --tier region reruns "
            "at double-double"},
    {.Name = "IGEN_TIER_MAX",
     .Type = T::IntRange,
     .Accepts = "1 or 2",
     .Default = {.Int = 2},
     .Doc = "highest --tier precision: 1 never escalates, 2 escalates to "
            "double-double",
     .Min = 1,
     .Max = 2},
    {.Name = "IGEN_PROF_OUT",
     .Type = T::String,
     .Accepts = "a file path",
     .Default = {.Str = ""},
     .Doc = "write the --profile JSON report to this file at process "
            "exit"},
    {.Name = "IGEN_FENV_POLICY",
     .Type = T::Enum,
     .Accepts = "repair|poison|abort",
     .Default = {.Int = 0},
     .Doc = "what the FP-environment sentinel does on a clobbered MXCSR "
            "(--serve requests carry fenv_policy instead)"},
    {.Name = "IGEN_FAULT",
     .Type = T::String,
     .Accepts = "kind[@N],...",
     .Default = {.Str = ""},
     .Doc = "inject FP-environment, operand, allocation and transport "
            "faults deterministically (testing)"},
    {.Name = "IGEN_SERVE_CACHE",
     .Type = T::PositiveInt,
     .Accepts = "a positive integer program count",
     .Default = {.Int = 64},
     .Doc = "--serve compiled-program LRU capacity"},
    {.Name = "IGEN_SERVE_QUEUE",
     .Type = T::PositiveInt,
     .Accepts = "a positive integer request count",
     .Default = {.Int = 128},
     .Doc = "--serve admission queue bound; a full queue answers "
            "queue-full"},
    {.Name = "IGEN_SERVE_MAX_FRAME",
     .Type = T::PositiveInt,
     .Accepts = "a positive integer byte count",
     .Default = {.Int = 4 << 20},
     .Doc = "--serve request size cap; a longer frame answers "
            "frame-too-large"},
    {.Name = "IGEN_SERVE_DEADLINE",
     .Type = T::PositiveInt,
     .Accepts = "a positive integer millisecond count",
     .Default = {.Int = 0},
     .DefaultText = "none",
     .Doc = "--serve wall-clock budget for requests that send no "
            "deadline_ms"},
    {.Name = "IGEN_SERVE_DRAIN_MS",
     .Type = T::PositiveInt,
     .Accepts = "a positive integer millisecond count",
     .Default = {.Int = 5000},
     .Doc = "how long a --serve drain (SIGTERM/SIGINT) waits for "
            "in-flight requests"},
    {.Name = "IGEN_SERVE_CACHE_DIR",
     .Type = T::String,
     .Accepts = "a directory",
     .Default = {.Str = ""},
     .Doc = "--serve compile journal for warm restarts, created one "
            "level deep"},
    {.Name = "IGEN_SERVE_LOG",
     .Type = T::String,
     .Accepts = "a file path, or - for stderr",
     .Default = {.Str = ""},
     .Doc = "--serve request log: one JSON line per request plus "
            "lifecycle events"},
};

/// Strict decimal integer: optional leading blanks and sign, digits, and
/// nothing after them. Overflow fails unless \p Saturate.
bool parseInteger(const char *S, bool Saturate, long long &V) {
  char *End = nullptr;
  errno = 0;
  V = std::strtoll(S, &End, 10);
  if (End == S || *End != '\0')
    return false;
  return errno != ERANGE || (Saturate && V > 0);
}

bool parseDouble(const char *S, double &V) {
  char *End = nullptr;
  errno = 0;
  V = std::strtod(S, &End);
  return End != S && *End == '\0' && errno != ERANGE && V > 0.0 &&
         V != HUGE_VAL;
}

/// Index of \p S among the '|'-separated \p Spellings, or -1.
long long spellingIndex(const char *Spellings, const char *S) {
  size_t Len = std::strlen(S);
  long long I = 0;
  for (const char *P = Spellings;; ++I) {
    const char *Bar = std::strchr(P, '|');
    size_t N = Bar ? size_t(Bar - P) : std::strlen(P);
    if (N == Len && std::strncmp(P, S, N) == 0)
      return I;
    if (!Bar)
      return -1;
    P = Bar + 1;
  }
}

/// Parses one spelling per the entry's type; false when it is rejected.
bool parseSpelling(const KnobInfo &I, const char *S, KnobValue &V) {
  switch (I.Type) {
  case T::PositiveInt:
    return parseInteger(S, I.Saturates, V.Int) && V.Int >= 1;
  case T::IntRange:
    return parseInteger(S, false, V.Int) && V.Int >= I.Min &&
           V.Int <= I.Max;
  case T::PositiveDouble:
    return parseDouble(S, V.Real);
  case T::Enum:
    V.Int = spellingIndex(I.Accepts, S);
    return V.Int >= 0;
  case T::String:
    V.Str = S;
    return true;
  }
  return false;
}

detail::KnobSlot &slot(Knob K) {
  return detail::KnobSlots[static_cast<unsigned>(K)];
}

} // namespace

// Exit-safe: set before any code runs and never torn down.
constinit detail::KnobSlot detail::KnobSlots[NumKnobs];
static_assert(std::is_trivially_destructible_v<detail::KnobSlot>);

const KnobInfo &knobInfo(Knob K) { return Table[static_cast<unsigned>(K)]; }

std::string knobDefaultText(Knob K) {
  const KnobInfo &I = knobInfo(K);
  if (I.DefaultText)
    return I.DefaultText;
  switch (I.Type) {
  case T::PositiveInt:
  case T::IntRange:
    return std::to_string(I.Default.Int);
  case T::PositiveDouble: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", I.Default.Real);
    return Buf;
  }
  case T::Enum: {
    std::string_view All = I.Accepts;
    for (long long N = 0; N < I.Default.Int; ++N)
      All.remove_prefix(All.find('|') + 1);
    return std::string(All.substr(0, All.find('|')));
  }
  case T::String:
    return "none";
  }
  return "";
}

std::string knobWarning(Knob K, std::string_view Adjective,
                        std::string_view Spelling, std::string_view Why,
                        std::string_view Using) {
  std::string Msg = "igen: warning: ignoring ";
  Msg.append(Adjective).append(" ").append(knobInfo(K).Name).append(" '");
  Msg.append(Spelling).append("' (").append(Why).append("); using ");
  if (Using.empty())
    Msg += knobDefaultText(K);
  else
    Msg.append(Using);
  return Msg;
}

KnobValue parseKnob(Knob K, const char *Spec, std::string *Warning) {
  const KnobInfo &I = knobInfo(K);
  if (!Spec || !*Spec)
    return I.Default;
  KnobValue V{};
  if (parseSpelling(I, Spec, V))
    return V;
  if (Warning)
    *Warning = knobWarning(K, I.Type == T::Enum ? "unknown" : "malformed",
                           Spec, std::string("want ") + I.Accepts);
  return I.Default;
}

void warnKnobOnce(Knob K, const std::string &Message) {
  if (!slot(K).Warned.exchange(true, std::memory_order_relaxed))
    std::fprintf(stderr, "%s\n", Message.c_str());
}

void pinKnob(Knob K, KnobValue V) {
  slot(K).Bits.store(std::bit_cast<uint64_t>(V), std::memory_order_release);
}

void refreshKnob(Knob K) {
  slot(K).Bits.store(detail::KnobUnread, std::memory_order_release);
}

KnobValue detail::readKnob(Knob K) {
  std::string Warning;
  KnobValue V = parseKnob(K, std::getenv(knobInfo(K).Name), &Warning);
  if (!Warning.empty())
    warnKnobOnce(K, Warning);
  // A pin that landed while this thread read the environment wins.
  uint64_t Bits = std::bit_cast<uint64_t>(V), Expected = KnobUnread;
  if (!slot(K).Bits.compare_exchange_strong(Expected, Bits,
                                            std::memory_order_acq_rel))
    Bits = Expected;
  return std::bit_cast<KnobValue>(Bits);
}

} // namespace igen
