//===- Knobs.h - The IGEN_* environment knob table --------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One table owns every IGEN_* environment variable the runtime, the
/// profiler, the FP-environment sentinel and the daemon read. Each entry
/// declares a name, a type, what it accepts, a default and a one-line
/// doc. One parser per type, one read-once cache and one warn-once path
/// serve every entry, and Knobs.cpp holds the only getenv in src/.
///
/// The contract:
///
///  * Read once. A knob is read from the environment on its first use,
///    never at startup, and cached; every later read is one atomic load.
///    pinKnob() overrides the cache and refreshKnob() drops it (test
///    hooks such as setFenvPolicy() and igen_tier_env_refresh()).
///  * Warn once. An unset or empty variable selects the default
///    silently. Any other spelling the type rejects also selects the
///    default, and prints one line, at most once per knob per process:
///
///      igen: warning: ignoring malformed IGEN_X '<spelling>' (want
///      <what>); using <default>
///
///    Checks that need more than the spelling stay in their modules
///    (CPU support for IGEN_ISA, the cache directory's mkdir/stat/access
///    checks, the IGEN_FAULT list grammar) and report through
///    knobWarning() and warnKnobOnce(), so every rejection reads alike.
///  * Exit-safe. The table is constexpr and the caches are atomics, so
///    both are constant-initialized and trivially destructible: static
///    constructors and atexit handlers (the IGEN_PROF_OUT report) may
///    read knobs.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SUPPORT_KNOBS_H
#define IGEN_SUPPORT_KNOBS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

namespace igen {

/// Every knob, in table order.
enum class Knob : unsigned {
  Isa,           ///< IGEN_ISA
  Threads,       ///< IGEN_THREADS
  TierWidth,     ///< IGEN_TIER_WIDTH
  TierMax,       ///< IGEN_TIER_MAX
  ProfOut,       ///< IGEN_PROF_OUT
  FenvPolicy,    ///< IGEN_FENV_POLICY
  Fault,         ///< IGEN_FAULT
  ServeCache,    ///< IGEN_SERVE_CACHE
  ServeQueue,    ///< IGEN_SERVE_QUEUE
  ServeMaxFrame, ///< IGEN_SERVE_MAX_FRAME
  ServeDeadline, ///< IGEN_SERVE_DEADLINE
  ServeDrainMs,  ///< IGEN_SERVE_DRAIN_MS
  ServeCacheDir, ///< IGEN_SERVE_CACHE_DIR
  ServeLog,      ///< IGEN_SERVE_LOG
};
inline constexpr unsigned NumKnobs = 14;

enum class KnobType {
  PositiveInt,    ///< decimal integer >= 1
  IntRange,       ///< decimal integer in [Min, Max]
  PositiveDouble, ///< finite decimal > 0
  Enum,           ///< one of the '|'-separated spellings in Accepts
  String,         ///< any spelling, taken verbatim
};

/// A knob's value; the member in use follows the knob's type.
union KnobValue {
  long long Int;   ///< PositiveInt, IntRange, Enum (index of the spelling)
  double Real;     ///< PositiveDouble
  const char *Str; ///< String ("" when unset; never null)
};

struct KnobInfo {
  const char *Name;
  KnobType Type;
  /// What a valid spelling looks like, in words ("a positive integer
  /// byte count"); an Enum lists its spellings ("repair|poison|abort"),
  /// and the parser reads them from here.
  const char *Accepts;
  KnobValue Default;
  /// How the default reads in warnings and docs; null spells Default.
  const char *DefaultText = nullptr;
  const char *Doc;
  long long Min = 0, Max = 0; ///< IntRange bounds
  /// PositiveInt only: a spelling too large for a long long saturates
  /// to LLONG_MAX instead of being rejected (the module clamps it).
  bool Saturates = false;
};

const KnobInfo &knobInfo(Knob K);

/// The default as it reads in warnings, `igen --help` and README.
std::string knobDefaultText(Knob K);

/// Parses \p Spec as a spelling of \p K without touching the
/// environment or the cache. Null or empty selects the default silently;
/// a rejected spelling selects the default and, when \p Warning is
/// non-null, stores the warning line into it.
KnobValue parseKnob(Knob K, const char *Spec, std::string *Warning = nullptr);

/// The one warning format: "igen: warning: ignoring <Adjective> <name>
/// '<Spelling>' (<Why>); using <Using>", where an empty \p Using names
/// the knob's default.
std::string knobWarning(Knob K, std::string_view Adjective,
                        std::string_view Spelling, std::string_view Why,
                        std::string_view Using = {});

/// Prints \p Message on stderr unless a warning about \p K already
/// printed in this process.
void warnKnobOnce(Knob K, const std::string &Message);

/// Overrides the cached value of \p K (wins until refreshKnob()).
void pinKnob(Knob K, KnobValue V);

/// Drops the cached value: the next read consults the environment again.
/// Warnings stay once per process.
void refreshKnob(Knob K);

namespace detail {
/// Cache bits of a knob not read yet: LLONG_MIN, -0.0 and a
/// non-canonical pointer, none of them a value any knob can take.
inline constexpr uint64_t KnobUnread = uint64_t(1) << 63;
struct KnobSlot {
  std::atomic<uint64_t> Bits{KnobUnread};
  std::atomic<bool> Warned{false};
};
extern KnobSlot KnobSlots[NumKnobs];
KnobValue readKnob(Knob K); ///< first read: getenv, parse, warn, cache
} // namespace detail

/// The value of \p K: the environment's on first use, cached after.
inline KnobValue knob(Knob K) {
  uint64_t Bits = detail::KnobSlots[static_cast<unsigned>(K)].Bits.load(
      std::memory_order_acquire);
  if (__builtin_expect(Bits == detail::KnobUnread, 0))
    return detail::readKnob(K);
  return std::bit_cast<KnobValue>(Bits);
}
inline long long knobInt(Knob K) { return knob(K).Int; }
inline double knobReal(Knob K) { return knob(K).Real; }
inline const char *knobString(Knob K) { return knob(K).Str; }

} // namespace igen

#endif // IGEN_SUPPORT_KNOBS_H
