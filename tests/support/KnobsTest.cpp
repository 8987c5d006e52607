//===- KnobsTest.cpp - The IGEN_* knob table ------------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// One table-driven test over all 14 knobs (support/Knobs.h): an unset or
// empty variable selects the documented default without a warning, every
// listed spelling parses to its value, and a malformed spelling selects
// the default and warns with the knob's name and the spelling. String
// knobs take any spelling; the checks their modules add (the IGEN_FAULT
// grammar, the cache directory) are tested with those modules. Then the
// read-once cache and the warn-once path.
//
//===----------------------------------------------------------------------===//

#include "support/Knobs.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

using namespace igen;

namespace {

/// A knob value as text, by the knob's type: integers and enum indices
/// in decimal, doubles as %g, strings verbatim.
std::string show(Knob K, KnobValue V) {
  switch (knobInfo(K).Type) {
  case KnobType::PositiveDouble: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%g", V.Real);
    return Buf;
  }
  case KnobType::String:
    return V.Str;
  default:
    return std::to_string(V.Int);
  }
}

struct KnobCase {
  Knob K;
  const char *Name;
  const char *Default; ///< show() of the default
  std::vector<std::pair<const char *, const char *>> Good; ///< spelling, value
  std::vector<const char *> Bad;
};

const std::vector<KnobCase> &cases() {
  static const std::vector<const char *> BadCounts = {
      "lots", "16k", "1.5", "3 0", " 8 ", "0", "-0", "-1",
      "99999999999999999999"};
  static const std::vector<KnobCase> Cases = {
      {Knob::Isa,
       "IGEN_ISA",
       "-1",
       {{"scalar", "0"}, {"sse2", "1"}, {"avx", "2"}, {"avx2", "3"},
        {"avx512", "4"}},
       {"avx1024", "AVX2", "fast", "sse", "2", "scalar "}},
      {Knob::Threads,
       "IGEN_THREADS",
       "0",
       {{"1", "1"}, {"6", "6"}, {"512", "512"}, {"+3", "3"},
        {"99999999999999999999", "9223372036854775807"}},
       {"abc", "3x", "-2", "0", " 4 ", "many"}},
      {Knob::TierWidth,
       "IGEN_TIER_WIDTH",
       "1e-08",
       {{"1e-6", "1e-06"}, {"0.5", "0.5"}, {"1e30", "1e+30"}},
       {"abc", "-1", "0", "nan", "inf", "1e999", "2x"}},
      {Knob::TierMax,
       "IGEN_TIER_MAX",
       "2",
       {{"1", "1"}, {"2", "2"}},
       {"0", "3", "4", "-1", "two", "2.5"}},
      {Knob::ProfOut,
       "IGEN_PROF_OUT",
       "",
       {{"report.json", "report.json"}, {"/tmp/a b.json", "/tmp/a b.json"}},
       {}},
      {Knob::FenvPolicy,
       "IGEN_FENV_POLICY",
       "0",
       {{"repair", "0"}, {"poison", "1"}, {"abort", "2"}},
       {"explode", "Repair", "poison ", "repair|poison"}},
      {Knob::Fault,
       "IGEN_FAULT",
       "",
       {{"ftz@2,nan", "ftz@2,nan"}, {"bogus", "bogus"}},
       {}},
      {Knob::ServeCache,
       "IGEN_SERVE_CACHE",
       "64",
       {{"1", "1"}, {"16", "16"}, {"100000", "100000"}},
       BadCounts},
      {Knob::ServeQueue,
       "IGEN_SERVE_QUEUE",
       "128",
       {{"1", "1"}, {"16", "16"}, {"100000", "100000"}},
       BadCounts},
      {Knob::ServeMaxFrame,
       "IGEN_SERVE_MAX_FRAME",
       "4194304",
       {{"1", "1"}, {"65536", "65536"}},
       BadCounts},
      {Knob::ServeDeadline,
       "IGEN_SERVE_DEADLINE",
       "0",
       {{"1", "1"}, {"2500", "2500"}},
       {"abc", "5s", "-100", "0", " 250 ", "1e3"}},
      {Knob::ServeDrainMs,
       "IGEN_SERVE_DRAIN_MS",
       "5000",
       {{"250", "250"}, {"60000", "60000"}},
       {"fast", "-1", "0", "3 0", "2.5"}},
      {Knob::ServeCacheDir,
       "IGEN_SERVE_CACHE_DIR",
       "",
       {{"/var/cache/igen", "/var/cache/igen"}},
       {}},
      {Knob::ServeLog,
       "IGEN_SERVE_LOG",
       "",
       {{"-", "-"}, {"serve.jsonl", "serve.jsonl"}},
       {}},
  };
  return Cases;
}

TEST(Knobs, TableListsEveryKnobInOrder) {
  ASSERT_EQ(cases().size(), NumKnobs);
  for (unsigned I = 0; I < NumKnobs; ++I) {
    EXPECT_EQ(static_cast<unsigned>(cases()[I].K), I);
    EXPECT_STREQ(knobInfo(cases()[I].K).Name, cases()[I].Name);
    EXPECT_NE(knobInfo(cases()[I].K).Doc, nullptr) << cases()[I].Name;
  }
}

TEST(Knobs, UnsetOrEmptySelectsTheDefaultSilently) {
  for (const KnobCase &C : cases()) {
    std::string W;
    EXPECT_EQ(show(C.K, parseKnob(C.K, nullptr, &W)), C.Default) << C.Name;
    EXPECT_EQ(show(C.K, parseKnob(C.K, "", &W)), C.Default) << C.Name;
    EXPECT_EQ(show(C.K, knobInfo(C.K).Default), C.Default) << C.Name;
    EXPECT_TRUE(W.empty()) << C.Name << ": " << W;
  }
}

TEST(Knobs, EverySpellingParsesToItsValue) {
  for (const KnobCase &C : cases())
    for (const auto &[Spelling, Value] : C.Good) {
      std::string W;
      EXPECT_EQ(show(C.K, parseKnob(C.K, Spelling, &W)), Value)
          << C.Name << "='" << Spelling << "'";
      EXPECT_TRUE(W.empty()) << C.Name << ": " << W;
    }
}

TEST(Knobs, MalformedSpellingSelectsTheDefaultAndWarns) {
  for (const KnobCase &C : cases())
    for (const char *Bad : C.Bad) {
      std::string W;
      EXPECT_EQ(show(C.K, parseKnob(C.K, Bad, &W)), C.Default)
          << C.Name << "='" << Bad << "'";
      EXPECT_EQ(W, knobWarning(C.K,
                               knobInfo(C.K).Type == KnobType::Enum
                                   ? "unknown"
                                   : "malformed",
                               Bad,
                               std::string("want ") + knobInfo(C.K).Accepts))
          << C.Name;
      EXPECT_NE(W.find(C.Name), std::string::npos) << W;
      EXPECT_NE(W.find(std::string("'") + Bad + "'"), std::string::npos)
          << W;
      EXPECT_EQ(W.rfind("igen: warning: ignoring ", 0), 0u) << W;
      EXPECT_NE(W.find("; using " + knobDefaultText(C.K)), std::string::npos)
          << W;
    }
}

TEST(Knobs, WarningsKeepTheirPinnedWording) {
  std::string W;
  parseKnob(Knob::ServeQueue, "16k", &W);
  EXPECT_EQ(W, "igen: warning: ignoring malformed IGEN_SERVE_QUEUE '16k' "
               "(want a positive integer request count); using 128");
  parseKnob(Knob::Isa, "avx1024", &W);
  EXPECT_EQ(W, "igen: warning: ignoring unknown IGEN_ISA 'avx1024' (want "
               "scalar|sse2|avx|avx2|avx512); using CPUID detection");
  parseKnob(Knob::TierMax, "3", &W);
  EXPECT_EQ(W, "igen: warning: ignoring malformed IGEN_TIER_MAX '3' (want "
               "1 or 2); using 2");
}

TEST(Knobs, ReadOncePinAndRefresh) {
  ASSERT_EQ(setenv("IGEN_SERVE_DRAIN_MS", "250", 1), 0);
  refreshKnob(Knob::ServeDrainMs);
  EXPECT_EQ(knobInt(Knob::ServeDrainMs), 250);
  // Cached: a later change of the environment is not seen...
  ASSERT_EQ(setenv("IGEN_SERVE_DRAIN_MS", "750", 1), 0);
  EXPECT_EQ(knobInt(Knob::ServeDrainMs), 250);
  // ...until the cache is dropped.
  refreshKnob(Knob::ServeDrainMs);
  EXPECT_EQ(knobInt(Knob::ServeDrainMs), 750);
  // A pin wins over the environment until the next refresh.
  pinKnob(Knob::ServeDrainMs, {.Int = 42});
  EXPECT_EQ(knobInt(Knob::ServeDrainMs), 42);
  ASSERT_EQ(unsetenv("IGEN_SERVE_DRAIN_MS"), 0);
  refreshKnob(Knob::ServeDrainMs);
  EXPECT_EQ(knobInt(Knob::ServeDrainMs), 5000);
}

TEST(Knobs, MalformedEnvironmentWarnsOncePerKnob) {
  ASSERT_EQ(setenv("IGEN_TIER_WIDTH", "wide", 1), 0);
  refreshKnob(Knob::TierWidth);
  testing::internal::CaptureStderr();
  double First = knobReal(Knob::TierWidth);
  refreshKnob(Knob::TierWidth); // re-reads, but never re-warns
  double Second = knobReal(Knob::TierWidth);
  warnKnobOnce(Knob::TierWidth, "a module check's warning");
  std::string Err = testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("IGEN_TIER_WIDTH"), 0);
  refreshKnob(Knob::TierWidth);

  EXPECT_EQ(First, 1e-8);
  EXPECT_EQ(Second, 1e-8);
  EXPECT_EQ(Err, knobWarning(Knob::TierWidth, "malformed", "wide",
                             "want a finite decimal > 0") +
                     "\n");
}

TEST(Knobs, StringKnobsPassTheEnvironmentThrough) {
  ASSERT_EQ(setenv("IGEN_SERVE_LOG", "-", 1), 0);
  refreshKnob(Knob::ServeLog);
  EXPECT_STREQ(knobString(Knob::ServeLog), "-");
  ASSERT_EQ(unsetenv("IGEN_SERVE_LOG"), 0);
  refreshKnob(Knob::ServeLog);
  EXPECT_STREQ(knobString(Knob::ServeLog), "");
}

} // namespace
