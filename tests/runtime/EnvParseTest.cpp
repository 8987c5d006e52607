//===- EnvParseTest.cpp - IGEN_THREADS / IGEN_ISA parsing tests -----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The runtime reads environment knobs -- IGEN_THREADS, IGEN_ISA, and
// the tiering pair IGEN_TIER_WIDTH / IGEN_TIER_MAX. All must fall back
// gracefully on bad input *and* say so: a typo'd override silently
// ignored is a user running a different configuration than they think.
// These tests drive the knob table's pure parser (support/Knobs.h) and
// the module checks the env readers apply to its value.
//
//===----------------------------------------------------------------------===//

#include "runtime/CpuDispatch.h"
#include "runtime/ThreadPool.h"
#include "support/Knobs.h"

#include <gtest/gtest.h>

using igen::Knob;
using igen::parseKnob;
using igen::runtime::Isa;
using igen::runtime::ThreadPool;

namespace {

/// IGEN_THREADS as ThreadPool::instance() resolves it: the table's
/// spelling, then the hardware clamp (0: no override).
unsigned participantsFromEnv(const char *Spec, unsigned Hardware,
                             std::string *W) {
  return ThreadPool::clampParticipants(parseKnob(Knob::Threads, Spec, W).Int,
                                       Hardware);
}

/// IGEN_ISA as activeIsa() resolves it: the table's spelling, then the
/// CPU-support check.
Isa resolveIsaFromSpec(const char *Spec, std::string *W) {
  return igen::runtime::resolveIsa(parseKnob(Knob::Isa, Spec, W).Int, W);
}

// The documented tiering defaults.
constexpr double DefaultWidthThreshold = 1e-8;
constexpr int DefaultMaxTier = 2;

} // namespace

TEST(EnvParse, ThreadsAcceptsPositiveIntegers) {
  std::string W;
  EXPECT_EQ(participantsFromEnv("1", 8, &W), 1u);
  EXPECT_EQ(participantsFromEnv("6", 8, &W), 6u);
  EXPECT_TRUE(W.empty());
}

TEST(EnvParse, ThreadsClampsToUsefulRange) {
  std::string W;
  // Oversubscription clamps to max(4, hardware).
  EXPECT_EQ(participantsFromEnv("64", 8, &W), 8u);
  EXPECT_EQ(participantsFromEnv("64", 2, &W), 4u);
  EXPECT_TRUE(W.empty());
}

TEST(EnvParse, ThreadsUnsetOrEmptyIsNotAnError) {
  std::string W;
  EXPECT_EQ(participantsFromEnv(nullptr, 8, &W), 0u);
  EXPECT_EQ(participantsFromEnv("", 8, &W), 0u);
  EXPECT_TRUE(W.empty());
}

TEST(EnvParse, ThreadsWarnsOnMalformedValues) {
  for (const char *Bad : {"abc", "3x", "-2", "0", " 4 "}) {
    std::string W;
    EXPECT_EQ(participantsFromEnv(Bad, 8, &W), 0u)
        << "spec: " << Bad;
    EXPECT_NE(W.find("IGEN_THREADS"), std::string::npos) << "spec: " << Bad;
    EXPECT_NE(W.find(Bad), std::string::npos) << "spec: " << Bad;
  }
}

TEST(EnvParse, IsaAcceptsKnownSupportedNames) {
  std::string W;
  EXPECT_EQ(resolveIsaFromSpec("scalar", &W), Isa::Scalar);
  // Every x86-64 CPU has SSE2; on other hosts the fallback is still a
  // supported tier and must warn.
  Isa Sse = resolveIsaFromSpec("sse2", &W);
  EXPECT_TRUE(igen::runtime::isaSupported(Sse));
  if (igen::runtime::isaSupported(Isa::Sse2)) {
    EXPECT_EQ(Sse, Isa::Sse2);
    EXPECT_TRUE(W.empty());
  }
}

TEST(EnvParse, IsaUnsetOrEmptyAutoDetectsSilently) {
  std::string W;
  EXPECT_EQ(resolveIsaFromSpec(nullptr, &W), igen::runtime::detectIsa());
  EXPECT_EQ(resolveIsaFromSpec("", &W), igen::runtime::detectIsa());
  EXPECT_TRUE(W.empty());
}

TEST(EnvParse, IsaAcceptsAvx512WhereSupported) {
  std::string W;
  Isa Got = resolveIsaFromSpec("avx512", &W);
  EXPECT_TRUE(igen::runtime::isaSupported(Got));
  if (igen::runtime::isaSupported(Isa::Avx512)) {
    EXPECT_EQ(Got, Isa::Avx512);
    EXPECT_TRUE(W.empty());
  } else {
    // Known name, unsupported CPU: fall back to detection, but say so.
    EXPECT_EQ(Got, igen::runtime::detectIsa());
    EXPECT_FALSE(W.empty());
  }
}

TEST(EnvParse, IsaWarnsOnUnknownNamesAndFallsBack) {
  for (const char *Bad : {"avx1024", "AVX2", "fast", "sse", "2"}) {
    std::string W;
    EXPECT_EQ(resolveIsaFromSpec(Bad, &W), igen::runtime::detectIsa())
        << "spec: " << Bad;
    EXPECT_NE(W.find("unknown IGEN_ISA"), std::string::npos)
        << "spec: " << Bad;
    EXPECT_NE(W.find(Bad), std::string::npos) << "spec: " << Bad;
  }
}

TEST(EnvParse, TierWidthAcceptsFiniteDecimals) {
  std::string W;
  EXPECT_EQ(parseKnob(Knob::TierWidth, "1e-6", &W).Real, 1e-6);
  EXPECT_EQ(parseKnob(Knob::TierWidth, "0.5", &W).Real, 0.5);
  EXPECT_EQ(parseKnob(Knob::TierWidth, "1e30", &W).Real, 1e30);
  EXPECT_TRUE(W.empty());
}

TEST(EnvParse, TierWidthUnsetOrEmptyUsesDefaultSilently) {
  std::string W;
  EXPECT_EQ(parseKnob(Knob::TierWidth, nullptr, &W).Real,
            DefaultWidthThreshold);
  EXPECT_EQ(parseKnob(Knob::TierWidth, "", &W).Real, DefaultWidthThreshold);
  EXPECT_TRUE(W.empty());
}

TEST(EnvParse, TierWidthWarnsOnMalformedValues) {
  // The threshold must be a finite decimal > 0: zero and negatives
  // would make every region "blown up", nan/inf would make none.
  for (const char *Bad : {"abc", "-1", "0", "nan", "inf", "1e999", "2x"}) {
    std::string W;
    EXPECT_EQ(parseKnob(Knob::TierWidth, Bad, &W).Real,
              DefaultWidthThreshold)
        << "spec: " << Bad;
    EXPECT_NE(W.find("IGEN_TIER_WIDTH"), std::string::npos)
        << "spec: " << Bad;
    EXPECT_NE(W.find(Bad), std::string::npos) << "spec: " << Bad;
  }
}

TEST(EnvParse, TierMaxAcceptsSupportedTiers) {
  std::string W;
  EXPECT_EQ(parseKnob(Knob::TierMax, "1", &W).Int, 1);
  EXPECT_EQ(parseKnob(Knob::TierMax, "2", &W).Int, 2);
  EXPECT_TRUE(W.empty());
}

TEST(EnvParse, TierMaxUnsetOrEmptyUsesDefaultSilently) {
  std::string W;
  EXPECT_EQ(parseKnob(Knob::TierMax, nullptr, &W).Int, DefaultMaxTier);
  EXPECT_EQ(parseKnob(Knob::TierMax, "", &W).Int, DefaultMaxTier);
  EXPECT_TRUE(W.empty());
}

TEST(EnvParse, TierMaxWarnsOnOutOfRangeOrGarbage) {
  // 3 would name an expansion tier that does not exist yet.
  for (const char *Bad : {"0", "3", "4", "-1", "two", "2.5"}) {
    std::string W;
    EXPECT_EQ(parseKnob(Knob::TierMax, Bad, &W).Int, DefaultMaxTier)
        << "spec: " << Bad;
    EXPECT_NE(W.find("IGEN_TIER_MAX"), std::string::npos) << "spec: " << Bad;
    EXPECT_NE(W.find(Bad), std::string::npos) << "spec: " << Bad;
    EXPECT_NE(W.find("want 1 or 2"), std::string::npos) << "spec: " << Bad;
  }
}
