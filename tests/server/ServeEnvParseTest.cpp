//===- ServeEnvParseTest.cpp - Serve resilience env-knob parsing ----------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The serve knobs — IGEN_SERVE_DEADLINE, IGEN_SERVE_DRAIN_MS,
// IGEN_SERVE_CACHE_DIR and the IGEN_SERVE_QUEUE/CACHE/MAX_FRAME bounds —
// follow the same contract as the runtime env knobs
// (tests/runtime/EnvParseTest.cpp): bad input falls back to a safe
// default *and says so*, because a typo'd override silently ignored is
// an operator running a different configuration than they think. The
// spellings go through the knob table's parser (support/Knobs.h); the
// cache directory's filesystem checks stay in cacheDirFromSpec.
//
//===----------------------------------------------------------------------===//

#include "server/FunctionCache.h"
#include "server/PersistCache.h"
#include "server/ServerCore.h"
#include "server/SocketServer.h"
#include "support/Knobs.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include <sys/stat.h>
#include <unistd.h>

using igen::Knob;
using igen::parseKnob;
using namespace igen::server;

TEST(ServeEnvParse, DeadlineAcceptsPositiveMilliseconds) {
  std::string W;
  EXPECT_EQ(parseKnob(Knob::ServeDeadline, "1", &W).Int, 1);
  EXPECT_EQ(parseKnob(Knob::ServeDeadline, "2500", &W).Int, 2500);
  EXPECT_TRUE(W.empty());
}

TEST(ServeEnvParse, DeadlineUnsetOrEmptyDisablesSilently) {
  std::string W;
  EXPECT_EQ(parseKnob(Knob::ServeDeadline, nullptr, &W).Int, 0);
  EXPECT_EQ(parseKnob(Knob::ServeDeadline, "", &W).Int, 0);
  EXPECT_TRUE(W.empty());
}

TEST(ServeEnvParse, DeadlineWarnsOnMalformedValues) {
  for (const char *Bad : {"abc", "5s", "-100", "0", " 250 ", "1e3"}) {
    std::string W;
    EXPECT_EQ(parseKnob(Knob::ServeDeadline, Bad, &W).Int, 0)
        << "spec: " << Bad;
    EXPECT_NE(W.find("IGEN_SERVE_DEADLINE"), std::string::npos)
        << "spec: " << Bad;
    EXPECT_NE(W.find(Bad), std::string::npos) << "spec: " << Bad;
  }
}

TEST(ServeEnvParse, DrainAcceptsPositiveMilliseconds) {
  std::string W;
  EXPECT_EQ(parseKnob(Knob::ServeDrainMs, "250", &W).Int, 250);
  EXPECT_EQ(parseKnob(Knob::ServeDrainMs, "60000", &W).Int, 60000);
  EXPECT_TRUE(W.empty());
}

TEST(ServeEnvParse, DrainUnsetOrEmptyUsesDefaultSilently) {
  std::string W;
  EXPECT_EQ(parseKnob(Knob::ServeDrainMs, nullptr, &W).Int, 5000);
  EXPECT_EQ(parseKnob(Knob::ServeDrainMs, "", &W).Int, 5000);
  EXPECT_TRUE(W.empty());
}

TEST(ServeEnvParse, DrainWarnsAndFallsBackOnMalformedValues) {
  for (const char *Bad : {"fast", "-1", "0", "3 0", "2.5"}) {
    std::string W;
    EXPECT_EQ(parseKnob(Knob::ServeDrainMs, Bad, &W).Int, 5000)
        << "spec: " << Bad;
    EXPECT_NE(W.find("IGEN_SERVE_DRAIN_MS"), std::string::npos)
        << "spec: " << Bad;
    EXPECT_NE(W.find(Bad), std::string::npos) << "spec: " << Bad;
  }
}

/// The three admission bounds share one contract: a positive integer is
/// taken as is; unset or empty selects the default silently; anything
/// else (malformed, zero, negative, overflowing) selects the default
/// with a warning naming the knob and the bad spelling.
void checkBoundKnob(const char *Name,
                    const std::function<long long(const char *,
                                                  std::string *)> &Parse,
                    long long Default) {
  std::string W;
  EXPECT_EQ(Parse("1", &W), 1) << Name;
  EXPECT_EQ(Parse("16", &W), 16) << Name;
  EXPECT_EQ(Parse("100000", &W), 100000) << Name;
  EXPECT_TRUE(W.empty()) << Name << ": " << W;
  EXPECT_EQ(Parse(nullptr, &W), Default) << Name;
  EXPECT_EQ(Parse("", &W), Default) << Name;
  EXPECT_TRUE(W.empty()) << Name << ": " << W;
  for (const char *Bad : {"lots", "16k", "1.5", "3 0", " 8 ", "0", "-0", "-1",
                          "-128", "99999999999999999999"}) {
    std::string BW;
    EXPECT_EQ(Parse(Bad, &BW), Default) << Name << " spec: " << Bad;
    EXPECT_NE(BW.find(Name), std::string::npos) << "spec: " << Bad;
    EXPECT_NE(BW.find(Bad), std::string::npos) << Name << " spec: " << Bad;
  }
  // A null Warning pointer is allowed.
  EXPECT_EQ(Parse("nope", nullptr), Default) << Name;
}

TEST(ServeEnvParse, QueueBound) {
  checkBoundKnob(
      "IGEN_SERVE_QUEUE",
      [](const char *S, std::string *W) {
        return parseKnob(Knob::ServeQueue, S, W).Int;
      },
      128);
}

TEST(ServeEnvParse, CacheBound) {
  checkBoundKnob(
      "IGEN_SERVE_CACHE",
      [](const char *S, std::string *W) {
        return parseKnob(Knob::ServeCache, S, W).Int;
      },
      64);
}

TEST(ServeEnvParse, MaxFrameBound) {
  checkBoundKnob(
      "IGEN_SERVE_MAX_FRAME",
      [](const char *S, std::string *W) {
        return parseKnob(Knob::ServeMaxFrame, S, W).Int;
      },
      4 << 20);
}

TEST(ServeEnvParse, CacheBoundSixteenSizesTheCache) {
  // The compile-mix benchmark runs the daemon with IGEN_SERVE_CACHE=16.
  std::string W;
  FunctionCache Cache(parseKnob(Knob::ServeCache, "16", &W).Int);
  EXPECT_TRUE(W.empty());
  EXPECT_EQ(Cache.stats().Capacity, 16u);
}

TEST(ServeEnvParse, CacheDirUnsetOrEmptyDisablesSilently) {
  std::string W;
  EXPECT_EQ(cacheDirFromSpec(nullptr, &W), "");
  EXPECT_EQ(cacheDirFromSpec("", &W), "");
  EXPECT_TRUE(W.empty());
}

TEST(ServeEnvParse, CacheDirWarnsWhenUnusable) {
  // Parent directory missing: cannot mkdir one level.
  {
    std::string W;
    EXPECT_EQ(cacheDirFromSpec("/tmp/igen_no_such_parent_x/y/z", &W), "");
    EXPECT_NE(W.find("IGEN_SERVE_CACHE_DIR"), std::string::npos);
  }
  // Existing non-directory.
  {
    std::string W;
    EXPECT_EQ(cacheDirFromSpec("/dev/null", &W), "");
    EXPECT_FALSE(W.empty());
  }
}

TEST(ServeEnvParse, CacheDirCreatesOneLevelAndAcceptsExisting) {
  std::string W;
  std::string Dir =
      "/tmp/igen_env_cache_test_" + std::to_string(::getpid());
  EXPECT_EQ(cacheDirFromSpec(Dir.c_str(), &W), Dir);
  EXPECT_TRUE(W.empty());
  struct stat St;
  ASSERT_EQ(stat(Dir.c_str(), &St), 0);
  EXPECT_TRUE(S_ISDIR(St.st_mode));
  // Second resolution of the now-existing directory also succeeds.
  EXPECT_EQ(cacheDirFromSpec(Dir.c_str(), &W), Dir);
  EXPECT_TRUE(W.empty());
  ::rmdir(Dir.c_str());
}

TEST(ServeEnvParse, MalformedDeadlineWarnsOncePerProcess) {
  // Every ServerCore built from the environment reads the serve knobs;
  // a malformed one is reported the first time only.
  ASSERT_EQ(setenv("IGEN_SERVE_DEADLINE", "5s", 1), 0);
  igen::refreshKnob(Knob::ServeDeadline);
  testing::internal::CaptureStderr();
  {
    ServerCore First;
    ServerCore Second;
  }
  std::string Err = testing::internal::GetCapturedStderr();
  ASSERT_EQ(unsetenv("IGEN_SERVE_DEADLINE"), 0);
  igen::refreshKnob(Knob::ServeDeadline);

  size_t Count = 0;
  for (size_t P = Err.find("IGEN_SERVE_DEADLINE '5s'");
       P != std::string::npos;
       P = Err.find("IGEN_SERVE_DEADLINE '5s'", P + 1))
    ++Count;
  EXPECT_EQ(Count, 1u) << Err;
}
