//===- ServeConcurrencyTest.cpp - Concurrent serving + request isolation ------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The daemon's concurrency contract, tested in-process against
// ServerCore: N threads issuing eval requests with mixed per-request
// options get answers BIT-IDENTICAL to a serial replay of the same
// frames, and a clobbered FP environment (injected with the harden
// fault hooks, IGEN_FAULT-style) never leaks between requests — the
// per-request sentinel repairs or poisons locally, other tenants see
// nothing.
//
//===----------------------------------------------------------------------===//

#include "server/ServerCore.h"

#include "harden/FaultInject.h"
#include "harden/FenvSentinel.h"
#include "server/Json.h"

#include <atomic>
#include <cfenv>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

using namespace igen;
using namespace igen::server;

namespace {

class ServeConcurrencyTest : public ::testing::Test {
protected:
  ServerCore Core{32};

  void SetUp() override { harden::disarmFaults(); }
  void TearDown() override { harden::disarmFaults(); }

  std::string compileHandle(const std::string &Source,
                            const std::string &Extra = "") {
    std::string Opts = "{\"opt_level\":0,\"target\":\"ss\"";
    if (!Extra.empty())
      Opts += "," + Extra;
    Opts += "}";
    std::string Line =
        Core.handleFrame("{\"op\":\"compile\",\"source\":\"" +
                         jsonEscape(Source) + "\",\"options\":" + Opts +
                         "}");
    JsonParseResult R = parseJson(Line);
    EXPECT_TRUE(R.Ok && R.Value.member("ok")->boolValue()) << Line;
    return R.Value.member("handle")->stringValue();
  }
};

TEST_F(ServeConcurrencyTest, MixedOptionEvalsBitIdenticalToSerialReplay) {
  std::string HArith =
      compileHandle("double f(double x) { return (x + 1.0) * x - 0.5; }");
  std::string HBranch =
      compileHandle("double g(double x) {\n"
                    "  double r = 0.0;\n"
                    "  if (x > 0.0) r = x; else r = 0.0 - x;\n"
                    "  return r;\n"
                    "}",
                    "\"branch\":\"join\"");
  std::string HLoop =
      compileHandle("double h(double x, int n) {\n"
                    "  double s = 0.0;\n"
                    "  for (int i = 0; i < n; ++i) s += x * x;\n"
                    "  return s;\n"
                    "}");

  // A frame set that mixes programs (one compiled with the join policy),
  // argument shapes, and the per-request options (fenv_policy,
  // step_limit, tier_width); some step limits are too small, so typed
  // errors are part of the mix.
  std::vector<std::string> Frames;
  for (int I = 0; I < 6; ++I) {
    double X = 0.25 * (I + 1);
    Frames.push_back("{\"op\":\"eval\",\"handle\":\"" + HArith +
                     "\",\"function\":\"f\",\"args\":[" +
                     std::to_string(X) + "],\"options\":{\"tier_width\":" +
                     std::to_string(0.5 * I + 0.25) + "}}");
    Frames.push_back("{\"op\":\"eval\",\"handle\":\"" + HBranch +
                     "\",\"function\":\"g\",\"args\":[{\"lo\":-" +
                     std::to_string(X) + ",\"hi\":" + std::to_string(X) +
                     "}]}");
    Frames.push_back("{\"op\":\"eval\",\"handle\":\"" + HBranch +
                     "\",\"function\":\"g\",\"args\":[1.5],"
                     "\"options\":{\"fenv_policy\":\"poison\"}}");
    Frames.push_back("{\"op\":\"eval\",\"handle\":\"" + HLoop +
                     "\",\"function\":\"h\",\"args\":[0.1,{\"int\":" +
                     std::to_string(10 * (I + 1)) +
                     "}],\"options\":{\"step_limit\":" +
                     std::to_string(100 + 60 * I) + "}}");
  }

  // Serial replay: the ground truth.
  std::vector<std::string> Expected;
  for (const std::string &F : Frames)
    Expected.push_back(Core.handleFrame(F));

  // Concurrent: 8 threads x 5 rounds over the full frame set, every
  // response must be byte-identical to the serial answer (which embeds
  // both interval endpoints as IEEE bit patterns).
  const int NumThreads = 8, Rounds = 5;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      for (int R = 0; R < Rounds; ++R)
        for (size_t I = 0; I < Frames.size(); ++I)
          if (Core.handleFrame(Frames[I]) != Expected[I])
            Mismatches.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

TEST_F(ServeConcurrencyTest, InjectedFenvClobberDoesNotLeakAcrossRequests) {
  std::string H =
      compileHandle("double f(double x) { return x / 3.0 + 0.1; }");
  std::string Frame = "{\"op\":\"eval\",\"handle\":\"" + H +
                      "\",\"function\":\"f\",\"args\":[1.0]}";
  std::string Clean = Core.handleFrame(Frame);
  ASSERT_NE(Clean.find("\"ok\": true"), std::string::npos) << Clean;

  harden::FenvStats Before = harden::fenvStats();

  // Clobber the rounding mode at one upward-scope entry somewhere in the
  // concurrent batch (IGEN_FAULT grammar: rnd@12). The victim request's
  // entry sentinel must repair it BEFORE evaluating, so even the victim
  // answers bit-identically; every other request must be untouched.
  harden::armFaults("rnd@12");
  const int NumThreads = 8, PerThread = 8;
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I)
        if (Core.handleFrame(Frame) != Clean)
          Mismatches.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();
  harden::disarmFaults();

  EXPECT_EQ(Mismatches.load(), 0);
  // The sentinel actually saw and repaired the injected violation.
  harden::FenvStats After = harden::fenvStats();
  EXPECT_GE(After.Violations, Before.Violations + 1);
  EXPECT_GE(After.Repairs, Before.Repairs + 1);
}

TEST_F(ServeConcurrencyTest, PoisonPolicyIsRequestLocal) {
  std::string H = compileHandle("double f(double x) { return x + 1.0; }");

  // Fire the clobber on this request's own scope entry; the request
  // asked for the poison policy, so it gets the whole line back,
  // flagged.
  harden::armFaults("rnd@0");
  std::string Line = Core.handleFrame(
      "{\"op\":\"eval\",\"handle\":\"" + H +
      "\",\"function\":\"f\",\"args\":[1.0],"
      "\"options\":{\"fenv_policy\":\"poison\"}}");
  harden::disarmFaults();
  JsonParseResult R = parseJson(Line);
  ASSERT_TRUE(R.Ok) << Line;
  ASSERT_TRUE(R.Value.member("ok")->boolValue()) << Line;
  EXPECT_TRUE(R.Value.member("poisoned")->boolValue()) << Line;
  EXPECT_EQ(R.Value.member("result")->member("lo_hex")->stringValue(),
            "fff0000000000000"); // -inf
  EXPECT_EQ(R.Value.member("result")->member("hi_hex")->stringValue(),
            "7ff0000000000000"); // +inf

  // The poison request changed nothing daemon-wide: the very next
  // request (default repair policy, clean env) is normal.
  std::string Next = Core.handleFrame("{\"op\":\"eval\",\"handle\":\"" +
                                      H +
                                      "\",\"function\":\"f\","
                                      "\"args\":[1.0]}");
  JsonParseResult R2 = parseJson(Next);
  ASSERT_TRUE(R2.Ok && R2.Value.member("ok")->boolValue()) << Next;
  EXPECT_FALSE(R2.Value.member("poisoned")->boolValue());
  EXPECT_DOUBLE_EQ(R2.Value.member("result")->member("lo")->numberValue(),
                   2.0);
}

TEST_F(ServeConcurrencyTest, CallerThreadDirtyEnvIsRepairedPerRequest) {
  std::string H = compileHandle("double f(double x) { return x * 2.0; }");
  std::string Frame = "{\"op\":\"eval\",\"handle\":\"" + H +
                      "\",\"function\":\"f\",\"args\":[0.3]}";
  std::string Clean = Core.handleFrame(Frame);

  std::string Dirty;
  std::thread([&] {
    // Simulate a hostile client thread: FTZ/DAZ on, rounding to
    // nearest, stale runtime cache — then issue the request.
    harden::writeMxcsr(harden::readMxcsr() | harden::kMxcsrFtz |
                       harden::kMxcsrDaz);
    std::fesetround(FE_TONEAREST);
    invalidateRoundingCache();
    Dirty = Core.handleFrame(Frame);
  }).join();
  EXPECT_EQ(Dirty, Clean);
}

TEST_F(ServeConcurrencyTest, ConcurrentCompilesOfSameSourceConverge) {
  const char *Src = "double u(double x) { return x - 0.25; }";
  std::string Frame = std::string("{\"op\":\"compile\",\"source\":\"") +
                      jsonEscape(Src) +
                      "\",\"options\":{\"opt_level\":0,\"target\":\"ss\"}}";
  std::vector<std::string> Handles(8);
  std::vector<std::thread> Threads;
  for (int T = 0; T < 8; ++T)
    Threads.emplace_back([&, T] {
      JsonParseResult R = parseJson(Core.handleFrame(Frame));
      ASSERT_TRUE(R.Ok && R.Value.member("ok")->boolValue());
      Handles[T] = R.Value.member("handle")->stringValue();
    });
  for (auto &T : Threads)
    T.join();
  for (int T = 1; T < 8; ++T)
    EXPECT_EQ(Handles[T], Handles[0]);
  // Exactly one resident copy regardless of the race outcome.
  EXPECT_EQ(Core.cache().stats().Resident, 1u);
}

} // namespace
