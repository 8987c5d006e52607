//===- ServerCoreTest.cpp - Serve protocol dispatch tests ---------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Drives ServerCore::handleFrame directly (no socket): the full protocol
// surface plus the malformed-request robustness battery — every hostile
// frame must come back as exactly one well-formed JSON line with a typed
// error, and the core must keep serving afterwards.
//
//===----------------------------------------------------------------------===//

#include "server/ServerCore.h"

#include "server/Json.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

using namespace igen::server;

namespace {

class ServerCoreTest : public ::testing::Test {
protected:
  ServerCore Core{8};

  JsonValue rpc(const std::string &Frame) {
    std::string Line = Core.handleFrame(Frame);
    EXPECT_EQ(Line.find('\n'), std::string::npos)
        << "response must be one line: " << Line;
    JsonParseResult R = parseJson(Line);
    EXPECT_TRUE(R.Ok) << "response must be valid JSON: " << Line;
    EXPECT_TRUE(R.Value.isObject());
    return R.Value;
  }

  std::string expectError(const std::string &Frame) {
    JsonValue V = rpc(Frame);
    EXPECT_FALSE(V.member("ok")->boolValue()) << Frame;
    const JsonValue *Err = V.member("error");
    EXPECT_TRUE(Err && Err->isObject()) << Frame;
    EXPECT_TRUE(Err->member("code") && Err->member("code")->isString());
    EXPECT_TRUE(Err->member("message"));
    return Err->member("code")->stringValue();
  }

  std::string compileHandle(const std::string &Source,
                            const std::string &ExtraOpts = "") {
    std::string Opts = "{\"opt_level\":0,\"target\":\"ss\"";
    if (!ExtraOpts.empty())
      Opts += "," + ExtraOpts;
    Opts += "}";
    JsonValue V = rpc("{\"op\":\"compile\",\"source\":\"" +
                      jsonEscape(Source) + "\",\"options\":" + Opts + "}");
    EXPECT_TRUE(V.member("ok")->boolValue());
    return V.member("handle")->stringValue();
  }
};

TEST_F(ServerCoreTest, CompileEvalRoundTrip) {
  std::string H = compileHandle("double f(double x) { return x + 1.0; }");
  ASSERT_EQ(H.size(), 16u);
  JsonValue V = rpc("{\"op\":\"eval\",\"handle\":\"" + H +
                    "\",\"function\":\"f\",\"args\":[2.0],\"id\":\"r1\"}");
  ASSERT_TRUE(V.member("ok")->boolValue());
  EXPECT_EQ(V.member("id")->stringValue(), "r1");
  const JsonValue *Res = V.member("result");
  ASSERT_TRUE(Res);
  EXPECT_EQ(Res->member("kind")->stringValue(), "interval");
  EXPECT_DOUBLE_EQ(Res->member("lo")->numberValue(), 3.0);
  EXPECT_DOUBLE_EQ(Res->member("hi")->numberValue(), 3.0);
  EXPECT_EQ(Res->member("lo_hex")->stringValue(), "4008000000000000");
  EXPECT_TRUE(V.member("aot_exact")->boolValue());
  EXPECT_FALSE(V.member("poisoned")->boolValue());
}

TEST_F(ServerCoreTest, SecondCompileHitsCache) {
  const char *Src = "double g(double x) { return x * x; }";
  std::string Frame = std::string("{\"op\":\"compile\",\"source\":\"") +
                      jsonEscape(Src) +
                      "\",\"options\":{\"opt_level\":0,\"target\":\"ss\"}}";
  JsonValue A = rpc(Frame);
  EXPECT_FALSE(A.member("cached")->boolValue());
  JsonValue B = rpc(Frame);
  EXPECT_TRUE(B.member("cached")->boolValue());
  EXPECT_EQ(A.member("handle")->stringValue(),
            B.member("handle")->stringValue());

  // Different options -> different handle, no false sharing.
  JsonValue C = rpc(std::string("{\"op\":\"compile\",\"source\":\"") +
                    jsonEscape(Src) +
                    "\",\"options\":{\"opt_level\":1,\"target\":\"ss\"}}");
  EXPECT_FALSE(C.member("cached")->boolValue());
  EXPECT_NE(A.member("handle")->stringValue(),
            C.member("handle")->stringValue());
}

TEST_F(ServerCoreTest, HashCollisionNeverSharesAProgram) {
  // Inject a collision: the handle source B hashes to already holds
  // source A's program under A's request bytes, as if the two hashed
  // alike. B is refused with a typed error instead of getting A's
  // program, and the handle keeps evaluating A.
  const char *A = "double f(double x) { return x + 1.0; }";
  const char *B = "double f(double x) { return x + 2.0; }";
  igen::TransformOptions Opts;
  Opts.OptLevel = 0;
  Opts.ScalarLibrary = true;
  igen::DiagnosticsEngine Diags;
  std::shared_ptr<const igen::InMemoryProgram> ProgA =
      igen::compileToProgram(A, Opts, Diags);
  ASSERT_TRUE(ProgA);
  const std::string Taken = formatHandle(hashCompileRequest(B, Opts));
  ASSERT_TRUE(Core.cache().insert(hashCompileRequest(B, Opts), ProgA,
                                  compileRequestBytes(A, Opts)));
  const std::string FrameB =
      std::string("{\"op\":\"compile\",\"source\":\"") + jsonEscape(B) +
      "\",\"options\":{\"opt_level\":0,\"target\":\"ss\"}}";
  EXPECT_EQ(expectError(FrameB), "handle-collision");
  EXPECT_EQ(expectError(FrameB), "handle-collision"); // nothing was cached
  auto evalAt1 = [&](const std::string &Handle) {
    JsonValue V = rpc("{\"op\":\"eval\",\"handle\":\"" + Handle +
                      "\",\"function\":\"f\",\"args\":[1.0]}");
    EXPECT_TRUE(V.member("ok")->boolValue());
    return V.member("result")->member("hi")->numberValue();
  };
  EXPECT_EQ(evalAt1(Taken), 2.0); // A's program, never B's (3.0)
  // A's own request hashes elsewhere and gets its own entry.
  std::string HandleA = compileHandle(A);
  EXPECT_NE(HandleA, Taken);
  EXPECT_EQ(evalAt1(HandleA), 2.0);
}

TEST_F(ServerCoreTest, CompileFailureIsTypedWithDiagnosticsAndRollsBack) {
  JsonValue V = rpc("{\"op\":\"compile\",\"source\":\"double f(double x) "
                    "{ return nope; }\"}");
  EXPECT_FALSE(V.member("ok")->boolValue());
  const JsonValue *Err = V.member("error");
  ASSERT_TRUE(Err);
  EXPECT_EQ(Err->member("code")->stringValue(), "sema-error");
  EXPECT_EQ(Err->member("stage")->stringValue(), "sema");
  const JsonValue *Diags = Err->member("diagnostics");
  ASSERT_TRUE(Diags && Diags->isArray());
  EXPECT_GE(Diags->arrayValue().size(), 1u);

  // Nothing entered the cache; stats prove the rollback.
  CacheStats S = Core.cache().stats();
  EXPECT_EQ(S.Insertions, 0u);
  EXPECT_EQ(S.Resident, 0u);

  // The daemon still serves.
  std::string H = compileHandle("double f(double x) { return x; }");
  EXPECT_EQ(H.size(), 16u);
}

TEST_F(ServerCoreTest, ParseErrorStage) {
  JsonValue V = rpc("{\"op\":\"compile\",\"source\":\"double f( {\"}");
  EXPECT_FALSE(V.member("ok")->boolValue());
  EXPECT_EQ(V.member("error")->member("code")->stringValue(),
            "parse-error");
}

TEST_F(ServerCoreTest, StrayCharacterFloodIsTypedAndTheCoreServes) {
  // A 1 MiB run of '@' must not overflow the lexer's stack, and 100 000
  // separate runs must stay under the lexer's diagnostic cap.
  for (const std::string &Source :
       {std::string(1 << 20, '@'), [] {
          std::string S;
          for (int I = 0; I < 100000; ++I)
            S += "@ ";
          return S;
        }()}) {
    JsonValue V = rpc("{\"op\":\"compile\",\"id\":7,\"source\":\"" +
                      Source + "\"}");
    EXPECT_FALSE(V.member("ok")->boolValue());
    const JsonValue *Err = V.member("error");
    ASSERT_TRUE(Err);
    EXPECT_EQ(Err->member("code")->stringValue(), "parse-error");
    const JsonValue *Diags = Err->member("diagnostics");
    ASSERT_TRUE(Diags && Diags->isArray());
    EXPECT_GE(Diags->arrayValue().size(), 1u);
    EXPECT_LE(Diags->arrayValue().size(), 257u);
  }
  // The next frame is served.
  std::string H = compileHandle("double f(double x) { return x; }");
  EXPECT_EQ(H.size(), 16u);
}

TEST_F(ServerCoreTest, EvalArgumentForms) {
  std::string H =
      compileHandle("double f(double x, int n, double *a) {\n"
                    "  double s = x;\n"
                    "  for (int i = 0; i < n; ++i) s = s + a[i];\n"
                    "  return s;\n"
                    "}");
  JsonValue V = rpc(
      "{\"op\":\"eval\",\"handle\":\"" + H +
      "\",\"function\":\"f\",\"args\":[{\"lo\":1.0,\"hi\":2.0},"
      "{\"int\":2},{\"array\":[0.5,{\"hex\":\"3ff0000000000000\"}]}]}");
  ASSERT_TRUE(V.member("ok")->boolValue())
      << Core.handleFrame("{\"op\":\"stats\"}");
  EXPECT_DOUBLE_EQ(V.member("result")->member("lo")->numberValue(), 2.5);
  EXPECT_DOUBLE_EQ(V.member("result")->member("hi")->numberValue(), 3.5);
  // Array post-state ships back, in argument order.
  const JsonValue *Arrays = V.member("arrays");
  ASSERT_TRUE(Arrays && Arrays->isArray());
  ASSERT_EQ(Arrays->arrayValue().size(), 1u);
  EXPECT_EQ(Arrays->arrayValue()[0].arrayValue().size(), 2u);
}

TEST_F(ServerCoreTest, DotReplyDecimalsArePrintfSpellingsOfTheHexBits) {
  std::string H = compileHandle(
      "double dot(double a[64], double b[64]) {\n"
      "  double s = 0.0;\n"
      "  for (int i = 0; i < 64; i = i + 1) { s = s + a[i] * b[i]; }\n"
      "  return s;\n"
      "}");
  auto Hex = [](double D) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)Bits);
    return std::string(Buf);
  };
  // Two arrays of 64 seeded intervals whose endpoints span 80 binades.
  std::mt19937_64 G(13);
  std::string Frame = "{\"op\":\"eval\",\"handle\":\"" + H +
                      "\",\"function\":\"dot\",\"args\":[";
  for (int A = 0; A < 2; ++A) {
    Frame += A ? ",{\"array\":[" : "{\"array\":[";
    for (int I = 0; I < 64; ++I) {
      double Lo = std::ldexp(static_cast<double>(G() >> 11) * 0x1p-53 - 0.5,
                             static_cast<int>(G() % 80) - 40);
      double Hi = Lo + std::fabs(Lo) * 0x1p-30;
      Frame += (I ? ",{\"lo_hex\":\"" : "{\"lo_hex\":\"") + Hex(Lo) +
               "\",\"hi_hex\":\"" + Hex(Hi) + "\"}";
    }
    Frame += "]}";
  }
  Frame += "]}";

  JsonValue V = rpc(Frame);
  ASSERT_TRUE(V.member("ok")->boolValue());
  std::vector<const JsonValue *> Intervals = {V.member("result")};
  for (const JsonValue &Arr : V.member("arrays")->arrayValue())
    for (const JsonValue &I : Arr.arrayValue())
      Intervals.push_back(&I);
  ASSERT_EQ(Intervals.size(), 129u);
  for (const JsonValue *I : Intervals) {
    for (auto [Dec, HexKey] : {std::pair("lo", "lo_hex"),
                               std::pair("hi", "hi_hex")}) {
      uint64_t Bits = std::strtoull(
          I->member(HexKey)->stringValue().c_str(), nullptr, 16);
      double D;
      std::memcpy(&D, &Bits, sizeof(D));
      char Want[40];
      std::snprintf(Want, sizeof(Want), "%.17g", D);
      ASSERT_TRUE(I->member(Dec)->isNumber());
      // A number's stringValue() is its spelling in the reply.
      EXPECT_EQ(I->member(Dec)->stringValue(), Want) << Dec;
    }
  }
}

TEST_F(ServerCoreTest, EvalUnknownHandleAndBadHandle) {
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":"
                        "\"0000000000000000\",\"function\":\"f\"}"),
            "no-such-handle");
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"xyz\","
                        "\"function\":\"f\"}"),
            "bad-request");
}

TEST_F(ServerCoreTest, EvalErrorsAreTypedAndDoNotPoisonTheCore) {
  std::string H = compileHandle("double f(double *a, int n) "
                                "{ return a[n]; }");
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"" + H +
                        "\",\"function\":\"f\",\"args\":"
                        "[{\"array\":[1.0]},{\"int\":99}]}"),
            "out-of-bounds");
  // Still serving, same handle still resident.
  JsonValue V = rpc("{\"op\":\"eval\",\"handle\":\"" + H +
                    "\",\"function\":\"f\",\"args\":"
                    "[{\"array\":[1.0,2.0]},{\"int\":1}]}");
  EXPECT_TRUE(V.member("ok")->boolValue());
}

TEST_F(ServerCoreTest, PerRequestOptionOverrides) {
  const char *Src = "double f(double x) {\n"
                    "  double r = 0.0;\n"
                    "  if (x > 0.0) r = 1.0; else r = -1.0;\n"
                    "  return r;\n"
                    "}";
  std::string H = compileHandle(Src);
  // Default (exception policy): unknown branch is a typed error.
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"" + H +
                        "\",\"function\":\"f\",\"args\":"
                        "[{\"lo\":-1.0,\"hi\":1.0}]}"),
            "unknown-branch");
  // The branch policy is a compile option: an eval-time override is a
  // typed error naming it, and so is a reductions override.
  for (const char *Override : {"\"branch\":\"join\"", "\"reductions\":true"}) {
    JsonValue E = rpc("{\"op\":\"eval\",\"handle\":\"" + H +
                      "\",\"function\":\"f\",\"args\":"
                      "[{\"lo\":-1.0,\"hi\":1.0}],\"options\":{" +
                      Override + "}}");
    ASSERT_FALSE(E.member("ok")->boolValue()) << Override;
    EXPECT_EQ(E.member("error")->member("code")->stringValue(), "bad-option");
    EXPECT_NE(E.member("error")->member("message")->stringValue().find(
                  "compile option"),
              std::string::npos);
  }
  // The join hull comes from a program compiled with the join policy.
  std::string HJoin = compileHandle(Src, "\"branch\":\"join\"");
  JsonValue V = rpc("{\"op\":\"eval\",\"handle\":\"" + HJoin +
                    "\",\"function\":\"f\",\"args\":"
                    "[{\"lo\":-1.0,\"hi\":1.0}]}");
  ASSERT_TRUE(V.member("ok")->boolValue());
  EXPECT_DOUBLE_EQ(V.member("result")->member("lo")->numberValue(), -1.0);
  EXPECT_DOUBLE_EQ(V.member("result")->member("hi")->numberValue(), 1.0);
}

TEST_F(ServerCoreTest, AotExactMeansTheServedLoweringIsTheArtifacts) {
  const char *Src = "double k_iter(double x, double y, int n) {\n"
                    "  for (int i = 0; i < n; i++) {\n"
                    "    double xi = x;\n"
                    "    x = 1.0 - 1.05 * xi * xi + y;\n"
                    "    y = 0.3 * xi;\n"
                    "  }\n"
                    "  return x;\n"
                    "}";
  auto compileWith = [&](const std::string &Opts) {
    JsonValue V = rpc("{\"op\":\"compile\",\"source\":\"" +
                      jsonEscape(Src) + "\",\"options\":{" + Opts + "}}");
    EXPECT_TRUE(V.member("ok")->boolValue()) << Opts;
    return V.member("handle")->stringValue();
  };
  auto evalIter = [&](const std::string &H) {
    return rpc("{\"op\":\"eval\",\"handle\":\"" + H +
               "\",\"function\":\"k_iter\",\"args\":[0.3,0.24,"
               "{\"int\":45}]}");
  };
  // f64 --target=ss: exact at -O0 and, since the evaluator runs the -O
  // lowering, at -O too.
  JsonValue O0 = evalIter(compileWith("\"opt_level\":0,\"target\":\"ss\""));
  ASSERT_TRUE(O0.member("ok")->boolValue());
  EXPECT_TRUE(O0.member("aot_exact")->boolValue());
  JsonValue O1 = evalIter(compileWith("\"opt_level\":1,\"target\":\"ss\""));
  ASSERT_TRUE(O1.member("ok")->boolValue());
  EXPECT_TRUE(O1.member("aot_exact")->boolValue());
  // --tier: the artifact escalates on these inputs to a tighter meet that
  // the daemon never computes, so the served result is not the AOT one.
  JsonValue Tier = evalIter(
      compileWith("\"opt_level\":0,\"target\":\"ss\",\"tier\":true"));
  ASSERT_TRUE(Tier.member("ok")->boolValue());
  EXPECT_FALSE(Tier.member("aot_exact")->boolValue());
  // The SIMD-register library is not the artifact the scalar runtime is.
  JsonValue Sv = evalIter(compileWith("\"opt_level\":0,\"target\":\"sv\""));
  ASSERT_TRUE(Sv.member("ok")->boolValue());
  EXPECT_FALSE(Sv.member("aot_exact")->boolValue());
}

TEST_F(ServerCoreTest, AbortFenvPolicyIsRejected) {
  std::string H = compileHandle("double f(double x) { return x; }");
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"" + H +
                        "\",\"function\":\"f\",\"args\":[1.0],"
                        "\"options\":{\"fenv_policy\":\"abort\"}}"),
            "bad-option");
}

TEST_F(ServerCoreTest, StepLimitOverride) {
  std::string H = compileHandle("double f(double x) {\n"
                                "  while (x < 1.0e300) x = x + 0.0;\n"
                                "  return x;\n"
                                "}");
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"" + H +
                        "\",\"function\":\"f\",\"args\":[0.0],"
                        "\"options\":{\"step_limit\":5000}}"),
            "step-limit");
}

TEST_F(ServerCoreTest, StatsSchema) {
  compileHandle("double f(double x) { return x; }");
  JsonValue V = rpc("{\"op\":\"stats\"}");
  ASSERT_TRUE(V.member("ok")->boolValue());
  const JsonValue *S = V.member("stats");
  ASSERT_TRUE(S);
  EXPECT_DOUBLE_EQ(S->member("schema_version")->numberValue(), 2.0);
  EXPECT_EQ(S->member("report")->stringValue(), "igen_serve_stats");
  const JsonValue *Cache = S->member("cache");
  ASSERT_TRUE(Cache);
  EXPECT_DOUBLE_EQ(Cache->member("insertions")->numberValue(), 1.0);
  const JsonValue *Reqs = S->member("requests");
  ASSERT_TRUE(Reqs);
  EXPECT_DOUBLE_EQ(Reqs->member("compile")->member("count")->numberValue(),
                   1.0);
  ASSERT_TRUE(Reqs->member("health")); // v2 endpoint present from birth
  const JsonValue *Lat = S->member("latency_us");
  ASSERT_TRUE(Lat && Lat->member("compile"));
  const JsonValue *Buckets =
      Lat->member("compile")->member("log2_buckets");
  ASSERT_TRUE(Buckets && Buckets->isArray());
  EXPECT_EQ(Buckets->arrayValue().size(), 32u);
  double Sum = 0;
  for (const JsonValue &B : Buckets->arrayValue())
    Sum += B.numberValue();
  EXPECT_DOUBLE_EQ(Sum, 1.0); // one compile -> one bucket hit
  ASSERT_TRUE(S->member("evals"));
  ASSERT_TRUE(S->member("fenv"));
  // v2: resilience block, fresh core -> serving with zeroed counters.
  const JsonValue *Res = S->member("resilience");
  ASSERT_TRUE(Res && Res->isObject());
  EXPECT_EQ(Res->member("state")->stringValue(), "serving");
  // The stats request itself holds a heartbeat slot while rendering.
  EXPECT_GE(Res->member("in_flight")->numberValue(), 1.0);
  ASSERT_TRUE(Res->member("slowest_in_flight_us"));
  EXPECT_DOUBLE_EQ(Res->member("deadline_exceeded")->numberValue(), 0.0);
  EXPECT_DOUBLE_EQ(Res->member("retried")->numberValue(), 0.0);
  EXPECT_DOUBLE_EQ(Res->member("drained")->numberValue(), 0.0);
  EXPECT_DOUBLE_EQ(Res->member("cache_replayed")->numberValue(), 0.0);
}

TEST_F(ServerCoreTest, EvictByHandleAndAll) {
  std::string H1 = compileHandle("double f(double x) { return x; }");
  std::string H2 = compileHandle("double g(double x) { return x; }");
  JsonValue V = rpc("{\"op\":\"evict\",\"handle\":\"" + H1 + "\"}");
  EXPECT_DOUBLE_EQ(V.member("evicted")->numberValue(), 1.0);
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"" + H1 +
                        "\",\"function\":\"f\",\"args\":[1.0]}"),
            "no-such-handle");
  JsonValue V2 = rpc("{\"op\":\"evict\",\"all\":true}");
  EXPECT_DOUBLE_EQ(V2.member("evicted")->numberValue(), 1.0);
  (void)H2;
}

TEST_F(ServerCoreTest, LruCapAcrossProtocol) {
  // Capacity 8 (fixture): the 9th distinct program evicts the first.
  std::string First = compileHandle("double k0(double x) { return x; }");
  for (int I = 1; I <= 8; ++I)
    compileHandle("double k" + std::to_string(I) +
                  "(double x) { return x; }");
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"" + First +
                        "\",\"function\":\"k0\",\"args\":[1.0]}"),
            "no-such-handle");
  EXPECT_GE(Core.cache().stats().Evictions, 1u);
}

TEST_F(ServerCoreTest, ShutdownOp) {
  EXPECT_FALSE(Core.shutdownRequested());
  JsonValue V = rpc("{\"op\":\"shutdown\",\"id\":7}");
  EXPECT_TRUE(V.member("ok")->boolValue());
  EXPECT_DOUBLE_EQ(V.member("id")->numberValue(), 7.0);
  EXPECT_TRUE(Core.shutdownRequested());
}

//===----------------------------------------------------------------------===//
// Resilience: deadlines, drain, health, retry accounting, request log
//===----------------------------------------------------------------------===//

TEST_F(ServerCoreTest, DeadlineExceededOnRunawayEval) {
  std::string H = compileHandle("double f(double x) {\n"
                                "  while (x < 1.0e300) x = x + 1.0e-6;\n"
                                "  return x;\n"
                                "}");
  // A step limit far beyond what 50ms of interpretation can execute:
  // only the wall-clock deadline can stop this request.
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"" + H +
                        "\",\"function\":\"f\",\"args\":[0.0],"
                        "\"deadline_ms\":50,"
                        "\"options\":{\"step_limit\":4000000000}}"),
            "deadline-exceeded");
  JsonValue St = rpc("{\"op\":\"stats\"}");
  EXPECT_GE(St.member("stats")
                ->member("resilience")
                ->member("deadline_exceeded")
                ->numberValue(),
            1.0);
  // The worker survived: the same handle still evaluates. 2.0e300 sits
  // strictly above the outward-rounded interval of the 1.0e300 source
  // literal, so the loop condition is decidably false on entry.
  JsonValue V = rpc("{\"op\":\"eval\",\"handle\":\"" + H +
                    "\",\"function\":\"f\",\"args\":[2.0e300]}");
  EXPECT_TRUE(V.member("ok")->boolValue()) << Core.handleFrame(
      "{\"op\":\"eval\",\"handle\":\"" + H +
      "\",\"function\":\"f\",\"args\":[2.0e300]}");
}

TEST_F(ServerCoreTest, DeadlineCountsQueueTime) {
  // Deadlines are measured from frame *arrival*; a request that sat in
  // the admission queue past its budget is rejected before any work.
  std::string H = compileHandle("double f(double x) { return x; }");
  auto Stale =
      std::chrono::steady_clock::now() - std::chrono::seconds(10);
  std::string EvalLine =
      Core.handleFrame("{\"op\":\"eval\",\"handle\":\"" + H +
                           "\",\"function\":\"f\",\"args\":[1.0],"
                           "\"deadline_ms\":100}",
                       Stale);
  EXPECT_NE(EvalLine.find("deadline-exceeded"), std::string::npos)
      << EvalLine;
  std::string CompileLine = Core.handleFrame(
      "{\"op\":\"compile\",\"deadline_ms\":100,\"source\":\"double "
      "q(double x) { return x; }\"}",
      Stale);
  EXPECT_NE(CompileLine.find("deadline-exceeded"), std::string::npos)
      << CompileLine;
  // A cache hit is still served even past the deadline: answering from
  // the LRU is cheaper than rendering the error. Options must match the
  // original compile exactly — they are part of the cache hash.
  std::string HitLine = Core.handleFrame(
      "{\"op\":\"compile\",\"deadline_ms\":100,\"source\":\"double "
      "f(double x) { return x; }\","
      "\"options\":{\"opt_level\":0,\"target\":\"ss\"}}",
      Stale);
  JsonParseResult Hit = parseJson(HitLine);
  ASSERT_TRUE(Hit.Ok) << HitLine;
  EXPECT_TRUE(Hit.Value.member("ok")->boolValue()) << HitLine;
  ASSERT_TRUE(Hit.Value.member("cached")) << HitLine;
  EXPECT_TRUE(Hit.Value.member("cached")->boolValue()) << HitLine;
}

TEST_F(ServerCoreTest, BadDeadlineFieldIsTyped) {
  EXPECT_EQ(expectError("{\"op\":\"stats\",\"deadline_ms\":-5}"),
            "bad-request");
  EXPECT_EQ(expectError("{\"op\":\"stats\",\"deadline_ms\":\"soon\"}"),
            "bad-request");
}

TEST_F(ServerCoreTest, DrainGatesMutatingOpsButNotObservation) {
  std::string H = compileHandle("double f(double x) { return x; }");
  EXPECT_FALSE(Core.draining());
  Core.beginDrain();
  Core.beginDrain(); // idempotent
  EXPECT_TRUE(Core.draining());
  EXPECT_EQ(expectError("{\"op\":\"compile\",\"source\":\"double "
                        "g(double x) { return x; }\"}"),
            "shutting-down");
  EXPECT_EQ(expectError("{\"op\":\"eval\",\"handle\":\"" + H +
                        "\",\"function\":\"f\",\"args\":[1.0]}"),
            "shutting-down");
  EXPECT_EQ(expectError("{\"op\":\"evict\",\"all\":true}"),
            "shutting-down");
  // Observation and the final shutdown still work.
  JsonValue St = rpc("{\"op\":\"stats\"}");
  ASSERT_TRUE(St.member("ok")->boolValue());
  const JsonValue *Res = St.member("stats")->member("resilience");
  EXPECT_EQ(Res->member("state")->stringValue(), "draining");
  EXPECT_GE(Res->member("drained")->numberValue(), 3.0);
  JsonValue He = rpc("{\"op\":\"health\"}");
  ASSERT_TRUE(He.member("ok")->boolValue());
  EXPECT_EQ(He.member("state")->stringValue(), "draining");
  JsonValue Sh = rpc("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(Sh.member("ok")->boolValue());
  EXPECT_TRUE(Core.shutdownRequested());
}

TEST_F(ServerCoreTest, HealthReportsStateAndInFlight) {
  JsonValue V = rpc("{\"op\":\"health\",\"id\":\"h1\"}");
  ASSERT_TRUE(V.member("ok")->boolValue());
  EXPECT_EQ(V.member("id")->stringValue(), "h1");
  EXPECT_EQ(V.member("state")->stringValue(), "serving");
  // The probe itself holds a heartbeat slot while it renders.
  EXPECT_GE(V.member("in_flight")->numberValue(), 1.0);
  ASSERT_TRUE(V.member("slowest_in_flight_us"));
  ASSERT_TRUE(V.member("uptime_us"));
  // Idle again once the probe returned.
  ServerCore::InFlightSnapshot S = Core.inFlight();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.SlowestUs, 0u);
}

TEST_F(ServerCoreTest, RetryTagIsCountedNotSemantic) {
  const char *Src = "double f(double x) { return x; }";
  std::string Frame = std::string("{\"op\":\"compile\",\"retry\":1,"
                                  "\"source\":\"") +
                      jsonEscape(Src) + "\"}";
  JsonValue A = rpc(Frame);
  EXPECT_TRUE(A.member("ok")->boolValue());
  JsonValue B = rpc(Frame);
  EXPECT_TRUE(B.member("ok")->boolValue());
  EXPECT_TRUE(B.member("cached")->boolValue()); // handled identically
  JsonValue St = rpc("{\"op\":\"stats\"}");
  EXPECT_DOUBLE_EQ(St.member("stats")
                       ->member("resilience")
                       ->member("retried")
                       ->numberValue(),
                   2.0);
}

TEST(ServerCoreLogTest, RequestLogLinesAreSchemaValidJson) {
  char Tmpl[] = "/tmp/igen_serve_log_XXXXXX";
  int Fd = mkstemp(Tmpl);
  ASSERT_GE(Fd, 0);
  ::close(Fd);
  ServerCoreConfig Cfg;
  Cfg.CacheCapacity = 4;
  Cfg.LogPath = Tmpl;
  {
    ServerCore Core(Cfg);
    Core.handleFrame("{\"op\":\"compile\",\"source\":\"double f(double "
                     "x) { return x; }\"}");
    Core.handleFrame("{\"op\":\"stats\"}");
    Core.handleFrame("not json");
    Core.beginDrain();
    Core.handleFrame("{\"op\":\"compile\",\"source\":\"double g(double "
                     "x) { return x; }\"}");
  }
  std::ifstream In(Tmpl);
  ASSERT_TRUE(In.good());
  std::string Line;
  std::vector<std::string> Outcomes;
  size_t Events = 0;
  bool SawCompileHash = false;
  while (std::getline(In, Line)) {
    JsonParseResult R = parseJson(Line);
    ASSERT_TRUE(R.Ok) << "log line must be valid JSON: " << Line;
    ASSERT_TRUE(R.Value.isObject());
    ASSERT_TRUE(R.Value.member("ts_us")) << Line;
    const JsonValue *Kind = R.Value.member("kind");
    ASSERT_TRUE(Kind && Kind->isString()) << Line;
    if (Kind->stringValue() == "request") {
      ASSERT_TRUE(R.Value.member("verb")) << Line;
      ASSERT_TRUE(R.Value.member("latency_us")) << Line;
      ASSERT_TRUE(R.Value.member("outcome")) << Line;
      Outcomes.push_back(R.Value.member("outcome")->stringValue());
      const JsonValue *Hash = R.Value.member("hash");
      if (R.Value.member("verb")->stringValue() == "compile" && Hash &&
          Hash->stringValue().size() == 16)
        SawCompileHash = true;
    } else {
      EXPECT_EQ(Kind->stringValue(), "event") << Line;
      ASSERT_TRUE(R.Value.member("event")) << Line;
      ++Events;
    }
  }
  ASSERT_EQ(Outcomes.size(), 4u);
  EXPECT_EQ(Outcomes[0], "ok");
  EXPECT_EQ(Outcomes[1], "ok");
  EXPECT_EQ(Outcomes[2], "bad-json");
  EXPECT_EQ(Outcomes[3], "shutting-down");
  EXPECT_GE(Events, 1u); // at least drain_begin
  EXPECT_TRUE(SawCompileHash);
  std::remove(Tmpl);
}

//===----------------------------------------------------------------------===//
// Malformed-request robustness (satellite: garbage in, typed error out,
// keep serving)
//===----------------------------------------------------------------------===//

TEST_F(ServerCoreTest, MalformedFramesAllGetTypedErrors) {
  const char *Hostile[] = {
      "",
      "   ",
      "{",
      "}",
      "[]",
      "42",
      "\"just a string\"",
      "null",
      "{\"op\":\"compile\"}",                  // missing source
      "{\"op\":\"eval\"}",                     // missing handle
      "{\"op\":\"frobnicate\"}",               // unknown op
      "{\"op\":42}",                           // op wrong type
      "{\"source\":\"double f;\"}",            // missing op
      "{\"op\":\"compile\",\"source\":17}",    // source wrong type
      "{\"op\":\"compile\",\"source\":\"\",\"options\":[]}",
      "{\"op\":\"compile\",\"source\":\"\",\"options\":"
      "{\"precision\":\"f128\"}}",
      "{\"op\":\"eval\",\"handle\":\"0123456789abcdef\","
      "\"function\":\"f\",\"args\":\"not an array\"}",
      "{\"op\":\"eval\",\"handle\":\"0123456789abcdef\","
      "\"function\":\"f\",\"id\":{}}",         // id wrong type
      "{\"op\":\"compile\",\"source\":\"x\"",  // truncated JSON
      "{\"op\":\"compile\",\"source\":\"x\"}}",// trailing garbage
      "{\"op\" \"compile\"}",
      "\x01\x02\xff garbage bytes",
  };
  for (const char *Frame : Hostile) {
    std::string Code = expectError(Frame);
    EXPECT_FALSE(Code.empty()) << Frame;
    EXPECT_NE(Code, "internal-error") << Frame;
  }
  // After the whole battery the core still compiles and evaluates.
  std::string H = compileHandle("double f(double x) { return 2.0 * x; }");
  JsonValue V = rpc("{\"op\":\"eval\",\"handle\":\"" + H +
                    "\",\"function\":\"f\",\"args\":[4.0]}");
  ASSERT_TRUE(V.member("ok")->boolValue());
  EXPECT_DOUBLE_EQ(V.member("result")->member("lo")->numberValue(), 8.0);
}

TEST_F(ServerCoreTest, OversizedFrameIsTyped) {
  std::string Big = "{\"op\":\"compile\",\"source\":\"";
  Big += std::string(maxFrameBytes() + 100, 'x');
  Big += "\"}";
  EXPECT_EQ(expectError(Big), "frame-too-large");
}

TEST_F(ServerCoreTest, DeeplyNestedFrameIsBoundedNotCrashed) {
  std::string Deep = "{\"op\":\"compile\",\"source\":";
  for (int I = 0; I < 500; ++I)
    Deep += "[";
  for (int I = 0; I < 500; ++I)
    Deep += "]";
  Deep += "}";
  EXPECT_EQ(expectError(Deep), "bad-json");
}

TEST_F(ServerCoreTest, ErrorsCountInEndpointStats) {
  expectError("{\"op\":\"nope\"}");
  expectError("not json at all");
  JsonValue V = rpc("{\"op\":\"stats\"}");
  const JsonValue *Inv =
      V.member("stats")->member("requests")->member("invalid");
  ASSERT_TRUE(Inv);
  EXPECT_GE(Inv->member("count")->numberValue(), 2.0);
  EXPECT_GE(Inv->member("errors")->numberValue(), 2.0);
}

} // namespace
