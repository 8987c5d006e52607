//===- FunctionCacheTest.cpp - Content-hash cache + transaction tests ---------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/FunctionCache.h"

#include "transform/Pipeline.h"

#include <gtest/gtest.h>

using namespace igen;
using namespace igen::server;

namespace {

std::shared_ptr<const InMemoryProgram> makeProgram(const char *Source) {
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  Opts.OptLevel = 0;
  Opts.ScalarLibrary = true;
  auto P = compileToProgram(Source, Opts, Diags);
  EXPECT_TRUE(P) << Diags.render("<test>");
  return std::shared_ptr<const InMemoryProgram>(std::move(P));
}

TEST(CompileHash, OptionsAreSemanticallySignificant) {
  TransformOptions A;
  uint64_t Base = hashCompileRequest("double f(double x){return x;}", A);
  EXPECT_NE(Base, hashCompileRequest("double g(double x){return x;}", A));

  TransformOptions B = A;
  B.OptLevel = 0;
  EXPECT_NE(Base, hashCompileRequest("double f(double x){return x;}", B));
  B = A;
  B.Prec = TransformOptions::Precision::DoubleDouble;
  EXPECT_NE(Base, hashCompileRequest("double f(double x){return x;}", B));
  B = A;
  B.Branches = TransformOptions::BranchPolicy::Join;
  EXPECT_NE(Base, hashCompileRequest("double f(double x){return x;}", B));
  B = A;
  B.EnableReductions = true;
  EXPECT_NE(Base, hashCompileRequest("double f(double x){return x;}", B));

  // SourceName is report cosmetics only; it must NOT split the cache.
  B = A;
  B.SourceName = "elsewhere.c";
  EXPECT_EQ(Base, hashCompileRequest("double f(double x){return x;}", B));
}

TEST(CompileHash, RequestBytesDecideAndTheHashIsFixed) {
  // The bytes are injective: moving a byte between the source and an
  // option string changes them. The hash of given bytes is a constant of
  // the implementation, the same in every process.
  TransformOptions A;
  TransformOptions B = A;
  B.ModuleName = "m";
  EXPECT_NE(compileRequestBytes("x", A), compileRequestBytes("", B));
  EXPECT_EQ(hashCompileRequest("x", A),
            hashRequestBytes(compileRequestBytes("x", A)));
  EXPECT_NE(hashRequestBytes(""), hashRequestBytes(std::string(1, '\0')));
  EXPECT_NE(hashRequestBytes("abcdefgh"), hashRequestBytes("abcdefgi"));
  EXPECT_EQ(formatHandle(hashRequestBytes("igen")), "12d403fee5dce517");
  // 73 bytes: two 32-byte stripes, a whole word and a tail.
  EXPECT_EQ(formatHandle(hashRequestBytes(std::string(73, 'x'))),
            "25c679430bb82792");
}

TEST(FunctionCache, CollidingRequestsShareNoProgram) {
  // Two requests forced onto one hash: the second neither hits the
  // first's program nor replaces it.
  FunctionCache Cache(4);
  auto PA = makeProgram("double f(double x) { return x; }");
  auto PB = makeProgram("double g(double x) { return x; }");
  ASSERT_TRUE(Cache.insert(42, PA, "request A"));
  FunctionCache::Probe Hit = Cache.lookupRequest(42, "request A");
  EXPECT_EQ(Hit.Prog, PA);
  EXPECT_FALSE(Hit.Collision);
  FunctionCache::Probe Clash = Cache.lookupRequest(42, "request B");
  EXPECT_EQ(Clash.Prog, nullptr);
  EXPECT_TRUE(Clash.Collision);
  EXPECT_FALSE(Cache.insert(42, PB, "request B"));
  EXPECT_EQ(Cache.lookup(42), PA);
  FunctionCache::Probe Miss = Cache.lookupRequest(43, "request B");
  EXPECT_EQ(Miss.Prog, nullptr);
  EXPECT_FALSE(Miss.Collision);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(S.Insertions, 1u);
}

TEST(CompileHash, HandleRoundTrip) {
  uint64_t H = 0x0123456789abcdefull;
  std::string Text = formatHandle(H);
  EXPECT_EQ(Text, "0123456789abcdef");
  uint64_t Back = 0;
  ASSERT_TRUE(parseHandle(Text, Back));
  EXPECT_EQ(Back, H);

  uint64_t Sink;
  EXPECT_FALSE(parseHandle("0123", Sink));
  EXPECT_FALSE(parseHandle("0123456789ABCDEF", Sink)); // uppercase
  EXPECT_FALSE(parseHandle("0123456789abcdeg", Sink));
}

TEST(FunctionCache, LruEvictsOldest) {
  FunctionCache Cache(2);
  auto P = makeProgram("double f(double x) { return x; }");
  Cache.insert(1, P);
  Cache.insert(2, P);
  Cache.insert(3, P); // evicts 1
  EXPECT_EQ(Cache.lookup(1), nullptr);
  EXPECT_NE(Cache.lookup(2), nullptr);
  EXPECT_NE(Cache.lookup(3), nullptr);

  // Touch 2 so 3 becomes least-recent; inserting 4 then evicts 3.
  (void)Cache.lookup(2);
  Cache.insert(4, P);
  EXPECT_NE(Cache.lookup(2), nullptr);
  EXPECT_EQ(Cache.lookup(3), nullptr);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Evictions, 2u);
  EXPECT_EQ(S.Resident, 2u);
  EXPECT_EQ(S.Capacity, 2u);
}

TEST(FunctionCache, StatsCountHitsAndMisses) {
  FunctionCache Cache(4);
  auto P = makeProgram("double f(double x) { return x; }");
  EXPECT_EQ(Cache.lookup(7), nullptr);
  Cache.insert(7, P);
  EXPECT_NE(Cache.lookup(7), nullptr);
  EXPECT_NE(Cache.lookup(7, /*CountMiss=*/false), nullptr);
  EXPECT_EQ(Cache.lookup(8, /*CountMiss=*/false), nullptr);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, 1u); // the uncounted probe stays uncounted
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Insertions, 1u);
}

TEST(FunctionCache, EvictAndClear) {
  FunctionCache Cache(8);
  auto P = makeProgram("double f(double x) { return x; }");
  Cache.insert(1, P);
  Cache.insert(2, P);
  EXPECT_TRUE(Cache.evict(1));
  EXPECT_FALSE(Cache.evict(1));
  EXPECT_EQ(Cache.clear(), 1u);
  EXPECT_EQ(Cache.stats().Resident, 0u);
}

TEST(FunctionCache, SharedOwnershipSurvivesEviction) {
  FunctionCache Cache(1);
  auto P = makeProgram("double f(double x) { return x + 1.0; }");
  Cache.insert(1, P);
  std::shared_ptr<const InMemoryProgram> Held = Cache.lookup(1);
  ASSERT_NE(Held, nullptr);
  Cache.insert(2, makeProgram("double g(double x) { return x; }"));
  EXPECT_EQ(Cache.lookup(1), nullptr); // evicted...
  EXPECT_FALSE(Held->EmittedC.empty()); // ...but the in-flight user is fine
  EXPECT_NE(Held->Ast, nullptr);
}

TEST(CompileTransaction, FailureLeavesNoState) {
  // A failing compile returns nullptr and the caller never inserts:
  // daemon state after a failed transaction is exactly the state before.
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  auto P = compileToProgram("double f(double x) { return y; }", Opts, Diags);
  EXPECT_EQ(P, nullptr);
  EXPECT_TRUE(Diags.hasErrors());

  // The same engine (and the same thread) immediately compiles a good
  // program: no poisoned global state.
  Diags.clear();
  auto Q = compileToProgram("double f(double x) { return x; }", Opts, Diags);
  EXPECT_NE(Q, nullptr);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(CompileTransaction, FailedStageIsReported) {
  DiagnosticsEngine Diags;
  TransformOptions Opts;
  PipelineStage Stage = PipelineStage::None;
  EXPECT_EQ(compileToProgram("double f(", Opts, Diags, nullptr, &Stage),
            nullptr);
  EXPECT_EQ(Stage, PipelineStage::Parse);

  Diags.clear();
  Stage = PipelineStage::None;
  EXPECT_EQ(compileToProgram("double f(double x) { return q; }", Opts,
                             Diags, nullptr, &Stage),
            nullptr);
  EXPECT_EQ(Stage, PipelineStage::Sema);
}

} // namespace
