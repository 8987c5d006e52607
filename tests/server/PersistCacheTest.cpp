//===- PersistCacheTest.cpp - Crash-recoverable cache journal tests -------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The journal under IGEN_SERVE_CACHE_DIR is the daemon's only durable
// state, so these tests pin its whole contract: replay reconstructs
// bit-identical programs from journaled inputs, corrupt and stale
// entries are skipped (never fatal), eviction keeps disk in lockstep
// with the LRU, replay respects the capacity bound, and a bad directory
// spec degrades to a memory-only daemon.
//
//===----------------------------------------------------------------------===//

#include "server/PersistCache.h"

#include "server/FunctionCache.h"
#include "server/ServerCore.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace igen;
using namespace igen::server;

namespace {

// Frees the temp dirs this process created (they are tiny; best effort
// so a failed assertion still leaves evidence behind). Only its own:
// ctest runs every case as its own process, in parallel, and sweeping by
// pattern would delete a directory another case is still using.
struct TempDirSweeper {
  std::vector<std::string> Dirs;
  ~TempDirSweeper() {
    for (const std::string &D : Dirs)
      (void)std::system(("rm -rf '" + D + "' 2>/dev/null").c_str());
  }
} Sweeper;

std::string makeTempDir() {
  char Tmpl[] = "/tmp/igen_persist_test_XXXXXX";
  const char *Dir = mkdtemp(Tmpl);
  EXPECT_NE(Dir, nullptr);
  if (Dir)
    Sweeper.Dirs.push_back(Dir);
  return Dir ? Dir : "";
}

std::vector<std::string> journalFiles(const std::string &Dir) {
  std::vector<std::string> Names;
  DIR *D = opendir(Dir.c_str());
  if (!D)
    return Names;
  while (struct dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (Name.size() > 6 && Name.substr(Name.size() - 6) == ".igenc")
      Names.push_back(Name);
  }
  closedir(D);
  return Names;
}

std::shared_ptr<const InMemoryProgram>
compileOne(const std::string &Source, const TransformOptions &Opts) {
  DiagnosticsEngine Diags;
  auto P = compileToProgram(Source, Opts, Diags);
  EXPECT_NE(P, nullptr);
  return std::shared_ptr<const InMemoryProgram>(std::move(P));
}

TransformOptions serveOptions() {
  TransformOptions Opts;
  Opts.OptLevel = 0;
  Opts.ScalarLibrary = true;
  Opts.SourceName = "<serve>";
  return Opts;
}

TEST(PersistCacheTest, RoundTripReplaysBitIdenticalPrograms) {
  std::string Dir = makeTempDir();
  const std::string SrcA = "double f(double x) { return x * x + 1.0; }\n";
  const std::string SrcB =
      "double g(double x, double y) { return x / (y + 2.0); }\n";
  TransformOptions Opts = serveOptions();

  uint64_t HashA = hashCompileRequest(SrcA, Opts);
  uint64_t HashB = hashCompileRequest(SrcB, Opts);
  std::shared_ptr<const InMemoryProgram> ProgA = compileOne(SrcA, Opts);
  std::shared_ptr<const InMemoryProgram> ProgB = compileOne(SrcB, Opts);

  {
    PersistentCacheDir P(Dir);
    ASSERT_TRUE(P.enabled());
    P.persist(HashA, SrcA, Opts);
    P.persist(HashB, SrcB, Opts);
  }
  EXPECT_EQ(journalFiles(Dir).size(), 2u);

  // A fresh journal object (a restarted process) replays both entries
  // through the ordinary pipeline.
  FunctionCache Cache(8);
  PersistentCacheDir P2(Dir);
  PersistentCacheDir::ReplayStats RS = P2.replay(Cache, 8);
  EXPECT_EQ(RS.Replayed, 2u);
  EXPECT_EQ(RS.Skipped, 0u);

  std::shared_ptr<const InMemoryProgram> GotA = Cache.lookup(HashA);
  std::shared_ptr<const InMemoryProgram> GotB = Cache.lookup(HashB);
  ASSERT_TRUE(GotA && GotB);
  // Bit-identical reconstruction: replay recompiles the same inputs, so
  // the emitted artifact matches byte for byte.
  EXPECT_EQ(GotA->EmittedC, ProgA->EmittedC);
  EXPECT_EQ(GotB->EmittedC, ProgB->EmittedC);
  // Replayed entries keep their request bytes: a compile of A hits.
  EXPECT_EQ(Cache.lookupRequest(HashA, compileRequestBytes(SrcA, Opts)).Prog,
            GotA);
}

/// The handle the daemon used before request bytes keyed the cache:
/// FNV-1a over the source and the tagged options.
uint64_t oldFnvHandle(const std::string &Src, const TransformOptions &O) {
  uint64_t H = 1469598103934665603ull;
  auto Feed = [&](std::string_view Bytes) {
    for (unsigned char C : Bytes) {
      H ^= C;
      H *= 1099511628211ull;
    }
  };
  auto Tag = [&](char T, long long V) {
    std::string B(1, T);
    for (int I = 0; I < 8; ++I)
      B.push_back(static_cast<char>((unsigned long long)V >> (8 * I)));
    Feed(B);
  };
  Feed(Src);
  Tag('P', O.Prec == TransformOptions::Precision::DoubleDouble);
  Tag('S', O.ScalarLibrary);
  Tag('R', O.EnableReductions);
  Tag('B', O.EnableBatchLoops);
  Tag('J', O.Branches == TransformOptions::BranchPolicy::Join);
  Tag('O', O.OptLevel);
  Tag('F', O.Profile);
  Tag('T', O.Tier);
  Tag('H', O.Harden);
  Tag('h', 0);
  Feed(O.RuntimeHeader);
  Tag('m', 0);
  Feed(O.ModuleName);
  return H;
}

TEST(PersistCacheTest, EntriesJournaledUnderTheOldHashAreStale) {
  // A journal written before the hash change names its entries by the
  // old FNV-1a handle: replay skips them with the stale-entry warning
  // and compiles nothing.
  std::string Dir = makeTempDir();
  const std::string Src = "double f(double x) { return x + 1.0; }\n";
  TransformOptions Opts = serveOptions();
  const uint64_t Hash = hashCompileRequest(Src, Opts);
  const uint64_t Old = oldFnvHandle(Src, Opts);
  ASSERT_NE(Hash, Old);
  {
    PersistentCacheDir P(Dir);
    P.persist(Hash, Src, Opts);
  }
  ASSERT_EQ(std::rename((Dir + "/" + formatHandle(Hash) + ".igenc").c_str(),
                        (Dir + "/" + formatHandle(Old) + ".igenc").c_str()),
            0);
  FunctionCache Cache(8);
  PersistentCacheDir P2(Dir);
  PersistentCacheDir::ReplayStats RS = P2.replay(Cache, 8);
  EXPECT_EQ(RS.Replayed, 0u);
  EXPECT_EQ(RS.Skipped, 1u);
  EXPECT_EQ(Cache.stats().Resident, 0u);
}

TEST(PersistCacheTest, CorruptAndStaleEntriesAreSkippedNotFatal) {
  std::string Dir = makeTempDir();
  const std::string Src = "double f(double x) { return x + 1.0; }\n";
  TransformOptions Opts = serveOptions();
  uint64_t Hash = hashCompileRequest(Src, Opts);
  PersistentCacheDir P(Dir);
  P.persist(Hash, Src, Opts);

  // Corrupt: truncated JSON under a plausible name.
  {
    std::ofstream Out(Dir + "/0123456789abcdef.igenc");
    Out << "{\"schema\":1,\"hash\":\"0123456789abcd";
  }
  // Stale: well-formed, but the stored inputs no longer hash to the
  // filename (as after a hash-function or option-normalization change).
  {
    std::string Good;
    {
      std::ifstream In(Dir + "/" + formatHandle(Hash) + ".igenc");
      std::getline(In, Good, '\0');
    }
    ASSERT_FALSE(Good.empty());
    std::ofstream Out(Dir + "/fedcba9876543210.igenc");
    Out << Good;
  }
  // Not-an-entry noise the scanner must ignore outright.
  {
    std::ofstream Out(Dir + "/README.txt");
    Out << "not a journal entry\n";
  }

  FunctionCache Cache(8);
  PersistentCacheDir P2(Dir);
  PersistentCacheDir::ReplayStats RS = P2.replay(Cache, 8);
  EXPECT_EQ(RS.Replayed, 1u);
  EXPECT_EQ(RS.Skipped, 2u);
  EXPECT_TRUE(Cache.lookup(Hash));
  EXPECT_EQ(Cache.stats().Resident, 1u);
}

TEST(PersistCacheTest, EvictionUnlinksJournalEntry) {
  std::string Dir = makeTempDir();
  TransformOptions Opts = serveOptions();
  FunctionCache Cache(2);
  PersistentCacheDir P(Dir);
  Cache.setEvictionListener([&P](uint64_t Hash) { P.remove(Hash); });

  std::vector<uint64_t> Hashes;
  for (int I = 0; I < 3; ++I) {
    std::string Src = "double k" + std::to_string(I) +
                      "(double x) { return x; }\n";
    uint64_t Hash = hashCompileRequest(Src, Opts);
    Cache.insert(Hash, compileOne(Src, Opts));
    P.persist(Hash, Src, Opts);
    Hashes.push_back(Hash);
  }
  // Capacity 2: inserting the 3rd evicted the 1st, whose journal entry
  // must be gone; the two resident entries are still on disk.
  std::vector<std::string> Files = journalFiles(Dir);
  EXPECT_EQ(Files.size(), 2u);
  for (const std::string &Name : Files)
    EXPECT_NE(Name, formatHandle(Hashes[0]) + ".igenc");

  // Explicit evict and clear() mirror to disk the same way.
  EXPECT_TRUE(Cache.evict(Hashes[1]));
  EXPECT_EQ(journalFiles(Dir).size(), 1u);
  Cache.clear();
  EXPECT_EQ(journalFiles(Dir).size(), 0u);
}

TEST(PersistCacheTest, ReplayRespectsCapacityBoundNewestFirst) {
  std::string Dir = makeTempDir();
  TransformOptions Opts = serveOptions();
  PersistentCacheDir P(Dir);
  std::vector<uint64_t> Hashes;
  for (int I = 0; I < 4; ++I) {
    std::string Src = "double k" + std::to_string(I) +
                      "(double x) { return x; }\n";
    uint64_t Hash = hashCompileRequest(Src, Opts);
    P.persist(Hash, Src, Opts);
    Hashes.push_back(Hash);
    // Distinct mtimes so "newest" is well defined on coarse filesystems.
    std::string Path = Dir + "/" + formatHandle(Hash) + ".igenc";
    struct stat St;
    ASSERT_EQ(stat(Path.c_str(), &St), 0);
    struct timespec Times[2];
    Times[0] = St.st_atim;
    Times[1].tv_sec = St.st_mtim.tv_sec + I + 1;
    Times[1].tv_nsec = 0;
    ASSERT_EQ(utimensat(AT_FDCWD, Path.c_str(), Times, 0), 0);
  }

  FunctionCache Cache(2);
  PersistentCacheDir P2(Dir);
  PersistentCacheDir::ReplayStats RS = P2.replay(Cache, 2);
  EXPECT_EQ(RS.Replayed, 2u);
  // Only the two newest entries were considered; older files stay on
  // disk untouched for a larger-capacity restart.
  EXPECT_TRUE(Cache.lookup(Hashes[2]));
  EXPECT_TRUE(Cache.lookup(Hashes[3]));
  EXPECT_FALSE(Cache.lookup(Hashes[0]));
  EXPECT_EQ(journalFiles(Dir).size(), 4u);
}

TEST(PersistCacheTest, ServerCoreWarmRestartServesFromReplayedCache) {
  std::string Dir = makeTempDir();
  ServerCoreConfig Cfg;
  Cfg.CacheCapacity = 8;
  Cfg.CacheDir = Dir;
  const std::string Frame =
      "{\"op\":\"compile\",\"source\":\"double f(double x) { return x + "
      "1.0; }\",\"options\":{\"opt_level\":0,\"target\":\"ss\"}}";
  std::string ColdResp;
  {
    ServerCore First(Cfg);
    EXPECT_EQ(First.cacheReplayed(), 0u);
    ColdResp = First.handleFrame(Frame);
    EXPECT_NE(ColdResp.find("\"handle\""), std::string::npos);
  }
  // "Restart": a fresh core over the same directory replays the journal
  // and answers the same request from cache, with the same handle.
  ServerCore Second(Cfg);
  EXPECT_EQ(Second.cacheReplayed(), 1u);
  std::string WarmResp = Second.handleFrame(Frame);
  EXPECT_NE(WarmResp.find("\"cached\": true"), std::string::npos)
      << WarmResp;
  // Identical responses modulo the cached flag: same handle, same
  // function list, same emitted size.
  std::string ColdNorm = ColdResp;
  size_t Pos = ColdNorm.find("\"cached\": false");
  ASSERT_NE(Pos, std::string::npos) << ColdResp;
  ColdNorm.replace(Pos, 15, "\"cached\": true");
  EXPECT_EQ(ColdNorm, WarmResp);
}

TEST(PersistCacheTest, CacheDirSpecValidation) {
  std::string Warning;
  EXPECT_EQ(cacheDirFromSpec(nullptr, &Warning), "");
  EXPECT_TRUE(Warning.empty());
  EXPECT_EQ(cacheDirFromSpec("", &Warning), "");
  EXPECT_TRUE(Warning.empty());

  // A fresh path one level deep is created.
  std::string Dir = makeTempDir();
  std::string Sub = Dir + "/cache";
  EXPECT_EQ(cacheDirFromSpec(Sub.c_str(), &Warning), Sub);
  EXPECT_TRUE(Warning.empty());
  struct stat St;
  EXPECT_EQ(stat(Sub.c_str(), &St), 0);
  EXPECT_TRUE(S_ISDIR(St.st_mode));

  // A path whose parent is missing cannot be created: warn, disable.
  std::string Deep = Dir + "/no/such/parent";
  EXPECT_EQ(cacheDirFromSpec(Deep.c_str(), &Warning), "");
  EXPECT_FALSE(Warning.empty());

  // An existing non-directory: warn, disable.
  Warning.clear();
  std::string File = Dir + "/plainfile";
  { std::ofstream Out(File); Out << "x"; }
  EXPECT_EQ(cacheDirFromSpec(File.c_str(), &Warning), "");
  EXPECT_FALSE(Warning.empty());
}

} // namespace
