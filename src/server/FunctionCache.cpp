//===- FunctionCache.cpp - Content-hashed compiled-program cache -------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/FunctionCache.h"

#include "support/EnvKnob.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

using namespace igen;
using namespace igen::server;

namespace {

constexpr uint64_t FnvOffset = 1469598103934665603ull;
constexpr uint64_t FnvPrime = 1099511628211ull;

void feed(uint64_t &H, std::string_view Bytes) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= FnvPrime;
  }
}

void feedTag(uint64_t &H, char Tag, long long V) {
  unsigned char Buf[9];
  Buf[0] = (unsigned char)Tag;
  for (int I = 0; I < 8; ++I)
    Buf[1 + I] = (unsigned char)((unsigned long long)V >> (8 * I));
  feed(H, std::string_view(reinterpret_cast<const char *>(Buf), 9));
}

} // namespace

uint64_t igen::server::hashCompileRequest(std::string_view Source,
                                          const TransformOptions &Opts) {
  uint64_t H = FnvOffset;
  feed(H, Source);
  feedTag(H, 'P', Opts.Prec == TransformOptions::Precision::DoubleDouble);
  feedTag(H, 'S', Opts.ScalarLibrary);
  feedTag(H, 'R', Opts.EnableReductions);
  feedTag(H, 'B', Opts.EnableBatchLoops);
  feedTag(H, 'J',
          Opts.Branches == TransformOptions::BranchPolicy::Join);
  feedTag(H, 'O', Opts.OptLevel);
  feedTag(H, 'F', Opts.Profile);
  feedTag(H, 'T', Opts.Tier);
  feedTag(H, 'H', Opts.Harden);
  // Headers/module names only change emitted-C cosmetics, but two
  // requests differing there should not share an artifact either.
  feedTag(H, 'h', 0);
  feed(H, Opts.RuntimeHeader);
  feedTag(H, 'm', 0);
  feed(H, Opts.ModuleName);
  return H;
}

std::string igen::server::formatHandle(uint64_t Hash) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                (unsigned long long)Hash);
  return Buf;
}

bool igen::server::parseHandle(std::string_view Text, uint64_t &Hash) {
  if (Text.size() != 16)
    return false;
  uint64_t H = 0;
  for (char C : Text) {
    unsigned D;
    if (C >= '0' && C <= '9')
      D = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = unsigned(C - 'a' + 10);
    else
      return false;
    H = (H << 4) | D;
  }
  Hash = H;
  return true;
}

long igen::server::cacheCapacityFromSpec(const char *Spec,
                                        std::string *Warning) {
  return (long)positiveKnobFromSpec("IGEN_SERVE_CACHE", Spec,
                                    "program count", 64, Warning);
}

FunctionCache::FunctionCache(long Capacity) {
  long C = Capacity;
  if (C <= 0) {
    std::string Warn;
    C = cacheCapacityFromSpec(std::getenv("IGEN_SERVE_CACHE"), &Warn);
    static std::atomic<bool> Warned{false};
    if (!Warn.empty() && !Warned.exchange(true))
      std::fprintf(stderr, "igen: serve: warning: %s\n", Warn.c_str());
  }
  Cap = (size_t)C;
  S.Capacity = Cap;
}

std::shared_ptr<const InMemoryProgram>
FunctionCache::lookup(uint64_t Hash, bool CountMiss) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(Hash);
  if (It == Index.end()) {
    if (CountMiss)
      ++S.Misses;
    return nullptr;
  }
  ++S.Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  return It->second->Prog;
}

void FunctionCache::insert(uint64_t Hash,
                           std::shared_ptr<const InMemoryProgram> Prog) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(Hash);
  if (It != Index.end()) {
    It->second->Prog = std::move(Prog);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.push_front(Entry{Hash, std::move(Prog)});
  Index[Hash] = Lru.begin();
  ++S.Insertions;
  evictOverflowLocked();
  S.Resident = Lru.size();
}

void FunctionCache::evictOverflowLocked() {
  while (Lru.size() > Cap) {
    uint64_t Victim = Lru.back().Hash;
    Index.erase(Victim);
    Lru.pop_back();
    ++S.Evictions;
    if (OnEvict)
      OnEvict(Victim);
  }
}

bool FunctionCache::evict(uint64_t Hash) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(Hash);
  if (It == Index.end())
    return false;
  Lru.erase(It->second);
  Index.erase(It);
  ++S.Evictions;
  S.Resident = Lru.size();
  if (OnEvict)
    OnEvict(Hash);
  return true;
}

size_t FunctionCache::clear() {
  std::lock_guard<std::mutex> G(M);
  size_t N = Lru.size();
  S.Evictions += N;
  if (OnEvict)
    for (const Entry &E : Lru)
      OnEvict(E.Hash);
  Lru.clear();
  Index.clear();
  S.Resident = 0;
  return N;
}

CacheStats FunctionCache::stats() const {
  std::lock_guard<std::mutex> G(M);
  CacheStats Out = S;
  Out.Resident = Lru.size();
  Out.Capacity = Cap;
  return Out;
}

std::vector<std::string> FunctionCache::residentHandles() const {
  std::lock_guard<std::mutex> G(M);
  std::vector<std::string> Out;
  Out.reserve(Lru.size());
  for (const Entry &E : Lru)
    Out.push_back(formatHandle(E.Hash));
  return Out;
}
