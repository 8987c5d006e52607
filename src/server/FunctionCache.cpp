//===- FunctionCache.cpp - Content-hashed compiled-program cache -------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "server/FunctionCache.h"

#include "support/Knobs.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

using namespace igen;
using namespace igen::server;

namespace {

/// Writes \p V as eight little-endian bytes at \p P; returns P + 8.
char *putWord(char *P, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    P[I] = static_cast<char>(V >> (8 * I));
  return P + 8;
}

char *putString(char *P, std::string_view S) {
  P = putWord(P, S.size());
  return std::copy(S.begin(), S.end(), P);
}

/// Reads eight bytes as a little-endian word, whatever the host.
uint64_t loadWord(const unsigned char *P) {
  uint64_t V;
  std::memcpy(&V, P, 8);
  if constexpr (std::endian::native == std::endian::big)
    V = __builtin_bswap64(V);
  return V;
}

/// Reads the last \p N < 8 bytes as a little-endian word.
uint64_t loadTail(const unsigned char *P, size_t N) {
  uint64_t V = 0;
  for (size_t I = 0; I < N; ++I)
    V |= static_cast<uint64_t>(P[I]) << (8 * I);
  return V;
}

constexpr uint64_t MulA = 0x9e3779b185ebca87ull;
constexpr uint64_t MulB = 0xc2b2ae3d27d4eb4full;

uint64_t rotl(uint64_t V, int R) { return (V << R) | (V >> (64 - R)); }

/// Folds one word into an accumulator (the xxHash64 round).
uint64_t hashRound(uint64_t Acc, uint64_t Word) {
  return rotl(Acc + Word * MulB, 31) * MulA;
}

} // namespace

std::string igen::server::compileRequestBytes(std::string_view Source,
                                              const TransformOptions &Opts) {
  // Headers/module names only change emitted-C cosmetics, but two
  // requests differing there should not share an artifact either.
  const std::string_view Header = Opts.RuntimeHeader;
  const std::string_view Module = Opts.ModuleName;
  static constexpr char Names[] = "PSRBJOFTH";
  const long long Tags[] = {
      Opts.Prec == TransformOptions::Precision::DoubleDouble,
      Opts.ScalarLibrary,
      Opts.EnableReductions,
      Opts.EnableBatchLoops,
      Opts.Branches == TransformOptions::BranchPolicy::Join,
      Opts.OptLevel,
      Opts.Profile,
      Opts.Tier,
      Opts.Harden};
  static_assert(sizeof(Tags) / sizeof(Tags[0]) == sizeof(Names) - 1);
  // Three length words, and a name byte and a word per option.
  std::string Out(Source.size() + Header.size() + Module.size() + 3 * 8 +
                      (sizeof(Names) - 1) * 9,
                  '\0');
  char *P = putString(Out.data(), Source);
  for (size_t I = 0; I + 1 < sizeof(Names); ++I) {
    *P++ = Names[I];
    P = putWord(P, static_cast<uint64_t>(Tags[I]));
  }
  putString(putString(P, Header), Module);
  return Out;
}

uint64_t igen::server::hashRequestBytes(std::string_view Bytes) {
  const auto *P = reinterpret_cast<const unsigned char *>(Bytes.data());
  const size_t N = Bytes.size();
  // Four lanes of 32-byte stripes keep four multiplies in flight; the
  // rest goes word by word through the merged accumulator.
  uint64_t Lane[4] = {MulA, MulB, ~MulA, ~MulB};
  size_t I = 0;
  for (; I + 32 <= N; I += 32)
    for (int L = 0; L < 4; ++L)
      Lane[L] = hashRound(Lane[L], loadWord(P + I + 8 * L));
  uint64_t H = N * MulA ^ rotl(Lane[0], 1) ^ rotl(Lane[1], 7) ^
               rotl(Lane[2], 12) ^ rotl(Lane[3], 18);
  for (; I + 8 <= N; I += 8)
    H = hashRound(H, loadWord(P + I));
  if (I < N)
    H = hashRound(H, loadTail(P + I, N - I));
  // Final avalanche (the murmur3 64-bit finalizer).
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return H;
}

uint64_t igen::server::hashCompileRequest(std::string_view Source,
                                          const TransformOptions &Opts) {
  return hashRequestBytes(compileRequestBytes(Source, Opts));
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

FunctionCache::FunctionCache(long Capacity) {
  Cap = Capacity > 0 ? (size_t)Capacity
                     : (size_t)knobInt(Knob::ServeCache);
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

FunctionCache::Probe FunctionCache::lookupRequest(uint64_t Hash,
                                                 std::string_view Request) {
  std::lock_guard<std::mutex> G(M);
  Probe Out;
  auto It = Index.find(Hash);
  if (It == Index.end() || It->second->Request != Request) {
    Out.Collision = It != Index.end();
    ++S.Misses;
    return Out;
  }
  ++S.Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  Out.Prog = It->second->Prog;
  return Out;
}

bool FunctionCache::insert(uint64_t Hash,
                           std::shared_ptr<const InMemoryProgram> Prog,
                           std::string Request) {
  std::lock_guard<std::mutex> G(M);
  auto It = Index.find(Hash);
  if (It != Index.end()) {
    if (It->second->Request != Request)
      return false;
    It->second->Prog = std::move(Prog);
    Lru.splice(Lru.begin(), Lru, It->second);
    return true;
  }
  Lru.push_front(Entry{Hash, std::move(Prog), std::move(Request)});
  Index[Hash] = Lru.begin();
  ++S.Insertions;
  evictOverflowLocked();
  S.Resident = Lru.size();
  return true;
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
