//===- FunctionCache.h - Content-hashed compiled-program cache --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's transaction store: each successful compile request
/// lands here as an immutable InMemoryProgram keyed by a content hash
/// of (source text, normalized compile options). Hits return the
/// cached handle without re-running any pipeline stage; a failed
/// compile never inserts anything, which is the whole rollback story —
/// the pipeline builds into a fresh ASTContext, so aborting a
/// transaction is dropping the unique_ptr.
///
/// Residency is bounded by an LRU cap (IGEN_SERVE_CACHE, default 64
/// programs). Entries are handed out as shared_ptr so an eval running
/// on one thread keeps its program alive even if another thread's
/// compile evicts it concurrently.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SERVER_FUNCTIONCACHE_H
#define IGEN_SERVER_FUNCTIONCACHE_H

#include "transform/Pipeline.h"

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace igen {
namespace server {

/// FNV-1a over the source and every semantically meaningful transform
/// option. Two requests collide only if they would compile to the very
/// same program.
uint64_t hashCompileRequest(std::string_view Source,
                            const TransformOptions &Opts);

/// Renders the hash the way the protocol spells handles: 16 lowercase
/// hex digits.
std::string formatHandle(uint64_t Hash);
/// Inverse of formatHandle; false if \p Text is not a 16-digit handle.
bool parseHandle(std::string_view Text, uint64_t &Hash);

/// Parses an IGEN_SERVE_CACHE spelling: a positive integer count of
/// resident programs. Null/empty selects the default of 64; unparsable or
/// non-positive values set *Warning and return the default.
long cacheCapacityFromSpec(const char *Spec, std::string *Warning);

struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Insertions = 0;
  size_t Resident = 0;
  size_t Capacity = 0;
};

class FunctionCache {
public:
  /// Observes every entry leaving residency — LRU overflow, explicit
  /// evict, and clear all fire it. The persistent cache layer uses this
  /// to keep on-disk entries in lockstep with the in-memory LRU. Called
  /// with the cache mutex held: the listener must not call back into
  /// the cache.
  using EvictionListener = std::function<void(uint64_t Hash)>;

  /// \p Capacity <= 0 selects the IGEN_SERVE_CACHE environment value,
  /// defaulting to 64 (a malformed value is warned about once).
  explicit FunctionCache(long Capacity = 0);

  /// Installs \p L (replacing any previous listener). Not thread-safe
  /// against concurrent cache traffic; set it during server setup.
  void setEvictionListener(EvictionListener L) { OnEvict = std::move(L); }

  /// Returns the program for \p Hash and refreshes its LRU position, or
  /// nullptr (counted as a miss only when \p CountMiss).
  std::shared_ptr<const InMemoryProgram> lookup(uint64_t Hash,
                                                bool CountMiss = true);

  /// Inserts a freshly compiled program, evicting LRU entries past the
  /// cap. Re-inserting an existing hash refreshes the entry.
  void insert(uint64_t Hash, std::shared_ptr<const InMemoryProgram> Prog);

  /// Drops one entry; false if it was not resident.
  bool evict(uint64_t Hash);
  /// Drops everything; returns how many entries were evicted.
  size_t clear();

  CacheStats stats() const;
  std::vector<std::string> residentHandles() const;

private:
  mutable std::mutex M;
  size_t Cap;
  // LRU list front = most recent. Map values point into the list.
  struct Entry {
    uint64_t Hash;
    std::shared_ptr<const InMemoryProgram> Prog;
  };
  std::list<Entry> Lru;
  std::unordered_map<uint64_t, std::list<Entry>::iterator> Index;
  CacheStats S;
  EvictionListener OnEvict;

  void evictOverflowLocked();
};

} // namespace server
} // namespace igen

#endif // IGEN_SERVER_FUNCTIONCACHE_H
