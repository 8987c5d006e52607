//===- FunctionCache.h - Content-hashed compiled-program cache --*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's transaction store: each successful compile request
/// lands here as an immutable InMemoryProgram keyed by a content hash
/// of its request bytes (source text, normalized compile options). An
/// entry keeps those bytes, and a compile hit compares them, so two
/// requests never share a program through a hash collision. Hits
/// return the cached handle without re-running any pipeline stage; a failed
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

/// The canonical bytes of a compile request: the source and every
/// semantically meaningful transform option, each length-prefixed or
/// fixed-size. Two requests have equal bytes iff they compile to the
/// very same program.
std::string compileRequestBytes(std::string_view Source,
                                const TransformOptions &Opts);

/// A fixed, seedless 64-bit hash of \p Bytes that consumes eight bytes
/// per step: the same value in every process and on every run.
uint64_t hashRequestBytes(std::string_view Bytes);

/// hashRequestBytes(compileRequestBytes(Source, Opts)): the handle of a
/// compile request.
uint64_t hashCompileRequest(std::string_view Source,
                            const TransformOptions &Opts);

/// Renders the hash the way the protocol spells handles: 16 lowercase
/// hex digits.
std::string formatHandle(uint64_t Hash);
/// Inverse of formatHandle; false if \p Text is not a 16-digit handle.
bool parseHandle(std::string_view Text, uint64_t &Hash);

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

  /// \p Capacity <= 0 selects IGEN_SERVE_CACHE from the knob table
  /// (default 64).
  explicit FunctionCache(long Capacity = 0);

  /// Installs \p L (replacing any previous listener). Not thread-safe
  /// against concurrent cache traffic; set it during server setup.
  void setEvictionListener(EvictionListener L) { OnEvict = std::move(L); }

  /// Returns the program for \p Hash and refreshes its LRU position, or
  /// nullptr (counted as a miss only when \p CountMiss).
  std::shared_ptr<const InMemoryProgram> lookup(uint64_t Hash,
                                                bool CountMiss = true);

  /// What a compile-path lookup found.
  struct Probe {
    /// The program, when \p Hash is resident with the same request
    /// bytes (a hit).
    std::shared_ptr<const InMemoryProgram> Prog;
    /// \p Hash is resident with other request bytes: no program is
    /// shared, and the request cannot get this handle.
    bool Collision = false;
  };
  /// The compile path's lookup: a hit needs the hash and the entry's
  /// request bytes to match. A miss or collision counts as a miss.
  Probe lookupRequest(uint64_t Hash, std::string_view Request);

  /// Inserts a freshly compiled program with its request bytes, evicting
  /// LRU entries past the cap. Re-inserting an existing hash with the
  /// same bytes refreshes the entry; with other bytes it changes nothing
  /// and returns false (the handle belongs to the resident request).
  bool insert(uint64_t Hash, std::shared_ptr<const InMemoryProgram> Prog,
              std::string Request = {});

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
    std::string Request;
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
