//===- serve/Cache.h - Content-addressed response cache --------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service's content-addressed cache (docs/SERVING.md). Keys
/// are stable content hashes (support/Hash.h) of preprocessed source +
/// mode + canonical flag string; values are the full serialized cold
/// response payload, replayed verbatim on a hit — which is what makes a
/// warm response byte-identical to the cold one it memoizes. Eviction is
/// LRU with a fixed entry cap. Thread-safe: one instance is shared by
/// every worker of a CompileService; all state is guarded by a ranked
/// mutex (support/RankedMutex.h) and annotated for Clang's thread-safety
/// analysis (docs/ANALYSIS.md §"Concurrency checking").
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SERVE_CACHE_H
#define GCSAFE_SERVE_CACHE_H

#include "support/RankedMutex.h"

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

namespace gcsafe {
namespace serve {

struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Insertions = 0;
  uint64_t Evictions = 0;
  uint64_t Entries = 0;
  uint64_t Bytes = 0; ///< Sum of cached payload sizes (keys excluded).
};

/// LRU map from cache key to serialized response payload.
class ContentCache {
public:
  explicit ContentCache(size_t MaxEntries = 1024)
      : MaxEntries(MaxEntries ? MaxEntries : 1) {}

  /// True on a hit; copies the payload into \p Out and marks the entry
  /// most-recently-used. A miss is counted only with \p CountMiss, so a
  /// caller that probes ahead of a later counted probe (the service's
  /// admission probe) counts each request once.
  bool lookup(const std::string &Key, std::string &Out, bool CountMiss = true);

  /// Whether \p Key is present. Uncounted, and it leaves the LRU order
  /// alone.
  bool contains(const std::string &Key) const;

  /// Records \p Payload under \p Key (no-op if the key is already
  /// present), evicting the least-recently-used entry when full.
  void insert(const std::string &Key, std::string Payload);

  CacheStats stats() const;
  void clear();

private:
  using Entry = std::pair<std::string, std::string>; // key, payload
  mutable support::RankedMutex Mu{support::LockRank::ServeCache,
                                  "serve.cache"};
  /// Front = most recently used.
  std::list<Entry> Lru GCSAFE_GUARDED_BY(Mu);
  std::unordered_map<std::string, std::list<Entry>::iterator>
      Map GCSAFE_GUARDED_BY(Mu);
  size_t MaxEntries;
  uint64_t Bytes GCSAFE_GUARDED_BY(Mu) = 0;
  uint64_t Hits GCSAFE_GUARDED_BY(Mu) = 0, Misses GCSAFE_GUARDED_BY(Mu) = 0,
           Insertions GCSAFE_GUARDED_BY(Mu) = 0,
           Evictions GCSAFE_GUARDED_BY(Mu) = 0;
};

} // namespace serve
} // namespace gcsafe

#endif // GCSAFE_SERVE_CACHE_H
