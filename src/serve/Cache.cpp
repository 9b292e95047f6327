//===- serve/Cache.cpp ----------------------------------------*- C++ -*-===//

#include "serve/Cache.h"

#include "support/Interleave.h"

using namespace gcsafe;
using namespace gcsafe::serve;

bool ContentCache::lookup(const std::string &Key, std::string &Out,
                          bool CountMiss) {
  // The gap between a miss here and the caller's single-flight election
  // is where a duplicate compile would sneak in; the schedule fuzzer
  // widens it on demand (tests/test_race.cpp).
  GCSAFE_INTERLEAVE_POINT("serve.cache.lookup");
  support::RankedGuard Lock(Mu);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    Misses += CountMiss;
    return false;
  }
  ++Hits;
  Lru.splice(Lru.begin(), Lru, It->second);
  Out = It->second->second;
  return true;
}

bool ContentCache::contains(const std::string &Key) const {
  support::RankedGuard Lock(Mu);
  return Map.count(Key) != 0;
}

void ContentCache::insert(const std::string &Key, std::string Payload) {
  GCSAFE_INTERLEAVE_POINT("serve.cache.insert");
  support::RankedGuard Lock(Mu);
  if (Map.count(Key))
    return; // content-addressed: an existing entry is already this value
  while (Map.size() >= MaxEntries) {
    Entry &Victim = Lru.back();
    Bytes -= Victim.second.size();
    Map.erase(Victim.first);
    Lru.pop_back();
    ++Evictions;
  }
  Bytes += Payload.size();
  Lru.emplace_front(Key, std::move(Payload));
  Map[Key] = Lru.begin();
  ++Insertions;
}

CacheStats ContentCache::stats() const {
  support::RankedGuard Lock(Mu);
  CacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Insertions = Insertions;
  S.Evictions = Evictions;
  S.Entries = Map.size();
  S.Bytes = Bytes;
  return S;
}

void ContentCache::clear() {
  support::RankedGuard Lock(Mu);
  Lru.clear();
  Map.clear();
  Bytes = 0;
}
