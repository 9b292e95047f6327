//===- gc/Heap.cpp --------------------------------------------*- C++ -*-===//

#include "gc/Heap.h"

#include <cassert>
#include <new>

using namespace gcsafe;
using namespace gcsafe::gc;

PageTable::~PageTable() {
  for (TopEntry *&Head : Top) {
    while (Head) {
      TopEntry *Next = Head->Next;
      delete Head;
      Head = Next;
    }
  }
}

PageTable::TopEntry *PageTable::findOrCreate(uintptr_t Key) {
  TopEntry *&Head = Top[hashKey(Key)];
  for (TopEntry *E = Head; E; E = E->Next)
    if (E->Key == Key)
      return E;
  // Table growth must not crash the process: a failed level-1 node
  // allocation surfaces as insert() == false and becomes a typed OOM in
  // the collector.
  auto *E = new (std::nothrow) TopEntry();
  if (!E)
    return nullptr;
  E->Key = Key;
  E->Next = Head;
  Head = E;
  ++EntryCount;
  CachedKey = ~uintptr_t(0);
  return E;
}

bool PageTable::insert(const void *PageAddr, PageDescriptor *Desc) {
  uintptr_t A = reinterpret_cast<uintptr_t>(PageAddr);
  assert((A & (PageSize - 1)) == 0 && "page address not aligned");
  if ((A & (PageSize - 1)) != 0)
    return false;
  uintptr_t Key = A >> (PageSizeLog + ChunkPagesLog);
  TopEntry *E = findOrCreate(Key);
  if (!E)
    return false;
  E->Pages[(A >> PageSizeLog) & (ChunkPages - 1)] = Desc;
  return true;
}

void PageTable::erase(const void *PageAddr) {
  uintptr_t A = reinterpret_cast<uintptr_t>(PageAddr);
  uintptr_t Key = A >> (PageSizeLog + ChunkPagesLog);
  TopEntry *E = Top[hashKey(Key)];
  while (E && E->Key != Key)
    E = E->Next;
  if (E)
    E->Pages[(A >> PageSizeLog) & (ChunkPages - 1)] = nullptr;
}
