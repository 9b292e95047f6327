//===- support/Arena.cpp --------------------------------------*- C++ -*-===//

#include "support/Arena.h"

#include <cassert>
#include <cstdlib>

using namespace gcsafe;

Arena::~Arena() {
  for (auto It = Dtors.rbegin(); It != Dtors.rend(); ++It)
    It->Destroy(It->Obj);
  for (char *Slab : Slabs)
    std::free(Slab);
}

void Arena::newSlab(size_t MinSize) {
  size_t Size = MinSize > SlabSize ? MinSize : SlabSize;
  char *Slab = static_cast<char *>(std::malloc(Size));
  assert(Slab && "arena slab allocation failed");
  Slabs.push_back(Slab);
  Cur = Slab;
  End = Slab + Size;
}

void *Arena::allocate(size_t Size, size_t Align) {
  assert(Align != 0 && (Align & (Align - 1)) == 0 && "bad alignment");
  uintptr_t P = reinterpret_cast<uintptr_t>(Cur);
  uintptr_t Aligned = (P + Align - 1) & ~uintptr_t(Align - 1);
  if (Cur == nullptr || Aligned + Size > reinterpret_cast<uintptr_t>(End)) {
    newSlab(Size + Align);
    P = reinterpret_cast<uintptr_t>(Cur);
    Aligned = (P + Align - 1) & ~uintptr_t(Align - 1);
  }
  Cur = reinterpret_cast<char *>(Aligned + Size);
  BytesAllocated += Size;
  return reinterpret_cast<void *>(Aligned);
}

std::string_view Arena::copyString(std::string_view Text) {
  char *Mem = static_cast<char *>(allocate(Text.size() + 1, 1));
  std::memcpy(Mem, Text.data(), Text.size());
  Mem[Text.size()] = '\0';
  return std::string_view(Mem, Text.size());
}
