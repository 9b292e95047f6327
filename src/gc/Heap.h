//===- gc/Heap.h - Page heap and two-level page table ----------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-level heap structures of the conservative collector: pages of
/// uniformly sized objects and the address-to-page mapping. The paper
/// contrasts its checker with Jones/Kelly: "Their fundamental data structure
/// is a splay tree of objects, we use a tree of fixed height 2 describing
/// pages of uniformly sized objects." PageTable below is that fixed-height-2
/// tree: a hashed top level keyed on the high address bits, each entry
/// holding a flat array of page descriptors for a contiguous address chunk.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_GC_HEAP_H
#define GCSAFE_GC_HEAP_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace gcsafe {
namespace gc {

/// Pages are 4 KiB; objects are carved from pages in multiples of the
/// granule (16 bytes).
constexpr size_t PageSizeLog = 12;
constexpr size_t PageSize = size_t(1) << PageSizeLog;
constexpr size_t GranuleSize = 16;
constexpr size_t MaxSlotsPerPage = PageSize / GranuleSize;

/// Objects whose (padded) size exceeds this are allocated as runs of whole
/// pages ("large" objects).
constexpr size_t MaxSmallSize = 2048;

/// Number of size classes: class C holds objects of (C + 1) * GranuleSize
/// bytes.
constexpr size_t NumSizeClasses = MaxSmallSize / GranuleSize;

/// What a page is currently used for.
enum class PageKind : uint8_t {
  PK_Free,       ///< On the free page list.
  PK_Small,      ///< Uniformly sized small objects.
  PK_LargeStart, ///< First page of a large object.
  PK_LargeCont,  ///< Continuation page of a large object.
};

/// Side metadata for one heap page. Never stored inside the page itself so
/// object payloads stay contiguous, mirroring the real collector.
struct PageDescriptor {
  char *PageStart = nullptr;
  PageKind Kind = PageKind::PK_Free;
  bool Atomic = false;     ///< Objects contain no pointers (skip in mark).
  uint16_t ObjSize = 0;    ///< PK_Small: rounded object size in bytes.
  uint16_t ObjCount = 0;   ///< PK_Small: number of slots in the page.
  /// PK_Small: reciprocal of ObjSize for slotIndex().
  uint32_t SlotRecip = 0;
  uint32_t LargePages = 0; ///< PK_LargeStart: total pages in the run.
  size_t LargeSize = 0;    ///< PK_LargeStart: padded object size in bytes.
  PageDescriptor *LargeHead = nullptr; ///< PK_LargeCont: run's first page.
  PageDescriptor *NextFree = nullptr;  ///< Free-page list linkage.

  /// Per-slot bitmaps, indexed by slot number. Sized for the worst case
  /// (GranuleSize-byte slots).
  uint64_t AllocBits[MaxSlotsPerPage / 64] = {};
  uint64_t MarkBits[MaxSlotsPerPage / 64] = {};

  /// Reciprocal for slotIndex(): floor(2^32 / ObjSize) + 1. It overshoots
  /// 2^32 / ObjSize by at most 1, so Off * SlotRecip / 2^32 overshoots
  /// Off / ObjSize by less than PageSize / 2^32 < 1 / MaxSmallSize: never
  /// enough to reach the next integer.
  static uint32_t slotReciprocal(size_t ObjSize) {
    return static_cast<uint32_t>((uint64_t(1) << 32) / ObjSize + 1);
  }
  /// PK_Small: the slot holding in-page byte offset \p Off, i.e.
  /// Off / ObjSize as a multiply and a shift.
  unsigned slotIndex(uintptr_t Off) const {
    return static_cast<unsigned>((uint64_t(Off) * SlotRecip) >> 32);
  }

  bool allocBit(unsigned Slot) const {
    return (AllocBits[Slot / 64] >> (Slot % 64)) & 1;
  }
  void setAllocBit(unsigned Slot) { AllocBits[Slot / 64] |= uint64_t(1) << (Slot % 64); }
  void clearAllocBit(unsigned Slot) {
    AllocBits[Slot / 64] &= ~(uint64_t(1) << (Slot % 64));
  }
  bool markBit(unsigned Slot) const {
    return (MarkBits[Slot / 64] >> (Slot % 64)) & 1;
  }
  void setMarkBit(unsigned Slot) { MarkBits[Slot / 64] |= uint64_t(1) << (Slot % 64); }
  void clearMarkBit(unsigned Slot) {
    MarkBits[Slot / 64] &= ~(uint64_t(1) << (Slot % 64));
  }
  void clearMarkBits() {
    for (uint64_t &W : MarkBits)
      W = 0;
  }
};

/// Fixed-height-2 address-to-descriptor map. Level 1 is a chained hash
/// table keyed on the address bits above a "chunk" (a 4 MiB span of 1024
/// pages); level 2 is a dense array of descriptor pointers, one per page in
/// the chunk. Lookup is one hash probe plus one array index — the property
/// the paper relies on to make GC_same_obj fast. A one-entry cache of the
/// last chunk probed (hit or miss) skips the hash probe for runs of
/// addresses in one chunk, which is how marking and the VM's freed-access
/// check look addresses up.
class PageTable {
public:
  static constexpr size_t ChunkPagesLog = 10; // 1024 pages = 4 MiB chunk
  static constexpr size_t ChunkPages = size_t(1) << ChunkPagesLog;
  static constexpr size_t TopTableSize = 4096; // power of two

  PageTable() = default;
  PageTable(const PageTable &) = delete;
  PageTable &operator=(const PageTable &) = delete;
  ~PageTable();

  /// Registers \p Desc as the descriptor for the page containing \p
  /// PageAddr (which must be page-aligned). Returns false — registering
  /// nothing — if \p PageAddr is misaligned or growing the table's top
  /// level fails; callers treat that as page-acquisition failure and
  /// roll back rather than aborting.
  bool insert(const void *PageAddr, PageDescriptor *Desc);

  /// Removes the mapping for the page containing \p PageAddr.
  void erase(const void *PageAddr);

  /// Returns the descriptor for the page containing \p Addr, or null if the
  /// address is not inside the collected heap.
  PageDescriptor *lookup(const void *Addr) const {
    uintptr_t A = reinterpret_cast<uintptr_t>(Addr);
    uintptr_t Key = A >> (PageSizeLog + ChunkPagesLog);
    if (Key != CachedKey) {
      const TopEntry *E = Top[hashKey(Key)];
      while (E && E->Key != Key)
        E = E->Next;
      CachedKey = Key;
      CachedEntry = E;
    }
    if (!CachedEntry)
      return nullptr;
    return CachedEntry->Pages[(A >> PageSizeLog) & (ChunkPages - 1)];
  }

  /// Number of level-1 entries currently allocated (test hook).
  size_t topEntryCount() const { return EntryCount; }

private:
  struct TopEntry {
    uintptr_t Key = 0;
    TopEntry *Next = nullptr;
    PageDescriptor *Pages[ChunkPages] = {};
  };

  static size_t hashKey(uintptr_t Key) {
    return (Key * 0x9E3779B97F4A7C15ull >> 32) & (TopTableSize - 1);
  }

  TopEntry *findOrCreate(uintptr_t Key);

  TopEntry *Top[TopTableSize] = {};
  size_t EntryCount = 0;
  /// The last chunk lookup() probed and its entry (null: not in the
  /// table). Entries are never removed, so only a new entry can make the
  /// cache stale; findOrCreate() resets it then. Like the rest of the
  /// collector, lookups are not safe to run concurrently.
  mutable uintptr_t CachedKey = ~uintptr_t(0);
  mutable const TopEntry *CachedEntry = nullptr;
};

} // namespace gc
} // namespace gcsafe

#endif // GCSAFE_GC_HEAP_H
