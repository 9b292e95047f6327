//===- support/Arena.h - Bump-pointer allocation arena ---------*- C++ -*-===//
//
// Part of the gcsafe project, a reproduction of Boehm, "Simple
// Garbage-Collector-Safety" (PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A simple bump-pointer arena used for AST and IR node allocation. Objects
/// allocated from an arena are never individually freed; the whole arena is
/// released at once when it is destroyed. Objects made with create() that
/// are not trivially destructible are destroyed then too, newest first, so
/// the heap buffers of their members (an AST node's std::vector of
/// children, say) are released with the arena.
///
//===----------------------------------------------------------------------===//

#ifndef GCSAFE_SUPPORT_ARENA_H
#define GCSAFE_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace gcsafe {

/// Bump-pointer allocator. Not thread-safe; one arena per compilation.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena();

  /// Allocates \p Size bytes aligned to \p Align. Never returns null.
  void *allocate(size_t Size, size_t Align);

  /// Allocates and constructs a \p T with the given constructor arguments.
  /// The arena runs its destructor when the arena is destroyed.
  template <typename T, typename... Args> T *create(Args &&...CtorArgs) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Obj = new (Mem) T(std::forward<Args>(CtorArgs)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Dtors.push_back({Obj, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Obj;
  }

  /// Copies \p Text into the arena and returns a stable string_view.
  std::string_view copyString(std::string_view Text);

  /// Total bytes handed out so far (excluding slab slack).
  size_t bytesAllocated() const { return BytesAllocated; }

private:
  void newSlab(size_t MinSize);

  static constexpr size_t SlabSize = 64 * 1024;

  struct Dtor {
    void *Obj;
    void (*Destroy)(void *);
  };

  std::vector<char *> Slabs;
  std::vector<Dtor> Dtors; ///< In creation order; run in reverse.
  char *Cur = nullptr;
  char *End = nullptr;
  size_t BytesAllocated = 0;
};

} // namespace gcsafe

#endif // GCSAFE_SUPPORT_ARENA_H
