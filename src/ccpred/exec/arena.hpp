#pragma once

/// \file arena.hpp
/// Per-task bump allocator for hot-loop scratch memory.
///
/// Campaign generation, sweep rounds and tree fits used to allocate dozens
/// of short-lived vectors per call; an Arena turns that into one
/// cache-line-aligned block allocation reused across calls. Allocation is a
/// pointer bump, so it is deterministic and effectively free; reset()
/// rewinds the pointer, and the next identical allocation sequence hands
/// back the same pointers. Requests that do not fit in the buffer fall back
/// to individually heap-allocated blocks (freed on reset), so callers never
/// need to size the arena exactly — an undersized arena is only slower,
/// never wrong.
///
/// The buffer is never initialized, so an arena faults in only the pages
/// its callers write: capacity a task never reaches costs address space,
/// not memory.
///
/// Arenas are single-owner: one task (or one parallel_for chunk) uses one
/// arena at a time. Nothing is destroyed on reset, so only trivially
/// destructible element types may live in arena storage.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "ccpred/common/aligned.hpp"

namespace ccpred::exec {

class Arena {
 public:
  /// Default buffer: big enough for a typical tree-fit or batch-grouping
  /// scratch set. The arena never touches the headroom a task leaves
  /// unused, so a generous default costs no memory per worker.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

  explicit Arena(std::size_t capacity_bytes = kDefaultCapacity);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` aligned to `align` (power of two, at least
  /// kCacheLineAlign by default so SIMD kernels can assume aligned loads).
  /// Zero-size requests return a valid, aligned, non-null pointer without
  /// consuming space. Requests past the buffer's end fall back to the heap.
  void* allocate(std::size_t bytes, std::size_t align = kCacheLineAlign);

  /// Typed array allocation; T must be trivially destructible (nothing runs
  /// destructors). Contents are uninitialized.
  template <typename T>
  T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage never runs destructors");
    const std::size_t align =
        alignof(T) > kCacheLineAlign ? alignof(T) : kCacheLineAlign;
    return static_cast<T*>(allocate(n * sizeof(T), align));
  }

  /// Rewinds the bump pointer to the start and frees heap-fallback blocks.
  /// Pointers from before the reset are invalid; an identical allocation
  /// sequence after reset() returns the same in-buffer pointers.
  void reset();

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return offset_; }
  /// Cumulative count of allocations that did not fit the buffer.
  std::uint64_t heap_fallbacks() const { return heap_fallbacks_; }

 private:
  struct FreeBuffer {
    void operator()(unsigned char* p) const noexcept;
  };
  std::unique_ptr<unsigned char[], FreeBuffer> buffer_;  // uninitialized
  std::size_t capacity_ = 0;
  std::size_t offset_ = 0;
  std::vector<std::pair<void*, std::size_t>> overflow_;  // (ptr, align)
  std::uint64_t heap_fallbacks_ = 0;
};

}  // namespace ccpred::exec
