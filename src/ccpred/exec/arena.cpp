#include "ccpred/exec/arena.hpp"

#include <cstdlib>
#include <new>

#include "ccpred/common/error.hpp"

namespace ccpred::exec {

namespace {

bool is_pow2(std::size_t x) { return x != 0 && (x & (x - 1)) == 0; }

}  // namespace

void Arena::FreeBuffer::operator()(unsigned char* p) const noexcept {
  ::operator delete(p, std::align_val_t{kCacheLineAlign});
}

// Raw operator new, not a container: nothing writes the buffer until an
// allocation hands part of it out, so untouched pages are never faulted in.
Arena::Arena(std::size_t capacity_bytes)
    : buffer_(capacity_bytes == 0
                  ? nullptr
                  : static_cast<unsigned char*>(::operator new(
                        capacity_bytes, std::align_val_t{kCacheLineAlign}))),
      capacity_(capacity_bytes) {}

Arena::~Arena() { reset(); }

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  CCPRED_CHECK_MSG(is_pow2(align), "Arena alignment must be a power of two");
  if (align < kCacheLineAlign) align = kCacheLineAlign;

  const std::size_t aligned_off = (offset_ + align - 1) & ~(align - 1);
  // buffer_ is kCacheLineAlign-aligned, and align is a multiple of
  // it only when align <= kCacheLineAlign; for larger alignments align the
  // absolute address instead of the offset. A bufferless arena (capacity
  // 0) has no in-buffer pointer to hand out, not even for zero bytes.
  if (buffer_ != nullptr && align <= kCacheLineAlign &&
      aligned_off <= capacity_ && bytes <= capacity_ - aligned_off) {
    void* p = buffer_.get() + aligned_off;
    offset_ = aligned_off + bytes;
    return p;
  }
  if (align > kCacheLineAlign && buffer_ != nullptr) {
    const auto base = reinterpret_cast<std::uintptr_t>(buffer_.get());
    const std::uintptr_t want = (base + offset_ + align - 1) & ~(align - 1);
    const std::size_t off = static_cast<std::size_t>(want - base);
    if (off <= capacity_ && bytes <= capacity_ - off) {
      offset_ = off + bytes;
      return reinterpret_cast<void*>(want);
    }
  }

  // Heap fallback: the request does not fit. Zero-size requests still get a
  // distinct valid pointer so callers never branch on n == 0.
  ++heap_fallbacks_;
  const std::size_t n = bytes == 0 ? align : bytes;
  void* p = ::operator new(((n + align - 1) / align) * align,
                           std::align_val_t{align});
  overflow_.emplace_back(p, align);
  return p;
}

void Arena::reset() {
  offset_ = 0;
  for (auto& [ptr, align] : overflow_) {
    ::operator delete(ptr, std::align_val_t{align});
  }
  overflow_.clear();
}

}  // namespace ccpred::exec
