// Bump-pointer arena for allocation-free hot loops.
//
// The steady-state request path (warm caches, repeated requirements) must
// not touch the heap: the operator-new hooks in obs/request_stats.cpp
// count every allocation against the active request, and the zero-alloc
// test holds that count at zero. Staging containers that grow and die
// within one call (candidate lists in the PRR search, cross-check fanout
// tables in the Engine) instead borrow memory from a thread-local arena:
//
//   - Arena hands out pointers by bumping a cursor through a chain of
//     chunks. Chunks are retained across rewind(), so after the
//     first (cold) call a thread's arena never grows again and every
//     subsequent "allocation" is a pointer bump.
//   - ScratchScope marks the calling thread's arena on entry and rewinds
//     it on exit; scopes nest (each rewinds to its own mark).
//   - ArenaAllocator adapts an Arena to the std allocator interface so
//     std::vector / std::set can stage into it; deallocate is a no-op
//     (memory is reclaimed wholesale by the scope rewind).
//
// Arena memory is obtained through operator new on purpose: a cold-path
// chunk growth is a real allocation and should be visible to the request
// counters; the warm path never grows and stays at zero.
#pragma once

#include <cstddef>
#include <new>

namespace prcost {

/// Chunked bump allocator. Not thread-safe; use one per thread (see
/// scratch_arena) or confine to one owner.
class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024) noexcept
      : chunk_bytes_(chunk_bytes < kMinChunk ? kMinChunk : chunk_bytes) {}
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Aligned allocation; never returns nullptr (throws std::bad_alloc).
  void* allocate(std::size_t bytes, std::size_t align);

  /// A rewind point: everything allocated after mark() is reclaimed by
  /// rewind(). Chunks are kept for reuse, so rewinding never frees.
  struct Marker {
    void* chunk = nullptr;
    std::size_t offset = 0;
  };
  Marker mark() const noexcept { return Marker{current_, offset_}; }
  void rewind(Marker marker) noexcept;

  /// Total bytes of chunk capacity held (monotone until destruction).
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::size_t kMinChunk = 4096;

  struct Chunk;
  Chunk* new_chunk(std::size_t min_bytes);

  Chunk* head_ = nullptr;     ///< first chunk in the chain
  Chunk* current_ = nullptr;  ///< chunk the cursor is in (nullptr = empty)
  std::size_t offset_ = 0;    ///< cursor within current_
  std::size_t chunk_bytes_;
  std::size_t capacity_ = 0;
};

/// The calling thread's scratch arena (lazily constructed, lives for the
/// thread). Use through ScratchScope so nested users compose.
Arena& scratch_arena();

/// RAII mark/rewind of the calling thread's scratch arena.
class ScratchScope {
 public:
  ScratchScope() noexcept
      : arena_(scratch_arena()), marker_(arena_.mark()) {}
  ~ScratchScope() { arena_.rewind(marker_); }
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

  Arena& arena() noexcept { return arena_; }

 private:
  Arena& arena_;
  Arena::Marker marker_;
};

/// std allocator adapter over an Arena. deallocate is a no-op: lifetime
/// is the enclosing ScratchScope.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  explicit ArenaAllocator(Arena& arena) noexcept : arena_(&arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_(other.arena_) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T*, std::size_t) noexcept {}

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena_;
  }

 private:
  template <typename U>
  friend class ArenaAllocator;
  Arena* arena_;
};

}  // namespace prcost
