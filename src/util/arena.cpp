#include "util/arena.hpp"

#include <cstdint>

namespace prcost {

struct Arena::Chunk {
  Chunk* next = nullptr;
  std::size_t capacity = 0;
  // payload follows the header

  char* data() { return reinterpret_cast<char*>(this + 1); }
};

namespace {

std::size_t align_up(std::size_t value, std::size_t align) {
  return (value + align - 1) & ~(align - 1);
}

}  // namespace

Arena::~Arena() {
  Chunk* chunk = head_;
  while (chunk != nullptr) {
    Chunk* next = chunk->next;
    ::operator delete(chunk);
    chunk = next;
  }
}

Arena::Chunk* Arena::new_chunk(std::size_t min_bytes) {
  const std::size_t payload =
      min_bytes > chunk_bytes_ ? min_bytes : chunk_bytes_;
  void* raw = ::operator new(sizeof(Chunk) + payload);
  Chunk* chunk = new (raw) Chunk;
  chunk->capacity = payload;
  capacity_ += payload;
  return chunk;
}

void* Arena::allocate(std::size_t bytes, std::size_t align) {
  if (bytes == 0) bytes = 1;
  for (;;) {
    if (current_ != nullptr) {
      const std::size_t base =
          reinterpret_cast<std::uintptr_t>(current_->data()) + offset_;
      const std::size_t aligned = align_up(base, align) - base + offset_;
      if (aligned + bytes <= current_->capacity) {
        offset_ = aligned + bytes;
        return current_->data() + aligned;
      }
      // Current chunk exhausted: reuse the next retained chunk if it fits
      // (the common steady-state case), else chain a fresh one after it.
      if (current_->next != nullptr &&
          current_->next->capacity >= bytes + align) {
        current_ = current_->next;
        offset_ = 0;
        continue;
      }
      Chunk* fresh = new_chunk(bytes + align);
      fresh->next = current_->next;
      current_->next = fresh;
      current_ = fresh;
      offset_ = 0;
      continue;
    }
    if (head_ == nullptr) head_ = new_chunk(bytes + align);
    current_ = head_;
    offset_ = 0;
  }
}

void Arena::rewind(Marker marker) noexcept {
  current_ = static_cast<Chunk*>(marker.chunk);
  offset_ = marker.offset;
}

Arena& scratch_arena() {
  thread_local Arena arena;
  return arena;
}

}  // namespace prcost
