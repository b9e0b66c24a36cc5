// Slab allocation: a typed object pool in the Nu-runtime idiom (per-core
// slabs + free-list recycling; SNIPPETS.md #3).
//
// SlabPool<T>: acquire() placement-constructs into a slot carved from
// chunked slabs, release() destroys and pushes the slot onto an intrusive
// free list. One malloc per kChunk objects instead of one per object; slots
// never move, so pointers stay stable for the object's lifetime. A pool
// never returns memory: its footprint is its peak, rounded up to a chunk.
//
// Not thread-safe: a pool belongs to one owner, and every acquire/release
// happens on that owner's thread. Runtime keeps one task pool per shard
// (one on the classic loop), which is the whole trick: no locks, no atomic
// traffic, and one shard's processors reuse each other's freed slots.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace splice::util {

/// Typed object pool. Slots are recycled through an intrusive free list, and
/// storage is carved kChunk slots at a time. Cache-line aligned: the pools of
/// different shards sit side by side and are written by different threads.
template <typename T, std::size_t kChunk = 256>
class alignas(64) SlabPool {
  static_assert(kChunk > 0);

 public:
  SlabPool() = default;
  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;
  ~SlabPool() = default;  // all objects must have been released (slots hold
                          // raw storage, so leaked objects are not destroyed)

  template <typename... Args>
  [[nodiscard]] T* acquire(Args&&... args) {
    Slot* slot = free_;
    if (slot != nullptr) {
      free_ = slot->next;
    } else {
      slot = carve();
    }
    ++live_;
    return ::new (static_cast<void*>(slot->storage)) T(
        std::forward<Args>(args)...);
  }

  void release(T* object) noexcept {
    object->~T();
    auto* slot = reinterpret_cast<Slot*>(
        reinterpret_cast<unsigned char*>(object) - offsetof(Slot, storage));
    slot->next = free_;
    free_ = slot;
    --live_;
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Slot {
    union {
      Slot* next;  // valid while on the free list
      alignas(T) unsigned char storage[sizeof(T)];
    };
  };

  Slot* carve() {
    // Default-initialized storage (plain new[], not make_unique): slots are
    // raw unions, so zeroing a fresh chunk would only touch its pages twice.
    chunks_.emplace_back(new Slot[kChunk]);
    capacity_ += kChunk;
    Slot* chunk = chunks_.back().get();
    // Thread all but the first new slot onto the free list.
    for (std::size_t i = kChunk - 1; i > 0; --i) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
    return &chunk[0];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  Slot* free_ = nullptr;
  std::size_t live_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace splice::util
