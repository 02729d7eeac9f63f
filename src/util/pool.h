// Chunked freelist object pool with intrusive reference counting.
//
// The data plane creates short-lived per-request control blocks (request
// state, call-chain state, attempt state) at event rates of millions per
// second; allocating each from the global heap dominated the hot path.
// Pool<T> hands out slots from chunk-allocated arenas and recycles them
// through a freelist: after warmup, steady-state allocation cost is a
// pointer pop, and the heap is touched once per chunk, not once per object.
//
// PoolPtr<T> is the shared_ptr analogue: copies bump a (non-atomic) count
// in the slot header, and the slot returns to the freelist when the count
// hits zero. Single-threaded by design — each Simulation island owns its
// pools and touches them only from its own event loop.
//
// The chunk size trades heap touches for idle memory: a chunk is carved
// whole on first use, so a world of many lightly loaded islands sizes each
// island's chunks to its share of the offered load.
//
// Lifetime contract: the Pool must outlive every PoolPtr into it (declare
// pools before the structures whose members hold handles). Slots still
// live when the pool dies are NOT destroyed — the pool asserts in debug
// builds that none remain.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace slate {

template <typename T>
class Pool;

template <typename T>
class PoolPtr {
 public:
  PoolPtr() noexcept = default;
  PoolPtr(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  PoolPtr(const PoolPtr& other) noexcept : slot_(other.slot_) {
    if (slot_ != nullptr) ++slot_->refs;
  }
  PoolPtr(PoolPtr&& other) noexcept : slot_(other.slot_) {
    other.slot_ = nullptr;
  }
  PoolPtr& operator=(const PoolPtr& other) noexcept {
    if (slot_ != other.slot_) {
      release();
      slot_ = other.slot_;
      if (slot_ != nullptr) ++slot_->refs;
    }
    return *this;
  }
  PoolPtr& operator=(PoolPtr&& other) noexcept {
    if (this != &other) {
      release();
      slot_ = other.slot_;
      other.slot_ = nullptr;
    }
    return *this;
  }
  ~PoolPtr() { release(); }

  [[nodiscard]] T* get() const noexcept {
    return slot_ != nullptr ? slot_->object() : nullptr;
  }
  T* operator->() const noexcept { return get(); }
  T& operator*() const noexcept { return *get(); }
  [[nodiscard]] explicit operator bool() const noexcept {
    return slot_ != nullptr;
  }
  [[nodiscard]] std::size_t use_count() const noexcept {
    return slot_ != nullptr ? slot_->refs : 0;
  }

  void reset() noexcept { release(); }

  friend bool operator==(const PoolPtr& a, const PoolPtr& b) noexcept {
    return a.slot_ == b.slot_;
  }

 private:
  friend class Pool<T>;
  using Slot = typename Pool<T>::Slot;

  explicit PoolPtr(Slot* slot) noexcept : slot_(slot) {}

  void release() noexcept {
    if (slot_ == nullptr) return;
    if (--slot_->refs == 0) slot_->owner->recycle(slot_);
    slot_ = nullptr;
  }

  Slot* slot_ = nullptr;
};

template <typename T>
class Pool {
 public:
  // `chunk_objects` slots are carved per heap allocation.
  explicit Pool(std::size_t chunk_objects = 256)
      : chunk_objects_(chunk_objects > 0 ? chunk_objects : 1) {}

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;
  ~Pool() { assert(live_ == 0 && "PoolPtr outlived its Pool"); }

  // Constructs a T and returns an owning handle.
  template <typename... Args>
  PoolPtr<T> make(Args&&... args) {
    Slot* slot = free_;
    if (slot == nullptr) {
      grow();
      slot = free_;
    }
    free_ = slot->next_free;
    ::new (static_cast<void*>(slot->storage)) T(std::forward<Args>(args)...);
    slot->refs = 1;
    ++live_;
    return PoolPtr<T>(slot);
  }

  // Live objects (handles outstanding).
  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  // Slots ever carved (high-water capacity).
  [[nodiscard]] std::size_t capacity() const noexcept {
    return chunks_.size() * chunk_objects_;
  }
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }

 private:
  friend class PoolPtr<T>;

  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    std::size_t refs = 0;
    Slot* next_free = nullptr;
    Pool* owner = nullptr;

    [[nodiscard]] T* object() noexcept {
      return std::launder(reinterpret_cast<T*>(storage));
    }
  };

  void grow() {
    chunks_.push_back(std::make_unique<Slot[]>(chunk_objects_));
    Slot* chunk = chunks_.back().get();
    for (std::size_t i = 0; i < chunk_objects_; ++i) {
      chunk[i].owner = this;
      chunk[i].next_free = free_;
      free_ = &chunk[i];
    }
  }

  void recycle(Slot* slot) noexcept {
    slot->object()->~T();
    slot->next_free = free_;
    free_ = slot;
    --live_;
  }

  std::size_t chunk_objects_;
  Slot* free_ = nullptr;
  std::size_t live_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
};

}  // namespace slate
