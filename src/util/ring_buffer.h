// Growable ring-buffer FIFO for move-only elements.
//
// std::deque allocates and frees ~500-byte chunk nodes as the head and tail
// oscillate across chunk boundaries — on the station hot path that churn was
// ~1 heap allocation per simulated request (bench/micro_simulator). This
// ring keeps one power-of-two backing array, grows geometrically, and never
// touches the heap in steady state. Indexed access and ordered erase cover
// the priority-eviction scan the station queue needs.
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <utility>

namespace slate {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;
  RingBuffer(const RingBuffer&) = delete;
  RingBuffer& operator=(const RingBuffer&) = delete;
  RingBuffer(RingBuffer&& other) noexcept
      : slots_(std::move(other.slots_)),
        capacity_(other.capacity_),
        head_(other.head_),
        size_(other.size_) {
    other.capacity_ = other.head_ = other.size_ = 0;
  }
  RingBuffer& operator=(RingBuffer&& other) noexcept {
    if (this != &other) {
      clear();
      slots_ = std::move(other.slots_);
      capacity_ = other.capacity_;
      head_ = other.head_;
      size_ = other.size_;
      other.capacity_ = other.head_ = other.size_ = 0;
    }
    return *this;
  }
  ~RingBuffer() { clear(); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  // Element `i` positions from the front (0 = oldest).
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    assert(i < size_);
    return *ptr(physical(i));
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    assert(i < size_);
    return *ptr(physical(i));
  }
  [[nodiscard]] T& front() noexcept { return (*this)[0]; }

  void push_back(T value) {
    if (size_ == capacity_) grow();
    ::new (static_cast<void*>(ptr(physical(size_)))) T(std::move(value));
    ++size_;
  }

  // Removes and returns the oldest element.
  T pop_front() {
    assert(size_ > 0);
    T* slot = ptr(head_);
    T out = std::move(*slot);
    slot->~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
    return out;
  }

  // Removes the element `i` positions from the front, preserving FIFO order
  // of the rest. O(distance to nearest end); the eviction path that uses it
  // is rare (queue-full shedding).
  T erase(std::size_t i) {
    assert(i < size_);
    T out = std::move((*this)[i]);
    if (i < size_ - i) {
      // Shift the prefix toward the back.
      for (std::size_t j = i; j > 0; --j) {
        (*this)[j] = std::move((*this)[j - 1]);
      }
      ptr(head_)->~T();
      head_ = (head_ + 1) & (capacity_ - 1);
    } else {
      // Shift the suffix toward the front.
      for (std::size_t j = i; j + 1 < size_; ++j) {
        (*this)[j] = std::move((*this)[j + 1]);
      }
      ptr(physical(size_ - 1))->~T();
    }
    --size_;
    return out;
  }

  void clear() noexcept {
    for (std::size_t i = 0; i < size_; ++i) ptr(physical(i))->~T();
    head_ = 0;
    size_ = 0;
  }

 private:
  [[nodiscard]] std::size_t physical(std::size_t i) const noexcept {
    return (head_ + i) & (capacity_ - 1);
  }
  [[nodiscard]] T* ptr(std::size_t physical_index) const noexcept {
    return std::launder(reinterpret_cast<T*>(
        slots_.get() + physical_index * sizeof(T)));
  }

  // Raw storage comes from the aligned operator new[]; it must go back
  // through the matching aligned operator delete[].
  struct AlignedDelete {
    void operator()(unsigned char* p) const noexcept {
      ::operator delete[](p, std::align_val_t{alignof(T)});
    }
  };
  using Storage = std::unique_ptr<unsigned char[], AlignedDelete>;

  void grow() {
    const std::size_t new_capacity = capacity_ == 0 ? 8 : capacity_ * 2;
    Storage fresh(static_cast<unsigned char*>(::operator new[](
        new_capacity * sizeof(T), std::align_val_t{alignof(T)})));
    for (std::size_t i = 0; i < size_; ++i) {
      T* from = ptr(physical(i));
      ::new (static_cast<void*>(fresh.get() + i * sizeof(T))) T(std::move(*from));
      from->~T();
    }
    slots_ = std::move(fresh);
    capacity_ = new_capacity;
    head_ = 0;
  }

  Storage slots_;
  std::size_t capacity_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace slate
