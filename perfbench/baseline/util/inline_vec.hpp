// Fixed-capacity-with-overflow vector for trivially copyable types.
//
// The Time Warp engine stores one processed-event record per optimistically
// executed event: each record holds the handler's output events (almost
// always one, for PHOLD exactly one) and a small state checkpoint. Using
// std::vector for those would cost two heap allocations per simulated
// event; InlineVec keeps the common case inline and only spills to the heap
// for outliers.
#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#include "util/assert.hpp"

namespace cagvt {

template <typename T, std::size_t N>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  InlineVec() = default;

  InlineVec(const InlineVec& other) { assign_from(other); }
  InlineVec(InlineVec&& other) noexcept { assign_from(other); other.clear(); }
  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      clear();
      assign_from(other);
    }
    return *this;
  }
  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      clear();
      assign_from(other);
      other.clear();
    }
    return *this;
  }

  void push_back(const T& value) {
    if (size_ < N) {
      std::memcpy(inline_storage() + size_, &value, sizeof(T));
    } else {
      overflow_.push_back(value);
    }
    ++size_;
  }

  const T& operator[](std::size_t i) const {
    CAGVT_ASSERT(i < size_);
    return i < N ? inline_storage()[i] : overflow_[i - N];
  }
  T& operator[](std::size_t i) {
    CAGVT_ASSERT(i < size_);
    return i < N ? inline_storage()[i] : overflow_[i - N];
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    size_ = 0;
    overflow_.clear();
  }

  /// Copy out of a raw byte span (for checkpoint restore helpers).
  void assign(const T* data, std::size_t count) {
    clear();
    for (std::size_t i = 0; i < count; ++i) push_back(data[i]);
  }

 private:
  void assign_from(const InlineVec& other) {
    std::memcpy(storage_, other.storage_, sizeof(storage_));
    overflow_ = other.overflow_;
    size_ = other.size_;
  }
  T* inline_storage() { return reinterpret_cast<T*>(storage_); }
  const T* inline_storage() const { return reinterpret_cast<const T*>(storage_); }

  alignas(T) unsigned char storage_[N * sizeof(T)]{};
  std::size_t size_ = 0;
  std::vector<T> overflow_;
};

}  // namespace cagvt
