// Cache-line-aligned flat arrays. The flat label store keeps its pivot
// and distance arenas 64-byte aligned so streaming scans of the arenas
// start on a line boundary.

#ifndef HOPDB_UTIL_ALIGNED_BUFFER_H_
#define HOPDB_UTIL_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace hopdb {

/// Fixed-size array of trivially copyable T whose storage is aligned to
/// kAlignment bytes. There is no resize or growth path — callers size
/// the array at construction — which keeps the invariant "data() is
/// 64-byte aligned for the buffer's whole lifetime" trivially true.
/// Deep-copyable and movable; a moved-from buffer is empty.
template <typename T>
class AlignedArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  static constexpr size_t kAlignment = 64;

  AlignedArray() = default;
  explicit AlignedArray(size_t size) { Allocate(size); }

  AlignedArray(const AlignedArray& other) {
    Allocate(other.size_);
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(T));
  }
  AlignedArray& operator=(const AlignedArray& other) {
    if (this != &other) {
      AlignedArray copy(other);
      *this = std::move(copy);
    }
    return *this;
  }

  AlignedArray(AlignedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  AlignedArray& operator=(AlignedArray&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedArray() { Free(); }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  T operator[](size_t i) const { return data_[i]; }

  uint64_t SizeBytes() const { return size_ * sizeof(T); }

 private:
  void Allocate(size_t size) {
    size_ = size;
    data_ = size == 0 ? nullptr
                      : static_cast<T*>(::operator new(
                            size * sizeof(T), std::align_val_t(kAlignment)));
  }
  void Free() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t(kAlignment));
      data_ = nullptr;
    }
    size_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

using AlignedU32Array = AlignedArray<uint32_t>;
using AlignedByteArray = AlignedArray<uint8_t>;

}  // namespace hopdb

#endif  // HOPDB_UTIL_ALIGNED_BUFFER_H_
