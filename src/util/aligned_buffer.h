// Cache-line-aligned flat arrays. The flat label store keeps its pivot
// and distance arenas and their block sidecars 64-byte aligned so a
// label's first SIMD block never straddles an extra cache line and
// streaming scans start on a line boundary.

#ifndef HOPDB_UTIL_ALIGNED_BUFFER_H_
#define HOPDB_UTIL_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

namespace hopdb {

/// Fixed-size uint32 array whose storage is aligned to kAlignment bytes.
/// There is no resize or growth path — callers size the array at
/// construction — which keeps the invariant "data() is 64-byte aligned
/// for the buffer's whole lifetime" trivially true. Deep-copyable and
/// movable; a moved-from buffer is empty.
class AlignedU32Array {
 public:
  static constexpr size_t kAlignment = 64;

  AlignedU32Array() = default;
  explicit AlignedU32Array(size_t size) { Allocate(size); }

  AlignedU32Array(const AlignedU32Array& other) {
    Allocate(other.size_);
    if (size_ > 0) std::memcpy(data_, other.data_, size_ * sizeof(uint32_t));
  }
  AlignedU32Array& operator=(const AlignedU32Array& other) {
    if (this != &other) {
      AlignedU32Array copy(other);
      *this = std::move(copy);
    }
    return *this;
  }

  AlignedU32Array(AlignedU32Array&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  AlignedU32Array& operator=(AlignedU32Array&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }

  ~AlignedU32Array() { Free(); }

  uint32_t* data() { return data_; }
  const uint32_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  uint32_t& operator[](size_t i) { return data_[i]; }
  uint32_t operator[](size_t i) const { return data_[i]; }

  uint64_t SizeBytes() const { return size_ * sizeof(uint32_t); }

 private:
  void Allocate(size_t size) {
    size_ = size;
    data_ = size == 0 ? nullptr
                      : static_cast<uint32_t*>(::operator new(
                            size * sizeof(uint32_t),
                            std::align_val_t(kAlignment)));
  }
  void Free() {
    if (data_ != nullptr) {
      ::operator delete(data_, std::align_val_t(kAlignment));
      data_ = nullptr;
    }
    size_ = 0;
  }

  uint32_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace hopdb

#endif  // HOPDB_UTIL_ALIGNED_BUFFER_H_
