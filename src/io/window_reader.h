// WindowReader: sequential reads of a file through one fixed window.
//
// The file loaders that walk a file more than once (HLI1 labels, HGR1
// graphs) read it through this instead of holding the whole file: the
// window is refilled by positional reads, so a load's buffer is
// kLoadWindowBytes whatever the file's size. Bytes handed out below a
// hash end are chained into an FNV-1a-64 hash (HLI1's body checksum);
// readers that keep no checksum leave the hash end at 0.

#ifndef HOPDB_IO_WINDOW_READER_H_
#define HOPDB_IO_WINDOW_READER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "io/block_file.h"
#include "util/serde.h"
#include "util/status.h"

namespace hopdb {

/// The bytes of a file a load holds at a time.
inline constexpr size_t kLoadWindowBytes = size_t{1} << 20;

class WindowReader {
 public:
  /// `file` must outlive the reader.
  explicit WindowReader(BlockFile* file)
      : file_(file), window_(new uint8_t[kLoadWindowBytes]) {}

  /// Offset of the next byte to hand out.
  uint64_t position() const { return next_read_ - buffered(); }
  size_t buffered() const { return end_ - begin_; }
  uint64_t hash() const { return hash_; }

  /// Goes back to byte 0 and restarts the hash over bytes [0, hash_end).
  void Rewind(uint64_t hash_end) {
    next_read_ = 0;
    begin_ = end_ = 0;
    hash_end_ = hash_end;
    hash_ = kFnv1a64Basis;
  }

  /// Makes at least n (<= kLoadWindowBytes) bytes buffered, moving what
  /// is left to the front of the window and reading the file after it.
  /// InvalidArgument when the file ends first.
  Status Fill(size_t n) {
    if (buffered() >= n) return Status::OK();
    return Refill(n);
  }

  /// Hands out the next n <= buffered() bytes.
  const uint8_t* Consume(size_t n) {
    const uint8_t* bytes = window_.get() + begin_;
    const uint64_t at = position();
    if (at < hash_end_) {
      hash_ = Fnv1a64(bytes, std::min<uint64_t>(n, hash_end_ - at), hash_);
    }
    begin_ += n;
    return bytes;
  }

  Status Take(size_t n, const uint8_t** bytes) {
    HOPDB_RETURN_NOT_OK(Fill(n));
    *bytes = Consume(n);
    return Status::OK();
  }

  /// Reads a little-endian u32 or u64 field that must end by offset
  /// `limit`.
  template <typename T>
  Status Read(uint64_t limit, T* v) {
    if (position() > limit || limit - position() < sizeof(T)) {
      return Status::OutOfRange("field runs past the end of the body");
    }
    const uint8_t* bytes = nullptr;
    HOPDB_RETURN_NOT_OK(Take(sizeof(T), &bytes));
    std::memcpy(v, bytes, sizeof(T));
    return Status::OK();
  }

  /// Moves n bytes ahead: bytes below the hash end are read and hashed,
  /// the rest are not read at all.
  Status Skip(uint64_t n);

 private:
  Status Refill(size_t n);

  BlockFile* file_;
  std::unique_ptr<uint8_t[]> window_;
  /// window_[begin_, end_) holds the file's bytes up to next_read_.
  size_t begin_ = 0;
  size_t end_ = 0;
  uint64_t next_read_ = 0;
  uint64_t hash_end_ = 0;
  uint64_t hash_ = kFnv1a64Basis;
};

}  // namespace hopdb

#endif  // HOPDB_IO_WINDOW_READER_H_
