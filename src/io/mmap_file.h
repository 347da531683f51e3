// Read-only memory-mapped file. The zero-copy load path of the HLI2
// index format (labeling/mapped_index.h) maps the whole file once and
// serves queries directly out of the page cache: no deserialization, no
// heap arenas, and an O(1) "reload" that is just a fresh mmap of the
// (possibly replaced) file.
//
// The mapping is PROT_READ/MAP_PRIVATE, so the kernel shares clean pages
// with every other mapper of the same file and a process can never write
// through it — mutation attempts fault, which is exactly the contract a
// serving snapshot wants. The descriptor is closed right after mmap
// succeeds (the mapping keeps the file alive), so an open MmapFile holds
// no fd and replacing the file on disk (rename-over) never disturbs an
// existing mapping.

#ifndef HOPDB_IO_MMAP_FILE_H_
#define HOPDB_IO_MMAP_FILE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/status.h"

namespace hopdb {

class MmapFile {
 public:
  MmapFile() = default;
  ~MmapFile() { Unmap(); }

  MmapFile(MmapFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        path_(std::move(other.path_)) {}
  MmapFile& operator=(MmapFile&& other) noexcept {
    if (this != &other) {
      Unmap();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      path_ = std::move(other.path_);
    }
    return *this;
  }
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  /// Maps `path` read-only in its entirety. O(1) in the file size: no
  /// bytes are read eagerly; pages fault in on first access (or are
  /// already resident in the page cache from a previous mapping, which is
  /// what makes warm re-opens effectively free). Fails with IOError on
  /// open/stat/mmap failure and InvalidArgument on an empty file (an
  /// empty mapping is never a valid hopdb artifact). Works on files the
  /// process can only read (0444): no write permission is required.
  static Result<MmapFile> Open(const std::string& path);

  /// True between a successful Open and destruction/move-out.
  bool mapped() const { return data_ != nullptr; }

  /// Start of the mapping; valid for size() bytes. Never nullptr on a
  /// mapped() file.
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  const std::string& path() const { return path_; }

  /// Bytes of this mapping currently resident in physical memory
  /// (mincore page walk, O(pages)). An operator-facing gauge: right
  /// after Open it is near 0 for a cold file and near size() for a warm
  /// one; it grows as queries touch label pages. Returns 0 when the
  /// platform query fails or nothing is mapped.
  uint64_t ResidentBytes() const;

 private:
  void Unmap();

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  std::string path_;
};

}  // namespace hopdb

#endif  // HOPDB_IO_MMAP_FILE_H_
