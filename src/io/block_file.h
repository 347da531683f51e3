// BlockFile: positional (pread/pwrite) file access with logical I/O
// accounting. The disk-resident index reads label blocks through this, so
// "disk query" benchmarks can report block transfers per query — the
// quantity the paper's HDD timings are proportional to (2 random label
// reads per query).

#ifndef HOPDB_IO_BLOCK_FILE_H_
#define HOPDB_IO_BLOCK_FILE_H_

#include <cstdint>
#include <string>
#include <utility>

#include "io/io_stats.h"
#include "util/status.h"

namespace hopdb {

class BlockFile {
 public:
  BlockFile() = default;
  ~BlockFile();
  BlockFile(BlockFile&& other) noexcept { *this = std::move(other); }
  BlockFile& operator=(BlockFile&& other) noexcept;
  BlockFile(const BlockFile&) = delete;
  BlockFile& operator=(const BlockFile&) = delete;

  /// Opens for reading; fails with IOError if missing or not a regular
  /// file.
  static Result<BlockFile> OpenRead(const std::string& path,
                                    uint64_t block_size = kDefaultBlockSize);
  /// Creates/truncates for writing (and reading back).
  static Result<BlockFile> OpenWrite(const std::string& path,
                                     uint64_t block_size = kDefaultBlockSize);

  Status ReadAt(uint64_t offset, void* buf, size_t n);
  Status WriteAt(uint64_t offset, const void* buf, size_t n);
  Status Append(const void* buf, size_t n);

  uint64_t size() const { return size_; }
  const IoStats& stats() const { return stats_; }
  IoStats* mutable_stats() { return &stats_; }
  uint64_t block_size() const { return block_size_; }
  const std::string& path() const { return path_; }

  Status Sync();
  void Close();

 private:
  int fd_ = -1;
  uint64_t size_ = 0;
  uint64_t block_size_ = kDefaultBlockSize;
  std::string path_;
  IoStats stats_;
};

}  // namespace hopdb

#endif  // HOPDB_IO_BLOCK_FILE_H_
