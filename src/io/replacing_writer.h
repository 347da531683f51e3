// ReplacingWriter: writes a file through one fixed window into a
// temporary file beside its target, then renames it over the target.
//
// The index writers (HLI1's TwoHopIndex::Save, HLI2's MappedIndex::Write)
// stream through this instead of building the file in memory: the
// writer holds kLoadWindowBytes (the window the loaders read through)
// whatever the file's size. Commit() fsyncs the file, renames it over
// the target and fsyncs the directory, so a reader of the target sees
// the old file or the new one, never a torn one; a writer destroyed
// before its rename removes its temporary file and leaves the target as
// it was.

#ifndef HOPDB_IO_REPLACING_WRITER_H_
#define HOPDB_IO_REPLACING_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "io/window_reader.h"
#include "util/serde.h"
#include "util/status.h"

namespace hopdb {

class ReplacingWriter {
 public:
  ReplacingWriter();
  ~ReplacingWriter();
  ReplacingWriter(const ReplacingWriter&) = delete;
  ReplacingWriter& operator=(const ReplacingWriter&) = delete;

  /// Creates the temporary file, `<path>.tmp-<pid>-<n>`, with the mode a
  /// new file at `path` would get.
  Status Open(const std::string& path);

  /// Appends bytes. The first failed write is kept (the puts after it
  /// are dropped) and Commit() returns it.
  void Put(const void* bytes, size_t n);
  void PutU32(uint32_t v) {
    Room(4);
    EncodeU32(v, window_.get() + used_);
    used_ += 4;
  }
  void PutU64(uint64_t v) {
    Room(8);
    EncodeU64(v, window_.get() + used_);
    used_ += 8;
  }
  void PutVarint(uint32_t v) {
    Room(kMaxVarint32Bytes);
    used_ += EncodeVarint32(v, window_.get() + used_);
  }

  /// FNV-1a-64 of the bytes put since Open() or the last TakeHash(),
  /// which restarts the hash. The hash is chained over each window as it
  /// is flushed, so it costs no second pass.
  uint64_t TakeHash();

  /// Overwrites n bytes put earlier at `offset`: a header sealed once the
  /// sections after it are hashed.
  void Patch(uint64_t offset, const void* bytes, size_t n);

  /// Flushes, fsyncs, renames over the target and fsyncs its directory.
  Status Commit();

 private:
  void Room(size_t n) {
    if (kLoadWindowBytes - used_ < n) Flush();
  }
  void Flush();
  Status WriteAt(const uint8_t* bytes, size_t n, int64_t offset);

  std::unique_ptr<uint8_t[]> window_;
  size_t used_ = 0;
  uint64_t hash_ = kFnv1a64Basis;
  Status status_;
  int fd_ = -1;
  std::string path_;
  std::string temp_;  // empty once renamed, or when none was made
};

}  // namespace hopdb

#endif  // HOPDB_IO_REPLACING_WRITER_H_
