#include "io/replacing_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>

namespace hopdb {

namespace {

/// An IOError naming `file` and the errno the failed call just set.
Status Error(const char* what, const std::string& file) {
  const int err = errno;
  return Status::IOError(std::string(what) + " " + file + ": " +
                         std::strerror(err));
}

}  // namespace

ReplacingWriter::ReplacingWriter() : window_(new uint8_t[kLoadWindowBytes]) {}

ReplacingWriter::~ReplacingWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!temp_.empty()) ::unlink(temp_.c_str());
}

Status ReplacingWriter::Open(const std::string& path) {
  static std::atomic<uint64_t> next_temp{0};
  path_ = path;
  for (int attempt = 0; fd_ < 0; ++attempt) {
    temp_ = path + ".tmp-" + std::to_string(::getpid()) + "-" +
            std::to_string(next_temp++);
    fd_ = ::open(temp_.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC,
                 0666);
    if (fd_ < 0 && (errno != EEXIST || attempt == 100)) {
      const Status failed = Error("open failed for", temp_);
      temp_.clear();
      return failed;
    }
  }
  return Status::OK();
}

void ReplacingWriter::Put(const void* bytes, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(bytes);
  while (n > 0) {
    Room(1);
    const size_t take = std::min(n, kLoadWindowBytes - used_);
    std::memcpy(window_.get() + used_, p, take);
    used_ += take;
    p += take;
    n -= take;
  }
}

uint64_t ReplacingWriter::TakeHash() {
  Flush();
  const uint64_t hash = hash_;
  hash_ = kFnv1a64Basis;
  return hash;
}

void ReplacingWriter::Patch(uint64_t offset, const void* bytes, size_t n) {
  Flush();
  if (status_.ok()) {
    status_ = WriteAt(static_cast<const uint8_t*>(bytes), n,
                      static_cast<int64_t>(offset));
  }
}

Status ReplacingWriter::Commit() {
  Flush();
  HOPDB_RETURN_NOT_OK(status_);
  if (::fsync(fd_) != 0) return Error("fsync failed for", temp_);
  const int closed = ::close(fd_);
  fd_ = -1;
  if (closed != 0) return Error("close failed for", temp_);
  if (::rename(temp_.c_str(), path_.c_str()) != 0) {
    return Error("rename over its target failed for", temp_);
  }
  temp_.clear();
  const size_t slash = path_.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "."
                          : slash == 0 ? "/"
                                       : path_.substr(0, slash);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return Error("open failed for directory", dir);
  const int synced = ::fsync(dir_fd);
  ::close(dir_fd);
  if (synced != 0) return Error("fsync failed for directory", dir);
  return Status::OK();
}

void ReplacingWriter::Flush() {
  if (status_.ok()) status_ = WriteAt(window_.get(), used_, -1);
  hash_ = Fnv1a64(window_.get(), used_, hash_);
  used_ = 0;
}

/// Writes all n bytes at the file offset, or at the end of what was
/// written so far when `offset` is negative.
Status ReplacingWriter::WriteAt(const uint8_t* bytes, size_t n,
                                int64_t offset) {
  while (n > 0) {
    const ssize_t put = offset < 0 ? ::write(fd_, bytes, n)
                                   : ::pwrite(fd_, bytes, n, offset);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return Error("write failed for", temp_);
    bytes += put;
    n -= static_cast<size_t>(put);
    if (offset >= 0) offset += put;
  }
  return Status::OK();
}

}  // namespace hopdb
