#include "io/block_file.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fcntl.h>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

namespace hopdb {

BlockFile::~BlockFile() { Close(); }

BlockFile& BlockFile::operator=(BlockFile&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    size_ = other.size_;
    block_size_ = other.block_size_;
    path_ = std::move(other.path_);
    stats_ = other.stats_;
    other.fd_ = -1;
    other.size_ = 0;
  }
  return *this;
}

Result<BlockFile> BlockFile::OpenRead(const std::string& path,
                                      uint64_t block_size) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + err);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("not a regular file: " + path);
  }
  BlockFile f;
  f.fd_ = fd;
  f.size_ = static_cast<uint64_t>(st.st_size);
  f.block_size_ = block_size;
  f.path_ = path;
  return f;
}

Result<BlockFile> BlockFile::OpenWrite(const std::string& path,
                                       uint64_t block_size) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  BlockFile f;
  f.fd_ = fd;
  f.size_ = 0;
  f.block_size_ = block_size;
  f.path_ = path;
  return f;
}

Status BlockFile::ReadAt(uint64_t offset, void* buf, size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("file not open");
  size_t done = 0;
  while (done < n) {
    ssize_t got = ::pread(fd_, static_cast<char*>(buf) + done, n - done,
                          static_cast<off_t>(offset + done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path_ + ": " + std::strerror(errno));
    }
    if (got == 0) {
      return Status::OutOfRange("pread past EOF in " + path_);
    }
    done += static_cast<size_t>(got);
  }
  stats_.RecordRead(n, block_size_);
  return Status::OK();
}

Status BlockFile::WriteAt(uint64_t offset, const void* buf, size_t n) {
  if (fd_ < 0) return Status::FailedPrecondition("file not open");
  size_t done = 0;
  while (done < n) {
    ssize_t put = ::pwrite(fd_, static_cast<const char*>(buf) + done,
                           n - done, static_cast<off_t>(offset + done));
    if (put < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite " + path_ + ": " + std::strerror(errno));
    }
    done += static_cast<size_t>(put);
  }
  stats_.RecordWrite(n, block_size_);
  size_ = std::max(size_, offset + n);
  return Status::OK();
}

Status BlockFile::Append(const void* buf, size_t n) {
  return WriteAt(size_, buf, n);
}

Status BlockFile::Sync() {
  if (fd_ >= 0 && ::fsync(fd_) != 0) {
    return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

void BlockFile::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace hopdb
