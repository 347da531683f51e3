#include "io/mmap_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <vector>

namespace hopdb {

Result<MmapFile> MmapFile::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("fstat " + path + ": " + err);
  }
  if (st.st_size == 0) {
    ::close(fd);
    return Status::InvalidArgument("cannot map empty file: " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping pins the inode; the descriptor is no longer needed either
  // way.
  const int mmap_errno = addr == MAP_FAILED ? errno : 0;
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("mmap " + path + ": " + std::strerror(mmap_errno));
  }
  MmapFile file;
  file.data_ = static_cast<const uint8_t*>(addr);
  file.size_ = size;
  file.path_ = path;
  return file;
}

uint64_t MmapFile::ResidentBytes() const {
  if (data_ == nullptr) return 0;
  const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t pages = (size_ + page - 1) / page;
  std::vector<unsigned char> resident(pages);
  if (::mincore(const_cast<uint8_t*>(data_), size_, resident.data()) != 0) {
    return 0;
  }
  uint64_t count = 0;
  for (size_t i = 0; i < pages; ++i) count += resident[i] & 1u;
  // The last page may extend past EOF; counting it whole keeps the gauge
  // monotone and is at most one page of overstatement.
  return count * page;
}

void MmapFile::Unmap() {
  if (data_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace hopdb
