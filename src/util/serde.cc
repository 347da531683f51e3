#include "util/serde.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <sys/stat.h>
#include <unistd.h>

namespace hopdb {

Status ReadFileToString(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("open failed for " + path + ": " +
                           std::strerror(errno));
  }
  // A directory opens too, so anything but a regular file is refused
  // here, before its reported size sizes the buffer.
  struct stat st;
  if (::fstat(::fileno(f), &st) != 0) {
    const std::string err = std::strerror(errno);
    std::fclose(f);
    return Status::IOError("fstat failed for " + path + ": " + err);
  }
  if (!S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::IOError("not a regular file: " + path);
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = out->empty() ? 0 : std::fread(out->data(), 1, out->size(), f);
  std::fclose(f);
  if (got != out->size()) {
    return Status::IOError("short read from " + path);
  }
  return Status::OK();
}

Status WriteStringToFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("open failed for " + path + ": " +
                           std::strerror(errno));
  }
  size_t put = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), f);
  int rc = std::fclose(f);
  if (put != data.size() || rc != 0) {
    return Status::IOError("short write to " + path);
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError("unlink failed for " + path + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Result<uint64_t> FileSizeBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("stat failed for " + path + ": " +
                           std::strerror(errno));
  }
  return static_cast<uint64_t>(st.st_size);
}

}  // namespace hopdb
