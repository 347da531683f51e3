#include "io/window_reader.h"

#include <algorithm>
#include <cstring>

namespace hopdb {

Status WindowReader::Refill(size_t n) {
  std::memmove(window_.get(), window_.get() + begin_, buffered());
  end_ = buffered();
  begin_ = 0;
  const size_t more = static_cast<size_t>(std::min<uint64_t>(
      kLoadWindowBytes - end_, file_->size() - next_read_));
  if (end_ + more < n) {
    return Status::InvalidArgument("file ends inside a field");
  }
  HOPDB_RETURN_NOT_OK(file_->ReadAt(next_read_, window_.get() + end_, more));
  next_read_ += more;
  end_ += more;
  return Status::OK();
}

Status WindowReader::Skip(uint64_t n) {
  while (n > 0 && position() < hash_end_) {
    HOPDB_RETURN_NOT_OK(Fill(1));
    const size_t k = static_cast<size_t>(std::min<uint64_t>(n, buffered()));
    Consume(k);
    n -= k;
  }
  if (n <= buffered()) {
    begin_ += static_cast<size_t>(n);
  } else {
    next_read_ = position() + n;
    begin_ = end_ = 0;
  }
  return Status::OK();
}

}  // namespace hopdb
