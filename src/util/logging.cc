#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace hopdb {
namespace internal {

FatalMessage::FatalMessage(const char* file, int line) {
  // Keep only the basename to keep lines short.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[FATAL " << base << ":" << line << "] ";
}

FatalMessage::~FatalMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace hopdb
