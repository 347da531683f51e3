// CHECK macros: fatal invariant assertions, in the spirit of
// glog-without-glog used by Arrow and RocksDB internals. Structured
// event logging lives in util/log.h.
//
//   HOPDB_CHECK(x > 0) << "x must be positive, got " << x;
//   HOPDB_DCHECK_LE(a, b);   // compiled out in NDEBUG builds
//
// A failed check prints "[FATAL file:line] Check failed: ..." plus the
// streamed context to stderr and aborts.

#ifndef HOPDB_UTIL_LOGGING_H_
#define HOPDB_UTIL_LOGGING_H_

#include <sstream>
#include <string>

namespace hopdb {
namespace internal {

/// Collects a failed check's message; the destructor prints it and
/// aborts.
class FatalMessage {
 public:
  FatalMessage(const char* file, int line);
  [[noreturn]] ~FatalMessage();

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace hopdb

#define HOPDB_CHECK(cond)                                          \
  if (!(cond))                                                     \
  ::hopdb::internal::FatalMessage(__FILE__, __LINE__).stream()     \
      << "Check failed: " #cond " "

#define HOPDB_CHECK_OP(op, a, b) HOPDB_CHECK((a)op(b))
#define HOPDB_CHECK_EQ(a, b) HOPDB_CHECK_OP(==, a, b)
#define HOPDB_CHECK_NE(a, b) HOPDB_CHECK_OP(!=, a, b)
#define HOPDB_CHECK_LT(a, b) HOPDB_CHECK_OP(<, a, b)
#define HOPDB_CHECK_LE(a, b) HOPDB_CHECK_OP(<=, a, b)
#define HOPDB_CHECK_GT(a, b) HOPDB_CHECK_OP(>, a, b)
#define HOPDB_CHECK_GE(a, b) HOPDB_CHECK_OP(>=, a, b)

#ifdef NDEBUG
#define HOPDB_DCHECK(cond) \
  while (false) HOPDB_CHECK(cond)
#else
#define HOPDB_DCHECK(cond) HOPDB_CHECK(cond)
#endif

#define HOPDB_DCHECK_EQ(a, b) HOPDB_DCHECK((a) == (b))
#define HOPDB_DCHECK_NE(a, b) HOPDB_DCHECK((a) != (b))
#define HOPDB_DCHECK_LT(a, b) HOPDB_DCHECK((a) < (b))
#define HOPDB_DCHECK_LE(a, b) HOPDB_DCHECK((a) <= (b))
#define HOPDB_DCHECK_GT(a, b) HOPDB_DCHECK((a) > (b))
#define HOPDB_DCHECK_GE(a, b) HOPDB_DCHECK((a) >= (b))

#endif  // HOPDB_UTIL_LOGGING_H_
