// Minimal fork-join parallelism for the label builders. Deliberately
// tiny: no work stealing, no task queue — each invocation splits [0, n)
// into one contiguous chunk per thread. The in-memory builder calls it
// with n == threads to start one worker per thread for its generation
// and pruning passes; the workers then claim owner ranges from a shared
// counter (labeling/builder.cc, ForEachOwner). The external builder's
// candidate sort (labeling/candidate_partition.h) splits real ranges.
//
// ParallelChunks is a header template (not a std::function sink) so the
// builder's tight per-iteration loops pay no type-erasure allocation per
// call: the callable is inlined into each worker's loop.

#ifndef HOPDB_UTIL_PARALLEL_H_
#define HOPDB_UTIL_PARALLEL_H_

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

namespace hopdb {

/// Number of hardware threads (>= 1).
uint32_t HardwareThreads();

/// Runs fn(begin, end, chunk_index) over a partition of [0, n) into
/// min(num_threads, n) contiguous chunks, one per thread (the caller's
/// thread runs the last chunk). Returns after all chunks complete. With
/// num_threads <= 1 or n == 0 the call degenerates to fn(0, n, 0) on the
/// caller's thread. fn must be safe to run concurrently on disjoint
/// ranges.
template <typename Fn>
void ParallelChunks(uint32_t num_threads, size_t n, Fn&& fn) {
  const size_t chunks = std::max<size_t>(1, std::min<size_t>(num_threads, n));
  if (chunks == 1) {
    fn(size_t{0}, n, uint32_t{0});
    return;
  }
  // Even split; the first (n % chunks) chunks carry one extra element.
  const size_t base = n / chunks;
  const size_t extra = n % chunks;
  std::vector<std::thread> workers;
  workers.reserve(chunks - 1);
  size_t begin = 0;
  for (size_t c = 0; c < chunks; ++c) {
    const size_t len = base + (c < extra ? 1 : 0);
    const size_t end = begin + len;
    if (c + 1 == chunks) {
      fn(begin, end, static_cast<uint32_t>(c));  // caller runs final chunk
    } else {
      workers.emplace_back(
          [&fn, begin, end, c] { fn(begin, end, static_cast<uint32_t>(c)); });
    }
    begin = end;
  }
  for (auto& w : workers) w.join();
}

}  // namespace hopdb

#endif  // HOPDB_UTIL_PARALLEL_H_
