// Lock-free server metrics: request counters plus log-scale latency
// histograms — one overall, one for degraded (shed/error) requests, one
// per pipeline stage, and one per verb.
//
// Latencies are recorded in microseconds into power-of-two buckets
// (bucket i covers [2^i, 2^(i+1)) us, bucket 0 covers [0, 2)). A
// percentile is answered by walking the cumulative histogram and
// returning the upper bound of the bucket containing that rank — at most
// 2x off, which is plenty for "did p99 regress 10x" monitoring, and it
// needs no per-request allocation, sorting, or locking. All counters are
// relaxed atomics: STATS/METRICS readers see a near-consistent snapshot,
// which is the standard contract for monitoring counters.
//
// Counters (requests/errors/shed) are bumped when a response is
// completed; histograms are fed from RecordTrace when the response's
// last byte reaches the kernel (RequestSink::HandleTraceDone), so
// latency covers the full accepted->written span including socket
// writes. Requests whose connection dies mid-write are counted but
// never reach the histograms.

#ifndef HOPDB_SERVER_METRICS_H_
#define HOPDB_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>

#include "server/trace.h"

namespace hopdb {

/// One log-scale latency histogram (see file comment for semantics).
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 40;  // up to ~2^39 us ≈ 6 days

  void Record(uint64_t us) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
    size_t bucket = 0;
    while (us >= 2 && bucket + 1 < kBuckets) {
      us >>= 1;
      ++bucket;
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  /// Upper bound (us) of the bucket holding the p-th percentile sample,
  /// p in [0, 100] (clamped). 0 when nothing was recorded.
  uint64_t PercentileUs(double p) const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }

  /// Relaxed per-bucket snapshot (Prometheus histogram rendering).
  std::array<uint64_t, kBuckets> BucketSnapshot() const {
    std::array<uint64_t, kBuckets> out;
    for (size_t i = 0; i < kBuckets; ++i) {
      out[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

  /// Upper bound (us) of bucket i.
  static uint64_t BucketUpperBoundUs(size_t i) { return 2ull << i; }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_us_{0};
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
};

class ServerMetrics {
 public:
  /// Counts one completed request. Latency histograms are fed separately
  /// by RecordTrace once the response bytes are written.
  void CountRequest() { requests_.fetch_add(1, std::memory_order_relaxed); }

  /// Feeds every histogram from one completed trace: overall (or
  /// degraded for shed/error/parse-error requests), per-stage, per-verb.
  void RecordTrace(const RequestTrace& trace);

  void RecordError() { errors_.fetch_add(1, std::memory_order_relaxed); }
  /// One request shed with BUSY by admission control (distinct from
  /// errors(): shed load is expected under overload, not a fault).
  void RecordShed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  void RecordSlowQuery() {
    slow_queries_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordDist(uint64_t n = 1) {
    dist_queries_.fetch_add(n, std::memory_order_relaxed);
  }
  void RecordBatch() { batch_requests_.fetch_add(1, std::memory_order_relaxed); }
  void RecordKnn() { knn_requests_.fetch_add(1, std::memory_order_relaxed); }
  void RecordWithin() {
    within_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordReach() {
    reach_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordPath() {
    path_requests_.fetch_add(1, std::memory_order_relaxed);
  }
  void RecordReload() { reloads_.fetch_add(1, std::memory_order_relaxed); }
  void RecordMicroBatch(uint64_t batched_queries) {
    micro_batches_.fetch_add(1, std::memory_order_relaxed);
    micro_batched_queries_.fetch_add(batched_queries,
                                     std::memory_order_relaxed);
  }

  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }
  uint64_t shed() const { return shed_.load(std::memory_order_relaxed); }
  uint64_t slow_queries() const {
    return slow_queries_.load(std::memory_order_relaxed);
  }
  uint64_t traces_sampled() const {
    return traces_sampled_.load(std::memory_order_relaxed);
  }
  uint64_t dist_queries() const {
    return dist_queries_.load(std::memory_order_relaxed);
  }
  uint64_t batch_requests() const {
    return batch_requests_.load(std::memory_order_relaxed);
  }
  uint64_t knn_requests() const {
    return knn_requests_.load(std::memory_order_relaxed);
  }
  uint64_t within_requests() const {
    return within_requests_.load(std::memory_order_relaxed);
  }
  uint64_t reach_requests() const {
    return reach_requests_.load(std::memory_order_relaxed);
  }
  uint64_t path_requests() const {
    return path_requests_.load(std::memory_order_relaxed);
  }
  uint64_t reloads() const { return reloads_.load(std::memory_order_relaxed); }
  uint64_t micro_batches() const {
    return micro_batches_.load(std::memory_order_relaxed);
  }
  uint64_t micro_batched_queries() const {
    return micro_batched_queries_.load(std::memory_order_relaxed);
  }

  const LatencyHistogram& latency_histogram() const { return latency_; }
  const LatencyHistogram& degraded_histogram() const { return degraded_; }
  const LatencyHistogram& queue_wait_histogram() const { return queue_wait_; }
  const LatencyHistogram& execute_histogram() const { return execute_; }
  const LatencyHistogram& write_histogram() const { return write_; }
  const LatencyHistogram& verb_histogram(RequestKind kind) const {
    return verb_latency_[static_cast<size_t>(kind)];
  }

 private:
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> slow_queries_{0};
  std::atomic<uint64_t> traces_sampled_{0};
  std::atomic<uint64_t> dist_queries_{0};
  std::atomic<uint64_t> batch_requests_{0};
  std::atomic<uint64_t> knn_requests_{0};
  std::atomic<uint64_t> within_requests_{0};
  std::atomic<uint64_t> reach_requests_{0};
  std::atomic<uint64_t> path_requests_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> micro_batches_{0};
  std::atomic<uint64_t> micro_batched_queries_{0};

  /// accepted -> written, requests answered OK.
  LatencyHistogram latency_;
  /// accepted -> written, shed / error / parse-error requests — overload
  /// latency must stay visible even though those answers are cheap.
  LatencyHistogram degraded_;
  /// enqueued -> dequeued (skipped for shed and parse-error requests,
  /// which never traverse the queue).
  LatencyHistogram queue_wait_;
  /// dequeued -> executed (same skip rule as queue_wait_).
  LatencyHistogram execute_;
  /// executed -> written: encode wait plus socket write backlog.
  LatencyHistogram write_;
  /// accepted -> written per verb (parse errors have no verb).
  std::array<LatencyHistogram, kNumRequestKinds> verb_latency_;
};

}  // namespace hopdb

#endif  // HOPDB_SERVER_METRICS_H_
