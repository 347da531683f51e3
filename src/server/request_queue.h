// A bounded multi-producer / multi-consumer FIFO built on a mutex and a
// condition variable. Producers never block: TryPush fails fast when
// the queue is full, so an event-loop producer can shed load with a
// BUSY response instead of stalling its whole I/O thread. Consumers
// block while it is empty. Close() wakes every consumer: pending items
// still drain, further pushes are refused.
//
// PopBatch takes every immediately available item up to `max` in one
// lock hold, so a worker pays one wakeup for a burst of queued requests
// without adding latency when the queue is shallow.

#ifndef HOPDB_SERVER_REQUEST_QUEUE_H_
#define HOPDB_SERVER_REQUEST_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

namespace hopdb {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// TryPush outcome: the two failure modes need different client-facing
  /// answers (kFull -> BUSY, retryable; kClosed -> shutting down).
  enum class PushResult : uint8_t { kOk, kFull, kClosed };

  /// Never blocks. Moves from *item only on kOk; on kFull/kClosed the
  /// item is left intact so the caller can answer it inline.
  PushResult TryPush(T* item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return PushResult::kClosed;
      if (items_.size() >= capacity_) return PushResult::kFull;
      items_.push_back(std::move(*item));
    }
    not_empty_.notify_one();
    return PushResult::kOk;
  }

  /// Blocks for the first item, then drains up to `max` items that are
  /// already queued into `out` (appended). Returns the number taken;
  /// 0 only when closed and drained.
  size_t PopBatch(std::vector<T>* out, size_t max) {
    if (max == 0) return 0;
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    size_t taken = 0;
    while (taken < max && !items_.empty()) {
      out->push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    return taken;
  }

  /// Refuses further pushes and wakes all blocked consumers. Already
  /// queued items remain poppable.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace hopdb

#endif  // HOPDB_SERVER_REQUEST_QUEUE_H_
