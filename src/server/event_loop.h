// Event-driven serving core: a small set of I/O threads own every
// client socket through epoll, so connection count no longer costs one
// OS thread per socket (the pre-epoll design topped out at a few
// thousand connections of stack memory and scheduler load; this one
// holds tens of thousands of idle sockets at a fixed thread count).
//
// Division of labor:
//
//   IoGroup ── round-robins accepted fds over N IoThreads
//      │
//   IoThread ── epoll loop: reads, splits the byte stream into
//      │        requests (v1 lines or v2 frames; the first byte of a
//      │        connection picks the framing), opens one ordered
//      │        response slot per request, and hands the parsed
//      │        request to the RequestSink (the server), which runs it
//      │        on the worker pool
//      │
//   Connection::Complete(seq, response) ── called by any thread when a
//               request finishes; the owning IoThread encodes and
//               writes consecutive completed slots, so responses go out
//               in request order no matter how the workers interleave
//
// Because a reader never waits for a response, N pipelined requests on
// one connection execute concurrently across the worker pool; the slot
// deque re-serializes only the bytes on the wire.
//
// Admission control lives at both ends of an I/O thread: a connection
// with max_inflight_per_conn unanswered requests (or an unread response
// backlog above kMaxBufferedOutBytes) stops being read until it drains,
// and the sink sheds with BUSY when the worker queue is full — an
// overloaded server degrades to fast BUSY answers instead of stalling
// its I/O threads (BoundedQueue::TryPush never blocks).

#ifndef HOPDB_SERVER_EVENT_LOOP_H_
#define HOPDB_SERVER_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "server/trace.h"
#include "util/status.h"

namespace hopdb {

class IoThread;

/// Wire framing of one connection, decided by its first byte (0x02
/// opens the v2 binary handshake; anything else is a v1 ASCII line).
enum class WireVersion : uint8_t { kUnknown, kV1, kV2 };

/// One client socket, owned by exactly one IoThread. All fields except
/// the completion slots are touched only by the owner; the slot deque
/// and output buffer are mutex-guarded because workers complete into
/// them from arbitrary threads.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  Connection(int fd, IoThread* owner) : fd_(fd), owner_(owner) {}

  /// Delivers the response for slot `seq` (exactly once per slot,
  /// from any thread). The owning I/O thread writes slots to the
  /// socket strictly in seq order; completing out of order is fine.
  /// Safe after the connection died — late responses are dropped.
  /// The request's trace rides along; once the response's last byte is
  /// accepted by the kernel the trace (with status and written_ns
  /// filled) is delivered to RequestSink::HandleTraceDone.
  void Complete(uint64_t seq, WireResponse response, RequestTrace trace);
  void Complete(uint64_t seq, WireResponse response) {
    Complete(seq, std::move(response), RequestTrace{});
  }

  int fd() const { return fd_; }

 private:
  friend class IoThread;

  struct Slot {
    WireResponse response;
    RequestTrace trace;
    bool done = false;
  };

  /// A response encoded into out_ but not yet fully written; `end` is
  /// the absolute (connection-lifetime) byte offset one past its last
  /// byte. Writes drain strictly in order, so a FIFO suffices.
  struct PendingWrite {
    uint64_t end = 0;
    RequestTrace trace;
  };

  /// Appends an empty slot and returns its seq (owner thread, while
  /// parsing the request that will fill it).
  uint64_t OpenSlot();

  const int fd_;
  IoThread* const owner_;

  // --- owner-thread-only state ---
  WireVersion version_ = WireVersion::kUnknown;
  std::string in_;            // bytes read, not yet parsed
  uint32_t epoll_events_ = 0; // interest mask currently registered

  // --- shared state, guarded by mu_ ---
  std::mutex mu_;
  std::deque<Slot> slots_;    // front is seq base_seq_
  uint64_t base_seq_ = 0;
  uint64_t next_seq_ = 0;
  std::string out_;           // encoded, not yet written
  size_t out_off_ = 0;
  std::deque<PendingWrite> pending_writes_;  // encoded, awaiting written_ns
  uint64_t total_encoded_ = 0;  // lifetime bytes encoded into out_
  uint64_t total_written_ = 0;  // lifetime bytes accepted by send()
  bool closed_ = false;            // fd closed; drop everything late
  bool close_after_flush_ = false; // EOF/fatal: close once slots drain
  bool read_shutdown_ = false;     // permanent: EOF or fatal error
  bool read_paused_ = false;       // admission: resumes when drained
  bool flush_queued_ = false;      // already in owner's flush queue
};

/// Where parsed requests go. Implemented by DistanceServer; called on
/// I/O threads, so implementations must not block (enqueue or answer
/// inline via Connection::Complete).
class RequestSink {
 public:
  virtual ~RequestSink() = default;
  /// A well-formed request for slot `seq`. The sink must arrange for
  /// conn->Complete(seq, ...) to be called exactly once. `trace` has
  /// accepted/parsed stamped (and trace_id when sampled); the sink owns
  /// the remaining stages.
  virtual void HandleRequest(const std::shared_ptr<Connection>& conn,
                             uint64_t seq, Request request,
                             RequestTrace trace) = 0;
  /// A malformed request (still owns slot `seq`, so the error answer
  /// stays ordered among its pipelined neighbors).
  virtual void HandleParseError(const std::shared_ptr<Connection>& conn,
                                uint64_t seq, std::string message,
                                RequestTrace trace) = 0;
  /// The response for a traced request was fully handed to the kernel;
  /// `trace` has every stage timestamp and the final status. Called on
  /// the connection's I/O thread outside any lock; must not block.
  virtual void HandleTraceDone(const RequestTrace& trace) { (void)trace; }
};

struct IoGroupOptions {
  /// Number of epoll threads.
  uint32_t num_threads = 1;
  /// Per-connection unanswered-request cap; a connection at the cap is
  /// not read again until responses drain (pipelining backpressure).
  uint32_t max_inflight_per_conn = 128;
  /// Assign a trace id to every Nth parsed request (0 disables
  /// sampling). Stage timestamps are stamped regardless; sampling only
  /// decides which traces enter the in-memory trace ring.
  uint32_t trace_sample_every = 0;
};

/// One epoll loop plus the cross-thread mailboxes feeding it.
class IoThread {
 public:
  IoThread() = default;
  ~IoThread();
  IoThread(const IoThread&) = delete;
  IoThread& operator=(const IoThread&) = delete;

  Status Start(const IoGroupOptions& options, RequestSink* sink);
  /// Transfers ownership of an accepted socket to this thread
  /// (thread-safe; the fd is made non-blocking on adoption).
  void Adopt(int fd);
  /// Asks the owner thread to flush `conn` (thread-safe; used by
  /// Connection::Complete when a response becomes writable).
  void RequestFlush(std::shared_ptr<Connection> conn);
  /// shutdown(SHUT_RD)s every connection: in-flight requests still get
  /// answered and flushed, but no new bytes are read (thread-safe).
  void ShutdownReads();
  /// Final best-effort flush, close everything, join (idempotent).
  void Stop();

  size_t open_connections() const {
    return open_count_.load(std::memory_order_relaxed);
  }

 private:
  void Run();
  void DrainMailbox();
  void AddConnection(int fd);
  /// Reads and parses until EAGAIN, EOF, a fatal framing error, or the
  /// in-flight cap pauses the connection.
  void ProcessInput(const std::shared_ptr<Connection>& conn);
  /// Splits conn->in_ into requests; returns false on fatal error.
  bool ParseBuffered(const std::shared_ptr<Connection>& conn);
  /// Encodes completed head slots and writes; re-arms EPOLLOUT or
  /// resumes a paused reader as the buffers dictate.
  void FlushConnection(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  /// Opens an error slot, completes it inline through the sink, and
  /// marks the connection to close once everything before it flushed.
  void FatalProtocolError(const std::shared_ptr<Connection>& conn,
                          std::string message, RequestTrace trace);
  void UpdateInterestLocked(Connection* conn);
  /// Starts a trace for the request being parsed right now: stamps
  /// accepted_ns and allocates a trace id on the sampling cadence.
  RequestTrace BeginTrace(uint64_t accepted_ns);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  RequestSink* sink_ = nullptr;
  uint32_t max_inflight_ = 128;
  uint32_t trace_sample_every_ = 0;
  uint64_t trace_counter_ = 0;  // owner-thread-only sampling cadence
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> open_count_{0};

  /// Owner-thread-only: every live connection on this loop.
  std::unordered_map<int, std::shared_ptr<Connection>> conns_;

  /// Cross-thread mailbox, drained on wake_fd_ wakeups.
  std::mutex mailbox_mu_;
  std::vector<int> pending_adds_;
  std::vector<std::shared_ptr<Connection>> pending_flushes_;
  bool pending_shutdown_reads_ = false;
};

/// The serving-side socket owner: N IoThreads behind one Adopt().
class IoGroup {
 public:
  Status Start(const IoGroupOptions& options, RequestSink* sink);
  /// Round-robins the accepted fd onto an I/O thread (thread-safe).
  void Adopt(int fd);
  void ShutdownReads();
  void Stop();
  size_t open_connections() const;

 private:
  std::vector<std::unique_ptr<IoThread>> threads_;
  std::atomic<uint64_t> next_thread_{0};
};

}  // namespace hopdb

#endif  // HOPDB_SERVER_EVENT_LOOP_H_
