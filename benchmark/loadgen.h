// TCP traffic for the benchmark: one generator thread driving at most
// four loopback connections through epoll.
//
// Two phase shapes:
//   - open loop: reads are due on a fixed schedule (rate) and are sent
//     when due, whether or not earlier answers have arrived, so a stall
//     shows up as latency measured from the due time. An optional update
//     stream runs on its own connection, one op at a time: each op is
//     sent when the previous one is answered and its own due time (on a
//     slower schedule) has come.
//   - closed loop: every connection keeps `depth` reads in flight and
//     sends the next one as each answer arrives, until time runs out.
// Requests are pre-encoded before a phase starts; the generator only
// copies bytes, stamps times and hands each answer to a callback.

#ifndef HOPDB_BENCHMARK_LOADGEN_H_
#define HOPDB_BENCHMARK_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "server/protocol.h"
#include "util/status.h"
#include "workloads.h"

namespace hopdb_bench {

enum class Framing { kV1, kV2 };

/// Requests encoded for the wire, back to back.
struct EncodedStream {
  std::string bytes;
  std::vector<size_t> offsets{0};

  size_t size() const { return offsets.size() - 1; }
  std::string_view at(size_t i) const {
    return std::string_view(bytes).substr(offsets[i],
                                          offsets[i + 1] - offsets[i]);
  }
};

EncodedStream EncodeReads(const RequestPool& pool, Framing framing);
/// v1 lines: ADDEDGE / DELEDGE / COMMIT.
EncodedStream EncodeUpdates(const std::vector<UpdateStep>& steps);

/// One answered request as the generator saw it.
struct Completion {
  bool update = false;  // from the update stream
  uint64_t index = 0;   // position in its stream (reads: modulo the pool)
  uint64_t seq = 0;     // position among this phase's reads / updates
  int64_t due_ns = 0;   // open loop: scheduled time; closed loop: sent
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  /// COMMITs answered before the request was sent, and COMMITs sent
  /// before its answer arrived: the snapshots it may have read.
  uint32_t epoch_lo = 0;
  uint32_t epoch_hi = 0;
};

using ReplyFn =
    std::function<void(const Completion&, const hopdb::WireResponse&)>;

struct PhaseStats {
  /// Sent but never answered (counted as failed).
  uint64_t lost = 0;
  double seconds = 0;
  /// Open loop: per read, sent time minus due time.
  std::vector<double> lag_us;
  /// CPU time of the generator thread over the phase.
  double cpu_s = 0;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(Framing framing) : framing_(framing) {}
  ~LoadGenerator() { Close(); }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  hopdb::Status Connect(uint16_t port, int connections);
  void Close();

  struct OpenLoop {
    /// Due time of the first read (NowNs clock); 0 = now.
    int64_t start_ns = 0;
    const EncodedStream* reads = nullptr;
    uint64_t first_read = 0;  // stream position of the first read
    uint64_t count = 0;       // reads to send
    double rate = 0;          // reads per second, all connections
    int read_connections = 1; // the first N connections carry reads
    /// Serial op stream on the last connection, or null. Op k is sent
    /// once op k-1 is answered and not before its due time at
    /// `update_rate` ops per second (0: at once).
    const EncodedStream* updates = nullptr;
    const std::vector<bool>* is_commit = nullptr;
    double update_rate = 0;
  };
  PhaseStats RunOpenLoop(const OpenLoop& spec, const ReplyFn& on_reply);

  PhaseStats RunClosedLoop(const EncodedStream& reads, uint64_t first_read,
                           double seconds, int depth,
                           const ReplyFn& on_reply);

 private:
  struct Pending {
    bool update;
    uint64_t index;
    uint64_t seq;
    int64_t due_ns;
    int64_t sent_ns;
    uint32_t epoch_lo;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t out_off = 0;
    std::string in;
    std::deque<Pending> pending;
    bool want_write = false;
  };

  void Send(Conn* conn, std::string_view bytes, const Pending& pending);
  bool Flush(Conn* conn);
  void ArmWrite(Conn* conn, bool want);
  /// Reads what the socket has and hands complete answers to on_reply;
  /// `after` runs once per answer (the closed loop refills from it).
  bool Receive(Conn* conn, const ReplyFn& on_reply,
               const std::function<void(Conn*, const Completion&)>& after);
  bool ParseOne(Conn* conn, size_t* off, hopdb::WireResponse* response,
                bool* need_more);
  void Wait(int64_t timeout_ns,
            const std::function<void(Conn*, uint32_t)>& on_event);
  uint64_t Outstanding() const;
  uint64_t DropOutstanding();

  Framing framing_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  /// Set when a connection broke; later phases send nothing.
  bool broken_ = false;
  uint32_t commits_sent_ = 0;
  uint32_t commits_acked_ = 0;
  const std::vector<bool>* is_commit_ = nullptr;
};

}  // namespace hopdb_bench

#endif  // HOPDB_BENCHMARK_LOADGEN_H_
