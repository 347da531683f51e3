#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

#include "server/client.h"
#include "trace.h"

namespace hopdb_bench {
namespace {

using hopdb::Request;
using hopdb::RequestKind;
using hopdb::WireResponse;
using hopdb::WireStatus;

/// An open-loop phase gives up on answers this long after its last due
/// time, and on an unfinished op stream this long after it started.
constexpr int64_t kDrainNs = 10'000'000'000;
constexpr int64_t kMaxPhaseNs = 90'000'000'000;

double ThreadCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

Request ToRequest(const RequestPool& pool, size_t i) {
  Request request;
  request.src = pool.src[i];
  request.targets.assign(pool.targets.begin() + pool.target_begin[i],
                         pool.targets.begin() + pool.target_begin[i + 1]);
  request.k = pool.arg[i];
  switch (pool.verb[i]) {
    case Verb::kDist:
      request.kind = RequestKind::kDist;
      break;
    case Verb::kBatch:
      request.kind = RequestKind::kBatch;
      break;
    case Verb::kReach:
      request.kind = RequestKind::kReach;
      break;
    case Verb::kKnn:
      request.kind = RequestKind::kKnn;
      break;
  }
  return request;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

}  // namespace

EncodedStream EncodeReads(const RequestPool& pool, Framing framing) {
  EncodedStream out;
  out.offsets.reserve(pool.size() + 1);
  for (size_t i = 0; i < pool.size(); ++i) {
    const Request request = ToRequest(pool, i);
    if (framing == Framing::kV2) {
      hopdb::EncodeRequestV2(request, &out.bytes);
    } else {
      out.bytes += hopdb::FormatRequestV1(request);
      out.bytes += '\n';
    }
    out.offsets.push_back(out.bytes.size());
  }
  return out;
}

EncodedStream EncodeUpdates(const std::vector<UpdateStep>& steps) {
  EncodedStream out;
  for (const UpdateStep& step : steps) {
    Request request;
    request.src = step.u;
    request.targets = {step.v};
    request.k = 1;
    switch (step.kind) {
      case UpdateStep::Kind::kAddEdge:
        request.kind = RequestKind::kAddEdge;
        break;
      case UpdateStep::Kind::kDelEdge:
        request.kind = RequestKind::kDelEdge;
        break;
      case UpdateStep::Kind::kCommit:
        request.kind = RequestKind::kCommit;
        break;
    }
    out.bytes += hopdb::FormatRequestV1(request);
    out.bytes += '\n';
    out.offsets.push_back(out.bytes.size());
  }
  return out;
}

hopdb::Status LoadGenerator::Connect(uint16_t port, int connections) {
  // The default 50 us timer slack would make every send wake up late;
  // this thread only (the server's threads already exist and keep theirs).
  prctl(PR_SET_TIMERSLACK, 1UL);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return hopdb::Status::IOError("epoll_create1 failed");
  conns_.resize(static_cast<size_t>(connections));
  for (size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    conn.fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (conn.fd < 0) return hopdb::Status::IOError("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(conn.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
      return hopdb::Status::IOError(std::string("connect failed: ") +
                                    std::strerror(errno));
    }
    int one = 1;
    setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int flags = fcntl(conn.fd, F_GETFL, 0);
    fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<uint32_t>(i);
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) < 0) {
      return hopdb::Status::IOError("epoll_ctl failed");
    }
    if (framing_ == Framing::kV2) {
      conn.out.assign(hopdb::kV2Magic, sizeof(hopdb::kV2Magic));
      if (!Flush(&conn)) return hopdb::Status::IOError("send failed");
    }
  }
  return hopdb::Status::OK();
}

void LoadGenerator::Close() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0) close(conn.fd);
    conn.fd = -1;
  }
  conns_.clear();
  if (epoll_fd_ >= 0) close(epoll_fd_);
  epoll_fd_ = -1;
}

void LoadGenerator::Send(Conn* conn, std::string_view bytes,
                         const Pending& pending) {
  conn->out.append(bytes);
  conn->pending.push_back(pending);
}

bool LoadGenerator::Flush(Conn* conn) {
  while (conn->out_off < conn->out.size()) {
    const ssize_t n =
        send(conn->fd, conn->out.data() + conn->out_off,
             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ArmWrite(conn, true);
      return true;
    }
    return false;
  }
  conn->out.clear();
  conn->out_off = 0;
  ArmWrite(conn, false);
  return true;
}

void LoadGenerator::ArmWrite(Conn* conn, bool want) {
  if (conn->want_write == want) return;
  conn->want_write = want;
  epoll_event ev{};
  ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.u32 = static_cast<uint32_t>(conn - conns_.data());
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

bool LoadGenerator::ParseOne(Conn* conn, size_t* off, WireResponse* response,
                             bool* need_more) {
  const char* data = conn->in.data() + *off;
  const size_t size = conn->in.size() - *off;
  if (framing_ == Framing::kV2) {
    size_t consumed = 0;
    std::string error;
    const hopdb::FrameParse verdict =
        hopdb::ParseResponseFrameV2(data, size, &consumed, response, &error);
    if (verdict == hopdb::FrameParse::kNeedMore) {
      *need_more = true;
      return true;
    }
    if (verdict == hopdb::FrameParse::kError) return false;
    *off += consumed;
    return true;
  }
  const void* newline = std::memchr(data, '\n', size);
  if (newline == nullptr) {
    *need_more = true;
    return true;
  }
  const size_t length = static_cast<size_t>(
      static_cast<const char*>(newline) - data);
  const std::string_view line(data, length);
  *off += length + 1;
  *response = WireResponse{};
  if (StartsWith(line, "ERR BUSY")) {
    response->status = WireStatus::kBusy;
  } else if (!StartsWith(line, "OK")) {
    response->status = WireStatus::kErr;
    response->text = std::string(line);
  } else if (conn->pending.front().update) {
    response->text = std::string(line.substr(std::min<size_t>(3, length)));
  } else {
    const hopdb::Result<Distance> d = hopdb::ParseDistanceToken(
        std::string(line.substr(std::min<size_t>(3, length))));
    if (d.ok()) {
      response->payload = hopdb::WirePayload::kDistance;
      response->distance = *d;
    } else {
      response->status = WireStatus::kErr;
      response->text = std::string(line);
    }
  }
  return true;
}

bool LoadGenerator::Receive(
    Conn* conn, const ReplyFn& on_reply,
    const std::function<void(Conn*, const Completion&)>& after) {
  char chunk[1 << 16];
  WireResponse response;
  for (;;) {
    const ssize_t n = recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) return false;
    conn->in.append(chunk, static_cast<size_t>(n));
    size_t off = 0;
    while (!conn->pending.empty()) {
      bool need_more = false;
      if (!ParseOne(conn, &off, &response, &need_more)) return false;
      if (need_more) break;
      const Pending p = conn->pending.front();
      conn->pending.pop_front();
      if (p.update && (*is_commit_)[p.index]) ++commits_acked_;
      const Completion done{p.update,  p.index,  p.seq,         p.due_ns,
                            p.sent_ns, NowNs(), p.epoch_lo, commits_sent_};
      on_reply(done, response);
      if (after) after(conn, done);
    }
    conn->in.erase(0, off);
  }
}

void LoadGenerator::Wait(
    int64_t timeout_ns,
    const std::function<void(Conn*, uint32_t)>& on_event) {
  epoll_event events[16];
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(timeout_ns / 1'000'000'000);
  timeout.tv_nsec = static_cast<long>(timeout_ns % 1'000'000'000);
  const int ready = epoll_pwait2(epoll_fd_, events, 16, &timeout, nullptr);
  for (int e = 0; e < ready; ++e) {
    on_event(&conns_[events[e].data.u32], events[e].events);
  }
}

uint64_t LoadGenerator::Outstanding() const {
  uint64_t total = 0;
  for (const Conn& conn : conns_) total += conn.pending.size();
  return total;
}

uint64_t LoadGenerator::DropOutstanding() {
  const uint64_t lost = Outstanding();
  if (lost > 0) {
    // Late answers would be matched to the wrong requests: stop here.
    broken_ = true;
    Close();
  }
  return lost;
}

PhaseStats LoadGenerator::RunOpenLoop(const OpenLoop& spec,
                                      const ReplyFn& on_reply) {
  PhaseStats stats;
  if (broken_ || conns_.empty()) {
    stats.lost = spec.count + (spec.updates ? spec.updates->size() : 0);
    return stats;
  }
  is_commit_ = spec.is_commit;
  Conn* update_conn = spec.updates != nullptr ? &conns_.back() : nullptr;
  const size_t read_conns = std::min<size_t>(
      static_cast<size_t>(spec.read_connections),
      conns_.size() - (update_conn != nullptr ? 1 : 0));
  const double interval_ns = 1e9 / spec.rate;
  const double cpu_start = ThreadCpuSeconds();
  const int64_t start = spec.start_ns != 0 ? spec.start_ns : NowNs();
  const auto due = [&](uint64_t k) {
    return start + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
  };
  const auto update_due = [&](uint64_t k) {
    return spec.update_rate <= 0
               ? start
               : start + static_cast<int64_t>(static_cast<double>(k) * 1e9 /
                                              spec.update_rate);
  };
  stats.lag_us.reserve(spec.count);

  uint64_t next_read = 0;
  uint64_t next_update = 0;
  bool update_in_flight = false;
  const auto update_waiting = [&] {
    return update_conn != nullptr && !update_in_flight &&
           next_update < spec.updates->size();
  };
  const auto send_update = [&] {
    const int64_t now = NowNs();
    if (!update_waiting() || now < update_due(next_update)) return;
    if ((*spec.is_commit)[next_update]) ++commits_sent_;
    Send(update_conn, spec.updates->at(next_update),
         Pending{true, next_update, next_update, now, now, commits_acked_});
    ++next_update;
    update_in_flight = true;
    if (!Flush(update_conn)) broken_ = true;
  };
  const auto after = [&](Conn*, const Completion& done) {
    if (done.update) {
      update_in_flight = false;
      send_update();
    }
  };
  const auto on_event = [&](Conn* conn, uint32_t events) {
    if ((events & EPOLLOUT) && !Flush(conn)) broken_ = true;
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) &&
        !Receive(conn, on_reply, after)) {
      broken_ = true;
    }
  };

  while (NowNs() < start) Wait(start - NowNs(), on_event);
  while (!broken_) {
    send_update();
    int64_t now = NowNs();
    while (next_read < spec.count && due(next_read) <= now) {
      Conn& conn = conns_[next_read % read_conns];
      const uint64_t index = (spec.first_read + next_read) % spec.reads->size();
      Send(&conn, spec.reads->at(index),
           Pending{false, index, next_read, due(next_read), now,
                   commits_acked_});
      stats.lag_us.push_back(static_cast<double>(now - due(next_read)) * 1e-3);
      ++next_read;
        if (!Flush(&conn)) broken_ = true;
      now = NowNs();
    }
    const bool updates_done =
        update_conn == nullptr ||
        (next_update == spec.updates->size() && !update_in_flight);
    if (next_read == spec.count && updates_done && Outstanding() == 0) break;
    if (updates_done && now > due(spec.count) + kDrainNs) break;
    if (now > start + kMaxPhaseNs) break;
    int64_t wake = next_read < spec.count ? due(next_read) : now + 1'000'000;
    if (update_waiting()) wake = std::min(wake, update_due(next_update));
    Wait(std::max<int64_t>(0, wake - now), on_event);
  }
  stats.lost = DropOutstanding() + (spec.count - next_read);
  if (update_conn != nullptr) stats.lost += spec.updates->size() - next_update;
  stats.seconds = static_cast<double>(NowNs() - start) * 1e-9;
  stats.cpu_s = ThreadCpuSeconds() - cpu_start;
  return stats;
}

PhaseStats LoadGenerator::RunClosedLoop(const EncodedStream& reads,
                                        uint64_t first_read, double seconds,
                                        int depth, const ReplyFn& on_reply) {
  PhaseStats stats;
  if (broken_ || conns_.empty()) {
    stats.lost = 1;
    return stats;
  }
  const double cpu_start = ThreadCpuSeconds();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  uint64_t next = 0;
  const auto send_read = [&](Conn* conn) {
    const uint64_t index = (first_read + next) % reads.size();
    const int64_t now = NowNs();
    Send(conn, reads.at(index),
         Pending{false, index, next, now, now, commits_acked_});
    ++next;
  };
  const auto after = [&](Conn* conn, const Completion& done) {
    if (done.done_ns <= end) send_read(conn);
  };
  const auto on_event = [&](Conn* conn, uint32_t events) {
    if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) &&
        !Receive(conn, on_reply, after)) {
      broken_ = true;
    }
    // Refills from Receive, and EPOLLOUT, both drain here.
    if (!Flush(conn)) broken_ = true;
  };

  for (Conn& conn : conns_) {
    for (int d = 0; d < depth; ++d) send_read(&conn);
    if (!Flush(&conn)) broken_ = true;
  }
  while (!broken_) {
    const int64_t now = NowNs();
    if (now >= end && Outstanding() == 0) break;
    if (now > end + kDrainNs) break;
    Wait(now < end ? end - now : 1'000'000, on_event);
  }
  stats.lost = DropOutstanding();
  stats.seconds = seconds;
  stats.cpu_s = ThreadCpuSeconds() - cpu_start;
  return stats;
}

}  // namespace hopdb_bench
