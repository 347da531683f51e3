// Open-loop load generator for the distance server, sweeping connection
// tiers against an in-process DistanceServer over real loopback TCP.
//
// Open loop means arrivals are scheduled by a clock, not by responses:
// every request has an injection deadline drawn from a fixed aggregate
// rate, is pipelined onto its connection whether or not earlier answers
// have landed, and its latency is measured from the SCHEDULED time — so
// queueing delay shows up in p99 instead of silently throttling the
// generator (the coordinated-omission trap of closed-loop harnesses).
//
// One epoll thread drives every client connection (mirroring the
// server's own I/O model); each tier opens its connections, runs the
// same schedule, and reports independently:
//
//   {"tiers": [{"connections": 100, "qps": ..., "latency_us": {...},
//               "busy": ..., "errors_nonbusy": ...}, ...]}
//
// BUSY responses (admission-control shedding) are counted separately
// and are NOT failures; the process exits nonzero only on transport
// errors or non-BUSY error responses — the invariant CI gates on.
//
// Before the sweep, a paired tier-100 run measures the cost of the
// tracing layer: one server with --trace-sample-rate 0, one at the
// default rate, same schedule. The run fails (exit nonzero) when the
// sampled p99 exceeds the unsampled p99 by more than 1% plus a small
// absolute floor that absorbs loopback scheduling jitter — the
// "observability is effectively free" invariant CI gates on. The sweep
// itself runs with default sampling, and the per-stage (queue-wait /
// execute / write) histograms the server keeps for every request are
// reported in the JSON as "stages".
//
// A second paired run drives Zipfian degree-ranked traffic (the skewed
// source mix scale-free query logs actually show; --skew turns the same
// mix on for the sweep) at two servers differing only in the hot-hub
// cache, recording the client p99 and server execute p50 with the cache
// off vs on under "hot_hub_skew" in the JSON.
//
//   bench_serve_load            # full run, tiers 100,1000,4000
//   bench_serve_load --ci       # seconds-long CI mode, tiers 100,1000

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "hopdb.h"
#include "server/index_snapshot.h"
#include "server/metrics.h"
#include "server/protocol.h"
#include "server/server.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1));
  return sorted[rank];
}

struct TierResult {
  size_t connections = 0;
  uint64_t sent = 0;
  uint64_t received = 0;
  uint64_t busy = 0;
  uint64_t errors_nonbusy = 0;  // transport + non-BUSY ERR responses
  double elapsed_seconds = 0;
  double qps = 0;
  double p50 = 0, p90 = 0, p99 = 0, max_us = 0;
};

// Zipfian vertex sampler over a degree-ranked order: rank r is drawn
// with probability ∝ 1/(r+1)^alpha, so the highest-degree vertices —
// the hubs whose labels the HotHubCache densifies — dominate the
// stream, the way query traffic concentrates on scale-free networks.
// Exact inverse-CDF sampling (binary search over the cumulative
// weights); no Zipf approximation needed at bench-scale |V|.
class ZipfSampler {
 public:
  ZipfSampler(std::vector<VertexId> degree_order, double alpha)
      : order_(std::move(degree_order)) {
    cdf_.reserve(order_.size());
    double total = 0;
    for (size_t rank = 0; rank < order_.size(); ++rank) {
      total += std::pow(static_cast<double>(rank + 1), -alpha);
      cdf_.push_back(total);
    }
  }

  bool empty() const { return order_.empty(); }

  VertexId Sample(Rng* rng) const {
    const double u = rng->NextDouble() * cdf_.back();
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return order_[std::min(rank, order_.size() - 1)];
  }

 private:
  std::vector<VertexId> order_;  // vertex ids, descending degree
  std::vector<double> cdf_;
};

/// Vertex ids sorted by descending degree in `edges` (ties by id, so
/// the order — and thus the whole skewed schedule — is deterministic).
std::vector<VertexId> DegreeOrder(const EdgeList& edges) {
  std::vector<uint64_t> degree(edges.num_vertices(), 0);
  for (const Edge& e : edges.edges()) {
    degree[e.src]++;
    degree[e.dst]++;
  }
  std::vector<VertexId> order(edges.num_vertices());
  for (VertexId v = 0; v < edges.num_vertices(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&degree](VertexId a, VertexId b) {
    return degree[a] != degree[b] ? degree[a] > degree[b] : a < b;
  });
  return order;
}

// One generator-side connection: pending output, buffered input, and
// the scheduled injection time of every request still awaiting its
// (in-order) response.
struct GenConn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  std::deque<double> scheduled_us;
  bool writable_armed = false;
};

class OpenLoopGenerator {
 public:
  /// `zipf` (may be null) switches source/target draws from the
  /// uniform + hot-pair mix to degree-ranked Zipfian sampling.
  OpenLoopGenerator(uint16_t port, bool v2, VertexId n, uint64_t seed,
                    double hot_fraction, uint32_t hot_pairs,
                    uint64_t batch_every, const ZipfSampler* zipf = nullptr)
      : port_(port), v2_(v2), n_(n), rng_(DeriveSeed(seed, 100)),
        hot_fraction_(hot_fraction), batch_every_(batch_every), zipf_(zipf) {
    Rng hot_rng(DeriveSeed(seed, 7));
    hot_.reserve(hot_pairs);
    for (uint32_t i = 0; i < hot_pairs; ++i) {
      hot_.emplace_back(static_cast<VertexId>(hot_rng.Below(n)),
                        static_cast<VertexId>(hot_rng.Below(n)));
    }
  }

  /// Runs one tier: `connections` sockets, `rate` aggregate requests/s
  /// for `seconds`, then a drain grace period. Returns the tier stats.
  TierResult RunTier(size_t connections, double rate, double seconds) {
    TierResult result;
    result.connections = connections;
    latencies_.clear();

    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) {
      result.errors_nonbusy++;
      return result;
    }
    conns_.assign(connections, GenConn{});
    for (size_t i = 0; i < connections; ++i) {
      if (!OpenConn(&conns_[i])) {
        // Partial tiers still report; the error count flags the miss.
        result.errors_nonbusy++;
        conns_.resize(i);
        break;
      }
    }

    const double start_us = NowUs();
    const double stop_us = start_us + seconds * 1e6;
    const double interval_us = rate > 0 ? 1e6 / rate : 0;
    double next_send_us = start_us;
    uint64_t round_robin = 0;

    epoll_event events[256];
    while (!conns_.empty()) {
      const double now = NowUs();
      // Inject every request whose deadline has passed (open loop: we
      // never wait for responses to do this).
      while (interval_us > 0 && next_send_us <= now && now < stop_us) {
        GenConn& conn = conns_[round_robin++ % conns_.size()];
        if (conn.fd >= 0) {
          AppendRequest(&conn, next_send_us);
          result.sent++;
          FlushConn(&conn, &result);
        }
        next_send_us += interval_us;
      }
      const bool injecting = now < stop_us;
      if (!injecting && Outstanding() == 0) break;
      if (!injecting && now > stop_us + 3e6) break;  // drain grace over

      int timeout_ms = 1;
      if (injecting) {
        const double until = (next_send_us - NowUs()) / 1000.0;
        timeout_ms = until <= 0 ? 0 : static_cast<int>(std::min(until, 10.0));
      }
      const int ready = epoll_wait(epoll_fd_, events, 256, timeout_ms);
      for (int e = 0; e < ready; ++e) {
        GenConn* conn = static_cast<GenConn*>(events[e].data.ptr);
        if (conn->fd < 0) continue;
        if (events[e].events & EPOLLOUT) FlushConn(conn, &result);
        if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
          ReadConn(conn, &result);
        }
      }
    }
    result.elapsed_seconds = (NowUs() - start_us) / 1e6;

    for (GenConn& conn : conns_) {
      // Requests still unanswered at teardown are transport losses.
      result.errors_nonbusy += conn.scheduled_us.size();
      CloseConn(&conn);
    }
    conns_.clear();
    close(epoll_fd_);
    epoll_fd_ = -1;

    std::sort(latencies_.begin(), latencies_.end());
    result.received = latencies_.size();
    result.qps = result.elapsed_seconds > 0
                     ? static_cast<double>(result.received) /
                           result.elapsed_seconds
                     : 0;
    result.p50 = Percentile(latencies_, 50);
    result.p90 = Percentile(latencies_, 90);
    result.p99 = Percentile(latencies_, 99);
    result.max_us = latencies_.empty() ? 0 : latencies_.back();
    return result;
  }

 private:
  bool OpenConn(GenConn* conn) {
    conn->fd = socket(AF_INET, SOCK_STREAM, 0);
    if (conn->fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
      close(conn->fd);
      conn->fd = -1;
      return false;
    }
    int one = 1;
    setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(conn->fd, F_SETFL, fcntl(conn->fd, F_GETFL, 0) | O_NONBLOCK);
    if (v2_) conn->out.append(kV2Magic, sizeof(kV2Magic));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &ev) < 0) {
      close(conn->fd);
      conn->fd = -1;
      return false;
    }
    return true;
  }

  void CloseConn(GenConn* conn) {
    if (conn->fd < 0) return;
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
    close(conn->fd);
    conn->fd = -1;
  }

  VertexId RandomVertex() {
    if (zipf_ != nullptr && !zipf_->empty()) return zipf_->Sample(&rng_);
    return static_cast<VertexId>(rng_.Below(n_));
  }

  void AppendRequest(GenConn* conn, double scheduled_us) {
    Request request;
    VertexId s, t;
    if (zipf_ != nullptr && !zipf_->empty()) {
      // Skew mode: every endpoint is a degree-ranked Zipf draw; the
      // artificial hot-pair set is irrelevant (skew IS the hotness).
      s = RandomVertex();
      t = RandomVertex();
    } else if (static_cast<double>(rng_.Below(1000)) <
               hot_fraction_ * 1000.0) {
      const auto& pair = hot_[rng_.Below(hot_.size())];
      s = pair.first;
      t = pair.second;
    } else {
      s = static_cast<VertexId>(rng_.Below(n_));
      t = static_cast<VertexId>(rng_.Below(n_));
    }
    if (batch_every_ > 0 && ++request_counter_ % batch_every_ == 0) {
      request.kind = RequestKind::kBatch;
      request.src = s;
      for (int j = 0; j < 8; ++j) {
        request.targets.push_back(RandomVertex());
      }
    } else {
      request.kind = RequestKind::kDist;
      request.src = s;
      request.targets.push_back(t);
    }
    if (v2_) {
      EncodeRequestV2(request, &conn->out);
    } else {
      conn->out += FormatRequestV1(request);
      conn->out += '\n';
    }
    conn->scheduled_us.push_back(scheduled_us);
  }

  void FlushConn(GenConn* conn, TierResult* result) {
    while (conn->out_off < conn->out.size()) {
      const ssize_t n = send(conn->fd, conn->out.data() + conn->out_off,
                             conn->out.size() - conn->out_off, MSG_NOSIGNAL);
      if (n > 0) {
        conn->out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        ArmWritable(conn, true);
        return;
      }
      result->errors_nonbusy += conn->scheduled_us.size();
      conn->scheduled_us.clear();
      CloseConn(conn);
      return;
    }
    conn->out.clear();
    conn->out_off = 0;
    ArmWritable(conn, false);
  }

  void ArmWritable(GenConn* conn, bool want) {
    if (conn->writable_armed == want) return;
    conn->writable_armed = want;
    epoll_event ev{};
    ev.events = want ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
    ev.data.ptr = conn;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }

  void ReadConn(GenConn* conn, TierResult* result) {
    char chunk[65536];
    while (conn->fd >= 0) {
      const ssize_t n = recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn->in.append(chunk, static_cast<size_t>(n));
        ParseResponses(conn, result);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // EOF or error with requests outstanding: transport loss.
      result->errors_nonbusy += conn->scheduled_us.size();
      conn->scheduled_us.clear();
      CloseConn(conn);
      return;
    }
  }

  void ParseResponses(GenConn* conn, TierResult* result) {
    size_t off = 0;
    while (!conn->scheduled_us.empty()) {
      bool is_busy = false, is_err = false;
      if (v2_) {
        size_t consumed = 0;
        WireResponse response;
        std::string error;
        const FrameParse verdict =
            ParseResponseFrameV2(conn->in.data() + off, conn->in.size() - off,
                                 &consumed, &response, &error);
        if (verdict == FrameParse::kNeedMore) break;
        if (verdict == FrameParse::kError) {
          result->errors_nonbusy += conn->scheduled_us.size();
          conn->scheduled_us.clear();
          conn->in.clear();
          CloseConn(conn);
          return;
        }
        off += consumed;
        is_busy = response.status == WireStatus::kBusy;
        is_err = response.status == WireStatus::kErr;
      } else {
        const size_t newline = conn->in.find('\n', off);
        if (newline == std::string::npos) break;
        is_busy = conn->in.compare(off, 9, "ERR BUSY ") == 0;
        is_err = !is_busy && conn->in.compare(off, 4, "ERR ") == 0;
        off = newline + 1;
      }
      const double scheduled = conn->scheduled_us.front();
      conn->scheduled_us.pop_front();
      if (is_busy) {
        result->busy++;
      } else if (is_err) {
        result->errors_nonbusy++;
      }
      latencies_.push_back(NowUs() - scheduled);
    }
    if (off > 0) conn->in.erase(0, off);
  }

  size_t Outstanding() const {
    size_t total = 0;
    for (const GenConn& conn : conns_) total += conn.scheduled_us.size();
    return total;
  }

  const uint16_t port_;
  const bool v2_;
  const VertexId n_;
  Rng rng_;
  const double hot_fraction_;
  const uint64_t batch_every_;
  const ZipfSampler* zipf_;
  uint64_t request_counter_ = 0;
  std::vector<std::pair<VertexId, VertexId>> hot_;
  std::vector<GenConn> conns_;
  std::vector<double> latencies_;
  int epoll_fd_ = -1;
};

int Run(int argc, char** argv) {
  CliFlags flags;
  flags.Define("n", "2000", "graph vertices (GLP)");
  flags.Define("avg-degree", "6", "graph average degree");
  flags.Define("seed", "1", "graph + workload seed");
  flags.Define("tiers", "100,1000,4000",
               "comma-separated connection counts to sweep");
  flags.Define("rate", "5000", "aggregate injected requests/second");
  flags.Define("seconds", "4", "traffic duration per tier");
  flags.Define("protocol", "v1", "wire framing: v1 (lines) or v2 (binary)");
  flags.Define("workers", "0", "server worker threads (0 = all cores)");
  flags.Define("io-threads", "0", "server epoll threads (0 = auto)");
  flags.Define("cache", "65536", "server result-cache capacity (0 = off)");
  flags.Define("queue-capacity", "1024",
               "server work-queue bound (overflow sheds BUSY)");
  flags.Define("hot-fraction", "0.8",
               "share of requests drawn from the hot pair set");
  flags.Define("hot-pairs", "128", "size of the hot pair set");
  flags.Define("batch-every", "16",
               "every k-th request is a BATCH of 8 (0 = never)");
  flags.Define("skew", "0",
               "Zipf exponent for degree-ranked source/target draws in "
               "the tier sweep (0 = uniform + hot pairs)");
  flags.Define("hot-hub-k", "1024",
               "hot-hub cache size for the skew comparison pair "
               "(0 skips the pair)");
  flags.Define("out", "BENCH_serve.json", "machine-readable output path");
  flags.Define("ci", "false", "CI mode: small graph, short run, tiers "
                              "100,1000");
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    std::cout << flags.Usage("bench_serve_load — distance-server load "
                             "generator (open loop over TCP, tier sweep)");
    return flags.help_requested() ? 0 : 1;
  }

  const bool ci = flags.GetBool("ci").ValueOrDie();
  const VertexId n =
      ci ? 600 : static_cast<VertexId>(flags.GetUint("n").ValueOrDie());
  const double seconds = ci ? 1.0 : flags.GetDouble("seconds").ValueOrDie();
  const double rate = ci ? 2000.0 : flags.GetDouble("rate").ValueOrDie();
  const uint64_t seed = flags.GetUint("seed").ValueOrDie();
  const double hot_fraction = flags.GetDouble("hot-fraction").ValueOrDie();
  const uint32_t hot_pairs =
      static_cast<uint32_t>(flags.GetUint("hot-pairs").ValueOrDie());
  const uint64_t batch_every = flags.GetUint("batch-every").ValueOrDie();
  const std::string protocol = flags.GetString("protocol");
  if (protocol != "v1" && protocol != "v2") {
    std::cerr << "--protocol must be v1 or v2\n";
    return 1;
  }
  const bool v2 = protocol == "v2";

  std::vector<size_t> tiers;
  {
    const std::string spec = ci ? "100,1000" : flags.GetString("tiers");
    for (const std::string& token : SplitString(spec, ',')) {
      uint64_t value = 0;
      if (!ParseUint64(TrimString(token), &value) || value == 0) {
        std::cerr << "bad --tiers entry '" << token << "'\n";
        return 1;
      }
      tiers.push_back(value);
    }
  }

  // Both ends of every connection live in this process: each tier costs
  // 2 fds per connection. Lift the soft limit, then clamp.
  rlimit limit{};
  if (getrlimit(RLIMIT_NOFILE, &limit) == 0) {
    limit.rlim_cur = limit.rlim_max;
    setrlimit(RLIMIT_NOFILE, &limit);
    const size_t max_conns = limit.rlim_cur == RLIM_INFINITY
                                 ? SIZE_MAX
                                 : (static_cast<size_t>(limit.rlim_cur) -
                                    256) / 2;
    for (size_t& tier : tiers) {
      if (tier > max_conns) {
        std::cerr << "clamping tier " << tier << " to " << max_conns
                  << " (fd limit " << limit.rlim_cur << ")\n";
        tier = max_conns;
      }
    }
  }

  // Build the serving index.
  GlpOptions glp;
  glp.num_vertices = n;
  glp.target_avg_degree = flags.GetDouble("avg-degree").ValueOrDie();
  glp.seed = seed;
  auto edges = GenerateGlp(glp);
  if (!edges.ok()) {
    std::cerr << "graph generation failed: " << edges.status() << "\n";
    return 1;
  }
  Stopwatch build_watch;
  auto index = HopDbIndex::Build(*edges);
  if (!index.ok()) {
    std::cerr << "index build failed: " << index.status() << "\n";
    return 1;
  }
  const double build_seconds = build_watch.Seconds();
  // One immutable snapshot feeds every server below (the overhead pair
  // and the sweep server), so all runs query identical data.
  const auto snapshot = std::make_shared<const ServingSnapshot>(
      std::move(*index), "", flags.GetUint("cache").ValueOrDie());

  ServerOptions options;
  options.num_workers =
      static_cast<uint32_t>(flags.GetUint("workers").ValueOrDie());
  options.num_io_threads =
      static_cast<uint32_t>(flags.GetUint("io-threads").ValueOrDie());
  options.cache_capacity = flags.GetUint("cache").ValueOrDie();
  options.queue_capacity = flags.GetUint("queue-capacity").ValueOrDie();

  // --- Tracing-overhead pair: tier 100, sampling off vs default on.
  // Loopback p99 at this tier is dominated by scheduler jitter, so one
  // run per config flakes; instead both servers share the snapshot and
  // three interleaved repetitions take the min p99 per config (min is
  // the noise-robust statistic for "how fast can this config go").
  const size_t overhead_tier = std::min<size_t>(100, tiers.front());
  const double overhead_seconds = std::min(seconds, 2.0);
  double p99_off = 0, p99_on = 0;
  {
    std::unique_ptr<DistanceServer> pair_servers[2];
    for (int pass = 0; pass < 2; ++pass) {
      ServerOptions pair_options = options;
      pair_options.trace_sample_rate = pass == 0 ? 0.0 : 0.01;
      auto pair_server = DistanceServer::Start(snapshot, pair_options);
      if (!pair_server.ok()) {
        std::cerr << "server start failed: " << pair_server.status() << "\n";
        return 1;
      }
      pair_servers[pass] = std::move(*pair_server);
    }
    for (int rep = 0; rep < 3; ++rep) {
      for (int pass = 0; pass < 2; ++pass) {
        OpenLoopGenerator pair_gen(pair_servers[pass]->port(), v2, n, seed,
                                   hot_fraction, hot_pairs, batch_every);
        const TierResult r =
            pair_gen.RunTier(overhead_tier, rate, overhead_seconds);
        double& best = pass == 0 ? p99_off : p99_on;
        if (rep == 0 || r.p99 < best) best = r.p99;
      }
    }
    pair_servers[0]->Stop();
    pair_servers[1]->Stop();
  }
  // 1% relative budget plus a small absolute floor absorbing the jitter
  // that survives min-of-3 — stamping eight timestamps costs far less.
  const bool overhead_ok = p99_on <= p99_off * 1.01 + 200.0;
  std::cout << "trace overhead @ tier " << overhead_tier << ": p99 "
            << FormatDouble(p99_off, 1) << " us off, "
            << FormatDouble(p99_on, 1) << " us on ("
            << (overhead_ok ? "within" : "OVER") << " budget)\n";

  // --- Hot-hub skew pair: Zipfian degree-ranked traffic against two
  // servers that differ only in the hot-hub cache (off vs k). The
  // result cache is disabled on both so repeated hub pairs cannot mask
  // the label-scan cost the dense top-k fold is meant to cut — this is
  // the cache-microarchitecture win the skewed workload exists to show.
  // Same interleaved min-of-3 discipline as the tracing pair; the
  // server-side execute p50 is the direct kernel-level signal, client
  // p99 the end-to-end one. Recorded in the JSON, not gated: loopback
  // perf deltas are machine-dependent.
  const double skew = flags.GetDouble("skew").ValueOrDie();
  const double pair_alpha = skew > 0 ? skew : 0.99;
  const uint32_t hot_hub_k = static_cast<uint32_t>(
      std::min<uint64_t>(flags.GetUint("hot-hub-k").ValueOrDie(), n));
  const std::vector<VertexId> degree_order = DegreeOrder(*edges);
  const ZipfSampler pair_zipf(degree_order, pair_alpha);
  double hub_p99[2] = {0, 0};      // [0] = hub off, [1] = hub on
  double hub_exec_p50[2] = {0, 0};
  if (hot_hub_k > 0) {
    std::unique_ptr<DistanceServer> hub_servers[2];
    for (int pass = 0; pass < 2; ++pass) {
      auto hub_index = HopDbIndex::Build(*edges);
      if (!hub_index.ok()) {
        std::cerr << "index build failed: " << hub_index.status() << "\n";
        return 1;
      }
      auto hub_snapshot = std::make_shared<const ServingSnapshot>(
          std::move(*hub_index), "", /*cache_capacity=*/0,
          pass == 0 ? 0 : hot_hub_k);
      auto hub_server = DistanceServer::Start(hub_snapshot, options);
      if (!hub_server.ok()) {
        std::cerr << "server start failed: " << hub_server.status() << "\n";
        return 1;
      }
      hub_servers[pass] = std::move(*hub_server);
    }
    for (int rep = 0; rep < 3; ++rep) {
      for (int pass = 0; pass < 2; ++pass) {
        OpenLoopGenerator hub_gen(hub_servers[pass]->port(), v2, n, seed,
                                  hot_fraction, hot_pairs, batch_every,
                                  &pair_zipf);
        const TierResult r =
            hub_gen.RunTier(overhead_tier, rate, overhead_seconds);
        if (rep == 0 || r.p99 < hub_p99[pass]) hub_p99[pass] = r.p99;
      }
    }
    for (int pass = 0; pass < 2; ++pass) {
      hub_exec_p50[pass] = static_cast<double>(
          hub_servers[pass]->metrics().execute_histogram().PercentileUs(50));
      hub_servers[pass]->Stop();
    }
    std::cout << "hot-hub skew pair (zipf " << FormatDouble(pair_alpha, 2)
              << ", k=" << hot_hub_k << ") @ tier " << overhead_tier
              << ": p99 " << FormatDouble(hub_p99[0], 1) << " us off, "
              << FormatDouble(hub_p99[1], 1) << " us on; execute p50 "
              << FormatDouble(hub_exec_p50[0], 1) << " -> "
              << FormatDouble(hub_exec_p50[1], 1) << " us\n";
  }

  auto server = DistanceServer::Start(snapshot, options);
  if (!server.ok()) {
    std::cerr << "server start failed: " << server.status() << "\n";
    return 1;
  }
  const uint16_t port = (*server)->port();
  std::cout << "serving |V|=" << n << " on 127.0.0.1:" << port << ", "
            << protocol << " framing, " << FormatDouble(rate, 0)
            << " req/s open loop, " << seconds << "s per tier\n";

  OpenLoopGenerator generator(port, v2, n, seed, hot_fraction, hot_pairs,
                              batch_every, skew > 0 ? &pair_zipf : nullptr);
  std::vector<TierResult> results;
  for (const size_t tier : tiers) {
    TierResult result = generator.RunTier(tier, rate, seconds);
    std::cout << "  tier " << tier << ": qps " << FormatDouble(result.qps, 0)
              << ", p50/p99 " << FormatDouble(result.p50, 1) << "/"
              << FormatDouble(result.p99, 1) << " us, busy " << result.busy
              << ", errors " << result.errors_nonbusy << "\n";
    results.push_back(result);
  }

  // Server-side view before shutdown.
  Request stats_request;
  stats_request.kind = RequestKind::kStats;
  const std::string stats_line = (*server)->Execute(stats_request);
  const ResultCache::Stats cache = (*server)->cache_stats();
  const uint64_t server_requests = (*server)->metrics().requests();
  const uint64_t server_shed = (*server)->metrics().shed();
  const uint64_t micro_batches = (*server)->metrics().micro_batches();
  const uint32_t workers = (*server)->num_workers();
  const uint32_t io_threads = (*server)->num_io_threads();
  // Per-stage pipeline histograms (fed for every request, not just
  // sampled ones) — the server-side decomposition of client latency.
  struct StageView {
    const char* name;
    uint64_t count, p50, p99;
  };
  const auto stage_view = [&](const char* name, const LatencyHistogram& h) {
    return StageView{name, h.count(), h.PercentileUs(50), h.PercentileUs(99)};
  };
  const StageView stages[] = {
      stage_view("queue_wait", (*server)->metrics().queue_wait_histogram()),
      stage_view("execute", (*server)->metrics().execute_histogram()),
      stage_view("write", (*server)->metrics().write_histogram()),
  };
  (*server)->Stop();

  uint64_t errors_nonbusy = 0;
  for (const TierResult& r : results) errors_nonbusy += r.errors_nonbusy;

  const std::string out_path = flags.GetString("out");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"serve_load\",\n"
      << "  \"mode\": \"open_loop\",\n"
      << "  \"ci_mode\": " << (ci ? "true" : "false") << ",\n"
      << "  \"protocol\": \"" << protocol << "\",\n"
      << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
      << "  \"graph\": {\"type\": \"glp\", \"n\": " << n
      << ", \"avg_degree\": " << FormatDouble(glp.target_avg_degree, 2)
      << ", \"seed\": " << seed << "},\n"
      << "  \"server\": {\"workers\": " << workers
      << ", \"io_threads\": " << io_threads
      << ", \"cache_capacity\": " << options.cache_capacity
      << ", \"queue_capacity\": " << options.queue_capacity
      << ", \"build_seconds\": " << FormatDouble(build_seconds, 3) << "},\n"
      << "  \"rate\": " << FormatDouble(rate, 1) << ",\n"
      << "  \"seconds_per_tier\": " << FormatDouble(seconds, 2) << ",\n"
      << "  \"skew\": " << FormatDouble(skew, 2) << ",\n"
      << "  \"tiers\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const TierResult& r = results[i];
    out << "    {\"connections\": " << r.connections << ", \"sent\": "
        << r.sent << ", \"received\": " << r.received << ", \"busy\": "
        << r.busy << ", \"errors_nonbusy\": " << r.errors_nonbusy
        << ", \"qps\": " << FormatDouble(r.qps, 1)
        << ", \"latency_us\": {\"p50\": " << FormatDouble(r.p50, 1)
        << ", \"p90\": " << FormatDouble(r.p90, 1) << ", \"p99\": "
        << FormatDouble(r.p99, 1) << ", \"max\": "
        << FormatDouble(r.max_us, 1) << "}}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"trace_overhead\": {\"connections\": " << overhead_tier
      << ", \"p99_us_sampling_off\": " << FormatDouble(p99_off, 1)
      << ", \"p99_us_sampling_on\": " << FormatDouble(p99_on, 1)
      << ", \"within_budget\": " << (overhead_ok ? "true" : "false")
      << "},\n"
      << "  \"hot_hub_skew\": {\"alpha\": " << FormatDouble(pair_alpha, 2)
      << ", \"hot_hub_k\": " << hot_hub_k
      << ", \"connections\": " << overhead_tier
      << ", \"p99_us_hub_off\": " << FormatDouble(hub_p99[0], 1)
      << ", \"p99_us_hub_on\": " << FormatDouble(hub_p99[1], 1)
      << ", \"execute_p50_us_hub_off\": " << FormatDouble(hub_exec_p50[0], 1)
      << ", \"execute_p50_us_hub_on\": " << FormatDouble(hub_exec_p50[1], 1)
      << "},\n"
      << "  \"stages\": {";
  for (size_t i = 0; i < 3; ++i) {
    const StageView& s = stages[i];
    out << (i > 0 ? ", " : "") << "\"" << s.name << "\": {\"count\": "
        << s.count << ", \"p50_us\": " << s.p50 << ", \"p99_us\": " << s.p99
        << "}";
  }
  out << "},\n"
      << "  \"server_requests\": " << server_requests << ",\n"
      << "  \"server_shed\": " << server_shed << ",\n"
      << "  \"errors_nonbusy\": " << errors_nonbusy << ",\n"
      << "  \"cache\": {\"hits\": " << cache.hits << ", \"misses\": "
      << cache.misses << ", \"hit_rate\": "
      << FormatDouble(cache.HitRate(), 4) << ", \"entries\": "
      << cache.entries << ", \"evictions\": " << cache.evictions << "},\n"
      << "  \"micro_batches\": " << micro_batches << ",\n"
      << "  \"server_stats\": \"" << stats_line << "\"\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  // BUSY is load shedding doing its job; anything else is a failure —
  // including tracing costing more than its budget.
  return errors_nonbusy == 0 && overhead_ok ? 0 : 1;
}

}  // namespace
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::Run(argc, argv); }
