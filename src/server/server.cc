#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph_io.h"
#include "labeling/query_kernel.h"
#include "util/build_info.h"
#include "util/log.h"
#include "util/parallel.h"
#include "util/string_util.h"

namespace hopdb {

namespace {

/// Answers one (s, t) pair through the snapshot's cache. Every DIST and
/// every BATCH target is answered here.
Distance CachedQuery(const ServingSnapshot& snapshot, VertexId s, VertexId t) {
  Distance d = kInfDistance;
  if (snapshot.cache().Lookup(s, t, &d)) return d;
  d = snapshot.Query(s, t);
  snapshot.cache().Insert(s, t, d);
  return d;
}

// ---------------------------------------------------------------------------
// The export table. STATS and METRICS render the same rows, which
// DistanceServer::ExportResponse fills. tools/check_docs.py reads the
// quoted .stat and .family names of those rows (so each row is written
// as a designated initializer that starts with one of the two) to keep
// the key and family tables in docs/OPERATIONS.md from drifting, and
// tools/check_metrics.py lints the rendered exposition.
// ---------------------------------------------------------------------------

/// One exported value. STATS prints it as `stat=value`, or as
/// `index.<index>.<stat>=value` on a per-index row. METRICS prints it
/// under its family's HELP and TYPE lines, as one sample or as a
/// histogram's series, labelled `index="<index>"` on a per-index row.
/// A row without a stat shows only in METRICS, one without a family
/// only in STATS. Every member has a default initializer, so a row
/// names only the members it sets.
struct ExportRow {
  const char* stat = nullptr;
  const char* family = nullptr;
  const char* type = nullptr;  // counter, gauge or histogram
  const char* help = nullptr;
  std::string index{};   // the index's name on a per-index row
  std::string labels{};  // the Prometheus labels of any other row
  std::string value{};
  /// METRICS' format of the value where it differs from STATS'.
  std::string prom_value{};
  const LatencyHistogram* histogram = nullptr;
};

std::string RenderStats(const std::vector<ExportRow>& rows) {
  std::string payload;
  for (const ExportRow& row : rows) {
    if (row.stat == nullptr) continue;
    if (!payload.empty()) payload.push_back(' ');
    if (!row.index.empty()) payload += "index." + row.index + '.';
    payload += row.stat;
    payload += '=';
    payload += row.value;
  }
  return payload;
}

// Prometheus text-exposition helpers (RenderMetrics below).

/// Escapes a label value per the exposition format (\\, \", \n).
std::string PromLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out.append("\\n");
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void PromSample(std::string* text, const std::string& name,
                const std::string& labels, const std::string& value) {
  text->append(name);
  if (!labels.empty()) {
    text->push_back('{');
    text->append(labels);
    text->push_back('}');
  }
  text->push_back(' ');
  text->append(value);
  text->push_back('\n');
}

/// Renders one log-scale histogram as cumulative le-buckets + _sum +
/// _count. The +Inf bucket and _count are the sum of the bucket
/// snapshot (not the separate count_ atomic) so the exposition is
/// internally consistent even while writers race the render.
void PromHistogram(std::string* text, const std::string& name,
                   const std::string& labels, const LatencyHistogram& hist) {
  const std::array<uint64_t, LatencyHistogram::kBuckets> buckets =
      hist.BucketSnapshot();
  const std::string bucket_name = name + "_bucket";
  const std::string label_prefix = labels.empty() ? "" : labels + ",";
  uint64_t cumulative = 0;
  for (size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    cumulative += buckets[i];
    PromSample(text, bucket_name,
               label_prefix + "le=\"" +
                   std::to_string(LatencyHistogram::BucketUpperBoundUs(i)) +
                   "\"",
               std::to_string(cumulative));
  }
  PromSample(text, bucket_name, label_prefix + "le=\"+Inf\"",
             std::to_string(cumulative));
  PromSample(text, name + "_sum", labels, std::to_string(hist.sum_us()));
  PromSample(text, name + "_count", labels, std::to_string(cumulative));
}

/// Prints each family as one group, as the text format requires: its
/// HELP and TYPE lines, then the samples of all its rows in table order.
std::string RenderMetrics(const std::vector<ExportRow>& rows) {
  std::string text;
  text.reserve(32 * 1024);
  std::vector<bool> rendered(rows.size(), false);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].family == nullptr || rendered[i]) continue;
    const ExportRow& head = rows[i];
    const std::string_view family = head.family;
    text.append("# HELP ").append(family).append(" ").append(head.help);
    text.append("\n# TYPE ").append(family).append(" ").append(head.type);
    text.push_back('\n');
    for (size_t j = i; j < rows.size(); ++j) {
      const ExportRow& row = rows[j];
      if (row.family == nullptr || row.family != family) continue;
      rendered[j] = true;
      const std::string labels =
          row.index.empty() ? row.labels
                            : "index=\"" + PromLabelValue(row.index) + "\"";
      if (row.histogram != nullptr) {
        PromHistogram(&text, row.family, labels, *row.histogram);
      } else {
        PromSample(&text, row.family, labels,
                   row.prom_value.empty() ? row.value : row.prom_value);
      }
    }
  }
  return text;
}

WireResponse ErrNoSuchIndex(const std::string& name) {
  return WireErr("no index named '" + name + "' (see STATS, or ATTACH "
                 "it first)");
}

WireResponse ErrVertexOutOfRange(VertexId n) {
  return WireErr("vertex id out of range (|V|=" + std::to_string(n) + ")");
}

/// --trace-sample-rate as a 1-in-N cadence for the I/O threads.
uint32_t TraceSampleEvery(double rate) {
  if (!(rate > 0.0)) return 0;  // also NaN
  if (rate >= 1.0) return 1;
  const double every = 1.0 / rate;
  if (every >= 4e9) return 0;  // effectively never
  return static_cast<uint32_t>(every + 0.5);
}

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kErr:
      return "err";
    case WireStatus::kBusy:
      return "busy";
  }
  return "unknown";
}

}  // namespace

DistanceServer::DistanceServer(const ServerOptions& options)
    : options_(options),
      queue_(options.queue_capacity),
      trace_ring_(options.trace_ring_capacity) {}

Result<std::unique_ptr<DistanceServer>> DistanceServer::Start(
    std::shared_ptr<const ServingSnapshot> snapshot,
    const ServerOptions& options) {
  std::unique_ptr<DistanceServer> server(new DistanceServer(options));
  // A worker reads an empty drain as "queue closed", so it must take at
  // least one request per wakeup.
  server->options_.max_micro_batch =
      std::max<uint32_t>(1, options.max_micro_batch);
  HOPDB_RETURN_NOT_OK(
      server->registry_.Attach(kDefaultIndexName, std::move(snapshot)));
  HOPDB_RETURN_NOT_OK(server->Listen());
  server->num_io_threads_ =
      options.num_io_threads == 0
          ? std::min<uint32_t>(4, HardwareThreads())
          : options.num_io_threads;
  IoGroupOptions io_options;
  io_options.num_threads = server->num_io_threads_;
  io_options.max_inflight_per_conn = options.max_inflight_per_conn;
  io_options.trace_sample_every = TraceSampleEvery(options.trace_sample_rate);
  HOPDB_RETURN_NOT_OK(server->io_group_.Start(io_options, server.get()));
  const uint32_t workers =
      options.num_workers == 0 ? HardwareThreads() : options.num_workers;
  server->workers_.Start(workers,
                         [srv = server.get()](uint32_t) { srv->WorkerLoop(); });
  server->acceptor_ = std::thread([srv = server.get()] { srv->AcceptLoop(); });
  JsonLogLine(JsonLogLevel::kInfo, "server_start")
      .Str("host", options.host)
      .Num("port", server->port_)
      .Num("workers", workers)
      .Num("io_threads", server->num_io_threads_)
      .Num("queue_capacity", options.queue_capacity)
      .Fixed("trace_sample_rate", options.trace_sample_rate, 4)
      .Num("slow_query_us", options.slow_query_us)
      .Str("git_sha", BuildGitSha());
  return server;
}

Result<std::unique_ptr<DistanceServer>> DistanceServer::Start(
    HopDbIndex index, const ServerOptions& options) {
  return Start(std::make_shared<const ServingSnapshot>(
                   std::move(index), options.source_path,
                   options.cache_capacity, options.hot_hub_k),
               options);
}

DistanceServer::~DistanceServer() { Stop(); }

Status DistanceServer::Listen() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen address '" + options_.host +
                                   "' (numeric IPv4 required)");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  if (listen(listen_fd_, std::max(1, options_.listen_backlog)) < 0) {
    const std::string err = std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("listen: " + err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }
  return Status::OK();
}

void DistanceServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: back off briefly instead of dying — the
        // I/O group keeps serving, and closing connections frees fds.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      // The listen socket was shut down (Stop) or broke; either way the
      // accept loop is done.
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      close(fd);
      break;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    io_group_.Adopt(fd);
  }
}

// ---------------------------------------------------------------------------
// RequestSink: the I/O threads deliver parsed requests here. Never
// blocks — admission control answers inline when the queue can't take
// the work.
// ---------------------------------------------------------------------------

void DistanceServer::HandleRequest(const std::shared_ptr<Connection>& conn,
                                   uint64_t seq, Request request,
                                   RequestTrace trace) {
  trace.kind = request.kind;
  trace.enqueued_ns = MonotonicNowNs();
  WorkItem item;
  item.request = std::move(request);
  item.conn = conn;
  item.seq = seq;
  item.trace = trace;
  switch (queue_.TryPush(&item)) {
    case BoundedQueue<WorkItem>::PushResult::kOk:
      return;
    case BoundedQueue<WorkItem>::PushResult::kFull:
      // Saturated, not broken: shed with the retryable BUSY answer. The
      // shed request still traces end to end (its queue/execute stages
      // are zero-width) so overload latency lands in the degraded
      // histogram instead of vanishing.
      metrics_.RecordShed();
      metrics_.CountRequest();
      trace.shed = true;
      trace.dequeued_ns = trace.executed_ns = trace.enqueued_ns;
      conn->Complete(seq, WireBusy(), trace);
      return;
    case BoundedQueue<WorkItem>::PushResult::kClosed:
      trace.dequeued_ns = trace.executed_ns = trace.enqueued_ns;
      conn->Complete(seq, WireErr("server shutting down"), trace);
      return;
  }
}

void DistanceServer::HandleParseError(const std::shared_ptr<Connection>& conn,
                                      uint64_t seq, std::string message,
                                      RequestTrace trace) {
  // Malformed input is answered inline: it never consumes a queue slot
  // a well-formed request could use.
  metrics_.RecordError();
  metrics_.CountRequest();
  trace.parse_error = true;
  trace.enqueued_ns = trace.dequeued_ns = trace.executed_ns = MonotonicNowNs();
  conn->Complete(seq, WireErr(std::move(message)), trace);
}

void DistanceServer::HandleTraceDone(const RequestTrace& trace) {
  metrics_.RecordTrace(trace);
  if (trace.sampled()) trace_ring_.Push(trace);
  const uint64_t total_us = trace.total_us();
  if (options_.slow_query_us > 0 && total_us >= options_.slow_query_us) {
    metrics_.RecordSlowQuery();
    JsonLogLine(JsonLogLevel::kWarning, "slow_query")
        .Num("trace_id", trace.trace_id)
        .Str("verb", trace.parse_error ? "parse_error"
                                       : RequestKindName(trace.kind))
        .Str("status", WireStatusName(trace.status))
        .Num("total_us", total_us)
        .Num("parse_us", trace.parse_us())
        .Num("queue_us", trace.queue_wait_us())
        .Num("execute_us", trace.execute_us())
        .Num("write_us", trace.write_us());
  }
}

void DistanceServer::WorkerLoop() {
  std::vector<WorkItem> batch;
  while (true) {
    batch.clear();
    if (queue_.PopBatch(&batch, options_.max_micro_batch) == 0) break;
    ExecuteWorkBatch(&batch);
  }
}

void DistanceServer::Finish(WorkItem* item, WireResponse response) {
  if (response.status != WireStatus::kOk) metrics_.RecordError();
  metrics_.CountRequest();
  item->trace.executed_ns = MonotonicNowNs();
  item->conn->Complete(item->seq, std::move(response), item->trace);
}

void DistanceServer::ExecuteWorkBatch(std::vector<WorkItem>* items) {
  const uint64_t dequeued_ns = MonotonicNowNs();
  for (WorkItem& item : *items) item.trace.dequeued_ns = dequeued_ns;
  if (options_.pre_execute_hook) {
    for (const WorkItem& item : *items) options_.pre_execute_hook(item.request);
  }
  // Memoize name -> snapshot for this drain: most drains target one or
  // two indexes, and resolving per item would pay a registry mutex +
  // map lookup on every DIST. A whole drain intentionally sees one
  // consistent snapshot per name (same RCU semantics as a single
  // in-flight request); each entry holds its snapshot, so a DETACH or
  // RELOAD mid-drain never frees one a later item still reads.
  std::vector<std::pair<const std::string*,
                        std::shared_ptr<const ServingSnapshot>>> resolved;
  auto resolve = [&](const std::string& name) -> const ServingSnapshot* {
    for (const auto& [known, snap] : resolved) {
      if (*known == name) return snap.get();
    }
    resolved.emplace_back(&name, registry_.Find(name));
    return resolved.back().second.get();
  };

  // Items are answered in queue order, each as soon as it is reached.
  for (WorkItem& item : *items) {
    const Request& req = item.request;
    if (req.kind == RequestKind::kDist || req.kind == RequestKind::kBatch ||
        req.kind == RequestKind::kKnn || req.kind == RequestKind::kWithin ||
        req.kind == RequestKind::kReach || req.kind == RequestKind::kPath) {
      const ServingSnapshot* snap = resolve(req.index_name);
      Finish(&item, snap == nullptr ? ErrNoSuchIndex(req.index_name)
                                    : ExecuteOnWire(req, *snap));
    } else {
      Finish(&item, ExecuteWire(req));
    }
  }
}

std::string DistanceServer::Execute(const Request& request) {
  return EncodeResponseV1(ExecuteWire(request));
}

WireResponse DistanceServer::ExecuteWire(const Request& request) {
  // Registry-scoped admin/telemetry verbs resolve no snapshot.
  switch (request.kind) {
    case RequestKind::kReload:
      return HandleReload(request.index_name, request.path);
    case RequestKind::kAttach:
      return HandleAttach(request.index_name, request.path);
    case RequestKind::kDetach:
      return HandleDetach(request.index_name);
    case RequestKind::kTrace:
      return TraceResponse(request.k);
    case RequestKind::kAddEdge:
      return HandleEdgeOp(request, /*is_delete=*/false);
    case RequestKind::kDelEdge:
      return HandleEdgeOp(request, /*is_delete=*/true);
    case RequestKind::kCommit:
      return HandleCommit(request.index_name);
    default:
      break;
  }
  const std::shared_ptr<const ServingSnapshot> snap =
      registry_.Find(request.index_name);
  if (snap == nullptr) return ErrNoSuchIndex(request.index_name);
  return ExecuteOnWire(request, *snap);
}

WireResponse DistanceServer::ExecuteOnWire(const Request& request,
                                           const ServingSnapshot& snapshot) {
  const VertexId n = snapshot.num_vertices();
  switch (request.kind) {
    case RequestKind::kPing:
      return WireOk("pong");
    case RequestKind::kStats:
    case RequestKind::kMetrics:
      return ExportResponse(request.kind, snapshot);
    case RequestKind::kDist: {
      const VertexId s = request.src;
      const VertexId t = request.targets[0];
      if (s >= n || t >= n) return ErrVertexOutOfRange(n);
      metrics_.RecordDist();
      return WireDistanceResponse(CachedQuery(snapshot, s, t));
    }
    case RequestKind::kBatch: {
      const VertexId s = request.src;
      if (s >= n) return ErrVertexOutOfRange(n);
      for (VertexId t : request.targets) {
        if (t >= n) return ErrVertexOutOfRange(n);
      }
      metrics_.RecordBatch();
      metrics_.RecordDist(request.targets.size());
      std::vector<Distance> dists;
      dists.reserve(request.targets.size());
      for (VertexId t : request.targets) {
        dists.push_back(CachedQuery(snapshot, s, t));
      }
      return WireDistancesResponse(std::move(dists));
    }
    case RequestKind::kKnn: {
      const VertexId s = request.src;
      if (s >= n) return ErrVertexOutOfRange(n);
      metrics_.RecordKnn();
      return WireNeighborsResponse(snapshot.QueryKnn(s, request.k));
    }
    case RequestKind::kWithin: {
      const VertexId s = request.src;
      if (s >= n) return ErrVertexOutOfRange(n);
      metrics_.RecordWithin();
      return WireNeighborsResponse(snapshot.QueryWithin(s, request.k));
    }
    case RequestKind::kReach: {
      const VertexId s = request.src;
      const VertexId t = request.targets[0];
      if (s >= n || t >= n) return ErrVertexOutOfRange(n);
      metrics_.RecordReach();
      return WireDistanceResponse(snapshot.QueryReach(s, t, request.k) ? 1
                                                                       : 0);
    }
    case RequestKind::kPath: {
      const VertexId s = request.src;
      const VertexId t = request.targets[0];
      if (s >= n || t >= n) return ErrVertexOutOfRange(n);
      metrics_.RecordPath();
      Result<std::vector<VertexId>> path = snapshot.QueryPath(s, t);
      if (!path.ok()) {
        // Unreachable is an answer, not a fault: an empty sequence (a
        // bare "OK" line in v1), so clients need not parse error text.
        if (path.status().IsNotFound()) return WireDistancesResponse({});
        return WireErr(path.status().ToString());
      }
      std::vector<Distance> ids(path.value().begin(), path.value().end());
      return WireDistancesResponse(std::move(ids));
    }
    case RequestKind::kReload:
    case RequestKind::kAttach:
    case RequestKind::kDetach:
    case RequestKind::kTrace:
    case RequestKind::kAddEdge:
    case RequestKind::kDelEdge:
    case RequestKind::kCommit:
      break;  // handled in ExecuteWire before snapshot resolution
  }
  return WireErr("unhandled request kind");
}

WireResponse DistanceServer::ExportResponse(RequestKind verb,
                                            const ServingSnapshot& snapshot) {
  const double uptime = uptime_.Seconds();
  const uint64_t requests = metrics_.requests();
  const ResultCache::Stats cache = snapshot.cache().GetStats();
  const auto percentile = [](const LatencyHistogram& histogram, double p) {
    return std::to_string(histogram.PercentileUs(p));
  };
  const std::vector<std::string> names = registry_.Names();
  std::vector<ExportRow> rows = {
      {.stat = "uptime_seconds", .family = "hopdb_uptime_seconds",
       .type = "gauge", .help = "Seconds since the server started.",
       .value = FormatDouble(uptime, 1), .prom_value = FormatDouble(uptime, 3)},
      {.stat = "build_git_sha", .value = BuildGitSha()},
      {.stat = "kernel", .value = ActiveQueryKernel().name},
      {.family = "hopdb_build_info", .type = "gauge",
       .help = "Build provenance; value is always 1, the labels carry the "
               "information.",
       .labels = "git_sha=\"" + PromLabelValue(BuildGitSha()) +
                 "\",version=\"" + PromLabelValue(BuildVersion()) +
                 "\",kernel=\"" + PromLabelValue(ActiveQueryKernel().name) +
                 "\"",
       .value = "1"},
      {.stat = "requests", .family = "hopdb_requests_total", .type = "counter",
       .help = "Requests completed, including shed and errored ones.",
       .value = std::to_string(requests)},
      {.stat = "errors", .family = "hopdb_errors_total", .type = "counter",
       .help = "Requests answered with ERR (parse or execution failure).",
       .value = std::to_string(metrics_.errors())},
      {.stat = "shed", .family = "hopdb_shed_total", .type = "counter",
       .help = "Requests shed with BUSY by admission control.",
       .value = std::to_string(metrics_.shed())},
      {.stat = "qps",
       .value = FormatDouble(
           uptime > 0 ? static_cast<double>(requests) / uptime : 0.0, 1)},
      {.stat = "slow_queries", .family = "hopdb_slow_queries_total",
       .type = "counter",
       .help = "Requests at or above --slow-query-us, emitted to the "
               "slow-query log.",
       .value = std::to_string(metrics_.slow_queries())},
      {.stat = "traces_sampled", .family = "hopdb_traces_sampled_total",
       .type = "counter", .help = "Requests sampled into the TRACE LAST ring.",
       .value = std::to_string(metrics_.traces_sampled())},
      {.stat = "connections", .family = "hopdb_connections_total",
       .type = "counter", .help = "Client connections accepted since start.",
       .value = std::to_string(connections_accepted())},
      {.stat = "reloads", .family = "hopdb_reloads_total", .type = "counter",
       .help = "Successful index hot-swaps (RELOAD).",
       .value = std::to_string(metrics_.reloads())},
      {.stat = "open_connections", .family = "hopdb_open_connections",
       .type = "gauge", .help = "Currently open client connections.",
       .value = std::to_string(open_connections())},
      {.stat = "queue_depth", .family = "hopdb_queue_depth", .type = "gauge",
       .help = "Requests waiting in the work queue right now.",
       .value = std::to_string(queue_.size())},
      {.stat = "queue_capacity", .family = "hopdb_queue_capacity",
       .type = "gauge",
       .help = "Work queue capacity (requests beyond it are shed).",
       .value = std::to_string(queue_.capacity())},
      {.stat = "workers", .family = "hopdb_workers", .type = "gauge",
       .help = "Query worker threads.",
       .value = std::to_string(workers_.size())},
      {.stat = "io_threads", .family = "hopdb_io_threads", .type = "gauge",
       .help = "Epoll I/O threads.", .value = std::to_string(num_io_threads_)},
      {.stat = "dist_queries", .family = "hopdb_dist_queries_total",
       .type = "counter",
       .help = "Point-to-point distance queries executed (BATCH targets "
               "count individually).",
       .value = std::to_string(metrics_.dist_queries())},
      {.stat = "batch_requests", .family = "hopdb_batch_requests_total",
       .type = "counter", .help = "BATCH requests executed.",
       .value = std::to_string(metrics_.batch_requests())},
      {.stat = "knn_requests", .family = "hopdb_knn_requests_total",
       .type = "counter", .help = "KNN requests executed.",
       .value = std::to_string(metrics_.knn_requests())},
      {.stat = "within_requests", .family = "hopdb_within_requests_total",
       .type = "counter", .help = "WITHIN (radius) requests executed.",
       .value = std::to_string(metrics_.within_requests())},
      {.stat = "reach_requests", .family = "hopdb_reach_requests_total",
       .type = "counter",
       .help = "REACH (bounded reachability) requests executed.",
       .value = std::to_string(metrics_.reach_requests())},
      {.stat = "path_requests", .family = "hopdb_path_requests_total",
       .type = "counter",
       .help = "PATH (shortest-path unfolding) requests executed.",
       .value = std::to_string(metrics_.path_requests())},
      // Latency. STATS prints percentiles of histograms that METRICS
      // renders whole; buckets are powers of two in microseconds (the le
      // bound is the bucket's inclusive upper edge).
      {.stat = "p50_us", .value = percentile(metrics_.latency_histogram(), 50)},
      {.stat = "p99_us", .value = percentile(metrics_.latency_histogram(), 99)},
      {.stat = "degraded_p99_us",
       .value = percentile(metrics_.degraded_histogram(), 99)},
      {.stat = "queue_wait_p50_us",
       .value = percentile(metrics_.queue_wait_histogram(), 50)},
      {.stat = "queue_wait_p99_us",
       .value = percentile(metrics_.queue_wait_histogram(), 99)},
      {.stat = "execute_p50_us",
       .value = percentile(metrics_.execute_histogram(), 50)},
      {.stat = "execute_p99_us",
       .value = percentile(metrics_.execute_histogram(), 99)},
      {.stat = "write_p50_us",
       .value = percentile(metrics_.write_histogram(), 50)},
      {.stat = "write_p99_us",
       .value = percentile(metrics_.write_histogram(), 99)},
      {.family = "hopdb_request_latency_us", .type = "histogram",
       .help = "Accepted-to-written latency of requests answered OK.",
       .histogram = &metrics_.latency_histogram()},
      {.family = "hopdb_degraded_latency_us", .type = "histogram",
       .help = "Accepted-to-written latency of shed/error answers.",
       .histogram = &metrics_.degraded_histogram()},
      // The default index.
      {.stat = "cache_hits", .value = std::to_string(cache.hits)},
      {.stat = "cache_misses", .value = std::to_string(cache.misses)},
      {.stat = "cache_hit_rate", .value = FormatDouble(cache.HitRate(), 4)},
      {.stat = "cache_entries", .value = std::to_string(cache.entries)},
      {.stat = "cache_capacity", .value = std::to_string(cache.capacity)},
      {.stat = "hot_hub_k", .value = std::to_string(snapshot.hot_hub().k())},
      {.stat = "hot_hub_bytes",
       .value = std::to_string(snapshot.hot_hub().SizeBytes())},
      {.stat = "vertices", .value = std::to_string(snapshot.num_vertices())},
      {.stat = "directed", .value = snapshot.directed() ? "1" : "0"},
      {.stat = "indexes", .value = std::to_string(names.size())},
  };
  const std::pair<const char*, const LatencyHistogram*> stages[] = {
      {"queue_wait", &metrics_.queue_wait_histogram()},
      {"execute", &metrics_.execute_histogram()},
      {"write", &metrics_.write_histogram()}};
  for (const auto& [stage, histogram] : stages) {
    rows.push_back({.family = "hopdb_stage_duration_us", .type = "histogram",
                    .help = "Per-stage request time: queue_wait "
                            "(enqueued->dequeued), execute "
                            "(dequeued->executed), write (executed->written).",
                    .labels = std::string("stage=\"") + stage + "\"",
                    .histogram = histogram});
  }
  for (size_t i = 0; i < kNumRequestKinds; ++i) {
    const RequestKind kind = static_cast<RequestKind>(i);
    rows.push_back({.family = "hopdb_verb_latency_us", .type = "histogram",
                    .help = "Accepted-to-written latency per verb.",
                    .labels = std::string("verb=\"") + RequestKindName(kind) +
                              "\"",
                    .histogram = &metrics_.verb_histogram(kind)});
  }
  // One group of rows per attached index, so an operator sees every
  // graph's footprint and storage mode.
  for (const std::string& name : names) {
    const std::shared_ptr<const ServingSnapshot> snap = registry_.Find(name);
    if (snap == nullptr) continue;  // detached between Names() and Find()
    const ResultCache::Stats index_cache = snap->cache().GetStats();
    const UpdateSessionInfo update = GetUpdateSessionInfo(name);
    rows.insert(
        rows.end(),
        {{.stat = "vertices", .family = "hopdb_index_vertices",
          .type = "gauge", .help = "Vertices served by each attached index.",
          .index = name, .value = std::to_string(snap->num_vertices())},
         {.stat = "mode", .index = name, .value = snap->map_mode()},
         {.stat = "resident_bytes", .family = "hopdb_index_resident_bytes",
          .type = "gauge",
          .help = "Resident memory of each attached index snapshot.",
          .index = name, .value = std::to_string(snap->ResidentBytes())},
         {.stat = "pending_updates", .index = name,
          .value = std::to_string(update.pending_updates)},
         {.stat = "last_commit_seconds", .index = name,
          .value = FormatDouble(update.last_commit_seconds, 3)},
         {.family = "hopdb_index_cache_hits_total", .type = "counter",
          .help = "Result-cache hits per index (current snapshot).",
          .index = name, .value = std::to_string(index_cache.hits)},
         {.family = "hopdb_index_cache_misses_total", .type = "counter",
          .help = "Result-cache misses per index (current snapshot).",
          .index = name, .value = std::to_string(index_cache.misses)},
         {.family = "hopdb_index_cache_entries", .type = "gauge",
          .help = "Result-cache entries per index (current snapshot).",
          .index = name, .value = std::to_string(index_cache.entries)}});
  }
  if (verb == RequestKind::kStats) return WireOk(RenderStats(rows));
  return WireBlobResponse(RenderMetrics(rows));
}

WireResponse DistanceServer::TraceResponse(uint32_t n) {
  const std::vector<RequestTrace> traces = trace_ring_.Last(n);
  std::string text =
      "trace_id verb status total_us parse_us queue_us execute_us write_us\n";
  if (traces.empty()) {
    text += "(no sampled traces yet; is --trace-sample-rate 0?)\n";
  }
  for (const RequestTrace& trace : traces) {
    text += std::to_string(trace.trace_id);
    text += ' ';
    text += trace.parse_error ? "parse_error" : RequestKindName(trace.kind);
    text += ' ';
    text += WireStatusName(trace.status);
    text += ' ';
    text += std::to_string(trace.total_us());
    text += ' ';
    text += std::to_string(trace.parse_us());
    text += ' ';
    text += std::to_string(trace.queue_wait_us());
    text += ' ';
    text += std::to_string(trace.execute_us());
    text += ' ';
    text += std::to_string(trace.write_us());
    text += '\n';
  }
  return WireBlobResponse(std::move(text));
}

WireResponse DistanceServer::HandleReload(const std::string& name,
                                          const std::string& path) {
  // Format the response from the snapshot this reload itself published,
  // not a re-lookup: a concurrent DETACH right after the publish must
  // not turn a committed reload into an "ERR no index named" answer.
  std::shared_ptr<const ServingSnapshot> snap;
  const Status status = ReloadInternal(name, path, &snap);
  if (!status.ok()) return WireErr(status.ToString());
  return WireOk("reloaded " + snap->source_path() +
                " vertices=" + std::to_string(snap->num_vertices()) +
                " mode=" + snap->map_mode());
}

WireResponse DistanceServer::HandleAttach(const std::string& name,
                                          const std::string& path) {
  std::shared_ptr<const ServingSnapshot> snap;
  const Status status = AttachInternal(name, path, &snap);
  if (!status.ok()) return WireErr(status.ToString());
  return WireOk("attached " + name + " " + path +
                " vertices=" + std::to_string(snap->num_vertices()) +
                " mode=" + snap->map_mode());
}

WireResponse DistanceServer::HandleDetach(const std::string& name) {
  const Status status = DetachIndex(name);
  if (!status.ok()) return WireErr(status.ToString());
  return WireOk("detached " + name);
}

WireResponse DistanceServer::HandleEdgeOp(const Request& request,
                                          bool is_delete) {
  const std::string resolved =
      request.index_name.empty() ? kDefaultIndexName : request.index_name;
  Result<std::shared_ptr<UpdateSession>> session_or =
      GetUpdateSession(resolved);
  if (!session_or.ok()) return WireErr(session_or.status().ToString());
  const std::shared_ptr<UpdateSession> session =
      std::move(session_or).value();
  // Repair runs under the session mutex: its cost lands on the updating
  // client while readers keep hitting the published snapshot lock-free.
  std::lock_guard<std::mutex> lock(session->mu);
  const Status loaded = EnsureSessionLoaded(resolved, session.get());
  if (!loaded.ok()) return WireErr(loaded.ToString());
  const RankMapping& ranking = session->index.ranking();
  const VertexId n = ranking.size();
  if (request.src >= n || request.targets[0] >= n) {
    return ErrVertexOutOfRange(n);
  }
  UpdateOp op;
  op.kind = is_delete ? UpdateOp::Kind::kDelEdge : UpdateOp::Kind::kAddEdge;
  op.u = ranking.ToInternal(request.src);
  op.v = ranking.ToInternal(request.targets[0]);
  if (!is_delete) op.weight = static_cast<Distance>(request.k);
  const Result<bool> changed = session->updater->Apply(op);
  if (!changed.ok()) return WireErr(changed.status().ToString());
  if (changed.value()) {
    session->pending_updates.fetch_add(1, std::memory_order_relaxed);
  }
  return WireOk(std::string(changed.value() ? "applied" : "noop") +
                " pending=" +
                std::to_string(session->pending_updates.load(
                    std::memory_order_relaxed)));
}

WireResponse DistanceServer::HandleCommit(const std::string& name) {
  const std::string resolved =
      name.empty() ? kDefaultIndexName : name;
  std::shared_ptr<UpdateSession> session;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    auto it = update_sessions_.find(resolved);
    if (it != update_sessions_.end()) session = it->second;
  }
  if (session == nullptr) return WireOk("nothing to commit");
  std::lock_guard<std::mutex> session_lock(session->mu);
  if (!session->loaded ||
      session->pending_updates.load(std::memory_order_relaxed) == 0) {
    return WireOk("nothing to commit");
  }
  Stopwatch commit_timer;
  session->updater->Finalize();
  // Deep-copy the repaired working index into the snapshot so later
  // edge ops keep mutating the session copy, never a published one.
  HopDbIndex published = session->index;
  const uint64_t committed =
      session->pending_updates.load(std::memory_order_relaxed);
  // Publish under the same per-name lock RELOAD uses, so a commit and a
  // reload of one index serialize. Lock order is session->mu then the
  // reload lock — InvalidateUpdateSession never takes session->mu, so
  // the reverse order cannot arise.
  std::lock_guard<std::mutex> reload_lock(*ReloadLockFor(resolved));
  if (session->invalidated.load(std::memory_order_acquire)) {
    return WireErr("index '" + resolved +
                   "' was reloaded or detached; uncommitted updates were "
                   "discarded");
  }
  const std::shared_ptr<const ServingSnapshot> current =
      registry_.Find(resolved);
  if (current == nullptr) return ErrNoSuchIndex(resolved);
  // PATH must keep answering against the committed adjacency, so the
  // new snapshot's path graph is frozen from the session's (updated)
  // dynamic graph — not re-read from the on-disk file, which still
  // describes the pre-update graph. Both speak rank ids, as snapshots
  // hold their path graphs.
  std::shared_ptr<const CsrGraph> path_graph;
  if (Result<CsrGraph> frozen = session->graph.Freeze(); frozen.ok()) {
    path_graph = std::make_shared<const CsrGraph>(std::move(frozen).value());
  }
  auto snapshot = std::make_shared<ServingSnapshot>(
      std::move(published), current->source_path(), options_.cache_capacity,
      options_.hot_hub_k, std::move(path_graph));
  // Carry forward result-cache entries this commit cannot have changed:
  // Query(s, t) reads only Lout(s) and Lin(t), so a cached pair is
  // stale iff the repair touched either of those labels. When the
  // repair touched a large fraction of the graph (or fell back to a
  // full rebuild) filtering approaches "drop everything" at full scan
  // cost, so revert to the wholesale drop (the new snapshot's cache
  // simply starts empty, the pre-selective behavior).
  uint64_t cache_carried = 0;
  uint64_t cache_dropped = 0;
  {
    const IncrementalUpdater::TouchedOwners touched =
        session->updater->TakeTouchedOwners();
    const size_t n = session->index.num_vertices();
    const bool wholesale =
        touched.all || !snapshot->cache().enabled() ||
        4 * (touched.out.size() + touched.in.size()) >= n;
    if (!wholesale) {
      const RankMapping& ranking = session->index.ranking();
      std::unordered_set<VertexId> out_orig;
      std::unordered_set<VertexId> in_orig;
      out_orig.reserve(touched.out.size());
      in_orig.reserve(touched.in.size());
      for (const VertexId v : touched.out) {
        out_orig.insert(ranking.ToOriginal(v));
      }
      for (const VertexId v : touched.in) {
        in_orig.insert(ranking.ToOriginal(v));
      }
      current->cache().ForEach([&](VertexId s, VertexId t, Distance d) {
        if (out_orig.count(s) != 0 || in_orig.count(t) != 0) {
          ++cache_dropped;
        } else {
          snapshot->cache().Insert(s, t, d);
          ++cache_carried;
        }
      });
    }
  }
  const VertexId vertices = snapshot->num_vertices();
  const Status status = registry_.Publish(resolved, std::move(snapshot));
  if (!status.ok()) return WireErr(status.ToString());
  const double seconds = commit_timer.Seconds();
  session->last_commit_seconds.store(seconds, std::memory_order_relaxed);
  session->pending_updates.store(0, std::memory_order_relaxed);
  JsonLogLine(JsonLogLevel::kInfo, "index_commit")
      .Str("name", resolved)
      .Num("updates", committed)
      .Fixed("seconds", seconds, 3)
      .Num("vertices", vertices)
      .Num("cache_carried", cache_carried)
      .Num("cache_dropped", cache_dropped);
  return WireOk("committed updates=" + std::to_string(committed) +
                " seconds=" + FormatDouble(seconds, 3) +
                " vertices=" + std::to_string(vertices) +
                " cache_carried=" + std::to_string(cache_carried) +
                " cache_dropped=" + std::to_string(cache_dropped));
}

Status DistanceServer::AttachInternal(
    const std::string& name, const std::string& path,
    std::shared_ptr<const ServingSnapshot>* published) {
  HOPDB_RETURN_NOT_OK(ValidateIndexName(name));
  if (name == kDefaultIndexName) {
    return Status::InvalidArgument(
        "'default' names the startup index; RELOAD it instead of "
        "attaching over it");
  }
  // Cheap availability pre-check: a duplicate ATTACH must not pay a
  // full index load (seconds + the whole heap footprint for HLI1) just
  // to be told the name is taken. registry_.Attach below remains the
  // authoritative check for the race where another ATTACH lands between
  // here and there.
  if (registry_.Find(name) != nullptr) {
    return Status::InvalidArgument("index '" + name +
                                   "' is already attached (DETACH it or "
                                   "RELOAD it instead)");
  }
  HOPDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const ServingSnapshot> snapshot,
      LoadServingSnapshot(path, options_.cache_capacity, options_.hot_hub_k,
                          RegisteredGraphPath(name)));
  if (published != nullptr) *published = snapshot;
  const Status status = registry_.Attach(name, snapshot);
  if (status.ok()) {
    InvalidateUpdateSession(name);
    JsonLogLine(JsonLogLevel::kInfo, "index_attach")
        .Str("name", name)
        .Str("path", path)
        .Str("mode", snapshot->map_mode())
        .Num("vertices", snapshot->num_vertices());
  }
  return status;
}

Status DistanceServer::DetachIndex(const std::string& name) {
  const Status status = registry_.Detach(name);
  if (status.ok()) {
    InvalidateUpdateSession(name);
    JsonLogLine(JsonLogLevel::kInfo, "index_detach").Str("name", name);
  }
  return status;
}

Status DistanceServer::ReloadInternal(
    const std::string& name, const std::string& path,
    std::shared_ptr<const ServingSnapshot>* published) {
  const std::string resolved = name.empty() ? kDefaultIndexName : name;
  // Serialize reloads PER NAME so two concurrent RELOADs of one index
  // can't interleave their load-then-publish sequences (last publisher
  // would silently win with a torn view of "source_path") — but a slow
  // heap reload of one index never blocks another index's O(1) remap.
  // Queries never take either lock. COMMIT publishes under the same
  // per-name lock, so a reload and a commit of one index cannot race.
  std::lock_guard<std::mutex> lock(*ReloadLockFor(resolved));
  std::string load_path = path;
  if (load_path.empty()) {
    const std::shared_ptr<const ServingSnapshot> current =
        registry_.Find(resolved);
    if (current == nullptr) {
      return Status::NotFound("no index named '" + resolved + "'");
    }
    load_path = current->source_path();
    if (load_path.empty()) {
      return Status::InvalidArgument(
          "RELOAD needs a path: index '" + resolved +
          "' was started from an in-memory index");
    }
  }
  HOPDB_ASSIGN_OR_RETURN(
      std::shared_ptr<const ServingSnapshot> snapshot,
      LoadServingSnapshot(load_path, options_.cache_capacity,
                          options_.hot_hub_k, RegisteredGraphPath(resolved)));
  if (published != nullptr) *published = snapshot;
  const std::string mode = snapshot->map_mode();
  const VertexId vertices = snapshot->num_vertices();
  HOPDB_RETURN_NOT_OK(registry_.Publish(resolved, std::move(snapshot)));
  metrics_.RecordReload();
  // Uncommitted edge updates patched the replaced snapshot; their base
  // is gone, so the update session (if any) is discarded.
  InvalidateUpdateSession(resolved);
  JsonLogLine(JsonLogLevel::kInfo, "index_reload")
      .Str("name", resolved)
      .Str("path", load_path)
      .Str("mode", mode)
      .Num("vertices", vertices);
  return Status::OK();
}

std::shared_ptr<std::mutex> DistanceServer::ReloadLockFor(
    const std::string& resolved) {
  // Lock entries are tiny and reused, so they are simply left in the
  // map after a DETACH.
  std::lock_guard<std::mutex> lock(reload_mu_);
  std::shared_ptr<std::mutex>& slot = reload_locks_[resolved];
  if (slot == nullptr) slot = std::make_shared<std::mutex>();
  return slot;
}

Status DistanceServer::RegisterUpdateGraph(const std::string& name,
                                           const std::string& path) {
  const std::string resolved = name.empty() ? kDefaultIndexName : name;
  HOPDB_RETURN_NOT_OK(ValidateIndexName(resolved));
  std::lock_guard<std::mutex> lock(update_mu_);
  update_graphs_[resolved] = path;
  return Status::OK();
}

std::string DistanceServer::RegisteredGraphPath(
    const std::string& resolved) const {
  std::lock_guard<std::mutex> lock(update_mu_);
  const auto it = update_graphs_.find(resolved);
  return it == update_graphs_.end() ? std::string() : it->second;
}

DistanceServer::UpdateSessionInfo DistanceServer::GetUpdateSessionInfo(
    const std::string& name) const {
  const std::string resolved = name.empty() ? kDefaultIndexName : name;
  std::shared_ptr<UpdateSession> session;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    auto it = update_sessions_.find(resolved);
    if (it == update_sessions_.end()) return {};
    session = it->second;
  }
  UpdateSessionInfo info;
  info.pending_updates =
      session->pending_updates.load(std::memory_order_relaxed);
  info.last_commit_seconds =
      session->last_commit_seconds.load(std::memory_order_relaxed);
  return info;
}

Result<std::shared_ptr<DistanceServer::UpdateSession>>
DistanceServer::GetUpdateSession(const std::string& resolved) {
  std::lock_guard<std::mutex> lock(update_mu_);
  auto it = update_sessions_.find(resolved);
  if (it != update_sessions_.end()) return it->second;
  auto graph_it = update_graphs_.find(resolved);
  if (graph_it == update_graphs_.end()) {
    return Status::InvalidArgument(
        "no graph registered for index '" + resolved +
        "' (start serve with --graph [name=]path to enable updates)");
  }
  auto session = std::make_shared<UpdateSession>();
  session->graph_path = graph_it->second;
  update_sessions_[resolved] = session;
  return session;
}

Status DistanceServer::EnsureSessionLoaded(const std::string& resolved,
                                           UpdateSession* session) {
  if (session->loaded) return Status::OK();
  const std::shared_ptr<const ServingSnapshot> snap =
      registry_.Find(resolved);
  if (snap == nullptr) {
    return Status::NotFound("no index named '" + resolved + "'");
  }
  if (snap->mapped()) {
    return Status::InvalidArgument(
        "index '" + resolved +
        "' is mmap-served (HLI2) and read-only; serve the HLI1 "
        "form to enable online updates");
  }
  // The graph file is frozen in the index's rank ids as it is read; a
  // file over another vertex count is refused before anything is sized.
  HOPDB_ASSIGN_OR_RETURN(
      CsrGraph ranked,
      LoadCsrGraph(session->graph_path, snap->directed(),
                   /*read_weights=*/true, &snap->index().ranking()));
  session->graph = DynamicGraph::FromGraph(ranked);
  // The working copy starts as a deep copy of the published snapshot:
  // readers keep the immutable snapshot, repairs mutate only the copy.
  session->index = snap->index();
  session->updater = std::make_unique<IncrementalUpdater>(
      &session->graph, &session->index.mutable_label_index());
  session->loaded = true;
  session->invalidated.store(false, std::memory_order_release);
  JsonLogLine(JsonLogLevel::kInfo, "update_session_open")
      .Str("name", resolved)
      .Str("graph", session->graph_path)
      .Num("vertices", session->index.num_vertices());
  return Status::OK();
}

void DistanceServer::InvalidateUpdateSession(const std::string& resolved) {
  std::shared_ptr<UpdateSession> session;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    auto it = update_sessions_.find(resolved);
    if (it == update_sessions_.end()) return;
    session = std::move(it->second);
    update_sessions_.erase(it);
  }
  // Flag only — never session->mu here. COMMIT holds session->mu while
  // taking the reload lock; a reload holding that lock must not wait on
  // session->mu or the two deadlock. An in-flight edge op finishes on
  // the orphaned session and the flag makes its COMMIT refuse.
  session->invalidated.store(true, std::memory_order_release);
}

ResultCache::Stats DistanceServer::cache_stats() const {
  return registry_.Find("")->cache().GetStats();
}

void DistanceServer::Stop() {
  std::call_once(stop_once_, [this] {
    stopping_.store(true, std::memory_order_release);
    JsonLogLine(JsonLogLevel::kInfo, "server_stop")
        .Fixed("uptime_seconds", uptime_.Seconds(), 1)
        .Num("requests", metrics_.requests())
        .Num("errors", metrics_.errors())
        .Num("shed", metrics_.shed());
    // 1. Stop accepting: shutdown unblocks accept(), then join.
    if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
    if (acceptor_.joinable()) acceptor_.join();
    if (listen_fd_ >= 0) {
      close(listen_fd_);
      listen_fd_ = -1;
    }
    // 2. Stop reading new requests; anything already parsed may still
    // land in the queue behind us.
    io_group_.ShutdownReads();
    // 3. Close the queue (late submissions get "server shutting down"
    // inline) and run the workers dry: every accepted request gets its
    // response completed into its connection.
    queue_.Close();
    workers_.Join();
    // 4. The I/O threads flush those final responses and close every
    // socket, so clients see answer-then-EOF rather than a hang.
    io_group_.Stop();
  });
}

}  // namespace hopdb
