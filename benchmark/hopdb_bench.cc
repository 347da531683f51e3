// hopdb_bench: one benchmark for hopdb, from in-process label queries to
// live updates over TCP. README.md has the workloads, the metrics and
// which layer should move which number.
//
//   hopdb_bench --workload W --seed S --seconds T --trace 0|1 --out run.json
//               [--trace-out spans.jsonl] [--work-dir DIR]
//   hopdb_bench --self-test [--work-dir DIR]
//
// A run generates the fixed reference graph, sets the index up the way
// `hopdb_cli serve` does (three times, reporting the median), generates
// every request and expected answer for the seed, then drives the
// workload for T seconds and checks every answer. --trace 0 reports the
// end-to-end metrics (set-up time, index size, memory); --trace 1 runs
// the same workload with spans around the benchmark's calls into each
// layer and reports the per-layer metrics instead, read latency and
// capacity among them. The process exits nonzero when any answer is
// wrong.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/verify.h"
#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "graph/graph_io.h"
#include "graph/ranking.h"
#include "hopdb.h"
#include "labeling/incremental.h"
#include "labeling/mapped_index.h"
#include "loadgen.h"
#include "server/index_registry.h"
#include "server/index_snapshot.h"
#include "server/metrics.h"
#include "server/server.h"
#include "trace.h"
#include "workloads.h"

namespace hopdb_bench {
namespace {

using hopdb::CsrGraph;
using hopdb::DistanceServer;
using hopdb::EdgeList;
using hopdb::HopDbIndex;
using hopdb::kInfDistance;
using hopdb::ServingSnapshot;
using hopdb::WireResponse;
using hopdb::WireStatus;

// The reference graph: GLP as in bench_query_kernel, at half its 100k
// vertices, so that three set-ups, the tcp-update replay and its rebuild
// fit a run's time budget on four cores.
constexpr VertexId kGraphVertices = 50000;
constexpr double kGraphAvgDegree = 8;
constexpr uint64_t kGraphSeed = 7;

constexpr int kSetups = 3;
// Load comes from one process using at most nproc (4) threads: the
// generator thread plus a server of one I/O thread and two workers.
constexpr int kConnections = 4;
constexpr uint32_t kIoThreads = 1;
constexpr uint32_t kWorkers = 2;
constexpr double kOpenLoopRate = 20000;
constexpr double kUpdateReadRate = 15000;
constexpr int kUpdateReadConnections = 3;
constexpr int kClosedLoopDepth = 64;
constexpr size_t kPoolSize = 1 << 20;
constexpr size_t kUpdateOps = 400;
constexpr size_t kCommitEvery = 16;
// Ops replayed in-process on workloads whose traffic has no updates.
constexpr size_t kReplayPrefixOps = 64;
constexpr uint32_t kOracleSources = 16;
constexpr size_t kRebuildCheckPairs = 50000;
// Direct per-call samples in the traced run.
constexpr size_t kLabelSamples = 200000;
constexpr size_t kReachSamples = 20000;
constexpr size_t kEngineSamples = 2000;
// An open-loop phase starts this far in the future, so its first due
// time and its latency windows share one origin.
constexpr int64_t kPhaseLeadNs = 1'000'000;
// Throughput is measured in slices of this length and reported as the
// median slice.
constexpr double kSliceSeconds = 0.1;

struct Config {
  Workload workload = Workload::kInprocUniform;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  VertexId vertices = kGraphVertices;
  size_t pool_size = kPoolSize;
  size_t update_ops = kUpdateOps;
  /// Self-test: falsify one expected answer before the run.
  bool corrupt = false;
  std::string work_dir = ".";
};

// ---------------------------------------------------------------------------
// Small statistics helpers.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Runs fn(begin, end) over [0, n) split across the hardware threads.
void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(std::thread::hardware_concurrency(),
                                           (n + 4095) / 4096));
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(fn, n * t / threads, n * (t + 1) / threads);
  }
  for (std::thread& worker : workers) worker.join();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

double SecondsBetween(int64_t start_ns, int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

// ---------------------------------------------------------------------------
// Results.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void Wrong(const std::string& why) {
    if (correct) std::fprintf(stderr, "WRONG: %s\n", why.c_str());
    correct = false;
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back(Metric{name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back(Metric{name, value, unit});
  }
  /// A per-layer metric this workload does not exercise: 0, with why.
  void NotApplicable(const std::string& name, const std::string& unit,
                     const char* why) {
    std::fprintf(stderr, "n/a %s: %s\n", name.c_str(), why);
    Layer(name, 0, unit);
  }
};

/// Tallies answers of one kind of request.
struct Tally {
  uint64_t answered = 0;
  uint64_t busy = 0;
  uint64_t errors = 0;
  uint64_t wrong = 0;

  /// Classifies a non-OK answer; false when the caller must check it.
  bool Refused(const WireResponse& response) {
    ++answered;
    if (response.status == WireStatus::kBusy) {
      ++busy;
      return true;
    }
    if (response.status != WireStatus::kOk) {
      ++errors;
      return true;
    }
    return false;
  }
  void AddTo(Outcome* outcome, const char* what) const {
    outcome->attempted += answered;
    outcome->failed += busy + errors + wrong;
    if (wrong > 0) {
      outcome->Wrong(std::to_string(wrong) + " wrong answers (" + what + ")");
    }
    if (busy + errors > 0) {
      std::fprintf(stderr, "%s: %llu BUSY, %llu ERR answers\n", what,
                   static_cast<unsigned long long>(busy),
                   static_cast<unsigned long long>(errors));
    }
  }
};

// ---------------------------------------------------------------------------
// Expected answers, computed before timing from a reference in-process
// index (DIST, BATCH, REACH) and from BFS (KNN).
// ---------------------------------------------------------------------------

struct Expected {
  std::vector<uint32_t> begin{0};
  std::vector<Distance> values;
};

/// The multiset of the k smallest distances from s, by BFS: discovery
/// order is non-decreasing in distance on unweighted graphs.
class KnnOracle {
 public:
  explicit KnnOracle(const CsrGraph& graph)
      : graph_(graph), seen_(graph.num_vertices(), 0),
        dist_(graph.num_vertices(), 0) {}

  void Distances(VertexId s, uint32_t k, std::vector<Distance>* out) {
    out->clear();
    ++epoch_;
    queue_.assign(1, s);
    seen_[s] = epoch_;
    dist_[s] = 0;
    for (size_t head = 0; head < queue_.size(); ++head) {
      const VertexId u = queue_[head];
      for (const hopdb::Arc& arc : graph_.OutArcs(u)) {
        if (seen_[arc.to] == epoch_) continue;
        seen_[arc.to] = epoch_;
        dist_[arc.to] = dist_[u] + 1;
        out->push_back(dist_[arc.to]);
        if (out->size() == k) return;
        queue_.push_back(arc.to);
      }
    }
  }

 private:
  const CsrGraph& graph_;
  std::vector<uint32_t> seen_;
  std::vector<Distance> dist_;
  std::vector<VertexId> queue_;
  uint32_t epoch_ = 0;
};

Expected ComputeExpected(const RequestPool& pool, const HopDbIndex& reference,
                         const CsrGraph& graph) {
  const size_t threads = std::max(1u, std::thread::hardware_concurrency());
  std::vector<Expected> parts(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      KnnOracle knn(graph);
      std::vector<Distance> scratch;
      Expected& part = parts[t];
      const size_t begin = pool.size() * t / threads;
      const size_t end = pool.size() * (t + 1) / threads;
      for (size_t i = begin; i < end; ++i) {
        const VertexId s = pool.src[i];
        const VertexId* targets = pool.targets.data() + pool.target_begin[i];
        const size_t count = pool.target_begin[i + 1] - pool.target_begin[i];
        switch (pool.verb[i]) {
          case Verb::kDist:
          case Verb::kBatch:
            for (size_t j = 0; j < count; ++j) {
              part.values.push_back(reference.Query(s, targets[j]));
            }
            break;
          case Verb::kReach: {
            const Distance d = reference.Query(s, targets[0]);
            part.values.push_back(d != kInfDistance && d <= pool.arg[i]);
            break;
          }
          case Verb::kKnn:
            knn.Distances(s, pool.arg[i], &scratch);
            part.values.insert(part.values.end(), scratch.begin(),
                               scratch.end());
            break;
        }
        part.begin.push_back(static_cast<uint32_t>(part.values.size()));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  Expected all;
  for (const Expected& part : parts) {
    const uint32_t base = static_cast<uint32_t>(all.values.size());
    for (size_t i = 1; i < part.begin.size(); ++i) {
      all.begin.push_back(base + part.begin[i]);
    }
    all.values.insert(all.values.end(), part.values.begin(),
                      part.values.end());
  }
  return all;
}

/// True when an OK answer to request i matches its expected answer.
bool Matches(const RequestPool& pool, const Expected& expected, size_t i,
             const WireResponse& response) {
  const Distance* want = expected.values.data() + expected.begin[i];
  const size_t count = expected.begin[i + 1] - expected.begin[i];
  switch (pool.verb[i]) {
    case Verb::kDist:
    case Verb::kReach:
      return response.payload == hopdb::WirePayload::kDistance &&
             response.distance == want[0];
    case Verb::kBatch:
      return response.payload == hopdb::WirePayload::kDistances &&
             std::equal(response.distances.begin(), response.distances.end(),
                        want, want + count);
    case Verb::kKnn: {
      if (response.payload != hopdb::WirePayload::kNeighbors ||
          response.neighbors.size() != count) {
        return false;
      }
      std::vector<Distance> got;
      for (const auto& neighbor : response.neighbors) {
        got.push_back(neighbor.second);
      }
      std::sort(got.begin(), got.end());
      return std::equal(got.begin(), got.end(), want);
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Set-up: Build on nproc threads, save, LoadServingSnapshot with the
// production defaults, DistanceServer::Start — as `hopdb_cli serve`.
// ---------------------------------------------------------------------------

struct Paths {
  std::string index;
  std::string graph;  // tcp-update's registered graph file
};

struct Setup {
  double seconds = 0;  // edges in hand -> server accepting
  double build_s = 0;
  double save_s = 0;
  double start_s = 0;
  /// Build wall time outside the labeling loop: normalize, freeze,
  /// rank and relabel.
  double rank_s = 0;
  hopdb::BuildStats stats;
  uint64_t index_bytes = 0;
  HopDbIndex index;
  std::shared_ptr<const ServingSnapshot> snapshot;
  std::unique_ptr<DistanceServer> server;
};

bool UsesMmap(Workload w) { return w == Workload::kTcpUniform; }

/// The serving defaults, on one I/O thread and two workers.
hopdb::ServerOptions ServingOptions() {
  hopdb::ServerOptions options;
  options.num_io_threads = kIoThreads;
  options.num_workers = kWorkers;
  return options;
}

hopdb::Result<Setup> RunSetup(const Config& config, const EdgeList& edges,
                              const Paths& paths, Tracer* tracer,
                              int32_t parent) {
  Setup setup;
  hopdb::HopDbOptions options;
  options.build.num_threads = 0;  // every hardware thread
  const hopdb::ServerOptions server_options = ServingOptions();
  const bool update = config.workload == Workload::kTcpUpdate;

  const int64_t t0 = NowNs();
  HOPDB_ASSIGN_OR_RETURN(setup.index, HopDbIndex::Build(edges, options));
  const int64_t t1 = NowNs();
  if (UsesMmap(config.workload)) {
    HOPDB_RETURN_NOT_OK(hopdb::MappedIndex::Write(
        setup.index.label_index(), setup.index.ranking(), paths.index));
  } else {
    HOPDB_RETURN_NOT_OK(setup.index.Save(paths.index));
  }
  const int64_t t2 = NowNs();
  HOPDB_ASSIGN_OR_RETURN(
      setup.snapshot,
      hopdb::LoadServingSnapshot(paths.index, server_options.cache_capacity,
                                 server_options.hot_hub_k,
                                 update ? paths.graph : std::string()));
  const int64_t t3 = NowNs();
  HOPDB_ASSIGN_OR_RETURN(setup.server,
                         DistanceServer::Start(setup.snapshot, server_options));
  if (update) {
    HOPDB_RETURN_NOT_OK(setup.server->RegisterUpdateGraph("", paths.graph));
  }
  const int64_t t4 = NowNs();

  setup.seconds = SecondsBetween(t0, t4);
  setup.build_s = SecondsBetween(t0, t1);
  setup.save_s = SecondsBetween(t1, t2);
  setup.start_s = SecondsBetween(t3, t4);
  setup.stats = setup.index.build_stats();
  setup.rank_s = setup.build_s - setup.stats.total_seconds;
  setup.index_bytes = FileBytes(paths.index) +
                      (UsesMmap(config.workload)
                           ? 0
                           : FileBytes(paths.index + ".perm"));
  const int32_t span = tracer->Add("setup", t0, t4, parent);
  tracer->Add("build", t0, t1, span);
  tracer->Add("save", t1, t2, span);
  tracer->Add("load_snapshot", t2, t3, span);
  tracer->Add("server_start", t3, t4, span);
  return setup;
}

// ---------------------------------------------------------------------------
// In-process replay of the op stream through IncrementalUpdater::Apply
// on a private copy of the reference index.
// ---------------------------------------------------------------------------

struct Replay {
  std::vector<double> insert_us;
  std::vector<double> delete_us;
  hopdb::UpdateStats stats;
  /// epoch_dist[e][i]: distance of read i after the first e COMMITs.
  std::vector<std::vector<Distance>> epoch_dist;
  /// The repaired index after the whole stream.
  HopDbIndex final_index;
};

hopdb::Result<Replay> ReplayUpdates(const HopDbIndex& reference,
                                    const CsrGraph& graph,
                                    const std::vector<UpdateStep>& steps,
                                    const RequestPool* reads, Tracer* tracer,
                                    int32_t parent) {
  Replay replay;
  replay.final_index = reference;
  HopDbIndex& copy = replay.final_index;
  HOPDB_ASSIGN_OR_RETURN(CsrGraph ranked,
                         hopdb::RelabelByRank(graph, copy.ranking()));
  hopdb::DynamicGraph dynamic = hopdb::DynamicGraph::FromGraph(ranked);
  hopdb::IncrementalUpdater updater(&dynamic, &copy.mutable_label_index());
  const auto record_epoch = [&] {
    if (reads == nullptr) return;
    std::vector<Distance>& dist = replay.epoch_dist.emplace_back(reads->size());
    ParallelFor(reads->size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        dist[i] = copy.Query(reads->src[i],
                             reads->targets[reads->target_begin[i]]);
      }
    });
  };
  record_epoch();
  const int32_t span = tracer->Begin("update.replay", parent);
  for (const UpdateStep& step : steps) {
    if (step.kind == UpdateStep::Kind::kCommit) {
      updater.Finalize();
      record_epoch();
      continue;
    }
    hopdb::UpdateOp op;
    const bool insert = step.kind == UpdateStep::Kind::kAddEdge;
    op.kind = insert ? hopdb::UpdateOp::Kind::kAddEdge
                     : hopdb::UpdateOp::Kind::kDelEdge;
    op.u = copy.ranking().ToInternal(step.u);
    op.v = copy.ranking().ToInternal(step.v);
    const int64_t start = NowNs();
    const hopdb::Result<bool> changed = updater.Apply(op);
    const int64_t end = NowNs();
    if (!changed.ok()) return changed.status();
    tracer->Add(insert ? "update.insert" : "update.delete", start, end, span);
    (insert ? replay.insert_us : replay.delete_us)
        .push_back(static_cast<double>(end - start) * 1e-3);
  }
  updater.Finalize();
  tracer->End(span);
  replay.stats = updater.stats();
  return replay;
}

// ---------------------------------------------------------------------------
// Server-side counters, differenced over a phase.
// ---------------------------------------------------------------------------

struct StageSample {
  uint64_t count = 0;
  uint64_t sum_us = 0;
  std::array<uint64_t, hopdb::LatencyHistogram::kBuckets> buckets{};
};

struct ServerSample {
  StageSample stages[3];  // queue_wait, execute, write
  uint64_t dist_queries = 0;
  uint64_t micro_batched = 0;
  uint64_t shed = 0;
  hopdb::ResultCache::Stats cache;
};

ServerSample SampleServer(const DistanceServer& server) {
  const hopdb::ServerMetrics& m = server.metrics();
  const hopdb::LatencyHistogram* histograms[3] = {
      &m.queue_wait_histogram(), &m.execute_histogram(),
      &m.write_histogram()};
  ServerSample sample;
  for (int i = 0; i < 3; ++i) {
    sample.stages[i].count = histograms[i]->count();
    sample.stages[i].sum_us = histograms[i]->sum_us();
    sample.stages[i].buckets = histograms[i]->BucketSnapshot();
  }
  sample.dist_queries = m.dist_queries();
  sample.micro_batched = m.micro_batched_queries();
  sample.shed = m.shed();
  sample.cache = server.cache_stats();
  return sample;
}

double StageMeanUs(const StageSample& a, const StageSample& b) {
  const uint64_t count = b.count - a.count;
  return count == 0 ? 0
                    : static_cast<double>(b.sum_us - a.sum_us) /
                          static_cast<double>(count);
}

/// p99 of the differenced power-of-two histogram, interpolated linearly
/// inside the bucket that holds it (bucket i spans [2^i, 2^(i+1)) us,
/// bucket 0 spans [0, 2)).
double StageP99Us(const StageSample& a, const StageSample& b) {
  const uint64_t count = b.count - a.count;
  if (count == 0) return 0;
  const double rank = 0.99 * static_cast<double>(count);
  double seen = 0;
  for (size_t i = 0; i < a.buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(b.buckets[i] - a.buckets[i]);
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      const double lower = i == 0 ? 0 : std::ldexp(1.0, static_cast<int>(i));
      const double upper = std::ldexp(1.0, static_cast<int>(i) + 1);
      return lower + (rank - seen) / in_bucket * (upper - lower);
    }
    seen += in_bucket;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Latency in 1 s windows of due time: a whole-run loopback p99 does not
// repeat, the median over windows of each window's percentile does.
// ---------------------------------------------------------------------------

class WindowedLatency {
 public:
  explicit WindowedLatency(int64_t start_ns) : start_ns_(start_ns) {}

  void Add(int64_t due_ns, double latency_us) {
    const size_t window =
        static_cast<size_t>(std::max<int64_t>(0, due_ns - start_ns_) /
                            1'000'000'000);
    if (window >= windows_.size()) windows_.resize(window + 1);
    windows_[window].push_back(latency_us);
    sum_us_ += latency_us;
    ++count_;
  }
  static bool Traced(int64_t start_ns, int64_t due_ns) {
    return ((due_ns - start_ns) / 1'000'000'000) % 2 == 1;
  }
  /// Median over windows of each window's p-th percentile; `parity`
  /// -1 takes every window, 0 / 1 only the even / odd ones.
  double WindowMedian(double p, int parity = -1) const {
    std::vector<double> per_window;
    for (size_t w = 0; w < windows_.size(); ++w) {
      if (windows_[w].empty()) continue;
      if (parity >= 0 && static_cast<int>(w % 2) != parity) continue;
      per_window.push_back(Percentile(windows_[w], p));
    }
    return Median(per_window);
  }
  double MeanUs() const {
    return count_ == 0 ? 0 : sum_us_ / static_cast<double>(count_);
  }

 private:
  int64_t start_ns_;
  std::vector<std::vector<double>> windows_;
  double sum_us_ = 0;
  uint64_t count_ = 0;
};

/// Answers per slice of a closed-loop phase; capacity is the median
/// slice, so a stall of the machine costs one slice, not the phase.
class SliceCounter {
 public:
  void Start(int64_t start_ns, double seconds) {
    start_ns_ = start_ns;
    counts_.assign(static_cast<size_t>(seconds / kSliceSeconds), 0);
  }
  void Add(int64_t done_ns) {
    const int64_t slice_ns = static_cast<int64_t>(kSliceSeconds * 1e9);
    const int64_t at = (done_ns - start_ns_) / slice_ns;
    if (at >= 0 && static_cast<size_t>(at) < counts_.size()) {
      ++counts_[static_cast<size_t>(at)];
    }
  }
  double MedianRate() const {
    std::vector<double> rates;
    for (uint64_t c : counts_) {
      rates.push_back(static_cast<double>(c) / kSliceSeconds);
    }
    return Median(rates);
  }

 private:
  int64_t start_ns_ = 0;
  std::vector<uint64_t> counts_;
};

// ---------------------------------------------------------------------------
// Everything one run holds.
// ---------------------------------------------------------------------------

struct RunContext {
  Config config;
  Paths paths;
  EdgeList edges;       // as generated: what Build receives
  CsrGraph graph;       // normalized, original ids (oracles, replay)
  Tracer tracer;
  int32_t run_span = kNoSpan;
  std::vector<Setup> setups;
  const HopDbIndex* reference = nullptr;
  DistanceServer* server = nullptr;
  Outcome outcome;

  explicit RunContext(const Config& c) : config(c), tracer(c.trace) {}
  double PhaseSeconds(double share) const { return config.seconds * share; }
};

constexpr double kWarmShare = 0.1;
constexpr double kMainShare = 0.6;
constexpr double kCapacityShare = 0.3;

/// Per-layer metrics of the server pipeline, the result cache and the
/// generator, from samples around an open-loop phase and a capacity
/// phase (the same phase twice when there is only one).
void ReportServerLayers(RunContext* ctx, const ServerSample& open_before,
                        const ServerSample& open_after,
                        const ServerSample& cap_before,
                        const ServerSample& cap_after,
                        const WindowedLatency& latency,
                        const std::vector<double>& lag_us, double gen_cpu_s) {
  Outcome& out = ctx->outcome;
  static const char* kStage[3] = {"queue_wait", "execute", "write"};
  double stage_sum = 0;
  for (int i = 0; i < 3; ++i) {
    const double mean = StageMeanUs(open_before.stages[i], open_after.stages[i]);
    stage_sum += mean;
    out.Layer(std::string("server.") + kStage[i] + "_us_mean", mean, "us");
  }
  for (int i = 0; i < 3; ++i) {
    out.Layer(std::string("server.") + kStage[i] + "_us_p99",
              StageP99Us(open_before.stages[i], open_after.stages[i]), "us");
  }
  const uint64_t dists = cap_after.dist_queries - open_before.dist_queries;
  out.Layer("server.micro_batched_frac",
            dists == 0 ? 0
                       : static_cast<double>(cap_after.micro_batched -
                                             open_before.micro_batched) /
                             static_cast<double>(dists),
            "ratio");
  out.Layer("server.shed",
            static_cast<double>(cap_after.shed - open_before.shed), "count");
  out.Layer("recon.unattributed_us_mean", latency.MeanUs() - stage_sum, "us");
  const uint64_t hits = cap_after.cache.hits - cap_before.cache.hits;
  const uint64_t lookups = hits + cap_after.cache.misses - cap_before.cache.misses;
  out.Layer("cache.hit_rate",
            lookups == 0 ? 0
                         : static_cast<double>(hits) /
                               static_cast<double>(lookups),
            "ratio");
  out.Layer("cache.evictions",
            static_cast<double>(cap_after.cache.evictions -
                                cap_before.cache.evictions),
            "count");
  out.Layer("cache.entries", static_cast<double>(cap_after.cache.entries),
            "count");
  out.Layer("gen.lag_us_p99", Percentile(lag_us, 99), "us");
  out.Layer("gen.cpu_s", gen_cpu_s, "s");
}

/// Checks pool answers of one phase and feeds the latency windows.
ReplyFn PoolChecker(const RequestPool& pool, const Expected& expected,
                    Tally* tally, WindowedLatency* latency, Tracer* tracer,
                    int32_t span, int64_t phase_start) {
  return [=, &pool, &expected](const Completion& done,
                               const WireResponse& response) {
    if (!tally->Refused(response) &&
        !Matches(pool, expected, done.index, response)) {
      ++tally->wrong;
    }
    if (latency == nullptr) return;
    latency->Add(done.due_ns, static_cast<double>(done.done_ns - done.due_ns) *
                                  1e-3);
    if (WindowedLatency::Traced(phase_start, done.due_ns)) {
      tracer->Add("request", done.sent_ns, done.done_ns, span, done.seq + 1);
    }
  };
}

// ---------------------------------------------------------------------------
// inproc-uniform: ServingSnapshot::Query on one thread, no server.
// ---------------------------------------------------------------------------

void RunInproc(RunContext* ctx, const ServingSnapshot& snapshot,
               const RequestPool& pool, const Expected& expected) {
  Outcome& out = ctx->outcome;
  uint64_t wrong = 0;
  uint64_t queries = 0;
  size_t next = 0;
  const auto query = [&] {
    const size_t i = next;
    next = next + 1 == pool.size() ? 0 : next + 1;
    const Distance d =
        snapshot.Query(pool.src[i], pool.targets[pool.target_begin[i]]);
    wrong += d != expected.values[expected.begin[i]];
    ++queries;
  };
  const auto run_for = [&](double seconds) {
    const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
    uint64_t n = 0;
    do {
      for (int j = 0; j < 1024; ++j) query();
      n += 1024;
    } while (NowNs() < end);
    return n;
  };

  run_for(ctx->PhaseSeconds(kWarmShare));
  // The speed of a shared machine drifts, so capacity and latency
  // alternate in short slices over the whole measured time, see the same
  // drift, and each reports its median slice. A capacity slice makes
  // untimed calls back to back; a latency slice times every call. In the
  // traced run every other latency slice also records a span for every
  // 16th call.
  std::vector<double> qps;
  std::vector<double> p50[2];
  std::vector<double> p99[2];
  std::vector<double> ns;
  const int32_t span = ctx->tracer.Begin("inproc.timed", ctx->run_span);
  const int64_t end = NowNs() + static_cast<int64_t>(
                                    ctx->PhaseSeconds(1 - kWarmShare) * 1e9);
  uint64_t call = 0;
  for (size_t slice = 0; NowNs() < end; ++slice) {
    const int64_t cap_start = NowNs();
    const uint64_t n = run_for(kSliceSeconds);
    qps.push_back(static_cast<double>(n) / SecondsBetween(cap_start, NowNs()));

    const bool traced = ctx->tracer.enabled() && slice % 2 == 1;
    const int64_t slice_end =
        NowNs() + static_cast<int64_t>(kSliceSeconds * 1e9);
    ns.clear();
    do {
      for (int j = 0; j < 256; ++j, ++call) {
        const int64_t start = NowNs();
        query();
        const int64_t stop = NowNs();
        ns.push_back(static_cast<double>(stop - start) * 1e-3);
        if (traced && call % 16 == 0) {
          ctx->tracer.Add("inproc.query", start, stop, span, call + 1);
        }
      }
    } while (NowNs() < slice_end);
    p50[traced].push_back(Percentile(ns, 50));
    p99[traced].push_back(Percentile(ns, 99));
  }
  ctx->tracer.End(span);

  out.attempted += queries;
  out.failed += wrong;
  if (wrong > 0) out.Wrong(std::to_string(wrong) + " wrong in-process answers");
  if (ctx->tracer.enabled()) {
    const double untraced = Median(p50[0]);
    out.Layer("capacity_qps", Median(qps), "req/s");
    out.Layer("p50_us", untraced, "us");
    out.Layer("p99_us", Median(p99[0]), "us");
    out.Layer("trace.overhead_frac",
              untraced > 0 ? Median(p50[1]) / untraced - 1 : 0, "ratio");
  }
}

/// inproc-uniform's traced run also sends one second of its pairs over
/// TCP to the server set up beside it, so the server-side layers have
/// numbers on this workload too.
void RunInprocProbe(RunContext* ctx, const RequestPool& pool,
                    const Expected& expected) {
  const EncodedStream reads = EncodeReads(pool, Framing::kV2);
  LoadGenerator gen(Framing::kV2);
  const hopdb::Status connected = gen.Connect(ctx->server->port(), kConnections);
  if (!connected.ok()) {
    ctx->outcome.Wrong("probe connect: " + connected.ToString());
    return;
  }
  Tally tally;
  LoadGenerator::OpenLoop spec;
  spec.reads = &reads;
  spec.count = static_cast<uint64_t>(kOpenLoopRate);
  spec.rate = kOpenLoopRate;
  spec.read_connections = kConnections;
  const ServerSample before = SampleServer(*ctx->server);
  const int32_t span = ctx->tracer.Begin("probe", ctx->run_span);
  spec.start_ns = NowNs() + kPhaseLeadNs;
  WindowedLatency latency(spec.start_ns);
  const PhaseStats stats = gen.RunOpenLoop(
      spec, PoolChecker(pool, expected, &tally, &latency, &ctx->tracer, span,
                        spec.start_ns));
  ctx->tracer.End(span);
  const ServerSample after = SampleServer(*ctx->server);
  tally.AddTo(&ctx->outcome, "probe");
  ctx->outcome.attempted += stats.lost;
  ctx->outcome.failed += stats.lost;
  ReportServerLayers(ctx, before, after, before, after, latency, stats.lag_us,
                     stats.cpu_s);
}

// ---------------------------------------------------------------------------
// TCP workloads.
// ---------------------------------------------------------------------------

struct UpdateTraffic {
  const UpdateStream* stream = nullptr;
  const Replay* replay = nullptr;
  const RequestPool* final_pool = nullptr;
  const Expected* final_expected = nullptr;
};

void RunTcp(RunContext* ctx, const RequestPool& pool,
            const Expected& expected, const UpdateTraffic& update) {
  Outcome& out = ctx->outcome;
  const bool updating = update.stream != nullptr;
  const Framing framing = updating ? Framing::kV1 : Framing::kV2;
  const EncodedStream reads = EncodeReads(pool, framing);
  LoadGenerator gen(framing);
  const hopdb::Status connected = gen.Connect(ctx->server->port(), kConnections);
  if (!connected.ok()) {
    out.Wrong("connect: " + connected.ToString());
    return;
  }
  const double rate = updating ? kUpdateReadRate : kOpenLoopRate;
  const int read_conns = updating ? kUpdateReadConnections : kConnections;
  const uint64_t warm_count =
      static_cast<uint64_t>(rate * ctx->PhaseSeconds(kWarmShare));
  const uint64_t main_count =
      static_cast<uint64_t>(rate * ctx->PhaseSeconds(kMainShare));

  Tally reads_tally;
  // Reads of tcp-update are right if they match the distance after any
  // COMMIT the request may have observed.
  const auto check_read = [&](const Completion& done,
                              const WireResponse& response) {
    if (reads_tally.Refused(response)) return;
    if (!updating) {
      if (!Matches(pool, expected, done.index, response)) ++reads_tally.wrong;
      return;
    }
    const auto& epochs = update.replay->epoch_dist;
    const uint32_t hi =
        std::min<uint32_t>(done.epoch_hi, static_cast<uint32_t>(epochs.size() - 1));
    bool ok = false;
    for (uint32_t e = done.epoch_lo; e <= hi && !ok; ++e) {
      ok = response.payload == hopdb::WirePayload::kDistance &&
           response.distance == epochs[e][done.index];
    }
    reads_tally.wrong += !ok;
  };

  // Warm-up: caches fill and lazy engines (KNN) get built.
  LoadGenerator::OpenLoop warm;
  warm.reads = &reads;
  warm.count = warm_count;
  warm.rate = rate;
  warm.read_connections = read_conns;
  const PhaseStats warm_stats = gen.RunOpenLoop(
      warm, [&](const Completion& d, const WireResponse& r) { check_read(d, r); });

  // Open loop at a fixed rate (plus, on tcp-update, the op stream).
  Tally ops_tally;
  std::vector<double> insert_us;
  std::vector<double> delete_us;
  std::vector<double> commit_ms;
  uint64_t cache_carried = 0;
  uint64_t cache_dropped = 0;
  std::vector<bool> is_commit;
  EncodedStream ops;
  LoadGenerator::OpenLoop main;
  main.reads = &reads;
  main.first_read = warm_count;
  main.count = main_count;
  main.rate = rate;
  main.read_connections = read_conns;
  if (updating) {
    ops = EncodeUpdates(update.stream->steps);
    for (const UpdateStep& step : update.stream->steps) {
      is_commit.push_back(step.kind == UpdateStep::Kind::kCommit);
    }
    main.updates = &ops;
    main.is_commit = &is_commit;
    // Spread over the phase, so that every latency window sees updates.
    main.update_rate =
        static_cast<double>(ops.size()) / ctx->PhaseSeconds(kMainShare);
  }
  const auto check_op = [&](const Completion& done,
                            const WireResponse& response) {
    const UpdateStep& step = update.stream->steps[done.index];
    const double us = static_cast<double>(done.done_ns - done.sent_ns) * 1e-3;
    if (ops_tally.Refused(response)) return;
    if (step.kind == UpdateStep::Kind::kCommit) {
      commit_ms.push_back(us * 1e-3);
      unsigned long long carried = 0;
      unsigned long long dropped = 0;
      const char* at = std::strstr(response.text.c_str(), "cache_carried=");
      if (at == nullptr ||
          std::sscanf(at, "cache_carried=%llu cache_dropped=%llu", &carried,
                      &dropped) != 2) {
        ++ops_tally.wrong;
      }
      cache_carried += carried;
      cache_dropped += dropped;
      return;
    }
    (step.kind == UpdateStep::Kind::kAddEdge ? insert_us : delete_us)
        .push_back(us);
    if (response.text.rfind("applied", 0) != 0) ++ops_tally.wrong;
  };
  const ServerSample open_before = SampleServer(*ctx->server);
  const int32_t open_span = ctx->tracer.Begin("open_loop", ctx->run_span);
  const int64_t open_start = NowNs() + kPhaseLeadNs;
  main.start_ns = open_start;
  WindowedLatency latency(open_start);
  const PhaseStats main_stats = gen.RunOpenLoop(
      main, [&](const Completion& done, const WireResponse& response) {
        if (done.update) {
          check_op(done, response);
          if (ctx->tracer.enabled()) {
            ctx->tracer.Add("update_op", done.sent_ns, done.done_ns, open_span,
                            done.index + 1);
          }
          return;
        }
        check_read(done, response);
        latency.Add(done.due_ns,
                    static_cast<double>(done.done_ns - done.due_ns) * 1e-3);
        if (WindowedLatency::Traced(open_start, done.due_ns)) {
          ctx->tracer.Add("request", done.sent_ns, done.done_ns, open_span,
                          done.seq + 1);
        }
      });
  ctx->tracer.End(open_span);
  const ServerSample open_after = SampleServer(*ctx->server);
  std::fprintf(stderr, "open loop: %.2f s for %.2f s of reads\n",
               main_stats.seconds, ctx->PhaseSeconds(kMainShare));

  // Closed loop: capacity, every connection `depth` reads deep. On
  // tcp-update it reads the final snapshot and is checked against a
  // from-scratch rebuild of the mutated graph.
  const RequestPool& cap_pool = updating ? *update.final_pool : pool;
  const Expected& cap_expected = updating ? *update.final_expected : expected;
  const EncodedStream final_reads =
      updating ? EncodeReads(cap_pool, framing) : EncodedStream{};
  Tally cap_tally;
  const ServerSample cap_before = SampleServer(*ctx->server);
  const int32_t cap_span = ctx->tracer.Begin("closed_loop", ctx->run_span);
  const ReplyFn check_cap = PoolChecker(cap_pool, cap_expected, &cap_tally,
                                        nullptr, &ctx->tracer, cap_span, 0);
  SliceCounter slices;
  slices.Start(NowNs(), ctx->PhaseSeconds(kCapacityShare));
  const PhaseStats cap_stats = gen.RunClosedLoop(
      updating ? final_reads : reads, updating ? 0 : warm_count + main_count,
      ctx->PhaseSeconds(kCapacityShare), kClosedLoopDepth,
      [&](const Completion& done, const WireResponse& response) {
        check_cap(done, response);
        slices.Add(done.done_ns);
      });
  ctx->tracer.End(cap_span);
  const ServerSample cap_after = SampleServer(*ctx->server);

  reads_tally.AddTo(&out, "reads");
  cap_tally.AddTo(&out, "capacity reads");
  const uint64_t lost = warm_stats.lost + main_stats.lost + cap_stats.lost;
  out.attempted += lost;
  out.failed += lost;
  if (lost > 0) {
    std::fprintf(stderr, "%llu requests never answered\n",
                 static_cast<unsigned long long>(lost));
  }
  if (updating) {
    ops_tally.AddTo(&out, "update ops");
    if (commit_ms.size() != is_commit.size() - std::count(is_commit.begin(),
                                                          is_commit.end(),
                                                          false)) {
      out.Wrong("not every COMMIT was answered");
    }
  }

  if (!ctx->tracer.enabled()) return;
  ReportServerLayers(ctx, open_before, open_after, cap_before, cap_after,
                     latency, main_stats.lag_us,
                     main_stats.cpu_s + cap_stats.cpu_s);
  out.Layer("capacity_qps", slices.MedianRate(), "req/s");
  // Odd windows recorded a span per request, even ones did not.
  const double untraced = latency.WindowMedian(50, 0);
  out.Layer("p50_us", untraced, "us");
  out.Layer("p99_us", latency.WindowMedian(99, 0), "us");
  out.Layer("trace.overhead_frac",
            untraced > 0 ? latency.WindowMedian(50, 1) / untraced - 1 : 0,
            "ratio");
  if (updating) {
    out.Layer("insert_p50_us", Median(insert_us), "us");
    out.Layer("delete_p50_us", Median(delete_us), "us");
    out.Layer("commit_p50_ms", Median(commit_ms), "ms");
    out.Layer("commit.cache_carried", static_cast<double>(cache_carried),
              "count");
    out.Layer("commit.cache_dropped", static_cast<double>(cache_dropped),
              "count");
  }
}

// ---------------------------------------------------------------------------
// Traced run only: direct calls into each layer, timed one by one.
// ---------------------------------------------------------------------------

template <typename T>
void KeepAlive(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

std::vector<double> SpanDurations(const Tracer& tracer, int32_t parent,
                                  const char* name, double scale) {
  std::vector<double> out;
  for (const Span& span : tracer.spans()) {
    if (span.parent == parent && std::string(span.name) == name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * scale);
    }
  }
  return out;
}

/// Label, snapshot and query-engine layers, on the workload's own pairs.
/// `labels` is the index the served snapshot holds (for tcp-update, the
/// repaired one); `mapped` is set when the snapshot is mmap-backed.
void ReportQueryLayers(RunContext* ctx, const ServingSnapshot& snapshot,
                       const HopDbIndex& labels,
                       const hopdb::MappedIndex* mapped,
                       const RequestPool& pool) {
  Outcome& out = ctx->outcome;
  Tracer& tracer = ctx->tracer;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  for (size_t i = 0; i < pool.size() && pairs.size() < kLabelSamples; ++i) {
    if (pool.verb[i] == Verb::kDist) {
      pairs.emplace_back(pool.src[i], pool.targets[pool.target_begin[i]]);
    }
  }
  const hopdb::RankMapping& rank = labels.ranking();
  const int32_t span = tracer.Begin("layer_replay", ctx->run_span);
  std::vector<Distance> label_answers;
  double entries = 0;
  for (const auto& [s, t] : pairs) {
    const VertexId si = rank.ToInternal(s);
    const VertexId ti = rank.ToInternal(t);
    const int64_t start = NowNs();
    const Distance d = mapped != nullptr ? mapped->Query(s, t)
                                         : labels.label_index().Query(si, ti);
    tracer.Add("label.query", start, NowNs(), span);
    label_answers.push_back(d);
    entries += static_cast<double>(labels.label_index().OutLabel(si).size() +
                                   labels.label_index().InLabel(ti).size());
  }
  uint64_t disagree = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const int64_t start = NowNs();
    const Distance d = snapshot.Query(pairs[i].first, pairs[i].second);
    tracer.Add("snapshot.query", start, NowNs(), span);
    disagree += d != label_answers[i];
  }
  if (disagree > 0) {
    ctx->outcome.Wrong(std::to_string(disagree) +
                       " pairs where the label index and the snapshot "
                       "disagree");
  }
  std::vector<VertexId> targets(kBatchTargets);
  for (size_t i = 0; i < kEngineSamples && i + kBatchTargets < pairs.size();
       ++i) {
    for (uint32_t j = 0; j < kBatchTargets; ++j) {
      targets[j] = pairs[i + 1 + j].second;
    }
    const int64_t start = NowNs();
    const std::vector<Distance> d =
        snapshot.QueryOneToMany(pairs[i].first, targets);
    tracer.Add("query.batch", start, NowNs(), span);
    KeepAlive(d);
  }
  KeepAlive(snapshot.QueryKnn(pairs[0].first, kKnnK));  // builds the engine
  for (size_t i = 0; i < kEngineSamples && i < pairs.size(); ++i) {
    const int64_t start = NowNs();
    const auto knn = snapshot.QueryKnn(pairs[i].first, kKnnK);
    tracer.Add("query.knn", start, NowNs(), span);
    KeepAlive(knn);
  }
  for (size_t i = 0; i < kReachSamples && i < pairs.size(); ++i) {
    const int64_t start = NowNs();
    const bool reach =
        snapshot.QueryReach(pairs[i].first, pairs[i].second, kReachBound);
    tracer.Add("query.reach", start, NowNs(), span);
    KeepAlive(reach);
  }
  tracer.End(span);

  const std::vector<double> label_ns =
      SpanDurations(tracer, span, "label.query", 1);
  const std::vector<double> snapshot_ns =
      SpanDurations(tracer, span, "snapshot.query", 1);
  out.Layer("label.query_ns_p50", Percentile(label_ns, 50), "ns");
  out.Layer("label.query_ns_p99", Percentile(label_ns, 99), "ns");
  out.Layer("label.entries_per_query",
            pairs.empty() ? 0 : entries / static_cast<double>(pairs.size()),
            "entries");
  out.Layer("snapshot.query_ns_p50", Percentile(snapshot_ns, 50), "ns");
  out.Layer("snapshot.query_ns_p99", Percentile(snapshot_ns, 99), "ns");
  out.Layer("query.batch_us_p50",
            Median(SpanDurations(tracer, span, "query.batch", 1e-3)), "us");
  out.Layer("query.knn_us_p50",
            Median(SpanDurations(tracer, span, "query.knn", 1e-3)), "us");
  out.Layer("query.reach_ns_p50",
            Median(SpanDurations(tracer, span, "query.reach", 1)), "ns");
}

void ReportSetupLayers(RunContext* ctx, const ServingSnapshot& snapshot,
                       double load_s, double publish_s) {
  Outcome& out = ctx->outcome;
  std::vector<double> build, rank, generate, dedup, prune, apply, save, start;
  for (const Setup& s : ctx->setups) {
    build.push_back(s.build_s);
    rank.push_back(s.rank_s);
    generate.push_back(
        s.stats.PhaseSeconds(&hopdb::IterationStats::generate_seconds));
    dedup.push_back(s.stats.PhaseSeconds(&hopdb::IterationStats::dedup_seconds));
    prune.push_back(s.stats.PhaseSeconds(&hopdb::IterationStats::prune_seconds));
    apply.push_back(s.stats.PhaseSeconds(&hopdb::IterationStats::apply_seconds));
    save.push_back(s.save_s);
    start.push_back(s.start_s);
  }
  const hopdb::BuildStats& stats = ctx->setups.front().stats;
  double pruned = 0;
  double deduped = 0;
  for (const hopdb::IterationStats& it : stats.iterations) {
    pruned += static_cast<double>(it.pruned);
    deduped += static_cast<double>(it.deduped_candidates);
  }
  out.Layer("build.s", Median(build), "s");
  out.Layer("build.rank_s", Median(rank), "s");
  out.Layer("build.generate_s", Median(generate), "s");
  out.Layer("build.dedup_s", Median(dedup), "s");
  out.Layer("build.prune_s", Median(prune), "s");
  out.Layer("build.apply_s", Median(apply), "s");
  out.Layer("build.iterations", stats.num_rule_iterations, "count");
  out.Layer("build.label_entries",
            static_cast<double>(ctx->reference->label_index().TotalEntries()),
            "count");
  out.Layer("build.avg_label", ctx->reference->AvgLabelSize(), "entries");
  out.Layer("build.prune_ratio", deduped > 0 ? pruned / deduped : 0, "ratio");
  out.Layer("index.save_s", Median(save), "s");
  out.Layer("index.load_s", load_s, "s");
  out.Layer("snapshot.publish_s", publish_s, "s");
  out.Layer("hub.bytes", static_cast<double>(snapshot.hot_hub().SizeBytes()),
            "B");
  out.Layer("server.start_s", Median(start), "s");
}

void ReportUpdateLayers(RunContext* ctx, const Replay& replay) {
  Outcome& out = ctx->outcome;
  const hopdb::UpdateStats& stats = replay.stats;
  out.Layer("update.insert_repair_us_p50", Median(replay.insert_us), "us");
  out.Layer("update.delete_repair_us_p50", Median(replay.delete_us), "us");
  out.Layer("update.full_rebuilds", static_cast<double>(stats.full_rebuilds),
            "count");
  out.Layer("update.affected_per_op",
            stats.ops_applied == 0
                ? 0
                : static_cast<double>(stats.affected_sources +
                                      stats.affected_targets) /
                      static_cast<double>(stats.ops_applied),
            "count");
  out.Layer("update.entries_added", static_cast<double>(stats.entries_added),
            "count");
  out.Layer("update.entries_removed",
            static_cast<double>(stats.entries_removed), "count");
}

// ---------------------------------------------------------------------------
// One run.
// ---------------------------------------------------------------------------

hopdb::Result<CsrGraph> FreezeGraph(const EdgeList& edges) {
  EdgeList normalized = edges;
  normalized.Normalize();
  return CsrGraph::FromEdgeList(normalized);
}

void Corrupt(Expected* expected) {
  std::fprintf(stderr, "self-test: falsifying the first expected answer\n");
  expected->values[expected->begin[0]] += 1;
}

hopdb::Result<Outcome> RunWorkload(const Config& config,
                                   const std::string& trace_out) {
  RunContext ctx(config);
  Outcome& out = ctx.outcome;
  const Workload workload = config.workload;
  const bool updating = workload == Workload::kTcpUpdate;
  ctx.run_span = ctx.tracer.Begin(WorkloadName(workload));
  const int64_t run_start = NowNs();
  const auto stage = [run_start](const char* what) {
    std::fprintf(stderr, "[%6.1f s] %s\n", SecondsBetween(run_start, NowNs()),
                 what);
  };

  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  if (ec) return hopdb::Status::IOError("cannot create " + config.work_dir);
  ctx.paths.index = config.work_dir + "/index." +
                    (UsesMmap(workload) ? "hli2" : "hopdb");
  ctx.paths.graph = config.work_dir + "/graph.hgr";

  hopdb::GlpOptions glp;
  glp.num_vertices = config.vertices;
  glp.target_avg_degree = kGraphAvgDegree;
  glp.seed = kGraphSeed;
  HOPDB_ASSIGN_OR_RETURN(ctx.edges, hopdb::GenerateGlp(glp));
  EdgeList normalized = ctx.edges;
  normalized.Normalize();
  HOPDB_ASSIGN_OR_RETURN(ctx.graph, CsrGraph::FromEdgeList(normalized));
  if (updating) {
    HOPDB_RETURN_NOT_OK(hopdb::WriteBinaryGraph(normalized, ctx.paths.graph));
  }
  const VertexId n = ctx.graph.num_vertices();
  stage("graph generated");

  // Set up three times; the last set-up serves, the first one's index is
  // the in-process reference every answer is checked against. Peak RSS
  // is taken when the first set-up ends: until then the process holds
  // only the graph and what set-up allocated, as `hopdb_cli serve` does.
  double peak_rss_mb = 0;
  for (int k = 0; k < kSetups; ++k) {
    HOPDB_ASSIGN_OR_RETURN(
        Setup setup,
        RunSetup(config, ctx.edges, ctx.paths, &ctx.tracer, ctx.run_span));
    if (k == 0) peak_rss_mb = PeakRssMb();
    if (k + 1 < kSetups) {
      setup.server.reset();
      setup.snapshot.reset();
    }
    if (k > 0) setup.index = HopDbIndex();
    ctx.setups.push_back(std::move(setup));
  }
  ctx.reference = &ctx.setups.front().index;
  ctx.server = ctx.setups.back().server.get();
  stage("set up three times");

  // Streams and expected answers, all before timing.
  RequestPool pool;
  Expected expected;
  UpdateStream stream;
  Replay replay;
  RequestPool final_pool;
  Expected final_expected;
  CsrGraph final_graph;
  if (workload == Workload::kTcpZipfMix) {
    const ZipfSampler zipf(DegreeOrder(normalized), 0.99);
    pool = ZipfMixPool(zipf, config.pool_size, config.seed);
  } else if (updating) {
    const double reads_seconds =
        ctx.PhaseSeconds(kWarmShare) + ctx.PhaseSeconds(kMainShare);
    pool = UniformDistPool(
        n, static_cast<size_t>(kUpdateReadRate * reads_seconds) + 1,
        config.seed, Stream::kReads);
  } else {
    pool = UniformDistPool(n, config.pool_size, config.seed, Stream::kReads);
  }
  if (updating) {
    stream = MakeUpdateStream(normalized, config.update_ops, kCommitEvery,
                              config.seed);
    HOPDB_ASSIGN_OR_RETURN(replay,
                           ReplayUpdates(*ctx.reference, ctx.graph,
                                         stream.steps, &pool, &ctx.tracer,
                                         ctx.run_span));
    hopdb::HopDbOptions options;
    options.build.num_threads = 0;
    HOPDB_ASSIGN_OR_RETURN(HopDbIndex rebuild,
                           HopDbIndex::Build(stream.final_edges, options));
    HOPDB_ASSIGN_OR_RETURN(final_graph, FreezeGraph(stream.final_edges));
    final_pool = UniformDistPool(n, config.pool_size, config.seed,
                                 Stream::kFinalReads);
    final_expected = ComputeExpected(final_pool, rebuild, final_graph);
    uint64_t disagree = 0;
    for (size_t i = 0; i < final_pool.size() && i < kRebuildCheckPairs; ++i) {
      disagree += replay.final_index.Query(final_pool.src[i],
                                           final_pool.targets[i]) !=
                  final_expected.values[i];
    }
    if (disagree > 0) {
      out.Wrong(std::to_string(disagree) +
                " pairs where the repaired index and the rebuild disagree");
    }
    if (config.corrupt) Corrupt(&final_expected);
  } else {
    expected = ComputeExpected(pool, *ctx.reference, ctx.graph);
    if (config.corrupt) Corrupt(&expected);
  }

  stage("streams and expected answers ready");
  const std::shared_ptr<const ServingSnapshot> served = ctx.server->snapshot();
  if (workload == Workload::kInprocUniform) {
    RunInproc(&ctx, *served, pool, expected);
  } else {
    UpdateTraffic update;
    if (updating) {
      update.stream = &stream;
      update.replay = &replay;
      update.final_pool = &final_pool;
      update.final_expected = &final_expected;
    }
    RunTcp(&ctx, pool, expected, update);
  }

  stage("workload done");

  // Exactness of what is served now against BFS from 16 sources.
  const std::shared_ptr<const ServingSnapshot> now = ctx.server->snapshot();
  hopdb::VerifyOptions verify;
  verify.sample_sources = kOracleSources;
  verify.seed = StreamSeed(config.seed, 9);
  const hopdb::Status exact = hopdb::VerifyExactDistances(
      updating ? final_graph : ctx.graph,
      [&now](VertexId s, VertexId t) { return now->Query(s, t); }, verify);
  out.attempted += 1;
  if (!exact.ok()) {
    out.failed += 1;
    out.Wrong("oracle: " + exact.ToString());
  }

  std::vector<double> setup_s;
  for (const Setup& s : ctx.setups) setup_s.push_back(s.seconds);
  out.E2e("setup_s", Median(setup_s), "s");
  out.E2e("index_bytes", static_cast<double>(ctx.setups.back().index_bytes),
          "B");
  out.E2e("peak_rss_mb", peak_rss_mb, "MB");

  if (ctx.tracer.enabled()) {
    // Load (Open for HLI2) the served file, then publish it as a
    // snapshot with the serving defaults, three times.
    const hopdb::ServerOptions serving = ServingOptions();
    std::vector<double> load_s;
    std::vector<double> publish_s;
    for (int k = 0; k < kSetups; ++k) {
      const int64_t t0 = NowNs();
      int64_t t1 = 0;
      std::shared_ptr<const ServingSnapshot> published;
      if (UsesMmap(workload)) {
        HOPDB_ASSIGN_OR_RETURN(hopdb::MappedIndex opened,
                               hopdb::MappedIndex::Open(ctx.paths.index));
        t1 = NowNs();
        published = std::make_shared<const ServingSnapshot>(
            std::move(opened), ctx.paths.index, serving.cache_capacity,
            serving.hot_hub_k);
      } else {
        HOPDB_ASSIGN_OR_RETURN(HopDbIndex loaded,
                               HopDbIndex::Load(ctx.paths.index));
        t1 = NowNs();
        published = std::make_shared<const ServingSnapshot>(
            std::move(loaded), ctx.paths.index, serving.cache_capacity,
            serving.hot_hub_k);
      }
      const int64_t t2 = NowNs();
      ctx.tracer.Add("index_load", t0, t1, ctx.run_span);
      ctx.tracer.Add("publish", t1, t2, ctx.run_span);
      load_s.push_back(SecondsBetween(t0, t1));
      publish_s.push_back(SecondsBetween(t1, t2));
    }
    ReportSetupLayers(&ctx, *now, Median(load_s), Median(publish_s));
    hopdb::MappedIndex mapped;
    if (UsesMmap(workload)) {
      HOPDB_ASSIGN_OR_RETURN(mapped, hopdb::MappedIndex::Open(ctx.paths.index));
    }
    ReportQueryLayers(&ctx, *now,
                      updating ? replay.final_index : *ctx.reference,
                      UsesMmap(workload) ? &mapped : nullptr, pool);
    if (workload == Workload::kInprocUniform) {
      RunInprocProbe(&ctx, pool, expected);
    }
    if (!updating) {
      // No updates in this traffic: replay a prefix of this seed's op
      // stream so the repair layer still has numbers.
      const UpdateStream prefix = MakeUpdateStream(
          normalized, kReplayPrefixOps, kCommitEvery, config.seed);
      HOPDB_ASSIGN_OR_RETURN(replay,
                             ReplayUpdates(*ctx.reference, ctx.graph,
                                           prefix.steps, nullptr, &ctx.tracer,
                                           ctx.run_span));
      for (const char* name : {"insert_p50_us", "delete_p50_us"}) {
        out.NotApplicable(name, "us", "no update traffic on this workload");
      }
      out.NotApplicable("commit_p50_ms", "ms",
                        "no update traffic on this workload");
      for (const char* name : {"commit.cache_carried", "commit.cache_dropped"}) {
        out.NotApplicable(name, "count", "no COMMIT on this workload");
      }
    }
    ReportUpdateLayers(&ctx, replay);
  }
  ctx.tracer.End(ctx.run_span);
  stage("checked");

  if (!trace_out.empty() && ctx.tracer.enabled() &&
      !ctx.tracer.WriteJsonLines(trace_out)) {
    return hopdb::Status::IOError("cannot write " + trace_out);
  }
  return std::move(ctx.outcome);
}

bool WriteResult(const std::string& path, const Config& config,
                 const Outcome& outcome) {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
               "\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
               "\"metrics\": {",
               WorkloadName(config.workload),
               static_cast<unsigned long long>(config.seed), config.trace,
               outcome.correct ? "true" : "false",
               static_cast<unsigned long long>(outcome.attempted),
               static_cast<unsigned long long>(outcome.failed));
  const std::vector<Metric>& metrics =
      config.trace ? outcome.per_layer : outcome.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::fprintf(file, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                 metrics[i].unit.c_str());
  }
  std::fprintf(file, "}}\n");
  return std::fclose(file) == 0;
}

// ---------------------------------------------------------------------------
// --self-test
// ---------------------------------------------------------------------------

int SelfTest(const std::string& work_dir) {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    failures += !ok;
  };

  // Streams: a seed fixes every byte, another seed changes them.
  hopdb::GlpOptions glp;
  glp.num_vertices = 2000;
  glp.target_avg_degree = kGraphAvgDegree;
  glp.seed = kGraphSeed;
  hopdb::Result<EdgeList> edges = hopdb::GenerateGlp(glp);
  if (!edges.ok()) {
    std::fprintf(stderr, "%s\n", edges.status().ToString().c_str());
    return 1;
  }
  edges->Normalize();
  const ZipfSampler zipf(DegreeOrder(*edges), 0.99);
  const auto image = [&](uint64_t seed) {
    return SerializePool(UniformDistPool(2000, 5000, seed, Stream::kReads)) +
           SerializePool(UniformDistPool(2000, 5000, seed,
                                         Stream::kFinalReads)) +
           SerializePool(ZipfMixPool(zipf, 5000, seed)) +
           SerializeSteps(MakeUpdateStream(*edges, 100, kCommitEvery, seed)
                              .steps);
  };
  check(image(11) == image(11), "the same seed gives byte-identical streams");
  check(image(11) != image(12), "another seed gives different streams");

  // Self time on a synthetic tree: root [0,100] has children a [10,40],
  // b [30,60] (overlapping a) and c [90,120] (past root's end); a has
  // child d [15,20]. Root's children cover [10,60] and [90,100].
  const std::vector<Span> spans = {{"root", 0, 100, kNoSpan, 0},
                                   {"a", 10, 40, 0, 1},
                                   {"b", 30, 60, 0, 2},
                                   {"c", 90, 120, 0, 3},
                                   {"d", 15, 20, 1, 1}};
  const std::vector<int64_t> self = SelfTimes(spans);
  check(self == std::vector<int64_t>{40, 25, 30, 30, 5},
        "self time is duration minus the union of clipped children");

  // Every workload at toy scale: clean runs are correct; a run with one
  // falsified expected answer is not.
  for (Workload w : {Workload::kInprocUniform, Workload::kTcpUniform,
                     Workload::kTcpZipfMix, Workload::kTcpUpdate}) {
    Config config;
    config.workload = w;
    config.seed = 5;
    config.seconds = 1;
    config.trace = true;
    config.vertices = 2000;
    config.pool_size = 20000;
    config.update_ops = 48;
    config.work_dir = work_dir + "/self-test";
    const std::string name = WorkloadName(w);
    hopdb::Result<Outcome> clean = RunWorkload(config, "");
    check(clean.ok() && clean->correct && clean->failed == 0,
          name + ": a clean run is correct");
    config.trace = false;
    config.corrupt = true;
    hopdb::Result<Outcome> bad = RunWorkload(config, "");
    check(bad.ok() && !bad->correct && bad->failed >= 1,
          name + ": one falsified expected answer fails the run");
  }
  return failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hopdb_bench --workload W --seed S --seconds T "
               "--trace 0|1 --out FILE [--trace-out FILE] [--work-dir DIR]\n"
               "       hopdb_bench --self-test [--work-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Config config;
  std::string out_path;
  std::string trace_out;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      have_workload = ParseWorkload(value, &config.workload);
      if (!have_workload) return Usage();
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds >= 1)) return Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage();
      config.trace = value == "1";
    } else if (flag == "--out") {
      out_path = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (self_test) return SelfTest(config.work_dir);
  if (!have_workload || out_path.empty()) return Usage();

  hopdb::Result<Outcome> outcome = RunWorkload(config, trace_out);
  if (!outcome.ok()) {
    std::fprintf(stderr, "hopdb_bench: %s\n",
                 outcome.status().ToString().c_str());
    return 2;
  }
  if (!WriteResult(out_path, config, *outcome)) {
    std::fprintf(stderr, "hopdb_bench: cannot write %s\n", out_path.c_str());
    return 2;
  }
  return outcome->correct ? 0 : 1;
}

}  // namespace
}  // namespace hopdb_bench

int main(int argc, char** argv) { return hopdb_bench::Main(argc, argv); }
