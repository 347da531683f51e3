// Query-kernel comparison: the packed SoA layout under every kernel this
// CPU supports against the scalar AoS merge, on one GLP
// scale-free graph (default |V| = 100k — the acceptance setting).
//
// Variants measured, all answering the same random point-query stream:
//   aos/scalar       span-based QueryLabelHalves over an AoS copy of the
//                    labels, one vector<LabelVector> per side (the
//                    pre-flat-store hot path; one scalar merge, no
//                    kernel)
//   blocked/<kernel> QueryFlatHalves over the packed arenas (the
//                    scalar merge, or AVX2's 16-entry block merge)
//   hothub/<kernel>  HotHubCache (k=64) dense-table fold + suffix merge
//   index/default    TwoHopIndex::Query as served (packed store +
//                    default kernel)
// plus one OneToManyEngine row timing over the flat bucket arena.
//
// Every variant's distance checksum must agree — the bench doubles as an
// end-to-end bit-identical check — and the JSON written to --out
// (default BENCH_query_kernel.json) records ns/query per variant with
// speedups relative to aos/scalar, plus hardware cache-miss and
// branch-miss rates per query (perf_event_open; -1 when the kernel
// forbids counting) so layout wins are attributable to memory
// behavior.
//
//   bench_query_kernel            # 100k-vertex GLP, ~200k queries
//   bench_query_kernel --ci       # small graph, short run
//
// Either mode exits nonzero unless every variant's checksum agrees.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "eval/workload.h"
#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "labeling/builder.h"
#include "labeling/flat_label_store.h"
#include "labeling/hot_hub.h"
#include "labeling/query_kernel.h"
#include "labeling/two_hop_index.h"
#include "query/batch.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace {

struct VariantResult {
  std::string name;
  double ns_per_query = 0;
  uint64_t checksum = 0;
  double cache_misses_per_query = -1;   // -1 = counters unavailable
  double branch_misses_per_query = -1;
};

int Run(int argc, char** argv) {
  CliFlags flags;
  flags.Define("n", "100000", "graph vertices (GLP)");
  flags.Define("avg-degree", "8", "graph average degree");
  flags.Define("seed", "7", "graph + workload seed");
  flags.Define("queries", "200000", "random point queries per variant");
  flags.Define("threads", "0", "builder threads (0 = all cores)");
  flags.Define("hot-hub-k", "64", "hot-hub cache pivot count");
  flags.Define("out", "BENCH_query_kernel.json",
               "machine-readable output path");
  flags.Define("ci", "false", "CI mode: small graph, short run");
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    std::cout << flags.Usage(
        "bench_query_kernel — blocked SIMD query kernels vs the scalar "
        "AoS merge");
    return flags.help_requested() ? 0 : 1;
  }

  const bool ci = flags.GetBool("ci").ValueOrDie();
  const VertexId n =
      ci ? 20000 : static_cast<VertexId>(flags.GetUint("n").ValueOrDie());
  const size_t num_queries =
      ci ? 50000 : static_cast<size_t>(flags.GetUint("queries").ValueOrDie());
  const uint64_t seed = flags.GetUint("seed").ValueOrDie();
  const uint32_t hot_hub_k =
      static_cast<uint32_t>(flags.GetUint("hot-hub-k").ValueOrDie());

  GlpOptions glp;
  glp.num_vertices = n;
  glp.target_avg_degree = flags.GetDouble("avg-degree").ValueOrDie();
  glp.seed = seed;
  auto edges = GenerateGlp(glp);
  if (!edges.ok()) {
    std::cerr << "graph generation failed: " << edges.status() << "\n";
    return 1;
  }
  auto graph = CsrGraph::FromEdgeList(*edges);
  if (!graph.ok()) {
    std::cerr << "graph freeze failed: " << graph.status() << "\n";
    return 1;
  }
  auto ranked = RelabelByRank(*graph,
                              ComputeRanking(*graph, RankingPolicy::kDegree));
  if (!ranked.ok()) {
    std::cerr << "relabel failed: " << ranked.status() << "\n";
    return 1;
  }

  BuildOptions build;
  build.num_threads =
      static_cast<uint32_t>(flags.GetUint("threads").ValueOrDie());
  std::cout << "building labels over |V|=" << n
            << " |E|=" << graph->num_edges() << " ..." << std::flush;
  Stopwatch build_watch;
  auto built = BuildHopLabeling(*ranked, build);
  if (!built.ok()) {
    std::cerr << "\nbuild failed: " << built.status() << "\n";
    return 1;
  }
  const double build_seconds = build_watch.Seconds();
  const TwoHopIndex index = std::move(built->index);
  std::cout << " done in " << FormatDouble(build_seconds, 1) << "s, avg |label| "
            << FormatDouble(index.AvgLabelSize(), 1) << "\n";

  const LabelSetView blocked_view = index.labels();

  const HotHubCache hub = HotHubCache::Build(blocked_view, hot_hub_k);

  const std::vector<QueryPair> pairs = RandomPairs(n, num_queries, seed + 1);
  bench::PerfCounters counters;
  if (!counters.available()) {
    std::cout << "  (hardware counters unavailable — ns/query only)\n";
  }

  // One warmup + one timed pass per variant; the checksum (sum of all
  // distances, inf counted as-is) must be identical across variants.
  auto run_variant = [&](const std::string& name, auto&& query_fn) {
    VariantResult result;
    result.name = name;
    uint64_t sink = 0;
    const size_t warmup = std::min<size_t>(pairs.size(), 4096);
    for (size_t i = 0; i < warmup; ++i) {
      sink += query_fn(pairs[i].s, pairs[i].t);
    }
    sink = 0;
    counters.Start();
    Stopwatch watch;
    for (const QueryPair& p : pairs) sink += query_fn(p.s, p.t);
    const double seconds = watch.Seconds();
    const bench::PerfCounters::Reading hw = counters.Stop();
    const double per = static_cast<double>(pairs.size());
    result.ns_per_query = seconds * 1e9 / per;
    result.checksum = sink;
    if (counters.available()) {
      result.cache_misses_per_query =
          static_cast<double>(hw.cache_misses) / per;
      result.branch_misses_per_query =
          static_cast<double>(hw.branch_misses) / per;
    }
    std::cout << "  " << name
              << std::string(18 - std::min<size_t>(17, name.size()), ' ')
              << FormatDouble(result.ns_per_query, 1) << " ns/query";
    if (counters.available()) {
      std::cout << "  cm/q " << FormatDouble(result.cache_misses_per_query, 2)
                << "  bm/q "
                << FormatDouble(result.branch_misses_per_query, 2);
    }
    std::cout << "\n";
    return result;
  };

  std::vector<VariantResult> results;
  const std::string default_kernel = ActiveQueryKernel().name;
  {
    // The pre-flat-store hot path: per-vertex heap vectors, AoS merge,
    // over this bench's own AoS copy of the frozen labels.
    std::vector<LabelVector> aos_out(n), aos_in(index.directed() ? n : 0);
    for (VertexId v = 0; v < n; ++v) {
      aos_out[v].assign(index.OutLabel(v).begin(), index.OutLabel(v).end());
      if (index.directed()) {
        aos_in[v].assign(index.InLabel(v).begin(), index.InLabel(v).end());
      }
    }
    const std::vector<LabelVector>& aos_in_side =
        index.directed() ? aos_in : aos_out;
    results.push_back(run_variant("aos/scalar", [&](VertexId s, VertexId t) {
      return QueryLabelHalves(aos_out[s], aos_in_side[t], s, t);
    }));
  }
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    results.push_back(run_variant(
        std::string("blocked/") + kernel->name, [&](VertexId s, VertexId t) {
          return QueryFlatHalves(blocked_view.Out(s), blocked_view.In(t), s,
                                 t, *kernel);
        }));
  }
  for (const QueryKernel* kernel : SupportedQueryKernels()) {
    results.push_back(run_variant(
        std::string("hothub/") + kernel->name, [&](VertexId s, VertexId t) {
          return hub.Query(blocked_view, s, t, *kernel);
        }));
  }
  results.push_back(run_variant("index/default", [&](VertexId s, VertexId t) {
    return index.Query(s, t);
  }));

  bool checksums_agree = true;
  for (const VariantResult& r : results) {
    if (r.checksum != results[0].checksum) checksums_agree = false;
  }
  if (!checksums_agree) {
    std::cerr << "FATAL: variants disagree on the distance checksum\n";
  }

  // One-to-many row over the flat bucket arena (kernel-independent).
  double one_to_many_us = 0;
  {
    Rng rng(seed + 2);
    std::vector<VertexId> targets;
    for (int i = 0; i < 256; ++i) {
      targets.push_back(static_cast<VertexId>(rng.Below(n)));
    }
    OneToManyEngine engine(blocked_view, std::move(targets));
    const size_t rows = std::min<size_t>(pairs.size(), 2000);
    uint64_t sink = 0;
    Stopwatch watch;
    for (size_t i = 0; i < rows; ++i) {
      for (Distance d : engine.Query(pairs[i].s)) sink += d;
    }
    one_to_many_us = watch.Seconds() * 1e6 / static_cast<double>(rows);
    std::cout << "  one-to-many row (256 targets): "
              << FormatDouble(one_to_many_us, 1) << " us  [sink "
              << (sink & 0xff) << "]\n";
  }

  const double base = results.empty() ? 0 : results[0].ns_per_query;
  const std::string out_path = flags.GetString("out");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"query_kernel\",\n"
      << "  \"ci_mode\": " << (ci ? "true" : "false") << ",\n"
      << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
      << "  \"graph\": {\"type\": \"glp\", \"n\": " << n
      << ", \"avg_degree\": " << FormatDouble(glp.target_avg_degree, 2)
      << ", \"seed\": " << seed << "},\n"
      << "  \"avg_label\": " << FormatDouble(index.AvgLabelSize(), 2) << ",\n"
      << "  \"build_seconds\": " << FormatDouble(build_seconds, 2) << ",\n"
      << "  \"queries\": " << pairs.size() << ",\n"
      << "  \"default_kernel\": \"" << default_kernel << "\",\n"
      << "  \"hot_hub_k\": " << hub.k() << ",\n"
      << "  \"hot_hub_bytes\": " << hub.SizeBytes() << ",\n"
      << "  \"perf_counters_available\": "
      << (counters.available() ? "true" : "false") << ",\n"
      << "  \"checksums_agree\": " << (checksums_agree ? "true" : "false")
      << ",\n"
      << "  \"one_to_many_row_us\": " << FormatDouble(one_to_many_us, 2)
      << ",\n"
      << "  \"variants\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const VariantResult& r = results[i];
    out << "    {\"name\": \"" << r.name << "\", \"ns_per_query\": "
        << FormatDouble(r.ns_per_query, 1) << ", \"speedup_vs_aos_scalar\": "
        << FormatDouble(base > 0 ? base / r.ns_per_query : 0, 3)
        << ", \"cache_misses_per_query\": "
        << FormatDouble(r.cache_misses_per_query, 2)
        << ", \"branch_misses_per_query\": "
        << FormatDouble(r.branch_misses_per_query, 2) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return checksums_agree ? 0 : 1;
}

}  // namespace
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::Run(argc, argv); }
