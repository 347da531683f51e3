// Incremental-update benchmark: the cost of repairing a hop-doubling
// label index in place versus rebuilding it from scratch, on a GLP
// scale-free graph (the paper's synthetic family).
//
// The pipeline: generate a GLP graph, build the initial index, then
// apply a randomized insert/delete stream one op at a time through
// IncrementalUpdater, timing every repair. Afterwards the mutated graph
// is rebuilt from scratch with the same builder and the two indexes are
// compared: sampled pairs must agree bit-for-bit, and a handful of full
// Dijkstra rows anchor both against ground truth. The JSON records
// per-update latency percentiles, the full-rebuild time, and their
// ratio — the "is online repair worth it" number:
//
//   {"repair": {"mean_us": ..., "p50_us": ..., "p99_us": ...},
//    "rebuild_seconds": ..., "speedup_mean": ..., "answers_equal": true}
//
// Exit is nonzero when any sampled answer disagrees (the correctness
// gate CI runs with) or when --min-speedup is set and not met.
//
//   bench_update            # 60k vertices, avg degree 8, 1000 ops
//   bench_update --ci       # small/short CI variant

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "hopdb.h"
#include "labeling/builder.h"
#include "labeling/incremental.h"
#include "search/dijkstra.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace {

double Percentile(std::vector<double>* sorted_in_place, double p) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(p * (v.size() - 1));
  return v[idx];
}

int Run(int argc, char** argv) {
  CliFlags flags;
  flags.Define("n", "60000", "graph vertices (GLP)");
  flags.Define("avg-degree", "8", "graph average degree");
  flags.Define("seed", "1", "graph + op-stream seed");
  flags.Define("ops", "1000", "applied update operations");
  flags.Define("weighted", "false", "use uniform random weights in [1,9]");
  flags.Define("check-pairs", "50000",
               "random pairs compared between repaired and rebuilt index");
  flags.Define("oracle-rows", "8",
               "full Dijkstra rows anchoring both indexes to ground truth");
  flags.Define("min-speedup", "0",
               "fail unless rebuild/mean-repair exceeds this (0 = report "
               "only)");
  flags.Define("out", "BENCH_update.json", "machine-readable output path");
  flags.Define("ci", "false", "CI mode: 6000 vertices, 200 ops");
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    std::cout << flags.Usage(
        "bench_update — incremental label repair vs full rebuild");
    return flags.help_requested() ? 0 : 1;
  }

  const bool ci = flags.GetBool("ci").ValueOrDie();
  const VertexId n =
      ci ? 6000 : static_cast<VertexId>(flags.GetUint("n").ValueOrDie());
  const int target_ops =
      ci ? 200 : static_cast<int>(flags.GetUint("ops").ValueOrDie());
  const uint64_t seed = flags.GetUint("seed").ValueOrDie();
  const bool weighted = flags.GetBool("weighted").ValueOrDie();

  GlpOptions glp;
  glp.num_vertices = n;
  glp.target_avg_degree = flags.GetDouble("avg-degree").ValueOrDie();
  glp.seed = seed;
  auto edges = GenerateGlp(glp);
  if (!edges.ok()) {
    std::cerr << "graph generation failed: " << edges.status() << "\n";
    return 1;
  }
  if (weighted) AssignUniformWeights(&*edges, 1, 9, DeriveSeed(seed, 1));

  auto graph = CsrGraph::FromEdgeList(*edges);
  if (!graph.ok()) {
    std::cerr << "graph load failed: " << graph.status() << "\n";
    return 1;
  }
  const RankMapping mapping =
      ComputeRanking(*graph, RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*graph, mapping);
  if (!ranked.ok()) {
    std::cerr << "relabel failed: " << ranked.status() << "\n";
    return 1;
  }

  const BuildOptions build;
  Stopwatch build_watch;
  auto built = BuildHopLabeling(*ranked, build);
  if (!built.ok()) {
    std::cerr << "index build failed: " << built.status() << "\n";
    return 1;
  }
  const double build_seconds = build_watch.Seconds();
  std::cout << "built |V|=" << n << " |E|=" << edges->num_edges()
            << " in " << FormatDouble(build_seconds, 2) << "s, "
            << built->index.TotalEntries() << " label entries\n";

  // --- Update stream, one timed repair per applied op.
  TwoHopIndex index = std::move(built->index);
  DynamicGraph dynamic = DynamicGraph::FromGraph(*ranked);
  IncrementalUpdater updater(&dynamic, &index);

  // Live edge set (internal ids) so deletes hit existing edges — a
  // random vertex pair is almost never an edge in a sparse graph.
  std::vector<std::pair<VertexId, VertexId>> live;
  const EdgeList initial_edges = dynamic.ToEdgeList();
  for (const Edge& e : initial_edges.edges()) {
    live.push_back({e.src, e.dst});
  }

  Rng rng(DeriveSeed(seed, 2));
  std::vector<double> latencies_us, insert_us, delete_us;
  latencies_us.reserve(target_ops);
  Stopwatch stream_watch;
  while (static_cast<int>(latencies_us.size()) < target_ops) {
    UpdateOp op;
    if (!live.empty() && rng.Chance(0.5)) {
      const size_t pick = rng.Below(live.size());
      op.kind = UpdateOp::Kind::kDelEdge;
      op.u = live[pick].first;
      op.v = live[pick].second;
      live[pick] = live.back();
      live.pop_back();
    } else {
      const VertexId u = static_cast<VertexId>(rng.Below(n));
      const VertexId v = static_cast<VertexId>(rng.Below(n));
      if (u == v || dynamic.ArcWeight(u, v) != kInfDistance) continue;
      op.kind = UpdateOp::Kind::kAddEdge;
      op.u = u;
      op.v = v;
      op.weight =
          weighted ? static_cast<Distance>(rng.Uniform(1, 9)) : 1;
      live.push_back({u, v});
    }
    Stopwatch op_watch;
    auto changed = updater.Apply(op);
    if (!changed.ok()) {
      std::cerr << "update failed: " << changed.status() << "\n";
      return 1;
    }
    if (!*changed) continue;
    const double us = op_watch.Seconds() * 1e6;
    latencies_us.push_back(us);
    (op.kind == UpdateOp::Kind::kAddEdge ? insert_us : delete_us)
        .push_back(us);
  }
  Stopwatch finalize_watch;
  updater.Finalize();
  const double finalize_seconds = finalize_watch.Seconds();
  const double stream_seconds = stream_watch.Seconds();
  const UpdateStats& stats = updater.stats();

  const auto mean_of = [](const std::vector<double>& v) {
    double sum = 0;
    for (const double us : v) sum += us;
    return v.empty() ? 0.0 : sum / v.size();
  };
  const double mean_us = mean_of(latencies_us);
  const double insert_mean_us = mean_of(insert_us);
  const double delete_mean_us = mean_of(delete_us);
  const size_t inserts = insert_us.size(), deletes = delete_us.size();
  const double p50_us = Percentile(&latencies_us, 0.50);
  const double p99_us = Percentile(&latencies_us, 0.99);
  const double max_us = latencies_us.empty() ? 0 : latencies_us.back();
  std::cout << target_ops << " ops (" << inserts << " insert, " << deletes
            << " delete) in " << FormatDouble(stream_seconds, 2)
            << "s: mean " << FormatDouble(mean_us, 1) << " us (insert "
            << FormatDouble(insert_mean_us, 1) << ", delete "
            << FormatDouble(delete_mean_us, 1) << "), p50 "
            << FormatDouble(p50_us, 1) << " us, p99 "
            << FormatDouble(p99_us, 1) << " us\n";

  // --- The alternative: rebuild from scratch on the mutated graph.
  auto mutated = CsrGraph::FromEdgeList(dynamic.ToEdgeList());
  if (!mutated.ok()) {
    std::cerr << "mutated graph load failed: " << mutated.status() << "\n";
    return 1;
  }
  Stopwatch rebuild_watch;
  auto rebuilt = BuildHopLabeling(*mutated, build);
  if (!rebuilt.ok()) {
    std::cerr << "rebuild failed: " << rebuilt.status() << "\n";
    return 1;
  }
  const double rebuild_seconds = rebuild_watch.Seconds();
  const double speedup =
      mean_us > 0 ? rebuild_seconds / (mean_us / 1e6) : 0;
  std::cout << "full rebuild: " << FormatDouble(rebuild_seconds, 2)
            << "s — mean repair is " << FormatDouble(speedup, 0)
            << "x faster\n";

  // --- Correctness gate: repaired vs rebuilt on sampled pairs, both
  // vs the Dijkstra oracle on a few full rows.
  uint64_t checked = 0, mismatches = 0;
  Rng check_rng(DeriveSeed(seed, 3));
  const uint64_t check_pairs = flags.GetUint("check-pairs").ValueOrDie();
  for (uint64_t i = 0; i < check_pairs; ++i) {
    const VertexId s = static_cast<VertexId>(check_rng.Below(n));
    const VertexId t = static_cast<VertexId>(check_rng.Below(n));
    ++checked;
    if (index.Query(s, t) != rebuilt->index.Query(s, t)) ++mismatches;
  }
  const uint64_t oracle_rows = flags.GetUint("oracle-rows").ValueOrDie();
  for (uint64_t row = 0; row < oracle_rows; ++row) {
    const VertexId s = static_cast<VertexId>(check_rng.Below(n));
    const std::vector<Distance> truth = ExactDistances(*mutated, s);
    for (VertexId t = 0; t < n; ++t) {
      ++checked;
      if (index.Query(s, t) != truth[t]) ++mismatches;
      if (rebuilt->index.Query(s, t) != truth[t]) ++mismatches;
    }
  }
  const bool answers_equal = mismatches == 0;
  std::cout << (answers_equal ? "answers agree on " : "MISMATCHES on ")
            << checked << " checked pairs"
            << (answers_equal ? "" : " (" + std::to_string(mismatches) +
                                         " wrong)")
            << "\n";

  const std::string out_path = flags.GetString("out");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"update\",\n"
      << "  \"ci_mode\": " << (ci ? "true" : "false") << ",\n"
      << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
      << "  \"graph\": {\"type\": \"glp\", \"n\": " << n
      << ", \"avg_degree\": " << FormatDouble(glp.target_avg_degree, 2)
      << ", \"edges\": " << edges->num_edges() << ", \"weighted\": "
      << (weighted ? "true" : "false") << ", \"seed\": " << seed << "},\n"
      << "  \"build_seconds\": " << FormatDouble(build_seconds, 3) << ",\n"
      << "  \"ops\": {\"applied\": " << target_ops << ", \"inserts\": "
      << inserts << ", \"deletes\": " << deletes << ", \"repairs\": "
      << stats.repairs << ", \"full_rebuilds\": " << stats.full_rebuilds
      << "},\n"
      << "  \"entries\": {\"added\": " << stats.entries_added
      << ", \"updated\": " << stats.entries_updated << ", \"removed\": "
      << stats.entries_removed << ", \"total\": " << index.TotalEntries()
      << "},\n"
      << "  \"repair\": {\"mean_us\": " << FormatDouble(mean_us, 1)
      << ", \"insert_mean_us\": " << FormatDouble(insert_mean_us, 1)
      << ", \"delete_mean_us\": " << FormatDouble(delete_mean_us, 1)
      << ", \"p50_us\": " << FormatDouble(p50_us, 1) << ", \"p99_us\": "
      << FormatDouble(p99_us, 1) << ", \"max_us\": "
      << FormatDouble(max_us, 1) << ", \"stream_seconds\": "
      << FormatDouble(stream_seconds, 3) << ", \"finalize_seconds\": "
      << FormatDouble(finalize_seconds, 3) << "},\n"
      << "  \"rebuild_seconds\": " << FormatDouble(rebuild_seconds, 3)
      << ",\n"
      << "  \"speedup_mean\": " << FormatDouble(speedup, 1) << ",\n"
      << "  \"checked_pairs\": " << checked << ",\n"
      << "  \"answers_equal\": " << (answers_equal ? "true" : "false")
      << "\n}\n";
  std::cout << "wrote " << out_path << "\n";

  const double min_speedup = flags.GetDouble("min-speedup").ValueOrDie();
  if (!answers_equal) return 1;
  if (min_speedup > 0 && speedup < min_speedup) {
    std::cerr << "speedup " << FormatDouble(speedup, 1) << " below gate "
              << FormatDouble(min_speedup, 1) << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::Run(argc, argv); }
