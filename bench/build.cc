// Build-pipeline scaling bench: wall clock and per-phase breakdown of
// BuildHopLabeling vs. thread count on the 60k-vertex GLP configuration
// of bench_parallel_scaling, doubling as an end-to-end determinism
// check — the serialized index of every thread count must be
// byte-identical (FNV-1a checksum asserted; non-zero exit on mismatch).
//
// Each thread count builds in its own child process, forked after the
// graph set-up, so a run's peak RSS is that build's own: it starts from
// the set-up the child inherits, never from heap an earlier run left.
//
// Emits machine-readable results to --out (default BENCH_build.json):
// per thread count the build seconds, speedup vs. one thread, the
// generate/dedup/prune/apply phase seconds (dedup reads 0: generation
// dedups as it gathers), that build's peak RSS, its growth over the RSS
// the build started from (build_growth_bytes: the build's own memory,
// without the graph set-up the child inherits) and its largest
// per-iteration raw candidate count, plus the largest peak of the
// parent and every run, and the ranked CSR the builds read: its bytes
// (graph_bytes, CsrGraph::SizeBytes) and the arcs its out adjacency
// holds (graph_arcs: 2|E| on this undirected graph).
//
//   bench_build            # 60k-vertex GLP (the acceptance setting)
//   bench_build --ci       # seconds-long CI mode, same JSON shape

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "labeling/builder.h"
#include "labeling/two_hop_index.h"
#include "util/cli.h"
#include "util/parallel.h"
#include "util/serde.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace {

/// One thread count's build. Trivially copyable: the child that ran the
/// build sends it to the parent as raw bytes (bench::RunInChild).
struct RunResult {
  uint32_t threads = 0;
  double seconds = 0;
  uint64_t checksum = 0;
  uint64_t total_entries = 0;
  /// The child's ru_maxrss when the build returns.
  uint64_t peak_rss_bytes = 0;
  /// peak_rss_bytes minus the child's RSS when the build started: the
  /// build's own memory.
  uint64_t build_growth_bytes = 0;
  uint64_t peak_candidates = 0;
  double generate_seconds = 0;
  double dedup_seconds = 0;
  double prune_seconds = 0;
  double apply_seconds = 0;
  double init_seconds = 0;
};

/// The FNV-1a-64 of the HLI1 file `index` saves with `ranking`'s ranks,
/// the file HopDbIndex::Save writes for the same build.
Result<uint64_t> SerializedChecksum(const TwoHopIndex& index,
                                    const RankMapping& ranking,
                                    const TempDir& dir, uint32_t threads) {
  const std::string path =
      dir.File("index_t" + std::to_string(threads) + ".hli");
  HOPDB_RETURN_NOT_OK(index.Save(path, ranking));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot reopen " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Fnv1a64(bytes.data(), bytes.size());
}

/// Builds with `threads` workers, then serializes and checksums the
/// index. The peak is read before serializing, so it is the build's.
Result<RunResult> BuildOnce(const CsrGraph& ranked, const RankMapping& ranking,
                            const TempDir& dir, uint32_t threads) {
  BuildOptions opts;
  opts.num_threads = threads;
  const uint64_t start_rss_bytes = bench::CurrentRssBytes();
  Stopwatch watch;
  HOPDB_ASSIGN_OR_RETURN(BuildOutput built, BuildHopLabeling(ranked, opts));
  RunResult r;
  r.threads = threads;
  r.seconds = watch.Seconds();
  r.peak_rss_bytes = bench::PeakRssBytes();
  r.build_growth_bytes = r.peak_rss_bytes - std::min(start_rss_bytes,
                                                     r.peak_rss_bytes);
  r.total_entries = built.index.TotalEntries();
  const BuildStats& stats = built.stats;
  r.peak_candidates = stats.peak_candidates;
  r.generate_seconds = stats.PhaseSeconds(&IterationStats::generate_seconds);
  r.dedup_seconds = stats.PhaseSeconds(&IterationStats::dedup_seconds);
  r.prune_seconds = stats.PhaseSeconds(&IterationStats::prune_seconds);
  r.apply_seconds = stats.PhaseSeconds(&IterationStats::apply_seconds);
  r.init_seconds = stats.init_seconds;
  HOPDB_ASSIGN_OR_RETURN(
      r.checksum, SerializedChecksum(built.index, ranking, dir, threads));
  return r;
}

int Run(int argc, char** argv) {
  CliFlags flags;
  flags.Define("n", "60000", "graph vertices (GLP)");
  flags.Define("avg-degree", "10", "graph average degree");
  flags.Define("seed", "2024", "graph seed");
  flags.Define("threads", "1,2,4,8", "comma-separated thread counts");
  flags.Define("out", "BENCH_build.json", "machine-readable output path");
  flags.Define("ci", "false", "CI mode: small graph, short run");
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    std::cout << flags.Usage(
        "bench_build — parallel build-pipeline scaling with per-phase "
        "breakdown and serialized-index determinism check");
    return flags.help_requested() ? 0 : 1;
  }

  const bool ci = flags.GetBool("ci").ValueOrDie();
  const VertexId n =
      ci ? 8000 : static_cast<VertexId>(flags.GetUint("n").ValueOrDie());
  const uint64_t seed = flags.GetUint("seed").ValueOrDie();
  std::vector<uint32_t> thread_counts;
  for (const std::string& tok : SplitString(flags.GetString("threads"), ',')) {
    thread_counts.push_back(
        static_cast<uint32_t>(std::strtoul(tok.c_str(), nullptr, 10)));
  }
  if (thread_counts.empty()) thread_counts = {1, 2, 4, 8};

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
  const RankMapping ranking = ComputeRanking(*graph, RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*graph, ranking);
  if (!ranked.ok()) {
    std::cerr << "relabel failed: " << ranked.status() << "\n";
    return 1;
  }
  auto tmp = TempDir::Create("bench_build");
  if (!tmp.ok()) {
    std::cerr << "temp dir failed: " << tmp.status() << "\n";
    return 1;
  }

  std::cout << "build scaling over |V|=" << n << " |E|=" << graph->num_edges()
            << " (" << HardwareThreads() << " hardware threads)\n";

  std::vector<RunResult> results;
  uint64_t peak_rss_bytes = bench::PeakRssBytes();
  for (const uint32_t threads : thread_counts) {
    // In a child of its own, so that its peak RSS is this build's.
    auto r = bench::RunInChild<RunResult>(
        "the build at threads=" + std::to_string(threads),
        [&] { return BuildOnce(*ranked, ranking, *tmp, threads); });
    if (!r.ok()) {
      std::cerr << "build failed: " << r.status() << "\n";
      return 1;
    }
    std::cout << "  threads=" << threads << "  "
              << FormatDouble(r->seconds, 2) << " s  (gen "
              << FormatDouble(r->generate_seconds, 2) << ", dedup "
              << FormatDouble(r->dedup_seconds, 2) << ", prune "
              << FormatDouble(r->prune_seconds, 2) << ", apply "
              << FormatDouble(r->apply_seconds, 2) << ")  peak "
              << (r->peak_rss_bytes >> 20) << " MB (build "
              << (r->build_growth_bytes >> 20) << " MB)  checksum "
              << r->checksum
              << "\n";
    peak_rss_bytes = std::max(peak_rss_bytes, r->peak_rss_bytes);
    results.push_back(*r);
  }

  bool checksums_agree = true;
  for (const RunResult& r : results) {
    if (r.checksum != results[0].checksum ||
        r.total_entries != results[0].total_entries) {
      checksums_agree = false;
    }
  }
  if (!checksums_agree) {
    std::cerr << "FATAL: serialized indexes differ across thread counts "
                 "(determinism violation)\n";
  }

  double base = 0;
  for (const RunResult& r : results) {
    if (r.threads == 1) base = r.seconds;
  }

  const std::string out_path = flags.GetString("out");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"build\",\n"
      << "  \"ci_mode\": " << (ci ? "true" : "false") << ",\n"
      << "  \"peak_rss_bytes\": " << peak_rss_bytes << ",\n"
      << "  \"graph\": {\"type\": \"glp\", \"n\": " << n
      << ", \"avg_degree\": " << FormatDouble(glp.target_avg_degree, 2)
      << ", \"seed\": " << seed << "},\n"
      << "  \"hardware_threads\": " << HardwareThreads() << ",\n"
      << "  \"graph_bytes\": " << ranked->SizeBytes() << ",\n"
      << "  \"graph_arcs\": " << 2 * ranked->num_edges() << ",\n"
      << "  \"total_entries\": " << results[0].total_entries << ",\n"
      << "  \"index_checksum\": " << results[0].checksum << ",\n"
      << "  \"checksums_agree\": " << (checksums_agree ? "true" : "false")
      << ",\n"
      << "  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"threads\": " << r.threads << ", \"build_seconds\": "
        << FormatDouble(r.seconds, 3) << ", \"speedup_vs_1\": "
        << FormatDouble(base > 0 ? base / r.seconds : 0, 3)
        << ", \"peak_rss_bytes\": " << r.peak_rss_bytes
        << ", \"build_growth_bytes\": " << r.build_growth_bytes
        << ", \"peak_candidates\": " << r.peak_candidates << ", "
        << bench::PhasesJson({{"generate", r.generate_seconds},
                              {"dedup", r.dedup_seconds},
                              {"prune", r.prune_seconds},
                              {"apply", r.apply_seconds},
                              {"init", r.init_seconds}})
        << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return checksums_agree ? 0 : 1;
}

}  // namespace
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::Run(argc, argv); }
