// Build-pipeline scaling bench: wall clock and per-phase breakdown of
// BuildHopLabeling vs. thread count on the 60k-vertex GLP configuration
// of bench_parallel_scaling, doubling as an end-to-end determinism
// check — the serialized index of every thread count must be
// byte-identical (FNV-1a checksum asserted; non-zero exit on mismatch).
//
// Emits machine-readable results to --out (default BENCH_build.json):
// per thread count the build seconds, speedup vs. one thread, the
// generate/dedup/prune/apply phase seconds (dedup reads 0: generation
// dedups as it gathers), that build's own peak RSS (the high-water mark
// is reset before each run; null where the kernel does not support the
// reset) and its largest per-iteration raw candidate count, plus the
// whole process's peak RSS.
//
//   bench_build            # 60k-vertex GLP (the acceptance setting)
//   bench_build --ci       # seconds-long CI mode, same JSON shape

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
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

struct RunResult {
  uint32_t threads = 0;
  double seconds = 0;
  uint64_t checksum = 0;
  uint64_t total_entries = 0;
  std::vector<bench::PhaseTiming> phases;
  /// VmHWM of this build alone; unset when the peak could not be reset.
  std::optional<uint64_t> peak_rss_bytes;
  uint64_t peak_candidates = 0;
};

Result<uint64_t> SerializedChecksum(const TwoHopIndex& index,
                                    const TempDir& dir, uint32_t threads) {
  const std::string path =
      dir.File("index_t" + std::to_string(threads) + ".hli");
  HOPDB_RETURN_NOT_OK(index.Save(path));
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot reopen " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return Fnv1a64(bytes.data(), bytes.size());
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
  auto ranked = RelabelByRank(*graph,
                              ComputeRanking(*graph, RankingPolicy::kDegree));
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
  for (const uint32_t threads : thread_counts) {
    BuildOptions opts;
    opts.num_threads = threads;
    const bool peak_reset = bench::ResetPeakRss();
    Stopwatch watch;
    auto built = BuildHopLabeling(*ranked, opts);
    const double seconds = watch.Seconds();
    if (!built.ok()) {
      std::cerr << "build failed at threads=" << threads << ": "
                << built.status() << "\n";
      return 1;
    }
    RunResult r;
    r.threads = threads;
    r.seconds = seconds;
    if (peak_reset) r.peak_rss_bytes = bench::PeakRssSinceResetBytes();
    r.total_entries = built->index.TotalEntries();
    const BuildStats& stats = built->stats;
    r.peak_candidates = stats.peak_candidates;
    r.phases = {
        {"generate", stats.PhaseSeconds(&IterationStats::generate_seconds)},
        {"dedup", stats.PhaseSeconds(&IterationStats::dedup_seconds)},
        {"prune", stats.PhaseSeconds(&IterationStats::prune_seconds)},
        {"apply", stats.PhaseSeconds(&IterationStats::apply_seconds)},
        {"init", stats.init_seconds},
    };
    auto checksum = SerializedChecksum(built->index, *tmp, threads);
    if (!checksum.ok()) {
      std::cerr << "serialize failed: " << checksum.status() << "\n";
      return 1;
    }
    r.checksum = *checksum;
    std::cout << "  threads=" << threads << "  "
              << FormatDouble(seconds, 2) << " s  (gen "
              << FormatDouble(r.phases[0].seconds, 2) << ", dedup "
              << FormatDouble(r.phases[1].seconds, 2) << ", prune "
              << FormatDouble(r.phases[2].seconds, 2) << ", apply "
              << FormatDouble(r.phases[3].seconds, 2) << ")  peak "
              << (r.peak_rss_bytes ? std::to_string(*r.peak_rss_bytes >> 20) +
                                         " MB"
                                   : std::string("n/a"))
              << "  checksum " << r.checksum << "\n";
    results.push_back(std::move(r));
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
      << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
      << "  \"graph\": {\"type\": \"glp\", \"n\": " << n
      << ", \"avg_degree\": " << FormatDouble(glp.target_avg_degree, 2)
      << ", \"seed\": " << seed << "},\n"
      << "  \"hardware_threads\": " << HardwareThreads() << ",\n"
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
        << ", \"peak_rss_bytes\": "
        << (r.peak_rss_bytes ? std::to_string(*r.peak_rss_bytes) : "null")
        << ", \"peak_candidates\": " << r.peak_candidates << ", "
        << bench::PhasesJson(r.phases) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return checksums_agree ? 0 : 1;
}

}  // namespace
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::Run(argc, argv); }
