// Thread-scaling study of the label construction (BuildOptions::
// num_threads).
//
// The paper's builders are sequential; its scalability story is I/O
// shaped. This ablation measures the natural shared-memory extension:
// owner-major candidate generation and owner-by-owner pruning against a
// per-worker distance table are data-parallel (the test suite proves
// bit-identical output for every thread count), so scaling is bounded
// by owner-range skew, the O(n) prefix sums and the sequential label
// merge, about 2% of a build.
// bench_build records the per-phase breakdown.

#include <cstdio>

#include "bench_common.h"
#include "eval/table.h"
#include "gen/glp.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchEnv env;
  if (!InitBenchEnv(argc, argv,
                    "Build-time thread scaling on GLP graphs "
                    "(candidate generation + pruning parallelized).",
                    &env)) {
    return 0;
  }

  struct Family {
    const char* label;
    bool directed;
  };
  for (const Family family : {Family{"undirected", false},
                              Family{"directed", true}}) {
    GlpOptions glp;
    glp.num_vertices = static_cast<VertexId>(60000 * env.scale);
    glp.target_avg_degree = 10;
    glp.seed = 2024;
    EdgeList edges = family.directed
                         ? GenerateDirectedGlp(glp).ValueOrDie()
                         : GenerateGlp(glp).ValueOrDie();
    auto base = CsrGraph::FromEdgeList(edges);
    base.status().CheckOK();
    auto ranked = RelabelByRank(
        *base, ComputeRanking(*base, family.directed
                                         ? RankingPolicy::kInOutProduct
                                         : RankingPolicy::kDegree));
    ranked.status().CheckOK();

    std::printf("%s GLP: |V|=%u |E|=%llu (%u hardware threads)\n",
                family.label, ranked->num_vertices(),
                static_cast<unsigned long long>(ranked->num_edges()),
                HardwareThreads());
    AsciiTable table({"threads", "build s", "speedup", "entries"});
    double baseline = 0;
    for (const uint32_t threads : {1u, 2u, 4u, 8u, 16u}) {
      if (threads > 2 * HardwareThreads()) break;
      BuildOptions opts;
      opts.num_threads = threads;
      opts.time_budget_seconds = env.budget_seconds;
      Stopwatch watch;
      auto built = BuildHopLabeling(*ranked, opts);
      const double seconds = watch.Seconds();
      if (!built.ok()) {
        table.AddRow({std::to_string(threads),
                      SecondsOrDash(built.status(), seconds), "—", "—"});
        continue;
      }
      if (threads == 1) baseline = seconds;
      table.AddRow({std::to_string(threads), FormatDouble(seconds, 2),
                    baseline > 0 ? FormatDouble(baseline / seconds, 2) + "x"
                                 : "—",
                    std::to_string(built->index.TotalEntries())});
    }
    table.Print();
    std::printf("\n");
  }
  std::printf(
      "Reading: identical entry counts for every thread count "
      "(determinism). All four\nphases are parallel; residual "
      "saturation comes from partition skew and memory\nbandwidth, not "
      "a sequential phase (see BENCH_build.json for the breakdown).\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::bench::Main(argc, argv); }
