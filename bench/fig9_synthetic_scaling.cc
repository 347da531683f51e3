// Figure 9 reproduction: GLP synthetic scalability.
//   (a) |V| fixed, density |E|/|V| swept 2..70 — graph size grows
//       linearly while avg |label| stays small and flattens;
//   (b) |E|/|V| = 20 fixed, |V| swept — avg |label| stays below ~200.
// The paper runs (a) at |V|=10M and (b) up to 30M; the default here is
// laptop-scale (flags --base_vertices/--scale raise it).

#include <cstdio>

#include "bench_common.h"
#include "gen/glp.h"
#include "graph/ranking.h"
#include "util/string_util.h"

namespace hopdb {
namespace bench {
namespace {

struct SweepPoint {
  VertexId vertices;
  double density;
};

void RunSweep(const char* title, const std::vector<SweepPoint>& points,
              double budget) {
  std::printf("%s\n", title);
  AsciiTable table({"|V|", "|E|/|V|", "|G| MB", "avg |label|", "iters",
                    "build s"});
  for (const SweepPoint& p : points) {
    GlpOptions glp;
    glp.num_vertices = p.vertices;
    glp.target_avg_degree = p.density;
    glp.seed = 1000 + p.vertices + static_cast<uint64_t>(p.density);
    auto edges = GenerateGlp(glp);
    edges.status().CheckOK();
    auto graph = CsrGraph::FromEdgeList(*edges);
    graph.status().CheckOK();
    RankMapping mapping = ComputeRanking(*graph, RankingPolicy::kDegree);
    auto ranked = RelabelByRank(*graph, mapping);
    ranked.status().CheckOK();

    BuildOptions opts;
    opts.time_budget_seconds = budget;
    auto out = BuildHopLabeling(*ranked, opts);
    if (!out.ok()) {
      table.AddRow({HumanCount(p.vertices), FormatDouble(p.density, 0),
                    Mb(graph->PaperSizeBytes()), AsciiTable::Dash(),
                    AsciiTable::Dash(), AsciiTable::Dash()});
      continue;
    }
    table.AddRow({HumanCount(p.vertices), FormatDouble(p.density, 0),
                  Mb(graph->PaperSizeBytes()),
                  FormatDouble(out->index.AvgLabelSize(), 1),
                  std::to_string(out->stats.num_rule_iterations),
                  FormatDouble(out->stats.total_seconds, 2)});
  }
  table.Print();
  std::printf("\n");
}

int Run(int argc, char** argv) {
  BenchEnv env;
  env.flags.Define("base_vertices", "20000",
                   "|V| for the density sweep (paper: 10M)");
  if (!InitBenchEnv(argc, argv,
                    "fig9_synthetic_scaling: Figure 9 — GLP density and "
                    "size sweeps",
                    &env)) {
    return 0;
  }
  VertexId base = static_cast<VertexId>(
      env.flags.GetUint("base_vertices").ValueOrDie() * env.scale);

  std::printf("Figure 9: synthetic scale-free scalability (GLP)\n\n");
  std::vector<SweepPoint> density_sweep;
  for (double d : {2.0, 5.0, 10.0, 20.0, 40.0, 70.0}) {
    density_sweep.push_back({base, d});
  }
  RunSweep("(a) |V| fixed, density swept:", density_sweep,
           env.budget_seconds);

  std::vector<SweepPoint> size_sweep;
  for (double f : {0.1, 0.25, 0.5, 1.0, 1.5, 3.0}) {
    size_sweep.push_back(
        {static_cast<VertexId>(static_cast<double>(base) * f), 20.0});
  }
  RunSweep("(b) |E|/|V| = 20, |V| swept:", size_sweep, env.budget_seconds);

  std::printf(
      "Shape check vs paper: graph size grows ~linearly along each sweep\n"
      "while avg |label| stays small and roughly flat (paper: < 200 for\n"
      "all settings), supporting the O(h|V|) index-size bound.\n");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::bench::Run(argc, argv); }
