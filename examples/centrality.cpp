// Centrality analysis on a social network via batch index queries.
//
// The paper's introduction motivates distance querying as a building block
// for "network analysis such as betweenness centrality computation" and
// "locating influential users in the network". This example does exactly
// that: harmonic centrality — sum over reachable targets of 1/dist —
// estimated from a sampled target set, evaluated for every vertex with the
// one-to-many bucket engine (query/batch.h). The bucket engine turns each
// per-vertex evaluation into a scan of the source label against the
// pre-bucketed target labels, orders of magnitude cheaper than one BFS per
// vertex.
//
//   $ ./centrality [--n 20000] [--targets 256] [--top 10]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "gen/glp.h"
#include "hopdb.h"
#include "query/batch.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hopdb;

  CliFlags flags;
  flags.Define("n", "20000", "social network size (vertices)");
  flags.Define("targets", "256", "sampled targets per centrality estimate");
  flags.Define("top", "10", "how many influencers to report");
  flags.Define("seed", "42", "graph + sampling seed");
  flags.Parse(argc, argv).CheckOK();

  // 1. A scale-free "social network" (GLP: the generator the paper's
  //    synthetic evaluation uses).
  GlpOptions glp;
  glp.num_vertices = static_cast<VertexId>(flags.GetUint("n").ValueOrDie());
  glp.target_avg_degree = 8;
  glp.seed = flags.GetUint("seed").ValueOrDie();
  EdgeList edges = GenerateGlp(glp).ValueOrDie();
  std::printf("social graph: %u members, %zu friendships\n",
              edges.num_vertices(), edges.edges().size());

  // 2. Index it.
  Stopwatch build_watch;
  HopDbIndex index = HopDbIndex::Build(edges).ValueOrDie();
  std::printf("index built in %.2f s (%.1f entries/member)\n",
              build_watch.Seconds(), index.AvgLabelSize());

  // 3. Sample a target panel and bucket its labels once. The batch
  //    engines speak internal (rank) ids; translate through the index's
  //    rank mapping.
  const VertexId n = index.num_vertices();
  const uint32_t num_targets =
      static_cast<uint32_t>(flags.GetUint("targets").ValueOrDie());
  Rng rng(DeriveSeed(flags.GetUint("seed").ValueOrDie(), 1));
  std::vector<VertexId> targets;
  targets.reserve(num_targets);
  for (uint32_t i = 0; i < num_targets; ++i) {
    targets.push_back(index.ranking().ToInternal(
        static_cast<VertexId>(rng.Below(n))));
  }
  OneToManyEngine engine(index.label_index().labels(), targets);

  // 4. Harmonic centrality estimate for every member.
  Stopwatch sweep_watch;
  std::vector<std::pair<double, VertexId>> scored;
  scored.reserve(n);
  for (VertexId internal = 0; internal < n; ++internal) {
    const std::vector<Distance> row = engine.Query(internal);
    double harmonic = 0;
    for (const Distance d : row) {
      if (d != kInfDistance && d > 0) harmonic += 1.0 / d;
    }
    scored.emplace_back(harmonic, index.ranking().ToOriginal(internal));
  }
  const double sweep_seconds = sweep_watch.Seconds();
  std::printf(
      "harmonic centrality for all %u members against %u targets: %.2f s "
      "(%.1f us per member)\n",
      n, num_targets, sweep_seconds, sweep_seconds * 1e6 / n);

  // 5. The influencers.
  const size_t top =
      std::min<size_t>(flags.GetUint("top").ValueOrDie(), scored.size());
  std::partial_sort(scored.begin(), scored.begin() + top, scored.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first;
                    });
  std::printf("\ntop %zu influencers (harmonic centrality):\n", top);
  for (size_t i = 0; i < top; ++i) {
    std::printf("  #%zu  member %-8u score %.1f\n", i + 1,
                scored[i].second, scored[i].first);
  }
  return 0;
}
