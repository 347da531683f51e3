// Nearest neighbors and actual shortest paths on a directed web graph.
//
// Two post-paper capabilities layered on the 2-hop index:
//   * KnnEngine (query/knn.h): the k closest pages reachable from a seed
//     page, in exact distance order, without touching the graph.
//   * HopDbPathQuerier (hopdb.h): the actual link chain realizing a
//     distance, reconstructed from the index plus the graph — no parent
//     pointers stored.
//
//   $ ./knn_paths [--n 15000] [--k 12]

#include <cstdio>
#include <vector>

#include "gen/glp.h"
#include "hopdb.h"
#include "query/knn.h"
#include "util/cli.h"
#include "util/random.h"

int main(int argc, char** argv) {
  using namespace hopdb;

  CliFlags flags;
  flags.Define("n", "15000", "web graph size (pages)");
  flags.Define("k", "12", "nearest pages to report");
  flags.Define("seed", "7", "graph seed");
  flags.Parse(argc, argv).CheckOK();

  // 1. A directed scale-free "web graph" and its index.
  GlpOptions glp;
  glp.num_vertices = static_cast<VertexId>(flags.GetUint("n").ValueOrDie());
  glp.target_avg_degree = 6;
  glp.seed = flags.GetUint("seed").ValueOrDie();
  EdgeList edges = GenerateDirectedGlp(glp).ValueOrDie();
  CsrGraph graph = CsrGraph::FromEdgeList(edges).ValueOrDie();
  HopDbIndex index = HopDbIndex::Build(graph).ValueOrDie();
  std::printf("web graph: %u pages, %llu links, index %.1f entries/page\n",
              graph.num_vertices(),
              static_cast<unsigned long long>(graph.num_edges()),
              index.AvgLabelSize());

  // 2. k nearest pages from a seed (forward = following links). The kNN
  //    engine speaks internal ids; translate at the boundary.
  const VertexId seed_page = 1234 % graph.num_vertices();
  KnnEngine knn(index.label_index().labels(), KnnEngine::Direction::kForward);
  const uint32_t k = static_cast<uint32_t>(flags.GetUint("k").ValueOrDie());
  const auto nearest =
      knn.Query(index.ranking().ToInternal(seed_page), k);
  std::printf("\n%u pages closest to page %u by link distance:\n",
              static_cast<uint32_t>(nearest.size()), seed_page);
  for (const auto& nb : nearest) {
    std::printf("  page %-8u dist %u\n",
                index.ranking().ToOriginal(nb.vertex), nb.dist);
  }

  // 3. Reconstruct an actual link chain: pick the page with the LARGEST
  //    finite distance from the seed (a random sample suffices) so the
  //    chain is interesting, then extract it.
  Rng rng(DeriveSeed(flags.GetUint("seed").ValueOrDie(), 2));
  VertexId far_page = kInvalidVertex;
  Distance far_dist = 0;
  for (int i = 0; i < 400; ++i) {
    const VertexId candidate =
        static_cast<VertexId>(rng.Below(graph.num_vertices()));
    const Distance d = index.Query(seed_page, candidate);
    if (d != kInfDistance && d > far_dist) {
      far_dist = d;
      far_page = candidate;
    }
  }
  if (far_page != kInvalidVertex) {
    HopDbPathQuerier paths =
        HopDbPathQuerier::Create(index, graph).ValueOrDie();
    const std::vector<VertexId> chain =
        paths.ShortestPath(seed_page, far_page).ValueOrDie();
    std::printf("\nlink chain %u -> %u (%zu hops):\n  ", seed_page,
                far_page, chain.size() - 1);
    for (size_t i = 0; i < chain.size(); ++i) {
      std::printf("%u%s", chain[i], i + 1 < chain.size() ? " -> " : "\n");
    }
    std::printf("first hop toward %u: %u\n", far_page,
                paths.FirstHop(seed_page, far_page));
  }

  // 4. Backward kNN: the pages that most quickly REACH the seed —
  //    "who funnels traffic here" on a directed graph.
  KnnEngine reverse(index.label_index().labels(),
                    KnnEngine::Direction::kBackward);
  const auto reaching =
      reverse.Query(index.ranking().ToInternal(seed_page), 5);
  std::printf("\n5 pages that reach page %u fastest:\n", seed_page);
  for (const auto& nb : reaching) {
    std::printf("  page %-8u dist %u\n",
                index.ranking().ToOriginal(nb.vertex), nb.dist);
  }
  return 0;
}
