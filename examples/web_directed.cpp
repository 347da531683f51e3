// Directed-graph querying: hyperlink-style asymmetric distances on a
// simulated web crawl (one of the paper's motivating applications: page
// similarity on web graphs).
//
// Demonstrates the directed API surface: Lin/Lout labels, asymmetric
// dist(u,v) vs dist(v,u), and a simple distance-based page-similarity
// measure sim(p,q) = 1 / (1 + dist(p,q) + dist(q,p)).
//
//   $ ./web_directed [--pages 20000] [--avg_links 10] [--seed 3]

#include <algorithm>
#include <cstdio>
#include <vector>

#include "gen/glp.h"
#include "hopdb.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace hopdb;
  CliFlags flags;
  flags.Define("pages", "20000", "number of pages in the simulated crawl");
  flags.Define("avg_links", "10", "average out-links per page");
  flags.Define("seed", "3", "generator seed");
  flags.Parse(argc, argv).CheckOK();
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage("web_directed").c_str());
    return 0;
  }

  GlpOptions glp;
  glp.num_vertices = static_cast<VertexId>(flags.GetUint("pages").ValueOrDie());
  glp.target_avg_degree = flags.GetDouble("avg_links").ValueOrDie();
  glp.seed = flags.GetUint("seed").ValueOrDie();
  auto edges = GenerateDirectedGlp(glp, /*reciprocal=*/0.25);
  edges.status().CheckOK();

  Stopwatch build_watch;
  auto index = HopDbIndex::Build(*edges);
  index.status().CheckOK();
  std::printf("web graph: %u pages, %zu links; index built in %s\n",
              index->num_vertices(), edges->num_edges(),
              HumanDuration(build_watch.Seconds()).c_str());
  std::printf("directed index: Lin+Lout, %.1f entries/page, %s\n\n",
              index->AvgLabelSize(),
              HumanBytes(index->PaperSizeBytes()).c_str());

  // Asymmetry: link distance is not symmetric on the web.
  std::printf("asymmetric link distances:\n");
  uint64_t asymmetric = 0, measured = 0;
  for (VertexId p = 100; p < 120; ++p) {
    VertexId q = p + 1000;
    Distance fwd = index->Query(p, q);
    Distance bwd = index->Query(q, p);
    ++measured;
    if (fwd != bwd) ++asymmetric;
    if (p < 105) {
      auto show = [](Distance d) {
        return d == kInfDistance ? std::string("inf") : std::to_string(d);
      };
      std::printf("  dist(%u -> %u) = %s, dist(%u -> %u) = %s\n", p, q,
                  show(fwd).c_str(), q, p, show(bwd).c_str());
    }
  }
  std::printf("  ... %llu of %llu sampled pairs are asymmetric\n\n",
              static_cast<unsigned long long>(asymmetric),
              static_cast<unsigned long long>(measured));

  // Page similarity for a seed page: rank candidate pages by round-trip
  // link distance.
  const VertexId seed_page = 42;
  struct Scored {
    VertexId page;
    double similarity;
  };
  std::vector<Scored> scored;
  for (VertexId q = 0; q < index->num_vertices(); q += 97) {
    if (q == seed_page) continue;
    Distance fwd = index->Query(seed_page, q);
    Distance bwd = index->Query(q, seed_page);
    if (fwd == kInfDistance || bwd == kInfDistance) continue;
    scored.push_back({q, 1.0 / (1.0 + fwd + bwd)});
  }
  std::partial_sort(scored.begin(),
                    scored.begin() + std::min<size_t>(5, scored.size()),
                    scored.end(), [](const Scored& a, const Scored& b) {
                      return a.similarity > b.similarity;
                    });
  std::printf("pages most similar to page %u (by round-trip distance):\n",
              seed_page);
  for (size_t i = 0; i < std::min<size_t>(5, scored.size()); ++i) {
    std::printf("  page %-7u similarity %.3f\n", scored[i].page,
                scored[i].similarity);
  }
  return 0;
}
