// Keyword search over an RDF-style entity graph (the paper's intro cites
// "keyword search on RDF graphs [21]" as a driving application).
//
// Model: each keyword matches a set of entities. An answer is a root
// entity that is close to at least one match of EVERY keyword; its score
// is the sum of those distances (the r-clique / group-Steiner proxy used
// by keyword-search systems). With a distance index this is pure lookup
// work: one one-to-many bucket query per candidate root replaces a
// multi-source graph traversal per query.
//
//   $ ./rdf_keyword [--n 12000] [--keywords 3] [--matches 8]

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
  flags.Define("n", "12000", "entity graph size");
  flags.Define("keywords", "3", "number of query keywords");
  flags.Define("matches", "8", "entities matching each keyword");
  flags.Define("seed", "11", "graph + keyword seed");
  flags.Parse(argc, argv).CheckOK();

  // 1. A directed scale-free "RDF graph" (entities + links) and its index.
  GlpOptions glp;
  glp.num_vertices = static_cast<VertexId>(flags.GetUint("n").ValueOrDie());
  glp.target_avg_degree = 7;
  glp.seed = flags.GetUint("seed").ValueOrDie();
  EdgeList edges = GenerateDirectedGlp(glp).ValueOrDie();
  HopDbIndex index = HopDbIndex::Build(edges).ValueOrDie();
  const VertexId n = index.num_vertices();
  std::printf("entity graph: %u entities, %zu links\n", n,
              edges.edges().size());

  // 2. Simulated keyword matches: random entity sets.
  const uint32_t num_keywords =
      static_cast<uint32_t>(flags.GetUint("keywords").ValueOrDie());
  const uint32_t matches =
      static_cast<uint32_t>(flags.GetUint("matches").ValueOrDie());
  Rng rng(DeriveSeed(flags.GetUint("seed").ValueOrDie(), 3));
  std::vector<std::vector<VertexId>> keyword_sets(num_keywords);
  std::vector<VertexId> all_targets;  // internal ids, flattened
  for (auto& set : keyword_sets) {
    for (uint32_t i = 0; i < matches; ++i) {
      const VertexId entity = static_cast<VertexId>(rng.Below(n));
      set.push_back(entity);
      all_targets.push_back(index.ranking().ToInternal(entity));
    }
  }
  std::printf("query: %u keywords x %u matching entities\n", num_keywords,
              matches);

  // 3. Score every entity as an answer root: sum over keywords of the
  //    distance to the keyword's nearest match (root -> match direction).
  OneToManyEngine engine(index.label_index().labels(), all_targets);
  Stopwatch watch;
  struct Answer {
    uint64_t score;
    VertexId root;
  };
  std::vector<Answer> answers;
  for (VertexId internal = 0; internal < n; ++internal) {
    const std::vector<Distance> row = engine.Query(internal);
    uint64_t score = 0;
    bool covers_all = true;
    for (uint32_t k = 0; k < num_keywords && covers_all; ++k) {
      Distance nearest = kInfDistance;
      for (uint32_t i = 0; i < matches; ++i) {
        nearest = std::min(nearest, row[k * matches + i]);
      }
      if (nearest == kInfDistance) {
        covers_all = false;
      } else {
        score += nearest;
      }
    }
    if (covers_all) {
      answers.push_back({score, index.ranking().ToOriginal(internal)});
    }
  }
  const double seconds = watch.Seconds();
  std::printf(
      "scored %zu/%u candidate roots in %.2f s (%.1f us per root)\n",
      answers.size(), n, seconds, seconds * 1e6 / n);

  // 4. The best answers.
  const size_t top = std::min<size_t>(5, answers.size());
  std::partial_sort(answers.begin(), answers.begin() + top, answers.end(),
                    [](const Answer& a, const Answer& b) {
                      return a.score < b.score;
                    });
  std::printf("\ntop %zu answer roots (sum of keyword distances):\n", top);
  for (size_t i = 0; i < top; ++i) {
    std::printf("  #%zu  entity %-8u total distance %llu\n", i + 1,
                answers[i].root,
                static_cast<unsigned long long>(answers[i].score));
    // Provenance: which match realizes each keyword.
    for (uint32_t k = 0; k < num_keywords; ++k) {
      VertexId best_match = kInvalidVertex;
      Distance best_d = kInfDistance;
      for (const VertexId m : keyword_sets[k]) {
        const Distance d = index.Query(answers[i].root, m);
        if (d < best_d) {
          best_d = d;
          best_match = m;
        }
      }
      std::printf("       keyword %u -> entity %u (dist %u)\n", k,
                  best_match, best_d);
    }
  }
  return 0;
}
