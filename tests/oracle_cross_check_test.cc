// Oracle cross-check: on random scale-free graphs (Barabási–Albert and
// GLP, the paper's synthetic families), every HopDbIndex::Query answer
// must equal the BFS/Dijkstra ground truth AND agree with the PLL and
// IS-Label baseline indexes. This is the tier-1 correctness anchor: the
// three independent labeling implementations plus a direct search can
// only agree on every sampled pair if all of them are exact.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/is_label.h"
#include "baselines/pll.h"
#include "gen/barabasi_albert.h"
#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "hopdb.h"
#include "io/temp_dir.h"
#include "labeling/incremental.h"
#include "labeling/mapped_index.h"
#include "labeling/query_kernel.h"
#include "query/knn.h"
#include "query/path.h"
#include "search/dijkstra.h"
#include "util/random.h"

namespace hopdb {
namespace {

// Sources checked exhaustively against every target.
constexpr VertexId kSampleSources = 12;

// Builds HopDb, PLL, and IS-Label over `edges` and checks all four
// oracles agree from sampled sources to all targets (original ids).
void CrossCheck(const EdgeList& edges, uint64_t seed) {
  auto graph = CsrGraph::FromEdgeList(edges);
  ASSERT_TRUE(graph.ok()) << graph.status();

  // System under test: the hop-doubling index, original-id facade.
  auto hopdb = HopDbIndex::Build(*graph);
  ASSERT_TRUE(hopdb.ok()) << hopdb.status();

  // PLL runs on the rank-relabeled graph (internal id == rank), so its
  // queries go through the same mapping HopDb uses internally.
  const RankMapping mapping = ComputeRanking(
      *graph,
      graph->directed() ? RankingPolicy::kInOutProduct : RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*graph, mapping);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  auto pll = BuildPll(*ranked);
  ASSERT_TRUE(pll.ok()) << pll.status();

  // IS-Label works directly on original ids.
  auto isl = BuildIsLabel(*graph);
  ASSERT_TRUE(isl.ok()) << isl.status();

  const VertexId n = graph->num_vertices();
  Rng rng(seed);
  for (VertexId i = 0; i < kSampleSources && i < n; ++i) {
    const VertexId s = n <= kSampleSources
                           ? i
                           : static_cast<VertexId>(rng.Below(n));
    const std::vector<Distance> truth = ExactDistances(*graph, s);
    const VertexId s_int = mapping.ToInternal(s);
    for (VertexId t = 0; t < n; ++t) {
      const Distance want = truth[t];
      ASSERT_EQ(hopdb->Query(s, t), want)
          << "HopDb mismatch at (" << s << ", " << t << ")";
      ASSERT_EQ(pll->index.Query(s_int, mapping.ToInternal(t)), want)
          << "PLL mismatch at (" << s << ", " << t << ")";
      ASSERT_EQ(isl->index.Query(s, t), want)
          << "IS-Label mismatch at (" << s << ", " << t << ")";
    }
  }
}

EdgeList BaGraph(VertexId n, uint32_t m, uint64_t seed) {
  BaOptions options;
  options.num_vertices = n;
  options.edges_per_vertex = m;
  options.seed = seed;
  return GenerateBarabasiAlbert(options).ValueOrDie();
}

EdgeList GlpGraph(VertexId n, double avg_degree, uint64_t seed) {
  GlpOptions options;
  options.num_vertices = n;
  options.target_avg_degree = avg_degree;
  options.seed = seed;
  return GenerateGlp(options).ValueOrDie();
}

TEST(OracleCrossCheckTest, BarabasiAlbertUnweighted) {
  CrossCheck(BaGraph(400, 3, /*seed=*/11), /*seed=*/21);
}

TEST(OracleCrossCheckTest, BarabasiAlbertWeighted) {
  EdgeList edges = BaGraph(300, 2, /*seed=*/12);
  AssignUniformWeights(&edges, 1, 9, /*seed=*/13);
  CrossCheck(edges, /*seed=*/22);
}

TEST(OracleCrossCheckTest, GlpUnweighted) {
  CrossCheck(GlpGraph(400, 4.0, /*seed=*/14), /*seed=*/23);
}

TEST(OracleCrossCheckTest, GlpWeighted) {
  EdgeList edges = GlpGraph(300, 3.0, /*seed=*/15);
  AssignUniformWeights(&edges, 1, 7, /*seed=*/16);
  CrossCheck(edges, /*seed=*/24);
}

TEST(OracleCrossCheckTest, GlpDirected) {
  GlpOptions options;
  options.num_vertices = 300;
  options.target_avg_degree = 4.0;
  options.seed = 17;
  auto edges = GenerateDirectedGlp(options);
  ASSERT_TRUE(edges.ok()) << edges.status();
  CrossCheck(*edges, /*seed=*/25);
}

// Every query kernel (scalar and whatever SIMD widths this CPU offers)
// must produce the BFS ground truth bit-for-bit: same index, same sampled
// pairs, swept once per kernel. This is the randomized-graph leg of the
// scalar-vs-SIMD agreement guarantee (the unit-level leg lives in
// query_kernel_test).
void KernelSweep(const EdgeList& edges, uint64_t seed) {
  auto graph = CsrGraph::FromEdgeList(edges);
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto hopdb = HopDbIndex::Build(*graph);
  ASSERT_TRUE(hopdb.ok()) << hopdb.status();

  const std::string original_kernel = ActiveQueryKernel().name;
  const VertexId n = graph->num_vertices();
  Rng rng(seed);
  for (VertexId i = 0; i < kSampleSources && i < n; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(n));
    const std::vector<Distance> truth = ExactDistances(*graph, s);
    for (const QueryKernel* kernel : SupportedQueryKernels()) {
      ASSERT_TRUE(SetActiveQueryKernel(kernel->name));
      for (VertexId t = 0; t < n; ++t) {
        ASSERT_EQ(hopdb->Query(s, t), truth[t])
            << "kernel " << kernel->name << " mismatch at (" << s << ", "
            << t << ")";
      }
    }
  }
  ASSERT_TRUE(SetActiveQueryKernel(original_kernel));
}

TEST(OracleCrossCheckTest, QueryKernelsMatchOracleBa) {
  KernelSweep(BaGraph(400, 3, /*seed=*/41), /*seed=*/51);
}

TEST(OracleCrossCheckTest, QueryKernelsMatchOracleGlpWeighted) {
  EdgeList edges = GlpGraph(300, 4.0, /*seed=*/42);
  AssignUniformWeights(&edges, 1, 9, /*seed=*/43);
  KernelSweep(edges, /*seed=*/52);
}

TEST(OracleCrossCheckTest, QueryKernelsMatchOracleGlpDirected) {
  GlpOptions options;
  options.num_vertices = 300;
  options.target_avg_degree = 4.0;
  options.seed = 44;
  auto edges = GenerateDirectedGlp(options);
  ASSERT_TRUE(edges.ok()) << edges.status();
  KernelSweep(*edges, /*seed=*/53);
}

// Update-stream leg: apply a random edge-update stream through the
// incremental repairer, then cross-check the repaired index against the
// BFS/Dijkstra oracle AND a PLL index built from scratch on the mutated
// graph. Three independent answers (repair, fresh PLL, direct search)
// can only agree everywhere if the repair is exact.
void UpdateStreamCrossCheck(const EdgeList& edges, uint64_t seed,
                            int num_ops) {
  auto graph = CsrGraph::FromEdgeList(edges);
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto hopdb = HopDbIndex::Build(*graph);
  ASSERT_TRUE(hopdb.ok()) << hopdb.status();

  // The updater works in internal (rank) ids on the relabeled graph.
  const RankMapping& mapping = hopdb->ranking();
  auto ranked = RelabelByRank(*graph, mapping);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  DynamicGraph dynamic = DynamicGraph::FromGraph(*ranked);
  IncrementalUpdater updater(&dynamic, &hopdb->mutable_label_index());

  const VertexId n = graph->num_vertices();
  const bool weighted = edges.weighted();
  Rng rng(seed);
  int applied = 0;
  while (applied < num_ops) {
    const VertexId u = static_cast<VertexId>(rng.Below(n));
    const VertexId v = static_cast<VertexId>(rng.Below(n));
    if (u == v) continue;
    UpdateOp op;
    op.u = u;
    op.v = v;
    if (dynamic.ArcWeight(u, v) != kInfDistance && rng.NextDouble() < 0.5) {
      op.kind = UpdateOp::Kind::kDelEdge;
    } else {
      op.kind = UpdateOp::Kind::kAddEdge;
      op.weight = weighted ? static_cast<Distance>(rng.Uniform(1, 9)) : 1;
    }
    auto changed = updater.Apply(op);
    ASSERT_TRUE(changed.ok()) << changed.status();
    if (*changed) ++applied;
  }
  updater.Finalize();

  // Freeze the mutated graph (internal ids) and rebuild the baselines.
  auto mutated = CsrGraph::FromEdgeList(dynamic.ToEdgeList());
  ASSERT_TRUE(mutated.ok()) << mutated.status();
  auto pll = BuildPll(*mutated);
  ASSERT_TRUE(pll.ok()) << pll.status();

  Rng sample_rng(DeriveSeed(seed, 5));
  for (VertexId i = 0; i < kSampleSources && i < n; ++i) {
    const VertexId s_int = static_cast<VertexId>(sample_rng.Below(n));
    const VertexId s = mapping.ToOriginal(s_int);
    const std::vector<Distance> truth = ExactDistances(*mutated, s_int);
    for (VertexId t_int = 0; t_int < n; ++t_int) {
      const Distance want = truth[t_int];
      ASSERT_EQ(hopdb->Query(s, mapping.ToOriginal(t_int)), want)
          << "repaired HopDb mismatch at internal (" << s_int << ", "
          << t_int << ")";
      ASSERT_EQ(pll->index.Query(s_int, t_int), want)
          << "PLL mismatch at internal (" << s_int << ", " << t_int << ")";
    }
  }
}

TEST(OracleCrossCheckTest, UpdateStreamUnweightedGlp) {
  UpdateStreamCrossCheck(GlpGraph(300, 4.0, /*seed=*/61), /*seed=*/62,
                         /*num_ops=*/120);
}

TEST(OracleCrossCheckTest, UpdateStreamWeightedBa) {
  EdgeList edges = BaGraph(250, 2, /*seed=*/63);
  AssignUniformWeights(&edges, 1, 9, /*seed=*/64);
  UpdateStreamCrossCheck(edges, /*seed=*/65, /*num_ops=*/100);
}

// -----------------------------------------------------------------------
// Richer query verbs: WITHIN / REACH / PATH against the same oracles,
// swept over the serving backings (heap labels, the HLI2 mmap file).
// Both backings re-express one build's labels, so one verb disagreeing
// on one backing pinpoints that backing's decode.
// -----------------------------------------------------------------------

// One backing's labels as an engine-compatible view plus a point-query
// function in internal (rank) ids.
struct Backing {
  std::string name;
  std::function<Distance(VertexId, VertexId)> query;  // internal ids
  std::unique_ptr<KnnEngine> knn;
};

void VerbOracleSweep(const EdgeList& edges, uint64_t seed) {
  auto graph = CsrGraph::FromEdgeList(edges);
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto hopdb = HopDbIndex::Build(*graph);
  ASSERT_TRUE(hopdb.ok()) << hopdb.status();
  const RankMapping& mapping = hopdb->ranking();

  auto tmp = TempDir::Create("verbs");
  ASSERT_TRUE(tmp.ok()) << tmp.status();

  // Materialize the backings: the mmap file comes from the heap build.
  const std::string hli2_path = tmp->File("labels.hli2");
  ASSERT_TRUE(
      MappedIndex::Write(hopdb->label_index(), hopdb->ranking(), hli2_path)
          .ok());
  auto mapped = MappedIndex::Open(hli2_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();

  std::vector<Backing> backings;
  backings.push_back(
      {"heap",
       [&](VertexId s, VertexId t) {
         return hopdb->Query(mapping.ToOriginal(s), mapping.ToOriginal(t));
       },
       std::make_unique<KnnEngine>(hopdb->label_index().labels(),
                                   KnnEngine::Direction::kForward)});
  const MappedIndex* m = &*mapped;
  backings.push_back(
      {"hli2",
       [&mapping, m](VertexId s, VertexId t) {
         return m->Query(mapping.ToOriginal(s), mapping.ToOriginal(t));
       },
       std::make_unique<KnnEngine>(m->labels(),
                                   KnnEngine::Direction::kForward)});

  // PATH runs on the heap index only (it needs the build graph).
  auto querier = HopDbPathQuerier::Create(*hopdb, *graph);
  ASSERT_TRUE(querier.ok()) << querier.status();

  const VertexId n = graph->num_vertices();
  const Distance radius = edges.weighted() ? 6 : 3;
  const Distance bound = edges.weighted() ? 8 : 4;
  Rng rng(seed);
  for (VertexId i = 0; i < kSampleSources && i < n; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(n));
    const VertexId s_int = mapping.ToInternal(s);
    const std::vector<Distance> truth = ExactDistances(*graph, s);

    for (const Backing& backing : backings) {
      // WITHIN == {v : d(s, v) <= r}, distances included.
      std::vector<KnnEngine::Neighbor> within =
          backing.knn->QueryWithin(s_int, radius);
      std::vector<std::pair<VertexId, Distance>> got;
      for (const KnnEngine::Neighbor& nb : within) {
        got.emplace_back(mapping.ToOriginal(nb.vertex), nb.dist);
      }
      std::sort(got.begin(), got.end());
      std::vector<std::pair<VertexId, Distance>> want;
      for (VertexId v = 0; v < n; ++v) {
        if (v != s && truth[v] <= radius) want.emplace_back(v, truth[v]);
      }
      ASSERT_EQ(got, want) << backing.name << " WITHIN(" << s << ", r="
                           << radius << ") disagrees with the oracle";

      // REACH == bounded-BFS/Dijkstra verdict, on sampled targets.
      for (int j = 0; j < 24; ++j) {
        const VertexId t = static_cast<VertexId>(rng.Below(n));
        const Distance d = backing.query(s_int, mapping.ToInternal(t));
        const bool got_reach = d != kInfDistance && d <= bound;
        const bool want_reach = truth[t] != kInfDistance && truth[t] <= bound;
        ASSERT_EQ(got_reach, want_reach)
            << backing.name << " REACH(" << s << ", " << t << ", k=" << bound
            << ")";
      }
    }

    // PATH: weight sum == DIST and every consecutive pair is an arc
    // (PathLength returns kInfDistance otherwise); NotFound iff
    // unreachable.
    for (int j = 0; j < 24; ++j) {
      const VertexId t = static_cast<VertexId>(rng.Below(n));
      auto path = querier->ShortestPath(s, t);
      if (truth[t] == kInfDistance) {
        ASSERT_FALSE(path.ok()) << "PATH(" << s << ", " << t
                                << ") found a path to an unreachable vertex";
        ASSERT_TRUE(path.status().IsNotFound()) << path.status();
        continue;
      }
      ASSERT_TRUE(path.ok()) << "PATH(" << s << ", " << t
                             << "): " << path.status();
      ASSERT_EQ(PathLength(*graph, *path), truth[t])
          << "PATH(" << s << ", " << t << ") is not a shortest path";
      ASSERT_EQ(path->front(), s);
      ASSERT_EQ(path->back(), t);
    }
  }
}

TEST(OracleCrossCheckTest, VerbsUndirectedUnweighted) {
  VerbOracleSweep(GlpGraph(300, 4.0, /*seed=*/71), /*seed=*/81);
}

TEST(OracleCrossCheckTest, VerbsUndirectedWeighted) {
  EdgeList edges = GlpGraph(250, 3.0, /*seed=*/72);
  AssignUniformWeights(&edges, 1, 9, /*seed=*/73);
  VerbOracleSweep(edges, /*seed=*/82);
}

TEST(OracleCrossCheckTest, VerbsDirectedUnweighted) {
  GlpOptions options;
  options.num_vertices = 300;
  options.target_avg_degree = 4.0;
  options.seed = 74;
  auto edges = GenerateDirectedGlp(options);
  ASSERT_TRUE(edges.ok()) << edges.status();
  VerbOracleSweep(*edges, /*seed=*/83);
}

TEST(OracleCrossCheckTest, VerbsDirectedWeighted) {
  GlpOptions options;
  options.num_vertices = 250;
  options.target_avg_degree = 3.0;
  options.seed = 75;
  auto edges = GenerateDirectedGlp(options);
  ASSERT_TRUE(edges.ok()) << edges.status();
  AssignUniformWeights(&*edges, 1, 9, /*seed=*/76);
  VerbOracleSweep(*edges, /*seed=*/84);
}

// Different construction strategies must produce identical answers;
// anchor each against the same BA graph's ground truth.
TEST(OracleCrossCheckTest, BuildModesAgree) {
  const EdgeList edges = BaGraph(300, 2, /*seed=*/18);
  auto graph = CsrGraph::FromEdgeList(edges);
  ASSERT_TRUE(graph.ok()) << graph.status();

  std::vector<HopDbIndex> indexes;
  for (BuildMode mode : {BuildMode::kHybrid, BuildMode::kHopStepping,
                         BuildMode::kHopDoubling}) {
    HopDbOptions options;
    options.build.mode = mode;
    auto index = HopDbIndex::Build(*graph, options);
    ASSERT_TRUE(index.ok()) << index.status();
    indexes.push_back(std::move(index).value());
  }

  const VertexId n = graph->num_vertices();
  Rng rng(26);
  for (VertexId i = 0; i < kSampleSources; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(n));
    const std::vector<Distance> truth = ExactDistances(*graph, s);
    for (VertexId t = 0; t < n; ++t) {
      for (const HopDbIndex& index : indexes) {
        ASSERT_EQ(index.Query(s, t), truth[t])
            << "mode mismatch at (" << s << ", " << t << ")";
      }
    }
  }
}

}  // namespace
}  // namespace hopdb
