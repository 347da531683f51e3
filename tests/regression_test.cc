// Focused scenario tests for behaviours the broader suites reach only
// incidentally: in-place distance updates on weighted graphs, per-pivot
// accounting on directed indexes, dataset-registry loading across all
// groups, and block-file move semantics.

#include <gtest/gtest.h>

#include "eval/datasets.h"
#include "eval/verify.h"
#include "gen/small_graphs.h"
#include "graph/ranking.h"
#include "io/block_file.h"
#include "io/temp_dir.h"
#include "labeling/builder.h"
#include "labeling/query_kernel.h"

namespace hopdb {
namespace {

// A weighted triangle where the direct edge 0-1 (weight 9) is beaten by
// the 2-hop path 1-2-0 (weight 2): the initial edge entry (0,9) in L(1)
// must be improved in place during iteration 1 (the builder's update
// path, which unweighted graphs never exercise in stepping mode).
TEST(WeightedUpdateTest, InPlaceDistanceImprovement) {
  EdgeList e(3, /*directed=*/false);
  e.Add(0, 1, 9);
  e.Add(0, 2, 1);
  e.Add(1, 2, 1);
  e.Normalize();
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());

  BuildOptions opts;
  opts.mode = BuildMode::kHopStepping;
  auto out = BuildHopLabeling(*g, opts);
  ASSERT_TRUE(out.ok());

  uint64_t updates = 0;
  for (const IterationStats& it : out->stats.iterations) {
    updates += it.updates;
  }
  EXPECT_GE(updates, 1u) << "the (0,9) entry must be improved to (0,2)";
  EXPECT_EQ(LookupPivotFlat(out->index.OutLabel(1).flat(), 0), 2u);
  ASSERT_TRUE(VerifyExactDistances(
                  *g,
                  [&](VertexId s, VertexId t) {
                    return out->index.Query(s, t);
                  })
                  .ok());
}

// The same construction through Hop-Doubling: overshooting concatenations
// may enter first and must be corrected by later exact candidates.
TEST(WeightedUpdateTest, DoublingConvergesToExact) {
  EdgeList e(5, /*directed=*/false);
  e.Add(0, 1, 20);
  e.Add(1, 2, 20);
  e.Add(0, 3, 1);
  e.Add(3, 4, 1);
  e.Add(4, 2, 1);
  e.Normalize();
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  RankMapping m = ComputeRanking(*g, RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*g, m);
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.mode = BuildMode::kHopDoubling;
  auto out = BuildHopLabeling(*ranked, opts);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(VerifyExactDistances(
                  *ranked,
                  [&](VertexId s, VertexId t) {
                    return out->index.Query(s, t);
                  })
                  .ok());
}

TEST(DirectedPivotAccountingTest, EntriesPerPivotCountsBothSides) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  auto out = BuildHopLabeling(*g, {});
  ASSERT_TRUE(out.ok());
  auto per_pivot = out->index.EntriesPerPivot();
  uint64_t sum = 0;
  for (uint64_t c : per_pivot) sum += c;
  EXPECT_EQ(sum, out->index.TotalEntries());
  // Vertex 0 (top rank) is the most-used pivot in the example.
  for (VertexId v = 1; v < 8; ++v) {
    EXPECT_GE(per_pivot[0], per_pivot[v]);
  }
}

// Every dataset group in the registry loads and matches its spec at tiny
// scale (tier <= 1 keeps this test under a few seconds).
TEST(DatasetRegistryTest, AllTierOneDatasetsLoad) {
  LoadOptions opts;
  opts.scale = 0.01;
  for (const DatasetSpec& spec : Table6Datasets()) {
    if (spec.tier > 1) continue;
    auto g = LoadDataset(spec, opts);
    ASSERT_TRUE(g.ok()) << spec.name;
    EXPECT_EQ(g->directed(), spec.directed) << spec.name;
    EXPECT_EQ(g->weighted(), spec.weighted) << spec.name;
    EXPECT_GT(g->num_edges(), 0u) << spec.name;
  }
}

TEST(BlockFileTest, MoveTransfersOwnership) {
  auto dir = TempDir::Create("regression");
  ASSERT_TRUE(dir.ok());
  auto file = BlockFile::OpenWrite(dir->File("f"));
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append("abcd", 4).ok());
  BlockFile moved = std::move(*file);
  EXPECT_EQ(moved.size(), 4u);
  char buf[4];
  ASSERT_TRUE(moved.ReadAt(0, buf, 4).ok());
  EXPECT_EQ(std::string(buf, 4), "abcd");
}

// Hybrid mode on a graph whose diameter exceeds the switch point: the
// doubling phase must cover the long tail that stepping left (a path
// graph pushes the worst case).
TEST(HybridLongDiameterTest, DoublingPhaseFinishesLongPaths) {
  auto g = CsrGraph::FromEdgeList(PathGraph(200));
  ASSERT_TRUE(g.ok());
  RankMapping m = ComputeRanking(*g, RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*g, m);
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.mode = BuildMode::kHybrid;
  opts.hybrid_switch_iteration = 5;
  auto out = BuildHopLabeling(*ranked, opts);
  ASSERT_TRUE(out.ok());
  // Stepping alone would need ~199 iterations; the switch to doubling
  // must compress that to ~5 + 2*log2(199/32) + change.
  EXPECT_LT(out->stats.num_rule_iterations, 25u);
  ASSERT_TRUE(VerifyExactDistances(
                  *ranked,
                  [&](VertexId s, VertexId t) {
                    return out->index.Query(s, t);
                  })
                  .ok());
}

// Self-loops and parallel edges in the input must not corrupt anything
// end to end (Normalize handles them before the builder sees the graph).
TEST(DirtyInputTest, SelfLoopsAndParallelEdges) {
  EdgeList e(4, /*directed=*/true);
  e.Add(0, 0);      // self loop
  e.Add(0, 1, 5);
  e.Add(0, 1, 2);   // parallel, lighter wins
  e.Add(1, 0, 1);
  e.Add(1, 2);
  e.Add(2, 2);      // self loop
  e.Add(2, 3);
  e.Normalize();
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  RankMapping m = ComputeRanking(*g, RankingPolicy::kInOutProduct);
  auto ranked = RelabelByRank(*g, m);
  ASSERT_TRUE(ranked.ok());
  auto out = BuildHopLabeling(*ranked, {});
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(VerifyExactDistances(
                  *ranked,
                  [&](VertexId s, VertexId t) {
                    return out->index.Query(s, t);
                  })
                  .ok());
}

}  // namespace
}  // namespace hopdb
