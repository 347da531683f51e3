#include "graph/ranking.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/small_graphs.h"

namespace hopdb {
namespace {

TEST(RankingTest, DegreeOrderStar) {
  auto g = CsrGraph::FromEdgeList(StarGraph(5));
  ASSERT_TRUE(g.ok());
  RankMapping m = ComputeRanking(*g, RankingPolicy::kDegree);
  EXPECT_EQ(m.rank_to_orig[0], 0u);  // the hub ranks first
  EXPECT_EQ(m.ToInternal(0), 0u);
  // Leaves tie; ties break by original id.
  EXPECT_EQ(m.rank_to_orig[1], 1u);
  EXPECT_EQ(m.rank_to_orig[5], 5u);
}

TEST(RankingTest, MappingIsInverse) {
  auto g = CsrGraph::FromEdgeList(GridGraph(4, 4));
  ASSERT_TRUE(g.ok());
  RankMapping m = ComputeRanking(*g, RankingPolicy::kDegree);
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    EXPECT_EQ(m.ToInternal(m.ToOriginal(v)), v);
    EXPECT_EQ(m.ToOriginal(m.ToInternal(v)), v);
  }
}

TEST(RankingTest, InOutProductPrefersBalancedHubs) {
  // Vertex 0: in 3 / out 3 (product 16 with +1 smoothing); vertex 1: in 0
  // / out 6 (product 7). Degree ranking would tie them at 6; the product
  // ranking must put 0 first.
  EdgeList e(8, /*directed=*/true);
  for (VertexId v = 2; v <= 4; ++v) {
    e.Add(0, v);
    e.Add(v, 0);
  }
  for (VertexId v = 2; v <= 7; ++v) e.Add(1, v);
  e.Normalize();
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  RankMapping m = ComputeRanking(*g, RankingPolicy::kInOutProduct);
  EXPECT_EQ(m.rank_to_orig[0], 0u);
  EXPECT_EQ(m.rank_to_orig[1], 1u);
}

TEST(RankingTest, IdentityKeepsOrder) {
  auto g = CsrGraph::FromEdgeList(PathGraph(6));
  ASSERT_TRUE(g.ok());
  RankMapping m = ComputeRanking(*g, RankingPolicy::kIdentity);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(m.rank_to_orig[v], v);
}

TEST(RankingTest, DeterministicTieBreak) {
  auto g = CsrGraph::FromEdgeList(CycleGraph(10));
  ASSERT_TRUE(g.ok());
  RankMapping a = ComputeRanking(*g, RankingPolicy::kDegree);
  RankMapping b = ComputeRanking(*g, RankingPolicy::kDegree);
  EXPECT_EQ(a.rank_to_orig, b.rank_to_orig);
  // All degrees equal: rank order must be id order.
  for (VertexId v = 0; v < 10; ++v) EXPECT_EQ(a.rank_to_orig[v], v);
}

TEST(RankingTest, RelabelPreservesStructure) {
  EdgeList directed(4, /*directed=*/true);
  directed.Add(3, 2, 5);  // make vertex 3 and 2 high-degree
  directed.Add(2, 3, 5);
  directed.Add(3, 0, 1);
  directed.Add(2, 1, 2);
  // Undirected and weighted, with edges listed in both orientations and
  // a ranking that reverses most of them.
  EdgeList undirected(6, /*directed=*/false);
  undirected.Add(5, 4, 3);
  undirected.Add(4, 3, 7);
  undirected.Add(2, 4, 1);
  undirected.Add(4, 0, 9);
  undirected.Add(1, 5, 2);
  undirected.Add(5, 3, 4);
  for (EdgeList e : {directed, undirected}) {
    SCOPED_TRACE(e.directed() ? "directed" : "undirected");
    e.Normalize();
    auto g = CsrGraph::FromEdgeList(e);
    ASSERT_TRUE(g.ok());
    RankMapping m = ComputeRanking(*g, RankingPolicy::kDegree);
    auto ranked = RelabelByRank(*g, m);
    ASSERT_TRUE(ranked.ok());
    EXPECT_EQ(ranked->num_edges(), g->num_edges());
    EXPECT_EQ(ranked->weighted(), g->weighted());
    // Every original arc must exist in internal coordinates with the same
    // weight, and no other: each vertex keeps its degrees, and its
    // adjacency stays sorted by target.
    for (VertexId u = 0; u < g->num_vertices(); ++u) {
      const VertexId r = m.ToInternal(u);
      EXPECT_EQ(ranked->OutDegree(r), g->OutDegree(u));
      EXPECT_EQ(ranked->InDegree(r), g->InDegree(u));
      for (const Arc& a : g->OutArcs(u)) {
        EXPECT_EQ(ranked->ArcWeight(r, m.ToInternal(a.to)), a.weight);
      }
      const auto arcs = ranked->OutArcs(r);
      EXPECT_TRUE(std::is_sorted(
          arcs.begin(), arcs.end(),
          [](const Arc& a, const Arc& b) { return a.to < b.to; }));
    }
  }
}

TEST(RankingTest, CustomOrder) {
  RankMapping m = RankingFromOrder({2, 0, 1});
  EXPECT_EQ(m.ToInternal(2), 0u);
  EXPECT_EQ(m.ToInternal(0), 1u);
  EXPECT_EQ(m.ToOriginal(2), 1u);
}

TEST(RankingTest, RelabelSizeMismatchFails) {
  auto g = CsrGraph::FromEdgeList(PathGraph(4));
  ASSERT_TRUE(g.ok());
  RankMapping m = RankingFromOrder({0, 1, 2});
  EXPECT_FALSE(RelabelByRank(*g, m).ok());
}

}  // namespace
}  // namespace hopdb
