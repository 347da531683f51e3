#include <gtest/gtest.h>

#include "gen/small_graphs.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"

namespace hopdb {
namespace {

TEST(EdgeListTest, AddGrowsVertexCount) {
  EdgeList e;
  e.Add(3, 7);
  EXPECT_EQ(e.num_vertices(), 8u);
  EXPECT_EQ(e.num_edges(), 1u);
}

TEST(EdgeListTest, NormalizeRemovesSelfLoopsAndParallels) {
  EdgeList e(4, /*directed=*/true);
  e.Add(0, 1, 5);
  e.Add(0, 1, 3);  // parallel, lighter
  e.Add(2, 2);     // self loop
  e.Add(1, 0);     // anti-parallel: kept (directed)
  e.Normalize();
  ASSERT_EQ(e.num_edges(), 2u);
  EXPECT_EQ(e.edges()[0], Edge(0, 1, 3));
  EXPECT_EQ(e.edges()[1], Edge(1, 0, 1));
}

TEST(EdgeListTest, NormalizeUndirectedMergesOrientations) {
  EdgeList e(3, /*directed=*/false);
  e.Add(1, 0, 4);
  e.Add(0, 1, 2);
  e.Normalize();
  ASSERT_EQ(e.num_edges(), 1u);
  EXPECT_EQ(e.edges()[0].weight, 2u);
}

TEST(EdgeListTest, ValidateCatchesBadEdges) {
  EdgeList e(2, true);
  e.Add(0, 1);
  EXPECT_TRUE(e.Validate().ok());
  e.mutable_edges().push_back(Edge(0, 5));
  EXPECT_FALSE(e.Validate().ok());
  e.mutable_edges().pop_back();
  e.mutable_edges().push_back(Edge(0, 1, 0));
  EXPECT_FALSE(e.Validate().ok());
}

TEST(EdgeListTest, SizeAccounting) {
  EdgeList e(3, true);
  e.Add(0, 1);
  e.Add(1, 2);
  EXPECT_EQ(e.SizeBytes(true), 2u * 9u);  // paper: 4+4+1 bytes per edge
}

TEST(CsrGraphTest, DirectedAdjacency) {
  EdgeList e(4, /*directed=*/true);
  e.Add(0, 1);
  e.Add(0, 2);
  e.Add(2, 1);
  e.Add(3, 0);
  e.Normalize();
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 4u);
  EXPECT_EQ(g->num_edges(), 4u);
  EXPECT_EQ(g->OutDegree(0), 2u);
  EXPECT_EQ(g->InDegree(1), 2u);
  EXPECT_EQ(g->InDegree(0), 1u);
  EXPECT_EQ(g->Degree(0), 3u);
  ASSERT_EQ(g->OutArcs(0).size(), 2u);
  EXPECT_EQ(g->OutArcs(0)[0].to, 1u);
  EXPECT_EQ(g->OutArcs(0)[1].to, 2u);
  ASSERT_EQ(g->InArcs(1).size(), 2u);
  EXPECT_EQ(g->InArcs(1)[0].to, 0u);
  EXPECT_EQ(g->InArcs(1)[1].to, 2u);
}

TEST(CsrGraphTest, UndirectedSymmetric) {
  EdgeList e = PathGraph(4);
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->directed());
  EXPECT_EQ(g->Degree(0), 1u);
  EXPECT_EQ(g->Degree(1), 2u);
  // In and out views coincide.
  EXPECT_EQ(g->InArcs(1).size(), g->OutArcs(1).size());
  EXPECT_EQ(g->num_edges(), 3u);
}

TEST(CsrGraphTest, ArcWeightLookup) {
  EdgeList e(3, true);
  e.Add(0, 1, 7);
  e.Add(1, 2, 9);
  e.Normalize();
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->ArcWeight(0, 1), 7u);
  EXPECT_EQ(g->ArcWeight(1, 2), 9u);
  EXPECT_EQ(g->ArcWeight(0, 2), kInfDistance);
  EXPECT_TRUE(g->weighted());
}

TEST(CsrGraphTest, MaxDegree) {
  auto g = CsrGraph::FromEdgeList(StarGraph(6));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->MaxDegree(), 6u);
}

TEST(CsrGraphTest, ToEdgeListRoundTrip) {
  EdgeList e = GridGraph(3, 3);
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  EdgeList back = g->ToEdgeList();
  back.Normalize();
  EXPECT_EQ(back.num_edges(), e.num_edges());
  EXPECT_EQ(back.num_vertices(), e.num_vertices());
}

TEST(CsrGraphTest, PaperSizeBytes) {
  auto g = CsrGraph::FromEdgeList(PathGraph(5));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->PaperSizeBytes(), 4u * 9u);
}

TEST(CsrGraphTest, EmptyGraph) {
  EdgeList e(0, true);
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 0u);
  EXPECT_EQ(g->num_edges(), 0u);
}

TEST(CsrGraphTest, IsolatedVertices) {
  EdgeList e(5, false);
  e.Add(0, 1);
  e.Normalize();
  e.set_num_vertices(5);
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 5u);
  EXPECT_EQ(g->Degree(4), 0u);
  EXPECT_TRUE(g->OutArcs(4).empty());
}

/// Arc-for-arc equality of two CSRs, both directions.
void ExpectSameCsr(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.directed(), b.directed());
  EXPECT_EQ(a.weighted(), b.weighted());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    for (const bool in : {false, true}) {
      const auto x = in ? a.InArcs(v) : a.OutArcs(v);
      const auto y = in ? b.InArcs(v) : b.OutArcs(v);
      ASSERT_EQ(x.size(), y.size()) << "v=" << v << " in=" << in;
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(x[i].to, y[i].to) << "v=" << v << " i=" << i;
        EXPECT_EQ(x[i].weight, y[i].weight) << "v=" << v << " i=" << i;
      }
    }
  }
}

// The freeze normalizes what it is given: a list holding both
// orientations of an edge, parallel edges of different weights and
// weighted self-loops freezes to the CSR of its Normalize()d copy.
TEST(CsrGraphTest, FromEdgeListEqualsFromEdgeListAfterNormalize) {
  for (const bool directed : {false, true}) {
    EdgeList raw(7, directed);
    raw.Add(0, 1, 5);
    raw.Add(1, 0, 3);  // the other orientation, lighter
    raw.Add(2, 3, 7);
    raw.Add(2, 3, 2);  // parallel, lightest
    raw.Add(2, 3, 9);
    raw.Add(3, 2, 4);
    raw.Add(4, 4, 1);  // self-loops
    raw.Add(5, 5, 6);
    raw.Add(3, 5, 4);
    raw.Add(1, 4, 1);
    raw.Add(6, 0, 8);
    raw.Add(0, 6, 8);
    EdgeList normalized = raw;
    normalized.Normalize();
    auto frozen = CsrGraph::FromEdgeList(raw);
    auto reference = CsrGraph::FromEdgeList(normalized);
    ASSERT_TRUE(frozen.ok()) << frozen.status();
    ASSERT_TRUE(reference.ok()) << reference.status();
    SCOPED_TRACE(directed ? "directed" : "undirected");
    EXPECT_EQ(frozen->num_edges(), normalized.num_edges());
    ExpectSameCsr(*frozen, *reference);
    EXPECT_EQ(frozen->ArcWeight(2, 3), 2u);
    EXPECT_EQ(frozen->ArcWeight(4, 4), kInfDistance);
  }
}

TEST(CsrGraphTest, FreezeRejectsBadEdgesAndChangedSources) {
  const auto freeze = [](Edge e) {
    return CsrGraph::Freeze(3, true, true, [e](auto&& emit) {
      emit(0, 1, 1);
      emit(e.src, e.dst, e.weight);
      return Status::OK();
    });
  };
  EXPECT_TRUE(freeze(Edge(1, 2, 4)).ok());
  EXPECT_TRUE(freeze(Edge(2, 2, 4)).ok());  // a self-loop is dropped
  EXPECT_EQ(freeze(Edge(1, 3, 4)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(freeze(Edge(1, 2, 0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(freeze(Edge(1, 2, kInfDistance)).status().code(),
            StatusCode::kInvalidArgument);

  // A source whose second pass yields other edges than its first, more
  // or fewer arcs at some vertex, is refused, never written past.
  for (const int extra : {-1, 1}) {
    int pass = 0;
    auto changed = CsrGraph::Freeze(3, false, false, [&](auto&& emit) {
      ++pass;
      emit(0, 1, 1);
      if (pass == 1 || extra > 0) emit(1, 2, 1);
      if (pass == 2 && extra > 0) emit(0, 2, 1);
      return Status::OK();
    });
    EXPECT_EQ(changed.status().code(), StatusCode::kInvalidArgument) << extra;
  }
}

TEST(TypesTest, SaturatingAdd) {
  EXPECT_EQ(SaturatingAdd(2, 3), 5u);
  EXPECT_EQ(SaturatingAdd(kInfDistance, 1), kInfDistance);
  EXPECT_EQ(SaturatingAdd(1, kInfDistance), kInfDistance);
  EXPECT_EQ(SaturatingAdd(kInfDistance - 1, kInfDistance - 1), kInfDistance);
}

}  // namespace
}  // namespace hopdb
