#include <gtest/gtest.h>

#include <string>

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
  // With a weight lane (7, 9) and without one (1, 1), directed and not.
  for (const Distance scale : {1u, 0u}) {
    for (const bool directed : {true, false}) {
      EdgeList e(4, directed);
      e.Add(0, 1, 1 + 6 * scale);
      e.Add(1, 2, 1 + 8 * scale);
      e.Add(3, 1);
      e.Normalize();
      auto g = CsrGraph::FromEdgeList(e);
      ASSERT_TRUE(g.ok());
      SCOPED_TRACE(std::string(directed ? "directed" : "undirected") +
                   (scale > 0 ? ", weight lane" : ", no lane"));
      EXPECT_EQ(g->weighted(), scale > 0);
      EXPECT_EQ(g->ArcWeight(0, 1), 1 + 6 * scale);
      EXPECT_EQ(g->ArcWeight(1, 2), 1 + 8 * scale);
      EXPECT_EQ(g->ArcWeight(3, 1), 1u);
      EXPECT_EQ(g->ArcWeight(0, 2), kInfDistance);
      EXPECT_EQ(g->ArcWeight(1, 0), directed ? kInfDistance : 1 + 6 * scale);
      EXPECT_EQ(g->ArcWeight(2, 3), kInfDistance);
    }
  }
}

/// Bytes of one adjacency side: 8 an offset, then 4 an arc for its
/// target and, with a weight lane, 4 more for its weight.
uint64_t SideBytes(VertexId n, uint64_t arcs, bool lane) {
  return 8 * (uint64_t{n} + 1) + (lane ? 8 : 4) * arcs;
}

// A unit-weight graph holds no weights: each side is its offsets and
// one 4-byte target per arc, and every arc still reads weight 1.
TEST(CsrGraphTest, UnitWeightGraphHoldsNoWeightLane) {
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    EdgeList e = GridGraph(4, 5);
    e.set_directed(directed);
    e.set_weighted(true);  // the flag does not decide the layout
    auto g = CsrGraph::FromEdgeList(e);
    ASSERT_TRUE(g.ok());
    EXPECT_FALSE(g->weighted());
    const uint64_t arcs = directed ? e.num_edges() : 2 * e.num_edges();
    EXPECT_EQ(g->SizeBytes(), (directed ? 2 : 1) *
                                  SideBytes(g->num_vertices(), arcs, false));
    for (VertexId v = 0; v < g->num_vertices(); ++v) {
      for (const Arc& a : g->OutArcs(v)) EXPECT_EQ(a.weight, 1u);
      for (const Arc& a : g->InArcs(v)) EXPECT_EQ(a.weight, 1u);
    }
  }
}

// The freeze keeps the lightest of parallel arcs and decides the layout
// from the kept arcs: a weight-7 arc parallel to a weight-1 arc is
// dropped, and with it the only reason for a weight lane.
TEST(CsrGraphTest, HeavyParallelArcLeavesNoWeightLane) {
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    EdgeList e(4, directed);
    e.Add(0, 1, 7);
    e.Add(0, 1, 1);
    e.Add(1, 2);
    e.Add(3, 2);
    auto g = CsrGraph::FromEdgeList(e);
    ASSERT_TRUE(g.ok());
    EXPECT_FALSE(g->weighted());
    EXPECT_EQ(g->num_edges(), 3u);
    EXPECT_EQ(g->ArcWeight(0, 1), 1u);
    const uint64_t arcs = directed ? 3 : 6;
    EXPECT_EQ(g->SizeBytes(), (directed ? 2 : 1) * SideBytes(4, arcs, false));
    EXPECT_FALSE(g->ToEdgeList().weighted());
  }
}

// One arc that weighs other than 1 keeps the lane on every side, and the
// lane holds every kept arc's weight, the unit ones included.
TEST(CsrGraphTest, OneHeavyArcKeepsTheWeightLane) {
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    EdgeList e(4, directed);
    e.Add(0, 1);
    e.Add(1, 2, 3);
    e.Add(3, 2);
    e.Add(1, 2, 5);  // parallel, heavier: dropped
    auto g = CsrGraph::FromEdgeList(e);
    ASSERT_TRUE(g.ok());
    EXPECT_TRUE(g->weighted());
    const uint64_t arcs = directed ? 3 : 6;
    EXPECT_EQ(g->SizeBytes(), (directed ? 2 : 1) * SideBytes(4, arcs, true));
    EXPECT_EQ(g->ArcWeight(0, 1), 1u);
    EXPECT_EQ(g->ArcWeight(1, 2), 3u);
    EXPECT_EQ(g->ArcWeight(3, 2), 1u);
    ASSERT_EQ(g->InArcs(2).size(), 2u);
    EXPECT_EQ(g->InArcs(2)[0].to, 1u);
    EXPECT_EQ(g->InArcs(2)[0].weight, 3u);
    EXPECT_EQ(g->InArcs(2)[1].to, 3u);
    EXPECT_EQ(g->InArcs(2)[1].weight, 1u);
  }
}

TEST(CsrGraphTest, MaxDegree) {
  auto g = CsrGraph::FromEdgeList(StarGraph(6));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->MaxDegree(), 6u);
}

TEST(CsrGraphTest, ToEdgeListRoundTrip) {
  for (const bool heavy : {false, true}) {
    for (const bool directed : {false, true}) {
      SCOPED_TRACE(std::string(directed ? "directed" : "undirected") +
                   (heavy ? ", weight lane" : ", no lane"));
      EdgeList e = GridGraph(3, 3);
      e.set_directed(directed);
      if (heavy) e.mutable_edges()[4].weight = 6;
      e.Normalize();
      auto g = CsrGraph::FromEdgeList(e);
      ASSERT_TRUE(g.ok());
      EdgeList back = g->ToEdgeList();
      EXPECT_EQ(back.weighted(), heavy);
      EXPECT_EQ(back.num_vertices(), e.num_vertices());
      back.Normalize();
      EXPECT_EQ(back.edges(), e.edges());
    }
  }
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
// In the unit layout every kept arc weighs 1, though heavier parallel
// arcs and a heavy self-loop pass through the freeze.
TEST(CsrGraphTest, FromEdgeListEqualsFromEdgeListAfterNormalize) {
  for (const bool unit : {false, true}) {
    for (const bool directed : {false, true}) {
      const auto w = [unit](Distance weight, Distance unit_weight) {
        return unit ? unit_weight : weight;
      };
      EdgeList raw(7, directed);
      raw.Add(0, 1, w(5, 4));
      raw.Add(1, 0, w(3, 1));  // the other orientation, lighter
      raw.Add(2, 3, w(7, 7));
      raw.Add(2, 3, w(2, 1));  // parallel, lightest
      raw.Add(2, 3, w(9, 9));
      raw.Add(3, 2, w(4, 1));
      raw.Add(4, 4, 1);  // self-loops
      raw.Add(5, 5, 6);
      raw.Add(3, 5, w(4, 1));
      raw.Add(1, 4, 1);
      raw.Add(6, 0, w(8, 1));
      raw.Add(0, 6, w(8, 1));
      if (unit && directed) raw.Add(0, 1, 1);  // 0->1's unit twin
      EdgeList normalized = raw;
      normalized.Normalize();
      auto frozen = CsrGraph::FromEdgeList(raw);
      auto reference = CsrGraph::FromEdgeList(normalized);
      ASSERT_TRUE(frozen.ok()) << frozen.status();
      ASSERT_TRUE(reference.ok()) << reference.status();
      SCOPED_TRACE(std::string(directed ? "directed" : "undirected") +
                   (unit ? ", unit weights" : ", weight lane"));
      EXPECT_EQ(frozen->weighted(), !unit);
      EXPECT_EQ(frozen->num_edges(), normalized.num_edges());
      ExpectSameCsr(*frozen, *reference);
      EXPECT_EQ(frozen->ArcWeight(2, 3), unit ? 1u : 2u);
      EXPECT_EQ(frozen->ArcWeight(0, 1), unit ? 1u : directed ? 5u : 3u);
      EXPECT_EQ(frozen->ArcWeight(4, 4), kInfDistance);
    }
  }
}

TEST(CsrGraphTest, FreezeRejectsBadEdgesAndChangedSources) {
  const auto freeze = [](Edge e) {
    return CsrGraph::Freeze(3, true, [e](auto&& emit) {
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
  EXPECT_FALSE(freeze(Edge(1, 2, 1))->weighted());
  EXPECT_TRUE(freeze(Edge(1, 2, 4))->weighted());

  // A source whose second pass yields other edges than its first, more
  // or fewer arcs at some vertex, is refused, never written past.
  for (const int extra : {-1, 1}) {
    int pass = 0;
    auto changed = CsrGraph::Freeze(3, false, [&](auto&& emit) {
      ++pass;
      emit(0, 1, 1);
      if (pass == 1 || extra > 0) emit(1, 2, 1);
      if (pass == 2 && extra > 0) emit(0, 2, 1);
      return Status::OK();
    });
    EXPECT_EQ(changed.status().code(), StatusCode::kInvalidArgument) << extra;
  }
  // The same arcs, but a weight pass 1 did not see: the graph was sized
  // without a weight lane, so the second pass is refused too.
  int pass = 0;
  auto reweighted = CsrGraph::Freeze(3, true, [&](auto&& emit) {
    emit(0, 1, ++pass == 1 ? 1 : 2);
    return Status::OK();
  });
  EXPECT_EQ(reweighted.status().code(), StatusCode::kInvalidArgument);
}

TEST(TypesTest, SaturatingAdd) {
  EXPECT_EQ(SaturatingAdd(2, 3), 5u);
  EXPECT_EQ(SaturatingAdd(kInfDistance, 1), kInfDistance);
  EXPECT_EQ(SaturatingAdd(1, kInfDistance), kInfDistance);
  EXPECT_EQ(SaturatingAdd(kInfDistance - 1, kInfDistance - 1), kInfDistance);
}

}  // namespace
}  // namespace hopdb
