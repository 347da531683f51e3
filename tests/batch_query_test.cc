// OneToManyEngine / ManyToManyDistances / KnnEngine: batch answers must
// equal pairwise index queries (which other suites pin to BFS/Dijkstra
// ground truth), and kNN must return the true k nearest in order.

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "labeling/builder.h"
#include "query/batch.h"
#include "query/knn.h"
#include "search/dijkstra.h"
#include "util/random.h"

namespace hopdb {
namespace {

struct Fixture {
  CsrGraph graph;  // rank-relabeled
  TwoHopIndex index;
};

Fixture BuildFixture(EdgeList edges) {
  auto base = CsrGraph::FromEdgeList(edges);
  base.status().CheckOK();
  RankMapping mapping = ComputeRanking(
      *base, base->directed() ? RankingPolicy::kInOutProduct
                              : RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*base, mapping);
  ranked.status().CheckOK();
  auto built = BuildHopLabeling(*ranked);
  built.status().CheckOK();
  return Fixture{std::move(*ranked), std::move(built->index)};
}

struct BatchCase {
  std::string name;
  bool directed;
  bool weighted;
  uint64_t seed;
};

std::string BatchCaseName(const ::testing::TestParamInfo<BatchCase>& info) {
  return info.param.name + (info.param.directed ? "_dir" : "_und") +
         (info.param.weighted ? "_wgt" : "_unw") + "_s" +
         std::to_string(info.param.seed);
}

EdgeList MakeGraph(const BatchCase& c) {
  EdgeList edges;
  if (c.name == "glp") {
    GlpOptions glp;
    glp.num_vertices = 140;
    glp.seed = c.seed;
    edges = c.directed ? GenerateDirectedGlp(glp).ValueOrDie()
                       : GenerateGlp(glp).ValueOrDie();
  } else {
    ErOptions er;
    er.num_vertices = 100;
    er.num_edges = 170;
    er.directed = c.directed;
    er.seed = c.seed;
    edges = GenerateErdosRenyi(er).ValueOrDie();
  }
  if (c.weighted) {
    AssignUniformWeights(&edges, 1, 9, DeriveSeed(c.seed, 11));
  }
  return edges;
}

class BatchSweepTest : public ::testing::TestWithParam<BatchCase> {};

TEST_P(BatchSweepTest, OneToManyMatchesPairwiseQueries) {
  Fixture fix = BuildFixture(MakeGraph(GetParam()));
  const VertexId n = fix.graph.num_vertices();
  Rng rng(GetParam().seed);
  std::vector<VertexId> targets;
  for (int i = 0; i < 25; ++i) {
    targets.push_back(static_cast<VertexId>(rng.Below(n)));
  }
  targets.push_back(targets.front());  // duplicate target positions

  OneToManyEngine engine(fix.index.labels(), targets);
  ASSERT_EQ(engine.targets().size(), targets.size());
  for (VertexId s = 0; s < n; ++s) {
    const std::vector<Distance> row = engine.Query(s);
    ASSERT_EQ(row.size(), targets.size());
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(row[j], fix.index.Query(s, targets[j]))
          << "s=" << s << " t=" << targets[j];
    }
  }
}

TEST_P(BatchSweepTest, ManyToManyMatchesPairwiseQueries) {
  Fixture fix = BuildFixture(MakeGraph(GetParam()));
  const VertexId n = fix.graph.num_vertices();
  Rng rng(GetParam().seed ^ 0x323);
  std::vector<VertexId> sources, targets;
  for (int i = 0; i < 12; ++i) {
    sources.push_back(static_cast<VertexId>(rng.Below(n)));
    targets.push_back(static_cast<VertexId>(rng.Below(n)));
  }
  const auto matrix =
      ManyToManyDistances(fix.index.labels(), sources, targets);
  ASSERT_EQ(matrix.size(), sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    for (size_t j = 0; j < targets.size(); ++j) {
      ASSERT_EQ(matrix[i][j], fix.index.Query(sources[i], targets[j]));
    }
  }
}

TEST_P(BatchSweepTest, KnnForwardMatchesSortedGroundTruth) {
  Fixture fix = BuildFixture(MakeGraph(GetParam()));
  const VertexId n = fix.graph.num_vertices();
  KnnEngine engine(fix.index.labels(), KnnEngine::Direction::kForward);
  Rng rng(GetParam().seed ^ 0x55);
  for (int round = 0; round < 8; ++round) {
    const VertexId s = static_cast<VertexId>(rng.Below(n));
    const uint32_t k = static_cast<uint32_t>(rng.Uniform(1, 20));
    const std::vector<Distance> truth = ExactDistances(fix.graph, s);

    std::vector<Distance> finite;
    for (VertexId v = 0; v < n; ++v) {
      if (v != s && truth[v] != kInfDistance) finite.push_back(truth[v]);
    }
    std::sort(finite.begin(), finite.end());

    const auto result = engine.Query(s, k);
    ASSERT_EQ(result.size(), std::min<size_t>(k, finite.size()));
    for (size_t i = 0; i < result.size(); ++i) {
      ASSERT_EQ(result[i].dist, finite[i]) << "rank " << i;  // order exact
      ASSERT_EQ(truth[result[i].vertex], result[i].dist);    // dist exact
    }
    // No duplicate vertices.
    std::vector<VertexId> ids;
    for (const auto& nb : result) ids.push_back(nb.vertex);
    std::sort(ids.begin(), ids.end());
    ASSERT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  }
}

TEST_P(BatchSweepTest, KnnBackwardMatchesReverseGroundTruth) {
  Fixture fix = BuildFixture(MakeGraph(GetParam()));
  const VertexId n = fix.graph.num_vertices();
  KnnEngine engine(fix.index.labels(), KnnEngine::Direction::kBackward);
  Rng rng(GetParam().seed ^ 0x66);
  for (int round = 0; round < 5; ++round) {
    const VertexId s = static_cast<VertexId>(rng.Below(n));
    const uint32_t k = 10;
    const std::vector<Distance> truth =
        ExactDistances(fix.graph, s, /*backward=*/true);
    std::vector<Distance> finite;
    for (VertexId v = 0; v < n; ++v) {
      if (v != s && truth[v] != kInfDistance) finite.push_back(truth[v]);
    }
    std::sort(finite.begin(), finite.end());

    const auto result = engine.Query(s, k);
    ASSERT_EQ(result.size(), std::min<size_t>(k, finite.size()));
    for (size_t i = 0; i < result.size(); ++i) {
      ASSERT_EQ(result[i].dist, finite[i]);
      ASSERT_EQ(truth[result[i].vertex], result[i].dist);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BatchSweep, BatchSweepTest,
    ::testing::Values(BatchCase{"glp", false, false, 21},
                      BatchCase{"glp", true, false, 22},
                      BatchCase{"glp", false, true, 23},
                      BatchCase{"glp", true, true, 24},
                      BatchCase{"er", false, false, 25},
                      BatchCase{"er", true, false, 26},
                      BatchCase{"er", true, true, 27}),
    BatchCaseName);

TEST(KnnEngineTest, IncludeSourceEmitsDistanceZeroFirst) {
  Fixture fix = BuildFixture(StarGraphGS());
  KnnEngine engine(fix.index.labels(), KnnEngine::Direction::kForward);
  const auto with = engine.Query(0, 3, /*include_source=*/true);
  ASSERT_FALSE(with.empty());
  ASSERT_EQ(with[0].vertex, 0u);
  ASSERT_EQ(with[0].dist, 0u);
  const auto without = engine.Query(0, 3);
  for (const auto& nb : without) ASSERT_NE(nb.vertex, 0u);
}

TEST(KnnEngineTest, KZeroAndOutOfRangeReturnEmpty) {
  Fixture fix = BuildFixture(PathGraph(5));
  KnnEngine engine(fix.index.labels(), KnnEngine::Direction::kForward);
  ASSERT_TRUE(engine.Query(0, 0).empty());
  ASSERT_TRUE(engine.Query(1000, 5).empty());
}

TEST(KnnEngineTest, DisconnectedComponentsAreNeverReturned) {
  Fixture fix = BuildFixture(TwoTriangles());
  KnnEngine engine(fix.index.labels(), KnnEngine::Direction::kForward);
  // Ask for more neighbors than the component holds: the other triangle
  // must not leak in.
  const auto result = engine.Query(0, 10);
  ASSERT_EQ(result.size(), 2u);  // the two other triangle vertices
  for (const auto& nb : result) ASSERT_LT(nb.vertex, 3u);
}

TEST(OneToManyEngineTest, OutOfRangeSourceIsUnreachable) {
  Fixture fix = BuildFixture(PathGraph(5));
  OneToManyEngine engine(fix.index.labels(), {0, 1, 2});
  const auto row = engine.Query(1000);
  ASSERT_EQ(row.size(), 3u);
  for (const Distance d : row) EXPECT_EQ(d, kInfDistance);
}

TEST(OneToManyEngineTest, OutOfRangeTargetsAreUnreachable) {
  Fixture fix = BuildFixture(PathGraph(5));
  OneToManyEngine engine(fix.index.labels(), {4, 1000, kInvalidVertex, 0});
  const auto row = engine.Query(2);
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], fix.index.Query(2, 4));
  EXPECT_EQ(row[1], kInfDistance);
  EXPECT_EQ(row[2], kInfDistance);
  EXPECT_EQ(row[3], fix.index.Query(2, 0));
}

TEST(KnnEngineTest, SingleVertexGraphHasNoNeighbors) {
  // One isolated edge pair keeps CsrGraph happy; vertex 2 is isolated.
  EdgeList edges(3, false);
  edges.Add(0, 1);
  edges.Normalize();
  Fixture fix = BuildFixture(std::move(edges));
  KnnEngine engine(fix.index.labels(), KnnEngine::Direction::kForward);
  EXPECT_TRUE(engine.Query(2, 5).empty());
  const auto with_self = engine.Query(2, 5, /*include_source=*/true);
  ASSERT_EQ(with_self.size(), 1u);
  EXPECT_EQ(with_self[0].dist, 0u);
}

TEST(OneToManyEngineTest, EmptyTargetsGiveEmptyRows) {
  Fixture fix = BuildFixture(PathGraph(4));
  OneToManyEngine engine(fix.index.labels(), {});
  ASSERT_TRUE(engine.Query(0).empty());
  ASSERT_EQ(engine.TotalBucketEntries(), 0u);
}

}  // namespace
}  // namespace hopdb
