// HotHubCache: the dense top-k pivot table must answer bit-identically
// to the general merge-join on every kernel, every k, and both label
// backings (heap flat store and mapped HLI2), including the tricky
// cases — hub-covered trivial pivots, labels entirely inside the hub
// prefix, and partial-block suffix starts.

#include <gtest/gtest.h>

#include <algorithm>

#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "labeling/builder.h"
#include "labeling/hot_hub.h"
#include "labeling/mapped_index.h"
#include "labeling/query_kernel.h"
#include "util/random.h"

namespace hopdb {
namespace {

struct Fixture {
  TwoHopIndex index;
  RankMapping mapping;
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
  return Fixture{std::move(built->index), std::move(mapping)};
}

EdgeList MakeGraph(bool directed, bool weighted, uint64_t seed) {
  GlpOptions glp;
  glp.num_vertices = 180;
  glp.seed = seed;
  EdgeList edges = directed ? GenerateDirectedGlp(glp).ValueOrDie()
                            : GenerateGlp(glp).ValueOrDie();
  if (weighted) AssignUniformWeights(&edges, 1, 150, DeriveSeed(seed, 5));
  return edges;
}

/// Reference answer over the same view the hub queries: the general
/// QueryFlatHalves path with the given kernel.
Distance Reference(const LabelSetView& view, VertexId s, VertexId t,
                   const QueryKernel& kernel) {
  return QueryFlatHalves(view.Out(s), view.In(t), s, t, kernel);
}

void ExpectIdentityOnView(const LabelSetView& view, uint64_t seed) {
  const VertexId n = view.num_vertices;
  // k sweep: disabled, tiny, one block, the serving default, beyond n.
  for (const uint32_t k :
       {uint32_t{1}, uint32_t{3}, uint32_t{16}, uint32_t{64}, n, n + 100}) {
    const HotHubCache hub = HotHubCache::Build(view, k);
    ASSERT_TRUE(hub.enabled());
    EXPECT_LE(hub.k(), n);
    EXPECT_GT(hub.SizeBytes(), 0u);
    for (const QueryKernel* kernel : SupportedQueryKernels()) {
      Rng rng(DeriveSeed(seed, k));
      for (int i = 0; i < 1500; ++i) {
        const VertexId s = rng.Below(n);
        const VertexId t = rng.Below(n);
        ASSERT_EQ(hub.Query(view, s, t, *kernel),
                  Reference(view, s, t, *kernel))
            << kernel->name << " k=" << k << " " << s << "->" << t;
      }
      // Every pair touching the hub pivots themselves (s or t < k is
      // where trivial pivots hide inside the skipped prefix).
      const VertexId hub_end = std::min<VertexId>(hub.k() + 2, n);
      for (VertexId s = 0; s < hub_end; ++s) {
        for (VertexId t = 0; t < hub_end; ++t) {
          ASSERT_EQ(hub.Query(view, s, t, *kernel),
                    Reference(view, s, t, *kernel))
              << kernel->name << " k=" << k << " " << s << "->" << t;
        }
      }
      // Degenerate endpoints.
      EXPECT_EQ(hub.Query(view, 2, 2, *kernel), 0u);
      EXPECT_EQ(hub.Query(view, n, 0, *kernel), kInfDistance);
      EXPECT_EQ(hub.Query(view, 0, n + 7, *kernel), kInfDistance);
    }
  }
}

TEST(HotHubTest, DisabledCacheAndZeroK) {
  EXPECT_FALSE(HotHubCache().enabled());
  Fixture fix = BuildFixture(MakeGraph(false, false, 11));
  const HotHubCache hub = HotHubCache::Build(fix.index.labels(), 0);
  EXPECT_FALSE(hub.enabled());
  EXPECT_EQ(hub.SizeBytes(), 0u);
}

TEST(HotHubTest, MatchesMergeJoinOnBlockedHeapStoreUndirected) {
  Fixture fix = BuildFixture(MakeGraph(false, false, 21));
  ExpectIdentityOnView(fix.index.labels(), 210);
}

TEST(HotHubTest, MatchesMergeJoinOnBlockedHeapStoreDirectedWeighted) {
  Fixture fix = BuildFixture(MakeGraph(true, true, 22));
  ExpectIdentityOnView(fix.index.labels(), 220);
}

TEST(HotHubTest, MatchesMergeJoinOnUnblockedView) {
  // Null out the sidecars: the suffix merge must take the exact-skip
  // flat path and still agree everywhere.
  Fixture fix = BuildFixture(MakeGraph(true, false, 23));
  LabelSetView view = fix.index.labels();
  view.block_min = nullptr;
  view.block_max = nullptr;
  ExpectIdentityOnView(view, 230);
}

TEST(HotHubTest, MatchesMergeJoinOverMappedV2Index) {
  Fixture fix = BuildFixture(MakeGraph(true, true, 24));
  TempDir dir = TempDir::Create("hot_hub").ValueOrDie();
  const std::string path = dir.File("index.hli2");
  ASSERT_TRUE(MappedIndex::Write(fix.index, fix.mapping, path).ok());
  auto mapped = MappedIndex::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectIdentityOnView(mapped->labels(), 240);

  // And against the mapped index's own (original-id) query path: hub
  // answers over internal ids must round-trip through the permutation.
  const HotHubCache hub = HotHubCache::Build(mapped->labels(), 32);
  Rng rng(77);
  const VertexId n = mapped->num_vertices();
  for (int i = 0; i < 2000; ++i) {
    const VertexId s = rng.Below(n);
    const VertexId t = rng.Below(n);
    ASSERT_EQ(hub.Query(mapped->labels(), mapped->ToInternal(s),
                        mapped->ToInternal(t)),
              mapped->Query(s, t))
        << s << "->" << t;
  }
}

}  // namespace
}  // namespace hopdb
