// FlatLabelStore: a frozen store reproduces the label vectors it was
// built from, degenerate inputs freeze cleanly, and a TwoHopIndex that
// goes through HLI1 save/load re-freezes an identical store.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "labeling/builder.h"
#include "labeling/flat_label_store.h"
#include "labeling/two_hop_index.h"
#include "util/random.h"

namespace hopdb {
namespace {

LabelVector RandomLabel(Rng* rng, VertexId pivot_space, size_t max_len) {
  std::map<VertexId, Distance> entries;
  const size_t len = rng->Below(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    entries.emplace(static_cast<VertexId>(rng->Below(pivot_space)),
                    static_cast<Distance>(rng->Uniform(1, 200)));
  }
  LabelVector out;
  for (auto [p, d] : entries) out.push_back({p, d});
  return out;
}

void ExpectViewsEqual(const LabelSetView& a, const LabelSetView& b) {
  ASSERT_EQ(a.num_vertices, b.num_vertices);
  ASSERT_EQ(a.directed, b.directed);
  auto check_view = [](FlatLabelStore::View va, FlatLabelStore::View vb,
                       VertexId v, const char* side) {
    ASSERT_EQ(va.size, vb.size) << side << " label of " << v;
    for (uint32_t i = 0; i < va.size; ++i) {
      ASSERT_EQ(va.pivots[i], vb.pivots[i]) << side << " label of " << v;
      ASSERT_EQ(va.dists[i], vb.dists[i]) << side << " label of " << v;
    }
  };
  for (VertexId v = 0; v < a.num_vertices; ++v) {
    check_view(a.Out(v), b.Out(v), v, "out");
    check_view(a.In(v), b.In(v), v, "in");
  }
}

void ExpectMatchesVectors(const FlatLabelStore& store,
                          const std::vector<LabelVector>& out,
                          const std::vector<LabelVector>& in) {
  ASSERT_EQ(store.num_vertices(), out.size());
  for (VertexId v = 0; v < store.num_vertices(); ++v) {
    const FlatLabelStore::View view = store.Out(v);
    ASSERT_EQ(view.size, out[v].size()) << "out label of " << v;
    for (uint32_t i = 0; i < view.size; ++i) {
      ASSERT_EQ(view.pivots[i], out[v][i].pivot);
      ASSERT_EQ(view.dists[i], out[v][i].dist);
    }
    const std::vector<LabelVector>& in_side = store.directed() ? in : out;
    const FlatLabelStore::View iview = store.In(v);
    ASSERT_EQ(iview.size, in_side[v].size()) << "in label of " << v;
    for (uint32_t i = 0; i < iview.size; ++i) {
      ASSERT_EQ(iview.pivots[i], in_side[v][i].pivot);
      ASSERT_EQ(iview.dists[i], in_side[v][i].dist);
    }
  }
}

std::vector<LabelVector> RandomLabels(Rng* rng, VertexId nv, size_t max_len) {
  std::vector<LabelVector> labels(nv);
  for (VertexId v = 0; v < nv; ++v) {
    labels[v] = RandomLabel(rng, nv, max_len);
  }
  return labels;
}

TEST(FlatLabelStoreTest, BuildMatchesVectors) {
  Rng rng(11);
  const auto out = RandomLabels(&rng, 50, 16);
  ExpectMatchesVectors(FlatLabelStore::Build(out, {}, false), out, {});
  const auto in = RandomLabels(&rng, 50, 16);
  ExpectMatchesVectors(FlatLabelStore::Build(out, in, true), out, in);
}

TEST(FlatLabelStoreTest, DegenerateStores) {
  // No vertices at all.
  const FlatLabelStore empty = FlatLabelStore::Build({}, {}, false);
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.TotalEntries(), 0u);
  EXPECT_EQ(empty.view().offsets[0], 0u);

  // A default-constructed store is an empty set too.
  const FlatLabelStore unset_store;
  const LabelSetView unset = unset_store.view();
  EXPECT_EQ(unset.num_vertices, 0u);
  EXPECT_EQ(unset.offsets[0], 0u);

  // Vertices with all-empty labels.
  const FlatLabelStore blank =
      FlatLabelStore::Build(std::vector<LabelVector>(5), {}, false);
  EXPECT_EQ(blank.TotalEntries(), 0u);
  EXPECT_EQ(blank.Out(3).size, 0u);

  // A single one-entry label, padded to one block.
  std::vector<LabelVector> one(2);
  one[1] = {{0, 7}};
  const FlatLabelStore single = FlatLabelStore::Build(one, {}, false);
  ExpectMatchesVectors(single, one, {});
  EXPECT_EQ(single.PaddedEntries(), kLabelBlockEntries);
}

// Full pipeline: build labels with the real builder over a GLP graph,
// check the frozen store against the vectors, then require the HLI1
// round trip to re-freeze an identical store with identical answers.
TEST(FlatLabelStoreTest, BuilderToFlatToReload) {
  GlpOptions glp;
  glp.num_vertices = 300;
  glp.target_avg_degree = 4;
  glp.seed = 5;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok()) << edges.status();
  auto graph = CsrGraph::FromEdgeList(*edges);
  ASSERT_TRUE(graph.ok()) << graph.status();
  auto ranked =
      RelabelByRank(*graph, ComputeRanking(*graph, RankingPolicy::kDegree));
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  auto built = BuildHopLabeling(*ranked);
  ASSERT_TRUE(built.ok()) << built.status();
  TwoHopIndex index = std::move(built->index);

  std::vector<LabelVector> out(index.num_vertices());
  for (VertexId v = 0; v < index.num_vertices(); ++v) {
    out[v].assign(index.OutLabel(v).begin(), index.OutLabel(v).end());
  }
  ExpectViewsEqual(index.labels(),
                   FlatLabelStore::Build(out, {}, false).view());

  auto dir = TempDir::Create("flat_store_pipeline");
  ASSERT_TRUE(dir.ok()) << dir.status();
  const std::string hli_path = dir->File("labels.hli");
  std::vector<VertexId> order(index.num_vertices());
  std::iota(order.begin(), order.end(), 0u);
  ASSERT_TRUE(index.Save(hli_path, RankingFromOrder(order)).ok());
  RankMapping ranking;
  auto reloaded = TwoHopIndex::Load(hli_path, &ranking);
  EXPECT_EQ(ranking.rank_to_orig, order);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ExpectViewsEqual(index.labels(), reloaded->labels());

  Rng rng(31);
  for (int q = 0; q < 2000; ++q) {
    const VertexId s = static_cast<VertexId>(rng.Below(index.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.Below(index.num_vertices()));
    ASSERT_EQ(index.Query(s, t), reloaded->Query(s, t));
  }
}

}  // namespace
}  // namespace hopdb
