// FlatLabelStore: a frozen store reproduces the label vectors it was
// built from, packs them end to end with all-ones tail lanes and nothing
// else (its SizeBytes is its entries, offsets and tail), picks its
// distance-lane width from them, degenerate inputs freeze cleanly, and a
// TwoHopIndex that goes through HLI1 save/load re-freezes an identical
// store.

#include <gtest/gtest.h>

#include <algorithm>
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
      ASSERT_EQ(va.dist(i), vb.dist(i)) << side << " label of " << v;
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
      ASSERT_EQ(view.dist(i), out[v][i].dist);
    }
    const std::vector<LabelVector>& in_side = store.directed() ? in : out;
    const FlatLabelStore::View iview = store.In(v);
    ASSERT_EQ(iview.size, in_side[v].size()) << "in label of " << v;
    for (uint32_t i = 0; i < iview.size; ++i) {
      ASSERT_EQ(iview.pivots[i], in_side[v][i].pivot);
      ASSERT_EQ(iview.dist(i), in_side[v][i].dist);
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

/// The store holds its real entries and nothing else: each slot starts
/// where the one before it ends, the kLabelBlockEntries lanes past the
/// last slot read as all-ones pivots and kInfDistance, and SizeBytes is
/// (4 + dist_width) bytes a lane, entries and tail, plus 8 an offset.
void ExpectPackedWithTail(const FlatLabelStore& store) {
  const LabelSetView view = store.view();
  const size_t slots = view.num_slots();
  uint64_t entries = 0;
  for (size_t s = 0; s < slots; ++s) {
    const FlatLabelStore::View label = view.Slot(s);
    ASSERT_EQ(label.pivots, view.pivots + entries) << "slot " << s;
    ASSERT_EQ(label.dists, view.dists + entries * view.dist_width)
        << "slot " << s;
    entries += label.size;
  }
  ASSERT_EQ(store.TotalEntries(), entries);
  ASSERT_EQ(view.offsets[slots], entries);
  const FlatLabelStore::View tail{view.pivots + entries,
                                  view.dists + entries * view.dist_width,
                                  kLabelBlockEntries, view.dist_width};
  for (uint32_t i = 0; i < kLabelBlockEntries; ++i) {
    ASSERT_EQ(tail.pivots[i], kInvalidVertex) << "tail lane " << i;
    ASSERT_EQ(tail.dist(i), kInfDistance) << "tail lane " << i;
  }
  const uint64_t lane_bytes = 4 + store.dist_width();
  EXPECT_EQ(store.SizeBytes(), lane_bytes * entries + 8 * (slots + 1) +
                                   lane_bytes * kLabelBlockEntries);
}

TEST(FlatLabelStoreTest, BuildMatchesVectors) {
  Rng rng(11);
  const auto out = RandomLabels(&rng, 50, 16);
  const FlatLabelStore undirected = FlatLabelStore::Build(out, {}, false);
  ExpectMatchesVectors(undirected, out, {});
  ExpectPackedWithTail(undirected);
  const auto in = RandomLabels(&rng, 50, 16);
  const FlatLabelStore directed = FlatLabelStore::Build(out, in, true);
  ExpectMatchesVectors(directed, out, in);
  ExpectPackedWithTail(directed);
}

TEST(FlatLabelStoreTest, DegenerateStores) {
  // No vertices at all: one offset and the tail.
  const FlatLabelStore empty = FlatLabelStore::Build({}, {}, false);
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.TotalEntries(), 0u);
  EXPECT_EQ(empty.view().offsets[0], 0u);
  ExpectPackedWithTail(empty);

  // A default-constructed store is an empty set too.
  const FlatLabelStore unset_store;
  const LabelSetView unset = unset_store.view();
  EXPECT_EQ(unset.num_vertices, 0u);
  EXPECT_EQ(unset.offsets[0], 0u);
  ExpectPackedWithTail(unset_store);

  // Vertices with all-empty labels.
  const FlatLabelStore blank =
      FlatLabelStore::Build(std::vector<LabelVector>(5), {}, false);
  EXPECT_EQ(blank.TotalEntries(), 0u);
  EXPECT_EQ(blank.Out(3).size, 0u);
  ExpectPackedWithTail(blank);

  // A single one-entry label takes one entry's lanes, beside the tail.
  std::vector<LabelVector> one(2);
  one[1] = {{0, 7}};
  const FlatLabelStore single = FlatLabelStore::Build(one, {}, false);
  ExpectMatchesVectors(single, one, {});
  ExpectPackedWithTail(single);
  EXPECT_EQ(single.view().offsets[2], 1u);
}

// The freeze sizes the distance lanes from the labels alone: one byte
// while every distance is at most 127, four once a distance of 128
// arrives — here in the last slot, after narrow slots were filled, so
// the widening re-lays them and the tail — and one byte for a store with
// no entries.
TEST(FlatLabelStoreTest, LaneWidthComesFromTheLabels) {
  std::vector<LabelVector> narrow(4);
  narrow[1] = {{0, 127}};
  narrow[2] = {{0, 1}, {1, 127}};
  narrow[3] = {{0, 3}, {1, 2}, {2, 127}};
  const FlatLabelStore one = FlatLabelStore::Build(narrow, {}, false);
  EXPECT_EQ(one.dist_width(), 1u);
  EXPECT_EQ(one.view().dist_width, 1u);
  ExpectMatchesVectors(one, narrow, {});
  ExpectPackedWithTail(one);

  std::vector<LabelVector> wide = narrow;
  wide[3][1].dist = 128;
  const FlatLabelStore four = FlatLabelStore::Build(wide, {}, false);
  EXPECT_EQ(four.dist_width(), 4u);
  EXPECT_EQ(four.view().dist_width, 4u);
  ExpectMatchesVectors(four, wide, {});
  ExpectPackedWithTail(four);
  // Same slots, same pivots: only the distance lanes grow, 3 B a lane,
  // the tail's included.
  EXPECT_EQ(four.SizeBytes() - one.SizeBytes(),
            3 * (one.TotalEntries() + kLabelBlockEntries));

  // The first slot widens before any lane is filled; directed stores
  // widen across both sides.
  std::vector<LabelVector> in(4);
  in[0] = {{2, 200}};
  in[1] = {{0, 5}};
  const FlatLabelStore directed = FlatLabelStore::Build(narrow, in, true);
  EXPECT_EQ(directed.dist_width(), 4u);
  ExpectMatchesVectors(directed, narrow, in);
  ExpectPackedWithTail(directed);

  EXPECT_EQ(FlatLabelStore::Build({}, {}, false).dist_width(), 1u);
  EXPECT_EQ(FlatLabelStore().dist_width(), 1u);
  EXPECT_EQ(
      FlatLabelStore::Build(std::vector<LabelVector>(3), {}, false)
          .dist_width(),
      1u);
}

// Random stores at either width: the slots stay packed and the tail
// all ones after any widening, and LabelView yields the stored entries.
TEST(FlatLabelStoreTest, RandomStoresAtBothWidths) {
  Rng rng(17);
  for (int round = 0; round < 20; ++round) {
    std::vector<LabelVector> out = RandomLabels(&rng, 40, 40);
    // Without a distance above 127, or with one in a random slot.
    for (LabelVector& label : out) {
      for (LabelEntry& e : label) e.dist = e.dist % 127 + 1;
    }
    const bool widen = round % 2 == 1;
    if (widen) {
      LabelVector& label = out[rng.Below(out.size())];
      if (label.empty()) label.push_back({0, 128});
      label[rng.Below(label.size())].dist = 128;
    }
    const FlatLabelStore store = FlatLabelStore::Build(out, {}, false);
    ASSERT_EQ(store.dist_width(), widen ? 4u : 1u);
    ExpectMatchesVectors(store, out, {});
    ExpectPackedWithTail(store);
    for (VertexId v = 0; v < store.num_vertices(); ++v) {
      const LabelView label(store.Out(v));
      ASSERT_TRUE(std::equal(label.begin(), label.end(), out[v].begin(),
                             out[v].end()));
    }
  }
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
