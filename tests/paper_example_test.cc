// Fixture tests pinning the implementation to the paper's own worked
// examples: the Figure 3 graph with its Figure 5 labeling (Example 1),
// the pruning of (2->1,2) (Example 2), Hop-Stepping's deferral of
// (4->2,4) (Example 3), and the hand-made 2-hop covers of Tables 3/4.

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/verify.h"
#include "gen/small_graphs.h"
#include "labeling/builder.h"
#include "labeling/query_kernel.h"
#include "search/bfs.h"

namespace hopdb {
namespace {

LabelVector Sorted(std::vector<LabelEntry> v) {
  std::sort(v.begin(), v.end(), [](const LabelEntry& a, const LabelEntry& b) {
    return a.pivot < b.pivot;
  });
  return v;
}

void ExpectLabel(const LabelView& got,
                 std::vector<LabelEntry> want, const std::string& what) {
  LabelVector w = Sorted(std::move(want));
  ASSERT_EQ(got.size(), w.size()) << what;
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(got[i].pivot, w[i].pivot) << what << " entry " << i;
    EXPECT_EQ(got[i].dist, w[i].dist) << what << " entry " << i;
  }
}

// --- Example 1 / Figure 5: Hop-Doubling WITHOUT pruning contains every
// label entry the figure prints, at the printed distance. (The arXiv
// rendering of Figure 5 drops some entries — e.g. Lout(7) must also hold
// (0,2) for dist(7,0)=2 to be answerable at all, as objective [O1]
// demands for the trough path 7->2->0 — so this is a superset check; the
// prose-listed generation events of Example 1 are asserted exactly.)
TEST(PaperExampleTest, Figure5LabelsWithoutPruning) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  BuildOptions opts;
  opts.mode = BuildMode::kHopDoubling;
  opts.prune = false;
  auto out = BuildHopLabeling(*g, opts);
  ASSERT_TRUE(out.ok());
  const TwoHopIndex& idx = out->index;

  auto expect_contains = [&](const LabelView& label,
                             std::vector<LabelEntry> want,
                             const std::string& what) {
    for (const LabelEntry& e : want) {
      EXPECT_EQ(LookupPivotFlat(label.flat(), e.pivot), e.dist)
          << what << " must contain (" << e.pivot << ", " << e.dist << ")";
    }
  };
  expect_contains(idx.InLabel(1), {{0, 1}}, "Lin(1)");
  expect_contains(idx.InLabel(3), {{2, 1}}, "Lin(3)");
  expect_contains(idx.InLabel(5), {{4, 1}}, "Lin(5)");
  expect_contains(idx.InLabel(6), {{0, 1}, {2, 1}}, "Lin(6)");
  expect_contains(idx.InLabel(7), {{3, 1}, {2, 2}}, "Lin(7)");
  expect_contains(idx.OutLabel(1), {{0, 1}}, "Lout(1)");
  expect_contains(idx.OutLabel(2), {{0, 1}, {1, 2}}, "Lout(2)");
  expect_contains(idx.OutLabel(3), {{1, 1}, {2, 2}, {0, 2}}, "Lout(3)");
  expect_contains(idx.OutLabel(4), {{0, 1}, {1, 1}, {3, 2}, {2, 4}},
                  "Lout(4)");
  expect_contains(idx.OutLabel(5), {{3, 1}, {1, 2}, {2, 3}, {0, 3}},
                  "Lout(5)");
  expect_contains(idx.OutLabel(7), {{2, 1}}, "Lout(7)");

  // The top-ranked vertex never holds non-trivial labels.
  ExpectLabel(idx.InLabel(0), {}, "Lin(0)");
  ExpectLabel(idx.OutLabel(0), {}, "Lout(0)");
  // Objective [O1] entries the figure's rendering lost: 7->2->0 and
  // 6 has no outgoing edges, so Lout(6) stays empty.
  EXPECT_EQ(LookupPivotFlat(idx.OutLabel(7).flat(), 0), 2u);
  ExpectLabel(idx.OutLabel(6), {}, "Lout(6)");
}

// --- Example 1's iteration accounting: "In the third iteration, no new
// label entry is generated and the labeling is completed."
TEST(PaperExampleTest, DoublingFinishesInThreeIterations) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  BuildOptions opts;
  opts.mode = BuildMode::kHopDoubling;
  opts.prune = false;
  auto out = BuildHopLabeling(*g, opts);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->stats.num_rule_iterations, 3u);
  EXPECT_GT(out->stats.iterations[0].survivors, 0u);
  EXPECT_GT(out->stats.iterations[1].survivors, 0u);
  EXPECT_EQ(out->stats.iterations[2].survivors, 0u);
}

// --- Example 2: with pruning, (2 -> 1, 2) is pruned by (2 -> 0, 1) and
// (0 -> 1, 1).
TEST(PaperExampleTest, PruningRemovesDominatedEntry) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  BuildOptions opts;
  opts.mode = BuildMode::kHopDoubling;
  opts.prune = true;
  auto out = BuildHopLabeling(*g, opts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(LookupPivotFlat(out->index.OutLabel(2).flat(), 1),
            kInfDistance)
      << "(2->1,2) must be pruned (Example 2)";
  // Queries remain exact.
  ASSERT_TRUE(VerifyExactDistances(
                  *g,
                  [&](VertexId s, VertexId t) {
                    return out->index.Query(s, t);
                  })
                  .ok());
  // And the pruned index is no larger than the unpruned one.
  BuildOptions noprune = opts;
  noprune.prune = false;
  auto full = BuildHopLabeling(*g, noprune);
  ASSERT_TRUE(full.ok());
  EXPECT_LT(out->index.TotalEntries(), full->index.TotalEntries());
}

// --- Example 3: under Hop-Stepping, (4 -> 2, 4) appears only at
// iteration 3 (from (4->5,1) + (5->2,3)), not at iteration 2.
TEST(PaperExampleTest, SteppingGeneratesLongEntryAtIterationThree) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  BuildOptions opts;
  opts.mode = BuildMode::kHopStepping;
  opts.prune = false;
  auto out = BuildHopLabeling(*g, opts);
  ASSERT_TRUE(out.ok());
  // The entry exists in the final labels with distance 4...
  EXPECT_EQ(LookupPivotFlat(out->index.OutLabel(4).flat(), 2), 4u);
  // ...and stepping needs one more productive iteration than doubling:
  // paths of 3 hops complete at iteration 3 (Lemma 5), so the build runs
  // 4 rule iterations (the last one generating nothing).
  ASSERT_EQ(out->stats.num_rule_iterations, 4u);
  EXPECT_GT(out->stats.iterations[2].survivors, 0u);
  EXPECT_EQ(out->stats.iterations[3].survivors, 0u);
}

// --- Stepping + pruning and doubling + pruning agree on the final index
// for the paper graph.
TEST(PaperExampleTest, SteppingAndDoublingAgree) {
  auto g = CsrGraph::FromEdgeList(PaperExampleGraph());
  ASSERT_TRUE(g.ok());
  BuildOptions a, b;
  a.mode = BuildMode::kHopStepping;
  b.mode = BuildMode::kHopDoubling;
  auto ia = BuildHopLabeling(*g, a);
  auto ib = BuildHopLabeling(*g, b);
  ASSERT_TRUE(ia.ok());
  ASSERT_TRUE(ib.ok());
  for (VertexId v = 0; v < 8; ++v) {
    ExpectLabel(ia->index.OutLabel(v),
                LabelVector(ib->index.OutLabel(v).begin(),
                            ib->index.OutLabel(v).end()),
                "Lout(" + std::to_string(v) + ")");
    ExpectLabel(ia->index.InLabel(v),
                LabelVector(ib->index.InLabel(v).begin(),
                            ib->index.InLabel(v).end()),
                "Lin(" + std::to_string(v) + ")");
  }
}

// --- Table 1: the paper's first (larger) minimal cover for GR answers
// every query exactly.
TEST(PaperExampleTest, Table1RoadCoverIsExact) {
  auto g = CsrGraph::FromEdgeList(RoadGraphGR());
  ASSERT_TRUE(g.ok());
  std::vector<LabelVector> labels(5);
  labels[0] = {{1, 1}, {2, 2}, {3, 1}, {4, 1}};  // L(a)
  labels[1] = {{2, 1}, {3, 2}, {4, 2}};          // L(b)
  labels[2] = {{4, 3}};                          // L(c)
  labels[3] = {{2, 3}};                          // L(d)
  labels[4] = {{3, 2}};                          // L(e)
  TwoHopIndex idx(std::move(labels), {}, /*directed=*/false);
  ASSERT_TRUE(VerifyExactDistances(
                  *g, [&](VertexId s, VertexId t) { return idx.Query(s, t); })
                  .ok());
}

// --- Tables 3 and 4: the paper's hand-made small covers answer every
// query exactly (validates the query semantics the paper assumes).
TEST(PaperExampleTest, Table3RoadCoverIsExact) {
  auto g = CsrGraph::FromEdgeList(RoadGraphGR());
  ASSERT_TRUE(g.ok());
  std::vector<LabelVector> labels(5);
  labels[1] = {{0, 1}};          // L(b) = {(a,1)}
  labels[2] = {{0, 2}, {1, 1}};  // L(c) = {(a,2),(b,1)}
  labels[3] = {{0, 1}};          // L(d) = {(a,1)}
  labels[4] = {{0, 1}};          // L(e) = {(a,1)}
  TwoHopIndex idx(std::move(labels), {}, /*directed=*/false);
  ASSERT_TRUE(VerifyExactDistances(
                  *g, [&](VertexId s, VertexId t) { return idx.Query(s, t); })
                  .ok());
}

TEST(PaperExampleTest, Table4StarCoverIsExact) {
  auto g = CsrGraph::FromEdgeList(StarGraphGS());
  ASSERT_TRUE(g.ok());
  std::vector<LabelVector> labels(6);
  for (VertexId v = 1; v <= 5; ++v) labels[v] = {{0, 1}};
  TwoHopIndex idx(std::move(labels), {}, /*directed=*/false);
  ASSERT_TRUE(VerifyExactDistances(
                  *g, [&](VertexId s, VertexId t) { return idx.Query(s, t); })
                  .ok());
}

// --- The canonical index for the star graph under degree ranking IS the
// Table 4 cover (one entry per leaf).
TEST(PaperExampleTest, StarGraphYieldsHubLabeling) {
  auto g = CsrGraph::FromEdgeList(StarGraphGS());
  ASSERT_TRUE(g.ok());
  auto out = BuildHopLabeling(*g, BuildOptions{});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->index.TotalEntries(), 5u);
  for (VertexId v = 1; v <= 5; ++v) {
    ExpectLabel(out->index.OutLabel(v), {{0, 1}},
                "L(" + std::to_string(v) + ")");
  }
}

}  // namespace
}  // namespace hopdb
