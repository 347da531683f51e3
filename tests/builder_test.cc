#include "labeling/builder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/verify.h"
#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "search/dijkstra.h"
#include "util/random.h"
#include "util/timer.h"

namespace hopdb {
namespace {

Result<CsrGraph> RankedGraph(const EdgeList& edges) {
  HOPDB_ASSIGN_OR_RETURN(CsrGraph g, CsrGraph::FromEdgeList(edges));
  RankMapping m = ComputeRanking(
      g, g.directed() ? RankingPolicy::kInOutProduct : RankingPolicy::kDegree);
  return RelabelByRank(g, m);
}

void ExpectExact(const CsrGraph& ranked, const TwoHopIndex& idx) {
  ASSERT_TRUE(VerifyExactDistances(
                  ranked,
                  [&](VertexId s, VertexId t) { return idx.Query(s, t); })
                  .ok());
}

TEST(BuilderTest, EmptyGraph) {
  EdgeList e(0, false);
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  auto out = BuildHopLabeling(*g, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->index.TotalEntries(), 0u);
}

TEST(BuilderTest, SingleVertex) {
  EdgeList e(1, false);
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  auto out = BuildHopLabeling(*g, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->index.Query(0, 0), 0u);
}

TEST(BuilderTest, SingleEdgeDirected) {
  EdgeList e(2, true);
  e.Add(0, 1);
  e.Normalize();
  auto g = CsrGraph::FromEdgeList(e);
  ASSERT_TRUE(g.ok());
  auto out = BuildHopLabeling(*g, {});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->index.Query(0, 1), 1u);
  EXPECT_EQ(out->index.Query(1, 0), kInfDistance);
}

TEST(BuilderTest, PathGraphExactAllModes) {
  auto ranked = RankedGraph(PathGraph(30));
  ASSERT_TRUE(ranked.ok());
  for (BuildMode mode : {BuildMode::kHopStepping, BuildMode::kHopDoubling,
                         BuildMode::kHybrid}) {
    BuildOptions opts;
    opts.mode = mode;
    auto out = BuildHopLabeling(*ranked, opts);
    ASSERT_TRUE(out.ok()) << BuildModeName(mode);
    ExpectExact(*ranked, out->index);
    EXPECT_TRUE(out->index.Validate(/*ranked=*/true).ok());
  }
}

TEST(BuilderTest, IterationBoundsMatchTheorems) {
  // Path of 33 vertices: hop diameter DH = 32. Stepping needs <= DH
  // iterations (Thm. 6); doubling <= 2*ceil(log2 DH) (Thm. 4); both plus
  // the final empty iteration in our counting.
  auto ranked = RankedGraph(PathGraph(33));
  ASSERT_TRUE(ranked.ok());
  BuildOptions step;
  step.mode = BuildMode::kHopStepping;
  auto s = BuildHopLabeling(*ranked, step);
  ASSERT_TRUE(s.ok());
  EXPECT_LE(s->stats.num_rule_iterations, 33u);
  BuildOptions dbl;
  dbl.mode = BuildMode::kHopDoubling;
  auto d = BuildHopLabeling(*ranked, dbl);
  ASSERT_TRUE(d.ok());
  EXPECT_LE(d->stats.num_rule_iterations, 2u * 5u + 1u);
  EXPECT_LT(d->stats.num_rule_iterations, s->stats.num_rule_iterations);
}

TEST(BuilderTest, DisconnectedGraph) {
  auto ranked = RankedGraph(TwoTriangles());
  ASSERT_TRUE(ranked.ok());
  auto out = BuildHopLabeling(*ranked, {});
  ASSERT_TRUE(out.ok());
  ExpectExact(*ranked, out->index);
}

TEST(BuilderTest, CompleteGraph) {
  auto ranked = RankedGraph(CompleteGraph(12));
  ASSERT_TRUE(ranked.ok());
  auto out = BuildHopLabeling(*ranked, {});
  ASSERT_TRUE(out.ok());
  ExpectExact(*ranked, out->index);
  // Every edge of K_n is the unique shortest path for its pair, so the
  // canonical labeling keeps all n(n-1)/2 edge entries (no 2-hop witness
  // of length <= 1 exists) — the same index PLL would build.
  EXPECT_EQ(out->index.TotalEntries(), 66u);
}

TEST(BuilderTest, GridGraphExact) {
  auto ranked = RankedGraph(GridGraph(7, 9));
  ASSERT_TRUE(ranked.ok());
  auto out = BuildHopLabeling(*ranked, {});
  ASSERT_TRUE(out.ok());
  ExpectExact(*ranked, out->index);
}

TEST(BuilderTest, WeightedGraphExact) {
  EdgeList e = GridGraph(6, 6);
  AssignUniformWeights(&e, 1, 9, 77);
  auto ranked = RankedGraph(e);
  ASSERT_TRUE(ranked.ok());
  for (BuildMode mode : {BuildMode::kHopStepping, BuildMode::kHopDoubling,
                         BuildMode::kHybrid}) {
    BuildOptions opts;
    opts.mode = mode;
    auto out = BuildHopLabeling(*ranked, opts);
    ASSERT_TRUE(out.ok()) << BuildModeName(mode);
    ExpectExact(*ranked, out->index);
  }
}

TEST(BuilderTest, WeightedDirectedExact) {
  ErOptions er;
  er.num_vertices = 120;
  er.num_edges = 500;
  er.directed = true;
  er.seed = 3;
  auto edges = GenerateErdosRenyi(er);
  ASSERT_TRUE(edges.ok());
  AssignUniformWeights(&*edges, 1, 7, 5);
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  auto out = BuildHopLabeling(*ranked, {});
  ASSERT_TRUE(out.ok());
  ExpectExact(*ranked, out->index);
}

TEST(BuilderTest, HybridSwitchPointsAgree) {
  GlpOptions glp;
  glp.num_vertices = 600;
  glp.seed = 21;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  for (uint32_t switch_at : {1u, 2u, 5u, 10u}) {
    BuildOptions opts;
    opts.mode = BuildMode::kHybrid;
    opts.hybrid_switch_iteration = switch_at;
    auto out = BuildHopLabeling(*ranked, opts);
    ASSERT_TRUE(out.ok()) << "switch at " << switch_at;
    ExpectExact(*ranked, out->index);
  }
}

TEST(BuilderTest, PruneWithCandidatesOffStillExact) {
  GlpOptions glp;
  glp.num_vertices = 400;
  glp.seed = 23;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.prune_with_candidates = false;
  auto out = BuildHopLabeling(*ranked, opts);
  ASSERT_TRUE(out.ok());
  ExpectExact(*ranked, out->index);
  // Weaker witnesses can only give a bigger-or-equal index.
  auto strong = BuildHopLabeling(*ranked, BuildOptions{});
  ASSERT_TRUE(strong.ok());
  EXPECT_GE(out->index.TotalEntries(), strong->index.TotalEntries());
}

TEST(BuilderTest, PruningShrinksScaleFreeIndexMassively) {
  GlpOptions glp;
  glp.num_vertices = 1500;
  glp.seed = 25;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions with, without;
  without.prune = false;
  without.max_iterations = 6;  // unpruned label sets explode; cap work
  auto a = BuildHopLabeling(*ranked, with);
  auto b = BuildHopLabeling(*ranked, without);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(a->index.TotalEntries() * 2, b->index.TotalEntries());
}

TEST(BuilderTest, DeadlineAborts) {
  GlpOptions glp;
  glp.num_vertices = 30000;
  glp.target_avg_degree = 8;
  glp.seed = 27;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.time_budget_seconds = 1e-6;
  auto out = BuildHopLabeling(*ranked, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded());
}

TEST(BuilderTest, CandidateCapAborts) {
  GlpOptions glp;
  glp.num_vertices = 5000;
  glp.target_avg_degree = 8;
  glp.seed = 29;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.max_candidates_per_iteration = 10;
  auto out = BuildHopLabeling(*ranked, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted());
}

TEST(BuilderTest, DeadlineTripsMidGeneration) {
  // A random vertex order on a scale-free graph makes single iterations
  // explode; the deadline must be honored INSIDE candidate generation,
  // not just between phases. Regression test: this used to run for
  // minutes (and gigabytes) past the budget.
  GlpOptions glp;
  glp.num_vertices = 20000;
  glp.target_avg_degree = 8;
  glp.seed = 57;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto base = CsrGraph::FromEdgeList(*edges);
  ASSERT_TRUE(base.ok());
  std::vector<VertexId> order(base->num_vertices());
  Rng rng(4);
  for (VertexId v = 0; v < base->num_vertices(); ++v) order[v] = v;
  for (VertexId i = base->num_vertices(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  auto ranked = RelabelByRank(*base, RankingFromOrder(std::move(order)));
  ASSERT_TRUE(ranked.ok());

  BuildOptions opts;
  opts.time_budget_seconds = 0.3;
  Stopwatch watch;
  auto out = BuildHopLabeling(*ranked, opts);
  const double elapsed = watch.Seconds();
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsDeadlineExceeded());
  // Generous slack for slow CI, but far below the unbounded-iteration
  // regime this guards against.
  EXPECT_LT(elapsed, 10.0);
}

TEST(BuilderTest, CandidateCapTripsMidGenerationInBoundedMemory) {
  GlpOptions glp;
  glp.num_vertices = 20000;
  glp.target_avg_degree = 8;
  glp.seed = 58;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.max_candidates_per_iteration = 100000;
  auto out = BuildHopLabeling(*ranked, opts);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsResourceExhausted());
}

TEST(BuilderTest, CandidateCapIsExact) {
  // The cap compares against the exact per-iteration raw count, for
  // Hop-Stepping and Hop-Doubling iterations alike: a cap equal to the
  // largest iteration's count passes and one below it fails.
  GlpOptions glp;
  glp.num_vertices = 3000;
  glp.target_avg_degree = 6;
  glp.seed = 31;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  for (BuildMode mode : {BuildMode::kHopStepping, BuildMode::kHopDoubling}) {
    for (uint32_t threads : {1u, 4u}) {
      BuildOptions opts;
      opts.mode = mode;
      opts.num_threads = threads;
      auto free = BuildHopLabeling(*ranked, opts);
      ASSERT_TRUE(free.ok());
      uint64_t largest = 0;
      for (const IterationStats& it : free->stats.iterations) {
        largest = std::max(largest, it.raw_candidates);
      }
      ASSERT_GT(largest, 0u);
      EXPECT_EQ(free->stats.peak_candidates, largest);

      opts.max_candidates_per_iteration = largest;
      auto at_cap = BuildHopLabeling(*ranked, opts);
      ASSERT_TRUE(at_cap.ok()) << BuildModeName(mode) << " threads "
                               << threads << ": " << at_cap.status();
      EXPECT_EQ(at_cap->index.TotalEntries(), free->index.TotalEntries());

      opts.max_candidates_per_iteration = largest - 1;
      auto below = BuildHopLabeling(*ranked, opts);
      ASSERT_FALSE(below.ok()) << BuildModeName(mode) << " threads "
                               << threads;
      EXPECT_TRUE(below.status().IsResourceExhausted()) << below.status();
    }
  }
}

TEST(BuilderTest, StatsAreConsistent) {
  GlpOptions glp;
  glp.num_vertices = 800;
  glp.seed = 33;
  auto edges = GenerateGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  auto out = BuildHopLabeling(*ranked, {});
  ASSERT_TRUE(out.ok());
  const BuildStats& st = out->stats;
  EXPECT_EQ(st.initial_entries, ranked->num_edges());
  EXPECT_EQ(st.iterations.size(), st.num_rule_iterations);
  uint64_t entries = st.initial_entries;
  for (const IterationStats& it : st.iterations) {
    EXPECT_LE(it.deduped_candidates, it.raw_candidates);
    EXPECT_LE(it.existing_dropped + it.pruned, it.deduped_candidates);
    EXPECT_EQ(it.survivors,
              it.deduped_candidates - it.existing_dropped - it.pruned);
    // Entry count grows by survivors minus in-place updates.
    entries += it.survivors - it.updates;
    EXPECT_EQ(it.total_entries_after, entries);
  }
  EXPECT_EQ(entries, out->index.TotalEntries());
}

TEST(BuilderTest, HybridRequiresSwitchIteration) {
  auto ranked = RankedGraph(PathGraph(4));
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.mode = BuildMode::kHybrid;
  opts.hybrid_switch_iteration = 0;
  EXPECT_FALSE(BuildHopLabeling(*ranked, opts).ok());
}

TEST(BuilderTest, ModeNames) {
  EXPECT_STREQ(BuildModeName(BuildMode::kHopStepping), "Step");
  EXPECT_STREQ(BuildModeName(BuildMode::kHopDoubling), "Double");
  EXPECT_STREQ(BuildModeName(BuildMode::kHybrid), "Hybrid");
}

}  // namespace
}  // namespace hopdb
