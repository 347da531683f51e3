#include "labeling/builder.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "eval/verify.h"
#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "search/dijkstra.h"
#include "util/log.h"
#include "util/random.h"
#include "util/serde.h"
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

// A candidate whose distance saturates at kInfDistance covers no path a
// label can hold. A and B, the two top-ranked vertices (degree 3), meet
// only through C over two edges of weight 0xC0000000, so the candidate
// between them sums past 2^32 - 1, and no witness ranks above its
// pivot. The gather drops it: every entry stays finite, the index
// validates, and it survives an HLI1 round trip (Load refuses an
// infinite entry).
TEST(BuilderTest, SaturatedCandidatesHoldNoEntry) {
  const Distance heavy = 0xC0000000u;
  EdgeList e(7, false);
  e.Add(0, 2, heavy);  // A - C
  e.Add(2, 1, heavy);  // C - B
  e.Add(0, 3);         // A's and B's pendants
  e.Add(0, 4);
  e.Add(1, 5);
  e.Add(1, 6);
  e.Normalize();
  auto ranked = RankedGraph(e);
  ASSERT_TRUE(ranked.ok());
  auto dir = TempDir::Create("saturated");
  ASSERT_TRUE(dir.ok());
  for (BuildMode mode : {BuildMode::kHopStepping, BuildMode::kHopDoubling,
                         BuildMode::kHybrid}) {
    BuildOptions opts;
    opts.mode = mode;
    auto out = BuildHopLabeling(*ranked, opts);
    ASSERT_TRUE(out.ok()) << BuildModeName(mode);
    EXPECT_TRUE(out->index.Validate(/*ranked=*/true).ok())
        << BuildModeName(mode);
    const std::string path = dir->File("saturated.hli");
    std::vector<VertexId> order(7);
    std::iota(order.begin(), order.end(), 0u);
    ASSERT_TRUE(out->index.Save(path, RankingFromOrder(order)).ok());
    RankMapping ranks;
    auto loaded = TwoHopIndex::Load(path, &ranks);
    ASSERT_TRUE(loaded.ok()) << BuildModeName(mode) << " " << loaded.status();
    for (VertexId s = 0; s < 7; ++s) {
      for (VertexId t = 0; t < 7; ++t) {
        ASSERT_EQ(loaded->Query(s, t), out->index.Query(s, t));
      }
    }
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

// Builds `ranked` by Hop-Stepping with 1 GB of address space left to the
// process, then exits 0 iff the build failed with ResourceExhausted.
[[noreturn]] void StepWithOneGigabyteLeft(const CsrGraph& ranked) {
  uint64_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t cap =
      pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) + (rlim_t{1} << 30);
  const rlimit limit{cap, cap};
  if (pages == 0 || setrlimit(RLIMIT_AS, &limit) != 0) std::_Exit(2);
  BuildOptions opts;
  opts.mode = BuildMode::kHopStepping;
  const auto out = BuildHopLabeling(ranked, opts);
  std::_Exit(out.status().IsResourceExhausted() ? 0 : 1);
}

TEST(BuilderTest, RefusedCandidateMappingIsResourceExhausted) {
  // Each iteration maps 8 B of address space per raw candidate. On a
  // 1000-vertex clique, Hop-Stepping's first iteration counts about
  // 3.3e8 of them (2.7 GB) while the labels stay a few MB, so with 1 GB
  // of address space left the kernel refuses the mapping, and the build
  // must fail with ResourceExhausted rather than abort.
  auto ranked = RankedGraph(CompleteGraph(1000));
  ASSERT_TRUE(ranked.ok());
  EXPECT_EXIT(StepWithOneGigabyteLeft(*ranked), ::testing::ExitedWithCode(0),
              "");
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

// Golden output over {undirected, directed} × {unweighted, weighted} ×
// {stepping, doubling, hybrid switching after iteration 2} on small GLP
// graphs, at 1 and 4 threads, plus weighted hybrid builds that prune
// with old entries only (prune_with_candidates = false) and that do not
// prune at all (prune = false: generation's per-owner offsets feed the
// next iteration's `prev` with no compaction between). A change to
// candidate generation, dedup, pruning or apply that alters any
// per-iteration counter, the peak candidate count or one byte of the
// saved HLI1 file fails here. The benchmark runs only Hop-Stepping
// iterations, so this is what guards Rules 1/2/4/5.
struct PinnedBuild {
  bool directed;
  bool weighted;
  BuildMode mode;
  uint32_t iterations;
  uint64_t peak_candidates;
  uint64_t counters_fnv;  // FNV-1a of CountersText
  uint64_t hli1_fnv;      // FNV-1a of the saved HLI1 bytes (identity
                          // rank section)
  bool prune_with_candidates = true;
  bool prune = true;
};

/// Every IterationStats counter, one "iter:mode:raw:deduped:dropped:
/// pruned:survivors:updates:total;" group per iteration.
std::string CountersText(const BuildStats& stats) {
  std::string text;
  for (const IterationStats& it : stats.iterations) {
    for (const uint64_t v :
         {uint64_t{it.iteration}, static_cast<uint64_t>(it.mode_used),
          it.raw_candidates, it.deduped_candidates, it.existing_dropped,
          it.pruned, it.survivors, it.updates, it.total_entries_after}) {
      text += std::to_string(v) + ":";
    }
    text.back() = ';';
  }
  return text;
}

TEST(BuilderTest, PinnedOutputAcrossModesAndThreads) {
  constexpr PinnedBuild kPins[] = {
      {false, false, BuildMode::kHopStepping, 4, 38954,
       0xcfd14f8aa1210caaULL, 0x55613418a791c524ULL},
      {false, false, BuildMode::kHopDoubling, 4, 102606,
       0x6689f2e53e0173f0ULL, 0x55613418a791c524ULL},
      {false, false, BuildMode::kHybrid, 4, 38954,
       0xa8e26c95b7755f99ULL, 0x55613418a791c524ULL},
      {false, true, BuildMode::kHopStepping, 6, 31171,
       0xb65df4aa6e7cfae1ULL, 0x4bb0fa2153c1d0a4ULL},
      {false, true, BuildMode::kHopDoubling, 4, 55204,
       0x2b032908f4c2a9c0ULL, 0x02279bdacf3d2fe4ULL},
      {false, true, BuildMode::kHybrid, 5, 42956,
       0xcb5e5ebe83ab82a3ULL, 0x3ec2fe5c5f5f1a45ULL},
      {true, false, BuildMode::kHopStepping, 5, 15265,
       0xe0c861716ea5cf94ULL, 0x080cbf07ca7950edULL},
      {true, false, BuildMode::kHopDoubling, 4, 25857,
       0xf06beb0dd50ee0b4ULL, 0x080cbf07ca7950edULL},
      {true, false, BuildMode::kHybrid, 5, 15265,
       0x68e5b953c015b987ULL, 0x080cbf07ca7950edULL},
      {true, true, BuildMode::kHopStepping, 8, 18962,
       0x21e20ac5786d070fULL, 0xeb75d37eff1577b0ULL},
      {true, true, BuildMode::kHopDoubling, 5, 40097,
       0x9f3501bd47536a65ULL, 0x6f29aa8c2e11f141ULL},
      {true, true, BuildMode::kHybrid, 5, 27506,
       0x558859f56af3452aULL, 0xabb332ca35f3cae9ULL},
      {false, true, BuildMode::kHybrid, 5, 77115,
       0xfc2fe27bba9dd3b0ULL, 0xb911b33ea02e5df8ULL, false},
      {true, true, BuildMode::kHybrid, 5, 46624,
       0xa17bf0b57763e67fULL, 0x8bae4584e282e7f7ULL, false},
      {false, true, BuildMode::kHybrid, 8, 593800,
       0x47fc53a82d77d3b8ULL, 0x2f69357a7f6101d2ULL, true, false},
      {true, true, BuildMode::kHybrid, 6, 149036,
       0xb4532329469ec5c9ULL, 0x4378f2f56e19eabcULL, true, false},
  };
  auto tmp = TempDir::Create("hopdb_builder_pin");
  ASSERT_TRUE(tmp.ok());
  const std::string path = tmp->File("pin.hli");
  for (const PinnedBuild& pin : kPins) {
    GlpOptions glp;
    glp.num_vertices = pin.directed ? 2000 : 3000;
    glp.seed = 41 + 2 * pin.directed + pin.weighted;
    auto edges = pin.directed ? GenerateDirectedGlp(glp) : GenerateGlp(glp);
    ASSERT_TRUE(edges.ok());
    if (pin.weighted) AssignUniformWeights(&*edges, 1, 9, glp.seed);
    auto ranked = RankedGraph(*edges);
    ASSERT_TRUE(ranked.ok());
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(pin.directed ? "directed " : "undirected ") +
                   (pin.weighted ? "weighted " : "unweighted ") +
                   BuildModeName(pin.mode) +
                   (pin.prune_with_candidates ? "" : " old-entry witnesses") +
                   (pin.prune ? "" : " no pruning") +
                   " threads " + std::to_string(threads));
      BuildOptions opts;
      opts.mode = pin.mode;
      opts.hybrid_switch_iteration = 2;
      opts.prune_with_candidates = pin.prune_with_candidates;
      opts.prune = pin.prune;
      opts.num_threads = threads;
      auto out = BuildHopLabeling(*ranked, opts);
      ASSERT_TRUE(out.ok());
      const std::string counters = CountersText(out->stats);
      EXPECT_EQ(out->stats.num_rule_iterations, pin.iterations);
      EXPECT_EQ(out->stats.peak_candidates, pin.peak_candidates);
      EXPECT_EQ(Fnv1a64(counters.data(), counters.size()), pin.counters_fnv)
          << counters;
      const RankMapping identity =
          ComputeRanking(*ranked, RankingPolicy::kIdentity);
      ASSERT_TRUE(out->index.Save(path, identity).ok());
      std::ifstream in(path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), pin.hli1_fnv);
    }
  }
}

// On mixed weights a survivor can land on a pivot the label already
// holds, at a shorter distance: apply then drops the old entry as it
// merges the label's runs, and the survivor joins the fresh run. Such
// builds must report the replacements and still answer exactly from
// every vertex.
TEST(BuilderTest, ShorterSurvivorsReplaceHeldEntries) {
  for (const bool directed : {false, true}) {
    GlpOptions glp;
    glp.num_vertices = 300;
    glp.seed = 1;
    auto edges = directed ? GenerateDirectedGlp(glp) : GenerateGlp(glp);
    ASSERT_TRUE(edges.ok());
    AssignUniformWeights(&*edges, 1, 9, glp.seed);
    auto ranked = RankedGraph(*edges);
    ASSERT_TRUE(ranked.ok());
    for (const BuildMode mode : {BuildMode::kHopDoubling, BuildMode::kHybrid}) {
      SCOPED_TRACE(std::string(directed ? "directed " : "undirected ") +
                   BuildModeName(mode));
      BuildOptions opts;
      opts.mode = mode;
      opts.hybrid_switch_iteration = 2;
      auto out = BuildHopLabeling(*ranked, opts);
      ASSERT_TRUE(out.ok());
      uint64_t updates = 0;
      uint64_t entries = out->stats.initial_entries;
      for (const IterationStats& it : out->stats.iterations) {
        updates += it.updates;
        entries += it.survivors - it.updates;
        EXPECT_EQ(it.total_entries_after, entries);
      }
      EXPECT_GT(updates, 0u);
      EXPECT_EQ(out->index.TotalEntries(), entries);
      ASSERT_TRUE(out->index.Validate(/*ranked=*/true).ok());
      VerifyOptions every_vertex;
      every_vertex.sample_sources = ranked->num_vertices();
      EXPECT_TRUE(VerifyExactDistances(
                      *ranked,
                      [&](VertexId s, VertexId t) {
                        return out->index.Query(s, t);
                      },
                      every_vertex)
                      .ok());
    }
  }
}

// A directed build whose sides finish at different iterations: on this
// graph only the out side gains entries in two consecutive iterations,
// so apply folds the fresh run of an in side that has no survivors, and
// then rewrites an in side that has neither. Per-side growth is read
// from builds cut short by max_iterations (on unit weights no survivor
// replaces an entry, so a side grows by its survivors).
TEST(BuilderTest, OneSidedIterationsStayExact) {
  GlpOptions glp;
  glp.num_vertices = 500;
  glp.seed = 11;
  auto edges = GenerateDirectedGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.mode = BuildMode::kHopStepping;
  auto full = BuildHopLabeling(*ranked, opts);
  ASSERT_TRUE(full.ok());
  // An idle side's fresh run must leave `prev` once its iteration is
  // over: fed to the next iteration again, it would raise the raw,
  // deduped and dropped counts pinned here.
  EXPECT_EQ(CountersText(full->stats),
            "1:0:3145:2328:231:372:1725:0:2807;"
            "2:0:2492:1452:543:237:672:0:3479;"
            "3:0:528:355:260:37:58:0:3537;4:0:59:55:46:2:7:0:3544;"
            "5:0:15:15:5:0:10:0:3554;6:0:10:10:9:1:0:0:3554;");
  for (const IterationStats& it : full->stats.iterations) {
    ASSERT_EQ(it.updates, 0u);
  }

  // side_entries[t]: {out, in} entries after t iterations.
  std::vector<std::pair<uint64_t, uint64_t>> side_entries;
  for (uint32_t t = 0; t <= full->stats.num_rule_iterations; ++t) {
    opts.max_iterations = t;
    auto cut = BuildHopLabeling(*ranked, opts);
    ASSERT_TRUE(cut.ok());
    uint64_t out = 0, in = 0;
    for (VertexId v = 0; v < ranked->num_vertices(); ++v) {
      out += cut->index.OutLabel(v).size();
      in += cut->index.InLabel(v).size();
    }
    side_entries.emplace_back(out, in);
  }
  size_t out_only_runs = 0;  // consecutive out-only iterations
  size_t longest = 0;
  for (size_t t = 1; t < side_entries.size(); ++t) {
    const bool out_grew = side_entries[t].first > side_entries[t - 1].first;
    const bool in_grew = side_entries[t].second > side_entries[t - 1].second;
    out_only_runs = out_grew && !in_grew ? out_only_runs + 1 : 0;
    longest = std::max(longest, out_only_runs);
  }
  EXPECT_GE(longest, 2u);
  EXPECT_EQ(side_entries.back().first + side_entries.back().second,
            full->index.TotalEntries());

  VerifyOptions every_vertex;
  every_vertex.sample_sources = ranked->num_vertices();
  EXPECT_TRUE(VerifyExactDistances(
                  *ranked,
                  [&](VertexId s, VertexId t) {
                    return full->index.Query(s, t);
                  },
                  every_vertex)
                  .ok());
}

/// The HLI1 bytes `index`, over the ids of `ranked`, saves to `path`.
std::string SavedBytes(const TwoHopIndex& index, const CsrGraph& ranked,
                       const std::string& path) {
  const RankMapping identity = ComputeRanking(ranked, RankingPolicy::kIdentity);
  if (!index.Save(path, identity).ok()) return "";
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// On unit weights no Hop-Stepping candidate can witness another, so each
// iteration prunes its candidates as it gathers them (prune_seconds stays
// 0). With prune_with_candidates = false the same iterations take the
// two-phase path, deciding into keep marks and compacting, with old
// entries as the only witnesses, which on unit weights are all the
// witnesses there are. Both must save the same index and count the same.
TEST(BuilderTest, GatherDecisionsMatchTwoPhasePruning) {
  auto tmp = TempDir::Create("hopdb_builder_decide");
  ASSERT_TRUE(tmp.ok());
  for (const bool directed : {false, true}) {
    GlpOptions glp;
    glp.num_vertices = 2000;
    glp.seed = 61 + directed;
    auto edges = directed ? GenerateDirectedGlp(glp) : GenerateGlp(glp);
    ASSERT_TRUE(edges.ok());
    auto ranked = RankedGraph(*edges);
    ASSERT_TRUE(ranked.ok());
    ASSERT_FALSE(ranked->weighted());
    for (const uint32_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(directed ? "directed" : "undirected") +
                   " threads " + std::to_string(threads));
      BuildOptions opts;
      opts.mode = BuildMode::kHopStepping;
      opts.num_threads = threads;
      auto gathered = BuildHopLabeling(*ranked, opts);
      opts.prune_with_candidates = false;
      auto two_phase = BuildHopLabeling(*ranked, opts);
      ASSERT_TRUE(gathered.ok());
      ASSERT_TRUE(two_phase.ok());

      uint64_t pruned = 0;
      for (const IterationStats& it : gathered->stats.iterations) {
        EXPECT_EQ(it.prune_seconds, 0.0) << "iteration " << it.iteration;
        pruned += it.pruned;
      }
      EXPECT_GT(pruned, 0u);
      for (const IterationStats& it : two_phase->stats.iterations) {
        EXPECT_GT(it.prune_seconds, 0.0) << "iteration " << it.iteration;
      }
      EXPECT_EQ(CountersText(gathered->stats),
                CountersText(two_phase->stats));
      const std::string bytes =
          SavedBytes(gathered->index, *ranked, tmp->File("gathered.hli"));
      ASSERT_FALSE(bytes.empty());
      EXPECT_TRUE(bytes == SavedBytes(two_phase->index, *ranked,
                                      tmp->File("two_phase.hli")));
    }
  }
}

// The gather's decision test reads arc weights and distances, not
// weighted(): a graph whose every weight is 3 is flagged weighted, yet
// its iterations are decided in the gather too, and its labels are the
// unit-weight labels with every distance tripled.
TEST(BuilderTest, EqualWeightsDecideInTheGather) {
  for (const bool directed : {false, true}) {
    SCOPED_TRACE(directed ? "directed" : "undirected");
    GlpOptions glp;
    glp.num_vertices = 2000;
    glp.seed = 63 + directed;
    auto unit_edges = directed ? GenerateDirectedGlp(glp) : GenerateGlp(glp);
    ASSERT_TRUE(unit_edges.ok());
    EdgeList tripled_edges = *unit_edges;
    AssignUniformWeights(&tripled_edges, 3, 3, glp.seed);
    auto unit = RankedGraph(*unit_edges);
    auto tripled = RankedGraph(tripled_edges);
    ASSERT_TRUE(unit.ok());
    ASSERT_TRUE(tripled.ok());
    ASSERT_TRUE(tripled->weighted());

    BuildOptions opts;
    opts.mode = BuildMode::kHopStepping;
    auto a = BuildHopLabeling(*unit, opts);
    auto b = BuildHopLabeling(*tripled, opts);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (const IterationStats& it : b->stats.iterations) {
      EXPECT_EQ(it.prune_seconds, 0.0) << "iteration " << it.iteration;
    }
    EXPECT_EQ(CountersText(a->stats), CountersText(b->stats));
    ASSERT_EQ(a->index.num_vertices(), b->index.num_vertices());
    for (VertexId v = 0; v < a->index.num_vertices(); ++v) {
      for (const bool out : {true, false}) {
        const LabelView x = out ? a->index.OutLabel(v) : a->index.InLabel(v);
        const LabelView y = out ? b->index.OutLabel(v) : b->index.InLabel(v);
        ASSERT_EQ(x.size(), y.size()) << "vertex " << v;
        for (size_t i = 0; i < x.size(); ++i) {
          ASSERT_EQ(x[i].pivot, y[i].pivot) << "vertex " << v;
          ASSERT_EQ(3 * x[i].dist, y[i].dist) << "vertex " << v;
        }
      }
    }
  }
}

TEST(BuilderTest, LogsOneEventPerIteration) {
  GlpOptions glp;
  glp.num_vertices = 800;
  glp.seed = 35;
  auto edges = GenerateDirectedGlp(glp);
  ASSERT_TRUE(edges.ok());
  auto ranked = RankedGraph(*edges);
  ASSERT_TRUE(ranked.ok());
  BuildOptions opts;
  opts.hybrid_switch_iteration = 2;
  opts.num_threads = 2;

  std::vector<std::string> lines;
  SetJsonLogSink([&](const std::string& line) { lines.push_back(line); });
  // The default minimum level (warning) keeps library users silent.
  const bool quiet_ok = BuildHopLabeling(*ranked, opts).ok();
  const size_t quiet_lines = lines.size();
  SetJsonLogMinLevel(JsonLogLevel::kInfo);
  auto out = BuildHopLabeling(*ranked, opts);
  SetJsonLogMinLevel(JsonLogLevel::kWarning);
  SetJsonLogSink(nullptr);  // restore before any assertion can return
  ASSERT_TRUE(quiet_ok);
  EXPECT_EQ(quiet_lines, 0u);
  ASSERT_TRUE(out.ok());

  const std::vector<IterationStats>& iterations = out->stats.iterations;
  ASSERT_EQ(lines.size(), iterations.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    const IterationStats& it = iterations[i];
    const std::string& line = lines[i];
    EXPECT_NE(line.find("\"level\":\"info\",\"event\":\"build_iteration\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find(std::string("\"mode\":\"") +
                        BuildModeName(it.mode_used) + "\""),
              std::string::npos)
        << line;
    for (const auto& [key, value] :
         {std::pair<const char*, uint64_t>{"iteration", it.iteration},
          {"raw", it.raw_candidates},
          {"deduped", it.deduped_candidates},
          {"dropped", it.existing_dropped},
          {"pruned", it.pruned},
          {"survivors", it.survivors}}) {
      EXPECT_NE(line.find(std::string("\"") + key + "\":" +
                          std::to_string(value) + ","),
                std::string::npos)
          << key << " in " << line;
    }
    for (const char* key : {"generate_s", "prune_s", "apply_s"}) {
      EXPECT_NE(line.find(std::string("\"") + key + "\":"),
                std::string::npos)
          << key << " in " << line;
    }
  }
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
