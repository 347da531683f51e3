#include "labeling/builder.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iterator>
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
  uint64_t hli1_fnv;      // FNV-1a of the saved HLI1 bytes
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
       0xcfd14f8aa1210caaULL, 0x5bfa9a956691e402ULL},
      {false, false, BuildMode::kHopDoubling, 4, 102606,
       0x6689f2e53e0173f0ULL, 0x5bfa9a956691e402ULL},
      {false, false, BuildMode::kHybrid, 4, 38954,
       0xa8e26c95b7755f99ULL, 0x5bfa9a956691e402ULL},
      {false, true, BuildMode::kHopStepping, 6, 31171,
       0xb65df4aa6e7cfae1ULL, 0x7f885b23dc051459ULL},
      {false, true, BuildMode::kHopDoubling, 4, 55204,
       0x2b032908f4c2a9c0ULL, 0x9102d5d68473a184ULL},
      {false, true, BuildMode::kHybrid, 5, 42956,
       0xcb5e5ebe83ab82a3ULL, 0x6940d54bbc725f45ULL},
      {true, false, BuildMode::kHopStepping, 5, 15265,
       0xe0c861716ea5cf94ULL, 0x78e1e3dffb4ac188ULL},
      {true, false, BuildMode::kHopDoubling, 4, 25857,
       0xf06beb0dd50ee0b4ULL, 0x78e1e3dffb4ac188ULL},
      {true, false, BuildMode::kHybrid, 5, 15265,
       0x68e5b953c015b987ULL, 0x78e1e3dffb4ac188ULL},
      {true, true, BuildMode::kHopStepping, 8, 18962,
       0x21e20ac5786d070fULL, 0x0b2040e3e7e46c90ULL},
      {true, true, BuildMode::kHopDoubling, 5, 40097,
       0x9f3501bd47536a65ULL, 0x25913b6517f4a3e5ULL},
      {true, true, BuildMode::kHybrid, 5, 27506,
       0x558859f56af3452aULL, 0x0f6cdeb9332d232cULL},
      {false, true, BuildMode::kHybrid, 5, 77115,
       0xfc2fe27bba9dd3b0ULL, 0x184d114710ac46d2ULL, false},
      {true, true, BuildMode::kHybrid, 5, 46624,
       0xa17bf0b57763e67fULL, 0xd63e944b7cdf620aULL, false},
      {false, true, BuildMode::kHybrid, 8, 593800,
       0x47fc53a82d77d3b8ULL, 0xbac51fe64a4fb9cfULL, true, false},
      {true, true, BuildMode::kHybrid, 6, 149036,
       0xb4532329469ec5c9ULL, 0xcce3c3d513288b20ULL, true, false},
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
      ASSERT_TRUE(out->index.Save(path).ok());
      std::ifstream in(path, std::ios::binary);
      const std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      EXPECT_EQ(Fnv1a64(bytes.data(), bytes.size()), pin.hli1_fnv);
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
