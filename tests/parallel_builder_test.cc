// Parallel build (BuildOptions::num_threads): the labeling must be
// bit-identical for every thread count — one worker gathers and orders
// each owner's candidates from iteration-start state, and pruning
// decisions depend only on iteration-start snapshots. Plus unit tests for
// the ParallelChunks primitive itself.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <fstream>
#include <iterator>
#include <mutex>
#include <numeric>
#include <string>

#include "gen/erdos_renyi.h"
#include "gen/glp.h"
#include "gen/small_graphs.h"
#include "gen/weights.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "labeling/builder.h"
#include "util/parallel.h"
#include "util/random.h"

namespace hopdb {
namespace {

// --- ParallelChunks primitive ---

TEST(ParallelChunksTest, CoversRangeExactlyOnce) {
  for (const uint32_t threads : {1u, 2u, 3u, 8u, 64u}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{100}}) {
      std::vector<std::atomic<int>> hits(n);
      ParallelChunks(threads, n, [&](size_t b, size_t e, uint32_t) {
        for (size_t i = b; i < e; ++i) hits[i]++;
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "threads=" << threads << " n=" << n
                                     << " i=" << i;
      }
    }
  }
}

TEST(ParallelChunksTest, ChunksAreContiguousAndOrdered) {
  std::mutex mu;
  std::vector<std::array<size_t, 3>> spans;  // begin, end, chunk
  ParallelChunks(4, 103, [&](size_t b, size_t e, uint32_t c) {
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back({b, e, c});
  });
  ASSERT_EQ(spans.size(), 4u);
  std::sort(spans.begin(), spans.end(),
            [](const auto& a, const auto& b) { return a[2] < b[2]; });
  size_t expect_begin = 0;
  for (const auto& s : spans) {
    EXPECT_EQ(s[0], expect_begin);
    EXPECT_GE(s[1], s[0]);
    expect_begin = s[1];
  }
  EXPECT_EQ(expect_begin, 103u);
}

TEST(ParallelChunksTest, MoreThreadsThanWorkDegrades) {
  std::atomic<int> calls{0};
  ParallelChunks(16, 3, [&](size_t b, size_t e, uint32_t) {
    calls++;
    EXPECT_EQ(e - b, 1u);  // 3 chunks of one element each
  });
  EXPECT_EQ(calls.load(), 3);
}

TEST(ParallelChunksTest, ZeroThreadsBehavesAsSequential) {
  std::vector<int> hits(10, 0);
  ParallelChunks(0, hits.size(), [&](size_t b, size_t e, uint32_t chunk) {
    EXPECT_EQ(chunk, 0u);
    for (size_t i = b; i < e; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(HardwareThreadsTest, AtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1u);
}

// --- Determinism of the parallel build ---

void ExpectIdenticalIndexes(const TwoHopIndex& a, const TwoHopIndex& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.directed(), b.directed());
  ASSERT_EQ(a.TotalEntries(), b.TotalEntries());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto ao = a.OutLabel(v);
    const auto bo = b.OutLabel(v);
    ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()))
        << "out label of " << v;
    const auto ai = a.InLabel(v);
    const auto bi = b.InLabel(v);
    ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
        << "in label of " << v;
  }
}

struct ParCase {
  std::string name;
  BuildMode mode;
  bool directed;
  bool weighted;
  uint64_t seed;
};

std::string ParCaseName(const ::testing::TestParamInfo<ParCase>& info) {
  return info.param.name + "_" + BuildModeName(info.param.mode) +
         (info.param.directed ? "_dir" : "_und") +
         (info.param.weighted ? "_wgt" : "_unw") + "_s" +
         std::to_string(info.param.seed);
}

class ParallelBuildTest : public ::testing::TestWithParam<ParCase> {};

TEST_P(ParallelBuildTest, ThreadCountDoesNotChangeTheIndex) {
  const ParCase& c = GetParam();
  EdgeList edges;
  if (c.name == "glp") {
    GlpOptions glp;
    glp.num_vertices = 400;  // 16 threads cut up to 128 owner ranges
    glp.seed = c.seed;
    edges = c.directed ? GenerateDirectedGlp(glp).ValueOrDie()
                       : GenerateGlp(glp).ValueOrDie();
  } else {
    ErOptions er;
    er.num_vertices = 300;
    er.num_edges = 900;
    er.directed = c.directed;
    er.seed = c.seed;
    edges = GenerateErdosRenyi(er).ValueOrDie();
  }
  if (c.weighted) {
    AssignUniformWeights(&edges, 1, 9, DeriveSeed(c.seed, 19));
  }
  auto base = CsrGraph::FromEdgeList(edges);
  base.status().CheckOK();
  RankMapping mapping = ComputeRanking(
      *base, base->directed() ? RankingPolicy::kInOutProduct
                              : RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*base, mapping);
  ranked.status().CheckOK();

  BuildOptions opts;
  opts.mode = c.mode;
  opts.hybrid_switch_iteration = 3;
  opts.num_threads = 1;
  auto reference = BuildHopLabeling(*ranked, opts);
  reference.status().CheckOK();

  for (const uint32_t threads :
       {2u, 4u, 8u, 16u, 0u /* all hardware */}) {
    opts.num_threads = threads;
    auto parallel = BuildHopLabeling(*ranked, opts);
    ASSERT_TRUE(parallel.ok()) << "threads=" << threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExpectIdenticalIndexes(reference->index, parallel->index);
    // Iteration trajectories must match too (same candidate counts).
    ASSERT_EQ(reference->stats.num_rule_iterations,
              parallel->stats.num_rule_iterations);
    for (size_t i = 0; i < reference->stats.iterations.size(); ++i) {
      const IterationStats& r = reference->stats.iterations[i];
      const IterationStats& p = parallel->stats.iterations[i];
      ASSERT_EQ(r.raw_candidates, p.raw_candidates) << "iter " << i;
      ASSERT_EQ(r.deduped_candidates, p.deduped_candidates) << "iter " << i;
      ASSERT_EQ(r.pruned, p.pruned) << "iter " << i;
      ASSERT_EQ(r.survivors, p.survivors) << "iter " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParallelSweep, ParallelBuildTest,
    ::testing::Values(
        ParCase{"glp", BuildMode::kHybrid, false, false, 51},
        ParCase{"glp", BuildMode::kHybrid, true, false, 52},
        ParCase{"glp", BuildMode::kHopStepping, true, false, 53},
        ParCase{"glp", BuildMode::kHopDoubling, false, false, 54},
        ParCase{"glp", BuildMode::kHybrid, true, true, 55},
        ParCase{"er", BuildMode::kHybrid, true, false, 56},
        ParCase{"er", BuildMode::kHopDoubling, true, true, 57}),
    ParCaseName);

// The strongest form of the determinism guarantee: not just equal label
// sets but byte-identical serialized indexes (HLI1 bytes) for every
// thread count. Directed + weighted + hybrid exercises every code path
// at once: both label sides, in-place distance updates, and the
// stepping->doubling switch.
TEST(ParallelBuildTest, SerializedIndexIsByteIdenticalAcrossThreadCounts) {
  GlpOptions glp;
  // Large enough that every worker gathers owners in the peak
  // iterations, small enough for the sanitizer presets.
  glp.num_vertices = 1500;
  glp.seed = 71;
  EdgeList edges = GenerateDirectedGlp(glp).ValueOrDie();
  AssignUniformWeights(&edges, 1, 9, DeriveSeed(71, 23));
  auto base = CsrGraph::FromEdgeList(edges);
  base.status().CheckOK();
  auto ranked = RelabelByRank(
      *base, ComputeRanking(*base, RankingPolicy::kInOutProduct));
  ranked.status().CheckOK();

  auto tmp = TempDir::Create("hopdb_par_det");
  tmp.status().CheckOK();

  std::string reference_bytes;
  for (const uint32_t threads : {1u, 2u, 3u, 8u}) {
    BuildOptions opts;
    opts.mode = BuildMode::kHybrid;
    opts.hybrid_switch_iteration = 3;
    opts.num_threads = threads;
    auto built = BuildHopLabeling(*ranked, opts);
    ASSERT_TRUE(built.ok()) << "threads=" << threads;

    const std::string path =
        tmp->File("index_t" + std::to_string(threads) + ".hli");
    built->index.Save(path).CheckOK();
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_FALSE(bytes.empty());
    if (threads == 1) {
      reference_bytes = std::move(bytes);
    } else {
      ASSERT_EQ(bytes.size(), reference_bytes.size())
          << "threads=" << threads;
      ASSERT_TRUE(bytes == reference_bytes)
          << "serialized index differs at threads=" << threads;
    }
  }
}

TEST(ParallelBuildTest, PruningDisabledIsAlsoDeterministic) {
  GlpOptions glp;
  glp.num_vertices = 200;
  glp.seed = 61;
  auto base = CsrGraph::FromEdgeList(GenerateGlp(glp).ValueOrDie());
  base.status().CheckOK();
  RankMapping mapping = ComputeRanking(*base, RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*base, mapping);
  ranked.status().CheckOK();

  BuildOptions opts;
  opts.prune = false;
  opts.num_threads = 1;
  auto a = BuildHopLabeling(*ranked, opts);
  a.status().CheckOK();
  opts.num_threads = 8;
  auto b = BuildHopLabeling(*ranked, opts);
  b.status().CheckOK();
  ExpectIdenticalIndexes(a->index, b->index);
}

}  // namespace
}  // namespace hopdb
