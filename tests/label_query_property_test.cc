// Property tests for the query primitives against brute-force reference
// implementations over randomized label vectors — independent of any
// graph or builder, so failures localize to the intersection code.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "gen/glp.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "labeling/builder.h"
#include "labeling/incremental.h"
#include "labeling/label_entry.h"
#include "labeling/two_hop_index.h"
#include "query/knn.h"
#include "search/dijkstra.h"
#include "util/random.h"

namespace hopdb {
namespace {

LabelVector RandomLabel(Rng* rng, VertexId pivot_space, size_t max_len) {
  std::map<VertexId, Distance> entries;
  size_t len = rng->Below(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    VertexId pivot = static_cast<VertexId>(rng->Below(pivot_space));
    Distance dist = static_cast<Distance>(rng->Uniform(1, 50));
    entries.emplace(pivot, dist);  // keeps first; set semantics
  }
  LabelVector out;
  for (auto [p, d] : entries) out.push_back({p, d});
  return out;
}

Distance BruteIntersect(const LabelVector& a, const LabelVector& b) {
  Distance best = kInfDistance;
  for (const LabelEntry& ea : a) {
    for (const LabelEntry& eb : b) {
      if (ea.pivot == eb.pivot) {
        best = std::min(best, SaturatingAdd(ea.dist, eb.dist));
      }
    }
  }
  return best;
}

Distance BruteQuery(const LabelVector& out_s, const LabelVector& in_t,
                    VertexId s, VertexId t) {
  if (s == t) return 0;
  Distance best = BruteIntersect(out_s, in_t);
  for (const LabelEntry& e : out_s) {
    if (e.pivot == t) best = std::min(best, e.dist);
  }
  for (const LabelEntry& e : in_t) {
    if (e.pivot == s) best = std::min(best, e.dist);
  }
  return best;
}

class LabelQueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LabelQueryPropertyTest, IntersectMatchesBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    LabelVector a = RandomLabel(&rng, 40, 20);
    LabelVector b = RandomLabel(&rng, 40, 20);
    ASSERT_EQ(IntersectLabels(a, b), BruteIntersect(a, b))
        << "round " << round;
  }
}

TEST_P(LabelQueryPropertyTest, QueryHalvesMatchesBruteForce) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int round = 0; round < 300; ++round) {
    LabelVector out_s = RandomLabel(&rng, 60, 15);
    LabelVector in_t = RandomLabel(&rng, 60, 15);
    VertexId s = static_cast<VertexId>(rng.Below(70));
    VertexId t = static_cast<VertexId>(rng.Below(70));
    ASSERT_EQ(QueryLabelHalves(out_s, in_t, s, t),
              BruteQuery(out_s, in_t, s, t))
        << "round " << round << " s=" << s << " t=" << t;
  }
}

TEST_P(LabelQueryPropertyTest, LookupMatchesLinearScan) {
  Rng rng(GetParam() ^ 0x1234);
  for (int round = 0; round < 300; ++round) {
    LabelVector l = RandomLabel(&rng, 50, 25);
    VertexId probe = static_cast<VertexId>(rng.Below(55));
    Distance expect = kInfDistance;
    size_t expect_ub = l.size();
    for (size_t i = 0; i < l.size(); ++i) {
      if (l[i].pivot == probe) expect = l[i].dist;
    }
    for (size_t i = l.size(); i-- > 0;) {
      if (l[i].pivot <= probe) break;
      expect_ub = i;
    }
    ASSERT_EQ(LookupPivot(l, probe), expect);
    ASSERT_EQ(UpperBoundPivot(l, probe), expect_ub);
  }
}

// WITHIN / REACH over arbitrary random labels (no graph, no cover
// property): the engine's radius-bounded inverted-list scan must equal
// the brute-force per-pair sweep {v != s : Query(s, v) <= r} of the SAME
// index, distances included — a pure label-machinery property, so a
// failure localizes to the inverted-list construction or the prefix
// break, never to a builder.
TEST_P(LabelQueryPropertyTest, WithinMatchesPerPairSweep) {
  Rng rng(GetParam() ^ 0x5EED);
  for (const bool directed : {false, true}) {
    constexpr VertexId kN = 60;
    std::vector<LabelVector> out(kN), in;
    for (VertexId v = 0; v < kN; ++v) out[v] = RandomLabel(&rng, kN, 10);
    if (directed) {
      in.resize(kN);
      for (VertexId v = 0; v < kN; ++v) in[v] = RandomLabel(&rng, kN, 10);
    }
    TwoHopIndex index(std::move(out), std::move(in), directed);
    KnnEngine engine(index.labels(), KnnEngine::Direction::kForward);
    for (int round = 0; round < 40; ++round) {
      const VertexId s = static_cast<VertexId>(rng.Below(kN));
      const Distance radius = static_cast<Distance>(rng.Uniform(1, 60));
      std::vector<KnnEngine::Neighbor> got = engine.QueryWithin(s, radius);
      std::sort(got.begin(), got.end(),
                [](const KnnEngine::Neighbor& a, const KnnEngine::Neighbor& b) {
                  return a.vertex < b.vertex;
                });
      std::vector<std::pair<VertexId, Distance>> want;
      for (VertexId v = 0; v < kN; ++v) {
        const Distance d = index.Query(s, v);
        if (v != s && d <= radius) want.emplace_back(v, d);
      }
      ASSERT_EQ(got.size(), want.size())
          << "directed=" << directed << " s=" << s << " r=" << radius;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].vertex, want[i].first) << "s=" << s;
        ASSERT_EQ(got[i].dist, want[i].second) << "s=" << s;
      }
      // REACH is DIST + a comparison; assert the equivalence the server
      // arm relies on, for sampled targets.
      const VertexId t = static_cast<VertexId>(rng.Below(kN));
      const Distance d = index.Query(s, t);
      const bool reach = d != kInfDistance && d <= radius;
      const bool in_within =
          s == t ||  // d(s, s) == 0 <= radius always
          std::any_of(got.begin(), got.end(),
                      [t](const KnnEngine::Neighbor& nb) {
                        return nb.vertex == t;
                      });
      ASSERT_EQ(reach, in_within)
          << "REACH/WITHIN disagree at s=" << s << " t=" << t;
    }
  }
}

// Update-stream property: after ANY prefix of a random insert/delete
// stream applied through the incremental repairer, every queried
// distance equals the BFS oracle on the graph as mutated so far. Unlike
// the end-state differential tests, this checks the invariant holds at
// every intermediate step, so a transiently-wrong repair cannot hide
// behind a later op that happens to fix it.
TEST_P(LabelQueryPropertyTest, UpdateStreamPrefixesMatchOracle) {
  GlpOptions gopt;
  gopt.num_vertices = 120;
  gopt.target_avg_degree = 4.0;
  gopt.seed = GetParam() * 1000 + 7;
  auto edges = GenerateGlp(gopt);
  ASSERT_TRUE(edges.ok()) << edges.status();
  auto graph = CsrGraph::FromEdgeList(*edges);
  ASSERT_TRUE(graph.ok()) << graph.status();
  const RankMapping mapping = ComputeRanking(*graph, RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*graph, mapping);
  ASSERT_TRUE(ranked.ok()) << ranked.status();
  auto built = BuildHopLabeling(*ranked, BuildOptions());
  ASSERT_TRUE(built.ok()) << built.status();

  TwoHopIndex index = std::move(built->index);
  DynamicGraph dyn = DynamicGraph::FromGraph(*ranked);
  IncrementalUpdater updater(&dyn, &index);

  const VertexId n = ranked->num_vertices();
  Rng rng(DeriveSeed(GetParam(), 99));
  int applied = 0;
  while (applied < 40) {
    const VertexId u = static_cast<VertexId>(rng.Below(n));
    const VertexId v = static_cast<VertexId>(rng.Below(n));
    if (u == v) continue;
    UpdateOp op;
    op.u = u;
    op.v = v;
    op.kind = dyn.ArcWeight(u, v) != kInfDistance && rng.Chance(0.5)
                  ? UpdateOp::Kind::kDelEdge
                  : UpdateOp::Kind::kAddEdge;
    auto changed = updater.Apply(op);
    ASSERT_TRUE(changed.ok()) << changed.status();
    if (!*changed) continue;
    ++applied;

    // Check this prefix: repaired answers vs the oracle on the mutated
    // graph, two full rows per step.
    updater.Finalize();
    auto csr = CsrGraph::FromEdgeList(dyn.ToEdgeList());
    ASSERT_TRUE(csr.ok()) << csr.status();
    for (int row = 0; row < 2; ++row) {
      const VertexId s = static_cast<VertexId>(rng.Below(n));
      const std::vector<Distance> truth = ExactDistances(*csr, s);
      for (VertexId t = 0; t < n; ++t) {
        ASSERT_EQ(index.Query(s, t), truth[t])
            << "prefix " << applied << " mismatch at (" << s << ", " << t
            << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabelQueryPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace hopdb
