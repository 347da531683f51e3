// Differential harness for incremental label repair: on randomized
// update streams (insert/delete/reweight mixes over BA and GLP graphs,
// unweighted/weighted/directed, rebuild thread counts 1/2/8) the
// incrementally repaired index must answer every sampled query
// identically to a from-scratch rebuild on the mutated graph AND to the
// Dijkstra oracle. This is the correctness contract ISSUE 8 ships: the
// repair algorithm is only as trustworthy as this harness is thorough.

#include "labeling/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "gen/barabasi_albert.h"
#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/csr_graph.h"
#include "graph/ranking.h"
#include "io/temp_dir.h"
#include "labeling/builder.h"
#include "query/batch.h"
#include "query/knn.h"
#include "query/path.h"
#include "search/dijkstra.h"
#include "util/random.h"

namespace hopdb {
namespace {

EdgeList BaGraph(VertexId n, uint32_t m, uint64_t seed) {
  BaOptions options;
  options.num_vertices = n;
  options.edges_per_vertex = m;
  options.seed = seed;
  return GenerateBarabasiAlbert(options).ValueOrDie();
}

EdgeList GlpGraph(VertexId n, double avg_degree, uint64_t seed) {
  GlpOptions options;
  options.num_vertices = n;
  options.target_avg_degree = avg_degree;
  options.seed = seed;
  return GenerateGlp(options).ValueOrDie();
}

// Ranked CSR + label index + dynamic graph triple the updater operates
// on. Everything below works in internal (rank) ids.
struct Fixture {
  CsrGraph ranked;
  TwoHopIndex index;
  DynamicGraph dyn;
};

Fixture MakeFixture(const EdgeList& edges, const BuildOptions& build) {
  auto graph = CsrGraph::FromEdgeList(edges);
  EXPECT_TRUE(graph.ok()) << graph.status();
  const RankMapping mapping = ComputeRanking(
      *graph, graph->directed() ? RankingPolicy::kInOutProduct
                                : RankingPolicy::kDegree);
  auto ranked = RelabelByRank(*graph, mapping);
  EXPECT_TRUE(ranked.ok()) << ranked.status();
  auto built = BuildHopLabeling(*ranked, build);
  EXPECT_TRUE(built.ok()) << built.status();
  Fixture fix{std::move(*ranked), std::move(built->index),
              DynamicGraph()};
  fix.dyn = DynamicGraph::FromGraph(fix.ranked);
  return fix;
}

// Compares the repaired index against (a) a from-scratch rebuild on the
// mutated graph and (b) the Dijkstra oracle, over `sources` full rows.
void CheckEquivalence(const DynamicGraph& dyn, const TwoHopIndex& repaired,
                      const BuildOptions& build, VertexId sources,
                      uint64_t seed) {
  EdgeList edges = dyn.ToEdgeList();
  auto csr = CsrGraph::FromEdgeList(edges);
  ASSERT_TRUE(csr.ok()) << csr.status();
  auto rebuilt = BuildHopLabeling(*csr, build);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  const VertexId n = dyn.num_vertices();
  Rng rng(seed);
  for (VertexId i = 0; i < sources && i < n; ++i) {
    const VertexId s =
        n <= sources ? i : static_cast<VertexId>(rng.Below(n));
    const std::vector<Distance> truth = ExactDistances(*csr, s);
    for (VertexId t = 0; t < n; ++t) {
      const Distance want = truth[t];
      ASSERT_EQ(repaired.Query(s, t), want)
          << "repaired index wrong at (" << s << ", " << t << ")";
      ASSERT_EQ(rebuilt->index.Query(s, t), want)
          << "rebuilt index wrong at (" << s << ", " << t << ")";
    }
  }
}

// WITHIN / PATH after an update stream: once the stream is finalized
// (the serving layer's COMMIT), the repaired labels must answer the
// richer verbs identically to a from-scratch rebuild on the mutated
// graph — WITHIN as the exact radius set (distances included), PATH as
// a real shortest path on the mutated adjacency. This is the dynamic
// counterpart of the static verb-oracle sweep in oracle_cross_check.
void CheckVerbsAfterStream(EdgeList edges, uint64_t seed, int num_ops,
                           Distance radius) {
  Fixture fix = MakeFixture(edges, BuildOptions());
  IncrementalUpdater updater(&fix.dyn, &fix.index);

  const VertexId n = fix.dyn.num_vertices();
  Rng rng(seed);
  int applied = 0;
  while (applied < num_ops) {
    const VertexId u = static_cast<VertexId>(rng.Below(n));
    const VertexId v = static_cast<VertexId>(rng.Below(n));
    if (u == v) continue;
    UpdateOp op;
    op.u = u;
    op.v = v;
    if (fix.dyn.ArcWeight(u, v) != kInfDistance && rng.Chance(0.5)) {
      op.kind = UpdateOp::Kind::kDelEdge;
    } else {
      op.kind = UpdateOp::Kind::kAddEdge;
      op.weight =
          edges.weighted() ? static_cast<Distance>(rng.Uniform(1, 9)) : 1;
    }
    auto changed = updater.Apply(op);
    ASSERT_TRUE(changed.ok()) << changed.status();
    if (*changed) ++applied;
  }
  updater.Finalize();

  auto mutated = CsrGraph::FromEdgeList(fix.dyn.ToEdgeList());
  ASSERT_TRUE(mutated.ok()) << mutated.status();
  auto rebuilt = BuildHopLabeling(*mutated, BuildOptions());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status();

  KnnEngine repaired_knn(fix.index.labels(), KnnEngine::Direction::kForward);
  KnnEngine rebuilt_knn(rebuilt->index.labels(),
                        KnnEngine::Direction::kForward);
  PathReconstructor paths(*mutated, fix.index);

  const auto by_vertex = [](const KnnEngine::Neighbor& a,
                            const KnnEngine::Neighbor& b) {
    return a.vertex < b.vertex;
  };
  for (int i = 0; i < 8; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(n));
    const std::vector<Distance> truth = ExactDistances(*mutated, s);

    std::vector<KnnEngine::Neighbor> got = repaired_knn.QueryWithin(s, radius);
    std::vector<KnnEngine::Neighbor> want = rebuilt_knn.QueryWithin(s, radius);
    std::sort(got.begin(), got.end(), by_vertex);
    std::sort(want.begin(), want.end(), by_vertex);
    ASSERT_EQ(got.size(), want.size()) << "WITHIN(" << s << ") size";
    for (size_t j = 0; j < want.size(); ++j) {
      ASSERT_EQ(got[j].vertex, want[j].vertex) << "WITHIN(" << s << ")";
      ASSERT_EQ(got[j].dist, want[j].dist) << "WITHIN(" << s << ")";
      ASSERT_EQ(got[j].dist, truth[got[j].vertex]) << "WITHIN(" << s << ")";
    }

    for (int j = 0; j < 16; ++j) {
      const VertexId t = static_cast<VertexId>(rng.Below(n));
      auto path = paths.ShortestPath(s, t);
      if (truth[t] == kInfDistance) {
        ASSERT_FALSE(path.ok())
            << "PATH(" << s << ", " << t << ") on unreachable pair";
        continue;
      }
      ASSERT_TRUE(path.ok()) << "PATH(" << s << ", " << t
                             << "): " << path.status();
      ASSERT_EQ(PathLength(*mutated, *path), truth[t])
          << "PATH(" << s << ", " << t << ") not shortest after repair";
    }
  }
}

TEST(IncrementalTest, WithinAndPathMatchRebuildUnweighted) {
  CheckVerbsAfterStream(GlpGraph(200, 4.0, /*seed=*/301), /*seed=*/302,
                        /*num_ops=*/80, /*radius=*/3);
}

TEST(IncrementalTest, WithinAndPathMatchRebuildWeighted) {
  EdgeList edges = BaGraph(180, 2, /*seed=*/303);
  AssignUniformWeights(&edges, 1, 9, /*seed=*/304);
  CheckVerbsAfterStream(edges, /*seed=*/305, /*num_ops=*/70, /*radius=*/7);
}

// Random op stream: inserts of absent edges, deletes of present edges,
// reweights of present edges (weighted streams only). Tracks the live
// edge set so deletes always target real edges.
struct StreamConfig {
  VertexId n = 0;
  size_t ops = 0;
  double p_insert = 0.45;
  double p_delete = 0.35;  // rest are reweights (weighted only)
  bool weighted = false;
  Distance max_weight = 9;
  size_t check_every = 0;  // differential checkpoints; 0 = only at end
  VertexId check_sources = 6;
  BuildOptions build;
};

void RunStream(EdgeList edges, const StreamConfig& config, uint64_t seed) {
  if (config.weighted) {
    AssignUniformWeights(&edges, 1, config.max_weight,
                         DeriveSeed(seed, 7));
  }
  Fixture fix = MakeFixture(edges, config.build);
  UpdateOptions options;
  options.rebuild = config.build;
  IncrementalUpdater updater(&fix.dyn, &fix.index, options);

  std::vector<std::pair<VertexId, VertexId>> live;
  for (VertexId u = 0; u < fix.dyn.num_vertices(); ++u) {
    for (const Arc& arc : fix.dyn.OutArcs(u)) {
      if (fix.dyn.directed() || arc.to > u) live.push_back({u, arc.to});
    }
  }

  Rng rng(seed);
  const VertexId n = config.n;
  size_t applied = 0;
  for (size_t i = 0; i < config.ops; ++i) {
    const double roll = rng.NextDouble();
    UpdateOp op;
    if (roll < config.p_insert || live.empty()) {
      op.kind = UpdateOp::Kind::kAddEdge;
      do {
        op.u = static_cast<VertexId>(rng.Below(n));
        op.v = static_cast<VertexId>(rng.Below(n));
      } while (op.u == op.v ||
               fix.dyn.ArcWeight(op.u, op.v) != kInfDistance);
      op.weight = config.weighted
                      ? static_cast<Distance>(
                            rng.Uniform(1, config.max_weight))
                      : 1;
      live.push_back({op.u, op.v});
    } else if (roll < config.p_insert + config.p_delete ||
               !config.weighted) {
      const size_t pick = rng.Below(live.size());
      op.kind = UpdateOp::Kind::kDelEdge;
      op.u = live[pick].first;
      op.v = live[pick].second;
      live[pick] = live.back();
      live.pop_back();
    } else {
      const size_t pick = rng.Below(live.size());
      op.kind = UpdateOp::Kind::kAddEdge;  // reweight via upsert
      op.u = live[pick].first;
      op.v = live[pick].second;
      op.weight = static_cast<Distance>(rng.Uniform(1, config.max_weight));
    }
    auto changed = updater.Apply(op);
    ASSERT_TRUE(changed.ok()) << changed.status();
    applied += *changed ? 1 : 0;

    if (config.check_every != 0 && (i + 1) % config.check_every == 0) {
      updater.Finalize();
      ASSERT_NO_FATAL_FAILURE(
          CheckEquivalence(fix.dyn, fix.index, config.build,
                           config.check_sources, DeriveSeed(seed, i)));
      EXPECT_TRUE(fix.index.Validate(/*ranked=*/true).ok());
    }
  }
  updater.Finalize();
  EXPECT_GT(applied, config.ops / 2);
  ASSERT_NO_FATAL_FAILURE(CheckEquivalence(fix.dyn, fix.index,
                                           config.build,
                                           config.check_sources + 6,
                                           DeriveSeed(seed, 99)));
  auto valid = fix.index.Validate(/*ranked=*/true);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  const UpdateStats& stats = updater.stats();
  EXPECT_EQ(stats.ops_applied, applied);
}

TEST(IncrementalTest, InsertOnlyUnweightedBa) {
  StreamConfig config;
  config.n = 200;
  config.ops = 120;
  config.p_insert = 1.0;
  config.check_every = 30;
  RunStream(BaGraph(config.n, 2, /*seed=*/101), config, /*seed=*/201);
}

TEST(IncrementalTest, DeleteOnlyUnweightedBa) {
  StreamConfig config;
  config.n = 200;
  config.ops = 120;
  config.p_insert = 0.0;
  config.p_delete = 1.0;
  config.check_every = 30;
  RunStream(BaGraph(config.n, 3, /*seed=*/102), config, /*seed=*/202);
}

TEST(IncrementalTest, MixedUnweightedGlp) {
  StreamConfig config;
  config.n = 250;
  config.ops = 150;
  config.check_every = 50;
  RunStream(GlpGraph(config.n, 4.0, /*seed=*/103), config, /*seed=*/203);
}

TEST(IncrementalTest, MixedWeightedBa) {
  StreamConfig config;
  config.n = 200;
  config.ops = 150;
  config.weighted = true;
  config.check_every = 50;
  RunStream(BaGraph(config.n, 2, /*seed=*/104), config, /*seed=*/204);
}

TEST(IncrementalTest, MixedWeightedGlpDirected) {
  GlpOptions options;
  options.num_vertices = 200;
  options.target_avg_degree = 4.0;
  options.seed = 105;
  auto edges = GenerateDirectedGlp(options);
  ASSERT_TRUE(edges.ok()) << edges.status();
  StreamConfig config;
  config.n = 200;
  config.ops = 150;
  config.weighted = true;
  config.check_every = 50;
  RunStream(*edges, config, /*seed=*/205);
}

// The ISSUE acceptance leg: >= 1k mixed ops, each build mode exercised,
// rebuild thread counts 1/2/8 must agree with the repaired labels.
TEST(IncrementalTest, LongMixedStreamAcrossThreadCounts) {
  for (uint32_t threads : {1u, 2u, 8u}) {
    StreamConfig config;
    config.n = 300;
    config.ops = 340;  // 3 x 340 > 1k ops across the sweep
    config.weighted = true;
    config.check_every = 0;  // checkpoint only at the end; keep runtime sane
    config.build.num_threads = threads;
    config.build.mode =
        threads == 1 ? BuildMode::kHopDoubling : BuildMode::kHybrid;
    RunStream(GlpGraph(config.n, 4.0, /*seed=*/106 + threads), config,
              /*seed=*/206 + threads);
  }
}

// Weight-increase and weight-decrease repairs through the reweight path.
TEST(IncrementalTest, ReweightOnlyStream) {
  StreamConfig config;
  config.n = 200;
  config.ops = 120;
  config.p_insert = 0.0;
  config.p_delete = 0.0;
  config.weighted = true;
  config.check_every = 40;
  RunStream(BaGraph(config.n, 3, /*seed=*/107), config, /*seed=*/207);
}

// Deleting every edge must drain the labels down to the trivial ones and
// answer infinity everywhere off-diagonal.
TEST(IncrementalTest, DrainToEmptyGraph) {
  EdgeList edges = BaGraph(60, 2, /*seed=*/108);
  Fixture fix = MakeFixture(edges, BuildOptions());
  IncrementalUpdater updater(&fix.dyn, &fix.index);
  std::vector<std::pair<VertexId, VertexId>> live;
  for (VertexId u = 0; u < fix.dyn.num_vertices(); ++u) {
    for (const Arc& arc : fix.dyn.OutArcs(u)) {
      if (arc.to > u) live.push_back({u, arc.to});
    }
  }
  for (const auto& [u, v] : live) {
    UpdateOp op;
    op.kind = UpdateOp::Kind::kDelEdge;
    op.u = u;
    op.v = v;
    auto changed = updater.Apply(op);
    ASSERT_TRUE(changed.ok()) << changed.status();
    ASSERT_TRUE(*changed);
  }
  updater.Finalize();
  EXPECT_EQ(fix.dyn.num_arcs(), 0u);
  for (VertexId s = 0; s < 60; ++s) {
    for (VertexId t = 0; t < 60; ++t) {
      EXPECT_EQ(fix.index.Query(s, t), s == t ? 0 : kInfDistance);
    }
  }
}

// Structural no-ops and invalid ops: redundant add, absent delete,
// self-loop, out-of-range, zero weight.
TEST(IncrementalTest, NoOpsAndValidation) {
  EdgeList edges = BaGraph(50, 2, /*seed=*/109);
  Fixture fix = MakeFixture(edges, BuildOptions());
  IncrementalUpdater updater(&fix.dyn, &fix.index);

  // Find one existing edge.
  VertexId eu = kInvalidVertex, ev = kInvalidVertex;
  for (VertexId u = 0; u < 50 && eu == kInvalidVertex; ++u) {
    for (const Arc& arc : fix.dyn.OutArcs(u)) {
      eu = u;
      ev = arc.to;
      break;
    }
  }
  ASSERT_NE(eu, kInvalidVertex);

  UpdateOp redundant{UpdateOp::Kind::kAddEdge, eu, ev, 1};
  auto changed = updater.Apply(redundant);
  ASSERT_TRUE(changed.ok()) << changed.status();
  EXPECT_FALSE(*changed);
  EXPECT_EQ(updater.stats().ops_noop, 1u);

  UpdateOp self{UpdateOp::Kind::kAddEdge, 3, 3, 1};
  EXPECT_FALSE(updater.Apply(self).ok());
  UpdateOp range{UpdateOp::Kind::kAddEdge, 3, 5000, 1};
  EXPECT_FALSE(updater.Apply(range).ok());
  UpdateOp zero{UpdateOp::Kind::kAddEdge, 3, 4, 0};
  EXPECT_FALSE(updater.Apply(zero).ok());
  // Delete an edge guaranteed absent (self-check first).
  VertexId au = 0, av = 0;
  bool found = false;
  for (VertexId u = 0; u < 50 && !found; ++u) {
    for (VertexId v = u + 1; v < 50 && !found; ++v) {
      if (fix.dyn.ArcWeight(u, v) == kInfDistance) {
        au = u;
        av = v;
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  UpdateOp absent{UpdateOp::Kind::kDelEdge, au, av, 1};
  EXPECT_FALSE(updater.Apply(absent).ok());
}

// The frontier valve: with the threshold at epsilon every repair takes
// the full-rebuild fallback, and answers must still be exact.
TEST(IncrementalTest, RebuildFallbackStaysExact) {
  EdgeList edges = BaGraph(120, 2, /*seed=*/110);
  Fixture fix = MakeFixture(edges, BuildOptions());
  UpdateOptions options;
  options.rebuild_frontier_fraction = 1e-9;
  IncrementalUpdater updater(&fix.dyn, &fix.index, options);
  std::vector<Distance> frozen;
  for (VertexId t = 0; t < 120; ++t) frozen.push_back(fix.index.Query(0, t));
  // Deletes: the valve only guards the weight-increase path (decreases
  // use the resumed-search repair, which has no frontier to bound).
  Rng rng(210);
  for (int i = 0; i < 15; ++i) {
    const EdgeList current = fix.dyn.ToEdgeList();
    ASSERT_FALSE(current.edges().empty());
    const Edge& pick =
        current.edges()[rng.Below(current.edges().size())];
    UpdateOp op;
    op.kind = UpdateOp::Kind::kDelEdge;
    op.u = pick.src;
    op.v = pick.dst;
    auto changed = updater.Apply(op);
    ASSERT_TRUE(changed.ok()) << changed.status();
  }
  // A fallback rebuild replaces the vectors, not the frozen store.
  for (VertexId t = 0; t < 120; ++t) {
    ASSERT_EQ(fix.index.Query(0, t), frozen[t]) << "t=" << t;
  }
  updater.Finalize();
  EXPECT_GT(updater.stats().full_rebuilds, 0u);
  ASSERT_NO_FATAL_FAILURE(
      CheckEquivalence(fix.dyn, fix.index, BuildOptions(), 8, 310));
}

TEST(IncrementalTest, ApplyBatchFinalizes) {
  EdgeList edges = BaGraph(80, 2, /*seed=*/111);
  Fixture fix = MakeFixture(edges, BuildOptions());
  IncrementalUpdater updater(&fix.dyn, &fix.index);
  std::vector<UpdateOp> ops;
  Rng rng(211);
  for (int i = 0; i < 10; ++i) {
    UpdateOp op;
    op.kind = UpdateOp::Kind::kAddEdge;
    do {
      op.u = static_cast<VertexId>(rng.Below(80));
      op.v = static_cast<VertexId>(rng.Below(80));
    } while (op.u == op.v || fix.dyn.ArcWeight(op.u, op.v) != kInfDistance);
    bool dup = false;
    for (const UpdateOp& prior : ops) {
      if (prior.u == op.u && prior.v == op.v) dup = true;
    }
    if (dup) continue;
    ops.push_back(op);
  }
  ASSERT_TRUE(updater.ApplyBatch(ops).ok());
  ASSERT_NO_FATAL_FAILURE(
      CheckEquivalence(fix.dyn, fix.index, BuildOptions(), 8, 311));
}

// The first pair (s, t) with s >= from whose current distance is finite
// and at least 3, so that inserting the edge s-t changes it to 1.
std::pair<VertexId, VertexId> FarPair(const TwoHopIndex& index,
                                      VertexId from) {
  for (VertexId s = from; s < index.num_vertices(); ++s) {
    for (VertexId t = s + 1; t < index.num_vertices(); ++t) {
      const Distance d = index.Query(s, t);
      if (d != kInfDistance && d >= 3) return {s, t};
    }
  }
  return {kInvalidVertex, kInvalidVertex};
}

// The freeze rule over two update rounds: every read (Query and the
// engines over labels()) answers as of the last Finalize(), while Save()
// writes the repaired vectors — so a file saved between Apply() and
// Finalize() loads, and it and the finalized index answer like a rebuild.
TEST(IncrementalTest, SaveAfterSecondApplyLoadsAndReadsFollowTheFreeze) {
  Fixture fix = MakeFixture(GlpGraph(300, 4.0, /*seed=*/112), BuildOptions());
  IncrementalUpdater updater(&fix.dyn, &fix.index);
  const auto shortcut = [&](VertexId s, VertexId t) {
    auto changed = updater.Apply({UpdateOp::Kind::kAddEdge, s, t, 1});
    ASSERT_TRUE(changed.ok()) << changed.status();
    ASSERT_TRUE(*changed);
  };

  const auto [s1, t1] = FarPair(fix.index, 0);
  ASSERT_NE(s1, kInvalidVertex);
  ASSERT_NO_FATAL_FAILURE(shortcut(s1, t1));
  updater.Finalize();
  EXPECT_EQ(fix.index.Query(s1, t1), 1u);

  const auto [s2, t2] = FarPair(fix.index, s1 + 1);
  ASSERT_NE(s2, kInvalidVertex);
  const Distance before = fix.index.Query(s2, t2);
  ASSERT_NO_FATAL_FAILURE(shortcut(s2, t2));
  EXPECT_EQ(fix.index.Query(s2, t2), before);
  EXPECT_EQ(OneToManyEngine(fix.index.labels(), {t2}).Query(s2),
            std::vector<Distance>{before});

  auto dir = TempDir::Create("incremental_save");
  ASSERT_TRUE(dir.ok()) << dir.status();
  const std::string path = dir->File("repaired.hli");
  ASSERT_TRUE(fix.index.Save(path).ok());
  auto reloaded = TwoHopIndex::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  EXPECT_EQ(reloaded->Query(s2, t2), 1u);

  updater.Finalize();
  EXPECT_EQ(fix.index.Query(s2, t2), 1u);
  ASSERT_NO_FATAL_FAILURE(
      CheckEquivalence(fix.dyn, fix.index, BuildOptions(), 8, 312));
  ASSERT_NO_FATAL_FAILURE(
      CheckEquivalence(fix.dyn, *reloaded, BuildOptions(), 8, 313));
}

TEST(IncrementalTest, ParseUpdateOpLine) {
  auto add = ParseUpdateOpLine("ADDEDGE 3 7 5");
  ASSERT_TRUE(add.ok());
  EXPECT_EQ(add->kind, UpdateOp::Kind::kAddEdge);
  EXPECT_EQ(add->u, 3u);
  EXPECT_EQ(add->v, 7u);
  EXPECT_EQ(add->weight, 5u);

  auto add_default = ParseUpdateOpLine("add 1 2");
  ASSERT_TRUE(add_default.ok());
  EXPECT_EQ(add_default->weight, 1u);

  auto del = ParseUpdateOpLine("DELEDGE 9 4");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->kind, UpdateOp::Kind::kDelEdge);

  EXPECT_TRUE(ParseUpdateOpLine("").status().IsNotFound());
  EXPECT_TRUE(ParseUpdateOpLine("# comment").status().IsNotFound());
  EXPECT_FALSE(ParseUpdateOpLine("FROBNICATE 1 2").ok());
  EXPECT_FALSE(ParseUpdateOpLine("ADDEDGE 1").ok());
  EXPECT_FALSE(ParseUpdateOpLine("DELEDGE 1 2 3").ok());
  EXPECT_FALSE(ParseUpdateOpLine("ADDEDGE a b").ok());
}

// Deep copies of every label vector, for diffing after a repair.
std::vector<std::vector<LabelEntry>> SnapshotLabels(
    const TwoHopIndex& index, bool out_side) {
  std::vector<std::vector<LabelEntry>> copy(index.num_vertices());
  for (VertexId v = 0; v < index.num_vertices(); ++v) {
    const auto label = out_side ? index.OutLabel(v) : index.InLabel(v);
    copy[v].assign(label.begin(), label.end());
  }
  return copy;
}

bool LabelDiffers(std::span<const LabelEntry> now,
                  const std::vector<LabelEntry>& before) {
  if (now.size() != before.size()) return true;
  for (size_t i = 0; i < now.size(); ++i) {
    if (now[i].pivot != before[i].pivot || now[i].dist != before[i].dist) {
      return true;
    }
  }
  return false;
}

// The COMMIT selective-invalidation contract: every owner whose label
// vector actually changed during a repair MUST appear in the touched
// set TakeTouchedOwners returns (a superset is fine — false positives
// only cost cache entries, false negatives serve stale distances).
void RunTouchedOwnersStream(EdgeList edges, uint64_t seed) {
  Fixture fix = MakeFixture(edges, BuildOptions());
  IncrementalUpdater updater(&fix.dyn, &fix.index);
  const VertexId n = fix.dyn.num_vertices();
  Rng rng(seed);
  for (int round = 0; round < 8; ++round) {
    const auto out_before = SnapshotLabels(fix.index, /*out_side=*/true);
    const auto in_before = SnapshotLabels(fix.index, /*out_side=*/false);
    // A small mixed batch per round: one insert of an absent edge, one
    // delete of a present edge.
    UpdateOp add;
    add.kind = UpdateOp::Kind::kAddEdge;
    do {
      add.u = static_cast<VertexId>(rng.Below(n));
      add.v = static_cast<VertexId>(rng.Below(n));
    } while (add.u == add.v ||
             fix.dyn.ArcWeight(add.u, add.v) != kInfDistance);
    ASSERT_TRUE(updater.Apply(add).ok());
    const EdgeList current = fix.dyn.ToEdgeList();
    ASSERT_FALSE(current.edges().empty());
    const Edge& pick = current.edges()[rng.Below(current.edges().size())];
    UpdateOp del{UpdateOp::Kind::kDelEdge, pick.src, pick.dst, 1};
    ASSERT_TRUE(updater.Apply(del).ok());
    updater.Finalize();

    const IncrementalUpdater::TouchedOwners touched =
        updater.TakeTouchedOwners();
    EXPECT_TRUE(std::is_sorted(touched.out.begin(), touched.out.end()));
    EXPECT_TRUE(std::is_sorted(touched.in.begin(), touched.in.end()));
    if (!fix.dyn.directed()) {
      EXPECT_EQ(touched.out, touched.in);
    }
    if (touched.all) continue;  // fallback rebuild: everything is fair game
    for (VertexId v = 0; v < n; ++v) {
      if (LabelDiffers(fix.index.OutLabel(v), out_before[v])) {
        EXPECT_TRUE(std::binary_search(touched.out.begin(),
                                       touched.out.end(), v))
            << "Lout(" << v << ") changed but was not reported touched";
      }
      if (LabelDiffers(fix.index.InLabel(v), in_before[v])) {
        EXPECT_TRUE(std::binary_search(touched.in.begin(),
                                       touched.in.end(), v))
            << "Lin(" << v << ") changed but was not reported touched";
      }
    }

    // Take resets: an immediate second call reports nothing.
    const auto empty = updater.TakeTouchedOwners();
    EXPECT_FALSE(empty.all);
    EXPECT_TRUE(empty.out.empty());
    EXPECT_TRUE(empty.in.empty());
  }
}

TEST(IncrementalTest, TouchedOwnersCoverChangedLabelsUndirected) {
  RunTouchedOwnersStream(GlpGraph(200, 4.0, /*seed=*/120), /*seed=*/320);
}

TEST(IncrementalTest, TouchedOwnersCoverChangedLabelsDirected) {
  GlpOptions options;
  options.num_vertices = 180;
  options.target_avg_degree = 4.0;
  options.seed = 121;
  auto edges = GenerateDirectedGlp(options);
  ASSERT_TRUE(edges.ok()) << edges.status();
  RunTouchedOwnersStream(*edges, /*seed=*/321);
}

TEST(IncrementalTest, TouchedOwnersAllAfterRebuildFallback) {
  EdgeList edges = BaGraph(120, 2, /*seed=*/122);
  Fixture fix = MakeFixture(edges, BuildOptions());
  UpdateOptions options;
  options.rebuild_frontier_fraction = 1e-9;
  IncrementalUpdater updater(&fix.dyn, &fix.index, options);
  Rng rng(222);
  while (updater.stats().full_rebuilds == 0) {
    const EdgeList current = fix.dyn.ToEdgeList();
    ASSERT_FALSE(current.edges().empty());
    const Edge& pick = current.edges()[rng.Below(current.edges().size())];
    UpdateOp op{UpdateOp::Kind::kDelEdge, pick.src, pick.dst, 1};
    ASSERT_TRUE(updater.Apply(op).ok());
  }
  updater.Finalize();
  const auto touched = updater.TakeTouchedOwners();
  EXPECT_TRUE(touched.all);
  // The reset clears the all flag too.
  EXPECT_FALSE(updater.TakeTouchedOwners().all);
}

}  // namespace
}  // namespace hopdb
