#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "eval/datasets.h"
#include "eval/harness.h"
#include "eval/table.h"
#include "eval/verify.h"
#include "eval/workload.h"
#include "gen/small_graphs.h"
#include "graph/graph_io.h"
#include "io/temp_dir.h"
#include "search/bfs.h"
#include "util/string_util.h"

namespace hopdb {
namespace {

TEST(DatasetsTest, RegistryCoversPaperTable) {
  const auto& all = Table6Datasets();
  EXPECT_EQ(all.size(), 27u);  // every row of Table 6
  int undirected = 0, directed = 0, weighted = 0, synthetic = 0;
  for (const auto& spec : all) {
    if (spec.group == "synthetic") ++synthetic;
    if (spec.weighted) ++weighted;
    (spec.directed ? directed : undirected)++;
    EXPECT_GT(spec.sim_vertices, 0u);
    EXPECT_GT(spec.sim_avg_degree, 0.0);
  }
  EXPECT_EQ(directed, 9);
  EXPECT_EQ(weighted, 4);
  EXPECT_EQ(synthetic, 6);
}

TEST(DatasetsTest, FindByName) {
  EXPECT_NE(FindDataset("Enron"), nullptr);
  EXPECT_NE(FindDataset("slashdot"), nullptr);
  EXPECT_EQ(FindDataset("notagraph"), nullptr);
}

TEST(DatasetsTest, Tier0IsSmallEnoughForCi) {
  for (const auto& spec : Table6Datasets()) {
    if (spec.tier == 0) {
      EXPECT_LE(static_cast<uint64_t>(spec.sim_vertices) *
                    static_cast<uint64_t>(spec.sim_avg_degree),
                3000000u)
          << spec.name;
    }
  }
}

TEST(DatasetsTest, LoadScaledStandIn) {
  const DatasetSpec* spec = FindDataset("Enron");
  ASSERT_NE(spec, nullptr);
  LoadOptions opts;
  opts.scale = 0.05;  // ~1.9K vertices
  auto g = LoadDataset(*spec, opts);
  ASSERT_TRUE(g.ok());
  EXPECT_GT(g->num_vertices(), 1000u);
  EXPECT_LT(g->num_vertices(), 4000u);
  EXPECT_FALSE(g->directed());
}

TEST(DatasetsTest, DirectedAndWeightedStandIns) {
  LoadOptions opts;
  opts.scale = 0.02;
  auto slashdot = LoadDataset(*FindDataset("slashdot"), opts);
  ASSERT_TRUE(slashdot.ok());
  EXPECT_TRUE(slashdot->directed());
  auto ratings = LoadDataset(*FindDataset("bookRating"), opts);
  ASSERT_TRUE(ratings.ok());
  EXPECT_TRUE(ratings->weighted());
  EXPECT_FALSE(ratings->directed());
}

TEST(DatasetsTest, RealFileOverridesGenerator) {
  auto dir = TempDir::Create("datasets");
  ASSERT_TRUE(dir.ok());
  // Drop a tiny real file named like a registry dataset.
  EdgeList tiny = PathGraph(5);
  ASSERT_TRUE(WriteTextEdgeList(tiny, dir->File("Enron.txt")).ok());
  LoadOptions opts;
  opts.data_dir = dir->path();
  auto g = LoadDataset(*FindDataset("Enron"), opts);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 5u);
}

TEST(WorkloadTest, RandomPairsDeterministic) {
  auto a = RandomPairs(100, 50, 7);
  auto b = RandomPairs(100, 50, 7);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].s, b[i].s);
    EXPECT_EQ(a[i].t, b[i].t);
    EXPECT_LT(a[i].s, 100u);
    EXPECT_LT(a[i].t, 100u);
  }
}

TEST(WorkloadTest, TimeQueriesAggregates) {
  auto pairs = RandomPairs(10, 1000, 3);
  uint64_t calls = 0;
  QueryTiming timing = TimeQueries(pairs, [&](VertexId s, VertexId t) {
    ++calls;
    return static_cast<Distance>(s + t);
  });
  EXPECT_EQ(calls, 1000u);
  EXPECT_EQ(timing.queries, 1000u);
  EXPECT_GT(timing.checksum, 0u);
  EXPECT_GE(timing.total_seconds, 0.0);
}

TEST(TableTest, RendersAligned) {
  AsciiTable table({"name", "value", "time"});
  table.AddRow({"alpha", "1", "2.0s"});
  table.AddRow({"b", "12345", AsciiTable::Dash()});
  std::string out = table.Render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("—"), std::string::npos);
  // All lines equally wide (the dash is one display column).
  auto lines = SplitString(out, '\n');
  ASSERT_GE(lines.size(), 4u);
}

TEST(VerifyTest, AcceptsExactOracle) {
  auto g = CsrGraph::FromEdgeList(GridGraph(4, 4));
  ASSERT_TRUE(g.ok());
  BfsRunner runner(*g);
  Status st = VerifyExactDistances(*g, [&](VertexId s, VertexId t) {
    runner.Run(s);
    return runner.DistanceTo(t);
  });
  EXPECT_TRUE(st.ok());
}

TEST(VerifyTest, CatchesWrongOracle) {
  auto g = CsrGraph::FromEdgeList(GridGraph(4, 4));
  ASSERT_TRUE(g.ok());
  Status st = VerifyExactDistances(
      *g, [&](VertexId, VertexId) -> Distance { return 1; });
  EXPECT_FALSE(st.ok());
}

// ---------------------------------------------------------------------------
// Eval harness: spec parser + an end-to-end micro run
// ---------------------------------------------------------------------------

TEST(EvalSpecTest, ParsesFullGrammar) {
  auto spec = ParseEvalSpec(
      "# comment line\n"
      "dataset Enron scale=0.5   # trailing comment\n"
      "graph n=500 avg-degree=6 directed=1 weighted=true seed=42\n"
      "variants heap,blocked\n"
      "queries 128 seed=9\n"
      "workload dist\n"
      "workload batch size=8\n"
      "workload knn k=4\n"
      "workload within radius=2\n"
      "workload reach bound=5\n"
      "workload path\n"
      "verify 2\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->datasets.size(), 2u);
  EXPECT_EQ(spec->datasets[0].name, "Enron");
  EXPECT_DOUBLE_EQ(spec->datasets[0].scale, 0.5);
  EXPECT_FALSE(spec->datasets[0].ad_hoc);
  EXPECT_TRUE(spec->datasets[1].ad_hoc);
  EXPECT_EQ(spec->datasets[1].n, 500u);
  EXPECT_TRUE(spec->datasets[1].directed);
  EXPECT_TRUE(spec->datasets[1].weighted);
  EXPECT_EQ(spec->datasets[1].seed, 42u);
  EXPECT_EQ(spec->variants,
            (std::vector<std::string>{"heap", "blocked"}));
  EXPECT_EQ(spec->num_queries, 128u);
  EXPECT_EQ(spec->query_seed, 9u);
  ASSERT_EQ(spec->workloads.size(), 6u);
  EXPECT_EQ(spec->workloads[1].batch_size, 8u);
  EXPECT_EQ(spec->workloads[2].k, 4u);
  EXPECT_EQ(spec->workloads[3].radius, 2u);
  EXPECT_EQ(spec->workloads[4].bound, 5u);
  EXPECT_EQ(spec->verify_sources, 2u);
}

TEST(EvalSpecTest, DefaultsFillWorkloads) {
  auto spec = ParseEvalSpec("graph n=100\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  // No workload lines: every workload kind runs.
  EXPECT_EQ(spec->workloads.size(), 6u);
  EXPECT_TRUE(spec->variants.empty());  // empty == all variants
}

TEST(EvalSpecTest, RejectsMalformedWithLineNumbers) {
  // Every rejection is client-safe InvalidArgument naming the line.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"dataset notagraph\n", "line 1"},
      {"graph n=0\n", "line 1"},
      {"graph n=abc\n", "line 1"},
      {"# ok\nvariants heap,nosuch\n", "line 2"},
      {"graph n=10\nvariants heap,compressed\n", "line 2"},
      {"graph n=10\nworkload sideways\n", "line 2"},
      {"graph n=10\nworkload dist radius=z\n", "line 2"},
      {"graph n=10\nqueries\n", "line 2"},
      {"graph n=10\nverify 1 2\n", "line 2"},
      {"teleport now\n", "line 1"},
      {"graph n=99999999999\n", "line 1"},  // over the vertex cap
      {"", "no datasets"},
  };
  for (const auto& [text, needle] : cases) {
    auto spec = ParseEvalSpec(text);
    ASSERT_FALSE(spec.ok()) << "accepted: " << text;
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(spec.status().ToString().find(needle), std::string::npos)
        << spec.status() << " should mention '" << needle << "'";
  }
}

TEST(EvalSpecTest, DefaultSpecTextsParse) {
  for (const bool ci : {false, true}) {
    auto spec = ParseEvalSpec(DefaultEvalSpecText(ci));
    ASSERT_TRUE(spec.ok()) << spec.status();
    EXPECT_EQ(spec->datasets.size(), 4u);  // the 4 graph-family corners
    EXPECT_EQ(spec->workloads.size(), 6u);
    EXPECT_GT(spec->verify_sources, 0u);
  }
}

TEST(EvalHarnessTest, MicroRunProducesPassingReport) {
  auto tmp = TempDir::Create("eval_harness");
  ASSERT_TRUE(tmp.ok());
  auto spec = ParseEvalSpec(
      "graph n=200 avg-degree=5 seed=3\n"
      "graph n=150 avg-degree=4 directed=1 weighted=1 seed=4\n"
      "queries 64 seed=5\n"
      "verify 2\n");
  ASSERT_TRUE(spec.ok()) << spec.status();

  EvalOptions options;
  options.work_dir = tmp->File("work");
  auto report = RunEval(*spec, options);
  ASSERT_TRUE(report.ok()) << report.status();

  // Two datasets, each with every (workload x variant) row; checksum
  // agreement and oracle verification must both hold.
  ASSERT_EQ(report->datasets.size(), 2u);
  for (const EvalDatasetResult& d : report->datasets) {
    EXPECT_EQ(d.verify, "pass");
    EXPECT_GT(d.label_entries, 0u);
    EXPECT_EQ(d.workloads.size(), 6u * 2u);
  }
  EXPECT_TRUE(report->AllPass());

  // Both renderings carry every section / expectation.
  const std::string md = RenderEvalMarkdown(*report);
  for (const char* section : kEvalReportSections) {
    EXPECT_NE(md.find(section), std::string::npos) << section;
  }
  const std::string json = RenderEvalJson(*report);
  EXPECT_NE(json.find("\"all_pass\": true"), std::string::npos);
  EXPECT_NE(json.find("\"variant\": \"blocked\""), std::string::npos);
}

TEST(EvalHarnessTest, VariantSubsetSkipsOthers) {
  auto tmp = TempDir::Create("eval_subset");
  ASSERT_TRUE(tmp.ok());
  auto spec = ParseEvalSpec(
      "graph n=120 avg-degree=4 seed=6\n"
      "variants heap\n"
      "queries 32\n"
      "workload dist\n"
      "verify 0\n");
  ASSERT_TRUE(spec.ok()) << spec.status();
  EvalOptions options;
  options.work_dir = tmp->File("work");
  auto report = RunEval(*spec, options);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->datasets.size(), 1u);
  ASSERT_EQ(report->datasets[0].workloads.size(), 1u);
  EXPECT_EQ(report->datasets[0].workloads[0].variant, "heap");
  EXPECT_EQ(report->datasets[0].verify, "skipped");
}

}  // namespace
}  // namespace hopdb
