// Concurrent-read correctness: many threads hammering one shared
// HopDbIndex (the guarantee documented on HopDbIndex::Query), and a full
// server stress with concurrent TCP clients racing a RELOAD hot-swap —
// every answer cross-checked against the BFS/Dijkstra oracle. Run under
// TSan (cmake --preset tsan) this is the race detector for the whole
// serving subsystem.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gen/glp.h"
#include "gen/weights.h"
#include "graph/csr_graph.h"
#include "hopdb.h"
#include "io/temp_dir.h"
#include "labeling/mapped_index.h"
#include "search/dijkstra.h"
#include "server/client.h"
#include "server/server.h"
#include "util/random.h"
#include "util/string_util.h"

namespace hopdb {
namespace {

EdgeList MakeGraph(VertexId n, double avg_degree, uint64_t seed,
                   bool weighted) {
  GlpOptions options;
  options.num_vertices = n;
  options.target_avg_degree = avg_degree;
  options.seed = seed;
  EdgeList edges = GenerateGlp(options).ValueOrDie();
  if (weighted) AssignUniformWeights(&edges, 1, 9, DeriveSeed(seed, 41));
  return edges;
}

/// truth[s] = exact distances from s to every vertex.
std::vector<std::vector<Distance>> FullOracle(const CsrGraph& graph) {
  std::vector<std::vector<Distance>> truth(graph.num_vertices());
  for (VertexId s = 0; s < graph.num_vertices(); ++s) {
    truth[s] = ExactDistances(graph, s);
  }
  return truth;
}

// N threads, one shared index, every answer oracle-checked. No locks in
// the read path — under TSan this verifies the concurrent-reader
// guarantee the facade documents.
void HammerSharedIndex(bool weighted) {
  constexpr VertexId kN = 250;
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4000;

  const EdgeList edges = MakeGraph(kN, 5.0, weighted ? 31 : 13, weighted);
  const CsrGraph graph = CsrGraph::FromEdgeList(edges).ValueOrDie();
  const HopDbIndex index = HopDbIndex::Build(graph).ValueOrDie();
  const std::vector<std::vector<Distance>> truth = FullOracle(graph);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(1000 + w);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const VertexId s = static_cast<VertexId>(rng.Below(kN));
        const VertexId t = static_cast<VertexId>(rng.Below(kN));
        if (index.Query(s, t) != truth[s][t]) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrentQueryTest, SharedIndexUnweighted) { HammerSharedIndex(false); }

TEST(ConcurrentQueryTest, SharedIndexWeighted) { HammerSharedIndex(true); }

// Full serving stack under fire: concurrent TCP clients (DIST + BATCH)
// while the main thread hot-swaps between two indexes over the same
// vertex set. Every response must exactly match one of the two oracles —
// a torn swap, a stale cache entry, or a cross-snapshot mix would
// produce a distance neither graph has.
TEST(ConcurrentQueryTest, ServerStressWithRacingHotSwap) {
  constexpr VertexId kN = 200;
  constexpr int kClients = 6;
  constexpr int kQueriesPerClient = 300;
  constexpr int kReloads = 8;

  const EdgeList edges_a = MakeGraph(kN, 5.0, /*seed=*/71, false);
  const EdgeList edges_b = MakeGraph(kN, 4.0, /*seed=*/72, false);
  CsrGraph graph_a = CsrGraph::FromEdgeList(edges_a).ValueOrDie();
  CsrGraph graph_b = CsrGraph::FromEdgeList(edges_b).ValueOrDie();
  const auto truth_a = FullOracle(graph_a);
  const auto truth_b = FullOracle(graph_b);

  auto tmp = TempDir::Create("concurrent_query_test");
  ASSERT_TRUE(tmp.ok());
  const std::string path_a = tmp->File("a.hli");
  const std::string path_b = tmp->File("b.hli");
  ASSERT_TRUE(
      HopDbIndex::Build(std::move(graph_a)).ValueOrDie().Save(path_a).ok());
  ASSERT_TRUE(
      HopDbIndex::Build(std::move(graph_b)).ValueOrDie().Save(path_b).ok());

  ServerOptions options;
  options.num_workers = 4;
  options.cache_capacity = 256;  // small: exercise eviction under load
  options.queue_capacity = 64;   // small: exercise producer backpressure
  options.source_path = path_a;
  auto server = DistanceServer::Start(
                    HopDbIndex::Load(path_a).ValueOrDie(), options)
                    .ValueOrDie();
  const uint16_t port = server->port();

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  auto check_pair = [&](VertexId s, VertexId t, Distance got) {
    if (got != truth_a[s][t] && got != truth_b[s][t]) {
      failures.fetch_add(1);
    }
  };

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = DistanceClient::Connect("127.0.0.1", port);
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(5000 + c);
      for (int i = 0; i < kQueriesPerClient && !done.load(); ++i) {
        const VertexId s = static_cast<VertexId>(rng.Below(kN));
        if (i % 10 == 9) {
          // Mixed-in BATCH traffic.
          VertexId t0 = static_cast<VertexId>(rng.Below(kN));
          VertexId t1 = static_cast<VertexId>(rng.Below(kN));
          VertexId t2 = static_cast<VertexId>(rng.Below(kN));
          VertexId t3 = static_cast<VertexId>(rng.Below(kN));
          auto response = client->RoundTrip(
              "BATCH " + std::to_string(s) + " " + std::to_string(t0) + " " +
              std::to_string(t1) + " " + std::to_string(t2) + " " +
              std::to_string(t3));
          if (!response.ok() || !StartsWith(*response, "OK ")) {
            failures.fetch_add(1);
            break;
          }
          const std::vector<std::string> tokens =
              SplitString(response->substr(3), ' ');
          if (tokens.size() != 4) {
            failures.fetch_add(1);
            break;
          }
          const VertexId targets[4] = {t0, t1, t2, t3};
          for (int j = 0; j < 4; ++j) {
            auto d = ParseDistanceToken(tokens[j]);
            if (!d.ok()) {
              failures.fetch_add(1);
              break;
            }
            check_pair(s, targets[j], *d);
          }
        } else {
          const VertexId t = static_cast<VertexId>(rng.Below(kN));
          auto d = client->QueryDistance(s, t);
          if (!d.ok()) {
            failures.fetch_add(1);
            break;
          }
          check_pair(s, t, *d);
        }
      }
    });
  }

  // Race hot-swaps against the query storm, alternating A <-> B.
  for (int r = 0; r < kReloads; ++r) {
    const Status status = server->Reload("", r % 2 == 0 ? path_b : path_a);
    EXPECT_TRUE(status.ok()) << status;
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }

  for (auto& t : clients) t.join();
  done.store(true);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->metrics().reloads(), static_cast<uint64_t>(kReloads));
  // The storm actually exercised the serving path.
  EXPECT_GT(server->metrics().dist_queries(), 0u);
  server->Stop();
}

// RELOAD issued through the wire while other clients query: the swap
// must be observed atomically (every client sees old or new, never a
// blend). Uses different vertex counts so "which index answered" is
// directly observable through out-of-range errors.
TEST(ConcurrentQueryTest, WireReloadChangesVertexCountAtomically) {
  const EdgeList small = MakeGraph(80, 4.0, /*seed=*/81, false);
  const EdgeList big = MakeGraph(160, 4.0, /*seed=*/82, false);
  CsrGraph graph_small = CsrGraph::FromEdgeList(small).ValueOrDie();
  CsrGraph graph_big = CsrGraph::FromEdgeList(big).ValueOrDie();
  const auto truth_small = FullOracle(graph_small);
  const auto truth_big = FullOracle(graph_big);

  auto tmp = TempDir::Create("concurrent_query_test");
  ASSERT_TRUE(tmp.ok());
  const std::string path_small = tmp->File("small.hli");
  const std::string path_big = tmp->File("big.hli");
  ASSERT_TRUE(HopDbIndex::Build(std::move(graph_small))
                  .ValueOrDie()
                  .Save(path_small)
                  .ok());
  ASSERT_TRUE(
      HopDbIndex::Build(std::move(graph_big)).ValueOrDie().Save(path_big).ok());

  ServerOptions options;
  options.num_workers = 2;
  options.source_path = path_small;
  auto server = DistanceServer::Start(
                    HopDbIndex::Load(path_small).ValueOrDie(), options)
                    .ValueOrDie();

  std::atomic<int> failures{0};
  std::thread querier([&] {
    auto client = DistanceClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      failures.fetch_add(1);
      return;
    }
    Rng rng(91);
    for (int i = 0; i < 400; ++i) {
      const VertexId s = static_cast<VertexId>(rng.Below(160));
      const VertexId t = static_cast<VertexId>(rng.Below(160));
      auto response = client->RoundTrip("DIST " + std::to_string(s) + " " +
                                        std::to_string(t));
      if (!response.ok()) {
        failures.fetch_add(1);
        return;
      }
      if (StartsWith(*response, "ERR ")) {
        // Acceptable only as an out-of-range answer from the small index.
        if (response->find("out of range") == std::string::npos ||
            (s < 80 && t < 80)) {
          failures.fetch_add(1);
        }
        continue;
      }
      auto d = ParseDistanceToken(response->substr(3));
      if (!d.ok()) {
        failures.fetch_add(1);
        return;
      }
      const bool matches_small =
          s < 80 && t < 80 && *d == truth_small[s][t];
      const bool matches_big = *d == truth_big[s][t];
      if (!matches_small && !matches_big) failures.fetch_add(1);
    }
  });

  std::thread swapper([&] {
    auto client = DistanceClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      failures.fetch_add(1);
      return;
    }
    for (int r = 0; r < 6; ++r) {
      auto response = client->RoundTrip(
          "RELOAD " + (r % 2 == 0 ? path_big : path_small));
      if (!response.ok() || !StartsWith(*response, "OK ")) {
        failures.fetch_add(1);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  querier.join();
  swapper.join();
  EXPECT_EQ(failures.load(), 0);
}

// Concurrent queries racing DETACH/re-ATTACH of an mmap-backed index:
// a routed answer must be either a correct distance from the attached
// snapshot or a clean "no index named" error — never a crash, a hang,
// or a wrong distance (a worker that resolved the snapshot before the
// DETACH legitimately finishes on it; the mapping must stay alive until
// that last reference drops).
TEST(ConcurrentQueryTest, ConcurrentQueriesDuringDetach) {
  constexpr VertexId kN = 150;
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 250;
  constexpr int kCycles = 10;

  const EdgeList edges_a = MakeGraph(kN, 5.0, /*seed=*/61, false);
  const EdgeList edges_x = MakeGraph(kN, 4.0, /*seed=*/62, false);
  CsrGraph graph_x = CsrGraph::FromEdgeList(edges_x).ValueOrDie();
  const auto truth_x = FullOracle(graph_x);

  auto tmp = TempDir::Create("detach_race").ValueOrDie();
  HopDbIndex index_x = HopDbIndex::Build(std::move(graph_x)).ValueOrDie();
  const std::string path_x = tmp.File("x.hli2");
  ASSERT_TRUE(MappedIndex::Write(index_x.label_index(), index_x.ranking(),
                                 path_x)
                  .ok());

  ServerOptions options;
  options.num_workers = 3;
  options.cache_capacity = 256;
  auto server =
      DistanceServer::Start(HopDbIndex::Build(edges_a).ValueOrDie(), options)
          .ValueOrDie();
  ASSERT_TRUE(server->AttachIndex("extra", path_x).ok());

  std::atomic<int> failures{0};
  std::atomic<uint64_t> ok_answers{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = DistanceClient::Connect("127.0.0.1", server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(500 + c);
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const VertexId s = static_cast<VertexId>(rng.Below(kN));
        const VertexId t = static_cast<VertexId>(rng.Below(kN));
        auto response = client->RoundTrip("USE extra DIST " +
                                          std::to_string(s) + " " +
                                          std::to_string(t));
        if (!response.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (StartsWith(*response, "OK ")) {
          auto d = ParseDistanceToken(response->substr(3));
          if (!d.ok() || *d != truth_x[s][t]) {
            failures.fetch_add(1);
            return;
          }
          ok_answers.fetch_add(1);
        } else if (response->find("no index named") == std::string::npos) {
          failures.fetch_add(1);  // only the detach window may error
          return;
        }
      }
    });
  }

  for (int r = 0; r < kCycles; ++r) {
    ASSERT_TRUE(server->DetachIndex("extra").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_TRUE(server->AttachIndex("extra", path_x).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The storm actually got routed answers (the windows are short).
  EXPECT_GT(ok_answers.load(), 0u);
  server->Stop();
}

}  // namespace
}  // namespace hopdb
