// Every seeded input stream of the benchmark, in one place.
//
// The graph is fixed (GLP, graph seed 7); the workload seed drives only
// the request and op streams below. Everything here is generated before
// timing starts, and uses the benchmark's own generator (SplitMix64) and
// its own Zipf sampler, so a change to the library's RNG or benches can
// never change what a given seed asks the server.

#ifndef HOPDB_BENCHMARK_WORKLOADS_H_
#define HOPDB_BENCHMARK_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "graph/types.h"

namespace hopdb_bench {

using hopdb::Distance;
using hopdb::VertexId;

enum class Workload { kInprocUniform, kTcpUniform, kTcpZipfMix, kTcpUpdate };

/// "inproc-uniform", "tcp-uniform", "tcp-zipf-mix", "tcp-update".
const char* WorkloadName(Workload workload);
/// False when `name` names no workload.
bool ParseWorkload(const std::string& name, Workload* out);

/// SplitMix64. Deterministic on every platform, unlike the standard
/// distributions.
class StreamRng {
 public:
  explicit StreamRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound) by multiply-shift; bound > 0.
  uint64_t Below(uint64_t bound);
  /// Uniform in [0, 1).
  double NextDouble();

 private:
  uint64_t state_;
};

/// An independent stream per (seed, purpose).
uint64_t StreamSeed(uint64_t seed, uint64_t purpose);

/// Purposes of the uniform pair streams one seed drives.
enum class Stream : uint64_t {
  kReads = 1,       // the workload's reads
  kFinalReads = 4,  // tcp-update: reads of the final snapshot
};

/// Vertex ids by descending degree in `edges`, ties by id.
std::vector<VertexId> DegreeOrder(const hopdb::EdgeList& edges);

/// Draws rank r of a degree order with probability proportional to
/// 1/(r+1)^alpha, by inverse CDF over the exact cumulative weights.
class ZipfSampler {
 public:
  ZipfSampler(std::vector<VertexId> order, double alpha);
  VertexId Sample(StreamRng* rng) const;

 private:
  std::vector<VertexId> order_;
  std::vector<double> cdf_;
};

enum class Verb : uint8_t { kDist, kBatch, kReach, kKnn };

/// A read stream, stored flat: request i is verb[i] from src[i] over
/// targets[target_begin[i], target_begin[i+1]) with argument arg[i]
/// (REACH bound, KNN k).
struct RequestPool {
  std::vector<Verb> verb;
  std::vector<VertexId> src;
  std::vector<uint32_t> arg;
  std::vector<uint32_t> target_begin{0};
  std::vector<VertexId> targets;

  size_t size() const { return verb.size(); }
  void Add(Verb v, VertexId s, const VertexId* t, size_t count, uint32_t a);
};

/// `count` DIST requests over uniform random pairs of [0, n).
RequestPool UniformDistPool(VertexId n, size_t count, uint64_t seed,
                            Stream stream);

/// The tcp-zipf-mix stream: both endpoints Zipf(0.99) over degree rank;
/// DIST 75%, BATCH of 8 targets 10%, REACH with bound 3 10%, KNN with
/// k = 16 5%.
RequestPool ZipfMixPool(const ZipfSampler& zipf, size_t count, uint64_t seed);

inline constexpr uint32_t kBatchTargets = 8;
inline constexpr uint32_t kReachBound = 3;
inline constexpr uint32_t kKnnK = 16;

/// One step of the tcp-update op stream (original vertex ids).
struct UpdateStep {
  enum class Kind : uint8_t { kAddEdge, kDelEdge, kCommit };
  Kind kind = Kind::kCommit;
  VertexId u = 0;
  VertexId v = 0;
};

struct UpdateStream {
  std::vector<UpdateStep> steps;
  /// The graph after every step: what a from-scratch rebuild indexes.
  hopdb::EdgeList final_edges;
};

/// `ops` edge ops on the undirected, normalized `edges`: ADDEDGE on a
/// uniform random non-edge, except that every tenth op is a DELEDGE of
/// an edge of `edges` away from the hubs; a COMMIT follows every
/// `commit_every` ops (and the last one).
UpdateStream MakeUpdateStream(const hopdb::EdgeList& edges, size_t ops,
                              size_t commit_every, uint64_t seed);

/// Byte image of streams, for the determinism self-test.
std::string SerializePool(const RequestPool& pool);
std::string SerializeSteps(const std::vector<UpdateStep>& steps);

}  // namespace hopdb_bench

#endif  // HOPDB_BENCHMARK_WORKLOADS_H_
