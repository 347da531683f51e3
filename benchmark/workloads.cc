#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <tuple>
#include <unordered_set>
#include <utility>

namespace hopdb_bench {

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kInprocUniform:
      return "inproc-uniform";
    case Workload::kTcpUniform:
      return "tcp-uniform";
    case Workload::kTcpZipfMix:
      return "tcp-zipf-mix";
    case Workload::kTcpUpdate:
      return "tcp-update";
  }
  return "unknown";
}

bool ParseWorkload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kInprocUniform, Workload::kTcpUniform,
                     Workload::kTcpZipfMix, Workload::kTcpUpdate}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

uint64_t StreamRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t StreamRng::Below(uint64_t bound) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * bound) >> 64);
}

double StreamRng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t StreamSeed(uint64_t seed, uint64_t purpose) {
  StreamRng rng(seed * 0x100000001b3ull + purpose);
  return rng.Next();
}

std::vector<VertexId> DegreeOrder(const hopdb::EdgeList& edges) {
  std::vector<uint64_t> degree(edges.num_vertices(), 0);
  for (const hopdb::Edge& e : edges.edges()) {
    degree[e.src]++;
    degree[e.dst]++;
  }
  std::vector<VertexId> order(edges.num_vertices());
  for (VertexId v = 0; v < edges.num_vertices(); ++v) order[v] = v;
  std::sort(order.begin(), order.end(), [&degree](VertexId a, VertexId b) {
    return degree[a] != degree[b] ? degree[a] > degree[b] : a < b;
  });
  return order;
}

ZipfSampler::ZipfSampler(std::vector<VertexId> order, double alpha)
    : order_(std::move(order)) {
  cdf_.reserve(order_.size());
  double total = 0;
  for (size_t rank = 0; rank < order_.size(); ++rank) {
    total += std::pow(static_cast<double>(rank + 1), -alpha);
    cdf_.push_back(total);
  }
}

VertexId ZipfSampler::Sample(StreamRng* rng) const {
  const double u = rng->NextDouble() * cdf_.back();
  const size_t rank = static_cast<size_t>(
      std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return order_[std::min(rank, order_.size() - 1)];
}

void RequestPool::Add(Verb v, VertexId s, const VertexId* t, size_t count,
                      uint32_t a) {
  verb.push_back(v);
  src.push_back(s);
  arg.push_back(a);
  targets.insert(targets.end(), t, t + count);
  target_begin.push_back(static_cast<uint32_t>(targets.size()));
}

RequestPool UniformDistPool(VertexId n, size_t count, uint64_t seed,
                            Stream stream) {
  RequestPool pool;
  StreamRng rng(StreamSeed(seed, static_cast<uint64_t>(stream)));
  for (size_t i = 0; i < count; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Below(n));
    const VertexId t = static_cast<VertexId>(rng.Below(n));
    pool.Add(Verb::kDist, s, &t, 1, 0);
  }
  return pool;
}

RequestPool ZipfMixPool(const ZipfSampler& zipf, size_t count,
                        uint64_t seed) {
  RequestPool pool;
  StreamRng rng(StreamSeed(seed, 2));
  VertexId targets[kBatchTargets];
  for (size_t i = 0; i < count; ++i) {
    const uint64_t pick = rng.Below(100);
    const VertexId s = zipf.Sample(&rng);
    if (pick < 75) {
      targets[0] = zipf.Sample(&rng);
      pool.Add(Verb::kDist, s, targets, 1, 0);
    } else if (pick < 85) {
      for (VertexId& t : targets) t = zipf.Sample(&rng);
      pool.Add(Verb::kBatch, s, targets, kBatchTargets, 0);
    } else if (pick < 95) {
      targets[0] = zipf.Sample(&rng);
      pool.Add(Verb::kReach, s, targets, 1, kReachBound);
    } else {
      pool.Add(Verb::kKnn, s, targets, 0, kKnnK);
    }
  }
  return pool;
}

namespace {

uint64_t EdgeKey(VertexId a, VertexId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

UpdateStream MakeUpdateStream(const hopdb::EdgeList& edges, size_t ops,
                              size_t commit_every, uint64_t seed) {
  const VertexId n = edges.num_vertices();
  std::unordered_set<uint64_t> present;
  std::vector<uint32_t> degree(n, 0);
  for (const hopdb::Edge& e : edges.edges()) {
    present.insert(EdgeKey(e.src, e.dst));
    degree[e.src]++;
    degree[e.dst]++;
  }
  StreamRng rng(StreamSeed(seed, 3));

  // Every tenth op deletes an edge of the half of the graph's edges whose
  // larger endpoint degree is lowest, one edge from each of ops/10 equal
  // strata of that order. Deleting an edge at a hub can cost a full
  // rebuild (4.6 s at 50k vertices for the edge between the top hub and a
  // degree-4 vertex), and that single op would decide the whole run; in
  // the lower half a delete costs 25-210 ms, and the strata give every
  // seed the same mix.
  std::vector<hopdb::Edge> order(edges.edges().begin(), edges.edges().end());
  const auto key = [&degree](const hopdb::Edge& e) {
    return std::make_tuple(std::max(degree[e.src], degree[e.dst]),
                           std::min(degree[e.src], degree[e.dst]),
                           EdgeKey(e.src, e.dst));
  };
  std::sort(order.begin(), order.end(),
            [&key](const hopdb::Edge& a, const hopdb::Edge& b) {
              return key(a) < key(b);
            });
  const size_t deletes = ops / 10;
  const size_t half = order.size() / 2;
  std::vector<hopdb::Edge> doomed;
  for (size_t s = 0; s < deletes; ++s) {
    const size_t begin = half * s / deletes;
    doomed.push_back(order[begin + rng.Below(half * (s + 1) / deletes - begin)]);
  }
  for (size_t i = doomed.size(); i > 1; --i) {  // Fisher-Yates
    std::swap(doomed[i - 1], doomed[rng.Below(i)]);
  }

  // Inserts pick pairs never present (a deleted edge stays in `present`),
  // so the final graph is the generated one minus the deletes plus every
  // insert.
  UpdateStream stream;
  std::unordered_set<uint64_t> deleted;
  for (size_t op = 0; op < ops; ++op) {
    UpdateStep step;
    if (op % 10 == 9 && !doomed.empty()) {
      step.kind = UpdateStep::Kind::kDelEdge;
      step.u = doomed.back().src;
      step.v = doomed.back().dst;
      doomed.pop_back();
      deleted.insert(EdgeKey(step.u, step.v));
    } else {
      step.kind = UpdateStep::Kind::kAddEdge;
      do {
        step.u = static_cast<VertexId>(rng.Below(n));
        step.v = static_cast<VertexId>(rng.Below(n));
      } while (step.u == step.v || present.count(EdgeKey(step.u, step.v)));
      present.insert(EdgeKey(step.u, step.v));
    }
    stream.steps.push_back(step);
    if ((op + 1) % commit_every == 0 || op + 1 == ops) {
      stream.steps.push_back(UpdateStep{});
    }
  }

  stream.final_edges = hopdb::EdgeList(n, /*directed=*/false);
  for (const hopdb::Edge& e : edges.edges()) {
    if (!deleted.count(EdgeKey(e.src, e.dst))) {
      stream.final_edges.Add(e.src, e.dst);
    }
  }
  for (const UpdateStep& step : stream.steps) {
    if (step.kind == UpdateStep::Kind::kAddEdge) {
      stream.final_edges.Add(step.u, step.v);
    }
  }
  return stream;
}

namespace {

template <typename T>
void AppendVector(const std::vector<T>& values, std::string* out) {
  const size_t bytes = values.size() * sizeof(T);
  const size_t at = out->size();
  out->resize(at + bytes);
  if (bytes > 0) std::memcpy(out->data() + at, values.data(), bytes);
}

}  // namespace

std::string SerializePool(const RequestPool& pool) {
  std::string out;
  AppendVector(pool.verb, &out);
  AppendVector(pool.src, &out);
  AppendVector(pool.arg, &out);
  AppendVector(pool.target_begin, &out);
  AppendVector(pool.targets, &out);
  return out;
}

std::string SerializeSteps(const std::vector<UpdateStep>& steps) {
  std::string out;
  for (const UpdateStep& step : steps) {
    out.push_back(static_cast<char>(step.kind));
    out.append(reinterpret_cast<const char*>(&step.u), sizeof(step.u));
    out.append(reinterpret_cast<const char*>(&step.v), sizeof(step.v));
  }
  return out;
}

}  // namespace hopdb_bench
