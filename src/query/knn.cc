#include "query/knn.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <vector>

namespace hopdb {

KnnEngine::KnnEngine(const LabelSetView& labels, Direction direction)
    : view_(labels), direction_(direction) {
  const VertexId n = view_.num_vertices;
  inv_.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    // Forward kNN intersects Lout(s) with Lin(v), so the inverted side is
    // the in-labels; backward swaps the roles.
    const bool in_side = direction_ == Direction::kForward;
    inv_[v].push_back({0, v});  // trivial (v, 0) self-entry
    ForEachLabelEntry(view_, in_side, v, [&](uint32_t pivot, uint32_t dist) {
      inv_[pivot].push_back({dist, v});
    });
  }
  for (auto& list : inv_) {
    std::sort(list.begin(), list.end(),
              [](const InvEntry& a, const InvEntry& b) {
                return a.dist != b.dist ? a.dist < b.dist
                                        : a.owner < b.owner;
              });
  }
}

void KnnEngine::CollectSeeds(VertexId s,
                             std::vector<LabelEntry>* seeds) const {
  const bool out_side = direction_ == Direction::kForward;
  ForEachLabelEntry(view_, /*in_side=*/!out_side, s,
                    [&](uint32_t pivot, uint32_t dist) {
                      seeds->push_back({pivot, dist});
                    });
  seeds->push_back({s, 0});  // trivial (s, 0) source pivot
}

std::vector<KnnEngine::Neighbor> KnnEngine::Query(VertexId s, uint32_t k,
                                                  bool include_source) const {
  std::vector<Neighbor> result;
  if (s >= view_.num_vertices || k == 0) return result;
  // k is client-controlled on the serving path; at most n vertices can
  // ever be emitted, so clamp the reservation (a bare reserve(k) would
  // let one "KNN 0 4294967295" request attempt a ~34 GB allocation).
  result.reserve(std::min<uint64_t>(k, view_.num_vertices));

  // Frontier of (total distance, seed index, position in the seed's
  // inverted list); the pop order enumerates all (source entry, inverted
  // entry) pairs by non-decreasing d1 + d2.
  struct Frontier {
    Distance total;
    uint32_t seed_idx;
    uint32_t pos;
    bool operator>(const Frontier& o) const { return total > o.total; }
  };
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<>> pq;

  // d1_of_pivot is needed when advancing a cursor; store alongside the
  // seed list (sorted by pivot — Lout(s) order — for lookup by index).
  std::vector<LabelEntry> seeds;
  CollectSeeds(s, &seeds);

  for (uint32_t i = 0; i < seeds.size(); ++i) {
    const auto& list = inv_[seeds[i].pivot];
    if (!list.empty()) {
      pq.push({SaturatingAdd(seeds[i].dist, list[0].dist), i, 0});
    }
  }

  std::vector<bool> emitted(view_.num_vertices, false);
  while (!pq.empty() && result.size() < k) {
    const Frontier f = pq.top();
    pq.pop();
    if (f.total == kInfDistance) break;
    const LabelEntry& seed = seeds[f.seed_idx];
    const auto& list = inv_[seed.pivot];
    const VertexId v = list[f.pos].owner;
    if (f.pos + 1 < list.size()) {
      pq.push({SaturatingAdd(seed.dist, list[f.pos + 1].dist), f.seed_idx,
               f.pos + 1});
    }
    if (!emitted[v]) {
      emitted[v] = true;
      if (v != s || include_source) result.push_back({v, f.total});
    }
  }
  return result;
}

std::vector<KnnEngine::Neighbor> KnnEngine::QueryWithin(
    VertexId s, Distance radius, bool include_source) const {
  std::vector<Neighbor> result;
  if (s >= view_.num_vertices) return result;

  std::vector<LabelEntry> seeds;
  CollectSeeds(s, &seeds);

  // Min label sum per vertex over the in-radius prefix of every seed
  // pivot's inverted list. Sums never undershoot the true distance, so
  // the per-vertex minimum filtered at <= radius is exact.
  std::vector<Distance> best(view_.num_vertices, kInfDistance);
  for (const LabelEntry& seed : seeds) {
    if (seed.dist > radius) continue;
    for (const InvEntry& entry : inv_[seed.pivot]) {
      const Distance total = SaturatingAdd(seed.dist, entry.dist);
      if (total > radius) break;  // sorted by dist: prefix is complete
      if (total < best[entry.owner]) best[entry.owner] = total;
    }
  }

  for (VertexId v = 0; v < view_.num_vertices; ++v) {
    if (best[v] == kInfDistance) continue;
    if (v == s && !include_source) continue;
    result.push_back({v, best[v]});
  }
  std::sort(result.begin(), result.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.dist != b.dist ? a.dist < b.dist
                                      : a.vertex < b.vertex;
            });
  return result;
}

uint64_t KnnEngine::TotalInvertedEntries() const {
  uint64_t total = 0;
  for (const auto& list : inv_) total += list.size();
  return total;
}

}  // namespace hopdb
