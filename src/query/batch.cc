#include "query/batch.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace hopdb {

OneToManyEngine::OneToManyEngine(const LabelSetView& labels,
                                 std::vector<VertexId> targets)
    : view_(labels), targets_(std::move(targets)) {
  const VertexId n = view_.num_vertices;
  // Pass 1: bucket sizes, counted into slot p+1 so the in-place prefix
  // sum below turns the same array into the arena offsets. Each target
  // contributes its in-label entries plus one trivial self-pivot entry
  // (dist(s, t) may be certified by pivot t itself — the entry (t, d1)
  // in Lout(s)).
  bucket_offsets_.assign(n + 1, 0);
  for (uint32_t j = 0; j < targets_.size(); ++j) {
    const VertexId t = targets_[j];
    if (t >= n) continue;  // bucketed nowhere: stays kInfDistance
    bucket_offsets_[t + 1]++;
    ForEachLabelEntry(view_, /*in_side=*/true, t,
                      [&](uint32_t pivot, uint32_t) {
                        bucket_offsets_[pivot + 1]++;
                      });
  }
  for (VertexId p = 0; p < n; ++p) bucket_offsets_[p + 1] += bucket_offsets_[p];
  bucket_target_.resize(bucket_offsets_[n]);
  bucket_dist_.resize(bucket_offsets_[n]);
  // Pass 2: fill through per-pivot write cursors (one scratch array —
  // the offsets stay pristine for Relax).
  std::vector<uint64_t> cursor(bucket_offsets_.begin(),
                               bucket_offsets_.end() - 1);
  for (uint32_t j = 0; j < targets_.size(); ++j) {
    const VertexId t = targets_[j];
    if (t >= n) continue;
    const uint64_t self = cursor[t]++;
    bucket_target_[self] = j;
    bucket_dist_[self] = 0;
    ForEachLabelEntry(view_, /*in_side=*/true, t,
                      [&](uint32_t pivot, uint32_t dist) {
                        const uint64_t k = cursor[pivot]++;
                        bucket_target_[k] = j;
                        bucket_dist_[k] = dist;
                      });
  }
}

void OneToManyEngine::Relax(VertexId pivot, Distance d1,
                            std::vector<Distance>* result) const {
  const uint64_t begin = bucket_offsets_[pivot];
  const uint64_t end = bucket_offsets_[pivot + 1];
  std::vector<Distance>& out = *result;
  for (uint64_t k = begin; k < end; ++k) {
    const Distance d = SaturatingAdd(d1, bucket_dist_[k]);
    if (d < out[bucket_target_[k]]) out[bucket_target_[k]] = d;
  }
}

std::vector<Distance> OneToManyEngine::Query(VertexId s) const {
  std::vector<Distance> result(targets_.size(), kInfDistance);
  if (s >= view_.num_vertices) return result;  // nothing reachable
  // Trivial source pivot: (s, 0) pairs with every in-entry naming s —
  // including the self-bucket entry, so dist(s, s) == 0 falls out.
  Relax(s, 0, &result);
  ForEachLabelEntry(view_, /*in_side=*/false, s,
                    [&](uint32_t pivot, uint32_t dist) {
                      Relax(pivot, dist, &result);
                    });
  return result;
}

std::vector<std::vector<Distance>> ManyToManyDistances(
    const LabelSetView& labels, std::span<const VertexId> sources,
    std::span<const VertexId> targets) {
  OneToManyEngine engine(labels,
                         std::vector<VertexId>(targets.begin(), targets.end()));
  std::vector<std::vector<Distance>> matrix;
  matrix.reserve(sources.size());
  for (const VertexId s : sources) matrix.push_back(engine.Query(s));
  return matrix;
}

}  // namespace hopdb
