#include "labeling/hot_hub.h"

namespace hopdb {

HotHubCache HotHubCache::Build(const LabelSetView& labels, uint32_t k) {
  HotHubCache cache;
  if (k == 0 || labels.num_vertices == 0) return cache;
  if (k > labels.num_vertices) k = labels.num_vertices;
  cache.k_ = k;
  cache.num_vertices_ = labels.num_vertices;
  cache.directed_ = labels.directed;
  const size_t num_slots = labels.num_slots();
  cache.table_.assign(num_slots * k, kInfDistance);
  cache.skip_.assign(num_slots, 0);
  for (size_t slot = 0; slot < num_slots; ++slot) {
    const FlatLabelStore::View view = labels.Slot(slot);
    Distance* row = cache.table_.data() + slot * k;
    // Labels are sorted by pivot and hub pivots are the smallest
    // internal ids, so the hub-covered entries are exactly a prefix.
    uint32_t i = 0;
    while (i < view.size && view.pivots[i] < k) {
      row[view.pivots[i]] = view.dist(i);
      ++i;
    }
    cache.skip_[slot] = i;
  }
  return cache;
}

Distance HotHubCache::Query(const LabelSetView& labels, VertexId s, VertexId t,
                            const QueryKernel& kernel) const {
  if (s >= num_vertices_ || t >= num_vertices_) return kInfDistance;
  if (s == t) return 0;
  const size_t out_slot = s;
  const size_t in_slot =
      directed_ ? static_cast<size_t>(num_vertices_) + t : t;

  // Hub-covered pivots: one dense fold over 2k contiguous distances.
  // Absent pivots hold kInfDistance; the branchless wraparound check
  // keeps them infinite (inf + x wraps below inf for any real dist x,
  // and inf + 0 never occurs — label distances are nonzero), letting
  // the compiler turn the fold into straight-line cmov/SIMD code.
  const Distance* ho = table_.data() + out_slot * k_;
  const Distance* hi = table_.data() + in_slot * k_;
  Distance best = kInfDistance;
  for (uint32_t h = 0; h < k_; ++h) {
    const Distance sum = ho[h] + hi[h];
    const Distance d = sum < ho[h] ? kInfDistance : sum;
    best = d < best ? d : best;
  }

  const FlatLabelStore::View out_s = labels.Out(s);
  const FlatLabelStore::View in_t = labels.In(t);

  // Trivial pivots over the FULL labels (t itself may be a hub pivot,
  // in which case its entry lives inside the skipped prefix).
  const Distance direct_out = LookupPivotFlat(out_s, t);
  if (direct_out < best) best = direct_out;
  const Distance direct_in = LookupPivotFlat(in_t, s);
  if (direct_in < best) best = direct_in;

  // Non-hub suffixes through the general merge-join. A common pivot
  // >= k needs an entry past the skip prefix on BOTH sides, so if
  // either suffix is empty the hub fold already covered everything.
  const uint32_t skip_a = skip_[out_slot];
  const uint32_t skip_b = skip_[in_slot];
  if (skip_a < out_s.size && skip_b < in_t.size) {
    // Each suffix starts at its label's first non-hub entry; its lanes
    // stay readable past its end, as the label's are.
    const auto suffix = [](FlatLabelStore::View view, uint32_t skip) {
      view.pivots += skip;
      view.dists += uint64_t{skip} * view.dist_width;
      view.size -= skip;
      return view;
    };
    const Distance merged = kernel.intersect_blocked(suffix(out_s, skip_a),
                                                     suffix(in_t, skip_b));
    if (merged < best) best = merged;
  }
  return best;
}

}  // namespace hopdb
