#include "labeling/bit_parallel.h"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace hopdb {

namespace {
struct SrSlot {
  uint8_t root = 255;  // root index, 255 = unassigned
  uint8_t bit = 0;
};
}  // namespace

Result<BitParallelIndex> BitParallelIndex::Transform(
    TwoHopIndex base, const CsrGraph& ranked_graph,
    const BitParallelOptions& options) {
  if (base.directed() || ranked_graph.directed()) {
    return Status::Unimplemented(
        "bit-parallel labels require an undirected graph");
  }
  if (ranked_graph.weighted()) {
    return Status::Unimplemented(
        "bit-parallel labels require an unweighted graph");
  }
  if (base.num_vertices() != ranked_graph.num_vertices()) {
    return Status::InvalidArgument("index/graph size mismatch");
  }
  if (options.num_roots == 0 || options.num_roots > 64) {
    return Status::InvalidArgument("num_roots must be in [1, 64]");
  }

  BitParallelIndex out;
  const VertexId n = base.num_vertices();
  const uint32_t R = std::min<uint32_t>(options.num_roots, n);
  out.num_roots_ = R;

  // --- assign S_r: up to 64 non-root neighbors per root, disjoint.
  std::vector<SrSlot> in_sr(n);
  const uint32_t max_nb = std::min<uint32_t>(options.max_neighbors_per_root,
                                             64);
  for (uint32_t r = 0; r < R; ++r) {
    uint32_t bit = 0;
    for (const Arc& a : ranked_graph.OutArcs(r)) {
      if (bit >= max_nb) break;
      const VertexId u = a.to;
      if (u < R) continue;                  // roots are never in any S_r
      if (in_sr[u].root != 255) continue;   // S_r sets are disjoint
      in_sr[u] = {static_cast<uint8_t>(r), static_cast<uint8_t>(bit++)};
    }
  }

  // --- fold labels.
  out.marker_.assign(n, 0);
  out.bp_.assign(n, {});
  std::vector<LabelVector> normal(n);
  std::vector<Distance> root_d(R);

  for (VertexId v = 0; v < n; ++v) {
    const LabelView label = base.OutLabel(v);
    std::fill(root_d.begin(), root_d.end(), kInfDistance);

    // Pass A: the tuple distance per root — the label's own (r, d) entry
    // when present, otherwise the best d_uv + 1 over folded neighbors
    // (a real path via u), plus the implicit self entries.
    for (const LabelEntry& e : label) {
      if (e.pivot < R) {
        root_d[e.pivot] = std::min(root_d[e.pivot], e.dist);
      } else if (in_sr[e.pivot].root != 255) {
        const uint8_t r = in_sr[e.pivot].root;
        root_d[r] = std::min(root_d[r], SaturatingAdd(e.dist, 1));
      }
    }
    if (v < R) root_d[v] = 0;
    if (in_sr[v].root != 255) {
      root_d[in_sr[v].root] = std::min<Distance>(root_d[in_sr[v].root], 1);
    }

    // Pass B: build tuples and distribute entries.
    std::vector<BpTuple> tuples(R, BpTuple{0, 0, 0, 0});
    std::vector<uint8_t> has_tuple(R, 0);
    auto ensure_tuple = [&](uint8_t r) {
      if (!has_tuple[r]) {
        has_tuple[r] = 1;
        tuples[r] = {r, root_d[r], 0, 0};
      }
    };
    for (const LabelEntry& e : label) {
      if (e.pivot < R) {
        ensure_tuple(static_cast<uint8_t>(e.pivot));
        continue;  // folded into the tuple's distance
      }
      if (in_sr[e.pivot].root != 255) {
        const SrSlot slot = in_sr[e.pivot];
        ensure_tuple(slot.root);
        const int64_t diff = static_cast<int64_t>(e.dist) -
                             static_cast<int64_t>(root_d[slot.root]);
        if (diff == -1) {
          tuples[slot.root].s_m1 |= 1ull << slot.bit;
        } else if (diff == 0) {
          tuples[slot.root].s_0 |= 1ull << slot.bit;
        }
        // diff >= +1: discard — the path via r is never longer.
        continue;
      }
      normal[v].push_back(e);
    }
    // Implicit self entries.
    if (v < R) ensure_tuple(static_cast<uint8_t>(v));
    if (in_sr[v].root != 255) {
      const SrSlot slot = in_sr[v];
      ensure_tuple(slot.root);
      // d_vv - d_rv = 0 - 1 = -1.
      tuples[slot.root].s_m1 |= 1ull << slot.bit;
    }

    for (uint32_t r = 0; r < R; ++r) {
      if (has_tuple[r]) {
        out.marker_[v] |= 1ull << r;
        out.bp_[v].push_back(tuples[r]);
      }
    }
  }

  out.normal_ = TwoHopIndex(std::move(normal), {}, /*directed=*/false);
  return out;
}

Distance BitParallelIndex::Query(VertexId s, VertexId t) const {
  if (s == t) return 0;
  Distance best = kInfDistance;

  uint64_t common = marker_[s] & marker_[t];
  while (common != 0) {
    const int i = __builtin_ctzll(common);
    common &= common - 1;
    const uint64_t below = (1ull << i) - 1;
    const BpTuple& ts = bp_[s][__builtin_popcountll(marker_[s] & below)];
    const BpTuple& tt = bp_[t][__builtin_popcountll(marker_[t] & below)];
    Distance d = static_cast<Distance>(ts.dist) + tt.dist;
    if ((ts.s_m1 & tt.s_m1) != 0) {
      d -= 2;
    } else if (((ts.s_m1 & tt.s_0) | (ts.s_0 & tt.s_m1)) != 0) {
      d -= 1;
    }
    if (d < best) best = d;
  }

  // normal_ is undirected, so this is exactly the flat-kernel label join
  // over Lout(s) and Lout(t).
  const Distance dn = normal_.Query(s, t);
  return std::min(best, dn);
}

uint64_t BitParallelIndex::BpTuples() const {
  uint64_t total = 0;
  for (const auto& v : bp_) total += v.size();
  return total;
}

uint64_t BitParallelIndex::PaperSizeBytes() const {
  return NormalEntries() * 5ull + BpTuples() * 18ull +
         marker_.size() * 8ull;
}

}  // namespace hopdb
