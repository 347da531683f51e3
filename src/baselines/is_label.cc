#include "baselines/is_label.h"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/timer.h"

namespace hopdb {

namespace {

using AdjMap = std::unordered_map<VertexId, Distance>;

struct NeighborSnapshot {
  VertexId to;
  Distance weight;
};

class IsLabelBuilder {
 public:
  IsLabelBuilder(const CsrGraph& g, const IsLabelOptions& opts,
                 uint32_t max_levels = 0)
      : g_(g),
        opts_(opts),
        max_levels_(max_levels),
        directed_(g.directed()),
        deadline_(opts.time_budget_seconds) {}

  Result<IsLabelOutput> Run() {
    Stopwatch watch;
    HOPDB_RETURN_NOT_OK(BuildHierarchy());
    HOPDB_RETURN_NOT_OK(AssembleLabels());
    IsLabelOutput out{
        TwoHopIndex(std::move(lout_), std::move(lin_), directed_),
        watch.Seconds(), num_levels_, peak_edges_};
    return out;
  }

  Result<IsLabelPartialOutput> RunPartial() {
    Stopwatch watch;
    HOPDB_RETURN_NOT_OK(BuildHierarchy());
    HOPDB_RETURN_NOT_OK(AssembleLabels());

    // Snapshot the augmented residual graph Gk over the survivors. Each
    // undirected edge lives in both endpoint maps; emit it once.
    EdgeList residual(g_.num_vertices(), directed_);
    residual.set_weighted(true);  // augmented arcs carry path lengths
    for (VertexId u = 0; u < g_.num_vertices(); ++u) {
      if (level_[u] != 0) continue;
      for (const auto& [w, d] : adj_out_[u]) {
        if (directed_ || u < w) residual.Add(u, w, d);
      }
    }
    residual.Normalize();

    IsLabelPartialOutput out;
    out.index = TwoHopIndex(std::move(lout_), std::move(lin_), directed_);
    out.residual = std::move(residual);
    out.level = std::move(level_);
    out.seconds = watch.Seconds();
    out.num_levels = num_levels_;
    out.peak_intermediate_edges = peak_edges_;
    return out;
  }

 private:
  uint64_t CurrentEdges() const { return current_edges_; }

  void AddOrImprove(VertexId x, VertexId y, Distance d) {
    auto [it, inserted] = adj_out_[x].try_emplace(y, d);
    if (inserted) {
      ++current_edges_;
    } else if (d < it->second) {
      it->second = d;
    } else {
      return;  // existing edge already at least as short
    }
    // Mirror: reverse adjacency for directed graphs, the symmetric arc for
    // undirected ones (each undirected edge is stored in both maps).
    if (directed_) {
      adj_in_[y][x] = d;
    } else {
      auto [it2, inserted2] = adj_out_[y].try_emplace(x, d);
      if (inserted2) {
        ++current_edges_;
      } else {
        it2->second = d;
      }
    }
  }

  Status BuildHierarchy() {
    const VertexId n = g_.num_vertices();
    adj_out_.assign(n, {});
    if (directed_) adj_in_.assign(n, {});
    level_.assign(n, 0);
    removed_out_.assign(n, {});
    if (directed_) removed_in_.assign(n, {});

    for (VertexId u = 0; u < n; ++u) {
      for (const Arc& a : g_.OutArcs(u)) {
        AddOrImprove(u, a.to, a.weight);
      }
    }
    const uint64_t initial_edges = std::max<uint64_t>(current_edges_, 1);
    peak_edges_ = current_edges_;

    std::vector<VertexId> alive(n);
    for (VertexId v = 0; v < n; ++v) alive[v] = v;
    std::vector<uint8_t> blocked(n, 0);
    std::vector<VertexId> selected;

    while (!alive.empty() &&
           (max_levels_ == 0 || num_levels_ < max_levels_)) {
      if (deadline_.Exceeded()) {
        return Status::DeadlineExceeded("IS-Label hierarchy over budget");
      }
      if (opts_.max_edge_growth_factor > 0 &&
          static_cast<double>(current_edges_) >
              opts_.max_edge_growth_factor *
                  static_cast<double>(initial_edges)) {
        return Status::ResourceExhausted(
            "IS-Label intermediate graph grew past the growth cap (level " +
            std::to_string(num_levels_) + ")");
      }
      ++num_levels_;

      // Greedy independent set favoring low current degree. Selection is
      // restricted to below-2x-average-degree vertices: removing a hub of
      // degree D adds up to D^2 augmentation edges, so hubs must stay
      // until the graph around them has collapsed (this is also why
      // IS-Label ranks low-degree vertices lowest).
      std::sort(alive.begin(), alive.end(), [&](VertexId a, VertexId b) {
        size_t da = DegreeOf(a), db = DegreeOf(b);
        if (da != db) return da < db;
        return a < b;
      });
      size_t degree_sum = 0;
      for (VertexId v : alive) degree_sum += DegreeOf(v);
      const size_t degree_cap = std::max<size_t>(
          4, 2 * degree_sum / std::max<size_t>(alive.size(), 1));
      selected.clear();
      for (VertexId v : alive) blocked[v] = 0;
      for (VertexId v : alive) {
        if (blocked[v]) continue;
        if (DegreeOf(v) > degree_cap && !selected.empty()) break;
        selected.push_back(v);
        blocked[v] = 1;
        for (const auto& [w, d] : adj_out_[v]) blocked[w] = 1;
        if (directed_) {
          for (const auto& [w, d] : adj_in_[v]) blocked[w] = 1;
        }
      }
      HOPDB_CHECK(!selected.empty());

      for (VertexId v : selected) {
        level_[v] = num_levels_;
        // Snapshot removal-time adjacency (sorted for determinism).
        auto snapshot = [](const AdjMap& m) {
          std::vector<NeighborSnapshot> out;
          out.reserve(m.size());
          for (const auto& [w, d] : m) out.push_back({w, d});
          std::sort(out.begin(), out.end(),
                    [](const NeighborSnapshot& a, const NeighborSnapshot& b) {
                      return a.to < b.to;
                    });
          return out;
        };
        removed_out_[v] = snapshot(adj_out_[v]);
        if (directed_) removed_in_[v] = snapshot(adj_in_[v]);

        // Distance-preserving augmentation between in- and out-neighbors.
        const auto& ins = directed_ ? removed_in_[v] : removed_out_[v];
        const auto& outs = removed_out_[v];
        for (const NeighborSnapshot& x : ins) {
          for (const NeighborSnapshot& y : outs) {
            if (x.to == y.to) continue;
            AddOrImprove(x.to, y.to, SaturatingAdd(x.weight, y.weight));
            if (!directed_) {
              // AddOrImprove mirrors the edge for undirected graphs; the
              // double loop visits (x,y) and (y,x) anyway, which is fine.
            }
          }
        }

        // Detach v.
        for (const auto& [w, d] : adj_out_[v]) {
          if (directed_) {
            adj_in_[w].erase(v);
          } else {
            adj_out_[w].erase(v);
            --current_edges_;
          }
        }
        if (directed_) {
          for (const auto& [w, d] : adj_in_[v]) {
            adj_out_[w].erase(v);
            --current_edges_;
          }
        }
        current_edges_ -= adj_out_[v].size();
        adj_out_[v].clear();
        if (directed_) adj_in_[v].clear();
      }
      peak_edges_ = std::max(peak_edges_, current_edges_);

      // Drop the removed vertices from the alive list.
      alive.erase(std::remove_if(alive.begin(), alive.end(),
                                 [&](VertexId v) { return level_[v] != 0; }),
                  alive.end());
    }
    return Status::OK();
  }

  size_t DegreeOf(VertexId v) const {
    return adj_out_[v].size() + (directed_ ? adj_in_[v].size() : 0);
  }

  Status AssembleLabels() {
    const VertexId n = g_.num_vertices();
    lout_.assign(n, {});
    if (directed_) lin_.assign(n, {});

    // Top-down: all removal-time neighbors live at strictly higher levels,
    // so processing by descending level sees finished neighbor labels.
    std::vector<VertexId> order(n);
    for (VertexId v = 0; v < n; ++v) order[v] = v;
    std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
      if (level_[a] != level_[b]) return level_[a] > level_[b];
      return a < b;
    });

    // Min-plus union of the neighbors' labels.
    std::unordered_map<VertexId, Distance> merged;
    auto assemble = [&](VertexId v,
                        const std::vector<NeighborSnapshot>& up_neighbors,
                        const std::vector<LabelVector>& neighbor_side,
                        LabelVector* out) {
      merged.clear();
      for (const NeighborSnapshot& nb : up_neighbors) {
        auto improve = [&](VertexId pivot, Distance d) {
          auto [it, inserted] = merged.try_emplace(pivot, d);
          if (!inserted && d < it->second) it->second = d;
        };
        improve(nb.to, nb.weight);  // the neighbor's implicit (nb, 0)
        for (const LabelEntry& e : neighbor_side[nb.to]) {
          improve(e.pivot, SaturatingAdd(nb.weight, e.dist));
        }
      }
      merged.erase(v);
      out->reserve(merged.size());
      for (const auto& [pivot, d] : merged) out->push_back({pivot, d});
      std::sort(out->begin(), out->end(),
                [](const LabelEntry& a, const LabelEntry& b) {
                  return a.pivot < b.pivot;
                });
    };

    for (VertexId v : order) {
      if (deadline_.Exceeded()) {
        return Status::DeadlineExceeded("IS-Label assembly over budget");
      }
      assemble(v, removed_out_[v], lout_, &lout_[v]);
      if (directed_) assemble(v, removed_in_[v], lin_, &lin_[v]);
    }
    return Status::OK();
  }

  const CsrGraph& g_;
  IsLabelOptions opts_;
  uint32_t max_levels_;  // 0 = collapse the hierarchy fully
  bool directed_;
  Deadline deadline_;

  std::vector<AdjMap> adj_out_;
  std::vector<AdjMap> adj_in_;  // directed only
  std::vector<uint32_t> level_;
  std::vector<std::vector<NeighborSnapshot>> removed_out_;
  std::vector<std::vector<NeighborSnapshot>> removed_in_;
  std::vector<LabelVector> lout_;
  std::vector<LabelVector> lin_;
  uint64_t current_edges_ = 0;
  uint64_t peak_edges_ = 0;
  uint32_t num_levels_ = 0;
};

}  // namespace

Result<IsLabelOutput> BuildIsLabel(const CsrGraph& graph,
                                   const IsLabelOptions& options) {
  IsLabelBuilder builder(graph, options);
  return builder.Run();
}

Result<IsLabelPartialOutput> BuildIsLabelPartial(
    const CsrGraph& graph, uint32_t num_levels,
    const IsLabelOptions& options) {
  IsLabelBuilder builder(graph, options, num_levels);
  return builder.RunPartial();
}

Result<IsLabelPartialIndex> IsLabelPartialIndex::Create(
    IsLabelPartialOutput output) {
  IsLabelPartialIndex engine;
  engine.labels_ = std::move(output.index);
  engine.level_ = std::move(output.level);
  engine.num_levels_ = output.num_levels;

  // Compact the survivors to dense Gk ids.
  const VertexId n = static_cast<VertexId>(engine.level_.size());
  engine.orig_to_gk_.assign(n, kInvalidVertex);
  std::vector<VertexId> gk_to_orig;
  for (VertexId v = 0; v < n; ++v) {
    if (engine.level_[v] == 0) {
      engine.orig_to_gk_[v] = static_cast<VertexId>(gk_to_orig.size());
      gk_to_orig.push_back(v);
    }
  }
  EdgeList compact(static_cast<VertexId>(gk_to_orig.size()),
                   output.residual.directed());
  compact.set_weighted(true);
  for (const Edge& e : output.residual.edges()) {
    const VertexId a = engine.orig_to_gk_[e.src];
    const VertexId b = engine.orig_to_gk_[e.dst];
    if (a == kInvalidVertex || b == kInvalidVertex) {
      return Status::Internal("residual edge touches a removed vertex");
    }
    compact.Add(a, b, e.weight);
  }
  HOPDB_ASSIGN_OR_RETURN(engine.gk_, CsrGraph::FromEdgeList(compact));

  const VertexId gk_n = engine.gk_.num_vertices();
  engine.fwd_dist_.assign(gk_n, kInfDistance);
  engine.bwd_dist_.assign(gk_n, kInfDistance);
  engine.fwd_epoch_.assign(gk_n, 0);
  engine.bwd_epoch_.assign(gk_n, 0);
  return engine;
}

Distance IsLabelPartialIndex::Query(VertexId s, VertexId t) const {
  const VertexId n = static_cast<VertexId>(level_.size());
  if (s >= n || t >= n) return kInfDistance;
  if (s == t) return 0;

  // Leg 1 — both endpoints reach a common removed pivot: plain label join
  // (also catches t ∈ Lout(s) / s ∈ Lin(t) directly), served by the flat
  // query mirror.
  Distance best = labels_.Query(s, t);

  // Leg 2 — the path crosses the residual graph: seeded bidirectional
  // Dijkstra over Gk. Forward seeds are s's survivor label entries (or s
  // itself if it survived); backward seeds mirror from t's in-label.
  ++epoch_;
  using HeapItem = std::pair<Distance, VertexId>;
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;

  auto seed = [&](std::vector<Distance>& dist, std::vector<uint32_t>& ep,
                  VertexId gk, Distance d) {
    if (ep[gk] != epoch_ || d < dist[gk]) {
      ep[gk] = epoch_;
      dist[gk] = d;
      heap.push({d, gk});
    }
  };

  // Forward pass.
  fwd_settled_.clear();
  if (level_[s] == 0) {
    seed(fwd_dist_, fwd_epoch_, orig_to_gk_[s], 0);
  } else {
    for (const LabelEntry& e : labels_.OutLabel(s)) {
      if (level_[e.pivot] == 0) {
        seed(fwd_dist_, fwd_epoch_, orig_to_gk_[e.pivot], e.dist);
      }
    }
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d >= best) break;  // no Gk path can improve the answer anymore
    if (d > fwd_dist_[v] || fwd_epoch_[v] != epoch_) continue;  // stale
    fwd_settled_.push_back(v);
    for (const Arc& a : gk_.OutArcs(v)) {
      seed(fwd_dist_, fwd_epoch_, a.to, SaturatingAdd(d, a.weight));
    }
  }

  // Backward pass (over in-arcs).
  while (!heap.empty()) heap.pop();
  if (level_[t] == 0) {
    seed(bwd_dist_, bwd_epoch_, orig_to_gk_[t], 0);
  } else {
    for (const LabelEntry& e : labels_.InLabel(t)) {
      if (level_[e.pivot] == 0) {
        seed(bwd_dist_, bwd_epoch_, orig_to_gk_[e.pivot], e.dist);
      }
    }
  }
  while (!heap.empty()) {
    const auto [d, v] = heap.top();
    heap.pop();
    if (d >= best) break;
    if (d > bwd_dist_[v] || bwd_epoch_[v] != epoch_) continue;
    for (const Arc& a : gk_.InArcs(v)) {
      seed(bwd_dist_, bwd_epoch_, a.to, SaturatingAdd(d, a.weight));
    }
  }

  // Combine: the meeting survivor minimizes fwd + bwd. The early-stop
  // above is safe because any unsettled vertex already costs >= best on
  // that side.
  for (const VertexId v : fwd_settled_) {
    if (bwd_epoch_[v] == epoch_) {
      const Distance d = SaturatingAdd(fwd_dist_[v], bwd_dist_[v]);
      if (d < best) best = d;
    }
  }
  return best;
}

uint64_t IsLabelPartialIndex::ResidentBytes() const {
  return labels_.SizeBytes() + gk_.SizeBytes() +
         level_.size() * sizeof(uint32_t) +
         orig_to_gk_.size() * sizeof(VertexId);
}

}  // namespace hopdb
