#include "labeling/incremental.h"

#include <algorithm>
#include <cctype>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {

namespace {

// -----------------------------------------------------------------------
// DynamicGraph helpers
// -----------------------------------------------------------------------

Distance ArcWeightIn(const std::vector<Arc>& arcs, VertexId to) {
  for (const Arc& arc : arcs) {
    if (arc.to == to) return arc.weight;
  }
  return kInfDistance;
}

bool SetArcWeight(std::vector<Arc>* arcs, VertexId to, Distance weight) {
  for (Arc& arc : *arcs) {
    if (arc.to == to) {
      arc.weight = weight;
      return true;
    }
  }
  arcs->push_back(Arc{to, weight});
  return false;
}

bool EraseArc(std::vector<Arc>* arcs, VertexId to) {
  for (size_t i = 0; i < arcs->size(); ++i) {
    if ((*arcs)[i].to == to) {
      (*arcs)[i] = arcs->back();
      arcs->pop_back();
      return true;
    }
  }
  return false;
}

/// Full single-source Dijkstra over the dynamic adjacency (forward or
/// backward). Positive weights only — the EdgeList/UpdateOp validations
/// guarantee that — so this doubles as BFS ground truth on unweighted
/// graphs. Deterministic: heap ties break on vertex id.
std::vector<Distance> DynDistances(const DynamicGraph& graph, VertexId source,
                                   bool backward) {
  const VertexId n = graph.num_vertices();
  std::vector<Distance> dist(n, kInfDistance);
  using Item = std::pair<Distance, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  dist[source] = 0;
  heap.push({0, source});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (d != dist[u]) continue;  // stale heap entry
    const std::span<const Arc> arcs =
        backward ? graph.InArcs(u) : graph.OutArcs(u);
    for (const Arc& arc : arcs) {
      const Distance nd = SaturatingAdd(d, arc.weight);
      if (nd < dist[arc.to]) {
        dist[arc.to] = nd;
        heap.push({nd, arc.to});
      }
    }
  }
  return dist;
}

/// QueryLabelHalves over live label vectors: intersection minimum plus
/// the two implicit trivial pivots.
Distance QueryRefs(const LabelVector& out_s, const LabelVector& in_t,
                   VertexId s, VertexId t) {
  if (s == t) return 0;
  Distance best = kInfDistance;
  size_t i = 0, j = 0;
  while (i < out_s.size() && j < in_t.size()) {
    const VertexId pa = out_s[i].pivot;
    const VertexId pb = in_t[j].pivot;
    if (pa == pb) {
      best = std::min(best, SaturatingAdd(out_s[i].dist, in_t[j].dist));
      ++i;
      ++j;
    } else if (pa < pb) {
      ++i;
    } else {
      ++j;
    }
  }
  best = std::min(best, LookupPivot(out_s, t));
  best = std::min(best, LookupPivot(in_t, s));
  return best;
}

}  // namespace

// -----------------------------------------------------------------------
// DynamicGraph
// -----------------------------------------------------------------------

DynamicGraph DynamicGraph::FromGraph(const CsrGraph& graph) {
  DynamicGraph dyn;
  dyn.directed_ = graph.directed();
  dyn.weighted_ = graph.weighted();
  const VertexId n = graph.num_vertices();
  dyn.out_.resize(n);
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const Arc> arcs = graph.OutArcs(u);
    dyn.out_[u].assign(arcs.begin(), arcs.end());
    dyn.num_arcs_ += arcs.size();
  }
  if (dyn.directed_) {
    dyn.in_.resize(n);
    for (VertexId u = 0; u < n; ++u) {
      const std::span<const Arc> arcs = graph.InArcs(u);
      dyn.in_[u].assign(arcs.begin(), arcs.end());
    }
  } else {
    // Undirected CSR materializes both orientations; count each once.
    dyn.num_arcs_ /= 2;
  }
  return dyn;
}

Distance DynamicGraph::ArcWeight(VertexId u, VertexId v) const {
  return ArcWeightIn(out_[u], v);
}

bool DynamicGraph::AddArc(VertexId u, VertexId v, Distance weight) {
  if (ArcWeightIn(out_[u], v) == weight) return false;
  if (!SetArcWeight(&out_[u], v, weight)) ++num_arcs_;
  if (directed_) {
    SetArcWeight(&in_[v], u, weight);
  } else {
    SetArcWeight(&out_[v], u, weight);
  }
  if (weight != 1) weighted_ = true;
  return true;
}

bool DynamicGraph::RemoveArc(VertexId u, VertexId v) {
  if (!EraseArc(&out_[u], v)) return false;
  --num_arcs_;
  if (directed_) {
    EraseArc(&in_[v], u);
  } else {
    EraseArc(&out_[v], u);
  }
  return true;
}

EdgeList DynamicGraph::ToEdgeList() const {
  EdgeList edges(num_vertices(), directed_);
  edges.set_weighted(weighted_);
  for (VertexId u = 0; u < num_vertices(); ++u) {
    // Arc order inside a list depends on the update history; emit each
    // vertex's arcs sorted so the frozen edge list is deterministic.
    std::vector<Arc> arcs = out_[u];
    std::sort(arcs.begin(), arcs.end(),
              [](const Arc& a, const Arc& b) { return a.to < b.to; });
    for (const Arc& arc : arcs) {
      if (!directed_ && arc.to < u) continue;  // one orientation per edge
      edges.Add(u, arc.to, arc.weight);
    }
  }
  return edges;
}

// -----------------------------------------------------------------------
// IncrementalUpdater
// -----------------------------------------------------------------------

IncrementalUpdater::IncrementalUpdater(DynamicGraph* graph,
                                       TwoHopIndex* index,
                                       const UpdateOptions& options)
    : graph_(graph), index_(index), options_(options) {
  out_ = &index_->out_;
  in_ = index_->directed() ? &index_->in_ : out_;
}

Result<bool> IncrementalUpdater::Apply(const UpdateOp& op) {
  Stopwatch watch;
  const VertexId n = graph_->num_vertices();
  if (op.u >= n || op.v >= n) {
    return Status::InvalidArgument(
        "edge endpoint out of range (|V| = " + std::to_string(n) + ")");
  }
  if (op.u == op.v) {
    return Status::InvalidArgument("self-loops are not allowed");
  }
  const bool is_delete = op.kind == UpdateOp::Kind::kDelEdge;
  if (!is_delete && (op.weight == 0 || op.weight == kInfDistance)) {
    return Status::InvalidArgument("edge weight must be positive and finite");
  }

  const Distance old_w = graph_->ArcWeight(op.u, op.v);
  const Distance new_w = is_delete ? kInfDistance : op.weight;
  if (is_delete && old_w == kInfDistance) {
    return Status::InvalidArgument(
        "DELEDGE of an absent edge (" + std::to_string(op.u) + " -> " +
        std::to_string(op.v) + ")");
  }
  if (new_w == old_w) {
    ++stats_.ops_noop;
    stats_.seconds += watch.Seconds();
    return false;
  }

  if (new_w < old_w) {
    // Weight decrease: distances only shrink and no certificate dies —
    // the cheap resumed-search repair (see header). No affected-set
    // searches, no frozen labels.
    ApplyDecrease(op.u, op.v, new_w, /*insert=*/old_w == kInfDistance);
    stats_.seconds += watch.Seconds();
    return true;
  }

  // Affected-set distances are measured on the graph WITHOUT the arc
  // (see the header comment): remove it, search, then reinstall at the
  // new weight. The repair pivot passes run on the post-update graph.
  if (old_w != kInfDistance) graph_->RemoveArc(op.u, op.v);
  finalized_ = false;

  const VertexId a = op.u, b = op.v;
  const Distance search_w = std::min(old_w, new_w);
  const std::vector<Distance> to_a = DynDistances(*graph_, a, true);
  const std::vector<Distance> from_b = DynDistances(*graph_, b, false);
  // Undirected graphs: backward == forward, so "to b" is from_b and
  // "from a" is to_a — skip the second pair of searches.
  const std::vector<Distance> to_b =
      graph_->directed() ? DynDistances(*graph_, b, true) : from_b;
  const std::vector<Distance> from_a =
      graph_->directed() ? DynDistances(*graph_, a, false) : to_a;

  // Strict comparisons: x is strictly affected when the arc at its old
  // weight was strictly better than every arc-free alternative — its
  // distance to/from the endpoint actually moves. Every pair whose
  // distance changes lies in S* x T* (an endpoint outside would supply
  // an equally short arc-free route). Tie pairs keep their distance,
  // and a label entry certifies a distance VALUE, not one particular
  // path — so their entries and cover sums stay exact on their own.
  // The saturating sum is infinite exactly when no path through the
  // arc exists — never affected.
  if (strict_s_mark_.size() != static_cast<size_t>(n)) {
    strict_s_mark_.assign(n, 0);
    strict_t_mark_.assign(n, 0);
  }
  s_.clear();
  t_.clear();
  for (VertexId x = 0; x < n; ++x) {
    const Distance via_s = SaturatingAdd(to_a[x], search_w);
    if (via_s < to_b[x]) {
      strict_s_mark_[x] = 1;
      s_.push_back(x);
    }
    const Distance via_t = SaturatingAdd(search_w, from_b[x]);
    if (via_t < from_a[x]) {
      strict_t_mark_[x] = 1;
      t_.push_back(x);
    }
  }
  // The marks stay live through the repair (the clean phase keys off
  // them); every return path below resets them through the lists.
  const auto clear_marks = [this] {
    for (const VertexId x : s_) strict_s_mark_[x] = 0;
    for (const VertexId y : t_) strict_t_mark_[y] = 0;
  };

  if (new_w != kInfDistance) graph_->AddArc(a, b, new_w);
  ++stats_.ops_applied;
  if (old_w == kInfDistance) {
    ++stats_.inserts;
  } else if (is_delete) {
    ++stats_.deletes;
  } else {
    ++stats_.reweights;
  }

  if (s_.empty() || t_.empty()) {
    // No pair's distance moved; the labels are already exact.
    clear_marks();
    stats_.seconds += watch.Seconds();
    return true;
  }
  ++stats_.repairs;
  stats_.affected_sources += s_.size();
  stats_.affected_targets += t_.size();

  const double frac = options_.rebuild_frontier_fraction;
  if (frac > 0 && frac <= 1.0 &&
      static_cast<double>(s_.size() + t_.size()) >
          frac * static_cast<double>(n)) {
    clear_marks();
    Status rebuilt = RebuildFallback();
    stats_.seconds += watch.Seconds();
    if (!rebuilt.ok()) return rebuilt;
    return true;
  }

  // Clean: every changed pair has both endpoints strict, so the only
  // entries whose VALUES can be stale are those whose owner and pivot
  // sit on opposite strict sides. Drop them, remembering which owners
  // actually lost something — the restore passes below run over those
  // owners ONLY (see the header coverage proof; everyone else's label
  // is untouched and every broken pair is repaired through a loser).
  r_out_.clear();
  r_in_.clear();
  for (const VertexId x : s_) {
    LabelVector& label = (*out_)[x];
    const size_t before = label.size();
    label.erase(std::remove_if(label.begin(), label.end(),
                               [this](const LabelEntry& e) {
                                 return strict_t_mark_[e.pivot] != 0;
                               }),
                label.end());
    if (label.size() != before) {
      stats_.entries_removed += before - label.size();
      r_out_.push_back(x);
      MarkTouched(out_, x);
    }
  }
  for (const VertexId y : t_) {
    LabelVector& label = (*in_)[y];
    const size_t before = label.size();
    label.erase(std::remove_if(label.begin(), label.end(),
                               [this](const LabelEntry& e) {
                                 return strict_s_mark_[e.pivot] != 0;
                               }),
                label.end());
    if (label.size() != before) {
      stats_.entries_removed += before - label.size();
      r_in_.push_back(y);
      MarkTouched(in_, y);
    }
  }

  // Restore in ascending id (descending rank importance) over the
  // owners that lost entries. The witness-probe induction relies on
  // this order: when member v is processed, every label entry with
  // pivot < v is already exact. Each member first repairs the cleaned
  // side(s) of its OWN label against exact new distances (owner
  // restore), then re-derives its appearances as a PIVOT in labels on
  // the opposite side with a pruned search (pivot restore) — the
  // incremental mirror of one build root.
  {
    const bool shared = out_ == in_;
    size_t i = 0, j = 0;
    while (i < r_out_.size() || j < r_in_.size()) {
      const VertexId next_s = i < r_out_.size() ? r_out_[i] : kInvalidVertex;
      const VertexId next_t = j < r_in_.size() ? r_in_[j] : kInvalidVertex;
      const VertexId v = std::min(next_s, next_t);
      const bool lost_out = next_s == v;
      const bool lost_in = next_t == v;
      if (lost_out) ++i;
      if (lost_in) ++j;
      if (lost_out) OwnerRestore(v, /*out_side=*/true);
      // Undirected labels are shared, so one owner pass repairs both
      // sides at once.
      if (lost_in && !(shared && lost_out)) OwnerRestore(v, /*out_side=*/false);
      // A cleaned Lout(v) can orphan covers that used v as a pivot in
      // OTHER vertices' in-labels (v's out-leg died), and vice versa;
      // undirected searches are symmetric, so one forward pass covers
      // both.
      if (lost_out || shared) PivotRestore(v, /*backward=*/false);
      if (lost_in && !shared) PivotRestore(v, /*backward=*/true);
    }
  }

  clear_marks();
  stats_.seconds += watch.Seconds();
  return true;
}

Status IncrementalUpdater::ApplyBatch(std::span<const UpdateOp> ops) {
  for (const UpdateOp& op : ops) {
    HOPDB_RETURN_NOT_OK(Apply(op).status());
  }
  Finalize();
  return Status::OK();
}

void IncrementalUpdater::Finalize() {
  if (finalized_) return;
  index_->Freeze();
  finalized_ = true;
}

Distance IncrementalUpdater::LiveQuery(VertexId u, VertexId v) const {
  return QueryRefs((*out_)[u], (*in_)[v], u, v);
}

void IncrementalUpdater::ApplyDecrease(VertexId a, VertexId b,
                                       Distance weight, bool insert) {
  graph_->AddArc(a, b, weight);
  finalized_ = false;
  ++stats_.ops_applied;
  if (insert) {
    ++stats_.inserts;
  } else {
    ++stats_.reweights;
  }
  ++stats_.repairs;

  // Roots in ascending id (descending rank importance): a label's
  // pivots all outrank its owner, so the owner resumes last. Resumes
  // mutate labels, so iterate over copies of the root lists.
  {
    const LabelVector roots = (*in_)[a];
    for (const LabelEntry& e : roots) {
      ResumeDecrease(e.pivot, SaturatingAdd(e.dist, weight), b,
                     /*backward=*/false);
    }
    ResumeDecrease(a, weight, b, /*backward=*/false);
  }
  {
    const LabelVector roots = (*out_)[b];
    for (const LabelEntry& e : roots) {
      ResumeDecrease(e.pivot, SaturatingAdd(e.dist, weight), a,
                     /*backward=*/true);
    }
    ResumeDecrease(b, weight, a, /*backward=*/true);
  }
}

void IncrementalUpdater::ResumeDecrease(VertexId root, Distance start_dist,
                                        VertexId start, bool backward) {
  const VertexId n = graph_->num_vertices();
  if (resume_dist_.size() != static_cast<size_t>(n)) {
    resume_dist_.assign(n, kInfDistance);
    resume_stamp_.assign(n, 0);
  }
  ++resume_epoch_;
  std::vector<LabelVector>* side = backward ? out_ : in_;

  using Item = std::pair<Distance, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  resume_dist_[start] = start_dist;
  resume_stamp_[start] = resume_epoch_;
  heap.push({start_dist, start});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (resume_stamp_[u] != resume_epoch_ || d != resume_dist_[u]) continue;
    // Prune as soon as the current labels already certify <= d; the
    // subtree below u is then covered by earlier (higher-ranked) roots
    // or pre-existing entries.
    const Distance have =
        backward ? LiveQuery(u, root) : LiveQuery(root, u);
    if (have <= d) continue;
    if (root < u) UpsertEntry(side, u, root, d);
    const std::span<const Arc> arcs =
        backward ? graph_->InArcs(u) : graph_->OutArcs(u);
    for (const Arc& arc : arcs) {
      const Distance nd = SaturatingAdd(d, arc.weight);
      if (nd == kInfDistance) continue;
      if (resume_stamp_[arc.to] != resume_epoch_ ||
          nd < resume_dist_[arc.to]) {
        resume_dist_[arc.to] = nd;
        resume_stamp_[arc.to] = resume_epoch_;
        heap.push({nd, arc.to});
      }
    }
  }
}

void IncrementalUpdater::OwnerRestore(VertexId v, bool out_side) {
  // One exact single-source search gives v's new distances to every
  // candidate pivot. Pass 1 re-verifies the entries that survived the
  // clean against those distances — snapping any stale-large upper
  // bound a past decrease repair left behind down to exact, dropping
  // pivots that became unreachable — so this label is fully exact
  // before any witness probe reads it. Pass 2 then adds each missing
  // pivot h < v at its exact distance unless some common pivot below h
  // already certifies it — the builder's prune rule, so label
  // minimality is preserved where possible.
  const std::vector<Distance> dist =
      DynDistances(*graph_, v, /*backward=*/!out_side);
  std::vector<LabelVector>* side = out_side ? out_ : in_;
  LabelVector& label = (*side)[v];
  size_t kept = 0;
  bool changed = false;
  for (size_t k = 0; k < label.size(); ++k) {
    const Distance d = dist[label[k].pivot];
    if (d == kInfDistance) {
      ++stats_.entries_removed;
      changed = true;
      continue;
    }
    if (label[k].dist != d) {
      label[k].dist = d;
      ++stats_.entries_updated;
      changed = true;
    }
    label[kept++] = label[k];
  }
  label.resize(kept);
  if (changed) MarkTouched(side, v);
  for (VertexId h = 0; h < v; ++h) {
    const Distance d = dist[h];
    if (d == kInfDistance) continue;
    if (LookupPivot(label, h) != kInfDistance) continue;
    const bool covered = out_side ? HasRepairWitness(v, h, h, d)
                                  : HasRepairWitness(h, v, h, d);
    if (!covered) UpsertEntry(side, v, h, d);
  }
}

void IncrementalUpdater::PivotRestore(VertexId v, bool backward) {
  // Pruned Dijkstra from v over the post-update graph — the
  // incremental mirror of one build root. A vertex u is pruned as soon
  // as some common pivot BELOW v certifies d(v, u) (sums over current
  // labels never underestimate, so a witness at the tentative distance
  // is exact); otherwise the trivial (v, d) entry is upserted for
  // owners ranked under v and the search keeps expanding.
  const VertexId n = graph_->num_vertices();
  if (resume_dist_.size() != static_cast<size_t>(n)) {
    resume_dist_.assign(n, kInfDistance);
    resume_stamp_.assign(n, 0);
  }
  ++resume_epoch_;
  std::vector<LabelVector>* side = backward ? out_ : in_;

  using Item = std::pair<Distance, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
  resume_dist_[v] = 0;
  resume_stamp_[v] = resume_epoch_;
  heap.push({0, v});
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (resume_stamp_[u] != resume_epoch_ || d != resume_dist_[u]) continue;
    if (u != v) {
      const bool covered = backward ? HasRepairWitness(u, v, v, d)
                                    : HasRepairWitness(v, u, v, d);
      if (covered) continue;
      if (u > v) UpsertEntry(side, u, v, d);
    }
    const std::span<const Arc> arcs =
        backward ? graph_->InArcs(u) : graph_->OutArcs(u);
    for (const Arc& arc : arcs) {
      const Distance nd = SaturatingAdd(d, arc.weight);
      if (nd == kInfDistance) continue;
      if (resume_stamp_[arc.to] != resume_epoch_ ||
          nd < resume_dist_[arc.to]) {
        resume_dist_[arc.to] = nd;
        resume_stamp_[arc.to] = resume_epoch_;
        heap.push({nd, arc.to});
      }
    }
  }
}

bool IncrementalUpdater::HasRepairWitness(VertexId x, VertexId y,
                                          VertexId beta, Distance d) const {
  // Scalar mirror of QueryKernel::has_witness_flat over the live label
  // vectors: existence of a common pivot z < beta with d1 + d2 <= d,
  // early exit on the first hit.
  const LabelVector& out_x = (*out_)[x];
  const LabelVector& in_y = (*in_)[y];
  size_t i = 0, j = 0;
  while (i < out_x.size() && j < in_y.size()) {
    const VertexId pa = out_x[i].pivot;
    const VertexId pb = in_y[j].pivot;
    if (pa >= beta || pb >= beta) break;
    if (pa == pb) {
      if (SaturatingAdd(out_x[i].dist, in_y[j].dist) <= d) return true;
      ++i;
      ++j;
    } else if (pa < pb) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

void IncrementalUpdater::UpsertEntry(std::vector<LabelVector>* side,
                                     VertexId owner, VertexId pivot,
                                     Distance dist) {
  LabelVector& label = (*side)[owner];
  auto it = std::lower_bound(
      label.begin(), label.end(), pivot,
      [](const LabelEntry& e, VertexId p) { return e.pivot < p; });
  if (it != label.end() && it->pivot == pivot) {
    if (it->dist != dist) {
      it->dist = dist;
      ++stats_.entries_updated;
      MarkTouched(side, owner);
    }
  } else {
    label.insert(it, LabelEntry{pivot, dist});
    ++stats_.entries_added;
    MarkTouched(side, owner);
  }
}

void IncrementalUpdater::MarkTouched(const std::vector<LabelVector>* side,
                                     VertexId owner) {
  const size_t n = graph_->num_vertices();
  if (touched_out_mark_.size() != n) {
    touched_out_mark_.assign(n, 0);
    touched_in_mark_.assign(n, 0);
  }
  const bool shared = out_ == in_;
  if ((side == out_ || shared) && touched_out_mark_[owner] == 0) {
    touched_out_mark_[owner] = 1;
    touched_out_.push_back(owner);
  }
  if ((side == in_ || shared) && touched_in_mark_[owner] == 0) {
    touched_in_mark_[owner] = 1;
    touched_in_.push_back(owner);
  }
}

IncrementalUpdater::TouchedOwners IncrementalUpdater::TakeTouchedOwners() {
  TouchedOwners result;
  result.all = touched_all_;
  result.out = std::move(touched_out_);
  result.in = std::move(touched_in_);
  std::sort(result.out.begin(), result.out.end());
  std::sort(result.in.begin(), result.in.end());
  touched_all_ = false;
  touched_out_.clear();
  touched_in_.clear();
  for (const VertexId v : result.out) touched_out_mark_[v] = 0;
  for (const VertexId v : result.in) touched_in_mark_[v] = 0;
  return result;
}

Status IncrementalUpdater::RebuildFallback() {
  ++stats_.full_rebuilds;
  touched_all_ = true;
  EdgeList edges = graph_->ToEdgeList();
  HOPDB_ASSIGN_OR_RETURN(CsrGraph csr, CsrGraph::FromEdgeList(edges));
  // The dynamic graph lives in internal (rank) ids, so the rebuild runs
  // on an already-ranked graph and the index's RankMapping stays valid.
  HOPDB_ASSIGN_OR_RETURN(BuildOutput output,
                         BuildHopLabeling(csr, options_.rebuild));
  // Adopt only the rebuilt vectors: the store stays as of the last
  // freeze until Finalize(), as after any other Apply.
  index_->out_ = std::move(output.index.out_);
  index_->in_ = std::move(output.index.in_);
  finalized_ = false;
  return Status::OK();
}

// -----------------------------------------------------------------------
// Op-stream parsing
// -----------------------------------------------------------------------

Result<UpdateOp> ParseUpdateOpLine(const std::string& line) {
  const std::string trimmed = TrimString(line);
  if (trimmed.empty() || trimmed[0] == '#') {
    return Status::NotFound("blank or comment line");
  }
  std::vector<std::string> tokens = SplitString(trimmed, ' ');
  std::string verb = tokens[0];
  for (char& c : verb) c = static_cast<char>(std::toupper(c));

  UpdateOp op;
  size_t want_ids = 2;
  bool optional_weight = false;
  if (verb == "ADDEDGE" || verb == "ADD") {
    op.kind = UpdateOp::Kind::kAddEdge;
    optional_weight = true;
  } else if (verb == "DELEDGE" || verb == "DEL") {
    op.kind = UpdateOp::Kind::kDelEdge;
  } else {
    return Status::InvalidArgument("unknown update op '" + tokens[0] +
                                   "' (ADDEDGE u v [w] | DELEDGE u v)");
  }
  const size_t args = tokens.size() - 1;
  if (args < want_ids || args > want_ids + (optional_weight ? 1 : 0)) {
    return Status::InvalidArgument("op '" + verb + "' expects " +
                                   std::to_string(want_ids) +
                                   (optional_weight ? " or 3" : "") +
                                   " arguments");
  }
  uint64_t values[3] = {0, 0, 1};
  for (size_t i = 1; i < tokens.size(); ++i) {
    if (!ParseUint64(tokens[i], &values[i - 1])) {
      return Status::InvalidArgument("bad op operand '" + tokens[i] + "'");
    }
  }
  if (values[0] > kInvalidVertex || values[1] > kInvalidVertex ||
      values[2] >= kInfDistance) {
    return Status::InvalidArgument("op operand out of range");
  }
  op.u = static_cast<VertexId>(values[0]);
  op.v = static_cast<VertexId>(values[1]);
  op.weight = static_cast<Distance>(values[2]);
  return op;
}

}  // namespace hopdb
