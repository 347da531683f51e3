#include "labeling/builder.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "labeling/candidate_partition.h"
#include "labeling/flat_label_store.h"
#include "labeling/query_kernel.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace hopdb {

namespace {

/// A candidate label entry produced by the generation rules. `owner` is
/// the vertex whose label would receive the entry; `pivot` is always
/// ranked above the owner (pivot < owner).
struct Cand {
  VertexId owner;
  VertexId pivot;
  Distance dist;
};

bool CandLess(const Cand& a, const Cand& b) {
  if (a.owner != b.owner) return a.owner < b.owner;
  if (a.pivot != b.pivot) return a.pivot < b.pivot;
  return a.dist < b.dist;
}

/// Locates the contiguous slice of `cands` (sorted by owner) that belongs
/// to `owner`.
std::span<const Cand> OwnerSlice(const std::vector<Cand>& cands,
                                 VertexId owner) {
  auto lo = std::lower_bound(
      cands.begin(), cands.end(), owner,
      [](const Cand& c, VertexId v) { return c.owner < v; });
  auto hi = std::upper_bound(
      cands.begin(), cands.end(), owner,
      [](VertexId v, const Cand& c) { return v < c.owner; });
  // Note: no &*lo — dereferencing the end iterator is UB when the slice
  // is empty (caught by UBSan on empty candidate sets).
  return {cands.data() + (lo - cands.begin()), static_cast<size_t>(hi - lo)};
}

/// Merged sorted-by-pivot cursor over a label vector and the owner's
/// candidate slice; when both contain the same pivot (an in-place distance
/// update) the smaller distance wins. This is how this iteration's
/// candidates act as pruning witnesses (Section 4.2 keeps candidates in
/// the outer pruning block together with old labels). The flat witness
/// snapshot materializes exactly this merged view; the cursor remains as
/// the small-iteration fallback and the debug cross-check.
class PivotCursor {
 public:
  PivotCursor(std::span<const LabelEntry> label, std::span<const Cand> cands)
      : label_(label), cands_(cands) {}

  bool Next(VertexId* pivot, Distance* dist) {
    const bool has_l = li_ < label_.size();
    const bool has_c = ci_ < cands_.size();
    if (!has_l && !has_c) return false;
    if (has_l && (!has_c || label_[li_].pivot < cands_[ci_].pivot)) {
      *pivot = label_[li_].pivot;
      *dist = label_[li_].dist;
      ++li_;
      return true;
    }
    if (has_c && (!has_l || cands_[ci_].pivot < label_[li_].pivot)) {
      *pivot = cands_[ci_].pivot;
      *dist = cands_[ci_].dist;
      ++ci_;
      return true;
    }
    *pivot = label_[li_].pivot;
    *dist = std::min(label_[li_].dist, cands_[ci_].dist);
    ++li_;
    ++ci_;
    return true;
  }

 private:
  std::span<const LabelEntry> label_;
  std::span<const Cand> cands_;
  size_t li_ = 0;
  size_t ci_ = 0;
};

/// Witness scan of Section 3.3: true iff some pivot w < beta appears on
/// both cursors with d1 + d2 <= d. Both cursors yield pivots in
/// increasing order, so this is a bounded sorted-merge. The scalar
/// reference semantics of QueryKernel::has_witness_flat.
bool HasPruningWitness(PivotCursor outs_of_source, PivotCursor ins_of_dest,
                       VertexId beta, Distance d) {
  VertexId pa = kInvalidVertex, pb = kInvalidVertex;
  Distance da = kInfDistance, db = kInfDistance;
  bool va = outs_of_source.Next(&pa, &da);
  bool vb = ins_of_dest.Next(&pb, &db);
  while (va && vb && pa < beta && pb < beta) {
    if (pa == pb) {
      if (SaturatingAdd(da, db) <= d) return true;
      va = outs_of_source.Next(&pa, &da);
      vb = ins_of_dest.Next(&pb, &db);
    } else if (pa < pb) {
      va = outs_of_source.Next(&pa, &da);
    } else {
      vb = ins_of_dest.Next(&pb, &db);
    }
  }
  return false;
}

/// Candidate volume below which the flat witness snapshot costs more
/// than it saves; Prune falls back to the scalar cursor scan.
constexpr size_t kMinFlatWitnessCandidates = 2048;

class Builder {
 public:
  Builder(const CsrGraph& g, const BuildOptions& opts)
      : g_(g),
        opts_(opts),
        directed_(g.directed()),
        threads_(opts.num_threads == 0 ? HardwareThreads()
                                       : opts.num_threads),
        deadline_(opts.time_budget_seconds) {}

  Result<BuildOutput> Run();

 private:
  void Initialize();

  /// Generates this iteration's candidates in two passes over `prev`:
  /// pass 1 counts them per owner (out_plan_/in_plan_), pass 2 writes
  /// each into its owner's range of a buffer allocated once at the exact
  /// count. The cap is checked between the passes, before any candidate
  /// memory exists.
  Status Generate(BuildMode mode_used, std::vector<Cand>* out_c,
                  std::vector<Cand>* in_c, IterationStats* st);

  /// Periodic in-generation control check: accumulates the caller's local
  /// emitted count and trips the shared abort flag when the deadline or
  /// the candidate-volume cap is blown MID-pass. Without this, a bad
  /// vertex order (random order on a big scale-free graph) can spend
  /// minutes inside a single rule iteration before the between-phase
  /// checks ever run.
  bool GenerationTick(uint64_t locally_generated) const {
    generated_total_.fetch_add(locally_generated,
                               std::memory_order_relaxed);
    if (opts_.max_candidates_per_iteration != 0 &&
        generated_total_.load(std::memory_order_relaxed) >
            opts_.max_candidates_per_iteration) {
      generation_abort_.store(true, std::memory_order_relaxed);
    } else if (deadline_.Exceeded()) {
      generation_abort_.store(true, std::memory_order_relaxed);
    }
    return !generation_abort_.load(std::memory_order_relaxed);
  }

  /// The rule bodies. Each hands every candidate it derives from `prev`
  /// to `emit` (called concurrently from several chunks) and reports the
  /// exact emitted count through GenerationTick.
  template <typename Emit>
  void GenerateSteppingOut(std::span<const Cand> prev,
                           const Emit& emit) const;
  template <typename Emit>
  void GenerateSteppingIn(std::span<const Cand> prev, const Emit& emit) const;
  template <typename Emit>
  void GenerateDoublingOut(std::span<const Cand> prev,
                           const Emit& emit) const;
  template <typename Emit>
  void GenerateDoublingIn(std::span<const Cand> prev, const Emit& emit) const;

  /// Runs the rules of `mode` for one side over that side's `prev`, one
  /// chunk per thread. Both passes of Generate call this with the same
  /// arguments and no label changes in between, so they see the same
  /// candidates.
  template <typename Emit>
  void RunRules(BuildMode mode, bool out_side, const Emit& emit) const {
    const std::vector<Cand>& prev = out_side ? prev_out_ : prev_in_;
    ParallelChunks(
        threads_, prev.size(), [&](size_t begin, size_t end, uint32_t) {
          const std::span<const Cand> chunk(prev.data() + begin, end - begin);
          if (mode == BuildMode::kHopStepping) {
            if (out_side) {
              GenerateSteppingOut(chunk, emit);
            } else {
              GenerateSteppingIn(chunk, emit);
            }
          } else if (out_side) {
            GenerateDoublingOut(chunk, emit);
          } else {
            GenerateDoublingIn(chunk, emit);
          }
        });
  }

  /// Sorts each owner-aligned partition of `plan` in place, then collapses
  /// per-(owner,pivot) duplicates keeping min dist and drops candidates
  /// dominated by an existing entry (d_existing <= d_cand). Bit-identical
  /// to a global std::sort + sequential scan for every thread count.
  void DedupAndFilter(std::vector<Cand>* cands,
                      const OwnerPartitionPlan& plan, bool out_side,
                      IterationStats* st);

  /// Section 3.3 pruning over both candidate lists.
  void Prune(std::vector<Cand>* out_c, std::vector<Cand>* in_c,
             IterationStats* st);

  /// Builds the iteration-frozen flat witness snapshots (labels merged
  /// with this iteration's deduped candidates) for the SIMD witness
  /// kernel. Only vertices that can appear as a witness-scan endpoint
  /// are materialized.
  void BuildWitnessSnapshots(const std::vector<Cand>& out_c,
                             const std::vector<Cand>& in_c);
  void BuildSideSnapshot(FlatLabelArena* arena,
                         const std::vector<LabelVector>& labels,
                         const std::vector<Cand>& cands,
                         const std::vector<size_t>& cand_begin,
                         const std::vector<uint8_t>& touched,
                         bool with_cands);

  /// cand_begin[v] = first index of `cands` (sorted by owner) whose
  /// owner is >= v; cand_begin[n] = cands.size().
  void ComputeCandBegin(const std::vector<Cand>& cands,
                        std::vector<size_t>* cand_begin) const;

  /// Merges survivors into labels + inverted lists in candidate order;
  /// returns survivor count. Sequential: it is the one phase that grows
  /// heap memory (the labels), and growth made on worker threads lands
  /// in per-thread malloc arenas and raises the build's peak RSS with
  /// the thread count, for a phase that costs ~2% of the build.
  uint64_t Apply(const std::vector<Cand>& cands, bool out_side,
                 IterationStats* st);

  std::vector<LabelVector>& Side(bool out_side) {
    return out_side || !directed_ ? out_ : in_;
  }

  const CsrGraph& g_;
  BuildOptions opts_;
  bool directed_;
  uint32_t threads_;
  Deadline deadline_;

  std::vector<LabelVector> out_;
  std::vector<LabelVector> in_;
  /// inv_out_[p]: owners w with an entry (p, ·) in Lout(w). Drives Rule 2.
  std::vector<std::vector<VertexId>> inv_out_;
  /// inv_in_[p]: owners w with an entry (p, ·) in Lin(w). Drives Rule 5.
  std::vector<std::vector<VertexId>> inv_in_;

  /// Entries that survived the previous iteration, sorted by owner;
  /// exactly sized, and released once generation has read them.
  std::vector<Cand> prev_out_;
  std::vector<Cand> prev_in_;

  /// Mid-generation abort machinery (see GenerationTick).
  mutable std::atomic<uint64_t> generated_total_{0};
  mutable std::atomic<bool> generation_abort_{false};

  // -------------------------------------------------------------------
  // Iteration-scoped tables, reused across iterations. The candidate
  // buffers themselves are not: each iteration allocates them once at
  // the exact raw count.
  // -------------------------------------------------------------------
  /// Per-owner counts/cursors and partition bounds of each side's
  /// candidates (Generate fills them, DedupAndFilter sorts along them).
  OwnerPartitionPlan out_plan_;
  OwnerPartitionPlan in_plan_;
  /// Per-partition dedup counters.
  struct DedupPartStats {
    uint64_t deduped = 0;
    uint64_t dropped = 0;
    size_t kept = 0;
  };
  std::vector<DedupPartStats> dedup_parts_;
  /// Pruning keep/kill marks.
  std::vector<uint8_t> keep_;
  /// Witness snapshot state.
  FlatLabelArena wit_out_arena_;
  FlatLabelArena wit_in_arena_;
  std::vector<uint8_t> touched_out_;
  std::vector<uint8_t> touched_in_;
  std::vector<uint64_t> slot_sizes_;
  std::vector<size_t> cand_begin_out_;
  std::vector<size_t> cand_begin_in_;
  /// Legacy witness copies for the small-iteration scalar path.
  std::vector<Cand> wit_out_small_;
  std::vector<Cand> wit_in_small_;

  BuildStats stats_;
};

void Builder::Initialize() {
  const VertexId n = g_.num_vertices();
  out_.assign(n, {});
  inv_out_.assign(n, {});
  if (directed_) {
    in_.assign(n, {});
    inv_in_.assign(n, {});
  }

  // One entry per edge: the higher-ranked endpoint becomes the pivot.
  // Directed arc u->v: v < u places (v, w) in Lout(u); u < v places
  // (u, w) in Lin(v). Undirected edge {u, v} with u < v: (u, w) in L(v).
  for (VertexId u = 0; u < n; ++u) {
    for (const Arc& a : g_.OutArcs(u)) {
      const VertexId v = a.to;
      if (directed_) {
        if (v < u) {
          out_[u].push_back({v, a.weight});
          prev_out_.push_back({u, v, a.weight});
        } else {
          in_[v].push_back({u, a.weight});
          prev_in_.push_back({v, u, a.weight});
        }
      } else {
        if (u < v) {
          out_[v].push_back({u, a.weight});
          prev_out_.push_back({v, u, a.weight});
        }
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    std::sort(out_[v].begin(), out_[v].end(),
              [](const LabelEntry& a, const LabelEntry& b) {
                return a.pivot < b.pivot;
              });
    for (const LabelEntry& e : out_[v]) inv_out_[e.pivot].push_back(v);
    if (directed_) {
      std::sort(in_[v].begin(), in_[v].end(),
                [](const LabelEntry& a, const LabelEntry& b) {
                  return a.pivot < b.pivot;
                });
      for (const LabelEntry& e : in_[v]) inv_in_[e.pivot].push_back(v);
    }
  }
  std::sort(prev_out_.begin(), prev_out_.end(), CandLess);
  std::sort(prev_in_.begin(), prev_in_.end(), CandLess);
  stats_.initial_entries = prev_out_.size() + prev_in_.size();
}

/// Work between GenerationTick control checks: candidates emitted, or
/// arcs scanned for Hop-Stepping, whose scans can emit little.
constexpr uint64_t kTickEvery = 1 << 16;

template <typename Emit>
void Builder::GenerateSteppingOut(std::span<const Cand> prev,
                                  const Emit& emit) const {
  // Rules 1+2 with a unit-hop left factor: a prev out-entry (u -> v, d)
  // extends backwards over every in-arc (w -> u) whose w is ranked below
  // the pivot (w > v). Undirected graphs use the full neighborhood.
  uint64_t scanned = 0, emitted = 0;
  for (const Cand& c : prev) {
    auto arcs = directed_ ? g_.InArcs(c.owner) : g_.OutArcs(c.owner);
    for (const Arc& a : arcs) {
      if (a.to <= c.pivot) continue;  // w must rank below the pivot
      emit(Cand{a.to, c.pivot, SaturatingAdd(c.dist, a.weight)});
      ++emitted;
    }
    scanned += arcs.size();
    if (scanned >= kTickEvery) {
      if (!GenerationTick(emitted)) return;
      scanned = emitted = 0;
    }
  }
  GenerationTick(emitted);
}

template <typename Emit>
void Builder::GenerateSteppingIn(std::span<const Cand> prev,
                                 const Emit& emit) const {
  // Rules 4+5 with a unit-hop right factor: a prev in-entry
  // (owner v, pivot u, d) extends forward over out-arcs (v -> w), w > u.
  uint64_t scanned = 0, emitted = 0;
  for (const Cand& c : prev) {
    auto arcs = g_.OutArcs(c.owner);
    for (const Arc& a : arcs) {
      if (a.to <= c.pivot) continue;
      emit(Cand{a.to, c.pivot, SaturatingAdd(c.dist, a.weight)});
      ++emitted;
    }
    scanned += arcs.size();
    if (scanned >= kTickEvery) {
      if (!GenerationTick(emitted)) return;
      scanned = emitted = 0;
    }
  }
  GenerationTick(emitted);
}

template <typename Emit>
void Builder::GenerateDoublingOut(std::span<const Cand> prev,
                                  const Emit& emit) const {
  const auto& ins = directed_ ? in_ : out_;
  const auto& inv = inv_out_;
  uint64_t since_tick = 0;
  for (const Cand& c : prev) {
    // Rule 1: join with in-labels of the owner whose pivot u1 satisfies
    // v < u1 (< u automatically): suffix scan of the sorted label.
    const LabelVector& lin = ins[c.owner];
    const size_t first = UpperBoundPivot(lin, c.pivot);
    for (size_t i = first; i < lin.size(); ++i) {
      emit(Cand{lin[i].pivot, c.pivot, SaturatingAdd(lin[i].dist, c.dist)});
    }
    // Rule 2: join with every out-entry whose pivot is the owner:
    // owners u2 > u found via the inverted list.
    for (VertexId u2 : inv[c.owner]) {
      Distance d2 = LookupPivot(out_[u2], c.owner);
      HOPDB_DCHECK_NE(d2, kInfDistance);
      emit(Cand{u2, c.pivot, SaturatingAdd(d2, c.dist)});
    }
    since_tick += (lin.size() - first) + inv[c.owner].size();
    if (since_tick >= kTickEvery) {
      if (!GenerationTick(since_tick)) return;
      since_tick = 0;
    }
  }
  GenerationTick(since_tick);
}

template <typename Emit>
void Builder::GenerateDoublingIn(std::span<const Cand> prev,
                                 const Emit& emit) const {
  uint64_t since_tick = 0;
  for (const Cand& c : prev) {
    // Rule 4: join with out-labels of the owner (the path's destination)
    // whose pivot u4 satisfies u < u4 (< v automatically).
    const LabelVector& lout = out_[c.owner];
    const size_t first = UpperBoundPivot(lout, c.pivot);
    for (size_t i = first; i < lout.size(); ++i) {
      emit(Cand{lout[i].pivot, c.pivot, SaturatingAdd(c.dist, lout[i].dist)});
    }
    // Rule 5: join with every in-entry whose pivot is the owner.
    for (VertexId u5 : inv_in_[c.owner]) {
      Distance d5 = LookupPivot(in_[u5], c.owner);
      HOPDB_DCHECK_NE(d5, kInfDistance);
      emit(Cand{u5, c.pivot, SaturatingAdd(c.dist, d5)});
    }
    since_tick += (lout.size() - first) + inv_in_[c.owner].size();
    if (since_tick >= kTickEvery) {
      if (!GenerationTick(since_tick)) return;
      since_tick = 0;
    }
  }
  GenerationTick(since_tick);
}

Status Builder::Generate(BuildMode mode_used, std::vector<Cand>* out_c,
                         std::vector<Cand>* in_c, IterationStats* st) {
  generated_total_.store(0, std::memory_order_relaxed);
  generation_abort_.store(false, std::memory_order_relaxed);

  // Pass 1: count each side's candidates per owner; nothing is stored.
  out_plan_.ResetCounts(g_.num_vertices());
  RunRules(mode_used, /*out_side=*/true,
           [this](const Cand& c) { out_plan_.Count(c.owner); });
  if (directed_) {
    in_plan_.ResetCounts(g_.num_vertices());
    RunRules(mode_used, /*out_side=*/false,
             [this](const Cand& c) { in_plan_.Count(c.owner); });
  }
  // A pass-1 abort leaves the counts short; report whichever limit
  // tripped. A full count is exact, so the cap check below is too.
  const uint64_t counted = generated_total_.load(std::memory_order_relaxed);
  if (opts_.max_candidates_per_iteration != 0 &&
      counted > opts_.max_candidates_per_iteration) {
    return Status::ResourceExhausted(
        "candidate volume " + std::to_string(counted) +
        " exceeds cap at iteration " + std::to_string(st->iteration));
  }
  if (generation_abort_.load(std::memory_order_relaxed) ||
      deadline_.Exceeded()) {
    return Status::DeadlineExceeded("label generation over time budget");
  }
  const uint64_t raw_out = out_plan_.Finish(threads_);
  const uint64_t raw_in = directed_ ? in_plan_.Finish(threads_) : 0;
  st->raw_candidates = raw_out + raw_in;
  stats_.peak_candidates =
      std::max(stats_.peak_candidates, st->raw_candidates);

  // Pass 2: the same rules again, each candidate written straight into
  // the next free slot of its owner's range. It emits exactly what pass
  // 1 counted, so only the deadline can stop it.
  generated_total_.store(0, std::memory_order_relaxed);
  out_c->resize(raw_out);
  RunRules(mode_used, /*out_side=*/true,
           [this, buf = out_c->data()](const Cand& c) {
             buf[out_plan_.Claim(c.owner)] = c;
           });
  if (directed_) {
    in_c->resize(raw_in);
    RunRules(mode_used, /*out_side=*/false,
             [this, buf = in_c->data()](const Cand& c) {
               buf[in_plan_.Claim(c.owner)] = c;
             });
  }
  if (generation_abort_.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("label generation over time budget");
  }
  return Status::OK();
}

void Builder::DedupAndFilter(std::vector<Cand>* cands,
                             const OwnerPartitionPlan& plan, bool out_side,
                             IterationStats* st) {
  // Generation left each owner's candidates, in scheduling-dependent
  // order, in that owner's range; sorting every owner-aligned partition
  // puts them in global (owner, pivot, dist) order, and the
  // per-partition scans below see every (owner, pivot) group whole.
  const std::vector<size_t>& bounds = plan.bounds;
  SortPartitions(
      std::span<Cand>(*cands), bounds, [](const Cand& c) { return c.owner; },
      CandLess);
  const size_t parts = bounds.size() - 1;
  const auto& side = Side(out_side);

  dedup_parts_.assign(parts, {});
  ParallelChunks(
      static_cast<uint32_t>(parts), parts,
      [&](size_t pb, size_t pe, uint32_t) {
        for (size_t p = pb; p < pe; ++p) {
          DedupPartStats& ps = dedup_parts_[p];
          size_t w = bounds[p];
          bool have_last = false;
          VertexId last_owner = 0, last_pivot = 0;
          for (size_t i = bounds[p]; i < bounds[p + 1]; ++i) {
            const Cand& c = (*cands)[i];
            if (have_last && last_owner == c.owner && last_pivot == c.pivot) {
              continue;  // duplicate (owner, pivot); the sort kept min dist
            }
            have_last = true;
            last_owner = c.owner;
            last_pivot = c.pivot;
            ps.deduped++;
            Distance existing = LookupPivot(side[c.owner], c.pivot);
            if (existing <= c.dist) {
              ps.dropped++;
              continue;  // dominated by an existing entry
            }
            (*cands)[w++] = c;
          }
          ps.kept = w - bounds[p];
        }
      });

  // Close the inter-partition gaps in partition order — the surviving
  // sequence equals the sequential scan's output exactly.
  size_t w = dedup_parts_[0].kept;
  st->deduped_candidates += dedup_parts_[0].deduped;
  st->existing_dropped += dedup_parts_[0].dropped;
  for (size_t p = 1; p < parts; ++p) {
    std::move(cands->begin() + static_cast<ptrdiff_t>(bounds[p]),
              cands->begin() +
                  static_cast<ptrdiff_t>(bounds[p] + dedup_parts_[p].kept),
              cands->begin() + static_cast<ptrdiff_t>(w));
    w += dedup_parts_[p].kept;
    st->deduped_candidates += dedup_parts_[p].deduped;
    st->existing_dropped += dedup_parts_[p].dropped;
  }
  cands->resize(w);
}

void Builder::ComputeCandBegin(const std::vector<Cand>& cands,
                               std::vector<size_t>* cand_begin) const {
  const VertexId n = g_.num_vertices();
  cand_begin->resize(static_cast<size_t>(n) + 1);
  size_t i = 0;
  for (VertexId v = 0; v < n; ++v) {
    while (i < cands.size() && cands[i].owner < v) ++i;
    (*cand_begin)[v] = i;
  }
  (*cand_begin)[n] = cands.size();
}

void Builder::BuildSideSnapshot(FlatLabelArena* arena,
                                const std::vector<LabelVector>& labels,
                                const std::vector<Cand>& cands,
                                const std::vector<size_t>& cand_begin,
                                const std::vector<uint8_t>& touched,
                                bool with_cands) {
  const size_t n = labels.size();
  slot_sizes_.assign(n, 0);
  // Pass 1: merged entry counts for the vertices the witness scans can
  // touch (untouched slots stay empty — they are never viewed).
  ParallelChunks(threads_, n, [&](size_t b, size_t e, uint32_t) {
    for (size_t v = b; v < e; ++v) {
      if (!touched[v]) continue;
      const LabelVector& lab = labels[v];
      if (!with_cands) {
        slot_sizes_[v] = lab.size();
        continue;
      }
      size_t li = 0, ci = cand_begin[v];
      const size_t ce = cand_begin[v + 1];
      uint64_t count = 0;
      while (li < lab.size() && ci < ce) {
        const VertexId lp = lab[li].pivot;
        const VertexId cp = cands[ci].pivot;
        if (lp == cp) {
          ++li;
          ++ci;
        } else if (lp < cp) {
          ++li;
        } else {
          ++ci;
        }
        ++count;
      }
      slot_sizes_[v] = count + (lab.size() - li) + (ce - ci);
    }
  });
  arena->Reset(n, slot_sizes_.data());
  // Pass 2: merge-fill (same min-dist collapse PivotCursor performs).
  ParallelChunks(threads_, n, [&](size_t b, size_t e, uint32_t) {
    for (size_t v = b; v < e; ++v) {
      if (!touched[v]) continue;
      uint32_t* pivots = arena->slot_pivots(v);
      uint32_t* dists = arena->slot_dists(v);
      const LabelVector& lab = labels[v];
      size_t w = 0;
      size_t li = 0;
      size_t ci = with_cands ? cand_begin[v] : 0;
      const size_t ce = with_cands ? cand_begin[v + 1] : 0;
      while (li < lab.size() && ci < ce) {
        const LabelEntry& le = lab[li];
        const Cand& c = cands[ci];
        if (le.pivot == c.pivot) {
          pivots[w] = le.pivot;
          dists[w] = std::min(le.dist, c.dist);
          ++li;
          ++ci;
        } else if (le.pivot < c.pivot) {
          pivots[w] = le.pivot;
          dists[w] = le.dist;
          ++li;
        } else {
          pivots[w] = c.pivot;
          dists[w] = c.dist;
          ++ci;
        }
        ++w;
      }
      for (; li < lab.size(); ++li, ++w) {
        pivots[w] = lab[li].pivot;
        dists[w] = lab[li].dist;
      }
      for (; ci < ce; ++ci, ++w) {
        pivots[w] = cands[ci].pivot;
        dists[w] = cands[ci].dist;
      }
      HOPDB_DCHECK_EQ(w, arena->slot_size(v));
    }
  });
}

void Builder::BuildWitnessSnapshots(const std::vector<Cand>& out_c,
                                    const std::vector<Cand>& in_c) {
  const VertexId n = g_.num_vertices();
  const bool with_cands = opts_.prune_with_candidates;

  ComputeCandBegin(out_c, &cand_begin_out_);
  if (directed_) ComputeCandBegin(in_c, &cand_begin_in_);

  // A vertex needs an out-snapshot iff it can be a witness-scan source
  // (owner of an out-candidate, pivot of an in-candidate) and an
  // in-snapshot iff it can be a destination (pivot of an out-candidate,
  // owner of an in-candidate). Undirected scans use the out-snapshot for
  // both endpoints.
  touched_out_.assign(n, 0);
  std::vector<uint8_t>& touched_in = directed_ ? touched_in_ : touched_out_;
  if (directed_) touched_in_.assign(n, 0);
  for (const Cand& c : out_c) {
    touched_out_[c.owner] = 1;
    touched_in[c.pivot] = 1;
  }
  for (const Cand& c : in_c) {
    touched_out_[c.pivot] = 1;
    touched_in[c.owner] = 1;
  }

  BuildSideSnapshot(&wit_out_arena_, out_, out_c, cand_begin_out_,
                    touched_out_, with_cands);
  if (directed_) {
    BuildSideSnapshot(&wit_in_arena_, in_, in_c, cand_begin_in_, touched_in_,
                      with_cands);
  }
}

void Builder::Prune(std::vector<Cand>* out_c, std::vector<Cand>* in_c,
                    IterationStats* st) {
  if (!opts_.prune) return;
  const auto& ins = directed_ ? in_ : out_;

  // A candidate covering the directed path source ⇝ dest with pivot
  // beta = min(owner, pivot) dies iff a witness pivot w < beta exists in
  // Lout(source) ∩ Lin(dest) with d1 + d2 <= d. For out-entries the
  // source is the owner; for in-entries the source is the pivot. The
  // witness set is frozen at the start of the phase: old labels merged
  // with this iteration's deduped candidates (a pruned candidate may
  // still witness the pruning of another — safe, since every entry
  // covers a real path and canonical entries are never pruned; Thm. 3).
  //
  // Decisions are independent, so they are marked in parallel and
  // compacted sequentially — identical output for any thread count.
  const size_t total = out_c->size() + in_c->size();
  const bool use_flat = total >= kMinFlatWitnessCandidates;

  // Shared mark-in-parallel + compact-sequentially scaffold; the two
  // witness implementations below differ only in this callable.
  auto prune_list = [&](std::vector<Cand>* cands, bool is_out,
                        auto&& has_witness) {
    keep_.assign(cands->size(), 0);
    ParallelChunks(threads_, cands->size(),
                   [&](size_t begin, size_t end, uint32_t) {
                     for (size_t i = begin; i < end; ++i) {
                       keep_[i] = !has_witness((*cands)[i], is_out);
                     }
                   });
    size_t w = 0;
    for (size_t i = 0; i < cands->size(); ++i) {
      if (keep_[i]) {
        (*cands)[w++] = (*cands)[i];
      } else {
        st->pruned++;
      }
    }
    cands->resize(w);
  };

  if (use_flat) {
    // Hot path: frozen flat SoA snapshots + the bounded early-exit SIMD
    // merge-join of the active query kernel.
    BuildWitnessSnapshots(*out_c, *in_c);
    const QueryKernel& kernel = ActiveQueryKernel();
    const FlatLabelArena& dest_arena =
        directed_ ? wit_in_arena_ : wit_out_arena_;
    auto flat_witness = [&](const Cand& c, bool is_out) {
      const VertexId source = is_out ? c.owner : c.pivot;
      const VertexId dest = is_out ? c.pivot : c.owner;
      const FlatLabelStore::View sv = wit_out_arena_.View(source);
      const FlatLabelStore::View dv = dest_arena.View(dest);
      return kernel.has_witness_flat(sv.pivots, sv.dists, sv.size, dv.pivots,
                                     dv.dists, dv.size, c.pivot, c.dist);
    };
    prune_list(out_c, /*is_out=*/true, flat_witness);
    if (directed_) prune_list(in_c, /*is_out=*/false, flat_witness);
    return;
  }

  // Small-iteration fallback: the scalar cursor merge over label vectors
  // and candidate slices (also the reference the SIMD path is
  // cross-checked against in tests).
  wit_out_small_.clear();
  wit_in_small_.clear();
  if (opts_.prune_with_candidates) {
    wit_out_small_ = *out_c;
    wit_in_small_ = directed_ ? *in_c : *out_c;
  }
  auto cursor_witness = [&](const Cand& c, bool is_out) {
    const VertexId source = is_out ? c.owner : c.pivot;
    const VertexId dest = is_out ? c.pivot : c.owner;
    PivotCursor outs(out_[source], OwnerSlice(wit_out_small_, source));
    PivotCursor inss(ins[dest], OwnerSlice(wit_in_small_, dest));
    return HasPruningWitness(outs, inss, c.pivot, c.dist);
  };
  prune_list(out_c, /*is_out=*/true, cursor_witness);
  if (directed_) prune_list(in_c, /*is_out=*/false, cursor_witness);
}

uint64_t Builder::Apply(const std::vector<Cand>& cands, bool out_side,
                        IterationStats* st) {
  auto& side = Side(out_side);
  auto& inv = out_side || !directed_ ? inv_out_ : inv_in_;
  size_t i = 0;
  while (i < cands.size()) {
    const VertexId owner = cands[i].owner;
    size_t j = i;
    while (j < cands.size() && cands[j].owner == owner) ++j;
    LabelVector& lab = side[owner];
    const size_t old_size = lab.size();
    for (size_t k = i; k < j; ++k) {
      const Cand& c = cands[k];
      // In-place update when the pivot already exists (possible for
      // weighted graphs and Hop-Doubling's overshooting paths).
      size_t lo = 0, hi = old_size;
      while (lo < hi) {
        size_t mid = (lo + hi) / 2;
        if (lab[mid].pivot < c.pivot) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      if (lo < old_size && lab[lo].pivot == c.pivot) {
        HOPDB_DCHECK_GT(lab[lo].dist, c.dist);
        lab[lo].dist = c.dist;
        ++st->updates;
      } else {
        lab.push_back({c.pivot, c.dist});
        inv[c.pivot].push_back(owner);
      }
    }
    std::inplace_merge(
        lab.begin(), lab.begin() + static_cast<ptrdiff_t>(old_size),
        lab.end(), [](const LabelEntry& a, const LabelEntry& b) {
          return a.pivot < b.pivot;
        });
    i = j;
  }
  return cands.size();
}

Result<BuildOutput> Builder::Run() {
  Stopwatch total_watch;
  {
    Stopwatch init_watch;
    Initialize();
    stats_.init_seconds = init_watch.Seconds();
  }

  for (uint32_t iter = 1; iter <= opts_.max_iterations; ++iter) {
    if (prev_out_.empty() && prev_in_.empty()) break;
    if (deadline_.Exceeded()) {
      return Status::DeadlineExceeded("label construction over time budget");
    }

    Stopwatch iter_watch;
    IterationStats st;
    st.iteration = iter;
    switch (opts_.mode) {
      case BuildMode::kHopStepping:
        st.mode_used = BuildMode::kHopStepping;
        break;
      case BuildMode::kHopDoubling:
        st.mode_used = BuildMode::kHopDoubling;
        break;
      case BuildMode::kHybrid:
        st.mode_used = iter <= opts_.hybrid_switch_iteration
                           ? BuildMode::kHopStepping
                           : BuildMode::kHopDoubling;
        break;
    }

    // This iteration's candidate buffers, sized exactly by Generate and
    // compacted in place by dedup and pruning.
    std::vector<Cand> out_c, in_c;
    Stopwatch phase_watch;
    HOPDB_RETURN_NOT_OK(Generate(st.mode_used, &out_c, &in_c, &st));
    // Only generation reads `prev`; release it before the later phases
    // allocate.
    std::vector<Cand>().swap(prev_out_);
    std::vector<Cand>().swap(prev_in_);
    st.generate_seconds = phase_watch.Seconds();

    phase_watch.Restart();
    DedupAndFilter(&out_c, out_plan_, /*out_side=*/true, &st);
    if (directed_) DedupAndFilter(&in_c, in_plan_, /*out_side=*/false, &st);
    st.dedup_seconds = phase_watch.Seconds();

    phase_watch.Restart();
    Prune(&out_c, &in_c, &st);
    st.prune_seconds = phase_watch.Seconds();

    phase_watch.Restart();
    st.survivors = Apply(out_c, /*out_side=*/true, &st);
    if (directed_) st.survivors += Apply(in_c, /*out_side=*/false, &st);
    st.apply_seconds = phase_watch.Seconds();

    // Survivors become `prev` in exactly sized copies; the raw-sized
    // buffers die with this iteration.
    prev_out_.assign(out_c.begin(), out_c.end());
    prev_in_.assign(in_c.begin(), in_c.end());

    uint64_t total_entries = 0;
    for (const auto& l : out_) total_entries += l.size();
    for (const auto& l : in_) total_entries += l.size();
    st.total_entries_after = total_entries;
    st.seconds = iter_watch.Seconds();
    stats_.iterations.push_back(st);
    stats_.num_rule_iterations = iter;

    if (st.survivors == 0) break;
  }

  stats_.total_seconds = total_watch.Seconds();
  BuildOutput output{
      TwoHopIndex(std::move(out_), std::move(in_), directed_),
      std::move(stats_)};
  return output;
}

}  // namespace

const char* BuildModeName(BuildMode mode) {
  switch (mode) {
    case BuildMode::kHopStepping:
      return "Step";
    case BuildMode::kHopDoubling:
      return "Double";
    case BuildMode::kHybrid:
      return "Hybrid";
  }
  return "?";
}

Result<BuildOutput> BuildHopLabeling(const CsrGraph& ranked_graph,
                                     const BuildOptions& options) {
  if (options.mode == BuildMode::kHybrid &&
      options.hybrid_switch_iteration == 0) {
    return Status::InvalidArgument(
        "hybrid mode needs hybrid_switch_iteration >= 1");
  }
  Builder builder(ranked_graph, options);
  return builder.Run();
}

}  // namespace hopdb
