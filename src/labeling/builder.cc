#include "labeling/builder.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/log.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace hopdb {

namespace {

/// Work between GenerationTick control checks: sources visited plus
/// candidates counted or gathered.
constexpr uint64_t kTickEvery = 1 << 16;

/// Owner ranges per worker thread. Workers claim ranges as they finish
/// one, so ranges of costlier owners (more survivors to sort) do not hold
/// the others up.
constexpr uint32_t kRangesPerThread = 8;

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
  /// One label side's generation state. Candidates and `prev` entries
  /// carry no owner: owner w's entries are a slice cut by per-owner
  /// offsets, sorted by pivot (every pivot ranks above its owner).
  struct GenSide {
    /// Entries that survived the previous iteration; exactly sized, and
    /// released once generation has read them.
    std::vector<LabelEntry> prev;
    /// Vertex x's slice of `prev` is [prev_begin[x], prev_begin[x + 1]).
    std::vector<uint64_t> prev_begin;
    /// Per-owner counts prefix-summed into offsets (owner w's range is
    /// [at[w], at[w + 1])): raw candidates after pass 1, survivors after
    /// pass 2 (the ranges pass 3 fills and pruning reads), pruning's
    /// survivors after compaction. Apply reads them, and they become the
    /// next iteration's `prev_begin`.
    std::vector<uint64_t> at;
    /// Owner range bounds for the gather and prune passes, cut at
    /// raw-count quantiles.
    std::vector<VertexId> ranges;
    /// cmin[w]: the smallest distance among owner w's deduped and
    /// filtered candidates, kInfDistance if it has none.
    std::vector<Distance> cmin;
    /// Hop-Doubling iterations only, built from the labels when
    /// generation starts and released with `prev`: the owners whose label
    /// on this side holds pivot p, in ascending order, are
    /// inv[inv_begin[p]] .. inv[inv_begin[p + 1] - 1]. The sources of
    /// Rules 1 and 4 for the opposite side's owners.
    std::vector<uint64_t> inv_begin;
    std::vector<VertexId> inv;
  };

  /// One worker's gather and prune state, sized on the calling thread so
  /// the workers never allocate.
  struct GatherScratch {
    /// best[p]: 1 + the smallest distance gathered (or, while pruning,
    /// loaded) for pivot p from the current owner, 0 if none; all zero
    /// between owners.
    std::vector<uint64_t> best;
    /// The current owner's distinct pivots.
    std::vector<VertexId> pivots;
    /// Distinct candidates this worker gathered, and those of them an
    /// existing entry dominated, over the current pass.
    uint64_t deduped = 0;
    uint64_t dropped = 0;
  };

  void Initialize();

  /// Generates, dedups and filters this iteration's candidates owner by
  /// owner, each range of owners on one worker. Pass 1 counts each
  /// owner's raw candidates and checks the cap before any candidate
  /// memory exists; pass 2 gathers, dedups and filters every owner to
  /// count its survivors; pass 3 repeats that and writes them into one
  /// exactly sized buffer per side.
  Status Generate(BuildMode mode_used, std::vector<LabelEntry>* out_c,
                  std::vector<LabelEntry>* in_c, IterationStats* st);

  /// Fills one side's inverted lists (GenSide::inv) from its labels.
  void BuildInvertedLists(bool out_side);

  /// Frees what only generation reads: `prev` and the inverted lists.
  void ReleaseSources(bool out_side);

  /// Periodic in-pass control check (generation and pruning): accumulates
  /// the caller's local raw count and trips the shared abort flag when the
  /// deadline or the candidate-volume cap is blown MID-pass. Without this,
  /// a bad vertex order (random order on a big scale-free graph) can spend
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

  /// The rules of `mode` in pull form: calls visit(slice, hop) for every
  /// source x of owner w's candidates on one side, where `slice` holds
  /// x's `prev` entries whose pivot ranks above w and `hop` is the
  /// distance between w and x. Every slice entry (x, p, d) then yields
  /// the candidate (w, p, hop + d).
  template <typename Visit>
  void ForEachSource(BuildMode mode, bool out_side, VertexId w,
                     const Visit& visit) const;

  /// Runs fn(w, worker, &work, &generated) for every owner of `ranges`,
  /// each range on one worker: workers claim the next unclaimed range
  /// until none is left. fn adds the work it did and the candidates it
  /// counted; both feed GenerationTick, and a tripped tick stops the
  /// pass.
  template <typename Fn>
  void ForEachOwner(const std::vector<VertexId>& ranges, const Fn& fn) const;

  /// Pass 1 for one side: fills `at` with exact per-owner raw counts and
  /// cuts `ranges` from them. Reports the raw count through
  /// GenerationTick.
  void CountRaw(BuildMode mode, bool out_side);

  /// Passes 2 and 3 for one side: `cands` ends up holding the side's
  /// deduped and filtered candidates, owner w's in [at[w], at[w + 1])
  /// sorted by pivot.
  void Gather(BuildMode mode, bool out_side, std::vector<LabelEntry>* cands,
              IterationStats* st);

  /// Gathers owner w's candidates into sc->best, keeping the smallest
  /// distance per pivot, and drops pivots w's label already holds at that
  /// distance or less. Leaves the survivors' pivots, unordered, in
  /// sc->pivots with their `best` slots set; the caller clears those.
  /// Returns the number of candidates gathered.
  size_t GatherOwner(BuildMode mode, bool out_side, VertexId w,
                     GatherScratch* sc) const;

  /// Section 3.3 pruning over both candidate lists: decides every
  /// candidate of both sides, then compacts both and rewrites each side's
  /// `at` to its survivors' offsets. Fails with DeadlineExceeded, leaving
  /// the lists unpruned, when the deadline stops a decision pass.
  Status Prune(std::vector<LabelEntry>* out_c, std::vector<LabelEntry>* in_c,
               IterationStats* st);

  /// Decides one side's candidates owner by owner: keep[i] = 1 iff
  /// cands[i] has no witness. `opposite` holds the other side's
  /// candidates (the same list on undirected graphs).
  void DecideSide(bool out_side, const std::vector<LabelEntry>& cands,
                  const std::vector<LabelEntry>& opposite,
                  std::vector<uint8_t>* keep);

  /// Merges survivors into the labels owner by owner, reserving each
  /// touched label to its old size plus its survivor count first; returns
  /// the survivor count. Sequential: it is the one phase that grows heap
  /// memory (the labels), and growth made on worker threads lands in
  /// per-thread malloc arenas and raises the build's peak RSS with the
  /// thread count, for a phase that costs ~2% of the build.
  uint64_t Apply(const std::vector<LabelEntry>& cands, bool out_side,
                 IterationStats* st);

  std::vector<LabelVector>& Side(bool out_side) {
    return out_side || !directed_ ? out_ : in_;
  }
  const std::vector<LabelVector>& Side(bool out_side) const {
    return out_side || !directed_ ? out_ : in_;
  }
  GenSide& Gen(bool out_side) {
    return out_side || !directed_ ? gen_out_ : gen_in_;
  }
  const GenSide& Gen(bool out_side) const {
    return out_side || !directed_ ? gen_out_ : gen_in_;
  }

  const CsrGraph& g_;
  BuildOptions opts_;
  bool directed_;
  uint32_t threads_;
  Deadline deadline_;

  std::vector<LabelVector> out_;
  std::vector<LabelVector> in_;

  GenSide gen_out_;
  GenSide gen_in_;

  /// Mid-generation abort machinery (see GenerationTick).
  mutable std::atomic<uint64_t> generated_total_{0};
  mutable std::atomic<bool> generation_abort_{false};

  // -------------------------------------------------------------------
  // Iteration-scoped tables, reused across iterations.
  // -------------------------------------------------------------------
  /// One gather and prune state per worker.
  std::vector<GatherScratch> scratch_;

  BuildStats stats_;
};

void Builder::Initialize() {
  const VertexId n = g_.num_vertices();
  out_.assign(n, {});
  if (directed_) in_.assign(n, {});

  // One entry per edge: the higher-ranked endpoint becomes the pivot.
  // Directed arc u->v: v < u places (v, w) in Lout(u); u < v places
  // (u, w) in Lin(v). Undirected edge {u, v} with u < v: (u, w) in L(v).
  for (VertexId u = 0; u < n; ++u) {
    for (const Arc& a : g_.OutArcs(u)) {
      const VertexId v = a.to;
      if (directed_) {
        if (v < u) {
          out_[u].push_back({v, a.weight});
        } else {
          in_[v].push_back({u, a.weight});
        }
      } else if (u < v) {
        out_[v].push_back({u, a.weight});
      }
    }
  }
  // Sorts each label and trims it to its size. The labels, flattened in
  // owner order, are iteration 1's `prev`.
  auto flatten = [&](bool out_side) {
    std::vector<LabelVector>& labels = Side(out_side);
    GenSide& gen = Gen(out_side);
    gen.prev_begin.assign(static_cast<size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      std::sort(labels[v].begin(), labels[v].end(),
                [](const LabelEntry& a, const LabelEntry& b) {
                  return a.pivot < b.pivot;
                });
      labels[v].shrink_to_fit();
      gen.prev_begin[v + 1] = gen.prev_begin[v] + labels[v].size();
    }
    gen.prev.reserve(gen.prev_begin[n]);
    for (const LabelVector& label : labels) {
      gen.prev.insert(gen.prev.end(), label.begin(), label.end());
    }
  };
  flatten(/*out_side=*/true);
  if (directed_) flatten(/*out_side=*/false);
  stats_.initial_entries = gen_out_.prev.size() + gen_in_.prev.size();
}

void Builder::BuildInvertedLists(bool out_side) {
  GenSide& gen = Gen(out_side);
  const std::vector<LabelVector>& labels = Side(out_side);
  const VertexId n = g_.num_vertices();
  // Count each pivot's owners, then write them in ascending owner order.
  gen.inv_begin.assign(static_cast<size_t>(n) + 1, 0);
  for (const LabelVector& label : labels) {
    for (const LabelEntry& e : label) ++gen.inv_begin[e.pivot + 1];
  }
  for (size_t p = 0; p < n; ++p) gen.inv_begin[p + 1] += gen.inv_begin[p];
  gen.inv.resize(gen.inv_begin[n]);
  std::vector<uint64_t> next(gen.inv_begin.begin(), gen.inv_begin.end() - 1);
  for (VertexId w = 0; w < n; ++w) {
    for (const LabelEntry& e : labels[w]) gen.inv[next[e.pivot]++] = w;
  }
}

void Builder::ReleaseSources(bool out_side) {
  GenSide& gen = Gen(out_side);
  std::vector<LabelEntry>().swap(gen.prev);
  std::vector<uint64_t>().swap(gen.inv_begin);
  std::vector<VertexId>().swap(gen.inv);
}

template <typename Visit>
void Builder::ForEachSource(BuildMode mode, bool out_side, VertexId w,
                            const Visit& visit) const {
  const GenSide& gen = Gen(out_side);
  // x's `prev` entries whose pivot ranks above w: a prefix of its slice.
  auto above_w = [&](VertexId x) {
    const LabelEntry* first = gen.prev.data() + gen.prev_begin[x];
    const LabelEntry* last = gen.prev.data() + gen.prev_begin[x + 1];
    last = std::partition_point(
        first, last, [w](const LabelEntry& e) { return e.pivot < w; });
    return std::span<const LabelEntry>(first, last);
  };
  if (mode == BuildMode::kHopStepping) {
    // Hop-Stepping (Section 5.1): one arc w -> x (out side) or x -> w (in
    // side) extended by a `prev` path from (or to) x.
    for (const Arc& a : out_side ? g_.OutArcs(w) : g_.InArcs(w)) {
      visit(above_w(a.to), a.weight);
    }
    return;
  }
  // Rules 1 (out side) and 4 (in side) of Fig. 6: w is a pivot of the
  // opposite-side label of x, which ranks below w.
  const GenSide& opposite = Gen(!out_side);
  const std::vector<LabelVector>& other = Side(!out_side);
  for (uint64_t i = opposite.inv_begin[w]; i < opposite.inv_begin[w + 1];
       ++i) {
    const VertexId x = opposite.inv[i];
    const std::span<const LabelEntry> slice = above_w(x);
    if (!slice.empty()) visit(slice, LookupPivot(other[x], w));
  }
  // Rules 2 and 5: x is a pivot of w's own label, so all of x's `prev`
  // entries rank above w.
  for (const LabelEntry& e : Side(out_side)[w]) {
    visit(std::span<const LabelEntry>(
              gen.prev.data() + gen.prev_begin[e.pivot],
              gen.prev.data() + gen.prev_begin[e.pivot + 1]),
          e.dist);
  }
}

template <typename Fn>
void Builder::ForEachOwner(const std::vector<VertexId>& ranges,
                           const Fn& fn) const {
  std::atomic<size_t> next{0};
  ParallelChunks(threads_, threads_, [&](size_t, size_t, uint32_t worker) {
    uint64_t work = 0, generated = 0;
    for (size_t k; (k = next.fetch_add(1, std::memory_order_relaxed)) + 1 <
                   ranges.size();) {
      for (VertexId w = ranges[k]; w < ranges[k + 1]; ++w) {
        fn(w, worker, &work, &generated);
        if (work >= kTickEvery) {
          if (!GenerationTick(generated)) return;
          work = generated = 0;
        }
      }
    }
    GenerationTick(generated);
  });
}

void Builder::CountRaw(BuildMode mode, bool out_side) {
  GenSide& gen = Gen(out_side);
  const VertexId n = g_.num_vertices();
  const uint32_t parts = threads_ * kRangesPerThread;
  gen.at.assign(static_cast<size_t>(n) + 1, 0);
  // Count over owner ranges of equal size.
  gen.ranges.clear();
  for (uint32_t k = 0; k <= parts; ++k) {
    gen.ranges.push_back(static_cast<VertexId>(uint64_t{n} * k / parts));
  }
  ForEachOwner(gen.ranges, [&](VertexId w, uint32_t, uint64_t* work,
                               uint64_t* generated) {
    uint64_t raw = 0;
    ForEachSource(mode, out_side, w,
                  [&](std::span<const LabelEntry> slice, Distance) {
                    raw += slice.size();
                    ++*work;
                  });
    gen.at[w + 1] = raw;
    *work += raw;
    *generated += raw;
  });

  // Prefix-sum into offsets and recut the ranges at raw-count quantiles.
  for (size_t w = 0; w < n; ++w) gen.at[w + 1] += gen.at[w];
  const uint64_t total = gen.at[n];
  gen.ranges.assign(1, 0);
  for (uint32_t k = 1; k < parts; ++k) {
    const auto it = std::lower_bound(gen.at.begin(), gen.at.end(),
                                     total * k / parts);
    const auto bound = static_cast<VertexId>(it - gen.at.begin());
    if (bound > gen.ranges.back() && bound < n) gen.ranges.push_back(bound);
  }
  gen.ranges.push_back(n);
}

size_t Builder::GatherOwner(BuildMode mode, bool out_side, VertexId w,
                            GatherScratch* sc) const {
  sc->pivots.clear();
  size_t gathered = 0;
  auto gather = [&](std::span<const LabelEntry> slice, Distance hop) {
    gathered += slice.size();
    for (const LabelEntry& e : slice) {
      const uint64_t d = uint64_t{SaturatingAdd(hop, e.dist)} + 1;
      uint64_t& best = sc->best[e.pivot];
      if (best == 0) {
        sc->pivots.push_back(e.pivot);
        best = d;
      } else {
        best = std::min(best, d);
      }
    }
  };
  ForEachSource(mode, out_side, w, gather);
  sc->deduped += sc->pivots.size();
  for (const LabelEntry& e : Side(out_side)[w]) {
    uint64_t& best = sc->best[e.pivot];
    if (best != 0 && best - 1 >= e.dist) {
      best = 0;  // dominated by an existing entry
      ++sc->dropped;
    }
  }
  std::erase_if(sc->pivots, [sc](VertexId p) { return sc->best[p] == 0; });
  return gathered;
}

void Builder::Gather(BuildMode mode, bool out_side,
                     std::vector<LabelEntry>* cands, IterationStats* st) {
  GenSide& gen = Gen(out_side);
  const VertexId n = g_.num_vertices();
  scratch_.resize(threads_);
  for (GatherScratch& sc : scratch_) {
    sc.best.resize(n, 0);
    sc.pivots.reserve(n);
    sc.deduped = sc.dropped = 0;
  }

  // Runs on_owner(w, scratch) after gathering each owner.
  auto for_each_owner = [&](const auto& on_owner) {
    ForEachOwner(gen.ranges, [&](VertexId w, uint32_t worker, uint64_t* work,
                                 uint64_t*) {
      GatherScratch* sc = &scratch_[worker];
      *work += GatherOwner(mode, out_side, w, sc) + 1;
      on_owner(w, sc);
    });
  };

  // Pass 2: count each owner's survivors.
  for_each_owner([&](VertexId w, GatherScratch* sc) {
    gen.at[w + 1] = sc->pivots.size();
    for (const VertexId p : sc->pivots) sc->best[p] = 0;
  });
  if (generation_abort_.load(std::memory_order_relaxed)) return;
  for (const GatherScratch& sc : scratch_) {
    st->deduped_candidates += sc.deduped;
    st->existing_dropped += sc.dropped;
  }
  for (size_t w = 0; w < n; ++w) gen.at[w + 1] += gen.at[w];

  // Pass 3: the same gather again, each owner's survivors written in
  // pivot order into its range, and their smallest distance noted for
  // pruning.
  cands->resize(gen.at[n]);
  gen.cmin.assign(n, kInfDistance);
  for_each_owner([&](VertexId w, GatherScratch* sc) {
    std::sort(sc->pivots.begin(), sc->pivots.end());
    LabelEntry* out = cands->data() + gen.at[w];
    for (const VertexId p : sc->pivots) {
      const auto d = static_cast<Distance>(sc->best[p] - 1);
      *out++ = LabelEntry{p, d};
      gen.cmin[w] = std::min(gen.cmin[w], d);
      sc->best[p] = 0;
    }
  });
}

Status Builder::Generate(BuildMode mode_used, std::vector<LabelEntry>* out_c,
                         std::vector<LabelEntry>* in_c, IterationStats* st) {
  generated_total_.store(0, std::memory_order_relaxed);
  generation_abort_.store(false, std::memory_order_relaxed);

  // Only Rules 1 and 4 read the inverted lists.
  if (mode_used == BuildMode::kHopDoubling) {
    BuildInvertedLists(/*out_side=*/true);
    if (directed_) BuildInvertedLists(/*out_side=*/false);
  }

  CountRaw(mode_used, /*out_side=*/true);
  if (directed_) CountRaw(mode_used, /*out_side=*/false);
  // An aborted count is short; report whichever limit tripped. A full
  // count is exact, so the cap check below is too.
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
  st->raw_candidates = counted;
  stats_.peak_candidates = std::max(stats_.peak_candidates, counted);

  Gather(mode_used, /*out_side=*/true, out_c, st);
  if (directed_) Gather(mode_used, /*out_side=*/false, in_c, st);
  if (generation_abort_.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("label generation over time budget");
  }
  return Status::OK();
}

void Builder::DecideSide(bool out_side, const std::vector<LabelEntry>& cands,
                         const std::vector<LabelEntry>& opposite,
                         std::vector<uint8_t>* keep) {
  const GenSide& gen = Gen(out_side);
  const GenSide& opp_gen = Gen(!out_side);
  const std::vector<LabelVector>& labels = Side(out_side);
  const std::vector<LabelVector>& opp_labels = Side(!out_side);
  const bool with_cands = opts_.prune_with_candidates;
  ForEachOwner(gen.ranges, [&](VertexId w, uint32_t worker, uint64_t* work,
                               uint64_t*) {
    const size_t begin = gen.at[w];
    const size_t end = gen.at[w + 1];
    if (begin == end) return;
    // Load w's own side into the table as 1 + dist, the smaller distance
    // where a pivot is both a label entry and a candidate.
    uint64_t* best = scratch_[worker].best.data();
    Distance tmin = kInfDistance;
    auto load = [&](VertexId pivot, Distance dist) {
      const uint64_t d = uint64_t{dist} + 1;
      if (best[pivot] == 0 || d < best[pivot]) best[pivot] = d;
      tmin = std::min(tmin, dist);
    };
    const LabelVector& own = labels[w];
    for (const LabelEntry& e : own) load(e.pivot, e.dist);
    if (with_cands) {
      for (size_t i = begin; i < end; ++i) load(cands[i].pivot, cands[i].dist);
    }

    // Candidate (w, p, d) has a witness iff an entry (x, d2) of p's
    // opposite side meets x's table entry within d. Every such x ranks
    // above p, so the beta bound needs no check. No table entry is below
    // tmin, so an entry with tmin + d2 > d is skipped unprobed, and so is
    // p's whole candidate slice when tmin + cmin[p] > d.
    uint64_t probes = 0;
    for (size_t i = begin; i < end; ++i) {
      const VertexId p = cands[i].pivot;
      const Distance d = cands[i].dist;
      auto witnesses = [&](VertexId x, Distance d2) {
        if (SaturatingAdd(tmin, d2) > d) return false;
        ++probes;
        return best[x] != 0 &&
               SaturatingAdd(static_cast<Distance>(best[x] - 1), d2) <= d;
      };
      bool found = std::any_of(
          opp_labels[p].begin(), opp_labels[p].end(),
          [&](const LabelEntry& e) { return witnesses(e.pivot, e.dist); });
      if (!found && with_cands && SaturatingAdd(tmin, opp_gen.cmin[p]) <= d) {
        found = std::any_of(
            opposite.begin() + opp_gen.at[p],
            opposite.begin() + opp_gen.at[p + 1],
            [&](const LabelEntry& e) { return witnesses(e.pivot, e.dist); });
      }
      (*keep)[i] = !found;
    }

    for (const LabelEntry& e : own) best[e.pivot] = 0;
    for (size_t i = begin; i < end; ++i) best[cands[i].pivot] = 0;
    *work += own.size() + (end - begin) + probes;
  });
}

Status Builder::Prune(std::vector<LabelEntry>* out_c,
                      std::vector<LabelEntry>* in_c, IterationStats* st) {
  if (!opts_.prune) return Status::OK();

  // A candidate covering the directed path source ⇝ dest with pivot
  // beta = min(owner, pivot) = pivot dies iff a witness x < beta exists in
  // Lout(source) ∩ Lin(dest) with d1 + d2 <= d. For out-entries the
  // source is the owner; for in-entries the source is the pivot. The
  // witness set is frozen for the whole phase: old labels merged with
  // this iteration's deduped candidates (a pruned candidate may still
  // witness the pruning of another — safe, since every entry covers a
  // real path and canonical entries are never pruned; Thm. 3). So both
  // sides are decided, owner by owner, before either list is compacted:
  // in-candidates are witnessed by out-candidates and vice versa.
  // Decisions read only frozen state, so the output is identical for any
  // thread count.
  std::vector<uint8_t> keep_out(out_c->size()), keep_in(in_c->size());
  DecideSide(/*out_side=*/true, *out_c, directed_ ? *in_c : *out_c,
             &keep_out);
  if (directed_) DecideSide(/*out_side=*/false, *in_c, *out_c, &keep_in);
  if (generation_abort_.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("label pruning over time budget");
  }
  // Compacts one side owner by owner, rewriting `at` to the survivors'
  // offsets.
  auto compact = [&](bool out_side, std::vector<LabelEntry>* cands,
                     const std::vector<uint8_t>& keep) {
    std::vector<uint64_t>& at = Gen(out_side).at;
    uint64_t kept = 0;
    uint64_t begin = 0;  // owner w's offset before compaction
    for (size_t w = 0; w + 1 < at.size(); ++w) {
      const uint64_t end = at[w + 1];
      for (uint64_t i = begin; i < end; ++i) {
        if (keep[i]) (*cands)[kept++] = (*cands)[i];
      }
      at[w + 1] = kept;
      begin = end;
    }
    st->pruned += cands->size() - kept;
    cands->resize(kept);
  };
  compact(/*out_side=*/true, out_c, keep_out);
  if (directed_) compact(/*out_side=*/false, in_c, keep_in);
  return Status::OK();
}

uint64_t Builder::Apply(const std::vector<LabelEntry>& cands, bool out_side,
                        IterationStats* st) {
  std::vector<LabelVector>& side = Side(out_side);
  const std::vector<uint64_t>& at = Gen(out_side).at;
  for (VertexId owner = 0; owner < side.size(); ++owner) {
    const uint64_t i = at[owner];
    const uint64_t j = at[owner + 1];
    if (i == j) continue;
    LabelVector& lab = side[owner];
    const size_t old_size = lab.size();
    lab.reserve(old_size + (j - i));
    for (uint64_t k = i; k < j; ++k) {
      const LabelEntry& c = cands[k];
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
        lab.push_back(c);
      }
    }
    std::inplace_merge(
        lab.begin(), lab.begin() + static_cast<ptrdiff_t>(old_size),
        lab.end(), [](const LabelEntry& a, const LabelEntry& b) {
          return a.pivot < b.pivot;
        });
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
    if (gen_out_.prev.empty() && gen_in_.prev.empty()) break;
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

    // This iteration's deduped and filtered candidates, sized exactly by
    // Generate and compacted in place by pruning.
    std::vector<LabelEntry> out_c, in_c;
    Stopwatch phase_watch;
    HOPDB_RETURN_NOT_OK(Generate(st.mode_used, &out_c, &in_c, &st));
    // Only generation reads `prev` and the inverted lists; release them
    // before the later phases allocate.
    ReleaseSources(/*out_side=*/true);
    if (directed_) ReleaseSources(/*out_side=*/false);
    st.generate_seconds = phase_watch.Seconds();

    phase_watch.Restart();
    HOPDB_RETURN_NOT_OK(Prune(&out_c, &in_c, &st));
    st.prune_seconds = phase_watch.Seconds();

    phase_watch.Restart();
    st.survivors = Apply(out_c, /*out_side=*/true, &st);
    if (directed_) st.survivors += Apply(in_c, /*out_side=*/false, &st);
    st.apply_seconds = phase_watch.Seconds();

    // Survivors become `prev` in exactly sized copies, and their offsets
    // its `prev_begin`; the pre-pruning buffers die with this iteration.
    gen_out_.prev.assign(out_c.begin(), out_c.end());
    gen_out_.prev_begin.swap(gen_out_.at);
    if (directed_) {
      gen_in_.prev.assign(in_c.begin(), in_c.end());
      gen_in_.prev_begin.swap(gen_in_.at);
    }

    uint64_t total_entries = 0;
    for (const auto& l : out_) total_entries += l.size();
    for (const auto& l : in_) total_entries += l.size();
    st.total_entries_after = total_entries;
    st.seconds = iter_watch.Seconds();
    stats_.iterations.push_back(st);
    stats_.num_rule_iterations = iter;
    JsonLogLine(JsonLogLevel::kInfo, "build_iteration")
        .Num("iteration", st.iteration)
        .Str("mode", BuildModeName(st.mode_used))
        .Num("raw", st.raw_candidates)
        .Num("deduped", st.deduped_candidates)
        .Num("dropped", st.existing_dropped)
        .Num("pruned", st.pruned)
        .Num("survivors", st.survivors)
        .Fixed("generate_s", st.generate_seconds, 6)
        .Fixed("prune_s", st.prune_seconds, 6)
        .Fixed("apply_s", st.apply_seconds, 6);

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
