#include "labeling/builder.h"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
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

/// A fixed array of T in a fresh anonymous page mapping, mapped and
/// unmapped on the calling thread. Only the pages written become
/// resident, so an array sized by an upper bound costs the memory of what
/// it holds, and unmapping returns those pages at once. A malloc block of
/// that size can instead reuse heap pages an earlier allocation left
/// resident, and keep them once freed. Never value-initialized.
template <typename T>
class PageArray {
 public:
  PageArray() = default;
  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;
  ~PageArray() { Unmap(); }

  /// Replaces the array with a fresh one of `size` elements (none for
  /// 0); fails with ResourceExhausted when the kernel refuses the mapping.
  Status Map(uint64_t size) {
    Unmap();
    if (size == 0) return Status::OK();
    errno = ENOMEM;  // reported when the byte count overflows size_t
    void* pages = size > SIZE_MAX / sizeof(T)
                      ? MAP_FAILED
                      : mmap(nullptr, size * sizeof(T), PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (pages == MAP_FAILED) {
      return Status::ResourceExhausted(
          "cannot map a build buffer of " + std::to_string(size) + " x " +
          std::to_string(sizeof(T)) + " B: " + std::strerror(errno));
    }
    data_ = static_cast<T*>(pages);
    size_ = size;
    return Status::OK();
  }

  void Unmap() {
    if (data_ != nullptr) munmap(data_, size_ * sizeof(T));
    data_ = nullptr;
    size_ = 0;
  }

  uint64_t size() const { return size_; }
  T* data() const { return data_; }
  T& operator[](uint64_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  uint64_t size_ = 0;
};

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
    /// Entries that survived the previous iteration, packed in owner
    /// order; exactly sized, and released once generation has read them.
    std::vector<LabelEntry> prev;
    /// Vertex x's slice of `prev` is [prev_begin[x], prev_begin[x + 1]).
    std::vector<uint64_t> prev_begin;
    /// This iteration's deduped and filtered candidates, in a mapping
    /// with room for the raw count; unmapped once the survivors are
    /// `prev`.
    PageArray<LabelEntry> cands;
    /// Owner w's candidates are cands[begin[w], end[w]). Pass 1 leaves
    /// the raw counts' prefix sums in `begin` (w's raw offset; begin[n]
    /// is the raw total). The gather packs each range's owners from the
    /// raw offset of its first owner: an owner keeps at most its raw
    /// count, so its slice ends by the next owner's raw offset. Pruning's
    /// compaction lowers end[w]; apply and the next `prev` read both.
    std::vector<uint64_t> begin;
    std::vector<uint64_t> end;
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
    /// Distinct candidates this worker gathered, those of them an
    /// existing entry dominated, and those it pruned, over the current
    /// pass.
    uint64_t deduped = 0;
    uint64_t dropped = 0;
    uint64_t pruned = 0;
  };

  void Initialize();

  /// Generates, dedups and filters this iteration's candidates owner by
  /// owner, each range of owners on one worker. Pass 1 counts each
  /// owner's raw candidates and checks the cap before any candidate
  /// memory exists; the gather then writes each owner's survivors once,
  /// into one mapping per side sized by the raw count. Fails with
  /// ResourceExhausted when a mapping is refused.
  Status Generate(BuildMode mode_used, IterationStats* st);

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

  /// Runs fn(k, w, worker, &work, &generated) for every owner w of
  /// range k of `ranges`, each range on one worker in owner order:
  /// workers claim the next unclaimed range until none is left. fn adds
  /// the work it did and the candidates it counted; both feed
  /// GenerationTick, and a tripped tick stops the pass.
  template <typename Fn>
  void ForEachOwner(const std::vector<VertexId>& ranges, const Fn& fn) const;

  /// Pass 1 for one side: fills `begin` with the prefix sums of the
  /// exact per-owner raw counts and cuts `ranges` from them. Reports the
  /// raw count through GenerationTick.
  void CountRaw(BuildMode mode, bool out_side);

  /// The gather for one side: maps `cands` with room for the raw count
  /// and writes each owner's deduped and filtered candidates, sorted by
  /// pivot, at [begin[w], end[w]).
  Status Gather(BuildMode mode, bool out_side, IterationStats* st);

  /// Gathers owner w's candidates into sc->best, keeping the smallest
  /// distance per pivot, and drops pivots w's label already holds at that
  /// distance or less. Leaves the survivors' pivots, unordered, in
  /// sc->pivots with their `best` slots set; the caller clears those.
  /// Returns the number of candidates gathered.
  size_t GatherOwner(BuildMode mode, bool out_side, VertexId w,
                     GatherScratch* sc) const;

  /// Section 3.3 pruning over both candidate lists: decides every
  /// candidate of both sides, then compacts both, owner by owner. Fails
  /// with DeadlineExceeded when the deadline stops a pass (the build then
  /// ends without applying anything), and with ResourceExhausted when a
  /// keep-mark mapping is refused.
  Status Prune(IterationStats* st);

  /// Decides one side's candidates owner by owner: keep[i] = 1 iff
  /// cands[i] has no witness.
  void DecideSide(bool out_side, PageArray<uint8_t>* keep);

  /// Moves each owner's kept candidates to the front of its slice and
  /// lowers end[w] to match, owner by owner.
  void CompactSide(bool out_side, const PageArray<uint8_t>& keep);

  /// Merges survivors into the labels owner by owner, reserving each
  /// touched label to its old size plus its survivor count first; returns
  /// the survivor count. Sequential: it is the one phase that grows heap
  /// memory (the labels), and growth made on worker threads lands in
  /// per-thread malloc arenas and raises the build's peak RSS with the
  /// thread count, for a phase that costs ~2% of the build.
  uint64_t Apply(bool out_side, IterationStats* st);

  /// Makes one side's survivors the next `prev`: an exactly sized copy
  /// packed in owner order, with its offsets in `prev_begin`. Unmaps the
  /// candidates.
  void AdvancePrev(bool out_side);

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
  // One entry per edge: the higher-ranked endpoint becomes the pivot.
  // Directed arc u->v: v < u places (v, w) in Lout(u); u < v places
  // (u, w) in Lin(v). Undirected edge {u, v} with u < v: (u, w) in L(v).
  // So v's initial label is the part of its adjacency (out-arcs for Lout
  // and L, in-arcs for Lin) that lies below v, already in pivot order:
  // each label is sized once and copied from it. The labels, flattened
  // in owner order, are iteration 1's `prev`.
  auto init_side = [&](bool out_side) {
    std::vector<LabelVector>& labels = Side(out_side);
    GenSide& gen = Gen(out_side);
    labels.resize(n);
    gen.prev_begin.assign(static_cast<size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      const std::span<const Arc> arcs = out_side ? g_.OutArcs(v) : g_.InArcs(v);
      const auto below = std::partition_point(
          arcs.begin(), arcs.end(), [v](const Arc& a) { return a.to < v; });
      LabelVector& label = labels[v];
      label.reserve(static_cast<size_t>(below - arcs.begin()));
      for (auto a = arcs.begin(); a != below; ++a) {
        label.push_back({a->to, a->weight});
      }
      gen.prev_begin[v + 1] = gen.prev_begin[v] + label.size();
    }
    gen.prev.reserve(gen.prev_begin[n]);
    for (const LabelVector& label : labels) {
      gen.prev.insert(gen.prev.end(), label.begin(), label.end());
    }
  };
  init_side(/*out_side=*/true);
  if (directed_) init_side(/*out_side=*/false);
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
        fn(k, w, worker, &work, &generated);
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
  gen.begin.assign(static_cast<size_t>(n) + 1, 0);
  // Count over owner ranges of equal size.
  gen.ranges.clear();
  for (uint32_t k = 0; k <= parts; ++k) {
    gen.ranges.push_back(static_cast<VertexId>(uint64_t{n} * k / parts));
  }
  ForEachOwner(gen.ranges, [&](size_t, VertexId w, uint32_t, uint64_t* work,
                               uint64_t* generated) {
    uint64_t raw = 0;
    ForEachSource(mode, out_side, w,
                  [&](std::span<const LabelEntry> slice, Distance) {
                    raw += slice.size();
                    ++*work;
                  });
    gen.begin[w + 1] = raw;
    *work += raw;
    *generated += raw;
  });

  // Prefix-sum into offsets and recut the ranges at raw-count quantiles.
  for (size_t w = 0; w < n; ++w) gen.begin[w + 1] += gen.begin[w];
  const uint64_t total = gen.begin[n];
  gen.ranges.assign(1, 0);
  for (uint32_t k = 1; k < parts; ++k) {
    const auto it = std::lower_bound(gen.begin.begin(), gen.begin.end(),
                                     total * k / parts);
    const auto bound = static_cast<VertexId>(it - gen.begin.begin());
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

Status Builder::Gather(BuildMode mode, bool out_side, IterationStats* st) {
  GenSide& gen = Gen(out_side);
  const VertexId n = g_.num_vertices();
  HOPDB_RETURN_NOT_OK(gen.cands.Map(gen.begin[n]));
  gen.end.resize(n);
  gen.cmin.assign(n, kInfDistance);
  // Where each range's run of owners starts (and, past the last range,
  // the raw total), copied so that no worker reads an offset another
  // worker rewrites.
  std::vector<uint64_t> run_start(gen.ranges.size());
  for (size_t k = 0; k < gen.ranges.size(); ++k) {
    run_start[k] = gen.begin[gen.ranges[k]];
  }
  scratch_.resize(threads_);
  for (GatherScratch& sc : scratch_) {
    sc.best.resize(n, 0);
    sc.pivots.reserve(n);
    sc.deduped = sc.dropped = 0;
  }

  // Each owner's survivors are written in pivot order right after the
  // previous owner's of its range, and their smallest distance is noted
  // for pruning.
  ForEachOwner(gen.ranges, [&](size_t k, VertexId w, uint32_t worker,
                               uint64_t* work, uint64_t*) {
    GatherScratch* sc = &scratch_[worker];
    *work += GatherOwner(mode, out_side, w, sc) + 1;
    std::sort(sc->pivots.begin(), sc->pivots.end());
    uint64_t at = w == gen.ranges[k] ? run_start[k] : gen.end[w - 1];
    HOPDB_DCHECK_LE(at + sc->pivots.size(), run_start[k + 1]);
    gen.begin[w] = at;
    for (const VertexId p : sc->pivots) {
      const auto d = static_cast<Distance>(sc->best[p] - 1);
      gen.cands[at++] = LabelEntry{p, d};
      gen.cmin[w] = std::min(gen.cmin[w], d);
      sc->best[p] = 0;
    }
    gen.end[w] = at;
  });
  for (const GatherScratch& sc : scratch_) {
    st->deduped_candidates += sc.deduped;
    st->existing_dropped += sc.dropped;
  }
  return Status::OK();
}

Status Builder::Generate(BuildMode mode_used, IterationStats* st) {
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

  HOPDB_RETURN_NOT_OK(Gather(mode_used, /*out_side=*/true, st));
  if (directed_) HOPDB_RETURN_NOT_OK(Gather(mode_used, /*out_side=*/false, st));
  if (generation_abort_.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("label generation over time budget");
  }
  return Status::OK();
}

void Builder::DecideSide(bool out_side, PageArray<uint8_t>* keep) {
  const GenSide& gen = Gen(out_side);
  const GenSide& opp_gen = Gen(!out_side);
  const std::vector<LabelVector>& labels = Side(out_side);
  const std::vector<LabelVector>& opp_labels = Side(!out_side);
  const bool with_cands = opts_.prune_with_candidates;
  const LabelEntry* cands = gen.cands.data();
  const LabelEntry* opposite = opp_gen.cands.data();
  ForEachOwner(gen.ranges, [&](size_t, VertexId w, uint32_t worker,
                               uint64_t* work, uint64_t*) {
    const uint64_t begin = gen.begin[w];
    const uint64_t end = gen.end[w];
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
      for (uint64_t i = begin; i < end; ++i) {
        load(cands[i].pivot, cands[i].dist);
      }
    }

    // Candidate (w, p, d) has a witness iff an entry (x, d2) of p's
    // opposite side meets x's table entry within d. Every such x ranks
    // above p, so the beta bound needs no check. No table entry is below
    // tmin, so an entry with tmin + d2 > d is skipped unprobed, and so is
    // p's whole candidate slice when tmin + cmin[p] > d.
    uint64_t probes = 0;
    for (uint64_t i = begin; i < end; ++i) {
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
            opposite + opp_gen.begin[p], opposite + opp_gen.end[p],
            [&](const LabelEntry& e) { return witnesses(e.pivot, e.dist); });
      }
      (*keep)[i] = !found;
    }

    for (const LabelEntry& e : own) best[e.pivot] = 0;
    for (uint64_t i = begin; i < end; ++i) best[cands[i].pivot] = 0;
    *work += own.size() + (end - begin) + probes;
  });
}

void Builder::CompactSide(bool out_side, const PageArray<uint8_t>& keep) {
  GenSide& gen = Gen(out_side);
  ForEachOwner(gen.ranges, [&](size_t, VertexId w, uint32_t worker,
                               uint64_t* work, uint64_t*) {
    uint64_t kept = gen.begin[w];
    for (uint64_t i = gen.begin[w]; i < gen.end[w]; ++i) {
      if (keep[i]) gen.cands[kept++] = gen.cands[i];
    }
    scratch_[worker].pruned += gen.end[w] - kept;
    *work += gen.end[w] - gen.begin[w] + 1;
    gen.end[w] = kept;
  });
}

Status Builder::Prune(IterationStats* st) {
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
  // thread count. The keep marks share their candidates' offsets, in
  // mappings of the same size, so only the marks written become
  // resident.
  PageArray<uint8_t> keep_out, keep_in;
  HOPDB_RETURN_NOT_OK(keep_out.Map(gen_out_.cands.size()));
  if (directed_) HOPDB_RETURN_NOT_OK(keep_in.Map(gen_in_.cands.size()));
  DecideSide(/*out_side=*/true, &keep_out);
  if (directed_) DecideSide(/*out_side=*/false, &keep_in);
  if (generation_abort_.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("label pruning over time budget");
  }
  for (GatherScratch& sc : scratch_) sc.pruned = 0;
  CompactSide(/*out_side=*/true, keep_out);
  if (directed_) CompactSide(/*out_side=*/false, keep_in);
  if (generation_abort_.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("label pruning over time budget");
  }
  for (const GatherScratch& sc : scratch_) st->pruned += sc.pruned;
  return Status::OK();
}

uint64_t Builder::Apply(bool out_side, IterationStats* st) {
  std::vector<LabelVector>& side = Side(out_side);
  const GenSide& gen = Gen(out_side);
  uint64_t applied = 0;
  for (VertexId owner = 0; owner < side.size(); ++owner) {
    const uint64_t i = gen.begin[owner];
    const uint64_t j = gen.end[owner];
    if (i == j) continue;
    applied += j - i;
    LabelVector& lab = side[owner];
    const size_t old_size = lab.size();
    lab.reserve(old_size + (j - i));
    for (uint64_t k = i; k < j; ++k) {
      const LabelEntry& c = gen.cands[k];
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
  return applied;
}

void Builder::AdvancePrev(bool out_side) {
  GenSide& gen = Gen(out_side);
  const VertexId n = g_.num_vertices();
  gen.prev_begin.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId w = 0; w < n; ++w) {
    gen.prev_begin[w + 1] = gen.prev_begin[w] + (gen.end[w] - gen.begin[w]);
  }
  gen.prev.reserve(gen.prev_begin[n]);
  for (VertexId w = 0; w < n; ++w) {
    gen.prev.insert(gen.prev.end(), gen.cands.data() + gen.begin[w],
                    gen.cands.data() + gen.end[w]);
  }
  gen.cands.Unmap();
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

    Stopwatch phase_watch;
    HOPDB_RETURN_NOT_OK(Generate(st.mode_used, &st));
    // Only generation reads `prev` and the inverted lists; release them
    // before the later phases allocate.
    ReleaseSources(/*out_side=*/true);
    if (directed_) ReleaseSources(/*out_side=*/false);
    st.generate_seconds = phase_watch.Seconds();

    phase_watch.Restart();
    HOPDB_RETURN_NOT_OK(Prune(&st));
    st.prune_seconds = phase_watch.Seconds();

    phase_watch.Restart();
    st.survivors = Apply(/*out_side=*/true, &st);
    if (directed_) st.survivors += Apply(/*out_side=*/false, &st);
    st.apply_seconds = phase_watch.Seconds();

    AdvancePrev(/*out_side=*/true);
    if (directed_) AdvancePrev(/*out_side=*/false);

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
