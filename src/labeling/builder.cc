#include "labeling/builder.h"

#include <sys/mman.h>
#include <unistd.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "labeling/flat_label_store.h"
#include "labeling/label_entry.h"
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

/// The smallest stretch of pages PageArray::Release hands back at once.
constexpr uint64_t kReleaseStep = 64 << 10;

/// A fixed array of T in a fresh anonymous page mapping, mapped and
/// unmapped on the calling thread. Only the pages written become
/// resident, so an array sized by an upper bound costs the memory of what
/// it holds, and unmapping (or releasing its front) returns those pages
/// at once. A malloc block of that size can instead reuse heap pages an
/// earlier allocation left resident, and keep them once freed. Never
/// value-initialized.
template <typename T>
class PageArray {
 public:
  PageArray() = default;
  PageArray(const PageArray&) = delete;
  PageArray& operator=(const PageArray&) = delete;
  /// Takes over other's mapping, leaving it empty.
  PageArray& operator=(PageArray&& other) noexcept {
    if (this != &other) {
      Unmap();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      released_ = std::exchange(other.released_, 0);
    }
    return *this;
  }
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
    released_ = 0;
  }

  /// Returns the whole pages before element `to` to the kernel, for a
  /// caller that is done with the array's front: pages an earlier call
  /// returned are not returned again, and they go back in stretches of at
  /// least kReleaseStep bytes, so a caller may call this after every
  /// element it consumes. Released pages read as zeros if written again.
  void Release(uint64_t to) {
    static const auto kPage = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
    const uint64_t end = to * sizeof(T) & ~(kPage - 1);
    if (end < released_ + kReleaseStep) return;
    madvise(reinterpret_cast<char*>(data_) + released_, end - released_,
            MADV_DONTNEED);
    released_ = end;
  }

  uint64_t size() const { return size_; }
  T* data() const { return data_; }
  T& operator[](uint64_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  uint64_t size_ = 0;
  /// Bytes at the front already returned by Release (whole pages).
  uint64_t released_ = 0;
};

/// Whether an entry (x, d2) of `half` meets x's slot in `best` (1 + dist,
/// 0 if none) within d. No slot holds less than tmin, so an entry with
/// tmin + d2 > d is skipped unprobed. Adds the probes made to *probes.
bool HasWitness(const uint32_t* best, Distance tmin,
                std::span<const LabelEntry> half, Distance d,
                uint64_t* probes) {
  return std::any_of(half.begin(), half.end(), [&](const LabelEntry& e) {
    if (SaturatingAdd(tmin, e.dist) > d) return false;
    ++*probes;
    return best[e.pivot] != 0 &&
           SaturatingAdd(best[e.pivot] - 1, e.dist) <= d;
  });
}

/// Calls emit(e) for every entry of runs x and y, which are each sorted
/// by pivot and hold disjoint pivots, in pivot order.
template <typename Emit>
void MergeRuns(std::span<const LabelEntry> x, std::span<const LabelEntry> y,
               const Emit& emit) {
  size_t i = 0, j = 0;
  while (i < x.size() && j < y.size()) {
    emit(x[i].pivot < y[j].pivot ? x[i++] : y[j++]);
  }
  for (; i < x.size(); ++i) emit(x[i]);
  for (; j < y.size(); ++j) emit(y[j]);
}

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
  /// One label side: its labels, and its generation state. Label entries
  /// and candidates carry no owner: owner w's entries are a slice cut by
  /// per-owner offsets (every pivot ranks above its owner).
  struct GenSide {
    /// The labels, each entry held once, in owner order: owner w's label
    /// is arena[label_begin[w], label_begin[w + 1]). It is two runs, each
    /// sorted by pivot, with disjoint pivots: the older entries, then,
    /// from fresh_begin[w], the entries the last iteration added
    /// (Initialize's, for iteration 1). The fresh runs are the paper's
    /// `prev`: this iteration's rules extend them, read in place. Apply
    /// rewrites the arena into a fresh mapping; the freeze merges each
    /// label's runs into its store slot.
    PageArray<LabelEntry> arena;
    std::vector<uint64_t> label_begin;
    std::vector<uint64_t> fresh_begin;
    /// The fresh runs' total.
    uint64_t fresh = 0;
    /// This iteration's deduped and filtered candidates (only those that
    /// survive pruning, when the gather decides them), in a mapping with
    /// room for the raw count; Apply appends the survivors to the labels
    /// and unmaps it.
    PageArray<LabelEntry> cands;
    /// Owner w's candidates are cands[begin[w], end[w]). Pass 1 leaves
    /// the raw counts' prefix sums in `begin` (w's raw offset; begin[n]
    /// is the raw total). The gather packs each range's owners from the
    /// raw offset of its first owner: an owner keeps at most its raw
    /// count, so its slice ends by the next owner's raw offset. Pruning's
    /// compaction lowers end[w]; apply reads both.
    std::vector<uint64_t> begin;
    std::vector<uint64_t> end;
    /// Owner range bounds for the gather and prune passes, cut at
    /// raw-count quantiles.
    std::vector<VertexId> ranges;
    /// cmin[w]: the smallest distance among owner w's deduped and
    /// filtered candidates, kInfDistance if it has none.
    std::vector<Distance> cmin;
    /// Hop-Doubling iterations only, built from the labels when
    /// generation starts and freed when it ends: the owners whose label
    /// on this side holds pivot p, in ascending order, are
    /// inv[inv_begin[p]] .. inv[inv_begin[p + 1] - 1]. The sources of
    /// Rules 1 and 4 for the opposite side's owners.
    std::vector<uint64_t> inv_begin;
    std::vector<VertexId> inv;

    /// Owner w's whole label (both runs), for readers to which entry
    /// order does not matter.
    std::span<const LabelEntry> Label(VertexId w) const {
      return Slice(label_begin[w], label_begin[w + 1]);
    }
    /// Owner w's older run and its fresh run, each sorted by pivot.
    std::span<const LabelEntry> Older(VertexId w) const {
      return Slice(label_begin[w], fresh_begin[w]);
    }
    std::span<const LabelEntry> Fresh(VertexId w) const {
      return Slice(fresh_begin[w], label_begin[w + 1]);
    }
    /// The distance owner w's label holds for `pivot`, kInfDistance if
    /// none: a look-up in each run.
    Distance Lookup(VertexId w, VertexId pivot) const {
      return std::min(LookupPivot(Older(w), pivot),
                      LookupPivot(Fresh(w), pivot));
    }
    /// This iteration's survivors: what the candidate slices hold once
    /// pruning is done.
    uint64_t Survivors() const {
      uint64_t count = 0;
      for (size_t w = 0; w < end.size(); ++w) count += end[w] - begin[w];
      return count;
    }

   private:
    std::span<const LabelEntry> Slice(uint64_t from, uint64_t to) const {
      return {arena.data() + from, arena.data() + to};
    }
  };

  /// One worker's gather and prune state, sized on the calling thread so
  /// the workers never allocate.
  struct GatherScratch {
    /// best[p]: 1 + the smallest distance gathered (or, while deciding,
    /// loaded) for pivot p from the current owner, 0 if none; all zero
    /// between owners. No distance held here is kInfDistance (the gather
    /// skips saturated candidates, and no label holds one), so 1 + dist
    /// fits 32 bits.
    std::vector<uint32_t> best;
    /// The current owner's distinct pivots.
    std::vector<VertexId> pivots;
    /// Distinct candidates this worker gathered, those of them an
    /// existing entry dominated, and those it pruned, over the current
    /// pass.
    uint64_t deduped = 0;
    uint64_t dropped = 0;
    uint64_t pruned = 0;
  };

  /// Writes the initial labels into the arenas as fresh runs; fails with
  /// ResourceExhausted when a mapping is refused.
  Status Initialize();

  /// Whether no candidate of a Hop-Stepping iteration over the fresh runs
  /// can witness another, so that its candidates can be decided as they
  /// are gathered. Every candidate distance lies in [min_w + min_prev,
  /// max_w + max_prev], over arc weights and fresh-run distances, and
  /// every label or candidate distance is at least min_w, so a witness
  /// sum that involves a candidate is at least 2 min_w + min_prev. True
  /// when that exceeds the largest candidate distance, as on unit weights
  /// (whatever weighted() says).
  bool CandidatesCannotWitness() const;

  /// Generates, dedups and filters this iteration's candidates owner by
  /// owner, each range of owners on one worker. Pass 1 counts each
  /// owner's raw candidates and checks the cap before any candidate
  /// memory exists; the gather then writes each owner's survivors once,
  /// into one mapping per side sized by the raw count. With `decide`
  /// (see CandidatesCannotWitness) the gather also prunes, so that only
  /// the candidates that survive pruning are written. Fails with
  /// ResourceExhausted when a mapping is refused.
  Status Generate(BuildMode mode_used, bool decide, IterationStats* st);

  /// Fills one side's inverted lists (GenSide::inv) from its labels.
  void BuildInvertedLists(bool out_side);

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
  /// the entries of x's fresh run whose pivot ranks above w and `hop` is
  /// the distance between w and x. Every slice entry (x, p, d) then
  /// yields the candidate (w, p, hop + d).
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
  /// and writes each owner's deduped and filtered candidates (with
  /// `decide`, only those DecideOwner keeps), sorted by pivot, at
  /// [begin[w], end[w]).
  Status Gather(BuildMode mode, bool out_side, bool decide,
                IterationStats* st);

  /// Gathers owner w's candidates into sc->best, keeping the smallest
  /// distance per pivot, and drops pivots w's label already holds at that
  /// distance or less. Leaves the survivors' pivots, unordered, in
  /// sc->pivots with their `best` slots set; the caller clears those.
  /// Returns the number of candidates gathered.
  size_t GatherOwner(BuildMode mode, bool out_side, VertexId w,
                     GatherScratch* sc) const;

  /// Section 3.3 pruning of owner w's gathered candidates, for an
  /// iteration in which no candidate can witness another: loads w's own
  /// label into sc->best beside them, removes from sc->pivots every
  /// candidate with a witness in w's label and its pivot's opposite-side
  /// label, and clears every slot but the kept candidates'. The same
  /// decisions as DecideSide's. Returns the work done: label entries
  /// loaded plus probes.
  uint64_t DecideOwner(bool out_side, VertexId w, GatherScratch* sc) const;

  /// Section 3.3 pruning over both candidate lists, for iterations the
  /// gather did not decide: decides every candidate of both sides, then
  /// compacts both, owner by owner. Fails with DeadlineExceeded when the
  /// deadline stops a pass (the build then ends without applying
  /// anything), and with ResourceExhausted when a keep-mark mapping is
  /// refused.
  Status Prune(IterationStats* st);

  /// Decides one side's candidates owner by owner: keep[i] = 1 iff
  /// cands[i] has no witness.
  void DecideSide(bool out_side, PageArray<uint8_t>* keep);

  /// Moves each owner's kept candidates to the front of its slice and
  /// lowers end[w] to match, owner by owner.
  void CompactSide(bool out_side, const PageArray<uint8_t>& keep);

  /// Rewrites one side's arena into a fresh mapping, owner by owner:
  /// each label's older and fresh runs merged by pivot, minus every
  /// pivot a survivor replaces (counted in st->updates), become its older
  /// run, and its survivors its fresh run. The pages of the old arena and
  /// of the candidate mapping go back to the kernel behind the walk, and
  /// the old arena is unmapped at the end. Sequential, so that both old
  /// mappings go back front to back; it allocates no heap, so per-thread
  /// malloc arenas play no part. Fails with ResourceExhausted when the
  /// mapping is refused.
  Status Apply(bool out_side, IterationStats* st);

  /// Freezes the labels into the index's store, slot by slot: each slot
  /// merges its owner's two runs, and the arena behind the fill goes back
  /// to the kernel.
  Result<TwoHopIndex> Freeze();

  GenSide& Gen(bool out_side) {
    return out_side || !directed_ ? gen_out_ : gen_in_;
  }
  const GenSide& Gen(bool out_side) const {
    return out_side || !directed_ ? gen_out_ : gen_in_;
  }
  /// Label entries on both sides.
  uint64_t TotalEntries() const {
    return gen_out_.label_begin.back() +
           (directed_ ? gen_in_.label_begin.back() : 0);
  }

  const CsrGraph& g_;
  BuildOptions opts_;
  bool directed_;
  uint32_t threads_;
  Deadline deadline_;

  /// The smallest and largest arc weight (kInfDistance and 0 without
  /// arcs).
  Distance min_arc_ = kInfDistance;
  Distance max_arc_ = 0;

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

Status Builder::Initialize() {
  const VertexId n = g_.num_vertices();
  // One entry per edge: the higher-ranked endpoint becomes the pivot.
  // Directed arc u->v: v < u places (v, w) in Lout(u); u < v places
  // (u, w) in Lin(v). Undirected edge {u, v} with u < v: (u, w) in L(v).
  // So v's initial label is the part of its adjacency (out-arcs for Lout
  // and L, in-arcs for Lin) that lies below v, already in pivot order,
  // and all of it is fresh: iteration 1's `prev`.
  auto init_side = [&](bool out_side) -> Status {
    GenSide& gen = Gen(out_side);
    auto below = [&](VertexId v) {
      const ArcRange arcs = out_side ? g_.OutArcs(v) : g_.InArcs(v);
      return arcs.first(static_cast<size_t>(
          std::partition_point(arcs.begin(), arcs.end(),
                               [v](const Arc& a) { return a.to < v; }) -
          arcs.begin()));
    };
    gen.label_begin.assign(static_cast<size_t>(n) + 1, 0);
    for (VertexId v = 0; v < n; ++v) {
      gen.label_begin[v + 1] = gen.label_begin[v] + below(v).size();
    }
    gen.fresh_begin.assign(gen.label_begin.begin(), gen.label_begin.end() - 1);
    gen.fresh = gen.label_begin[n];
    HOPDB_RETURN_NOT_OK(gen.arena.Map(gen.fresh));
    for (VertexId v = 0; v < n; ++v) {
      LabelEntry* at = gen.arena.data() + gen.label_begin[v];
      for (const Arc& a : below(v)) *at++ = {a.to, a.weight};
    }
    return Status::OK();
  };
  HOPDB_RETURN_NOT_OK(init_side(/*out_side=*/true));
  if (directed_) HOPDB_RETURN_NOT_OK(init_side(/*out_side=*/false));
  stats_.initial_entries = TotalEntries();
  for (VertexId v = 0; v < n; ++v) {
    for (const Arc& a : g_.OutArcs(v)) {
      min_arc_ = std::min(min_arc_, a.weight);
      max_arc_ = std::max(max_arc_, a.weight);
    }
  }
  return Status::OK();
}

bool Builder::CandidatesCannotWitness() const {
  Distance min_prev = kInfDistance, max_prev = 0;
  for (const bool out_side : {true, false}) {
    if (!out_side && !directed_) break;
    const GenSide& gen = Gen(out_side);
    for (VertexId w = 0; w < g_.num_vertices(); ++w) {
      for (const LabelEntry& e : gen.Fresh(w)) {
        min_prev = std::min(min_prev, e.dist);
        max_prev = std::max(max_prev, e.dist);
      }
    }
  }
  // In 64 bits, and only while no candidate distance saturates: the
  // witness sums and the candidate distances then never meet at
  // kInfDistance.
  const uint64_t max_cand = uint64_t{max_arc_} + max_prev;
  return max_cand < kInfDistance &&
         uint64_t{min_arc_} + (uint64_t{min_arc_} + min_prev) > max_cand;
}

void Builder::BuildInvertedLists(bool out_side) {
  GenSide& gen = Gen(out_side);
  const VertexId n = g_.num_vertices();
  // Count each pivot's owners, then write them in ascending owner order.
  gen.inv_begin.assign(static_cast<size_t>(n) + 1, 0);
  for (VertexId w = 0; w < n; ++w) {
    for (const LabelEntry& e : gen.Label(w)) ++gen.inv_begin[e.pivot + 1];
  }
  for (size_t p = 0; p < n; ++p) gen.inv_begin[p + 1] += gen.inv_begin[p];
  gen.inv.resize(gen.inv_begin[n]);
  std::vector<uint64_t> next(gen.inv_begin.begin(), gen.inv_begin.end() - 1);
  for (VertexId w = 0; w < n; ++w) {
    for (const LabelEntry& e : gen.Label(w)) gen.inv[next[e.pivot]++] = w;
  }
}

template <typename Visit>
void Builder::ForEachSource(BuildMode mode, bool out_side, VertexId w,
                            const Visit& visit) const {
  const GenSide& gen = Gen(out_side);
  // The entries of x's fresh run whose pivot ranks above w: a prefix.
  auto above_w = [&](VertexId x) {
    const std::span<const LabelEntry> fresh = gen.Fresh(x);
    return fresh.first(static_cast<size_t>(
        std::partition_point(
            fresh.begin(), fresh.end(),
            [w](const LabelEntry& e) { return e.pivot < w; }) -
        fresh.begin()));
  };
  if (mode == BuildMode::kHopStepping) {
    // Hop-Stepping (Section 5.1): one arc w -> x (out side) or x -> w (in
    // side) extended by a fresh path from (or to) x.
    for (const Arc& a : out_side ? g_.OutArcs(w) : g_.InArcs(w)) {
      visit(above_w(a.to), a.weight);
    }
    return;
  }
  // Rules 1 (out side) and 4 (in side) of Fig. 6: w is a pivot of the
  // opposite-side label of x, which ranks below w.
  const GenSide& opposite = Gen(!out_side);
  for (uint64_t i = opposite.inv_begin[w]; i < opposite.inv_begin[w + 1];
       ++i) {
    const VertexId x = opposite.inv[i];
    const std::span<const LabelEntry> slice = above_w(x);
    if (!slice.empty()) visit(slice, opposite.Lookup(x, w));
  }
  // Rules 2 and 5: x is a pivot of w's own label, so all of x's fresh run
  // ranks above w.
  for (const LabelEntry& e : gen.Label(w)) visit(gen.Fresh(e.pivot), e.dist);
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
      const Distance dist = SaturatingAdd(hop, e.dist);
      // A distance that saturates is no path a label can hold.
      if (dist == kInfDistance) continue;
      const uint32_t d = dist + 1;
      uint32_t& best = sc->best[e.pivot];
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
  for (const LabelEntry& e : Gen(out_side).Label(w)) {
    uint32_t& best = sc->best[e.pivot];
    if (best != 0 && best - 1 >= e.dist) {
      best = 0;  // dominated by an existing entry
      ++sc->dropped;
    }
  }
  std::erase_if(sc->pivots, [sc](VertexId p) { return sc->best[p] == 0; });
  return gathered;
}

uint64_t Builder::DecideOwner(bool out_side, VertexId w,
                              GatherScratch* sc) const {
  if (sc->pivots.empty()) return 0;
  uint32_t* best = sc->best.data();
  Distance tmin = kInfDistance;
  for (const VertexId p : sc->pivots) tmin = std::min(tmin, best[p] - 1);
  // The table then holds what DecideSide loads: w's label and its
  // candidates, the smaller distance per pivot. A candidate outlived the
  // domination drop only below the label entry at its pivot, so a label
  // entry fills only empty slots.
  const std::span<const LabelEntry> own = Gen(out_side).Label(w);
  for (const LabelEntry& e : own) {
    if (best[e.pivot] == 0) best[e.pivot] = e.dist + 1;
    tmin = std::min(tmin, e.dist);
  }
  // Candidate (w, p, d) has a witness iff an entry of p's opposite-side
  // label meets the table within d. p's own candidates cannot witness,
  // so they go unprobed (DecideSide's slice bound would skip them all).
  // Every candidate is decided before any slot is cleared.
  const GenSide& opposite = Gen(!out_side);
  uint64_t probes = 0;
  const auto pruned = std::partition(
      sc->pivots.begin(), sc->pivots.end(), [&](VertexId p) {
        return !HasWitness(best, tmin, opposite.Label(p), best[p] - 1,
                           &probes);
      });
  // A slot holding its label entry's distance + 1 was loaded from the
  // label: a candidate's slot there holds less.
  for (const LabelEntry& e : own) {
    if (best[e.pivot] == e.dist + 1) best[e.pivot] = 0;
  }
  for (auto it = pruned; it != sc->pivots.end(); ++it) best[*it] = 0;
  sc->pruned += static_cast<uint64_t>(sc->pivots.end() - pruned);
  sc->pivots.erase(pruned, sc->pivots.end());
  return own.size() + probes;
}

Status Builder::Gather(BuildMode mode, bool out_side, bool decide,
                       IterationStats* st) {
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
    sc.deduped = sc.dropped = sc.pruned = 0;
  }

  // Each owner's survivors are written in pivot order right after the
  // previous owner's of its range, and their smallest distance is noted
  // for pruning.
  ForEachOwner(gen.ranges, [&](size_t k, VertexId w, uint32_t worker,
                               uint64_t* work, uint64_t*) {
    GatherScratch* sc = &scratch_[worker];
    *work += GatherOwner(mode, out_side, w, sc) + 1;
    if (decide) *work += DecideOwner(out_side, w, sc);
    std::sort(sc->pivots.begin(), sc->pivots.end());
    uint64_t at = w == gen.ranges[k] ? run_start[k] : gen.end[w - 1];
    HOPDB_DCHECK_LE(at + sc->pivots.size(), run_start[k + 1]);
    gen.begin[w] = at;
    for (const VertexId p : sc->pivots) {
      const Distance d = sc->best[p] - 1;
      gen.cands[at++] = LabelEntry{p, d};
      gen.cmin[w] = std::min(gen.cmin[w], d);
      sc->best[p] = 0;
    }
    gen.end[w] = at;
  });
  for (const GatherScratch& sc : scratch_) {
    st->deduped_candidates += sc.deduped;
    st->existing_dropped += sc.dropped;
    st->pruned += sc.pruned;
  }
  return Status::OK();
}

Status Builder::Generate(BuildMode mode_used, bool decide,
                         IterationStats* st) {
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

  HOPDB_RETURN_NOT_OK(Gather(mode_used, /*out_side=*/true, decide, st));
  if (directed_) {
    HOPDB_RETURN_NOT_OK(Gather(mode_used, /*out_side=*/false, decide, st));
  }
  // Only the rules read the inverted lists: free them before the later
  // phases allocate.
  for (GenSide* gen : {&gen_out_, &gen_in_}) {
    std::vector<uint64_t>().swap(gen->inv_begin);
    std::vector<VertexId>().swap(gen->inv);
  }
  if (generation_abort_.load(std::memory_order_relaxed)) {
    return Status::DeadlineExceeded("label generation over time budget");
  }
  return Status::OK();
}

void Builder::DecideSide(bool out_side, PageArray<uint8_t>* keep) {
  const GenSide& gen = Gen(out_side);
  const GenSide& opp_gen = Gen(!out_side);
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
    uint32_t* best = scratch_[worker].best.data();
    Distance tmin = kInfDistance;
    auto load = [&](VertexId pivot, Distance dist) {
      const uint32_t d = dist + 1;
      if (best[pivot] == 0 || d < best[pivot]) best[pivot] = d;
      tmin = std::min(tmin, dist);
    };
    const std::span<const LabelEntry> own = gen.Label(w);
    for (const LabelEntry& e : own) load(e.pivot, e.dist);
    if (with_cands) {
      for (uint64_t i = begin; i < end; ++i) {
        load(cands[i].pivot, cands[i].dist);
      }
    }

    // Candidate (w, p, d) has a witness iff an entry (x, d2) of p's
    // opposite side meets x's table entry within d. Every such x ranks
    // above p, so the beta bound needs no check. No table entry is below
    // tmin, so p's whole candidate slice is skipped when
    // tmin + cmin[p] > d.
    uint64_t probes = 0;
    for (uint64_t i = begin; i < end; ++i) {
      const VertexId p = cands[i].pivot;
      const Distance d = cands[i].dist;
      bool found = HasWitness(best, tmin, opp_gen.Label(p), d, &probes);
      if (!found && with_cands && SaturatingAdd(tmin, opp_gen.cmin[p]) <= d) {
        found = HasWitness(best, tmin,
                           std::span<const LabelEntry>(
                               opposite + opp_gen.begin[p],
                               opposite + opp_gen.end[p]),
                           d, &probes);
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

Status Builder::Apply(bool out_side, IterationStats* st) {
  GenSide& gen = Gen(out_side);
  const VertexId n = g_.num_vertices();
  const uint64_t survivors = gen.Survivors();
  PageArray<LabelEntry> next;
  HOPDB_RETURN_NOT_OK(next.Map(gen.label_begin[n] + survivors));
  const LabelEntry* const old = gen.arena.data();
  const LabelEntry* const cands = gen.cands.data();
  LabelEntry* const base = next.data();
  LabelEntry* at = base;
  // The offsets are rewritten in place: each owner's old end is read
  // before the next owner's step rewrites it, and carried over as that
  // owner's old start.
  uint64_t old_begin = 0;
  for (VertexId w = 0; w < n; ++w) {
    const uint64_t old_end = gen.label_begin[w + 1];
    const std::span<const LabelEntry> older(old + old_begin,
                                            old + gen.fresh_begin[w]);
    const std::span<const LabelEntry> fresh(old + gen.fresh_begin[w],
                                            old + old_end);
    const LabelEntry* s = cands + gen.begin[w];  // the survivors
    const LabelEntry* const s_end = cands + gen.end[w];
    LabelEntry* const first = at;
    gen.label_begin[w] = static_cast<uint64_t>(first - base);
    MergeRuns(older, fresh, [&at](const LabelEntry& e) { *at++ = e; });
    if (s != s_end) {
      // A survivor at a pivot the label holds is shorter than its entry
      // there (possible for weighted graphs and Hop-Doubling's
      // overshooting paths), and replaces it.
      LabelEntry* kept = first;
      for (const LabelEntry* e = first; e != at; ++e) {
        while (s != s_end && s->pivot < e->pivot) ++s;
        if (s != s_end && s->pivot == e->pivot) {
          HOPDB_DCHECK_GT(e->dist, s->dist);
          ++st->updates;
        } else {
          *kept++ = *e;
        }
      }
      at = kept;
    }
    gen.fresh_begin[w] = static_cast<uint64_t>(at - base);
    at = std::copy(cands + gen.begin[w], s_end, at);
    old_begin = old_end;
    gen.arena.Release(old_end);
    gen.cands.Release(gen.end[w]);
  }
  gen.label_begin[n] = static_cast<uint64_t>(at - base);
  gen.fresh = survivors;
  gen.arena = std::move(next);
  return Status::OK();
}

Result<TwoHopIndex> Builder::Freeze() {
  const VertexId n = g_.num_vertices();
  std::vector<uint32_t> sizes;
  for (const bool out_side : {true, false}) {
    if (!out_side && !directed_) break;
    const GenSide& gen = Gen(out_side);
    for (VertexId w = 0; w < n; ++w) {
      sizes.push_back(static_cast<uint32_t>(gen.Label(w).size()));
    }
  }
  auto fill = [&](size_t slot, uint32_t size, uint32_t* pivots,
                  Distance* dists) {
    const bool out_side = slot < n;
    GenSide& gen = Gen(out_side);
    const auto w = static_cast<VertexId>(out_side ? slot : slot - n);
    uint32_t k = 0;
    MergeRuns(gen.Older(w), gen.Fresh(w), [&](const LabelEntry& e) {
      pivots[k] = e.pivot;
      dists[k++] = e.dist;
    });
    HOPDB_DCHECK_EQ(k, size);
    gen.arena.Release(gen.label_begin[w + 1]);
    if (w + 1 == n) gen.arena.Unmap();
    return Status::OK();
  };
  HOPDB_ASSIGN_OR_RETURN(
      FlatLabelStore store,
      FlatLabelStore::FromSlots(n, directed_, std::move(sizes), fill));
  return TwoHopIndex(std::move(store));
}

Result<BuildOutput> Builder::Run() {
  Stopwatch total_watch;
  {
    Stopwatch init_watch;
    HOPDB_RETURN_NOT_OK(Initialize());
    stats_.init_seconds = init_watch.Seconds();
  }

  for (uint32_t iter = 1; iter <= opts_.max_iterations; ++iter) {
    if (gen_out_.fresh == 0 && gen_in_.fresh == 0) break;
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

    // A Hop-Stepping iteration in which no candidate can witness another
    // prunes as it gathers, so only the candidates that survive pruning
    // are stored; the others, and the ablations, prune in a phase of
    // their own.
    const bool decide_in_gather =
        st.mode_used == BuildMode::kHopStepping && opts_.prune &&
        opts_.prune_with_candidates && CandidatesCannotWitness();

    Stopwatch phase_watch;
    HOPDB_RETURN_NOT_OK(Generate(st.mode_used, decide_in_gather, &st));
    st.generate_seconds = phase_watch.Seconds();

    if (!decide_in_gather) {
      phase_watch.Restart();
      HOPDB_RETURN_NOT_OK(Prune(&st));
      st.prune_seconds = phase_watch.Seconds();
    }

    // With no survivors on either side the labels are final: the arenas
    // keep their runs, which the freeze merges. Either way the candidate
    // mappings go now.
    phase_watch.Restart();
    st.survivors = gen_out_.Survivors() + gen_in_.Survivors();
    if (st.survivors != 0) {
      HOPDB_RETURN_NOT_OK(Apply(/*out_side=*/true, &st));
      if (directed_) HOPDB_RETURN_NOT_OK(Apply(/*out_side=*/false, &st));
    }
    gen_out_.cands.Unmap();
    gen_in_.cands.Unmap();
    st.apply_seconds = phase_watch.Seconds();

    st.total_entries_after = TotalEntries();
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

  // Generation's tables go before the store is allocated.
  std::vector<GatherScratch>().swap(scratch_);
  for (GenSide* gen : {&gen_out_, &gen_in_}) {
    std::vector<uint64_t>().swap(gen->begin);
    std::vector<uint64_t>().swap(gen->end);
    std::vector<VertexId>().swap(gen->ranges);
    std::vector<Distance>().swap(gen->cmin);
  }
  HOPDB_ASSIGN_OR_RETURN(TwoHopIndex index, Freeze());
  stats_.total_seconds = total_watch.Seconds();
  return BuildOutput{std::move(index), std::move(stats_)};
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
  Result<BuildOutput> output = Builder(ranked_graph, options).Run();
#ifdef __GLIBC__
  // The builder is gone and the labels live in the frozen store: hand the
  // heap the label vectors and build state held back to the kernel, or a
  // process that builds and then serves keeps it resident for good.
  malloc_trim(0);
#endif
  return output;
}

}  // namespace hopdb
