#include "labeling/external_builder.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "io/external_sorter.h"
#include "io/record_stream.h"
#include "labeling/candidate_partition.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace hopdb {

namespace {

struct ByABD {
  bool operator()(const LabelRec& x, const LabelRec& y) const {
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.dist < y.dist;
  }
};

using LabelSorter = ExternalSorter<LabelRec, ByABD>;

/// Record source abstraction so group cursors work over plain files and
/// over two-way merged (old + pending) views alike.
class RecSource {
 public:
  virtual ~RecSource() = default;
  virtual bool Next(LabelRec* out) = 0;
};

class FileSource : public RecSource {
 public:
  static Result<FileSource> Open(const std::string& path,
                                 uint64_t block_size) {
    HOPDB_ASSIGN_OR_RETURN(RecordReader<LabelRec> r,
                           RecordReader<LabelRec>::Open(path, block_size));
    FileSource s;
    s.reader_ = std::move(r);
    return s;
  }
  bool Next(LabelRec* out) override { return reader_.Next(out); }
  const IoStats& stats() const { return reader_.stats(); }

 private:
  RecordReader<LabelRec> reader_;
};

/// Streams the min-dist collapse of two (owner, pivot)-sorted files —
/// the "old ∪ pending" label view used by pruning.
class MergedSource : public RecSource {
 public:
  static Result<MergedSource> Open(const std::string& path1,
                                   const std::string& path2,
                                   uint64_t block_size) {
    MergedSource s;
    HOPDB_ASSIGN_OR_RETURN(s.r1_,
                           RecordReader<LabelRec>::Open(path1, block_size));
    HOPDB_ASSIGN_OR_RETURN(s.r2_,
                           RecordReader<LabelRec>::Open(path2, block_size));
    s.v1_ = s.r1_.Next(&s.h1_);
    s.v2_ = s.r2_.Next(&s.h2_);
    return s;
  }

  bool Next(LabelRec* out) override {
    if (!v1_ && !v2_) return false;
    if (v1_ && (!v2_ || Key(h1_) < Key(h2_))) {
      *out = h1_;
      v1_ = r1_.Next(&h1_);
      return true;
    }
    if (v2_ && (!v1_ || Key(h2_) < Key(h1_))) {
      *out = h2_;
      v2_ = r2_.Next(&h2_);
      return true;
    }
    // Same (a, b) key in both: the collapse keeps the minimum distance.
    *out = h1_;
    out->dist = std::min(h1_.dist, h2_.dist);
    v1_ = r1_.Next(&h1_);
    v2_ = r2_.Next(&h2_);
    return true;
  }

  IoStats TotalStats() const {
    IoStats s = r1_.stats();
    s.Add(r2_.stats());
    return s;
  }

 private:
  static uint64_t Key(const LabelRec& r) {
    return (static_cast<uint64_t>(r.a) << 32) | r.b;
  }
  RecordReader<LabelRec> r1_, r2_;
  LabelRec h1_{}, h2_{};
  bool v1_ = false, v2_ = false;
};

/// Reads consecutive records sharing field `a` as one group.
class GroupCursor {
 public:
  explicit GroupCursor(RecSource* source) : source_(source) {
    pending_valid_ = source_->Next(&pending_);
  }

  bool NextGroup(VertexId* key, std::vector<LabelRec>* group) {
    if (!pending_valid_) return false;
    *key = pending_.a;
    group->clear();
    group->push_back(pending_);
    while ((pending_valid_ = source_->Next(&pending_)) &&
           pending_.a == *key) {
      group->push_back(pending_);
    }
    return true;
  }

 private:
  RecSource* source_;
  LabelRec pending_{};
  bool pending_valid_ = false;
};

/// Sorted-merge witness scan (Section 3.3 / 4.2): true iff some pivot
/// w < beta appears in both groups with d1 + d2 <= d. Groups are label
/// records of one owner, sorted by pivot (field b).
bool HasWitness(const std::vector<LabelRec>& outs,
                const std::vector<LabelRec>& ins, VertexId beta,
                Distance d) {
  size_t i = 0, j = 0;
  while (i < outs.size() && j < ins.size() && outs[i].b < beta &&
         ins[j].b < beta) {
    if (outs[i].b == ins[j].b) {
      if (SaturatingAdd(outs[i].dist, ins[j].dist) <= d) return true;
      ++i;
      ++j;
    } else if (outs[i].b < ins[j].b) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

struct BlockGroup {
  VertexId owner;
  uint32_t begin;
  uint32_t len;
};

/// Pulls whole owner-groups from a stream until the byte budget fills —
/// the outer loop blocks of Section 4's nested-loop joins.
class BlockLoader {
 public:
  BlockLoader(RecSource* source, size_t budget_bytes)
      : cursor_(source),
        budget_records_(std::max<size_t>(budget_bytes / sizeof(LabelRec), 1)) {
    have_group_ = cursor_.NextGroup(&gkey_, &group_);
  }

  bool NextBlock(std::vector<LabelRec>* entries,
                 std::vector<BlockGroup>* groups) {
    if (!have_group_) return false;
    entries->clear();
    groups->clear();
    while (have_group_) {
      if (!entries->empty() &&
          entries->size() + group_.size() > budget_records_) {
        break;  // block full; group goes into the next block
      }
      groups->push_back({gkey_, static_cast<uint32_t>(entries->size()),
                         static_cast<uint32_t>(group_.size())});
      entries->insert(entries->end(), group_.begin(), group_.end());
      have_group_ = cursor_.NextGroup(&gkey_, &group_);
    }
    return true;
  }

 private:
  GroupCursor cursor_;
  size_t budget_records_;
  std::vector<LabelRec> group_;
  VertexId gkey_ = 0;
  bool have_group_ = false;
};

const std::vector<LabelRec>* FindGroup(
    const std::vector<BlockGroup>& groups,
    const std::vector<LabelRec>& entries, VertexId owner,
    std::vector<LabelRec>* scratch) {
  auto it = std::lower_bound(groups.begin(), groups.end(), owner,
                             [](const BlockGroup& g, VertexId v) {
                               return g.owner < v;
                             });
  if (it == groups.end() || it->owner != owner) return nullptr;
  scratch->assign(entries.begin() + it->begin,
                  entries.begin() + it->begin + it->len);
  return scratch;
}

class ExternalBuilder {
 public:
  ExternalBuilder(const CsrGraph& g, const ExternalBuildOptions& opts)
      : g_(g),
        opts_(opts),
        directed_(g.directed()),
        threads_(opts.build.num_threads == 0 ? HardwareThreads()
                                             : opts.build.num_threads),
        deadline_(opts.build.time_budget_seconds) {}

  Result<ExternalBuildResult> Run();

 private:
  std::string Path(const std::string& name) const {
    return opts_.scratch_dir + "/" + name;
  }

  Status Initialize();

  /// Installs the owner-partitioned parallel run sort (its counting plan
  /// and partition sort are the in-memory builder's) when more than one
  /// thread is configured. The hook reproduces std::sort's output
  /// exactly, so the spilled runs — and everything downstream — are
  /// bit-identical to the sequential build. Sorters are used one at a
  /// time on the build thread, so sharing one scratch buffer is safe.
  void ConfigureSorter(LabelSorter* sorter) {
    if (threads_ <= 1) return;
    sorter->SetSortFn([this](std::vector<LabelRec>* buffer) {
      OwnerPartitionedSort(
          buffer, g_.num_vertices(), threads_,
          [](const LabelRec& r) { return r.a; }, ByABD{}, &sort_scratch_,
          &sort_plan_);
    });
  }

  Status Generate(BuildMode mode, LabelSorter* out_sorter,
                  LabelSorter* in_sorter, IterationStats* st);
  /// Sorted candidates -> pending file (deduped, not dominated by old).
  Status DedupAgainstOld(LabelSorter* sorter, const std::string& old_path,
                         const std::string& pending_path,
                         IterationStats* st);
  /// Blocked nested-loop pruning of one candidate side.
  Status PruneSide(bool out_side, IterationStats* st);
  /// Merge survivors into the owner- and pivot-sorted label files.
  Status Apply(bool out_side, uint64_t* side_entries);

  const CsrGraph& g_;
  ExternalBuildOptions opts_;
  bool directed_;
  uint32_t threads_;
  Deadline deadline_;
  BuildStats stats_;
  IoStats io_;

  /// Parallel run-sort scratch, reused across all sorters and iterations.
  std::vector<LabelRec> sort_scratch_;
  OwnerPartitionPlan sort_plan_;

  // Current files; "old" = all surviving entries, "bp" = pivot-sorted
  // copy, "prev" = last iteration's survivors, "pend"/"surv" = this
  // iteration's scratch.
  std::string out_old_, out_bp_, prev_out_;
  std::string in_old_, in_bp_, prev_in_;
  uint64_t out_entries_ = 0, in_entries_ = 0;
  uint64_t prev_out_n_ = 0, prev_in_n_ = 0;
  uint64_t pend_out_n_ = 0, pend_in_n_ = 0;
  uint64_t surv_out_n_ = 0, surv_in_n_ = 0;
};

Status ExternalBuilder::Initialize() {
  out_old_ = Path("out_old");
  out_bp_ = Path("out_bp");
  prev_out_ = Path("prev_out");
  in_old_ = Path("in_old");
  in_bp_ = Path("in_bp");
  prev_in_ = Path("prev_in");

  const uint64_t budget = opts_.memory_budget_bytes / 4;
  LabelSorter out_sorter(Path("init_out"), budget, ByABD{},
                         opts_.block_size);
  LabelSorter in_sorter(Path("init_in"), budget, ByABD{}, opts_.block_size);
  ConfigureSorter(&out_sorter);
  ConfigureSorter(&in_sorter);

  for (VertexId u = 0; u < g_.num_vertices(); ++u) {
    for (const Arc& a : g_.OutArcs(u)) {
      const VertexId v = a.to;
      if (directed_) {
        if (v < u) {
          HOPDB_RETURN_NOT_OK(out_sorter.Add({u, v, a.weight}));
        } else {
          HOPDB_RETURN_NOT_OK(in_sorter.Add({v, u, a.weight}));
        }
      } else if (u < v) {
        HOPDB_RETURN_NOT_OK(out_sorter.Add({v, u, a.weight}));
      }
    }
  }

  auto drain = [&](LabelSorter* sorter, const std::string& owner_path,
                   const std::string& bp_path, const std::string& prev_path,
                   uint64_t* count) -> Status {
    HOPDB_RETURN_NOT_OK(sorter->Finish());
    HOPDB_ASSIGN_OR_RETURN(
        auto w_old, RecordWriter<LabelRec>::Open(owner_path, opts_.block_size));
    HOPDB_ASSIGN_OR_RETURN(
        auto w_prev, RecordWriter<LabelRec>::Open(prev_path, opts_.block_size));
    LabelSorter bp_sorter(bp_path + ".s", opts_.memory_budget_bytes / 4,
                          ByABD{}, opts_.block_size);
    // Pivot-sorted records put the pivot in field a — still a vertex id,
    // so the owner-partitioned sort hook applies unchanged.
    ConfigureSorter(&bp_sorter);
    LabelRec rec;
    *count = 0;
    while (sorter->Next(&rec)) {
      // The CSR freeze dropped parallel arcs; keys are unique.
      HOPDB_RETURN_NOT_OK(w_old.Append(rec));
      HOPDB_RETURN_NOT_OK(w_prev.Append(rec));
      HOPDB_RETURN_NOT_OK(bp_sorter.Add({rec.b, rec.a, rec.dist}));
      ++*count;
    }
    HOPDB_RETURN_NOT_OK(w_old.Close());
    HOPDB_RETURN_NOT_OK(w_prev.Close());
    io_.Add(w_old.stats());
    io_.Add(w_prev.stats());
    sorter->Cleanup();
    HOPDB_RETURN_NOT_OK(bp_sorter.Finish());
    HOPDB_ASSIGN_OR_RETURN(
        auto w_bp, RecordWriter<LabelRec>::Open(bp_path, opts_.block_size));
    while (bp_sorter.Next(&rec)) HOPDB_RETURN_NOT_OK(w_bp.Append(rec));
    HOPDB_RETURN_NOT_OK(w_bp.Close());
    io_.Add(w_bp.stats());
    bp_sorter.Cleanup();
    return Status::OK();
  };

  HOPDB_RETURN_NOT_OK(drain(&out_sorter, out_old_, out_bp_, prev_out_,
                            &out_entries_));
  prev_out_n_ = out_entries_;
  HOPDB_RETURN_NOT_OK(
      drain(&in_sorter, in_old_, in_bp_, prev_in_, &in_entries_));
  prev_in_n_ = in_entries_;
  stats_.initial_entries = out_entries_ + in_entries_;
  return Status::OK();
}

Status ExternalBuilder::Generate(BuildMode mode, LabelSorter* out_sorter,
                                 LabelSorter* in_sorter,
                                 IterationStats* st) {
  uint64_t raw = 0;
  auto emit = [&](LabelSorter* sorter, VertexId owner, VertexId pivot,
                  Distance d) -> Status {
    ++raw;
    if (opts_.build.max_candidates_per_iteration != 0 &&
        raw > opts_.build.max_candidates_per_iteration) {
      return Status::ResourceExhausted("candidate volume exceeds cap");
    }
    if ((raw & 0xFFFF) == 0 && deadline_.Exceeded()) {
      return Status::DeadlineExceeded("generation over time budget");
    }
    return sorter->Add({owner, pivot, d});
  };

  if (mode == BuildMode::kHopStepping) {
    // Unit-hop extension at the owner side, straight from the CSR arcs.
    {
      HOPDB_ASSIGN_OR_RETURN(FileSource prev,
                             FileSource::Open(prev_out_, opts_.block_size));
      LabelRec c;
      while (prev.Next(&c)) {
        auto arcs = directed_ ? g_.InArcs(c.a) : g_.OutArcs(c.a);
        for (const Arc& a : arcs) {
          if (a.to <= c.b) continue;
          HOPDB_RETURN_NOT_OK(emit(out_sorter, a.to, c.b,
                                   SaturatingAdd(c.dist, a.weight)));
        }
      }
    }
    if (directed_) {
      HOPDB_ASSIGN_OR_RETURN(FileSource prev,
                             FileSource::Open(prev_in_, opts_.block_size));
      LabelRec c;
      while (prev.Next(&c)) {
        for (const Arc& a : g_.OutArcs(c.a)) {
          if (a.to <= c.b) continue;
          HOPDB_RETURN_NOT_OK(emit(in_sorter, a.to, c.b,
                                   SaturatingAdd(c.dist, a.weight)));
        }
      }
    }
    st->raw_candidates = raw;
    return Status::OK();
  }

  // --- Hop-Doubling: four merge joins over the label files.
  // Join prev (key = owner) with a label file (key = field a) and emit
  // via `combine`.
  auto join = [&](const std::string& prev_path, const std::string& label_path,
                  auto&& combine) -> Status {
    HOPDB_ASSIGN_OR_RETURN(FileSource prev_src,
                           FileSource::Open(prev_path, opts_.block_size));
    HOPDB_ASSIGN_OR_RETURN(FileSource label_src,
                           FileSource::Open(label_path, opts_.block_size));
    GroupCursor prev_groups(&prev_src);
    GroupCursor label_groups(&label_src);
    std::vector<LabelRec> pg, lg;
    VertexId pk = 0, lk = 0;
    bool pv = prev_groups.NextGroup(&pk, &pg);
    bool lv = label_groups.NextGroup(&lk, &lg);
    while (pv && lv) {
      if (pk == lk) {
        HOPDB_RETURN_NOT_OK(combine(pg, lg));
        pv = prev_groups.NextGroup(&pk, &pg);
        lv = label_groups.NextGroup(&lk, &lg);
      } else if (pk < lk) {
        pv = prev_groups.NextGroup(&pk, &pg);
      } else {
        lv = label_groups.NextGroup(&lk, &lg);
      }
    }
    return Status::OK();
  };

  // Rule 1 (directed) / undirected Rule 1: prev out (u -> v, d) x label
  // entries of u with pivot > v -> out-candidate owned by that pivot.
  HOPDB_RETURN_NOT_OK(join(
      prev_out_, directed_ ? in_old_ : out_old_,
      [&](const std::vector<LabelRec>& pg,
          const std::vector<LabelRec>& lg) -> Status {
        for (const LabelRec& p : pg) {
          auto it = std::upper_bound(
              lg.begin(), lg.end(), p.b,
              [](VertexId v, const LabelRec& r) { return v < r.b; });
          for (; it != lg.end(); ++it) {
            HOPDB_RETURN_NOT_OK(emit(out_sorter, it->b, p.b,
                                     SaturatingAdd(it->dist, p.dist)));
          }
        }
        return Status::OK();
      }));

  // Rule 2: prev out (u -> v, d) x pivot-sorted out entries (u, u2, d2)
  // -> out-candidate (u2, v, d2 + d).
  HOPDB_RETURN_NOT_OK(join(
      prev_out_, out_bp_,
      [&](const std::vector<LabelRec>& pg,
          const std::vector<LabelRec>& lg) -> Status {
        for (const LabelRec& p : pg) {
          for (const LabelRec& l : lg) {
            HOPDB_RETURN_NOT_OK(emit(out_sorter, l.b, p.b,
                                     SaturatingAdd(l.dist, p.dist)));
          }
        }
        return Status::OK();
      }));

  if (directed_) {
    // Rule 4: prev in (owner v, pivot u, d) x out entries of v with pivot
    // u4 > u -> in-candidate (u4, u, d + d4).
    HOPDB_RETURN_NOT_OK(join(
        prev_in_, out_old_,
        [&](const std::vector<LabelRec>& pg,
            const std::vector<LabelRec>& lg) -> Status {
          for (const LabelRec& p : pg) {
            auto it = std::upper_bound(
                lg.begin(), lg.end(), p.b,
                [](VertexId v, const LabelRec& r) { return v < r.b; });
            for (; it != lg.end(); ++it) {
              HOPDB_RETURN_NOT_OK(emit(in_sorter, it->b, p.b,
                                       SaturatingAdd(p.dist, it->dist)));
            }
          }
          return Status::OK();
        }));

    // Rule 5: prev in (owner v, pivot u, d) x pivot-sorted in entries
    // (v, u5, d5) -> in-candidate (u5, u, d + d5).
    HOPDB_RETURN_NOT_OK(join(
        prev_in_, in_bp_,
        [&](const std::vector<LabelRec>& pg,
            const std::vector<LabelRec>& lg) -> Status {
          for (const LabelRec& p : pg) {
            for (const LabelRec& l : lg) {
              HOPDB_RETURN_NOT_OK(emit(in_sorter, l.b, p.b,
                                       SaturatingAdd(p.dist, l.dist)));
            }
          }
          return Status::OK();
        }));
  }

  st->raw_candidates = raw;
  return Status::OK();
}

Status ExternalBuilder::DedupAgainstOld(LabelSorter* sorter,
                                        const std::string& old_path,
                                        const std::string& pending_path,
                                        IterationStats* st) {
  HOPDB_RETURN_NOT_OK(sorter->Finish());
  HOPDB_ASSIGN_OR_RETURN(auto old_reader, RecordReader<LabelRec>::Open(
                                              old_path, opts_.block_size));
  HOPDB_ASSIGN_OR_RETURN(auto pend_writer, RecordWriter<LabelRec>::Open(
                                               pending_path, opts_.block_size));
  LabelRec old_rec{};
  bool old_valid = old_reader.Next(&old_rec);
  LabelRec cand;
  bool have_last = false;
  VertexId la = 0, lb = 0;
  uint64_t written = 0;
  auto key = [](VertexId a, VertexId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  };
  while (sorter->Next(&cand)) {
    if (have_last && la == cand.a && lb == cand.b) continue;  // dup
    have_last = true;
    la = cand.a;
    lb = cand.b;
    st->deduped_candidates++;
    while (old_valid && key(old_rec.a, old_rec.b) < key(cand.a, cand.b)) {
      old_valid = old_reader.Next(&old_rec);
    }
    if (old_valid && old_rec.a == cand.a && old_rec.b == cand.b &&
        old_rec.dist <= cand.dist) {
      st->existing_dropped++;
      continue;
    }
    HOPDB_RETURN_NOT_OK(pend_writer.Append(cand));
    ++written;
  }
  HOPDB_RETURN_NOT_OK(pend_writer.Close());
  io_.Add(pend_writer.stats());
  io_.Add(old_reader.stats());
  sorter->Cleanup();
  if (old_path == out_old_ || !directed_) {
    pend_out_n_ = written;
  }
  if (directed_ && old_path == in_old_) pend_in_n_ = written;
  return Status::OK();
}

Status ExternalBuilder::PruneSide(bool out_side, IterationStats* st) {
  // Pruning a side's candidates: outer blocks hold the candidates' SOURCE
  // labels (Lout for out-candidates, Lin for in-candidates) merged with
  // pending entries; the inner stream supplies the other half once per
  // block. Undirected graphs use the single label file on both sides.
  const std::string source_old =
      out_side || !directed_ ? out_old_ : in_old_;
  const std::string source_pend =
      out_side || !directed_ ? Path("pend_out") : Path("pend_in");
  const std::string other_old =
      directed_ ? (out_side ? in_old_ : out_old_) : out_old_;
  const std::string other_pend =
      directed_ ? (out_side ? Path("pend_in") : Path("pend_out"))
                : Path("pend_out");
  const std::string pend_path = out_side ? Path("pend_out") : Path("pend_in");
  const std::string surv_path = out_side ? Path("surv_out") : Path("surv_in");

  const bool use_cand_witnesses = opts_.build.prune_with_candidates;
  const std::string empty_path = Path("empty");
  {
    // An empty file stands in for "no candidate witnesses" ablation.
    HOPDB_ASSIGN_OR_RETURN(auto w, RecordWriter<LabelRec>::Open(
                                       empty_path, opts_.block_size));
    HOPDB_RETURN_NOT_OK(w.Close());
  }

  HOPDB_ASSIGN_OR_RETURN(
      MergedSource outer_src,
      MergedSource::Open(source_old,
                         use_cand_witnesses ? source_pend : empty_path,
                         opts_.block_size));
  HOPDB_ASSIGN_OR_RETURN(auto cand_reader, RecordReader<LabelRec>::Open(
                                               pend_path, opts_.block_size));
  HOPDB_ASSIGN_OR_RETURN(auto surv_writer, RecordWriter<LabelRec>::Open(
                                               surv_path, opts_.block_size));

  BlockLoader loader(&outer_src, opts_.memory_budget_bytes / 2);
  std::vector<LabelRec> entries;
  std::vector<BlockGroup> groups;
  LabelRec cand{};
  bool cand_valid = cand_reader.Next(&cand);
  std::vector<LabelRec> tests;
  std::vector<uint8_t> pruned_flag;
  std::vector<uint32_t> order;
  std::vector<LabelRec> source_group;
  uint64_t survivors = 0;

  while (loader.NextBlock(&entries, &groups)) {
    if (deadline_.Exceeded()) {
      return Status::DeadlineExceeded("pruning over time budget");
    }
    if (groups.empty()) continue;
    const VertexId last_owner = groups.back().owner;
    // Candidates to test in this block: pending entries whose owner falls
    // in the block's owner range (pending ⊆ merged, so none are skipped).
    tests.clear();
    while (cand_valid && cand.a <= last_owner) {
      tests.push_back(cand);
      cand_valid = cand_reader.Next(&cand);
    }
    if (tests.empty()) continue;

    // Inner pass keyed by the candidates' destination-side vertex (the
    // pivot for out-candidates, also stored in field b for in-candidates).
    order.resize(tests.size());
    for (size_t i = 0; i < tests.size(); ++i) order[i] = static_cast<uint32_t>(i);
    std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
      if (tests[x].b != tests[y].b) return tests[x].b < tests[y].b;
      return tests[x].a < tests[y].a;
    });
    pruned_flag.assign(tests.size(), 0);

    HOPDB_ASSIGN_OR_RETURN(
        MergedSource inner_src,
        MergedSource::Open(other_old,
                           use_cand_witnesses ? other_pend : empty_path,
                           opts_.block_size));
    GroupCursor inner_groups(&inner_src);
    std::vector<LabelRec> ig;
    VertexId ik = 0;
    size_t oi = 0;
    while (oi < order.size() && inner_groups.NextGroup(&ik, &ig)) {
      while (oi < order.size() && tests[order[oi]].b < ik) ++oi;
      while (oi < order.size() && tests[order[oi]].b == ik) {
        const LabelRec& t = tests[order[oi]];
        // In the prune_with_candidates ablation the outer stream is
        // old-only, so a brand-new owner may have no group: no witnesses,
        // the candidate survives.
        const std::vector<LabelRec>* sg =
            FindGroup(groups, entries, t.a, &source_group);
        // beta = the candidate's pivot (field b): witnesses must outrank
        // it. Out-candidates intersect Lout(owner) x Lin(pivot);
        // in-candidates intersect Lout(pivot) x Lin(owner) — the witness
        // scan is symmetric, so the argument order does not matter.
        if (sg != nullptr && HasWitness(*sg, ig, t.b, t.dist)) {
          pruned_flag[order[oi]] = 1;
        }
        ++oi;
      }
    }
    io_.Add(inner_src.TotalStats());

    for (uint32_t i = 0; i < tests.size(); ++i) {
      if (pruned_flag[i]) {
        st->pruned++;
      } else {
        HOPDB_RETURN_NOT_OK(surv_writer.Append(tests[i]));
        ++survivors;
      }
    }
  }
  // Candidates beyond the final block (possible only in the old-only
  // witness ablation) have no source labels at all: they survive.
  while (cand_valid) {
    HOPDB_RETURN_NOT_OK(surv_writer.Append(cand));
    ++survivors;
    cand_valid = cand_reader.Next(&cand);
  }
  HOPDB_RETURN_NOT_OK(surv_writer.Close());
  io_.Add(surv_writer.stats());
  io_.Add(outer_src.TotalStats());
  io_.Add(cand_reader.stats());
  if (out_side) {
    surv_out_n_ = survivors;
  } else {
    surv_in_n_ = survivors;
  }
  return Status::OK();
}

Status ExternalBuilder::Apply(bool out_side, uint64_t* side_entries) {
  const std::string surv_path = out_side ? Path("surv_out") : Path("surv_in");
  const std::string old_path = out_side ? out_old_ : in_old_;
  const std::string bp_path = out_side ? out_bp_ : in_bp_;
  const std::string prev_path = out_side ? prev_out_ : prev_in_;

  // --- owner-sorted file: streaming merge with min-dist collapse.
  const std::string new_old = old_path + ".new";
  {
    HOPDB_ASSIGN_OR_RETURN(
        MergedSource merged,
        MergedSource::Open(old_path, surv_path, opts_.block_size));
    HOPDB_ASSIGN_OR_RETURN(
        auto writer, RecordWriter<LabelRec>::Open(new_old, opts_.block_size));
    LabelRec rec;
    uint64_t count = 0;
    while (merged.Next(&rec)) {
      HOPDB_RETURN_NOT_OK(writer.Append(rec));
      ++count;
    }
    HOPDB_RETURN_NOT_OK(writer.Close());
    io_.Add(writer.stats());
    io_.Add(merged.TotalStats());
    *side_entries = count;
  }
  HOPDB_RETURN_NOT_OK(RemoveFileIfExists(old_path));
  if (::rename(new_old.c_str(), old_path.c_str()) != 0) {
    return Status::IOError("rename failed for " + new_old);
  }

  // --- pivot-sorted file: sort survivors by (pivot, owner), then merge.
  const std::string surv_bp = surv_path + ".bp";
  {
    LabelSorter bp_sorter(surv_bp + ".s", opts_.memory_budget_bytes / 4,
                          ByABD{}, opts_.block_size);
    ConfigureSorter(&bp_sorter);  // field a is the pivot: still a vertex id
    HOPDB_ASSIGN_OR_RETURN(auto reader, RecordReader<LabelRec>::Open(
                                            surv_path, opts_.block_size));
    LabelRec rec;
    while (reader.Next(&rec)) {
      HOPDB_RETURN_NOT_OK(bp_sorter.Add({rec.b, rec.a, rec.dist}));
    }
    io_.Add(reader.stats());
    HOPDB_RETURN_NOT_OK(bp_sorter.Finish());
    HOPDB_ASSIGN_OR_RETURN(
        auto writer, RecordWriter<LabelRec>::Open(surv_bp, opts_.block_size));
    while (bp_sorter.Next(&rec)) HOPDB_RETURN_NOT_OK(writer.Append(rec));
    HOPDB_RETURN_NOT_OK(writer.Close());
    io_.Add(writer.stats());
    bp_sorter.Cleanup();
  }
  const std::string new_bp = bp_path + ".new";
  {
    HOPDB_ASSIGN_OR_RETURN(MergedSource merged, MergedSource::Open(
                                                    bp_path, surv_bp,
                                                    opts_.block_size));
    HOPDB_ASSIGN_OR_RETURN(
        auto writer, RecordWriter<LabelRec>::Open(new_bp, opts_.block_size));
    LabelRec rec;
    while (merged.Next(&rec)) HOPDB_RETURN_NOT_OK(writer.Append(rec));
    HOPDB_RETURN_NOT_OK(writer.Close());
    io_.Add(writer.stats());
    io_.Add(merged.TotalStats());
  }
  HOPDB_RETURN_NOT_OK(RemoveFileIfExists(bp_path));
  if (::rename(new_bp.c_str(), bp_path.c_str()) != 0) {
    return Status::IOError("rename failed for " + new_bp);
  }
  HOPDB_RETURN_NOT_OK(RemoveFileIfExists(surv_bp));

  // --- survivors become prev.
  HOPDB_RETURN_NOT_OK(RemoveFileIfExists(prev_path));
  if (::rename(surv_path.c_str(), prev_path.c_str()) != 0) {
    return Status::IOError("rename failed for " + surv_path);
  }
  return Status::OK();
}

Result<ExternalBuildResult> ExternalBuilder::Run() {
  Stopwatch total_watch;
  if (opts_.scratch_dir.empty()) {
    return Status::InvalidArgument("scratch_dir is required");
  }
  {
    Stopwatch init_watch;
    HOPDB_RETURN_NOT_OK(Initialize());
    stats_.init_seconds = init_watch.Seconds();
  }

  for (uint32_t iter = 1; iter <= opts_.build.max_iterations; ++iter) {
    if (prev_out_n_ == 0 && prev_in_n_ == 0) break;
    if (deadline_.Exceeded()) {
      return Status::DeadlineExceeded("external build over time budget");
    }
    Stopwatch iter_watch;
    IterationStats st;
    st.iteration = iter;
    switch (opts_.build.mode) {
      case BuildMode::kHopStepping:
        st.mode_used = BuildMode::kHopStepping;
        break;
      case BuildMode::kHopDoubling:
        st.mode_used = BuildMode::kHopDoubling;
        break;
      case BuildMode::kHybrid:
        st.mode_used = iter <= opts_.build.hybrid_switch_iteration
                           ? BuildMode::kHopStepping
                           : BuildMode::kHopDoubling;
        break;
    }

    const uint64_t sort_budget = opts_.memory_budget_bytes / 4;
    LabelSorter out_sorter(Path("cand_out"), sort_budget, ByABD{},
                           opts_.block_size);
    LabelSorter in_sorter(Path("cand_in"), sort_budget, ByABD{},
                          opts_.block_size);
    ConfigureSorter(&out_sorter);
    ConfigureSorter(&in_sorter);
    HOPDB_RETURN_NOT_OK(Generate(st.mode_used, &out_sorter, &in_sorter, &st));

    pend_out_n_ = pend_in_n_ = 0;
    HOPDB_RETURN_NOT_OK(
        DedupAgainstOld(&out_sorter, out_old_, Path("pend_out"), &st));
    if (directed_) {
      HOPDB_RETURN_NOT_OK(
          DedupAgainstOld(&in_sorter, in_old_, Path("pend_in"), &st));
    }

    surv_out_n_ = surv_in_n_ = 0;
    if (opts_.build.prune) {
      HOPDB_RETURN_NOT_OK(PruneSide(/*out_side=*/true, &st));
      if (directed_) HOPDB_RETURN_NOT_OK(PruneSide(/*out_side=*/false, &st));
    } else {
      // No pruning: pending survives verbatim.
      if (::rename(Path("pend_out").c_str(), Path("surv_out").c_str()) != 0) {
        return Status::IOError("rename pend_out failed");
      }
      surv_out_n_ = pend_out_n_;
      if (directed_) {
        if (::rename(Path("pend_in").c_str(), Path("surv_in").c_str()) != 0) {
          return Status::IOError("rename pend_in failed");
        }
        surv_in_n_ = pend_in_n_;
      }
    }
    if (opts_.build.prune) {
      HOPDB_RETURN_NOT_OK(RemoveFileIfExists(Path("pend_out")));
      HOPDB_RETURN_NOT_OK(RemoveFileIfExists(Path("pend_in")));
    }

    HOPDB_RETURN_NOT_OK(Apply(/*out_side=*/true, &out_entries_));
    if (directed_) {
      HOPDB_RETURN_NOT_OK(Apply(/*out_side=*/false, &in_entries_));
    }
    prev_out_n_ = surv_out_n_;
    prev_in_n_ = surv_in_n_;

    st.survivors = surv_out_n_ + surv_in_n_;
    st.total_entries_after = out_entries_ + in_entries_;
    st.seconds = iter_watch.Seconds();
    stats_.iterations.push_back(st);
    stats_.num_rule_iterations = iter;
    if (st.survivors == 0) break;
  }

  stats_.total_seconds = total_watch.Seconds();
  ExternalBuildResult result;
  result.out_labels_path = out_old_;
  result.in_labels_path = directed_ ? in_old_ : "";
  result.stats = std::move(stats_);
  result.io = io_;
  result.total_entries = out_entries_ + in_entries_;
  return result;
}

}  // namespace

Result<TwoHopIndex> ExternalBuildResult::ToMemory(
    const CsrGraph& ranked_graph) const {
  const VertexId n = ranked_graph.num_vertices();
  std::vector<LabelVector> out(n);
  std::vector<LabelVector> in(ranked_graph.directed() ? n : 0);
  auto load = [&](const std::string& path,
                  std::vector<LabelVector>* side) -> Status {
    HOPDB_ASSIGN_OR_RETURN(auto reader, RecordReader<LabelRec>::Open(path));
    LabelRec rec;
    while (reader.Next(&rec)) {
      if (rec.a >= n) return Status::Internal("label owner out of range");
      (*side)[rec.a].push_back({rec.b, rec.dist});
    }
    return Status::OK();
  };
  HOPDB_RETURN_NOT_OK(load(out_labels_path, &out));
  if (ranked_graph.directed()) {
    HOPDB_RETURN_NOT_OK(load(in_labels_path, &in));
  }
  return TwoHopIndex(std::move(out), std::move(in),
                     ranked_graph.directed());
}

Result<ExternalBuildResult> BuildHopLabelingExternal(
    const CsrGraph& ranked_graph, const ExternalBuildOptions& options) {
  ExternalBuilder builder(ranked_graph, options);
  return builder.Run();
}

}  // namespace hopdb
