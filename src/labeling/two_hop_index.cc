#include "labeling/two_hop_index.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "graph/ranking.h"
#include "io/block_file.h"
#include "io/replacing_writer.h"
#include "io/window_reader.h"
#include "labeling/query_kernel.h"
#include "util/logging.h"
#include "util/serde.h"

namespace hopdb {

namespace {

constexpr char kMagic[4] = {'H', 'L', 'I', '1'};

/// The header word after the magic: bit 1 marks the compact layout,
/// which every file this build writes has, and bit 0 is the index's
/// direction. Files of the earlier fixed-width layout hold 0 or 1 there.
constexpr uint32_t kCompactLayout = 2;

/// The bytes one label entry takes at most: a pivot gap and a distance.
constexpr size_t kMaxEntryBytes = 2 * kMaxVarint32Bytes;

constexpr const char* kBadVarint =
    "a varint is overlong, exceeds 32 bits or runs past its section";

/// Decodes `count` varint-coded values of at most `max_bytes` bytes each
/// from `reader`'s window, none reaching past offset `limit`.
/// `decode(&p, end, i)` decodes value i from [p, end) and moves p past
/// it, returning nullptr, or what is wrong with the value. The window is
/// refilled whenever fewer than `max_bytes` of its bytes are left before
/// `limit`, so a value split across two windows is decoded whole, and a
/// value that does not end before `limit` is refused.
template <typename Decode>
Status DecodeVarints(WindowReader* reader, uint64_t limit, size_t max_bytes,
                     uint64_t count, Decode&& decode) {
  for (uint64_t i = 0; i < count;) {
    const uint64_t left = limit - reader->position();
    HOPDB_RETURN_NOT_OK(reader->Fill(
        static_cast<size_t>(std::min<uint64_t>(max_bytes, left))));
    const size_t avail =
        static_cast<size_t>(std::min<uint64_t>(reader->buffered(), left));
    // Consume(0) points at the buffered bytes and takes none of them.
    const uint8_t* const begin = reader->Consume(0);
    const uint8_t* const end = begin + avail;
    // Values that start by `stop` end before the window does, or must
    // end before `limit`.
    const uint8_t* const stop = avail == left ? end : end - max_bytes;
    const uint8_t* p = begin;
    const char* error = nullptr;
    for (; i < count && p <= stop; ++i) {
      if ((error = decode(&p, end, i)) != nullptr) break;
    }
    reader->Consume(static_cast<size_t>(p - begin));
    if (error != nullptr) return Status::InvalidArgument(error);
  }
  return Status::OK();
}

}  // namespace

TwoHopIndex::TwoHopIndex(std::vector<LabelVector> out,
                         std::vector<LabelVector> in, bool directed)
    : flat_(FlatLabelStore::Build(out, in, directed)) {}

Distance QueryLabelHalves(std::span<const LabelEntry> out_s,
                          std::span<const LabelEntry> in_t, VertexId s,
                          VertexId t) {
  if (s == t) return 0;
  Distance best = IntersectLabels(out_s, in_t);
  // Implicit trivial pivots: (s, 0) in Lout(s) and (t, 0) in Lin(t).
  Distance direct_t = LookupPivot(out_s, t);
  if (direct_t < best) best = direct_t;
  Distance direct_s = LookupPivot(in_t, s);
  if (direct_s < best) best = direct_s;
  return best;
}

Distance TwoHopIndex::Query(VertexId s, VertexId t) const {
  HOPDB_DCHECK_LT(s, num_vertices());
  HOPDB_DCHECK_LT(t, num_vertices());
  return QueryFlatHalves(flat_.Out(s), flat_.In(t), s, t,
                         ActiveQueryKernel());
}

double TwoHopIndex::AvgLabelSize() const {
  if (num_vertices() == 0) return 0;
  return static_cast<double>(TotalEntries()) /
         static_cast<double>(num_vertices());
}

uint64_t TwoHopIndex::PaperSizeBytes() const {
  // 4-byte pivot + 1-byte distance per entry, 8-byte offset per label.
  const uint64_t labels = directed() ? 2ull * num_vertices() : num_vertices();
  return TotalEntries() * 5ull + labels * 8ull;
}

std::vector<uint64_t> TwoHopIndex::EntriesPerPivot() const {
  std::vector<uint64_t> counts(num_vertices(), 0);
  const LabelSetView view = labels();
  for (size_t slot = 0; slot < view.num_slots(); ++slot) {
    const FlatLabelStore::View label = view.Slot(slot);
    for (uint32_t i = 0; i < label.size; ++i) counts[label.pivots[i]]++;
  }
  return counts;
}

Status TwoHopIndex::Validate(bool ranked) const {
  const VertexId n = num_vertices();
  auto check_side = [&](bool in_side, const char* name) -> Status {
    for (VertexId v = 0; v < n; ++v) {
      const FlatLabelStore::View l = in_side ? flat_.In(v) : flat_.Out(v);
      const auto fail = [&](const char* what) {
        return Status::Internal(std::string(name) + " label of " +
                                std::to_string(v) + " " + what);
      };
      for (uint32_t i = 0; i < l.size; ++i) {
        const VertexId pivot = l.pivots[i];
        if (i > 0 && l.pivots[i - 1] >= pivot) {
          return fail("not strictly sorted by pivot");
        }
        if (pivot == v) return fail("stores a trivial self entry");
        if (pivot >= n) return fail("has pivot out of range");
        if (ranked && pivot > v) return fail("has pivot ranked below owner");
        if (l.dist(i) == 0 || l.dist(i) == kInfDistance) {
          return fail("has bad distance");
        }
      }
    }
    return Status::OK();
  };
  HOPDB_RETURN_NOT_OK(
      check_side(/*in_side=*/false, directed() ? "out" : "undirected"));
  if (directed()) HOPDB_RETURN_NOT_OK(check_side(/*in_side=*/true, "in"));
  return Status::OK();
}

Status TwoHopIndex::Save(const std::string& path,
                         const RankMapping& ranking) const {
  const VertexId n = num_vertices();
  if (ranking.size() != n) {
    return Status::InvalidArgument("HLI1 rank section needs |V| ids");
  }
  const LabelSetView view = labels();
  ReplacingWriter out;
  HOPDB_RETURN_NOT_OK(out.Open(path));
  out.Put(kMagic, sizeof(kMagic));
  out.PutU32(kCompactLayout | (directed() ? 1u : 0u));
  out.PutU32(n);
  for (size_t slot = 0; slot < view.num_slots(); ++slot) {
    out.PutVarint(view.Slot(slot).size);
  }
  for (size_t slot = 0; slot < view.num_slots(); ++slot) {
    const FlatLabelStore::View l = view.Slot(slot);
    uint64_t next = 0;  // the lowest pivot the entry may name
    for (uint32_t i = 0; i < l.size; ++i) {
      if (l.pivots[i] < next) {
        return Status::InvalidArgument(
            "HLI1 cannot encode a label that is not strictly sorted by "
            "pivot (slot " + std::to_string(slot) + ")");
      }
      out.PutVarint(static_cast<uint32_t>(l.pivots[i] - next));
      out.PutVarint(l.dist(i));
      next = uint64_t{l.pivots[i]} + 1;
    }
  }
  for (const VertexId v : ranking.rank_to_orig) out.PutU32(v);
  out.PutU64(out.TakeHash());
  HOPDB_RETURN_NOT_OK(out.Commit());
  return RemoveFileIfExists(path + ".perm");
}

Result<TwoHopIndex> TwoHopIndex::Load(const std::string& path,
                                      RankMapping* ranking) {
  HOPDB_ASSIGN_OR_RETURN(BlockFile file, BlockFile::OpenRead(path));
  const auto not_hli1 = [&] {
    return Status::InvalidArgument("not a HLI1 index file: " + path);
  };
  if (file.size() < sizeof(kMagic) + 8) return not_hli1();
  // The body is every byte but the trailing checksum, so a file that
  // carries anything past the checksum fails its checks too. Pass 1
  // hashes what it reads, for pass 2 to compare.
  const uint64_t body = file.size() - 8;
  WindowReader reader(&file);
  reader.Rewind(body);
  const uint8_t* magic = nullptr;
  HOPDB_RETURN_NOT_OK(reader.Take(sizeof(kMagic), &magic));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) return not_hli1();
  // With the reader at the body's end, having hashed every byte before.
  const auto verify_checksum = [&]() -> Status {
    uint64_t stored = 0;
    HOPDB_RETURN_NOT_OK(reader.Read(file.size(), &stored));
    if (reader.hash() == stored) return Status::OK();
    return Status::InvalidArgument(
        "HLI1 checksum mismatch (a corrupt file, or one written by an "
        "earlier hopdb build: rebuild it): " + path);
  };
  // Hashes the rest of the body and reports a checksum mismatch if there
  // is one, else `refusal`: whatever else is wrong with a file, a failed
  // checksum is what it reports.
  const auto refuse = [&](const char* what, const Status& refusal) {
    HOPDB_RETURN_NOT_OK(reader.Skip(body - reader.position()));
    HOPDB_RETURN_NOT_OK(verify_checksum());
    return Status::InvalidArgument(std::string(what) + " (" +
                                   refusal.message() + "): " + path);
  };

  // Pass 1: the header and the lengths section, which size the store's
  // slots; the entries are not read. The slot count, then the length
  // sum, is checked against the bytes it needs (at least 1 per length, 2
  // per entry) before it sizes anything.
  uint32_t layout = 0, nv = 0;
  bool fixed_width = false;
  std::vector<uint32_t> sizes;
  uint64_t entries_begin = 0, ranks_begin = 0;
  auto read_shape = [&]() -> Status {
    HOPDB_RETURN_NOT_OK(reader.Read(body, &layout));
    HOPDB_RETURN_NOT_OK(reader.Read(body, &nv));
    if (layout <= 1) {
      fixed_width = true;
      return Status::InvalidArgument("rebuild the index");
    }
    if ((layout & ~1u) != kCompactLayout) {
      return Status::InvalidArgument("unknown layout word " +
                                     std::to_string(layout));
    }
    const uint64_t slots = uint64_t{nv} << (layout & 1u);
    const uint64_t left = body - reader.position();
    if (4ull * nv > left || slots > left - 4ull * nv) {
      return Status::InvalidArgument(
          "label lengths and rank section exceed the file size");
    }
    ranks_begin = body - 4ull * nv;
    sizes.resize(slots);
    uint64_t total = 0;
    HOPDB_RETURN_NOT_OK(DecodeVarints(
        &reader, ranks_begin, kMaxVarint32Bytes, slots,
        [&](const uint8_t** p, const uint8_t* end,
            uint64_t i) -> const char* {
          if (!DecodeVarint32(p, end, &sizes[i])) return kBadVarint;
          total += sizes[i];
          return nullptr;
        }));
    entries_begin = reader.position();
    if (total > (ranks_begin - entries_begin) / 2) {
      return Status::InvalidArgument(
          "label lengths exceed the entry section (2 bytes an entry at "
          "least)");
    }
    return Status::OK();
  };
  if (const Status parsed = read_shape(); !parsed.ok()) {
    return refuse(fixed_width ? "HLI1 file in the fixed-width layout of an "
                                "earlier hopdb build"
                              : "corrupt HLI1 body",
                  parsed);
  }
  const uint64_t shape_hash = reader.hash();

  // Pass 2: read the body again, hashing every byte, and decode each
  // label straight into its slot, then the ranks. Header and lengths
  // that hash differently from pass 1's mean the file changed in
  // between. The gap coding keeps every label strictly sorted, and the
  // decoder checks the rest of Validate(false) (pivots in range, no
  // self entry, finite nonzero distances) as it goes.
  reader.Rewind(body);
  HOPDB_RETURN_NOT_OK(reader.Skip(entries_begin));
  if (reader.hash() != shape_hash) {
    return Status::InvalidArgument("HLI1 file changed while loading: " +
                                   path);
  }
  Result<FlatLabelStore> store = FlatLabelStore::FromSlots(
      nv, (layout & 1u) != 0, std::move(sizes),
      [&](size_t slot, uint32_t size, uint32_t* pivots, uint32_t* dists) {
        const uint64_t owner = slot < nv ? slot : slot - nv;
        uint64_t next = 0;  // the lowest pivot the entry may name
        return DecodeVarints(
            &reader, ranks_begin, kMaxEntryBytes, size,
            [&](const uint8_t** p, const uint8_t* end,
                uint64_t i) -> const char* {
              uint32_t gap = 0, dist = 0;
              if (!DecodeVarint32(p, end, &gap) ||
                  !DecodeVarint32(p, end, &dist)) {
                return kBadVarint;
              }
              next += gap;
              if (next >= nv) return "a pivot gap reaches |V|";
              if (next == owner) return "a label stores a trivial self entry";
              if (dist == 0 || dist == kInfDistance) {
                return "a distance is 0 or infinite";
              }
              pivots[i] = static_cast<uint32_t>(next++);
              dists[i] = dist;
              return nullptr;
            });
      });
  Status entries = store.status();
  if (entries.ok() && reader.position() != ranks_begin) {
    entries = Status::InvalidArgument(
        "the entry section ends before the rank section");
  }
  if (!entries.ok()) return refuse("invalid HLI1 labels", entries);
  std::vector<VertexId> order(nv);
  for (VertexId& v : order) HOPDB_RETURN_NOT_OK(reader.Read(body, &v));
  HOPDB_RETURN_NOT_OK(verify_checksum());
  if (!IsPermutation(order)) {
    return Status::InvalidArgument("HLI1 ranks are not a permutation: " + path);
  }
  *ranking = RankingFromOrder(std::move(order));
  return TwoHopIndex(std::move(store).value());
}

}  // namespace hopdb
