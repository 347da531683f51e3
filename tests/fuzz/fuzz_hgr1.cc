// Fuzz target for the HGR1 graph loader. Each input is written to a
// scratch .hgr file and loaded with LoadCsrGraph under a fixed rank
// permutation of the header's vertex count, the way the server loads a
// PATH graph. Properties checked on every input:
//   - the load never crashes on hostile files: it returns a Status
//     exactly when the harness's own parse of the bytes finds the file
//     malformed (short header, wrong magic, a record count that does
//     not account for the file's size, an endpoint out of range, a
//     weight outside [1, inf));
//   - a CSR it yields equals a naive reference built here: the sorted
//     set of relabeled arcs, self-loops dropped, the lightest weight
//     kept per pair (both directions for an undirected file), read
//     through the CSR's arc ranges, and it holds a weight lane
//     (weighted()) exactly when a kept arc weighs other than 1;
//   - ReadBinaryGraph accepts exactly the files the CSR load accepts.
// Headers over more than kMaxVertices vertices are skipped: a vertex
// count is not bounded by the file's size, and the CSR's offsets grow
// with it. The seed corpus is five small valid files: three with
// parallel edges, both orientations of an edge and self-loops, one
// flagged weighted whose weights are all 1, and one whose only heavy
// edge is parallel to a unit one (the freeze sees a weight other than 1
// but keeps none).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_common.h"
#include "graph/csr_graph.h"
#include "graph/graph_io.h"
#include "graph/ranking.h"
#include "util/random.h"
#include "util/serde.h"

namespace {

constexpr uint32_t kMaxVertices = 4096;

const std::string& ScratchPath() {
  static const hopdb_fuzz::ScratchFile file("hgr1", ".hgr");
  return file.path();
}

/// The permutation the load applies: a fixed shuffle of [0, n).
hopdb::RankMapping FixedRanking(uint32_t n) {
  std::vector<hopdb::VertexId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  hopdb::Rng rng(0x46525a31ULL);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return hopdb::RankingFromOrder(std::move(order));
}

/// The harness's own reading of an HGR1 image: the arcs (from, to) ->
/// lightest weight, in rank ids, or false when the file is malformed.
bool NaiveParse(const std::string& bytes, const hopdb::RankMapping& rank,
                bool* directed,
                std::map<std::pair<uint32_t, uint32_t>, uint32_t>* arcs) {
  if (bytes.size() < 20 || bytes.compare(0, 4, "HGR1") != 0) return false;
  const auto* p = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint32_t flags = hopdb::DecodeU32(p + 4);
  const uint32_t n = hopdb::DecodeU32(p + 8);
  const uint64_t m = hopdb::DecodeU64(p + 12);
  *directed = (flags & 1u) != 0;
  const bool weighted = (flags & 2u) != 0;
  const uint64_t record = weighted ? 12 : 8;
  if (m > (bytes.size() - 20) / record || 20 + m * record != bytes.size()) {
    return false;
  }
  for (uint64_t i = 0; i < m; ++i) {
    const uint8_t* r = p + 20 + i * record;
    const uint32_t src = hopdb::DecodeU32(r);
    const uint32_t dst = hopdb::DecodeU32(r + 4);
    const uint32_t w = weighted ? hopdb::DecodeU32(r + 8) : 1;
    if (src >= n || dst >= n || w == 0 || w == hopdb::kInfDistance) {
      return false;
    }
    if (src == dst) continue;
    const uint32_t a = rank.ToInternal(src);
    const uint32_t b = rank.ToInternal(dst);
    for (const auto& key : {std::make_pair(a, b), std::make_pair(b, a)}) {
      auto [it, inserted] = arcs->try_emplace(key, w);
      if (!inserted && w < it->second) it->second = w;
      if (*directed) break;
    }
  }
  return true;
}

/// Walks the CSR's arcs in order against the reference set.
void CheckAgainst(const hopdb::CsrGraph& csr, bool in_side,
                  const std::map<std::pair<uint32_t, uint32_t>, uint32_t>&
                      arcs) {
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> want;
  for (const auto& [key, w] : arcs) {
    want.emplace(in_side ? std::make_pair(key.second, key.first) : key, w);
  }
  auto it = want.begin();
  for (hopdb::VertexId v = 0; v < csr.num_vertices(); ++v) {
    for (const hopdb::Arc& arc : in_side ? csr.InArcs(v) : csr.OutArcs(v)) {
      if (it == want.end() || it->first != std::make_pair(v, arc.to) ||
          it->second != arc.weight) {
        __builtin_trap();
      }
      ++it;
    }
  }
  if (it != want.end()) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  const uint32_t n =
      size >= 12 ? hopdb::DecodeU32(reinterpret_cast<const uint8_t*>(data) + 8)
                 : 0;
  if (n > kMaxVertices) return 0;
  const std::string path = ScratchPath();
  if (!hopdb::WriteStringToFile(path, bytes).ok()) return 0;

  const hopdb::RankMapping rank = FixedRanking(n);
  bool directed = false;
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> arcs;
  const bool valid = NaiveParse(bytes, rank, &directed, &arcs);

  const hopdb::Result<hopdb::CsrGraph> csr =
      hopdb::LoadCsrGraph(path, false, false, &rank);
  if (csr.ok() != valid) __builtin_trap();
  if (hopdb::ReadBinaryGraph(path).ok() != valid) __builtin_trap();
  if (!valid) return 0;

  if (csr->num_vertices() != n || csr->directed() != directed) {
    __builtin_trap();
  }
  if (csr->num_edges() != arcs.size() / (directed ? 1 : 2)) __builtin_trap();
  bool heavy = false;
  for (const auto& [key, w] : arcs) heavy |= w != 1;
  if (csr->weighted() != heavy) __builtin_trap();
  CheckAgainst(*csr, /*in_side=*/false, arcs);
  if (directed) CheckAgainst(*csr, /*in_side=*/true, arcs);
  return 0;
}

namespace hopdb_fuzz {

std::vector<std::string> SeedInputs() {
  const auto file = [](uint32_t flags,
                       const std::vector<std::vector<uint32_t>>& records) {
    const bool weighted = (flags & 2u) != 0;
    std::string bytes = "HGR1";
    hopdb::PutU32(&bytes, flags);
    hopdb::PutU32(&bytes, 9);  // vertex 8 is isolated
    hopdb::PutU64(&bytes, records.size());
    for (const std::vector<uint32_t>& r : records) {
      hopdb::PutU32(&bytes, r[0]);
      hopdb::PutU32(&bytes, r[1]);
      if (weighted) hopdb::PutU32(&bytes, r[2]);
    }
    return bytes;
  };
  std::vector<std::string> seeds;
  // flags: 0 undirected, 1 directed, 2 undirected and weighted, 3
  // directed and weighted.
  for (const uint32_t flags : {0u, 1u, 3u}) {
    seeds.push_back(file(flags, {{0, 1, 5}, {1, 0, 3}, {2, 3, 7}, {2, 3, 2},
                                 {4, 4, 1}, {3, 5, 4}, {5, 6, 1}, {6, 7, 2},
                                 {7, 0, 9}, {1, 6, 6}}));
  }
  seeds.push_back(file(2, {{0, 1, 1}, {1, 0, 1}, {2, 3, 1}, {4, 4, 1},
                           {3, 5, 1}, {5, 6, 1}, {7, 0, 1}}));
  seeds.push_back(file(3, {{0, 1, 7}, {0, 1, 1}, {2, 3, 1}, {5, 5, 9},
                           {3, 5, 1}, {5, 6, 1}, {7, 0, 1}}));
  return seeds;
}

}  // namespace hopdb_fuzz
