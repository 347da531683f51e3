// Fuzz target for the HLI2 mapped-index loader: arbitrary bytes are
// written to a scratch file and handed to MappedIndex::Open with full
// arena verification. Properties checked on every input:
//   - Open never crashes on truncated/corrupt/hostile files, it returns
//     a Status (the loader's documented contract);
//   - a file that passes validation serves in-range queries without
//     crashing and with a consistent id permutation.
// The seed corpus is two small valid HLI2 images in the packed
// version-4 layout (offsets, arenas ending in 16 tail lanes), one with
// one-byte distance lanes and one whose weights of 128 and more give it
// 4-byte lanes, so mutation starts from files that exercise the deep
// (post-magic) validation paths — the offset table's checks among them
// — at both widths. A file that passes is queried on every pair of its
// first 8 vertices, so the kernels' block loads past each label's end
// run over the mapping under ASan.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_common.h"
#include "graph/csr_graph.h"
#include "graph/edge_list.h"
#include "hopdb.h"
#include "labeling/mapped_index.h"
#include "util/serde.h"

namespace {

const std::string& ScratchPath() {
  static const hopdb_fuzz::ScratchFile file("hli2", ".bin");
  return file.path();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string path = ScratchPath();
  const std::string bytes(reinterpret_cast<const char*>(data), size);
  if (!hopdb::WriteStringToFile(path, bytes).ok()) return 0;

  hopdb::MappedIndex::OpenOptions options;
  options.verify_arenas = true;
  auto mapped = hopdb::MappedIndex::Open(path, options);
  if (!mapped.ok()) return 0;  // rejection is the expected outcome

  const hopdb::VertexId n = mapped->num_vertices();
  for (hopdb::VertexId v = 0; v < n && v < 8; ++v) {
    const hopdb::VertexId internal = mapped->ToInternal(v);
    if (internal >= n || mapped->ToOriginal(internal) != v) {
      __builtin_trap();  // validated permutation must be a bijection
    }
    if (mapped->Query(v, v) != 0) __builtin_trap();
    (void)mapped->Query(v, n - 1 - v);
    for (hopdb::VertexId t = 0; t < n && t < 8; ++t) {
      (void)mapped->Query(v, t);
    }
  }
  return 0;
}

namespace hopdb_fuzz {

std::vector<std::string> SeedInputs() {
  // A small weighted graph, indexed and serialized to HLI2: six
  // vertices (one-byte lanes), then the same with a pendant seventh
  // vertex behind an edge of weight 200 (4-byte lanes).
  std::vector<std::string> seeds;
  for (const bool heavy : {false, true}) {
    hopdb::EdgeList edges;
    edges.set_directed(false);
    edges.set_weighted(true);
    edges.Add(0, 1, 2);
    edges.Add(1, 2, 1);
    edges.Add(2, 3, 4);
    edges.Add(3, 4, 1);
    edges.Add(0, 5, 7);
    edges.Add(5, 4, 1);
    if (heavy) edges.Add(4, 6, 200);
    auto graph = hopdb::CsrGraph::FromEdgeList(edges);
    if (!graph.ok()) continue;
    auto index = hopdb::HopDbIndex::Build(std::move(*graph));
    if (!index.ok()) continue;
    const std::string path = ScratchPath() + ".seed";
    if (!hopdb::MappedIndex::Write(index->label_index(), index->ranking(),
                                   path)
             .ok()) {
      continue;
    }
    std::string bytes;
    const hopdb::Status read = hopdb::ReadFileToString(path, &bytes);
    std::remove(path.c_str());
    if (read.ok()) seeds.push_back(std::move(bytes));
  }
  return seeds;
}

}  // namespace hopdb_fuzz
