#include "graph/graph_io.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <unordered_map>

#include "io/block_file.h"
#include "io/window_reader.h"
#include "util/serde.h"
#include "util/string_util.h"

namespace hopdb {

namespace {

constexpr char kMagic[4] = {'H', 'G', 'R', '1'};

/// Splits a line into up to 3 whitespace-separated numeric fields.
/// Returns the number of fields found, or -1 on malformed content.
int SplitFields(const std::string& line, uint64_t fields[3]) {
  int count = 0;
  size_t i = 0;
  const size_t n = line.size();
  while (i < n) {
    while (i < n && (line[i] == ' ' || line[i] == '\t' || line[i] == '\r')) {
      ++i;
    }
    if (i >= n) break;
    if (count == 3) return -1;  // too many fields
    uint64_t v = 0;
    bool any = false;
    while (i < n && line[i] >= '0' && line[i] <= '9') {
      v = v * 10 + static_cast<uint64_t>(line[i] - '0');
      any = true;
      ++i;
    }
    if (!any) return -1;  // non-numeric field
    fields[count++] = v;
  }
  return count;
}

/// Parses a text edge list as it is written: not normalized.
Result<EdgeList> ParseTextEdges(const std::string& text,
                                const TextGraphOptions& options) {
  EdgeList out(0, options.directed);
  std::unordered_map<uint64_t, VertexId> remap;
  auto map_id = [&](uint64_t raw) -> VertexId {
    if (!options.compact_ids) return static_cast<VertexId>(raw);
    auto [it, inserted] =
        remap.try_emplace(raw, static_cast<VertexId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  size_t pos = 0;
  size_t line_no = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    std::string trimmed = TrimString(line);
    if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '%') continue;
    uint64_t f[3];
    int nf = SplitFields(trimmed, f);
    if (nf < 2) {
      return Status::InvalidArgument("malformed edge at line " +
                                     std::to_string(line_no) + ": " + trimmed);
    }
    Distance w = 1;
    if (nf == 3 && options.read_weights) {
      if (f[2] == 0 || f[2] >= kInfDistance) {
        return Status::InvalidArgument("bad weight at line " +
                                       std::to_string(line_no));
      }
      w = static_cast<Distance>(f[2]);
    }
    // The source is numbered before the destination: first-appearance
    // order, on any compiler (argument evaluation order is unspecified).
    const VertexId src = map_id(f[0]);
    const VertexId dst = map_id(f[1]);
    out.Add(src, dst, w);
  }
  return out;
}

/// The fixed part of an HGR1 file: magic, flags, |V|, |E|.
constexpr uint64_t kHeaderBytes = 20;

struct Hgr1Header {
  bool directed = false;
  bool weighted = false;
  VertexId num_vertices = 0;
  uint64_t num_edges = 0;

  bool operator==(const Hgr1Header&) const = default;
};

/// Reads the header from the start of the file and checks it. The
/// header's count must account for the whole file: exactly num_edges
/// records follow it, so a count the file cannot hold is refused before
/// it sizes anything, and so are bytes after the last record.
Status ReadHgr1Header(WindowReader* reader, uint64_t file_size,
                      const std::string& path, Hgr1Header* header) {
  reader->Rewind(/*hash_end=*/0);
  const uint8_t* bytes = nullptr;
  if (file_size >= kHeaderBytes) {
    HOPDB_RETURN_NOT_OK(reader->Take(kHeaderBytes, &bytes));
  }
  if (bytes == nullptr || std::memcmp(bytes, kMagic, 4) != 0) {
    return Status::InvalidArgument("not a HGR1 graph file: " + path);
  }
  const uint32_t flags = DecodeU32(bytes + 4);
  header->directed = (flags & 1u) != 0;
  header->weighted = (flags & 2u) != 0;
  header->num_vertices = DecodeU32(bytes + 8);
  header->num_edges = DecodeU64(bytes + 12);
  const uint64_t record = header->weighted ? 12 : 8;
  const uint64_t body = file_size - kHeaderBytes;
  if (header->num_edges > body / record) {
    return Status::InvalidArgument(
        "HGR1 file is truncated: its header counts " +
        std::to_string(header->num_edges) + " edges but " +
        std::to_string(body) + " bytes of records follow: " + path);
  }
  if (header->num_edges * record != body) {
    return Status::InvalidArgument(
        "HGR1 file has " + std::to_string(body - header->num_edges * record) +
        " bytes after its last record: " + path);
  }
  return Status::OK();
}

/// Reads the records after the header, as many whole records as the
/// window holds at a time, and calls emit(src, dst, weight) for each.
/// Every record is checked first: both endpoints below num_vertices
/// and, in a weighted file, a weight in [1, inf).
template <typename Emit>
Status WalkHgr1Records(WindowReader* reader, const Hgr1Header& header,
                       const std::string& path, Emit&& emit) {
  const size_t record = header.weighted ? 12 : 8;
  const VertexId n = header.num_vertices;
  for (uint64_t i = 0; i < header.num_edges;) {
    HOPDB_RETURN_NOT_OK(reader->Fill(record));
    const uint64_t take = std::min<uint64_t>(header.num_edges - i,
                                             reader->buffered() / record);
    const uint8_t* at = reader->Consume(static_cast<size_t>(take) * record);
    for (const uint64_t stop = i + take; i < stop; ++i, at += record) {
      const VertexId src = DecodeU32(at);
      const VertexId dst = DecodeU32(at + 4);
      const Distance weight = header.weighted ? DecodeU32(at + 8) : 1;
      if (src >= n || dst >= n) {
        return Status::InvalidArgument(
            "HGR1 edge " + std::to_string(i) + " (" + std::to_string(src) +
            "->" + std::to_string(dst) + ") has an endpoint out of range "
            "for |V|=" + std::to_string(n) + ": " + path);
      }
      if (weight == 0 || weight == kInfDistance) {
        return Status::InvalidArgument(
            "HGR1 edge " + std::to_string(i) + " has weight " +
            std::to_string(weight) + ", outside [1, inf): " + path);
      }
      emit(src, dst, weight);
    }
  }
  return Status::OK();
}

/// Refuses a graph that cannot be relabeled through `ranking`.
Status CheckVertexCount(VertexId num_vertices, const RankMapping* ranking,
                        const std::string& path) {
  if (ranking == nullptr || num_vertices == ranking->size()) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "graph has " + std::to_string(num_vertices) +
      " vertices but the index was built over " +
      std::to_string(ranking->size()) + ": " + path);
}

}  // namespace

Result<EdgeList> ParseTextEdgeList(const std::string& text,
                                   const TextGraphOptions& options) {
  HOPDB_ASSIGN_OR_RETURN(EdgeList edges, ParseTextEdges(text, options));
  edges.Normalize();
  return edges;
}

Result<EdgeList> ReadTextEdgeList(const std::string& path,
                                  const TextGraphOptions& options) {
  std::string text;
  HOPDB_RETURN_NOT_OK(ReadFileToString(path, &text));
  return ParseTextEdgeList(text, options);
}

Status WriteTextEdgeList(const EdgeList& edges, const std::string& path) {
  std::string out;
  out.reserve(edges.num_edges() * 16);
  out += "# hopdb edge list |V|=" + std::to_string(edges.num_vertices()) +
         " |E|=" + std::to_string(edges.num_edges()) +
         (edges.directed() ? " directed" : " undirected") + "\n";
  char buf[64];
  for (const Edge& e : edges.edges()) {
    if (edges.weighted()) {
      std::snprintf(buf, sizeof(buf), "%u %u %u\n", e.src, e.dst, e.weight);
    } else {
      std::snprintf(buf, sizeof(buf), "%u %u\n", e.src, e.dst);
    }
    out += buf;
  }
  return WriteStringToFile(path, out);
}

Status WriteBinaryGraph(const EdgeList& edges, const std::string& path) {
  std::string out;
  out.reserve(20 + edges.num_edges() * 12);
  out.append(kMagic, 4);
  uint32_t flags = (edges.directed() ? 1u : 0u) | (edges.weighted() ? 2u : 0u);
  PutU32(&out, flags);
  PutU32(&out, edges.num_vertices());
  PutU64(&out, edges.num_edges());
  for (const Edge& e : edges.edges()) {
    PutU32(&out, e.src);
    PutU32(&out, e.dst);
    if (edges.weighted()) PutU32(&out, e.weight);
  }
  return WriteStringToFile(path, out);
}

Result<EdgeList> ReadBinaryGraph(const std::string& path) {
  HOPDB_ASSIGN_OR_RETURN(BlockFile file, BlockFile::OpenRead(path));
  WindowReader reader(&file);
  Hgr1Header header;
  HOPDB_RETURN_NOT_OK(ReadHgr1Header(&reader, file.size(), path, &header));
  EdgeList out(header.num_vertices, header.directed);
  out.set_weighted(header.weighted);
  out.mutable_edges().reserve(header.num_edges);
  HOPDB_RETURN_NOT_OK(WalkHgr1Records(
      &reader, header, path, [&out](VertexId src, VertexId dst, Distance w) {
        out.mutable_edges().emplace_back(src, dst, w);
      }));
  return out;
}

bool IsBinaryGraphPath(const std::string& path) {
  return EndsWith(path, ".hgr") || EndsWith(path, ".bin");
}

Result<CsrGraph> LoadCsrGraph(const std::string& path, bool directed,
                              bool read_weights, const RankMapping* ranking) {
  const VertexId* rank =
      ranking == nullptr ? nullptr : ranking->orig_to_rank.data();
  const auto relabel = [rank](VertexId v) {
    return rank == nullptr ? v : rank[v];
  };
  if (IsBinaryGraphPath(path)) {
    HOPDB_ASSIGN_OR_RETURN(BlockFile file, BlockFile::OpenRead(path));
    WindowReader reader(&file);
    Hgr1Header header;
    HOPDB_RETURN_NOT_OK(ReadHgr1Header(&reader, file.size(), path, &header));
    HOPDB_RETURN_NOT_OK(CheckVertexCount(header.num_vertices, ranking, path));
    // Each pass reads the file from its start; a header that differs
    // from the first pass's means the file changed in between.
    return CsrGraph::Freeze(
        header.num_vertices, header.directed, [&](auto&& emit) -> Status {
          Hgr1Header again;
          HOPDB_RETURN_NOT_OK(
              ReadHgr1Header(&reader, file.size(), path, &again));
          if (again != header) {
            return Status::InvalidArgument(
                "HGR1 file changed while loading: " + path);
          }
          return WalkHgr1Records(
              &reader, header, path,
              [&](VertexId src, VertexId dst, Distance w) {
                emit(relabel(src), relabel(dst), w);
              });
        });
  }
  TextGraphOptions options;
  options.directed = directed;
  options.read_weights = read_weights;
  EdgeList edges;
  {
    std::string text;
    HOPDB_RETURN_NOT_OK(ReadFileToString(path, &text));
    HOPDB_ASSIGN_OR_RETURN(edges, ParseTextEdges(text, options));
  }
  HOPDB_RETURN_NOT_OK(CheckVertexCount(edges.num_vertices(), ranking, path));
  return CsrGraph::Freeze(
      edges.num_vertices(), edges.directed(), [&](auto&& emit) {
        for (const Edge& e : edges.edges()) {
          emit(relabel(e.src), relabel(e.dst), e.weight);
        }
        return Status::OK();
      });
}

}  // namespace hopdb
