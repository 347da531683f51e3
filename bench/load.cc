// Index load-latency bench: how long from "file on disk" to "first
// query answered", per on-disk format — the startup/hot-swap cost the
// HLI2 mmap format exists to eliminate.
//
// For each graph size it builds one index and measures, per format:
//   HLI1 (heap):  Load() deserialization (twice: cold-ish first read and
//                 a warm re-load) + the first query after each
//   HLI2 (mmap):  Open() metadata validation + the first query, plus a
//                 second Open() — the exact RELOAD/remap path
// "Cold" here means "first access after writing" (an unprivileged
// process cannot drop the OS page cache), so the HLI1 numbers are
// dominated by deserialization CPU — precisely the cost mmap avoids —
// and the comparison is conservative: with a truly cold page cache the
// HLI1 gap only widens.
//
// The point the JSON makes: HLI1 load time grows linearly with label
// count; HLI2 open + remap time does not (it is O(|V|) metadata work),
// so hot-swapping a 10x bigger index costs the same milliseconds.
//
// It also reports what one HLI1 load adds to RSS, beside the store it
// builds: Load reads the file through a fixed 1 MiB window, so the
// growth should be the store plus that window, never the file. And it
// reports each file's bytes per label entry: HLI1's entries are
// varints, about 2.3 bytes each on GLP graphs; HLI2 is the store's
// image, a 4-byte pivot and a one-byte distance lane an entry beside the
// offsets and permutations, about 5.5 bytes an entry on the same graphs.
//
//   bench_load            # 20k + 60k GLP sweep (~30 s, build-dominated)
//   bench_load --ci       # seconds-long CI mode, same JSON shape
//
// Emits BENCH_load.json (schema in docs/FORMATS.md; archived by CI).

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "bench_common.h"
#include "gen/glp.h"
#include "hopdb.h"
#include "io/temp_dir.h"
#include "labeling/mapped_index.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/serde.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace hopdb {
namespace {

struct SizeResult {
  VertexId n = 0;
  uint64_t entries = 0;
  uint64_t hli1_bytes = 0;
  uint64_t hli2_bytes = 0;
  double build_seconds = 0;
  double hli1_load_cold_s = 0;
  double hli1_load_warm_s = 0;
  double hli1_first_query_us = 0;
  double hli2_open_cold_s = 0;
  double hli2_remap_s = 0;
  double hli2_first_query_us = 0;
  bool answers_agree = false;
  uint64_t hli1_load_growth_bytes = 0;
  uint64_t hli1_store_bytes = 0;
};

/// A file's bytes per label entry (0 with no entries).
double BytesPerEntry(uint64_t file_bytes, uint64_t entries) {
  return entries == 0 ? 0.0
                      : static_cast<double>(file_bytes) /
                            static_cast<double>(entries);
}

/// What one HLI1 load adds to RSS, and the store it builds.
struct LoadGrowth {
  uint64_t growth_bytes = 0;
  uint64_t store_bytes = 0;
};

/// Loads `path` twice in a forked child and reports the RSS the second
/// load added there. A child's peak RSS starts at the RSS it inherits,
/// so the heap is trimmed before the fork and again before the second
/// load: neither load can then hide its growth in heap pages that were
/// freed but left resident. The child does not inherit the caller's
/// code pages mapped, so the first load maps the loader's.
Result<LoadGrowth> MeasureLoadGrowth(const std::string& path) {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return bench::RunInChild<LoadGrowth>(
      "the HLI1 load of " + path, [&]() -> Result<LoadGrowth> {
        HOPDB_RETURN_NOT_OK(HopDbIndex::Load(path).status());
#ifdef __GLIBC__
        malloc_trim(0);
#endif
        const uint64_t before = bench::CurrentRssBytes();
        HOPDB_ASSIGN_OR_RETURN(HopDbIndex loaded, HopDbIndex::Load(path));
        LoadGrowth g;
        g.growth_bytes = bench::PeakRssBytes() - before;
        g.store_bytes = loaded.label_index().SizeBytes();
        return g;
      });
}

int Run(int argc, char** argv) {
  CliFlags flags;
  flags.Define("sizes", "20000,60000",
               "comma-separated GLP vertex counts to sweep");
  flags.Define("avg-degree", "10", "graph average degree");
  flags.Define("seed", "1", "graph seed");
  flags.Define("queries", "64", "first-query sample count per format");
  flags.Define("out", "BENCH_load.json", "machine-readable output path");
  flags.Define("ci", "false", "CI mode: small sizes, same JSON shape");
  if (!flags.Parse(argc, argv).ok() || flags.help_requested()) {
    std::cout << flags.Usage(
        "bench_load — cold/warm index load + first-query latency per "
        "on-disk format (HLI1 deserialize vs HLI2 mmap)");
    return flags.help_requested() ? 0 : 1;
  }

  const bool ci = flags.GetBool("ci").ValueOrDie();
  const uint64_t seed = flags.GetUint("seed").ValueOrDie();
  const uint64_t num_queries = flags.GetUint("queries").ValueOrDie();
  if (num_queries == 0) {
    // The per-query averages divide by this; 0 would put NaN in the
    // JSON artifact.
    std::cerr << "--queries must be > 0\n";
    return 1;
  }
  std::vector<VertexId> sizes;
  for (const std::string& tok :
       SplitString(ci ? "500,2000" : flags.GetString("sizes"), ',')) {
    uint64_t v = 0;
    if (!ParseUint64(TrimString(tok), &v) || v == 0) {
      std::cerr << "bad --sizes entry '" << tok << "'\n";
      return 1;
    }
    sizes.push_back(static_cast<VertexId>(v));
  }

  auto tmp = TempDir::Create("bench_load");
  if (!tmp.ok()) {
    std::cerr << "temp dir: " << tmp.status() << "\n";
    return 1;
  }

  std::vector<SizeResult> results;
  for (const VertexId n : sizes) {
    SizeResult r;
    r.n = n;

    GlpOptions glp;
    glp.num_vertices = n;
    glp.target_avg_degree = flags.GetDouble("avg-degree").ValueOrDie();
    glp.seed = seed;
    auto edges = GenerateGlp(glp);
    if (!edges.ok()) {
      std::cerr << "graph generation failed: " << edges.status() << "\n";
      return 1;
    }
    Stopwatch build_watch;
    auto built = HopDbIndex::Build(*edges);
    if (!built.ok()) {
      std::cerr << "index build failed: " << built.status() << "\n";
      return 1;
    }
    r.build_seconds = build_watch.Seconds();
    r.entries = built->label_index().TotalEntries();

    const std::string hli1_path = tmp->path() + "/g" + std::to_string(n) +
                                  ".hopdb";
    const std::string hli2_path = hli1_path + ".hli2";
    if (Status s = built->Save(hli1_path); !s.ok()) {
      std::cerr << "save failed: " << s << "\n";
      return 1;
    }
    if (Status s = MappedIndex::Write(built->label_index(), built->ranking(),
                                      hli2_path);
        !s.ok()) {
      std::cerr << "HLI2 write failed: " << s << "\n";
      return 1;
    }
    r.hli1_bytes = FileSizeBytes(hli1_path).ValueOrDie();
    r.hli2_bytes = FileSizeBytes(hli2_path).ValueOrDie();

    // Shared query sample; both formats answer the identical pairs so
    // the first-query numbers (and the cross-check) are comparable.
    std::vector<std::pair<VertexId, VertexId>> pairs;
    {
      Rng rng(DeriveSeed(seed, 13));
      pairs.reserve(num_queries);
      for (uint64_t i = 0; i < num_queries; ++i) {
        pairs.emplace_back(static_cast<VertexId>(rng.Below(n)),
                           static_cast<VertexId>(rng.Below(n)));
      }
    }
    std::vector<Distance> heap_answers, mapped_answers;

    // --- HLI1: full deserialization, twice.
    {
      Stopwatch watch;
      auto loaded = HopDbIndex::Load(hli1_path);
      r.hli1_load_cold_s = watch.Seconds();
      if (!loaded.ok()) {
        std::cerr << "HLI1 load failed: " << loaded.status() << "\n";
        return 1;
      }
      Stopwatch query_watch;
      for (const auto& [s, t] : pairs) {
        heap_answers.push_back(loaded->Query(s, t));
      }
      r.hli1_first_query_us =
          query_watch.Micros() / static_cast<double>(pairs.size());
    }
    {
      Stopwatch watch;
      auto loaded = HopDbIndex::Load(hli1_path);
      r.hli1_load_warm_s = watch.Seconds();
      if (!loaded.ok()) {
        std::cerr << "HLI1 warm load failed: " << loaded.status() << "\n";
        return 1;
      }
    }

    // --- HLI2: mmap open + first queries, then the remap path.
    {
      Stopwatch watch;
      auto mapped = MappedIndex::Open(hli2_path);
      r.hli2_open_cold_s = watch.Seconds();
      if (!mapped.ok()) {
        std::cerr << "HLI2 open failed: " << mapped.status() << "\n";
        return 1;
      }
      Stopwatch query_watch;
      for (const auto& [s, t] : pairs) {
        mapped_answers.push_back(mapped->Query(s, t));
      }
      r.hli2_first_query_us =
          query_watch.Micros() / static_cast<double>(pairs.size());
    }
    {
      // The RELOAD path of an mmap-served index: re-open the (now
      // page-cache-warm) file.
      Stopwatch watch;
      auto remapped = MappedIndex::Open(hli2_path);
      r.hli2_remap_s = watch.Seconds();
      if (!remapped.ok()) {
        std::cerr << "HLI2 remap failed: " << remapped.status() << "\n";
        return 1;
      }
    }
    r.answers_agree = heap_answers == mapped_answers;
    if (!r.answers_agree) {
      std::cerr << "FAIL: HLI2 answers diverge from HLI1 at n=" << n << "\n";
    }

    // --- HLI1 load memory, after the timed loads so that they run on the
    // heap the earlier steps left.
    auto growth = MeasureLoadGrowth(hli1_path);
    if (!growth.ok()) {
      std::cerr << "HLI1 load growth: " << growth.status() << "\n";
      return 1;
    }
    r.hli1_load_growth_bytes = growth->growth_bytes;
    r.hli1_store_bytes = growth->store_bytes;

    std::cout << "n=" << n << " entries=" << r.entries << "\n"
              << "  build             " << FormatDouble(r.build_seconds, 2)
              << " s\n"
              << "  HLI1 file         " << r.hli1_bytes << " B ("
              << FormatDouble(BytesPerEntry(r.hli1_bytes, r.entries), 2)
              << " B/entry)\n"
              << "  HLI2 file         " << r.hli2_bytes << " B ("
              << FormatDouble(BytesPerEntry(r.hli2_bytes, r.entries), 2)
              << " B/entry)\n"
              << "  HLI1 load         "
              << FormatDouble(r.hli1_load_cold_s * 1e3, 2) << " ms (warm "
              << FormatDouble(r.hli1_load_warm_s * 1e3, 2)
              << " ms), first query "
              << FormatDouble(r.hli1_first_query_us, 2) << " us\n"
              << "  HLI2 open         "
              << FormatDouble(r.hli2_open_cold_s * 1e3, 2) << " ms (remap "
              << FormatDouble(r.hli2_remap_s * 1e3, 2)
              << " ms), first query "
              << FormatDouble(r.hli2_first_query_us, 2) << " us\n"
              << "  HLI1 load growth  "
              << FormatDouble(r.hli1_load_growth_bytes / 1048576.0, 2)
              << " MiB (store "
              << FormatDouble(r.hli1_store_bytes / 1048576.0, 2)
              << " MiB)\n";
    results.push_back(r);
  }

  bool all_agree = true;
  std::string per_size_json;
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    all_agree = all_agree && r.answers_agree;
    per_size_json += std::string(i == 0 ? "" : ",\n") + "    {\"n\": " +
                     std::to_string(r.n) +
                     ", \"entries\": " + std::to_string(r.entries) +
                     ", \"build_seconds\": " +
                     FormatDouble(r.build_seconds, 3) +
                     ", \"hli1_bytes\": " + std::to_string(r.hli1_bytes) +
                     ", \"hli1_bytes_per_entry\": " +
                     FormatDouble(BytesPerEntry(r.hli1_bytes, r.entries), 3) +
                     ", \"hli2_bytes\": " + std::to_string(r.hli2_bytes) +
                     ", \"hli2_bytes_per_entry\": " +
                     FormatDouble(BytesPerEntry(r.hli2_bytes, r.entries), 3) +
                     ",\n     \"hli1_load_cold_s\": " +
                     FormatDouble(r.hli1_load_cold_s, 6) +
                     ", \"hli1_load_warm_s\": " +
                     FormatDouble(r.hli1_load_warm_s, 6) +
                     ", \"hli1_first_query_us\": " +
                     FormatDouble(r.hli1_first_query_us, 2) +
                     ",\n     \"hli2_open_cold_s\": " +
                     FormatDouble(r.hli2_open_cold_s, 6) +
                     ", \"hli2_remap_s\": " +
                     FormatDouble(r.hli2_remap_s, 6) +
                     ", \"hli2_first_query_us\": " +
                     FormatDouble(r.hli2_first_query_us, 2) +
                     ", \"answers_agree\": " +
                     (r.answers_agree ? "true" : "false") +
                     ",\n     \"hli1_load_growth_bytes\": " +
                     std::to_string(r.hli1_load_growth_bytes) +
                     ", \"hli1_store_bytes\": " +
                     std::to_string(r.hli1_store_bytes) + "}";
  }

  const std::string out_path = flags.GetString("out");
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n"
      << "  \"bench\": \"load\",\n"
      << "  \"ci_mode\": " << (ci ? "true" : "false") << ",\n"
      << "  \"peak_rss_bytes\": " << bench::PeakRssBytes() << ",\n"
      << "  \"avg_degree\": "
      << FormatDouble(flags.GetDouble("avg-degree").ValueOrDie(), 2) << ",\n"
      << "  \"seed\": " << seed << ",\n"
      << "  \"queries_per_format\": " << num_queries << ",\n"
      << "  \"sizes\": [\n" << per_size_json << "\n  ]\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return all_agree ? 0 : 1;
}

}  // namespace
}  // namespace hopdb

int main(int argc, char** argv) { return hopdb::Run(argc, argv); }
