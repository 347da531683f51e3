// Shared plumbing for the table/figure reproduction binaries: common
// flags, dataset iteration, ranked-graph preparation, and coverage math.
//
// Every binary runs with NO arguments using the tier-0 datasets at scale
// 1.0 (a few minutes total) and exposes flags to reproduce larger
// settings:
//   --tier N     also run datasets of tier <= N (1..3; big = slow)
//   --scale X    multiply stand-in vertex counts
//   --queries N  query-workload size
//   --budget S   per-method time budget in seconds (0 = unlimited)
//   --data_dir D directory with real "<name>.txt" edge lists (optional)
//   --datasets a,b,c   explicit dataset list (overrides --tier)

#ifndef HOPDB_BENCH_BENCH_COMMON_H_
#define HOPDB_BENCH_BENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "eval/datasets.h"
#include "eval/table.h"
#include "eval/workload.h"
#include "graph/ranking.h"
#include "labeling/builder.h"
#include "util/cli.h"
#include "util/status.h"

namespace hopdb {
namespace bench {

struct BenchEnv {
  CliFlags flags;
  int tier = 0;
  double scale = 1.0;
  size_t queries = 10000;
  double budget_seconds = 60.0;
  std::string data_dir;
  std::vector<std::string> dataset_filter;
};

/// Defines the common flags, parses argv, handles --help (returns false
/// to exit), and fills the env.
bool InitBenchEnv(int argc, char** argv, const std::string& description,
                  BenchEnv* env);

/// Datasets selected by the env (tier filter or explicit list).
std::vector<DatasetSpec> SelectDatasets(const BenchEnv& env);

/// A dataset loaded and rank-relabeled, ready for any builder.
struct PreparedGraph {
  DatasetSpec spec;
  CsrGraph ranked;
  uint64_t graph_paper_bytes = 0;
  uint32_t max_degree = 0;
};

Result<PreparedGraph> PrepareDataset(const DatasetSpec& spec,
                                     const BenchEnv& env);

/// Entry-coverage CDF: fraction[i] = share of all label entries whose
/// pivot rank is < checkpoints[i] (as an absolute vertex count).
std::vector<double> PivotCoverage(const std::vector<uint64_t>& per_pivot,
                                  const std::vector<VertexId>& checkpoints);

/// Smallest percentage of top-ranked vertices covering `target` share of
/// entries (Table 7's last three columns).
double PercentForCoverage(const std::vector<uint64_t>& per_pivot,
                          double target);

/// "12.3" style MB rendering of the paper's byte accounting.
std::string Mb(uint64_t bytes);

/// Seconds with adaptive precision, or the DNF dash on error.
std::string SecondsOrDash(const Status& status, double seconds);

// ---------------------------------------------------------------------------
// Machine-readable (BENCH_*.json) resource accounting, shared by every
// JSON-emitting bench so regressions in memory and per-phase time are
// trackable across PRs, not just wall clock.
// ---------------------------------------------------------------------------

/// Peak resident set size of this process in bytes (getrusage ru_maxrss);
/// 0 when the platform doesn't report it.
uint64_t PeakRssBytes();

/// Resident set size of this process now, in bytes (/proc/self/statm);
/// 0 when the platform doesn't report it.
uint64_t CurrentRssBytes();

/// Runs fn(out) in a forked child, whose ru_maxrss starts from the RSS
/// it inherits here, so a peak the child reads is that of its own work.
/// fn fills the child's copy of the `size` bytes at `out`; the child
/// writes them to a pipe, which the parent reads back into `out`, and
/// _exits, so its copies of the caller's objects run no destructors and
/// its copy of unflushed stdout is not printed again. The caller must
/// have no other thread alive, so that the child is a consistent copy.
/// `what` names the run in errors.
Status RunInChildBytes(const std::string& what, void* out, size_t size,
                       const std::function<Status(void* out)>& fn);

/// RunInChildBytes for fn() returning Result<T>, T trivially copyable.
template <typename T, typename Fn>
Result<T> RunInChild(const std::string& what, const Fn& fn) {
  static_assert(std::is_trivially_copyable_v<T>);
  T value{};
  HOPDB_RETURN_NOT_OK(
      RunInChildBytes(what, &value, sizeof(T), [&](void* out) -> Status {
        HOPDB_ASSIGN_OR_RETURN(*static_cast<T*>(out), fn());
        return Status::OK();
      }));
  return value;
}

/// One named phase of a benchmarked pipeline.
struct PhaseTiming {
  std::string name;
  double seconds = 0;
};

/// `"phases": {"gen": 1.23, ...}` — one JSON object line (no trailing
/// comma or newline) for embedding in a bench's JSON output.
std::string PhasesJson(const std::vector<PhaseTiming>& phases);

/// Hardware cache-miss / branch-miss counters over perf_event_open,
/// for attributing layout wins (cacheline blocking) to actual memory
/// behavior rather than wall clock alone. Counting is per-thread
/// (this thread), user-space only.
///
/// Gracefully degrades: available() is false — and Stop() returns
/// zeros — when the kernel forbids the syscall (perf_event_paranoid,
/// seccomp, containers without CAP_PERFMON) or on non-Linux builds.
/// Callers must treat zero readings behind available()==false as "not
/// measured", never as "no misses".
class PerfCounters {
 public:
  PerfCounters();
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  bool available() const { return cache_fd_ >= 0 && branch_fd_ >= 0; }

  /// Resets both counters to zero and starts counting.
  void Start();

  struct Reading {
    uint64_t cache_misses = 0;
    uint64_t branch_misses = 0;
  };
  /// Stops counting and returns the deltas since Start(). Zeros when
  /// unavailable.
  Reading Stop();

 private:
  int cache_fd_ = -1;
  int branch_fd_ = -1;
};

}  // namespace bench
}  // namespace hopdb

#endif  // HOPDB_BENCH_BENCH_COMMON_H_
