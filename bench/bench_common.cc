#include "bench_common.h"

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>

#include <cstring>
#endif

#include "util/logging.h"
#include "util/string_util.h"

namespace hopdb {
namespace bench {

bool InitBenchEnv(int argc, char** argv, const std::string& description,
                  BenchEnv* env) {
  env->flags.Define("tier", "0", "include datasets up to this tier (0-3)");
  env->flags.Define("scale", "1.0", "stand-in size multiplier");
  env->flags.Define("queries", "10000", "query workload size");
  env->flags.Define("budget", "60",
                    "per-method time budget in seconds (0 = unlimited)");
  env->flags.Define("data_dir", "",
                    "directory with real <name>.txt edge lists");
  env->flags.Define("datasets", "",
                    "comma-separated dataset names (overrides --tier)");
  Status st = env->flags.Parse(argc, argv);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n%s", st.ToString().c_str(),
                 env->flags.Usage(description).c_str());
    return false;
  }
  if (env->flags.help_requested()) {
    std::fprintf(stdout, "%s", env->flags.Usage(description).c_str());
    return false;
  }
  env->tier = static_cast<int>(env->flags.GetInt("tier"));
  env->scale = env->flags.GetDouble("scale").ValueOrDie();
  env->queries = env->flags.GetUint("queries").ValueOrDie();
  env->budget_seconds = env->flags.GetDouble("budget").ValueOrDie();
  env->data_dir = env->flags.GetString("data_dir");
  std::string names = env->flags.GetString("datasets");
  if (!names.empty()) {
    env->dataset_filter = SplitString(names, ',');
  }
  return true;
}

std::vector<DatasetSpec> SelectDatasets(const BenchEnv& env) {
  std::vector<DatasetSpec> out;
  if (!env.dataset_filter.empty()) {
    for (const std::string& name : env.dataset_filter) {
      const DatasetSpec* spec = FindDataset(name);
      HOPDB_CHECK(spec != nullptr) << "unknown dataset: " << name;
      out.push_back(*spec);
    }
    return out;
  }
  for (const DatasetSpec& spec : Table6Datasets()) {
    if (spec.tier <= env.tier) out.push_back(spec);
  }
  return out;
}

Result<PreparedGraph> PrepareDataset(const DatasetSpec& spec,
                                     const BenchEnv& env) {
  LoadOptions load;
  load.scale = env.scale;
  load.data_dir = env.data_dir;
  HOPDB_ASSIGN_OR_RETURN(CsrGraph graph, LoadDataset(spec, load));
  RankMapping mapping = ComputeRanking(
      graph, graph.directed() ? RankingPolicy::kInOutProduct
                              : RankingPolicy::kDegree);
  PreparedGraph prepared;
  prepared.spec = spec;
  prepared.graph_paper_bytes = graph.PaperSizeBytes();
  prepared.max_degree = graph.MaxDegree();
  HOPDB_ASSIGN_OR_RETURN(prepared.ranked, RelabelByRank(graph, mapping));
  return prepared;
}

std::vector<double> PivotCoverage(const std::vector<uint64_t>& per_pivot,
                                  const std::vector<VertexId>& checkpoints) {
  uint64_t total = 0;
  for (uint64_t c : per_pivot) total += c;
  std::vector<double> out;
  out.reserve(checkpoints.size());
  uint64_t sum = 0;
  size_t next = 0;
  for (VertexId v = 0; v <= per_pivot.size(); ++v) {
    while (next < checkpoints.size() && checkpoints[next] == v) {
      out.push_back(total == 0 ? 1.0
                               : static_cast<double>(sum) /
                                     static_cast<double>(total));
      ++next;
    }
    if (v < per_pivot.size()) sum += per_pivot[v];
  }
  while (next++ < checkpoints.size()) out.push_back(1.0);
  return out;
}

double PercentForCoverage(const std::vector<uint64_t>& per_pivot,
                          double target) {
  uint64_t total = 0;
  for (uint64_t c : per_pivot) total += c;
  if (total == 0 || per_pivot.empty()) return 0.0;
  uint64_t goal = static_cast<uint64_t>(target * static_cast<double>(total));
  uint64_t sum = 0;
  for (VertexId v = 0; v < per_pivot.size(); ++v) {
    sum += per_pivot[v];
    if (sum >= goal) {
      return 100.0 * static_cast<double>(v + 1) /
             static_cast<double>(per_pivot.size());
    }
  }
  return 100.0;
}

std::string Mb(uint64_t bytes) {
  double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  if (mb >= 100) return FormatDouble(mb, 0);
  if (mb >= 1) return FormatDouble(mb, 1);
  return FormatDouble(mb, 2);
}

std::string SecondsOrDash(const Status& status, double seconds) {
  if (!status.ok()) return AsciiTable::Dash();
  return FormatDouble(seconds, seconds < 10 ? 2 : 1);
}

uint64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // ru_maxrss is kilobytes on Linux, bytes on macOS.
#if defined(__APPLE__)
  return static_cast<uint64_t>(usage.ru_maxrss);
#else
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
#endif
#else
  return 0;
#endif
}

uint64_t CurrentRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const bool read = std::fscanf(f, "%llu %llu", &pages, &resident) == 2;
  std::fclose(f);
  return read ? resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) : 0;
}

Status RunInChildBytes(const std::string& what, void* out, size_t size,
                       const std::function<Status(void* out)>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    const Status status = fn(out);
    if (!status.ok()) {
      std::cerr << what << ": " << status << "\n";
      ::_exit(1);
    }
    const bool sent =
        ::write(fds[1], out, size) == static_cast<ssize_t>(size);
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  const bool received =
      ::read(fds[0], out, size) == static_cast<ssize_t>(size);
  ::close(fds[0]);
  int wstatus = 0;
  const bool reaped = ::waitpid(pid, &wstatus, 0) == pid;
  if (!received || !reaped || !WIFEXITED(wstatus) ||
      WEXITSTATUS(wstatus) != 0) {
    return Status::Internal(what + " failed");
  }
  return Status::OK();
}

std::string PhasesJson(const std::vector<PhaseTiming>& phases) {
  std::string out = "\"phases\": {";
  for (size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + phases[i].name + "\": " + FormatDouble(phases[i].seconds, 3);
  }
  out += "}";
  return out;
}

#if defined(__linux__)
namespace {

int OpenHardwareCounter(uint64_t config) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config;
  attr.disabled = 1;
  attr.exclude_kernel = 1;  // user-space only; also lowers the
  attr.exclude_hv = 1;      // perf_event_paranoid bar in containers
  return static_cast<int>(syscall(SYS_perf_event_open, &attr,
                                  /*pid=*/0, /*cpu=*/-1,
                                  /*group_fd=*/-1, /*flags=*/0UL));
}

uint64_t ReadCounter(int fd) {
  uint64_t value = 0;
  if (read(fd, &value, sizeof(value)) != sizeof(value)) return 0;
  return value;
}

}  // namespace

PerfCounters::PerfCounters() {
  cache_fd_ = OpenHardwareCounter(PERF_COUNT_HW_CACHE_MISSES);
  branch_fd_ = OpenHardwareCounter(PERF_COUNT_HW_BRANCH_MISSES);
  if (cache_fd_ < 0 || branch_fd_ < 0) {
    // All-or-nothing: a half-available pair would skew comparisons.
    if (cache_fd_ >= 0) close(cache_fd_);
    if (branch_fd_ >= 0) close(branch_fd_);
    cache_fd_ = branch_fd_ = -1;
  }
}

PerfCounters::~PerfCounters() {
  if (cache_fd_ >= 0) close(cache_fd_);
  if (branch_fd_ >= 0) close(branch_fd_);
}

void PerfCounters::Start() {
  if (!available()) return;
  ioctl(cache_fd_, PERF_EVENT_IOC_RESET, 0);
  ioctl(branch_fd_, PERF_EVENT_IOC_RESET, 0);
  ioctl(cache_fd_, PERF_EVENT_IOC_ENABLE, 0);
  ioctl(branch_fd_, PERF_EVENT_IOC_ENABLE, 0);
}

PerfCounters::Reading PerfCounters::Stop() {
  Reading reading;
  if (!available()) return reading;
  ioctl(cache_fd_, PERF_EVENT_IOC_DISABLE, 0);
  ioctl(branch_fd_, PERF_EVENT_IOC_DISABLE, 0);
  reading.cache_misses = ReadCounter(cache_fd_);
  reading.branch_misses = ReadCounter(branch_fd_);
  return reading;
}
#else
PerfCounters::PerfCounters() = default;
PerfCounters::~PerfCounters() = default;
void PerfCounters::Start() {}
PerfCounters::Reading PerfCounters::Stop() { return Reading(); }
#endif

}  // namespace bench
}  // namespace hopdb
