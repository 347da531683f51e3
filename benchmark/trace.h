// In-memory spans recorded by the benchmark around its own calls into
// each layer of hopdb (nothing inside the library is traced).
//
// A span has a name, a start and end on the steady clock, the span that
// caused it, and the id of the request it belongs to. Spans stay in
// memory and are written out once, when the run ends. A span's self time
// is its duration minus the part of its interval its children cover.

#ifndef HOPDB_BENCHMARK_TRACE_H_
#define HOPDB_BENCHMARK_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hopdb_bench {

/// Steady-clock nanoseconds.
int64_t NowNs();

inline constexpr int32_t kNoSpan = -1;

struct Span {
  const char* name;  // static string
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;       // index of the causing span, or kNoSpan
  uint64_t request_id;  // 0 when the span serves no single request
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span now; returns its id (kNoSpan when disabled).
  int32_t Begin(const char* name, int32_t parent = kNoSpan,
                uint64_t request_id = 0);
  /// Closes span `id` now (no-op for kNoSpan).
  void End(int32_t id);
  /// Records an already finished span.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int32_t parent, uint64_t request_id = 0);

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: id, name, start_ns, end_ns, parent,
  /// request_id, self_ns. False when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to its own. Same order as `spans`.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace hopdb_bench

#endif  // HOPDB_BENCHMARK_TRACE_H_
