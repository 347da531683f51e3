#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace hopdb_bench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(const char* name, int32_t parent, uint64_t request_id) {
  if (!enabled_) return kNoSpan;
  const int64_t now = NowNs();
  return Add(name, now, now, parent, request_id);
}

void Tracer::End(int32_t id) {
  if (id == kNoSpan) return;
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
}

int32_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int32_t parent, uint64_t request_id) {
  if (!enabled_) return kNoSpan;
  spans_.push_back(Span{name, start_ns, end_ns, parent, request_id});
  return static_cast<int32_t>(spans_.size() - 1);
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(file,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"request_id\": %llu, "
                 "\"self_ns\": %lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<long long>(self[i]));
  }
  return std::fclose(file) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == kNoSpan) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t start = std::max(s.start_ns, p.start_ns);
    const int64_t end = std::min(s.end_ns, p.end_ns);
    if (start < end) {
      children[static_cast<size_t>(s.parent)].emplace_back(start, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

}  // namespace hopdb_bench
