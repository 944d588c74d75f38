#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint32_t> g_next_id{1};
std::atomic<uint32_t> g_next_thread{0};

// One buffer per recording thread. Buffers are owned by the registry, not
// the thread, so spans of exited client threads survive until Collect.
struct Buffer {
  uint32_t thread = 0;
  std::mutex mu;  // guards spans (owner appends, Collect/Clear read)
  std::vector<Span> spans;
};

std::mutex g_buffers_mu;  // guards g_buffers
std::vector<std::unique_ptr<Buffer>>& Buffers() {
  static auto* buffers = new std::vector<std::unique_ptr<Buffer>>();
  return *buffers;
}

Buffer* ThisThreadBuffer() {
  thread_local Buffer* buffer = [] {
    auto owned = std::make_unique<Buffer>();
    owned->thread = g_next_thread.fetch_add(1);
    owned->spans.reserve(1 << 14);
    Buffer* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    Buffers().push_back(std::move(owned));
    return raw;
  }();
  return buffer;
}

// Innermost open SpanScope on this thread, and its request.
thread_local uint32_t t_current = 0;
thread_local uint64_t t_request = 0;

void Append(const Span& span) {
  Buffer* buffer = ThisThreadBuffer();
  Span s = span;
  s.thread = buffer->thread;
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->spans.push_back(s);
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SpanLog::enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SpanLog::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

uint32_t SpanLog::Record(const char* name, uint64_t request, uint32_t parent,
                         int64_t begin_ns, int64_t end_ns) {
  if (!enabled()) return 0;
  Span s;
  s.name = name;
  s.request = request;
  s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent;
  s.begin_ns = begin_ns;
  s.end_ns = end_ns;
  Append(s);
  return s.id;
}

std::vector<Span> SpanLog::Collect() {
  std::vector<Span> out;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : Buffers()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

void SpanLog::Clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : Buffers()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->spans.clear();
  }
}

SpanScope::SpanScope(const char* name, uint64_t request) {
  if (!SpanLog::enabled()) return;
  name_ = name;
  request_ = request;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current;
  saved_current_ = t_current;
  saved_request_ = t_request;
  t_current = id_;
  t_request = request;
  begin_ns_ = NowNs();
}

SpanScope::SpanScope(const char* name) : SpanScope(name, t_request) {}

SpanScope::~SpanScope() {
  if (name_ == nullptr) return;
  const int64_t end_ns = NowNs();
  t_current = saved_current_;
  t_request = saved_request_;
  Span s;
  s.name = name_;
  s.request = request_;
  s.id = id_;
  s.parent = parent_;
  s.begin_ns = begin_ns_;
  s.end_ns = end_ns;
  Append(s);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  // Children grouped by parent id, as (begin, end) intervals.
  std::vector<std::pair<uint32_t, size_t>> by_parent;  // (parent, index)
  by_parent.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) by_parent.emplace_back(spans[i].parent, i);
  }
  std::sort(by_parent.begin(), by_parent.end());
  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    intervals.clear();
    auto it = std::lower_bound(by_parent.begin(), by_parent.end(),
                               std::make_pair(s.id, size_t{0}));
    for (; it != by_parent.end() && it->first == s.id; ++it) {
      const Span& c = spans[it->second];
      const int64_t b = std::max(c.begin_ns, s.begin_ns);
      const int64_t e = std::min(c.end_ns, s.end_ns);
      if (e > b) intervals.emplace_back(b, e);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b, e] : intervals) {
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    self[i] = (s.end_ns - s.begin_ns) - covered;
  }
  return self;
}

bool WriteTraceJson(const std::string& path, const std::vector<Span>& spans,
                    const std::vector<dace::obs::TraceEvent>& program_events,
                    int64_t trace_epoch_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = INT64_MAX;
  for (const Span& s : spans) origin = std::min(origin, s.begin_ns);
  for (const auto& e : program_events) {
    origin = std::min(origin, trace_epoch_ns +
                                  static_cast<int64_t>(e.ts_us) * 1000);
  }
  if (origin == INT64_MAX) origin = 0;
  std::fprintf(f, "{\"traceEvents\":[\n");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%llu,"
                 "\"id\":%u,\"parent\":%u}}\n",
                 first ? "" : ",", s.name, s.thread,
                 static_cast<double>(s.begin_ns - origin) / 1000.0,
                 static_cast<double>(s.end_ns - s.begin_ns) / 1000.0,
                 static_cast<unsigned long long>(s.request), s.id, s.parent);
    first = false;
  }
  for (const auto& e : program_events) {
    const int64_t begin_ns =
        trace_epoch_ns + static_cast<int64_t>(e.ts_us) * 1000;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":2,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%llu}\n",
                 first ? "" : ",", e.name, e.tid,
                 static_cast<double>(begin_ns - origin) / 1000.0,
                 static_cast<unsigned long long>(e.dur_us));
    first = false;
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
