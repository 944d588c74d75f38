#ifndef PERFBENCH_DRIVER_SPANS_H_
#define PERFBENCH_DRIVER_SPANS_H_

// The benchmark's own spans, recorded around each call into a layer of the
// program (EstimateTracked, ReportActual, ChoosePlan, ScorePlans, ...).
// Spans are kept in memory, one buffer per thread, and written out when the
// run ends. Every span carries the request it belongs to and the span that
// caused it, so a layer's self time is its duration minus the part of it
// that child spans cover.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct Span {
  const char* name = nullptr;  // string literal
  uint64_t request = 0;
  uint32_t id = 0;      // unique per run, never 0
  uint32_t parent = 0;  // 0 = root
  uint32_t thread = 0;
  int64_t begin_ns = 0;  // steady clock
  int64_t end_ns = 0;
};

// Monotonic nanoseconds (steady clock).
int64_t NowNs();

class SpanLog {
 public:
  static bool enabled();
  static void SetEnabled(bool on);

  // Records one span with explicit bounds (for intervals that do not map
  // onto a lexical scope, such as an open-loop request's wait for a free
  // sender). Returns its id, or 0 while disabled.
  static uint32_t Record(const char* name, uint64_t request, uint32_t parent,
                         int64_t begin_ns, int64_t end_ns);

  // Every recorded span, all threads.
  static std::vector<Span> Collect();
  static void Clear();
};

// RAII span around a scope. The parent defaults to the innermost open
// Scope on this thread, and the request id to the parent's.
class SpanScope {
 public:
  SpanScope(const char* name, uint64_t request);
  explicit SpanScope(const char* name);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint32_t id() const { return id_; }

 private:
  const char* name_ = nullptr;  // null while disabled
  uint64_t request_ = 0;
  uint32_t id_ = 0;
  uint32_t parent_ = 0;
  int64_t begin_ns_ = 0;
  uint32_t saved_current_ = 0;
  uint64_t saved_request_ = 0;
};

// Self time per span id: duration minus the union of its children's
// intervals (clipped to the parent). Indexed like `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

// Chrome trace_event JSON of the benchmark's spans plus the program's own
// (obs::TraceCollector) events, which carry no request id. `trace_epoch_ns`
// maps the program's trace clock onto NowNs().
bool WriteTraceJson(const std::string& path, const std::vector<Span>& spans,
                    const std::vector<dace::obs::TraceEvent>& program_events,
                    int64_t trace_epoch_ns);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SPANS_H_
