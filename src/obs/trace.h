#ifndef WDR_OBS_TRACE_H_
#define WDR_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace wdr::obs {

// Structured tracing: RAII Span scopes that time a region, optionally
// record the duration into a Histogram, and — when tracing is enabled —
// emit a structured event (trace id, name, start, duration, parent span,
// key=value attrs) into a process-wide in-memory ring buffer exportable as
// JSON lines.
//
// Overhead contract: with tracing disabled (the default) a Span without a
// histogram costs one relaxed atomic load; a Span with a histogram adds
// two clock reads and one histogram record. Everything heavier (event
// allocation, attr copies, buffer locking) happens only while tracing is
// enabled.
//
// Span parentage is tracked per thread: a span parents to the innermost
// live span of the thread that opens it, so each query traced on one
// thread exports as one tree.

// One completed span, as stored in the ring buffer.
struct TraceEvent {
  uint64_t trace_id = 0;   // root span id of the enclosing trace tree
  uint64_t span_id = 0;
  uint64_t parent_id = 0;  // 0 = root
  std::string name;
  uint64_t start_nanos = 0;  // steady-clock, relative to process start
  uint64_t duration_nanos = 0;
  std::vector<std::pair<std::string, std::string>> attrs;
};

namespace internal {
extern std::atomic<bool> g_trace_enabled;
}  // namespace internal

// Compile-time-inlinable guard: a single relaxed load.
inline bool TraceEnabled() {
  return internal::g_trace_enabled.load(std::memory_order_relaxed);
}

// Turns trace collection on/off. Enabling does not clear prior events.
void SetTraceEnabled(bool enabled);

// Drops all buffered events.
void ClearTrace();

// Default ring capacity; override at run time with SetTraceCapacity.
inline constexpr size_t kDefaultTraceCapacity = 1 << 16;

// Resizes the span ring buffer (values < 1 clamp to 1). Shrinking keeps
// the newest events. Overwritten-before-export events increment the
// `wdr.trace.dropped_spans` counter.
void SetTraceCapacity(size_t capacity);
size_t TraceCapacity();

// Copies the buffered events, oldest first (the buffer keeps the most
// recent TraceCapacity() spans; older ones are overwritten and counted as
// dropped).
std::vector<TraceEvent> TraceEvents();

// Writes one JSON object per line:
//   {"trace":3,"span":3,"parent":1,"name":"wdr.query","start_ns":…,
//    "dur_ns":…,"attrs":{"rows":"42"}}
// Returns the number of lines written.
size_t ExportTraceJsonLines(std::ostream& os);

// RAII trace scope. Cheap enough to leave in hot paths: fully inert
// unless it has a histogram sink or tracing is on.
class Span {
 public:
  explicit Span(const char* name, Histogram* histogram = nullptr)
      : histogram_(histogram) {
    if (histogram_ != nullptr || TraceEnabled()) Begin(name);
  }
  ~Span() {
    if (active_) End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attach a key=value attribute to the trace event. No-ops when the span
  // is not being traced (attrs have no histogram meaning).
  void AddAttr(const char* key, const std::string& value);
  void AddAttr(const char* key, uint64_t value);

  // Elapsed nanoseconds so far (0 for an inert span).
  uint64_t ElapsedNanos() const;

  // Ids of this span while traced; 0 when tracing was off at construction.
  uint64_t span_id() const { return span_id_; }
  uint64_t trace_id() const { return trace_id_; }

 private:
  void Begin(const char* name);  // out of line: clocking + trace setup
  void End();

  Histogram* histogram_ = nullptr;
  bool active_ = false;
  bool traced_ = false;  // emitting an event (tracing was on at Begin)
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t saved_trace_id_ = 0;
  uint64_t start_nanos_ = 0;
  const char* name_ = nullptr;
  std::vector<std::pair<std::string, std::string>> attrs_;
};

// Nanoseconds since process start (steady clock) — the timebase of trace
// events, exposed for tests.
uint64_t TraceNowNanos();

}  // namespace wdr::obs

#endif  // WDR_OBS_TRACE_H_
