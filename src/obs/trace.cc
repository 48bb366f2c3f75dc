#include "obs/trace.h"

#include <chrono>
#include <mutex>

namespace wdr::obs {
namespace internal {
std::atomic<bool> g_trace_enabled{false};
}  // namespace internal

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point ProcessStart() {
  static const Clock::time_point start = Clock::now();
  return start;
}

// Ring buffer of completed spans. Only touched while tracing is enabled,
// so a mutex is fine; the disabled hot path never reaches it.
struct TraceBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;  // ring storage, wraps at `capacity`
  size_t capacity = kDefaultTraceCapacity;
  size_t next = 0;  // insertion slot
  bool wrapped = false;
  std::atomic<uint64_t> next_span_id{1};

  void Push(TraceEvent event) {
    std::lock_guard<std::mutex> lock(mu);
    if (events.size() < capacity) {
      events.push_back(std::move(event));
      next = events.size() % capacity;
    } else {
      events[next] = std::move(event);
      next = (next + 1) % capacity;
      wrapped = true;
      WDR_COUNTER_INC("wdr.trace.dropped_spans");
    }
  }

  // Events oldest-first; callers hold `mu`.
  std::vector<TraceEvent> OrderedLocked() const {
    std::vector<TraceEvent> out;
    out.reserve(events.size());
    if (wrapped) {
      for (size_t i = 0; i < events.size(); ++i) {
        out.push_back(events[(next + i) % events.size()]);
      }
    } else {
      out = events;
    }
    return out;
  }
};

TraceBuffer& Buffer() {
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
}

// Innermost live traced span / enclosing trace of this thread. New spans
// parent to tls_current_span and join tls_current_trace.
thread_local uint64_t tls_current_span = 0;
thread_local uint64_t tls_current_trace = 0;

void AppendJsonEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
}

}  // namespace

uint64_t TraceNowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           ProcessStart())
          .count());
}

void SetTraceEnabled(bool enabled) {
  ProcessStart();  // pin the timebase before the first event
  internal::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void ClearTrace() {
  TraceBuffer& buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  buffer.events.clear();
  buffer.next = 0;
  buffer.wrapped = false;
}

void SetTraceCapacity(size_t capacity) {
  if (capacity < 1) capacity = 1;
  TraceBuffer& buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (capacity == buffer.capacity) return;
  // Re-linearize so the ring invariants hold at the new capacity; keep the
  // newest `capacity` events when shrinking.
  std::vector<TraceEvent> ordered = buffer.OrderedLocked();
  if (ordered.size() > capacity) {
    ordered.erase(ordered.begin(),
                  ordered.begin() + (ordered.size() - capacity));
  }
  buffer.capacity = capacity;
  buffer.events = std::move(ordered);
  buffer.wrapped = buffer.events.size() == capacity;
  buffer.next = buffer.events.size() % capacity;
}

size_t TraceCapacity() {
  TraceBuffer& buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  return buffer.capacity;
}

std::vector<TraceEvent> TraceEvents() {
  TraceBuffer& buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  return buffer.OrderedLocked();
}

size_t ExportTraceJsonLines(std::ostream& os) {
  std::vector<TraceEvent> events = TraceEvents();
  for (const TraceEvent& e : events) {
    std::string line = "{\"trace\":" + std::to_string(e.trace_id) +
                       ",\"span\":" + std::to_string(e.span_id) +
                       ",\"parent\":" + std::to_string(e.parent_id) +
                       ",\"name\":\"";
    AppendJsonEscaped(line, e.name);
    line += "\",\"start_ns\":" + std::to_string(e.start_nanos) +
            ",\"dur_ns\":" + std::to_string(e.duration_nanos) +
            ",\"attrs\":{";
    bool first = true;
    for (const auto& [key, value] : e.attrs) {
      if (!first) line += ',';
      first = false;
      line += '"';
      AppendJsonEscaped(line, key);
      line += "\":\"";
      AppendJsonEscaped(line, value);
      line += '"';
    }
    line += "}}\n";
    os << line;
  }
  return events.size();
}

void Span::Begin(const char* name) {
  active_ = true;
  name_ = name;
  start_nanos_ = TraceNowNanos();
  if (TraceEnabled()) {
    traced_ = true;
    span_id_ = Buffer().next_span_id.fetch_add(1, std::memory_order_relaxed);
    parent_id_ = tls_current_span;
    saved_trace_id_ = tls_current_trace;
    // A span with no enclosing trace starts one: its own id is the trace
    // id every descendant carries.
    trace_id_ = tls_current_trace != 0 ? tls_current_trace : span_id_;
    tls_current_span = span_id_;
    tls_current_trace = trace_id_;
  }
}

void Span::End() {
  uint64_t duration = TraceNowNanos() - start_nanos_;
  if (histogram_ != nullptr) histogram_->RecordNanos(duration);
  if (traced_) {
    tls_current_span = parent_id_;
    tls_current_trace = saved_trace_id_;
    TraceEvent event;
    event.trace_id = trace_id_;
    event.span_id = span_id_;
    event.parent_id = parent_id_;
    event.name = name_;
    event.start_nanos = start_nanos_;
    event.duration_nanos = duration;
    event.attrs = std::move(attrs_);
    Buffer().Push(std::move(event));
  }
}

void Span::AddAttr(const char* key, const std::string& value) {
  if (traced_) attrs_.emplace_back(key, value);
}

void Span::AddAttr(const char* key, uint64_t value) {
  if (traced_) attrs_.emplace_back(key, std::to_string(value));
}

uint64_t Span::ElapsedNanos() const {
  return active_ ? TraceNowNanos() - start_nanos_ : 0;
}

}  // namespace wdr::obs
