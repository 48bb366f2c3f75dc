#include "obs/query_log.h"

#include <cctype>
#include <mutex>

#include "obs/metrics.h"

namespace wdr::obs {
namespace {

constexpr size_t kDefaultQueryLogCapacity = 1024;

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string QueryLogRecord::ToJsonLine() const {
  std::string out = "{\"id\":" + std::to_string(id) +
                    ",\"trace\":" + std::to_string(trace_id) + ",\"mode\":";
  AppendJsonString(out, mode);
  out += ",\"backend\":";
  AppendJsonString(out, backend);
  out += ",\"plan\":";
  out += plan ? "true" : "false";
  out += ",\"encoding\":";
  out += encoding ? "true" : "false";
  out += ",\"union_size\":" + std::to_string(union_size) +
         ",\"rewrite_steps\":" + std::to_string(rewrite_steps) +
         ",\"pruned_cqs\":" + std::to_string(pruned_cqs) +
         ",\"range_collapses\":" + std::to_string(range_collapses) +
         ",\"fanout\":" + std::to_string(fanout) + ",\"auto\":" +
         (via_auto ? "true" : "false") +
         ",\"est_rows\":" + std::to_string(est_rows) +
         ",\"rows\":" + std::to_string(rows) +
         ",\"scan_cache_hits\":" + std::to_string(scan_cache_hits) +
         ",\"scan_cache_misses\":" + std::to_string(scan_cache_misses) +
         ",\"dup_rows\":" + std::to_string(dup_rows) +
         ",\"wall_nanos\":" + std::to_string(wall_nanos) + ",\"slow\":";
  out += slow ? "true" : "false";
  out += ",\"ok\":";
  out += ok ? "true" : "false";
  if (!ok) {
    out += ",\"error\":";
    AppendJsonString(out, error);
  }
  out += ",\"query\":";
  AppendJsonString(out, query);
  out += "}";
  return out;
}

struct QueryLog::Impl {
  mutable std::mutex mu;
  std::vector<QueryLogRecord> records;  // ring storage, wraps at `capacity`
  size_t capacity = kDefaultQueryLogCapacity;
  size_t next = 0;
  bool wrapped = false;
  uint64_t next_id = 1;
  uint64_t slow_threshold_nanos = 0;

  // Records oldest-first; callers hold `mu`.
  std::vector<QueryLogRecord> OrderedLocked() const {
    std::vector<QueryLogRecord> out;
    out.reserve(records.size());
    if (wrapped) {
      for (size_t i = 0; i < records.size(); ++i) {
        out.push_back(records[(next + i) % records.size()]);
      }
    } else {
      out = records;
    }
    return out;
  }
};

QueryLog& QueryLog::Get() {
  static QueryLog* log = new QueryLog();
  return *log;
}

QueryLog::Impl& QueryLog::impl() const {
  // Leaked intentionally (see MetricsRegistry): queries may run during
  // static destruction.
  static Impl* impl = new Impl();
  return *impl;
}

uint64_t QueryLog::Append(QueryLogRecord record) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  record.id = i.next_id++;
  record.slow = i.slow_threshold_nanos != 0 &&
                record.wall_nanos >= i.slow_threshold_nanos;
  WDR_COUNTER_INC("wdr.querylog.records");
  if (record.slow) WDR_COUNTER_INC("wdr.querylog.slow");
  const uint64_t id = record.id;
  if (i.records.size() < i.capacity) {
    i.records.push_back(std::move(record));
    i.next = i.records.size() % i.capacity;
  } else {
    i.records[i.next] = std::move(record);
    i.next = (i.next + 1) % i.capacity;
    i.wrapped = true;
    WDR_COUNTER_INC("wdr.querylog.dropped");
  }
  return id;
}

std::vector<QueryLogRecord> QueryLog::Records() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.OrderedLocked();
}

size_t QueryLog::Export(std::ostream& os) const {
  std::vector<QueryLogRecord> records = Records();
  for (const QueryLogRecord& r : records) {
    os << r.ToJsonLine() << '\n';
  }
  return records.size();
}

void QueryLog::Clear() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.records.clear();
  i.next = 0;
  i.wrapped = false;
}

void QueryLog::SetCapacity(size_t capacity) {
  if (capacity < 1) capacity = 1;
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  if (capacity == i.capacity) return;
  std::vector<QueryLogRecord> ordered = i.OrderedLocked();
  if (ordered.size() > capacity) {
    ordered.erase(ordered.begin(),
                  ordered.begin() + (ordered.size() - capacity));
  }
  i.capacity = capacity;
  i.records = std::move(ordered);
  i.wrapped = i.records.size() == capacity;
  i.next = i.records.size() % capacity;
}

size_t QueryLog::capacity() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.capacity;
}

void QueryLog::SetSlowThresholdNanos(uint64_t nanos) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  i.slow_threshold_nanos = nanos;
}

uint64_t QueryLog::slow_threshold_nanos() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mu);
  return i.slow_threshold_nanos;
}

std::string CanonicalQueryKey(std::string_view text, size_t max_len) {
  std::string out;
  out.reserve(text.size() < max_len ? text.size() : max_len);
  bool in_space = true;  // leading whitespace trims
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      in_space = true;
      continue;
    }
    if (in_space && !out.empty()) out += ' ';
    in_space = false;
    out += c;
    if (out.size() >= max_len) break;
  }
  if (out.size() >= max_len) {
    out.resize(max_len);
    out += "...";
  }
  return out;
}

}  // namespace wdr::obs
