#ifndef WDR_OBS_QUERY_LOG_H_
#define WDR_OBS_QUERY_LOG_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace wdr::obs {

// Structured per-query log: one record per executed query, appended by
// ReasoningStore::Query and kept in a process-wide ring buffer. This is
// the machine-readable complement to the trace buffer — traces answer
// "where did this query spend its time", the query log answers "what
// queries ran, in which mode, at what cost" and is the training feed for
// the cost-model/auto-mode work (analysis::CostProfileFromQueryLog).

// One executed query. Fields with value -1 (signed) mean "not known for
// this execution path" — e.g. est_rows is only available in plan mode.
struct QueryLogRecord {
  // Stamped by QueryLog::Append (monotonically increasing, 1-based).
  uint64_t id = 0;
  // Trace tree id when tracing was on during the query, else 0. Join key
  // into the trace export (`{"trace":N,...}` lines).
  uint64_t trace_id = 0;

  // Canonical query key: the query text with whitespace runs collapsed,
  // truncated to a bounded length. Stable across formatting differences,
  // so it groups repeats of the same query.
  std::string query;

  std::string mode;     // ReasoningModeName: none|saturation|...
  std::string backend;  // storage backend name
  bool plan = false;      // compiled through wdr::exec
  bool encoding = false;  // hierarchy-aware id encoding active

  // Reformulation shape (reformulation mode; defaults elsewhere).
  uint64_t union_size = 1;       // UCQ disjuncts evaluated
  uint64_t rewrite_steps = 0;    // rewrite iterations
  uint64_t pruned_cqs = 0;       // subsumption-pruned disjuncts
  uint64_t range_collapses = 0;  // hierarchy-encoding interval collapses

  // Estimated reformulation fan-out (Reformulator::EstimateFanout) the
  // auto-mode selector computed for this query; 0 when no probe ran. The
  // per-mode cost models divide observed wall time by this, so it is
  // logged in every routed mode, not just reformulation.
  uint64_t fanout = 0;
  // True when the mode above was chosen by the kAuto strategy selector
  // rather than configured statically. The record's `mode` is always the
  // mode that actually evaluated — that keeps the query log a valid
  // training feed for the selector's own cost model.
  bool via_auto = false;

  // Plan summary: estimated-vs-actual cardinality. est_rows is the sum of
  // the planner's per-branch row estimates (-1 when not planned); rows is
  // the actual answer count.
  int64_t est_rows = -1;
  uint64_t rows = 0;

  // Cross-branch scan-cache effectiveness for this query's union.
  uint64_t scan_cache_hits = 0;
  uint64_t scan_cache_misses = 0;
  // Rows produced but dropped as already answered (branch overlap and
  // DISTINCT); with `rows`, the share of the join's work that was wasted.
  uint64_t dup_rows = 0;

  uint64_t wall_nanos = 0;  // end-to-end, parse included
  // Stamped by Append: wall_nanos >= the slow-query threshold.
  bool slow = false;

  bool ok = true;
  std::string error;  // Status::ToString() when !ok

  // One JSON object (no trailing newline), e.g.:
  //   {"id":1,"trace":3,"mode":"reformulation","backend":"ordered",
  //    "plan":true,"encoding":false,"union_size":14,...,"query":"..."}
  std::string ToJsonLine() const;
};

// Process-wide ring buffer of QueryLogRecords. Appends take a mutex (the
// query path already did orders of magnitude more work); capacity and the
// slow-query threshold are runtime-tunable. Counters:
//   wdr.querylog.records  — total appends
//   wdr.querylog.dropped  — records overwritten before export
//   wdr.querylog.slow     — records at or above the slow threshold
class QueryLog {
 public:
  static QueryLog& Get();

  // Stamps `record.id` and `record.slow`, then stores it (overwriting the
  // oldest record when full). Returns the stamped id.
  uint64_t Append(QueryLogRecord record);

  // Buffered records, oldest first.
  std::vector<QueryLogRecord> Records() const;

  // Writes one JSON object per line, oldest first; returns line count.
  size_t Export(std::ostream& os) const;

  void Clear();

  // Ring capacity (values < 1 clamp to 1; shrinking keeps the newest).
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  // Records with wall_nanos >= threshold are flagged slow and counted in
  // wdr.querylog.slow. 0 disables flagging (the default).
  void SetSlowThresholdNanos(uint64_t nanos);
  uint64_t slow_threshold_nanos() const;

 private:
  QueryLog() = default;
  struct Impl;
  Impl& impl() const;
};

// Canonicalizes query text into a log key: collapses whitespace runs to
// single spaces, trims, and truncates to `max_len` (appending "..." when
// truncated). Exposed for tests.
std::string CanonicalQueryKey(std::string_view text, size_t max_len = 512);

}  // namespace wdr::obs

#endif  // WDR_OBS_QUERY_LOG_H_
