#ifndef WDR_OBS_METRICS_H_
#define WDR_OBS_METRICS_H_

#include <atomic>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace wdr::obs {

// Process-wide named metrics. The hot path is a single relaxed atomic
// operation per hit (counter increment, gauge store, histogram bucket
// bump); registration and snapshotting take a mutex, so instrument sites
// cache the returned reference (the WDR_COUNTER_* macros below do this
// with a function-local static). Metric names follow the scheme
// `wdr.<layer>.<name>`, e.g. "wdr.store.flat.scans".

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket latency histogram over nanoseconds: bucket i counts values
// with bit_width(value) == i (exponential base-2 buckets), so 48 buckets
// span sub-nanosecond to ~3 days. The exact sum and count are kept
// alongside the buckets, so Mean() carries no bucketing error; quantiles
// are bucket-resolution (within 2x).
class Histogram {
 public:
  static constexpr int kBuckets = 48;

  void RecordNanos(uint64_t nanos) {
    int bucket = std::bit_width(nanos);
    if (bucket >= kBuckets) bucket = kBuckets - 1;
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  }
  void RecordSeconds(double seconds) {
    if (seconds < 0) seconds = 0;
    RecordNanos(static_cast<uint64_t>(seconds * 1e9));
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum_nanos() const {
    return sum_nanos_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_nanos_{0};
};

// Plain-value copy of one histogram, taken by Snapshot().
struct HistogramData {
  std::string name;
  std::array<uint64_t, Histogram::kBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum_nanos = 0;

  double MeanNanos() const {
    return count == 0 ? 0 : static_cast<double>(sum_nanos) /
                                static_cast<double>(count);
  }
  double MeanSeconds() const { return MeanNanos() / 1e9; }
  // Upper bound of the bucket where the cumulative count crosses `q`, in
  // nanoseconds. Locked-down edges: an empty histogram returns 0 for every
  // q; q <= 0 returns the smallest sample's bucket bound; q >= 1 returns
  // the largest sample's; mass in the overflow bucket (values of 2^46ns
  // ≈ 19.5h and up) reports that bucket's finite nominal bound, 2^47 - 1.
  double QuantileNanos(double q) const;
};

// Plain-value copy of the whole registry at one instant. Each value is an
// individual atomic load, so a snapshot taken concurrently with writers is
// internally consistent per metric (never torn), though metrics recorded
// between two loads may differ in age.
struct MetricsSnapshot {
  // Each section is sorted by name with digit runs compared numerically
  // ("run.2" < "run.10"), so snapshots — and everything rendered
  // from them (.stats, JSON, Prometheus text) — are deterministic-ordered
  // and diffable across runs.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramData> histograms;

  // 0 when absent.
  uint64_t counter(const std::string& name) const;
  int64_t gauge(const std::string& name) const;
  // nullptr when absent.
  const HistogramData* histogram(const std::string& name) const;

  // One JSON object: {"counters":{...},"gauges":{...},"histograms":{...}}.
  // Histograms serialize count/sum_nanos/mean_nanos plus non-zero buckets.
  std::string ToJson() const;
};

// Numeric-aware name ordering used by MetricsSnapshot: lexicographic,
// except maximal digit runs compare as integers. Exposed for tests and for
// other deterministic renderings.
bool NaturalNameLess(const std::string& a, const std::string& b);

// Renders a snapshot in the Prometheus text exposition format (version
// 0.0.4): counters become `<name>_total`, gauges keep their name, and each
// base-2 histogram becomes a Prometheus histogram in SECONDS — cumulative
// `_bucket{le="..."}` series over the power-of-two bounds plus `+Inf`,
// `_sum`, and `_count`. Metric names are sanitized to [a-zA-Z0-9_:].
std::string ToPrometheusText(const MetricsSnapshot& snapshot);

// The process-wide registry. Get*() registers on first use and always
// returns the same object for the same name; returned references are
// stable for the process lifetime.
class MetricsRegistry {
 public:
  static MetricsRegistry& Get();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

}  // namespace wdr::obs

// Cached-counter instrumentation helpers: one-time registry lookup, then a
// single relaxed atomic add per hit.
#define WDR_COUNTER_ADD(name, delta)                                       \
  do {                                                                     \
    static ::wdr::obs::Counter& wdr_counter_cached =                       \
        ::wdr::obs::MetricsRegistry::Get().GetCounter(name);               \
    wdr_counter_cached.Add(delta);                                         \
  } while (0)
#define WDR_COUNTER_INC(name) WDR_COUNTER_ADD(name, 1)

#endif  // WDR_OBS_METRICS_H_
