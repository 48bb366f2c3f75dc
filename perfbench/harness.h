// Shared plumbing of the wdr benchmark program: run arguments, sample
// statistics, the metric list a run reports, counter deltas read from the
// process-wide obs::MetricsRegistry, and the result line.
#ifndef WDR_PERFBENCH_HARNESS_H_
#define WDR_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"

namespace wdr::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Parses `--workload W --seed N --seconds S --trace 0|1`. Returns false
// (after printing why to stderr) on a missing or malformed argument.
bool ParseArgs(int argc, char** argv, Args* args);

// Nearest-rank percentile of `samples` (q in [0, 1]); 0 when empty.
double Percentile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

// One reported figure. `samples` is the number of measurements behind it
// (1 for a count read once).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 1;
};

// Everything a run reports. `attempted` counts timed operations; `failed`
// those that returned an error or a wrong answer.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  // Provenance key/value pairs, values already JSON numbers.
  std::vector<std::pair<std::string, std::string>> provenance;

  void Add(std::string name, double value, std::string unit,
           size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void Note(std::string key, double value);
};

// Prints a human-readable table of `report`, a provenance JSON line, and
// as the last line the result object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.
void PrintReport(const Report& report, const Args& args);

// Prints `message` to stderr and exits with status 1 without a result
// line: for set-up failures, after which nothing can be measured.
[[noreturn]] void Fatal(const std::string& message);

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// Milliseconds on `timer` (common/timer.h) since it started.
inline double ElapsedMillis(const Timer& timer) {
  return timer.ElapsedMicros() / 1e3;
}

// Before/after view of the registry's counters: construct, do the work,
// then read Delta(name). Unregistered names read 0.
class CounterDelta {
 public:
  CounterDelta() : before_(obs::MetricsRegistry::Get().Snapshot()) {}
  double Delta(const std::string& name) const {
    return static_cast<double>(
        obs::MetricsRegistry::Get().Snapshot().counter(name) -
        before_.counter(name));
  }

 private:
  obs::MetricsSnapshot before_;
};

}  // namespace wdr::perfbench

#endif  // WDR_PERFBENCH_HARNESS_H_
