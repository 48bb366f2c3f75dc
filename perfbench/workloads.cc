#include "workloads.h"

#include <charconv>
#include <cstdio>

namespace wdr::perfbench {

store::ReasoningStoreOptions PinnedOptions(store::ReasoningMode mode) {
  store::ReasoningStoreOptions options;
  options.mode = mode;
  options.encoding = false;
  options.query.plan = false;
  return options;
}

std::unique_ptr<store::ReasoningStore> BuildStore(const Inputs& inputs,
                                                  store::ReasoningMode mode) {
  auto s = std::make_unique<store::ReasoningStore>(PinnedOptions(mode));
  auto loaded = s->LoadTurtle(inputs.turtle);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 loaded.status().ToString().c_str());
    return nullptr;
  }
  auto written = s->Update(InstanceWrite(0));
  if (!written.ok()) {
    std::fprintf(stderr, "first write failed: %s\n",
                 written.status().ToString().c_str());
    return nullptr;
  }
  s->Warm();
  return s;
}

Served Serve(const Inputs& inputs, store::ReasoningMode mode) {
  Served served;
  served.store = std::make_unique<server::SnapshotStore>(PinnedOptions(mode));
  if (!served.store->LoadTurtle(inputs.turtle).ok() ||
      !served.store->Update(InstanceWrite(0)).ok()) {
    Fatal("server store set-up failed");
  }
  served.server = std::make_unique<server::Server>(*served.store);
  if (!served.server->Start().ok()) Fatal("server start failed");
  return served;
}

long long HeadValue(const std::string& head, const std::string& key) {
  const size_t at = head.find(key + "=");
  if (at == std::string::npos) return -1;
  const char* begin = head.data() + at + key.size() + 1;
  long long value = -1;
  std::from_chars(begin, head.data() + head.size(), value);
  return value;
}

long long CountAnswers(store::ReasoningStore& store, const std::string& text) {
  auto result = store.Query(text);
  if (!result.ok()) return -1;
  return static_cast<long long>(result.value().rows.size());
}

void AddEndToEnd(const Samples& samples, double peak_rss_mb, Report& report) {
  report.Add("setup_s", Median(samples.setup_s), "s", samples.setup_s.size());
  report.Note("setup_min_s", Percentile(samples.setup_s, 0));
  struct Series {
    const char* name;
    const std::vector<double>* values;
  };
  const Series series[] = {
      {"mix", &samples.pass_ms},     {"lookup", &samples.lookup_ms},
      {"query", &samples.query_ms},  {"write", &samples.write_ms},
      {"schema_write", &samples.schema_ms},
  };
  for (const Series& s : series) {
    const std::string name = s.name;
    // The tail is the highest of p90 and p75 with ten samples beyond it.
    const int tail = s.values->size() >= 100 ? 90 : 75;
    report.Add(name + "_p50_ms", Median(*s.values), "ms", s.values->size());
    report.Note(name + "_p" + std::to_string(tail) + "_ms",
                Percentile(*s.values, tail / 100.0));
    report.Note(name + "_min_ms", Percentile(*s.values, 0));
  }
  report.Add("ops_per_s", Median(samples.window_ops_per_s), "1/s",
             samples.window_ops_per_s.size());
  report.Add("peak_rss_mb", peak_rss_mb, "MiB");
}

}  // namespace wdr::perfbench
