#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/profile.h"
#include "obs/query_log.h"
#include "obs/trace.h"
#include "store/reasoning_store.h"

namespace wdr::obs {
namespace {

// The registry is process-global, so tests read deltas against a snapshot
// taken before the operation under test rather than absolute values.
uint64_t CounterDelta(const MetricsSnapshot& before,
                      const MetricsSnapshot& after, const std::string& name) {
  return after.counter(name) - before.counter(name);
}

TEST(MetricsTest, CounterStartsAtZeroAndAccumulates) {
  Counter& c = MetricsRegistry::Get().GetCounter("wdr.test.counter_basic");
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name returns the same object.
  EXPECT_EQ(&MetricsRegistry::Get().GetCounter("wdr.test.counter_basic"), &c);
}

TEST(MetricsTest, GaugeLastWriteWins) {
  Gauge& g = MetricsRegistry::Get().GetGauge("wdr.test.gauge_basic");
  g.Set(7);
  g.Add(-10);
  EXPECT_EQ(g.value(), -3);
}

TEST(MetricsTest, CachedCounterMacroHitsTheRegistry) {
  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
  for (int i = 0; i < 5; ++i) WDR_COUNTER_INC("wdr.test.macro");
  WDR_COUNTER_ADD("wdr.test.macro", 10);
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "wdr.test.macro"), 15u);
}

TEST(MetricsTest, HistogramMeanIsExactAndQuantilesBucketed) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("wdr.test.hist_basic");
  h.RecordNanos(100);
  h.RecordNanos(300);
  MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  const HistogramData* data = snap.histogram("wdr.test.hist_basic");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count, 2u);
  // Mean carries no bucketing error: exact sum over exact count.
  EXPECT_DOUBLE_EQ(data->MeanNanos(), 200.0);
  // p99 of 2 samples must be the larger one's bucket (ceil(1.98) = rank 2),
  // not the smaller's — a truncating rank computation returns the 100ns
  // bucket here.
  EXPECT_GE(data->QuantileNanos(0.99), 255.0);
  // p50 is rank 1: the 100ns sample's bucket upper bound (127).
  EXPECT_LT(data->QuantileNanos(0.5), 128.0);
  // Quantiles are within-2x upper bounds.
  EXPECT_LE(data->QuantileNanos(0.99), 600.0);
}

TEST(MetricsTest, HistogramRecordSecondsClampsNegative) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("wdr.test.hist_neg");
  h.RecordSeconds(-1.0);
  MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  const HistogramData* data = snap.histogram("wdr.test.hist_neg");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count, 1u);
  EXPECT_EQ(data->sum_nanos, 0u);
}

TEST(MetricsTest, SnapshotJsonContainsAllThreeSections) {
  MetricsRegistry::Get().GetCounter("wdr.test.json_counter").Add(3);
  MetricsRegistry::Get().GetGauge("wdr.test.json_gauge").Set(-5);
  MetricsRegistry::Get().GetHistogram("wdr.test.json_hist").RecordNanos(1000);
  std::string json = MetricsRegistry::Get().Snapshot().ToJson();

  EXPECT_NE(json.find("\"wdr.test.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"wdr.test.json_gauge\":-5"), std::string::npos);
  EXPECT_NE(json.find("\"wdr.test.json_hist\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":"), std::string::npos);

  // Structural round-trip check without a JSON library: braces and quotes
  // must balance, and the object must start/end cleanly.
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  int depth = 0;
  size_t quotes = 0;
  bool escaped = false;
  bool in_string = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      ++quotes;
      continue;
    }
    if (in_string) continue;
    if (c == '{') ++depth;
    if (c == '}') {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  EXPECT_EQ(quotes % 2, 0u);
}

TEST(MetricsTest, ConcurrentWritersNeverTearASnapshot) {
  Counter& c = MetricsRegistry::Get().GetCounter("wdr.test.concurrent");
  Histogram& h =
      MetricsRegistry::Get().GetHistogram("wdr.test.concurrent_hist");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c.Add();
        h.RecordNanos(64);
      }
    });
  }
  uint64_t last_counter = 0;
  uint64_t last_hist_count = 0;
  for (int i = 0; i < 200; ++i) {
    MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
    uint64_t counter = snap.counter("wdr.test.concurrent");
    const HistogramData* data = snap.histogram("wdr.test.concurrent_hist");
    ASSERT_NE(data, nullptr);
    // Monotonicity across snapshots: a torn read would show regression.
    EXPECT_GE(counter, last_counter);
    EXPECT_GE(data->count, last_hist_count);
    last_counter = counter;
    last_hist_count = data->count;
    // Snapshot reads buckets after count, and writers bump the bucket
    // before the count, so the bucket sum can never under-report.
    uint64_t bucket_sum = 0;
    for (uint64_t b : data->buckets) bucket_sum += b;
    EXPECT_GE(bucket_sum, data->count);
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  MetricsSnapshot final_snap = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(final_snap.counter("wdr.test.concurrent"), c.value());
}

TEST(ProfileTest, TreeRendersEveryNodeWithStats) {
  ProfileNode root("query");
  root.rows = 5;
  root.seconds = 0.001;
  ProfileNode& child = root.AddChild("scan (?x type Cat)");
  child.rows = 5;
  child.scans = 2;
  child.triples = 40;
  EXPECT_EQ(root.TotalScans(), 2u);
  EXPECT_EQ(root.TotalTriples(), 40u);

  std::string rendered = root.Render();
  EXPECT_NE(rendered.find("query"), std::string::npos);
  EXPECT_NE(rendered.find("scan (?x type Cat)"), std::string::npos);
  EXPECT_NE(rendered.find("rows=5"), std::string::npos);
  EXPECT_NE(rendered.find("triples=40"), std::string::npos);

  std::string json = root.ToJson();
  EXPECT_NE(json.find("\"label\":"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

TEST(TraceTest, SpansRecordIntoRingBufferWhenEnabled) {
  ClearTrace();
  SetTraceEnabled(true);
  {
    Span outer("wdr.test.outer");
    outer.AddAttr("k", std::string("v"));
    outer.AddAttr("n", uint64_t{7});
    Span inner("wdr.test.inner");
  }
  SetTraceEnabled(false);
  std::vector<TraceEvent> events = TraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Inner ends first, so it is buffered first, parented to the outer.
  EXPECT_EQ(events[0].name, "wdr.test.inner");
  EXPECT_EQ(events[1].name, "wdr.test.outer");
  EXPECT_EQ(events[0].parent_id, events[1].span_id);
  EXPECT_EQ(events[1].parent_id, 0u);
  ASSERT_EQ(events[1].attrs.size(), 2u);
  EXPECT_EQ(events[1].attrs[0].first, "k");
  EXPECT_EQ(events[1].attrs[0].second, "v");
  EXPECT_EQ(events[1].attrs[1].second, "7");

  std::ostringstream out;
  EXPECT_EQ(ExportTraceJsonLines(out), 2u);
  EXPECT_NE(out.str().find("\"name\":\"wdr.test.outer\""), std::string::npos);
  ClearTrace();
  EXPECT_TRUE(TraceEvents().empty());
}

TEST(TraceTest, DisabledSpanIsInertAndUnbuffered) {
  ClearTrace();
  ASSERT_FALSE(TraceEnabled());
  {
    Span span("wdr.test.ghost");
    span.AddAttr("k", std::string("v"));
    EXPECT_EQ(span.ElapsedNanos(), 0u);
  }
  EXPECT_TRUE(TraceEvents().empty());
}

// --- End-to-end: instrumented reasoning paths ------------------------------

constexpr const char* kThreeTriples = R"(
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix ex: <http://ex.org/> .
ex:Cat rdfs:subClassOf ex:Mammal .
ex:Mammal rdfs:subClassOf ex:Animal .
ex:tom a ex:Cat .
)";

constexpr const char* kAnimalQuery =
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX ex: <http://ex.org/>\n"
    "SELECT ?x WHERE { ?x rdf:type ex:Animal }";

TEST(ObsIntegrationTest, SaturationCountersAreDeterministic) {
  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kSaturation;
  store::ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kThreeTriples).ok());
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();

  // The 3-triple graph saturates to exactly these derivations:
  //   rdfs11: Cat subClassOf Mammal + Mammal subClassOf Animal
  //           |= Cat subClassOf Animal                          (1 firing)
  //   rdfs9 : tom type Cat walks the subclass hierarchy
  //           |= tom type Mammal, tom type Animal               (2 firings,
  //           plus duplicates re-derived via Cat subClassOf Animal and the
  //           re-enqueued tom-type facts that the store deduplicates)
  // 3 saturator runs: the store constructor's initial (empty) closure,
  // the schema re-closure after load, and the full closure rebuild.
  EXPECT_EQ(CounterDelta(before, after, "wdr.saturation.runs"), 3u);
  EXPECT_EQ(CounterDelta(before, after, "wdr.saturation.derived"), 3u);
  EXPECT_EQ(CounterDelta(before, after, "wdr.saturation.firings.rdfs11"), 1u);
  EXPECT_GE(CounterDelta(before, after, "wdr.saturation.firings.rdfs9"), 2u);
  EXPECT_EQ(CounterDelta(before, after, "wdr.saturation.firings.rdfs2"), 0u);
  EXPECT_EQ(CounterDelta(before, after, "wdr.store.loaded_triples"), 3u);
  const HistogramData* build = after.histogram("wdr.saturation.build");
  ASSERT_NE(build, nullptr);
  EXPECT_GE(build->count, 1u);
}

TEST(ObsIntegrationTest, ProfileTreeRowsMatchAnswerCount) {
  for (store::ReasoningMode mode :
       {store::ReasoningMode::kSaturation,
        store::ReasoningMode::kReformulation,
        store::ReasoningMode::kBackward}) {
    store::ReasoningStoreOptions options;
    options.mode = mode;
    store::ReasoningStore store(options);
    ASSERT_TRUE(store.LoadTurtle(kThreeTriples).ok());
    store.SetProfiling(true);

    store::QueryInfo info;
    auto result = store.Query(kAnimalQuery, &info);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows.size(), 1u);
    ASSERT_NE(info.profile, nullptr)
        << store::ReasoningModeName(mode);
    EXPECT_EQ(info.profile->rows, result->rows.size())
        << store::ReasoningModeName(mode);
    EXPECT_NE(info.profile->label.find(store::ReasoningModeName(mode)),
              std::string::npos);
    EXPECT_FALSE(info.profile->children.empty());
    EXPECT_GT(info.profile->seconds, 0.0);

    // Profiling off: no tree is built.
    store.SetProfiling(false);
    store::QueryInfo off_info;
    ASSERT_TRUE(store.Query(kAnimalQuery, &off_info).ok());
    EXPECT_EQ(off_info.profile, nullptr);
  }
}

// On the legacy join a reformulated BGP is a join of per-atom unions: the
// profile shows one node per union atom with its alternatives and probes.
// Here the join scans (?x ex:p ex:o) and probes the dead (?x a ex:C) once
// per binding.
TEST(ObsIntegrationTest, UnionAtomsReachProfile) {
  std::string turtle =
      "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
      "@prefix ex: <http://ex.org/> .\n"
      "ex:D rdfs:subClassOf ex:C .\n";
  for (int i = 0; i < 100; ++i) {
    const std::string who = "ex:i" + std::to_string(i);
    turtle += who + " ex:p ex:o .\n" + who + " a " +
              (i % 2 == 0 ? "ex:C" : "ex:D") + " .\n";
  }
  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kReformulation;
  options.backend = rdf::StorageBackend::kOrdered;
  options.encoding = false;
  store::ReasoningStore store(options);
  store.SetPlanMode(false);
  ASSERT_TRUE(store.LoadTurtle(turtle).ok());
  store.SetProfiling(true);

  store::QueryInfo info;
  auto result = store.Query(
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
      "PREFIX ex: <http://ex.org/>\n"
      "SELECT ?x WHERE { ?x ex:p ex:o . ?x rdf:type ex:C }",
      &info);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->rows.size(), 100u);
  EXPECT_EQ(info.union_size, 3u);  // (?x p o) + (?x type C) + (?x type D)
  ASSERT_NE(info.profile, nullptr);
  const std::string tree = info.profile->Render();
  EXPECT_NE(tree.find("reformulate (3 alternatives in a join of unions"),
            std::string::npos)
      << tree;
  EXPECT_NE(tree.find("union(?x p o) [1 alternatives]"), std::string::npos)
      << tree;
  EXPECT_NE(tree.find("union(?x type C) [2 alternatives, 100 probes]"),
            std::string::npos)
      << tree;
}

TEST(ObsIntegrationTest, QueryHistogramsAccumulatePerMode) {
  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kReformulation;
  store::ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(kThreeTriples).ok());
  ASSERT_TRUE(store.Query(kAnimalQuery).ok());
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();

  const HistogramData* h = after.histogram("wdr.store.query.reformulation");
  ASSERT_NE(h, nullptr);
  const HistogramData* h_before =
      before.histogram("wdr.store.query.reformulation");
  uint64_t before_count = h_before == nullptr ? 0 : h_before->count;
  EXPECT_EQ(h->count - before_count, 1u);
  EXPECT_EQ(CounterDelta(before, after, "wdr.store.queries"), 1u);
  EXPECT_GE(CounterDelta(before, after, "wdr.reformulation.runs"), 1u);
}

// --- Histogram bucketing and quantile edges --------------------------------

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  Histogram& h = MetricsRegistry::Get().GetHistogram("wdr.test.hist_bits");
  h.RecordNanos(0);                          // bit_width(0) = 0
  h.RecordNanos(1);                          // bit_width(1) = 1
  h.RecordNanos(2);                          // bit_width(2) = 2
  h.RecordNanos(3);                          // bit_width(3) = 2
  h.RecordNanos((uint64_t{1} << 46) - 1);    // last regular bucket
  h.RecordNanos(UINT64_MAX);                 // clamps into the overflow bucket
  MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  const HistogramData* data = snap.histogram("wdr.test.hist_bits");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->buckets[0], 1u);
  EXPECT_EQ(data->buckets[1], 1u);
  EXPECT_EQ(data->buckets[2], 2u);
  EXPECT_EQ(data->buckets[46], 1u);
  EXPECT_EQ(data->buckets[Histogram::kBuckets - 1], 1u);
  EXPECT_EQ(data->count, 6u);
}

TEST(MetricsTest, QuantileNanosEdgeCases) {
  // Empty histogram: 0 for every q, including the out-of-range ones.
  HistogramData empty;
  EXPECT_EQ(empty.QuantileNanos(-1.0), 0.0);
  EXPECT_EQ(empty.QuantileNanos(0.0), 0.0);
  EXPECT_EQ(empty.QuantileNanos(0.5), 0.0);
  EXPECT_EQ(empty.QuantileNanos(1.0), 0.0);
  EXPECT_EQ(empty.QuantileNanos(2.0), 0.0);

  // Two samples in distinct buckets: q <= 0 pins to the smallest sample's
  // bucket bound, q >= 1 to the largest's (no out-of-range rank access).
  Histogram& h = MetricsRegistry::Get().GetHistogram("wdr.test.hist_edges");
  h.RecordNanos(100);  // bucket 7, upper bound 127
  h.RecordNanos(300);  // bucket 9, upper bound 511
  MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  const HistogramData* data = snap.histogram("wdr.test.hist_edges");
  ASSERT_NE(data, nullptr);
  EXPECT_DOUBLE_EQ(data->QuantileNanos(-0.5), 127.0);
  EXPECT_DOUBLE_EQ(data->QuantileNanos(0.0), 127.0);
  EXPECT_DOUBLE_EQ(data->QuantileNanos(1.0), 511.0);
  EXPECT_DOUBLE_EQ(data->QuantileNanos(7.0), 511.0);

  // All mass in the overflow bucket reports its finite nominal bound
  // (2^47 - 1), not infinity or garbage.
  Histogram& of = MetricsRegistry::Get().GetHistogram("wdr.test.hist_of");
  of.RecordNanos(UINT64_MAX);
  MetricsSnapshot snap2 = MetricsRegistry::Get().Snapshot();
  const HistogramData* ofd = snap2.histogram("wdr.test.hist_of");
  ASSERT_NE(ofd, nullptr);
  const double overflow_bound =
      static_cast<double>((uint64_t{1} << 47) - 1);
  EXPECT_DOUBLE_EQ(ofd->QuantileNanos(0.5), overflow_bound);
  EXPECT_DOUBLE_EQ(ofd->QuantileNanos(1.0), overflow_bound);
}

// --- Deterministic natural-order rendering ---------------------------------

TEST(MetricsTest, NaturalNameLessComparesDigitRunsNumerically) {
  EXPECT_TRUE(NaturalNameLess("worker.2", "worker.10"));
  EXPECT_FALSE(NaturalNameLess("worker.10", "worker.2"));
  EXPECT_TRUE(NaturalNameLess("a2b", "a10b"));
  EXPECT_TRUE(NaturalNameLess("a2b9", "a2b10"));
  // Non-digit comparison stays lexicographic.
  EXPECT_TRUE(NaturalNameLess("alpha", "beta"));
  // Prefix < extension.
  EXPECT_TRUE(NaturalNameLess("worker", "worker.1"));
  // Irreflexive and asymmetric (strict weak order basics).
  EXPECT_FALSE(NaturalNameLess("worker.7", "worker.7"));
  // Equal numeric value, different spellings: still a strict order (the
  // one with fewer leading zeros first), never "both less".
  EXPECT_TRUE(NaturalNameLess("a1", "a01") !=
              NaturalNameLess("a01", "a1"));
}

TEST(MetricsTest, SnapshotSectionsAreNaturallyOrdered) {
  MetricsRegistry::Get().GetCounter("wdr.test.order.worker.10").Add();
  MetricsRegistry::Get().GetCounter("wdr.test.order.worker.2").Add();
  MetricsRegistry::Get().GetCounter("wdr.test.order.worker.1").Add();
  MetricsSnapshot snap = MetricsRegistry::Get().Snapshot();
  std::vector<size_t> positions;
  for (const char* name : {"wdr.test.order.worker.1", "wdr.test.order.worker.2",
                           "wdr.test.order.worker.10"}) {
    for (size_t i = 0; i < snap.counters.size(); ++i) {
      if (snap.counters[i].first == name) positions.push_back(i);
    }
  }
  ASSERT_EQ(positions.size(), 3u);
  EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
  // The whole section obeys the comparator — .stats / JSON / Prometheus
  // renderings inherit determinism from this.
  for (size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_TRUE(NaturalNameLess(snap.counters[i - 1].first,
                                snap.counters[i].first))
        << snap.counters[i - 1].first << " !< " << snap.counters[i].first;
  }
}

// --- Prometheus text exposition --------------------------------------------

// Minimal parser for the Prometheus text format (version 0.0.4) covering
// what ToPrometheusText emits: `# TYPE` comments, `name[{labels}] value`
// samples, [a-zA-Z_:][a-zA-Z0-9_:]* metric names, cumulative monotone
// histogram buckets with strictly increasing le bounds, and
// `_bucket{le="+Inf"}` == `_count`.
void ValidatePrometheusText(const std::string& text) {
  auto valid_name = [](const std::string& name) {
    if (name.empty()) return false;
    if (std::isdigit(static_cast<unsigned char>(name[0]))) return false;
    for (char c : name) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
        return false;
    }
    return true;
  };
  struct HistSeries {
    double last_le = -1.0;
    uint64_t last_cumulative = 0;
    bool saw_inf = false;
    uint64_t inf_count = 0;
    bool saw_count = false;
    uint64_t count = 0;
    bool saw_sum = false;
  };
  std::map<std::string, std::string> types;  // TYPE-declared name -> kind
  std::map<std::string, HistSeries> hists;
  std::istringstream in(text);
  std::string line;
  size_t samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, kind, name, type;
      ls >> hash >> kind >> name >> type;
      ASSERT_EQ(kind, "TYPE") << line;
      EXPECT_TRUE(valid_name(name)) << "bad metric name: " << name;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      EXPECT_TRUE(types.emplace(name, type).second)
          << "duplicate TYPE for " << name;
      continue;
    }
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string value_str = line.substr(space + 1);
    char* end = nullptr;
    const double value = std::strtod(value_str.c_str(), &end);
    ASSERT_TRUE(end != nullptr && *end == '\0' && end != value_str.c_str())
        << "unparsable value in: " << line;
    std::string series = line.substr(0, space);
    std::string name = series;
    std::string labels;
    const size_t brace = series.find('{');
    if (brace != std::string::npos) {
      ASSERT_EQ(series.back(), '}') << line;
      labels = series.substr(brace + 1, series.size() - brace - 2);
      name = series.substr(0, brace);
    }
    EXPECT_TRUE(valid_name(name)) << "bad metric name: " << name;
    ++samples;

    // Histogram component series tie back to a `<base>_seconds` TYPE.
    auto histogram_base = [&](const std::string& suffix) -> std::string {
      if (name.size() <= suffix.size() ||
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
              0) {
        return "";
      }
      std::string base = name.substr(0, name.size() - suffix.size());
      auto it = types.find(base);
      return it != types.end() && it->second == "histogram" ? base : "";
    };
    std::string base;
    if (!(base = histogram_base("_bucket")).empty()) {
      ASSERT_EQ(labels.rfind("le=\"", 0), 0u) << line;
      ASSERT_EQ(labels.back(), '"') << line;
      const std::string le_str = labels.substr(4, labels.size() - 5);
      HistSeries& hs = hists[base];
      ASSERT_FALSE(hs.saw_inf) << "+Inf must be the last bucket: " << line;
      const uint64_t cumulative = static_cast<uint64_t>(value);
      EXPECT_GE(cumulative, hs.last_cumulative)
          << "non-monotone cumulative bucket: " << line;
      hs.last_cumulative = cumulative;
      if (le_str == "+Inf") {
        hs.saw_inf = true;
        hs.inf_count = cumulative;
      } else {
        char* le_end = nullptr;
        const double le = std::strtod(le_str.c_str(), &le_end);
        ASSERT_TRUE(le_end != nullptr && *le_end == '\0') << line;
        EXPECT_GT(le, hs.last_le) << "le bounds must increase: " << line;
        hs.last_le = le;
      }
    } else if (!(base = histogram_base("_sum")).empty()) {
      EXPECT_GE(value, 0) << line;
      hists[base].saw_sum = true;
    } else if (!(base = histogram_base("_count")).empty()) {
      HistSeries& hs = hists[base];
      hs.saw_count = true;
      hs.count = static_cast<uint64_t>(value);
    } else {
      // Plain counter/gauge sample: must match its TYPE declaration.
      auto it = types.find(name);
      ASSERT_NE(it, types.end()) << "sample without TYPE: " << line;
      EXPECT_TRUE(it->second == "counter" || it->second == "gauge") << line;
      if (it->second == "counter") {
        EXPECT_GE(value, 0) << line;
        EXPECT_EQ(name.size() > 6 &&
                      name.compare(name.size() - 6, 6, "_total") == 0,
                  true)
            << "counter without _total suffix: " << line;
      }
    }
  }
  EXPECT_GT(samples, 0u);
  for (const auto& [hist_name, hs] : hists) {
    EXPECT_TRUE(hs.saw_inf) << hist_name << " has no +Inf bucket";
    EXPECT_TRUE(hs.saw_sum) << hist_name << " has no _sum";
    EXPECT_TRUE(hs.saw_count) << hist_name << " has no _count";
    EXPECT_EQ(hs.inf_count, hs.count)
        << hist_name << ": +Inf bucket and _count disagree";
  }
}

TEST(MetricsTest, PrometheusTextIsValidExposition) {
  // Exercise every metric kind, including a dotted name that needs
  // sanitizing and a histogram with an occupied-range gap.
  MetricsRegistry::Get().GetCounter("wdr.test.prom.counter").Add(3);
  MetricsRegistry::Get().GetGauge("wdr.test.prom.gauge").Set(-7);
  Histogram& h = MetricsRegistry::Get().GetHistogram("wdr.test.prom.hist");
  h.RecordNanos(1);
  h.RecordNanos(100);
  h.RecordNanos(100000);
  const std::string text =
      ToPrometheusText(MetricsRegistry::Get().Snapshot());
  ValidatePrometheusText(text);
  EXPECT_NE(text.find("wdr_test_prom_counter_total 3"), std::string::npos);
  EXPECT_NE(text.find("wdr_test_prom_gauge -7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE wdr_test_prom_hist_seconds histogram"),
            std::string::npos);
  // Dots sanitized away.
  EXPECT_EQ(text.find("wdr.test"), std::string::npos);
}

// --- Trace capacity and dropped-span accounting ----------------------------

TEST(TraceTest, ShrunkCapacityKeepsNewestAndCountsDropped) {
  const size_t saved_capacity = TraceCapacity();
  SetTraceCapacity(4);
  EXPECT_EQ(TraceCapacity(), 4u);
  ClearTrace();
  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
  SetTraceEnabled(true);
  for (uint64_t i = 0; i < 6; ++i) {
    Span span("wdr.test.cap");
    span.AddAttr("i", i);
  }
  SetTraceEnabled(false);
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();
  std::vector<TraceEvent> events = TraceEvents();
  ASSERT_EQ(events.size(), 4u);
  // Oldest two (i=0, i=1) were overwritten; survivors in order.
  for (uint64_t i = 0; i < events.size(); ++i) {
    ASSERT_EQ(events[i].attrs.size(), 1u);
    EXPECT_EQ(events[i].attrs[0].second, std::to_string(i + 2));
  }
  EXPECT_EQ(CounterDelta(before, after, "wdr.trace.dropped_spans"), 2u);
  ClearTrace();
  SetTraceCapacity(saved_capacity);
}

TEST(TraceTest, ExportWhileRecordingIsSafe) {
  ClearTrace();
  SetTraceEnabled(true);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        Span outer("wdr.test.stress_outer");
        Span inner("wdr.test.stress_inner");
        inner.AddAttr("k", std::string("v"));
      }
    });
  }
  size_t last_lines = 0;
  for (int i = 0; i < 50; ++i) {
    std::ostringstream out;
    const size_t lines = ExportTraceJsonLines(out);
    // Every exported line is a braced JSON object naming its trace.
    std::istringstream in(out.str());
    std::string line;
    size_t counted = 0;
    while (std::getline(in, line)) {
      ASSERT_FALSE(line.empty());
      EXPECT_EQ(line.front(), '{');
      EXPECT_EQ(line.back(), '}');
      EXPECT_NE(line.find("\"trace\":"), std::string::npos);
      ++counted;
    }
    EXPECT_EQ(counted, lines);
    // The buffer only grows (until the ring wraps): no torn shrink.
    EXPECT_GE(lines, std::min(last_lines, TraceCapacity()));
    EXPECT_LE(lines, TraceCapacity());
    last_lines = lines;
    std::vector<TraceEvent> events = TraceEvents();  // concurrent copy
    EXPECT_LE(events.size(), TraceCapacity());
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  SetTraceEnabled(false);
  ClearTrace();
}

TEST(TraceTest, UcqProducesSingleTraceTreeNoOrphans) {
  // A 16-subclass hierarchy reformulates ?x type Animal into 17 CQs: a
  // 17-branch UCQ on the plan route, one union atom of 17 alternatives on
  // the legacy join.
  std::string turtle =
      "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
      "@prefix ex: <http://ex.org/> .\n";
  for (int i = 0; i < 16; ++i) {
    turtle += "ex:C" + std::to_string(i) + " rdfs:subClassOf ex:Animal .\n";
  }
  turtle += "ex:tom a ex:C0 .\n";

  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kReformulation;
  options.encoding = false;  // keep the union wide (no range collapse)
  store::ReasoningStore store(options);
  ASSERT_TRUE(store.LoadTurtle(turtle).ok());

  for (bool plan : {false, true}) {
    SCOPED_TRACE(plan ? "plan" : "legacy join");
    store.SetPlanMode(plan);
    ClearTrace();
    SetTraceEnabled(true);
    store::QueryInfo info;
    auto result = store.Query(kAnimalQuery, &info);
    SetTraceEnabled(false);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->rows.size(), 1u);
    EXPECT_EQ(info.union_size, 17u);

    std::vector<TraceEvent> events = TraceEvents();
    ASSERT_FALSE(events.empty());

    // Exactly one root, and it is the store's query span.
    std::vector<const TraceEvent*> roots;
    std::unordered_set<uint64_t> span_ids;
    for (const TraceEvent& e : events) {
      span_ids.insert(e.span_id);
      if (e.parent_id == 0) roots.push_back(&e);
    }
    ASSERT_EQ(roots.size(), 1u)
        << "expected a single trace root, found " << roots.size();
    const TraceEvent& root = *roots.front();
    EXPECT_EQ(root.name, "wdr.store.query");
    EXPECT_EQ(root.trace_id, root.span_id);

    // Every span is in the root's trace and its parent link resolves.
    size_t branch_spans = 0;
    std::unordered_map<uint64_t, const TraceEvent*> by_id;
    for (const TraceEvent& e : events) by_id[e.span_id] = &e;
    for (const TraceEvent& e : events) {
      EXPECT_EQ(e.trace_id, root.span_id) << e.name << " left the trace tree";
      if (e.parent_id != 0) {
        EXPECT_TRUE(span_ids.count(e.parent_id) > 0)
            << e.name << " has a dangling parent";
      }
      if (e.name == "wdr.query.branch") ++branch_spans;
    }
    // One span per evaluated branch, all siblings under one enclosing span:
    // the 17 CQs of the UCQ on the plan route, the one join of unions on
    // the legacy join.
    EXPECT_EQ(branch_spans, plan ? 17u : 1u);
    uint64_t branch_parent = 0;
    for (const TraceEvent& e : events) {
      if (e.name != "wdr.query.branch") continue;
      ASSERT_NE(by_id.find(e.parent_id), by_id.end());
      if (branch_parent == 0) branch_parent = e.parent_id;
      EXPECT_EQ(e.parent_id, branch_parent);
    }
    // Walking parent links from any span terminates at the root.
    for (const TraceEvent& e : events) {
      const TraceEvent* cursor = &e;
      int hops = 0;
      while (cursor->parent_id != 0 && hops < 64) {
        auto it = by_id.find(cursor->parent_id);
        ASSERT_NE(it, by_id.end());
        cursor = it->second;
        ++hops;
      }
      EXPECT_EQ(cursor->span_id, root.span_id)
          << e.name << " does not reach the query root";
    }
    ClearTrace();
  }
}

// --- Query log --------------------------------------------------------------

TEST(QueryLogTest, AppendStampsMonotonicIdsAndKeepsOrder) {
  QueryLog& log = QueryLog::Get();
  log.Clear();
  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
  QueryLogRecord a;
  a.query = "SELECT a";
  QueryLogRecord b;
  b.query = "SELECT b";
  const uint64_t id_a = log.Append(a);
  const uint64_t id_b = log.Append(b);
  EXPECT_GT(id_a, 0u);
  EXPECT_EQ(id_b, id_a + 1);
  std::vector<QueryLogRecord> records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].id, id_a);
  EXPECT_EQ(records[0].query, "SELECT a");
  EXPECT_EQ(records[1].id, id_b);
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();
  EXPECT_EQ(CounterDelta(before, after, "wdr.querylog.records"), 2u);
  log.Clear();
  EXPECT_TRUE(log.Records().empty());
}

TEST(QueryLogTest, RingKeepsNewestAndCountsDropped) {
  QueryLog& log = QueryLog::Get();
  const size_t saved_capacity = log.capacity();
  log.Clear();
  log.SetCapacity(2);
  EXPECT_EQ(log.capacity(), 2u);
  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
  for (int i = 0; i < 5; ++i) {
    QueryLogRecord r;
    r.query = "q" + std::to_string(i);
    log.Append(std::move(r));
  }
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();
  std::vector<QueryLogRecord> records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].query, "q3");
  EXPECT_EQ(records[1].query, "q4");
  EXPECT_EQ(CounterDelta(before, after, "wdr.querylog.dropped"), 3u);
  log.Clear();
  log.SetCapacity(saved_capacity);
}

TEST(QueryLogTest, SlowThresholdFlagsRecords) {
  QueryLog& log = QueryLog::Get();
  log.Clear();
  const uint64_t saved_threshold = log.slow_threshold_nanos();
  log.SetSlowThresholdNanos(1000);
  MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
  QueryLogRecord fast;
  fast.wall_nanos = 999;
  QueryLogRecord slow;
  slow.wall_nanos = 1000;  // at-threshold counts as slow
  log.Append(std::move(fast));
  log.Append(std::move(slow));
  MetricsSnapshot after = MetricsRegistry::Get().Snapshot();
  std::vector<QueryLogRecord> records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_FALSE(records[0].slow);
  EXPECT_TRUE(records[1].slow);
  EXPECT_EQ(CounterDelta(before, after, "wdr.querylog.slow"), 1u);
  // 0 disables flagging.
  log.SetSlowThresholdNanos(0);
  QueryLogRecord huge;
  huge.wall_nanos = UINT64_MAX;
  log.Append(std::move(huge));
  EXPECT_FALSE(log.Records().back().slow);
  log.SetSlowThresholdNanos(saved_threshold);
  log.Clear();
}

TEST(QueryLogTest, ToJsonLineSerializesAllFields) {
  QueryLogRecord r;
  r.id = 9;
  r.trace_id = 4;
  r.query = "SELECT \"x\"\nWHERE";  // quote + newline need escaping
  r.mode = "reformulation";
  r.backend = "ordered";
  r.plan = true;
  r.union_size = 14;
  r.est_rows = 42;
  r.rows = 40;
  r.scan_cache_hits = 3;
  r.dup_rows = 5;
  r.wall_nanos = 12345;
  r.ok = true;
  const std::string line = r.ToJsonLine();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.back(), '}');
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"id\":9"), std::string::npos);
  EXPECT_NE(line.find("\"trace\":4"), std::string::npos);
  EXPECT_NE(line.find("\"mode\":\"reformulation\""), std::string::npos);
  EXPECT_NE(line.find("\"plan\":true"), std::string::npos);
  EXPECT_NE(line.find("\"union_size\":14"), std::string::npos);
  EXPECT_NE(line.find("\"est_rows\":42"), std::string::npos);
  EXPECT_NE(line.find("\"rows\":40"), std::string::npos);
  EXPECT_NE(line.find("\"scan_cache_hits\":3"), std::string::npos);
  EXPECT_NE(line.find("\"dup_rows\":5"), std::string::npos);
  EXPECT_NE(line.find("\"wall_nanos\":12345"), std::string::npos);
  EXPECT_NE(line.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(line.find("\\\"x\\\""), std::string::npos);

  QueryLogRecord failed;
  failed.ok = false;
  failed.error = "ParseError: bad";
  const std::string failed_line = failed.ToJsonLine();
  EXPECT_NE(failed_line.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(failed_line.find("ParseError"), std::string::npos);
  // est_rows unknown serializes as -1, distinguishing "not planned".
  EXPECT_NE(failed_line.find("\"est_rows\":-1"), std::string::npos);
}

TEST(QueryLogTest, ExportWritesOneLinePerRecord) {
  QueryLog& log = QueryLog::Get();
  log.Clear();
  for (int i = 0; i < 3; ++i) {
    QueryLogRecord r;
    r.query = "q" + std::to_string(i);
    log.Append(std::move(r));
  }
  std::ostringstream out;
  EXPECT_EQ(log.Export(out), 3u);
  std::istringstream in(out.str());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"query\":\"q" + std::to_string(lines) + "\""),
              std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, 3);
  log.Clear();
}

TEST(QueryLogTest, CanonicalQueryKeyCollapsesTrimsAndTruncates) {
  EXPECT_EQ(CanonicalQueryKey("SELECT ?x"), "SELECT ?x");
  EXPECT_EQ(CanonicalQueryKey("  SELECT\n\t ?x \r\n WHERE  "),
            "SELECT ?x WHERE");
  EXPECT_EQ(CanonicalQueryKey(""), "");
  EXPECT_EQ(CanonicalQueryKey(" \n\t "), "");
  const std::string truncated = CanonicalQueryKey(std::string(600, 'x'), 16);
  EXPECT_EQ(truncated, std::string(16, 'x') + "...");
  // Under the cap: untouched.
  EXPECT_EQ(CanonicalQueryKey("abc def", 16), "abc def");
}

TEST(QueryLogIntegrationTest, OneRecordPerQueryIncludingErrors) {
  QueryLog& log = QueryLog::Get();
  log.Clear();
  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kReformulation;
  options.encoding = false;
  store::ReasoningStore store(options);
  store.SetPlanMode(false);  // pin against the WDR_PLAN env default
  ASSERT_TRUE(store.LoadTurtle(kThreeTriples).ok());

  ASSERT_TRUE(store.Query(kAnimalQuery).ok());
  std::vector<QueryLogRecord> records = log.Records();
  ASSERT_EQ(records.size(), 1u);
  const QueryLogRecord& ok_record = records[0];
  EXPECT_EQ(ok_record.mode, "reformulation");
  EXPECT_EQ(ok_record.backend, "ordered");
  EXPECT_TRUE(ok_record.ok);
  EXPECT_EQ(ok_record.rows, 1u);
  EXPECT_EQ(ok_record.union_size, 3u);  // Animal + Mammal + Cat
  EXPECT_GT(ok_record.wall_nanos, 0u);
  EXPECT_FALSE(ok_record.plan);
  // Canonical key: single-spaced, holds the query text.
  EXPECT_NE(ok_record.query.find("SELECT ?x WHERE"), std::string::npos);

  // Plan mode fills est-vs-actual.
  store.SetPlanMode(true);
  ASSERT_TRUE(store.Query(kAnimalQuery).ok());
  records = log.Records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[1].plan);
  EXPECT_GE(records[1].est_rows, 0);
  EXPECT_EQ(records[1].rows, 1u);
  store.SetPlanMode(false);

  // Parse failures still log a record — errors included.
  EXPECT_FALSE(store.Query("THIS IS NOT SPARQL").ok());
  records = log.Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_FALSE(records[2].ok);
  EXPECT_FALSE(records[2].error.empty());
  EXPECT_EQ(records[2].rows, 0u);
  EXPECT_EQ(records[2].query, "THIS IS NOT SPARQL");
  log.Clear();
}

// tom is typed both Cat and Mammal, so the reformulated Animal query
// (Animal | Mammal | Cat) answers tom twice and drops one copy. The drop
// shows in the record, its JSON line and the counter, on both join routes.
TEST(QueryLogIntegrationTest, DuplicateRowsReachRecordAndCounter) {
  QueryLog& log = QueryLog::Get();
  log.Clear();
  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kReformulation;
  options.encoding = false;
  store::ReasoningStore store(options);
  ASSERT_TRUE(
      store.LoadTurtle(std::string(kThreeTriples) + "ex:tom a ex:Mammal .\n")
          .ok());
  for (bool plan : {false, true}) {
    store.SetPlanMode(plan);
    const MetricsSnapshot before = MetricsRegistry::Get().Snapshot();
    auto result = store.Query(kAnimalQuery);
    const MetricsSnapshot after = MetricsRegistry::Get().Snapshot();
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().rows.size(), 1u);
    EXPECT_EQ(CounterDelta(before, after, "wdr.query.duplicate_rows"), 1u)
        << "plan=" << plan;
    const QueryLogRecord record = log.Records().back();
    EXPECT_EQ(record.union_size, 3u);
    EXPECT_EQ(record.dup_rows, 1u) << "plan=" << plan;
    EXPECT_NE(record.ToJsonLine().find("\"dup_rows\":1"), std::string::npos);
  }

  // A query without overlap drops nothing.
  store.SetPlanMode(false);
  ASSERT_TRUE(store.Query("PREFIX rdf: "
                          "<http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
                          "PREFIX ex: <http://ex.org/>\n"
                          "SELECT ?x WHERE { ?x rdf:type ex:Cat }")
                  .ok());
  EXPECT_EQ(log.Records().back().dup_rows, 0u);
  log.Clear();
}

}  // namespace
}  // namespace wdr::obs
