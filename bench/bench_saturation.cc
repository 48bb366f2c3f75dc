// Ablation: saturation cost and closure growth vs. data size and schema
// depth (§I: "compile the knowledge into data" — what does that compilation
// cost, and how much bigger does the database get?).
#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "reasoning/saturation.h"
#include "workload/synthetic.h"
#include "workload/university.h"

namespace {

// Saturation time vs. number of instance triples (university workload).
void BM_SaturateUniversity(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = static_cast<int>(state.range(0));
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::reasoning::SaturationStats stats;
  for (auto _ : state) {
    wdr::rdf::TripleStore closure = wdr::reasoning::Saturator::SaturateGraph(
        data.graph, data.vocab, &stats);
    benchmark::DoNotOptimize(closure.size());
  }
  state.counters["base"] = static_cast<double>(stats.base_triples);
  state.counters["closure"] = static_cast<double>(stats.closure_triples);
  state.counters["growth"] = static_cast<double>(stats.closure_triples) /
                             static_cast<double>(stats.base_triples);
  state.counters["triples/s"] = benchmark::Counter(
      static_cast<double>(stats.closure_triples) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SaturateUniversity)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Saturation cost vs. class-hierarchy depth at fixed data size: deeper
// schemas derive more per instance triple, the growth knob the paper's
// maintenance discussion turns on.
void BM_SaturateBySchemaDepth(benchmark::State& state) {
  wdr::workload::SyntheticConfig config;
  config.class_depth = static_cast<int>(state.range(0));
  config.class_fanout = 2;
  config.individuals = 5000;
  config.property_triples = 10000;
  wdr::workload::SyntheticData data =
      wdr::workload::GenerateSyntheticData(config);
  wdr::reasoning::SaturationStats stats;
  for (auto _ : state) {
    wdr::rdf::TripleStore closure = wdr::reasoning::Saturator::SaturateGraph(
        data.graph, data.vocab, &stats);
    benchmark::DoNotOptimize(closure.size());
  }
  state.counters["derived"] = static_cast<double>(stats.derived_triples);
  state.counters["growth"] = static_cast<double>(stats.closure_triples) /
                             static_cast<double>(stats.base_triples);
}
BENCHMARK(BM_SaturateBySchemaDepth)->DenseRange(1, 6)
    ->Unit(benchmark::kMillisecond);

// Rule-firing mix on the realistic workload (which rules dominate).
void BM_RuleMixUniversity(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = 2;
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::reasoning::SaturationStats stats;
  for (auto _ : state) {
    wdr::rdf::TripleStore closure = wdr::reasoning::Saturator::SaturateGraph(
        data.graph, data.vocab, &stats);
    benchmark::DoNotOptimize(closure.size());
  }
  for (int r = 0; r < wdr::reasoning::kRuleCount; ++r) {
    auto rule = static_cast<wdr::reasoning::RuleId>(r);
    state.counters[wdr::reasoning::RuleName(rule)] =
        static_cast<double>(stats.firings[rule]);
  }
}
BENCHMARK(BM_RuleMixUniversity)->Unit(benchmark::kMillisecond);

}  // namespace

WDR_BENCH_MAIN();
