// Ablations on the query evaluator, all feeding the paper's "efficient
// evaluation [of reformulated queries] remains challenging" (§II-B):
//   - greedy bound-first join ordering vs. the query's written atom order
//     (reformulated unions multiply whatever the per-CQ join costs);
//   - sequential vs. branch-parallel union evaluation, with the
//     cross-branch scan-signature cache on/off, on a real reformulated
//     workload (Q6's 36-CQ union).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <limits>

#include "bench_util.h"

#include "query/evaluator.h"
#include "query/query.h"
#include "reasoning/saturation.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "workload/queries.h"
#include "workload/university.h"

namespace {

using wdr::query::BgpQuery;
using wdr::query::PatternTerm;
using wdr::query::TriplePattern;

struct Fixture {
  wdr::workload::UniversityData data;
  wdr::rdf::TripleStore closure;

  Fixture() {
    wdr::workload::UniversityConfig config;
    config.universities = 2;
    data = wdr::workload::GenerateUniversityData(config);
    closure = wdr::reasoning::Saturator::SaturateGraph(data.graph, data.vocab);
  }
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

// A deliberately badly-written query: the unselective atom first.
// (?s takesCourse ?c) . (?s type PhdStudent) . (?c type GraduateCourse)
BgpQuery BadlyOrderedQuery(const wdr::workload::UniversityData& data) {
  // Work on a const_cast-free copy of the dictionary via lookup only; all
  // IRIs exist in the generated data.
  const wdr::rdf::Dictionary& dict = data.graph.dict();
  BgpQuery q;
  q.SetDistinct(true);
  wdr::query::VarId s = q.AddVar("s");
  wdr::query::VarId c = q.AddVar("c");
  q.AddAtom(TriplePattern{
      PatternTerm::Variable(s),
      PatternTerm::Constant(dict.LookupIri(wdr::workload::univ::kTakesCourse)),
      PatternTerm::Variable(c)});
  q.AddAtom(TriplePattern{
      PatternTerm::Variable(s), PatternTerm::Constant(data.vocab.type),
      PatternTerm::Constant(dict.LookupIri(wdr::workload::univ::kPhdStudent))});
  q.AddAtom(TriplePattern{
      PatternTerm::Variable(c), PatternTerm::Constant(data.vocab.type),
      PatternTerm::Constant(
          dict.LookupIri(wdr::workload::univ::kGraduateCourse))});
  q.Project(s);
  q.Project(c);
  return q;
}

void RunOrderingBenchmark(benchmark::State& state, bool greedy) {
  Fixture& f = SharedFixture();
  wdr::query::Evaluator::Options options;
  options.greedy_join_order = greedy;
  wdr::query::Evaluator evaluator(f.closure, options);
  BgpQuery q = BadlyOrderedQuery(f.data);
  size_t answers = 0;
  for (auto _ : state) {
    answers = evaluator.Evaluate(q).rows.size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_GreedyJoinOrder(benchmark::State& state) {
  RunOrderingBenchmark(state, true);
}
void BM_WrittenJoinOrder(benchmark::State& state) {
  RunOrderingBenchmark(state, false);
}
BENCHMARK(BM_GreedyJoinOrder)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WrittenJoinOrder)->Unit(benchmark::kMicrosecond);

// The same ablation over a whole reformulated union (Q10, the largest of
// the standard set): the ordering benefit compounds across disjuncts.
void RunUnionOrdering(benchmark::State& state, bool greedy) {
  Fixture& f = SharedFixture();
  wdr::query::Evaluator::Options options;
  options.greedy_join_order = greedy;
  wdr::query::Evaluator evaluator(f.closure, options);
  auto queries = wdr::workload::StandardQuerySet(f.data.graph.dict());
  const BgpQuery& q = queries[9].query;  // Q10
  size_t answers = 0;
  for (auto _ : state) {
    answers = evaluator.Evaluate(q).rows.size();
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_GreedyJoinOrderQ10(benchmark::State& state) {
  RunUnionOrdering(state, true);
}
void BM_WrittenJoinOrderQ10(benchmark::State& state) {
  RunUnionOrdering(state, false);
}
BENCHMARK(BM_GreedyJoinOrderQ10)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WrittenJoinOrderQ10)->Unit(benchmark::kMicrosecond);

// Reformulated-union evaluation: sequential vs. parallel branches, scan
// cache on/off. Q6 (Faculty ⋈ teacherOf ⋈ Course) reformulates into a
// 36-CQ grid whose branches share leading scans and re-issue the same
// bound probes — the workload the scan-signature cache targets. Evaluated
// over the BASE graph (that is the reformulation technique: q_ref on G).
struct ReformulationFixture {
  wdr::workload::UniversityData data;
  wdr::query::UnionQuery q6_ref;

  ReformulationFixture() {
    wdr::workload::UniversityConfig config;
    config.universities = 8;
    data = wdr::workload::GenerateUniversityData(config);
    // Reformulation is exact only over a schema-closed graph.
    wdr::reformulation::CloseSchema(data.graph, data.vocab);
    wdr::schema::Schema schema =
        wdr::schema::Schema::FromGraph(data.graph, data.vocab);
    wdr::reformulation::Reformulator reformulator(schema, data.vocab);
    auto queries = wdr::workload::StandardQuerySet(data.graph.dict());
    auto reformulated = reformulator.Reformulate(queries[5].query);  // Q6
    q6_ref = std::move(reformulated).value();
  }
};

ReformulationFixture& SharedReformulationFixture() {
  static ReformulationFixture* fixture = new ReformulationFixture();
  return *fixture;
}

// Arg 0: scan cache on/off. The `speedup` counter compares this
// configuration against the no-cache evaluation through the same TimeReps
// harness, using per-rep minima — on a time-shared host the minimum is
// the repeatable statistic; means absorb scheduler noise. The cache gain
// is algorithmic: fewer live cursor scans and memoized ordering
// estimates.
void BM_ReformulatedUnionQ6(benchmark::State& state) {
  ReformulationFixture& f = SharedReformulationFixture();
  wdr::query::Evaluator::Options options;
  options.scan_cache = state.range(0) != 0;
  wdr::query::Evaluator evaluator(f.data.graph.store(), options);

  wdr::query::Evaluator::Options baseline_options;
  baseline_options.scan_cache = false;
  wdr::query::Evaluator baseline(f.data.graph.store(), baseline_options);

  size_t answers = 0;
  for (auto _ : state) {
    answers = evaluator.Evaluate(f.q6_ref).rows.size();
    benchmark::DoNotOptimize(answers);
  }
  // Alternate baseline and configuration blocks so slow phases of the
  // machine hit both sides, then compare the overall minima.
  double nocache_min_us = std::numeric_limits<double>::infinity();
  double cfg_min_us = std::numeric_limits<double>::infinity();
  for (int round = 0; round < 4; ++round) {
    wdr::bench::RepStats nocache = wdr::bench::TimeReps(1, 10, [&] {
      benchmark::DoNotOptimize(baseline.Evaluate(f.q6_ref).rows.size());
    });
    wdr::bench::RepStats cfg = wdr::bench::TimeReps(1, 10, [&] {
      benchmark::DoNotOptimize(evaluator.Evaluate(f.q6_ref).rows.size());
    });
    nocache_min_us = std::min(nocache_min_us, nocache.min_us);
    cfg_min_us = std::min(cfg_min_us, cfg.min_us);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["CQs"] = static_cast<double>(f.q6_ref.size());
  state.counters["nocache_ms"] = nocache_min_us / 1e3;
  state.counters["speedup"] = nocache_min_us / cfg_min_us;
}
BENCHMARK(BM_ReformulatedUnionQ6)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgName("cache");

}  // namespace

WDR_BENCH_MAIN();
