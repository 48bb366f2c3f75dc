// Ablations on the query evaluator, all feeding the paper's "efficient
// evaluation [of reformulated queries] remains challenging" (§II-B):
//   - greedy bound-first join ordering vs. the query's written atom order
//     (reformulated unions multiply whatever the per-CQ join costs);
//   - union evaluation with the cross-branch scan-signature cache on/off,
//     on a real reformulated workload (Q6's 36-CQ union);
//   - the per-answer cost of a many-answer DISTINCT (Q8 over the saturated
//     closure), where recording answers outweighs the join itself.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <limits>

#include "bench_util.h"

#include "exec/statistics.h"
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

// Many-answer DISTINCT: the Q8 shape (?x type ?c) over the saturated
// closure of the Fig. 3 workload's 64 universities (~88k answers),
// evaluated as the saturation route runs it: a one-branch union,
// deduplicated. Nearly every enumerated triple is an answer, so the time
// is the per-answer bookkeeping: the dedup-table insert and the row copy.
// Arg 0 picks the legacy join (0) or the compiled plan (1); `ns_per_row`
// is the wall time per answer.
struct ManyAnswerFixture {
  wdr::workload::UniversityData data;
  wdr::rdf::TripleStore closure;
  wdr::exec::Statistics stats;
  wdr::query::UnionQuery q8;

  ManyAnswerFixture() {
    wdr::workload::UniversityConfig config;
    config.universities = 64;
    data = wdr::workload::GenerateUniversityData(config);
    closure = wdr::reasoning::Saturator::SaturateGraph(data.graph, data.vocab);
    stats = wdr::exec::Statistics::Build(closure);
    auto queries = wdr::workload::StandardQuerySet(data.graph.dict());
    BgpQuery q = queries[7].query;
    q.SetDistinct(true);
    q8 = wdr::query::UnionQuery::Single(std::move(q));
  }
};

void BM_ManyAnswerDistinctQ8(benchmark::State& state) {
  static ManyAnswerFixture* f = new ManyAnswerFixture();
  wdr::query::Evaluator::Options options;
  options.plan = state.range(0) != 0;
  options.stats = &f->stats;
  wdr::query::Evaluator evaluator(f->closure, options);
  const wdr::query::UnionQuery& q = f->q8;
  size_t answers = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    answers = evaluator.Evaluate(q).rows.size();
    benchmark::DoNotOptimize(answers);
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["ns_per_row"] =
      ns / static_cast<double>(std::max<size_t>(answers, 1)) /
      static_cast<double>(std::max<int64_t>(state.iterations(), 1));
}
BENCHMARK(BM_ManyAnswerDistinctQ8)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->ArgName("plan");

// Reformulated-union evaluation, scan cache on/off. Q6 (Faculty ⋈
// teacherOf ⋈ Course) reformulates into a 36-CQ grid whose branches share
// leading scans and re-issue the same bound probes — the workload the
// scan-signature cache targets. Evaluated over the BASE graph (that is the
// reformulation technique: q_ref on G).
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
