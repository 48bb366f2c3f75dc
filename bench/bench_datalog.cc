// §II-D open issue: "translation to Datalog ... given the presence of
// new-generation, very efficient Datalog engines". Benchmarks the Datalog
// engine itself (naive vs. semi-naive) and the RDF translation against the
// native saturator.
#include <string>

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "datalog/parser.h"
#include "datalog/magic.h"
#include "datalog/rdf_datalog.h"
#include "reasoning/saturation.h"
#include "workload/university.h"

namespace {

// Transitive closure over a chain of n edges — the canonical recursive
// Datalog workload.
wdr::datalog::DlProgram ChainProgram(int n) {
  std::string text;
  for (int i = 0; i < n; ++i) {
    text += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
            ").\n";
  }
  text +=
      "path(X, Y) :- edge(X, Y).\n"
      "path(X, Z) :- path(X, Y), edge(Y, Z).\n";
  auto program = wdr::datalog::ParseDatalog(text);
  return std::move(*program);
}

void BM_NaiveChain(benchmark::State& state) {
  wdr::datalog::DlProgram program = ChainProgram(static_cast<int>(state.range(0)));
  wdr::datalog::EvalStats stats;
  for (auto _ : state) {
    auto db = wdr::datalog::Materialize(program,
                                        wdr::datalog::Strategy::kNaive, &stats);
    benchmark::DoNotOptimize(db.ok());
  }
  state.counters["derived"] = static_cast<double>(stats.derived_tuples);
  state.counters["iterations"] = static_cast<double>(stats.iterations);
}
BENCHMARK(BM_NaiveChain)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_SemiNaiveChain(benchmark::State& state) {
  wdr::datalog::DlProgram program = ChainProgram(static_cast<int>(state.range(0)));
  wdr::datalog::EvalStats stats;
  for (auto _ : state) {
    auto db = wdr::datalog::Materialize(
        program, wdr::datalog::Strategy::kSemiNaive, &stats);
    benchmark::DoNotOptimize(db.ok());
  }
  state.counters["derived"] = static_cast<double>(stats.derived_tuples);
  state.counters["rule_evals"] = static_cast<double>(stats.rule_evaluations);
}
BENCHMARK(BM_SemiNaiveChain)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

// RDFS materialization: native rule engine vs. the Datalog translation on
// the same graph. The gap is the reification + generic-join penalty.
void BM_NativeSaturation(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = static_cast<int>(state.range(0));
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::reasoning::SaturationStats stats;
  for (auto _ : state) {
    auto closure = wdr::reasoning::Saturator::SaturateGraph(
        data.graph, data.vocab, &stats);
    benchmark::DoNotOptimize(closure.size());
  }
  state.counters["derived"] = static_cast<double>(stats.derived_triples);
}
BENCHMARK(BM_NativeSaturation)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_DatalogSaturation(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = static_cast<int>(state.range(0));
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::datalog::EvalStats stats;
  for (auto _ : state) {
    auto closure = wdr::datalog::MaterializeViaDatalog(
        data.graph, data.vocab, wdr::datalog::Strategy::kSemiNaive, &stats);
    benchmark::DoNotOptimize(closure.ok());
  }
  state.counters["derived"] = static_cast<double>(stats.derived_tuples);
  state.counters["iterations"] = static_cast<double>(stats.iterations);
}
BENCHMARK(BM_DatalogSaturation)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// Magic sets on the RDF translation: answering a *selective* query
// (the types of one resource) without materializing the whole closure —
// the "RDF-specific Datalog optimization" §II-D asks for. Compare with
// BM_DatalogSaturation, which derives everything.
void BM_MagicSelectiveTypeQuery(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = static_cast<int>(state.range(0));
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::datalog::RdfDatalogTranslation xlat =
      wdr::datalog::TranslateGraph(data.graph, data.vocab);

  // triple(prof, rdf:type, ?c) for one specific professor.
  wdr::rdf::TermId prof = data.graph.dict().LookupIri(
      "http://wdr.example.org/univ#Professor0_0_0");
  wdr::datalog::DlAtom query;
  query.pred = xlat.triple_pred;
  query.args = {wdr::datalog::DlTerm::Constant(xlat.sym_of_term[prof]),
                wdr::datalog::DlTerm::Constant(
                    xlat.sym_of_term[data.vocab.type]),
                wdr::datalog::DlTerm::Variable(0)};

  wdr::datalog::EvalStats stats;
  size_t answers = 0;
  for (auto _ : state) {
    auto rows = wdr::datalog::AnswerWithMagic(xlat.program, query, &stats);
    answers = rows.ok() ? rows->size() : 0;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["answers"] = static_cast<double>(answers);
  state.counters["derived"] = static_cast<double>(stats.derived_tuples);
}
BENCHMARK(BM_MagicSelectiveTypeQuery)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

// Translation overhead alone (facts + rules, no evaluation).
void BM_TranslateGraph(benchmark::State& state) {
  wdr::workload::UniversityConfig config;
  config.universities = 2;
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  for (auto _ : state) {
    auto xlat = wdr::datalog::TranslateGraph(data.graph, data.vocab);
    benchmark::DoNotOptimize(xlat.program.facts().size());
  }
}
BENCHMARK(BM_TranslateGraph)->Unit(benchmark::kMillisecond);

}  // namespace

WDR_BENCH_MAIN();
