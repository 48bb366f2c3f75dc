// §II-C, quantified: the four query-answering routes the paper surveys,
// end to end on the same dataset and queries.
//
//   saturation  — forward chaining, queries on the materialized G∞
//                 (OWLIM / Oracle style)
//   reformulate — rewrite each atom (EDBT'13 style), evaluate the join of
//                 the per-atom unions on G, as ReasoningStore does
//   backward    — run-time per-atom expansion inside the join
//                 (AllegroGraph RDFS++ / Virtuoso style)
//   datalog     — translate to Datalog, materialize, query (§II-D [29])
//
// Prints per-query evaluation latency for each route (the median of 15
// repetitions: on a shared host the mean of a few runs moved by half
// between runs of one binary) plus the one-time costs each route pays, and
// asserts all four agree on answer counts.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "backward/backward_evaluator.h"
#include "bench_util.h"
#include "common/timer.h"
#include "datalog/rdf_datalog.h"
#include "query/evaluator.h"
#include "reasoning/saturation.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "workload/queries.h"
#include "workload/university.h"

int main(int argc, char** argv) {
  std::string metrics_path = wdr::bench::ConsumeMetricsJsonFlag(&argc, argv);
  wdr::workload::UniversityConfig config;
  config.universities = 3;
  wdr::workload::UniversityData data =
      wdr::workload::GenerateUniversityData(config);
  wdr::reformulation::CloseSchema(data.graph, data.vocab);
  std::printf("=== Strategy comparison (%zu triples) ===\n\n",
              data.graph.size());

  // One-time costs.
  wdr::Timer timer;
  wdr::reasoning::SaturationStats sat_stats;
  wdr::rdf::TripleStore closure = wdr::reasoning::Saturator::SaturateGraph(
      data.graph, data.vocab, &sat_stats);
  double sat_seconds = timer.ElapsedSeconds();

  timer.Reset();
  wdr::datalog::RdfDatalogTranslation xlat =
      wdr::datalog::TranslateGraph(data.graph, data.vocab);
  auto db =
      wdr::datalog::Materialize(xlat.program, wdr::datalog::Strategy::kSemiNaive);
  if (!db.ok()) {
    std::fprintf(stderr, "datalog materialization failed: %s\n",
                 db.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  double datalog_seconds = timer.ElapsedSeconds();

  std::printf("one-time: saturation %.1fms (+%zu triples), datalog "
              "materialization %.1fms\n",
              sat_seconds * 1e3, sat_stats.derived_triples,
              datalog_seconds * 1e3);
  std::printf("          reformulation & backward chaining: none\n\n");

  wdr::schema::Schema schema =
      wdr::schema::Schema::FromGraph(data.graph, data.vocab);
  wdr::reformulation::Reformulator reformulator(schema, data.vocab);
  wdr::query::Evaluator closure_eval(closure);
  wdr::query::Evaluator base_eval(data.graph.store());
  wdr::backward::BackwardChainingEvaluator backward_eval(data.graph.store(),
                                                         schema, data.vocab);

  constexpr int kReps = 15;
  std::printf("median of %d repetitions after 1 warmup run\n", kReps);
  std::printf("%-4s %9s | %12s %12s %12s %12s\n", "q", "answers",
              "saturation", "reformulate", "backward", "datalog");
  std::printf("%.*s\n", 72,
              "------------------------------------------------------------"
              "------------");

  bool all_agree = true;
  for (const wdr::workload::NamedQuery& nq :
       wdr::workload::StandardQuerySet(data.graph.dict())) {
    wdr::query::UnionQuery q = wdr::query::UnionQuery::Single(nq.query);

    // Warmup + repetitions via the shared harness: single-shot numbers at
    // the microsecond scale are dominated by cache state.
    size_t n_sat = 0, n_ref = 0, n_bwd = 0, n_dl = 0;
    wdr::bench::RepStats t_sat = wdr::bench::TimeReps(1, kReps, [&] {
      n_sat = closure_eval.Evaluate(q).rows.size();
    });
    wdr::bench::RepStats t_ref = wdr::bench::TimeReps(1, kReps, [&] {
      auto joins = reformulator.ReformulateAtoms(q);
      n_ref = joins.ok() ? base_eval.Evaluate(q, *joins).rows.size() : 0;
    });
    wdr::bench::RepStats t_bwd = wdr::bench::TimeReps(1, kReps, [&] {
      n_bwd = backward_eval.Evaluate(q).rows.size();
    });
    wdr::bench::RepStats t_dl = wdr::bench::TimeReps(1, kReps, [&] {
      auto via_dl = wdr::datalog::AnswerViaDatalog(xlat, *db, q);
      n_dl = via_dl.ok() ? via_dl->rows.size() : 0;
    });

    bool agree = n_sat == n_ref && n_sat == n_bwd && n_sat == n_dl;
    all_agree = all_agree && agree;
    std::printf("%-4s %9zu | %10.0fus %10.0fus %10.0fus %10.0fus%s\n",
                nq.name.c_str(), n_sat, t_sat.p50_us, t_ref.p50_us,
                t_bwd.p50_us, t_dl.p50_us, agree ? "" : "  << DISAGREE");
  }

  std::printf("\nall strategies agree on every query: %s\n",
              all_agree ? "yes" : "NO — BUG");
  std::printf(
      "\nshape to expect: saturation wins per-run (it pre-paid); joining\n"
      "per-atom unions keeps reformulation within ~3x of it even where the\n"
      "UCQ of every combination is large (Q6, Q10), ahead of backward\n"
      "chaining; the datalog route pays a reified self-join penalty — the\n"
      "paper's open issue asks for 'smart translations' to close that\n"
      "gap.\n");
  if (!metrics_path.empty() && !wdr::bench::ExportMetricsJson(metrics_path)) {
    return EXIT_FAILURE;
  }
  return all_agree ? EXIT_SUCCESS : EXIT_FAILURE;
}
