#include "analysis/measure.h"

#include "common/timer.h"
#include "query/evaluator.h"
#include "rdf/hier_encoding.h"
#include "reasoning/saturated_graph.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"

namespace wdr::analysis {
namespace {

// Rewrites the query's constants (and preset values) through the encoding
// permutation so it addresses the re-encoded graph's id space.
query::BgpQuery RemapQuery(const query::BgpQuery& q,
                           const rdf::HierEncoding& encoding) {
  query::BgpQuery out = q;
  for (query::TriplePattern& atom : out.mutable_atoms()) {
    for (query::PatternTerm* pos : {&atom.s, &atom.p, &atom.o}) {
      if (pos->is_const()) pos->id = encoding.Remap(pos->id);
    }
  }
  for (const auto& [var, value] : q.preset()) {
    out.Preset(var, encoding.Remap(value));
  }
  return out;
}

// Average seconds per update: applies each update (timed), rolls it back
// (untimed). `apply` and `undo` take a triple.
template <typename ApplyFn, typename UndoFn>
double TimePerUpdate(const std::vector<rdf::Triple>& updates, ApplyFn&& apply,
                     UndoFn&& undo) {
  if (updates.empty()) return 0;
  double total = 0;
  for (const rdf::Triple& t : updates) {
    Timer timer;
    apply(t);
    total += timer.ElapsedSeconds();
    undo(t);
  }
  return total / static_cast<double>(updates.size());
}

}  // namespace

Result<MeasureReport> MeasureCostProfile(const rdf::Graph& graph,
                                         const schema::Vocabulary& vocab,
                                         const query::BgpQuery& q,
                                         const UpdateSample& updates,
                                         const MeasureOptions& options) {
  MeasureReport report;
  report.base_triples = graph.size();

  // One-time saturation cost.
  Timer timer;
  reasoning::SaturatedGraph saturated(graph, vocab);
  report.costs.saturation_seconds = timer.ElapsedSeconds();
  report.closure_triples = saturated.closure().size();

  const int reps = options.query_repetitions < 1 ? 1 : options.query_repetitions;

  // Per-run evaluation over G∞.
  {
    query::Evaluator evaluator(saturated.closure(), options.query);
    timer.Reset();
    for (int r = 0; r < reps; ++r) {
      query::ResultSet result = evaluator.Evaluate(q);
      report.answers = result.rows.size();
    }
    report.costs.eval_saturated_seconds =
        timer.ElapsedSeconds() / static_cast<double>(reps);
  }

  // Rewriting cost (once — the rewriting of a repeated query is reused
  // until the schema changes), then per-run evaluation of q_ref over G.
  // With options.encoding the one-time cost additionally covers building
  // the hierarchy encoding and re-encoding a graph snapshot, and q_ref
  // carries range atoms instead of per-node union branches.
  if (options.encoding) {
    timer.Reset();
    schema::Schema schema = schema::Schema::FromGraph(graph, vocab);
    rdf::Graph encoded = graph;
    rdf::HierEncoding hier = rdf::HierEncoding::Build(schema, encoded.dict());
    encoded.ApplyPermutation(hier.permutation());
    schema::Vocabulary enc_vocab = schema::Vocabulary::Intern(encoded.dict());
    schema::Schema enc_schema = schema::Schema::FromGraph(encoded, enc_vocab);
    reformulation::ReformulationOptions ref_options;
    ref_options.encoding = &hier;
    reformulation::Reformulator reformulator(enc_schema, enc_vocab,
                                             ref_options);
    WDR_ASSIGN_OR_RETURN(query::UnionQuery reformulated,
                         reformulator.Reformulate(RemapQuery(q, hier)));
    report.costs.reformulation_seconds = timer.ElapsedSeconds();
    report.reformulation_cqs = reformulated.size();

    query::Evaluator evaluator(encoded.store(), options.query);
    timer.Reset();
    for (int r = 0; r < reps; ++r) {
      query::ResultSet result = evaluator.Evaluate(reformulated);
      (void)result;
    }
    report.costs.eval_reformulated_seconds =
        timer.ElapsedSeconds() / static_cast<double>(reps);
  } else {
    timer.Reset();
    schema::Schema schema = schema::Schema::FromGraph(graph, vocab);
    reformulation::Reformulator reformulator(schema, vocab);
    WDR_ASSIGN_OR_RETURN(query::UnionQuery reformulated,
                         reformulator.Reformulate(q));
    report.costs.reformulation_seconds = timer.ElapsedSeconds();
    report.reformulation_cqs = reformulated.size();

    query::Evaluator evaluator(graph.store(), options.query);
    timer.Reset();
    for (int r = 0; r < reps; ++r) {
      query::ResultSet result = evaluator.Evaluate(reformulated);
      (void)result;
    }
    report.costs.eval_reformulated_seconds =
        timer.ElapsedSeconds() / static_cast<double>(reps);
  }

  // Maintenance costs: apply to the maintained closure, roll back.
  report.costs.maintain_instance_insert_seconds = TimePerUpdate(
      updates.instance_insertions,
      [&](const rdf::Triple& t) { saturated.Insert(t); },
      [&](const rdf::Triple& t) { saturated.Erase(t); });
  report.costs.maintain_instance_delete_seconds = TimePerUpdate(
      updates.instance_deletions,
      [&](const rdf::Triple& t) { saturated.Erase(t); },
      [&](const rdf::Triple& t) { saturated.Insert(t); });
  report.costs.maintain_schema_insert_seconds = TimePerUpdate(
      updates.schema_insertions,
      [&](const rdf::Triple& t) { saturated.Insert(t); },
      [&](const rdf::Triple& t) { saturated.Erase(t); });
  report.costs.maintain_schema_delete_seconds = TimePerUpdate(
      updates.schema_deletions,
      [&](const rdf::Triple& t) { saturated.Erase(t); },
      [&](const rdf::Triple& t) { saturated.Insert(t); });

  return report;
}

}  // namespace wdr::analysis
