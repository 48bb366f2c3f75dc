// Reusable randomized differential-testing harness: one seed drives one
// workload instance (random graph + random queries), and every reasoning
// route the library offers must produce identical answers on it —
//
//   {saturation, reformulation, hierarchy-encoded reformulation (LiteMat
//    range atoms over a re-encoded graph snapshot), backward chaining,
//    Datalog, Datalog + magic sets}
//     × {ordered, flat} storage backends
//
// plus closure-level equality between the saturator and the Datalog
// materialization, bit-identity of UCQ evaluation with the scan cache on
// and off, plus a physical-plan section locking plan-based UCQ
// evaluation to the legacy join: answer sets always match, and within one
// plan shape (hash joins on or off) the row stream is bit-identical
// across batch sizes {1, 1024} and external vs locally-built statistics.
// Only BGP/UCQ evaluation has a plan route; backward chaining and Datalog
// each run one join, which WDR_PLAN does not reach. Failures always name
// the seed, so any mismatch is reproducible with WDR_SEED=<seed>.
#ifndef WDR_TESTS_DIFFERENTIAL_UTIL_H_
#define WDR_TESTS_DIFFERENTIAL_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backward/backward_evaluator.h"
#include "common/rng.h"
#include "datalog/magic.h"
#include "exec/statistics.h"
#include "datalog/rdf_datalog.h"
#include "io/turtle_writer.h"
#include "query/sparql_parser.h"
#include "query/evaluator.h"
#include "rdf/hier_encoding.h"
#include "reasoning/saturated_graph.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "store/reasoning_store.h"
#include "tests/test_util.h"

namespace wdr::test {

// Integer environment knob (e.g. WDR_SEED, WDR_DIFF_INSTANCES); `fallback`
// when unset or empty.
inline uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(value, nullptr, 10));
}

// Closure as a sorted triple vector: iteration order of the flat backend
// depends on insertion history, which legitimately differs between the
// saturator and the Datalog materialization, so set equality is what we
// compare.
inline std::vector<rdf::Triple> SortedTriples(const rdf::StoreView& store) {
  std::vector<rdf::Triple> triples = store.ToVector();
  std::sort(triples.begin(), triples.end());
  return triples;
}

// Rewrites a query's constants (and preset values) through a hierarchy
// encoding's permutation so it addresses the re-encoded id space.
inline query::UnionQuery RemapUnion(const query::UnionQuery& q,
                                    const rdf::HierEncoding& encoding) {
  query::UnionQuery out;
  out.SetAsk(q.ask());
  out.SetLimit(q.limit());
  out.SetOffset(q.offset());
  for (const query::BgpQuery& branch : q.branches()) {
    query::BgpQuery b = branch;
    for (query::TriplePattern& atom : b.mutable_atoms()) {
      for (query::PatternTerm* pos : {&atom.s, &atom.p, &atom.o}) {
        if (pos->is_const()) pos->id = encoding.Remap(pos->id);
      }
    }
    for (const auto& [var, value] : branch.preset()) {
      b.Preset(var, encoding.Remap(value));
    }
    out.AddBranch(std::move(b));
  }
  return out;
}

struct DifferentialConfig {
  RandomGraphConfig graph;
  int queries_per_instance = 4;
};

// Answers a BGP/union query through the Datalog + magic-sets route: each
// branch is wrapped in a fresh `answer` predicate whose single defining
// rule is the branch body, and AnswerWithMagic runs on the all-free answer
// atom. Presets are not supported (the random workload never sets them).
inline Result<query::ResultSet> AnswerViaMagic(
    const datalog::RdfDatalogTranslation& xlat, const query::UnionQuery& q) {
  query::ResultSet result;
  std::set<query::Row> seen;
  for (const query::BgpQuery& branch : q.branches()) {
    if (result.var_names.empty()) result.var_names = branch.ProjectionNames();
    // Translate atoms as AnswerViaDatalog does; a branch mentioning a term
    // the graph never interned can only match nothing.
    std::vector<datalog::DlAtom> body;
    bool impossible = false;
    auto translate = [&](const query::PatternTerm& t) -> datalog::DlTerm {
      if (t.is_var()) return datalog::DlTerm::Variable(t.var);
      if (t.id >= xlat.sym_of_term.size()) {
        impossible = true;
        return datalog::DlTerm::Constant(0);
      }
      return datalog::DlTerm::Constant(xlat.sym_of_term[t.id]);
    };
    for (const query::TriplePattern& atom : branch.atoms()) {
      datalog::DlAtom dl;
      dl.pred = xlat.triple_pred;
      dl.args = {translate(atom.s), translate(atom.p), translate(atom.o)};
      body.push_back(std::move(dl));
    }
    if (impossible) continue;
    const std::vector<query::VarId> projection(branch.projection().begin(),
                                               branch.projection().end());

    datalog::DlProgram program = xlat.program;
    const datalog::PredId answer =
        program.InternPred("__diff_answer", projection.size());
    datalog::DlRule rule;
    rule.head.pred = answer;
    uint32_t max_var = 0;
    for (query::VarId v : projection) {
      rule.head.args.push_back(
          datalog::DlTerm::Variable(static_cast<datalog::DlVarId>(v)));
      if (static_cast<uint32_t>(v) > max_var) max_var = v;
    }
    for (const datalog::DlAtom& atom : body) {
      for (const datalog::DlTerm& term : atom.args) {
        if (term.is_var && term.id > max_var) max_var = term.id;
      }
    }
    rule.body = std::move(body);
    for (uint32_t v = 0; v <= max_var; ++v) {
      rule.var_names.push_back("v" + std::to_string(v));
    }
    program.AddRule(std::move(rule));

    // All-free query atom: tuple column i is query-atom variable i, which
    // is head position i, which is projection position i.
    datalog::DlAtom query_atom;
    query_atom.pred = answer;
    for (size_t i = 0; i < projection.size(); ++i) {
      query_atom.args.push_back(
          datalog::DlTerm::Variable(static_cast<datalog::DlVarId>(i)));
    }
    WDR_ASSIGN_OR_RETURN(std::vector<datalog::Tuple> tuples,
                         datalog::AnswerWithMagic(program, query_atom));
    for (const datalog::Tuple& tuple : tuples) {
      query::Row row(projection.size(), rdf::kNullTermId);
      for (size_t i = 0; i < projection.size(); ++i) {
        row[i] = xlat.term_of_sym[tuple[i]];
      }
      if (seen.insert(row).second) result.rows.push_back(std::move(row));
    }
  }
  query::ApplySolutionModifiers(q, result);
  return result;
}

// Runs the full differential check for one seed. Every assertion failure
// message carries the seed, so CI output pinpoints the repro immediately.
inline ::testing::AssertionResult RunDifferentialInstance(
    uint64_t seed, const DifferentialConfig& config = {}) {
  auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure()
           << what << " [seed=" << seed << " — rerun with WDR_SEED=" << seed
           << "]";
  };

  Rng graph_rng(seed);
  RandomGraph rg = MakeRandomGraph(graph_rng, config.graph);
  // Schema closure is the correctness precondition of the rewriting
  // techniques (q_ref(G) = q(G∞) needs schema-closed G).
  reformulation::CloseSchema(rg.graph, rg.vocab);

  // Per-query canonical answers from the ordered backend, compared against
  // the flat backend's on the second pass.
  std::vector<std::set<std::vector<std::string>>> canonical;

  for (rdf::StorageBackend backend :
       {rdf::StorageBackend::kOrdered, rdf::StorageBackend::kFlat}) {
    const char* backend_name = rdf::StorageBackendName(backend);
    rdf::Graph graph = rg.graph;
    graph.SetBackend(backend);

    // --- Closure equality: saturator vs Datalog. --------------------------
    reasoning::SaturatedGraph sequential(graph, rg.vocab);
    const std::vector<rdf::Triple> closure_seq =
        SortedTriples(sequential.closure());
    Result<rdf::TripleStore> via_datalog =
        datalog::MaterializeViaDatalog(graph, rg.vocab);
    if (!via_datalog.ok()) {
      return fail("MaterializeViaDatalog failed: " +
                  via_datalog.status().ToString());
    }
    if (SortedTriples(*via_datalog) != closure_seq) {
      return fail(std::string("Datalog materialization (backend=") +
                  backend_name + ") differs from the native closure");
    }

    // --- Answer-set equality across every answering route. ---------------
    schema::Schema schema = schema::Schema::FromGraph(graph, rg.vocab);
    query::Evaluator closure_eval(sequential.closure());
    query::Evaluator base_eval(graph.store());
    reformulation::Reformulator reformulator(schema, rg.vocab);
    backward::BackwardChainingEvaluator backward_eval(graph.store(), schema,
                                                      rg.vocab);
    // Fresh statistics for the plan-based UCQ section (the store does not
    // change below).
    const exec::Statistics plan_stats = exec::Statistics::Build(graph.store());
    // Hierarchy-encoded reformulation route: a snapshot of the graph is
    // re-encoded into interval id space; each query is remapped through
    // the permutation, reformulated with the union collapse (range atoms
    // replacing subclass/subproperty enumerations), and must answer
    // identically to every other route (compared in decoded string space,
    // which is id-space-agnostic).
    rdf::Graph encoded = graph;
    rdf::HierEncoding hier = rdf::HierEncoding::Build(schema, encoded.dict());
    encoded.ApplyPermutation(hier.permutation());
    schema::Vocabulary enc_vocab = schema::Vocabulary::Intern(encoded.dict());
    schema::Schema enc_schema = schema::Schema::FromGraph(encoded, enc_vocab);
    reformulation::ReformulationOptions enc_ref_options;
    enc_ref_options.encoding = &hier;
    reformulation::Reformulator enc_reformulator(enc_schema, enc_vocab,
                                                 enc_ref_options);
    query::Evaluator enc_eval(encoded.store());
    datalog::RdfDatalogTranslation xlat =
        datalog::TranslateGraph(graph, rg.vocab);
    Result<datalog::Database> db =
        datalog::Materialize(xlat.program, datalog::Strategy::kSemiNaive);
    if (!db.ok()) {
      return fail("Datalog materialization failed: " + db.status().ToString());
    }

    // Query stream: derived from the seed only, so both backends (and any
    // rerun) see the same queries.
    Rng query_rng(seed ^ 0x9e3779b97f4a7c15ull);
    for (int k = 0; k < config.queries_per_instance; ++k) {
      const query::UnionQuery q =
          query::UnionQuery::Single(MakeRandomQuery(query_rng, rg));
      const std::string label = "query " + std::to_string(k) +
                                " (backend=" + backend_name + ")";

      query::ResultSet via_sat = closure_eval.Evaluate(q);
      const std::set<std::vector<std::string>> expected =
          Rows(rg.graph, via_sat);

      Result<query::UnionQuery> reformulated = reformulator.Reformulate(q);
      if (!reformulated.ok()) {
        return fail(label +
                    ": reformulation failed: " +
                    reformulated.status().ToString());
      }
      if (Rows(rg.graph, base_eval.Evaluate(*reformulated)) != expected) {
        return fail(label + ": reformulation differs from saturation");
      }

      // Hierarchy-encoded reformulation must be answer-identical to the
      // classic UCQ route (and so to saturation), and its memoized second
      // rewriting must reproduce the same union.
      {
        const query::UnionQuery enc_q = RemapUnion(q, hier);
        Result<query::UnionQuery> enc_ref = enc_reformulator.Reformulate(enc_q);
        if (!enc_ref.ok()) {
          return fail(label + ": encoded reformulation failed: " +
                      enc_ref.status().ToString());
        }
        if (Rows(encoded, enc_eval.Evaluate(*enc_ref)) != expected) {
          return fail(label +
                      ": hierarchy-encoded reformulation differs from "
                      "saturation");
        }
        Result<query::UnionQuery> enc_again =
            enc_reformulator.Reformulate(enc_q);
        if (!enc_again.ok() || enc_again->size() != enc_ref->size() ||
            Rows(encoded, enc_eval.Evaluate(*enc_again)) != expected) {
          return fail(label +
                      ": memoized encoded reformulation differs from the "
                      "first rewriting");
        }
      }

      // UCQ evaluation with the scan cache on must reproduce the cache-off
      // row stream BIT FOR BIT — same rows in the same order, not just the
      // same set (replayed scans keep live-cursor order and memoized
      // estimates keep the greedy join order, so caching never reorders
      // answers).
      {
        query::EvaluatorOptions reference_options;
        reference_options.scan_cache = false;
        query::Evaluator reference_eval(graph.store(), reference_options);
        const query::ResultSet reference =
            reference_eval.Evaluate(*reformulated);
        query::Evaluator cached_eval(graph.store());
        if (cached_eval.Evaluate(*reformulated).rows != reference.rows) {
          return fail(label +
                      ": UCQ evaluation with the scan cache is not "
                      "bit-identical to evaluation without it");
        }
      }

      // Plan-based UCQ evaluation: answer sets equal the legacy join on
      // every configuration, and within one plan shape (hash joins on or
      // off — the planner may legitimately emit different operator trees
      // across that toggle) the row stream is BIT-IDENTICAL across batch
      // sizes and external vs locally-built statistics.
      for (bool hash_joins : {false, true}) {
        std::vector<query::Row> plan_reference;
        bool have_reference = false;
        for (size_t batch_rows : {size_t{1}, size_t{1024}}) {
          for (bool external_stats : {false, true}) {
            query::EvaluatorOptions options;
            options.plan = true;
            options.hash_joins = hash_joins;
            options.batch_rows = batch_rows;
            options.stats = external_stats ? &plan_stats : nullptr;
            query::Evaluator plan_eval(graph.store(), options);
            const query::ResultSet got = plan_eval.Evaluate(*reformulated);
            const std::string config =
                std::string(" (hash_joins=") + (hash_joins ? "on" : "off") +
                ", batch_rows=" + std::to_string(batch_rows) +
                ", stats=" + (external_stats ? "external" : "local") + ")";
            if (Rows(rg.graph, got) != expected) {
              return fail(label + ": plan-based evaluation" + config +
                          " differs from saturation");
            }
            if (!have_reference) {
              plan_reference = got.rows;
              have_reference = true;
            } else if (got.rows != plan_reference) {
              return fail(label + ": plan-based evaluation" + config +
                          " is not bit-identical to the first plan "
                          "configuration of this shape");
            }
          }
        }
      }

      if (Rows(rg.graph, backward_eval.Evaluate(q)) != expected) {
        return fail(label + ": backward chaining differs from saturation");
      }

      Result<query::ResultSet> via_dl = datalog::AnswerViaDatalog(xlat, *db, q);
      if (!via_dl.ok()) {
        return fail(label + ": Datalog answering failed: " +
                    via_dl.status().ToString());
      }
      if (Rows(rg.graph, *via_dl) != expected) {
        return fail(label + ": Datalog differs from saturation");
      }

      Result<query::ResultSet> via_magic = AnswerViaMagic(xlat, q);
      if (!via_magic.ok()) {
        return fail(label + ": magic-sets answering failed: " +
                    via_magic.status().ToString());
      }
      if (Rows(rg.graph, *via_magic) != expected) {
        return fail(label + ": magic sets differ from saturation");
      }

      if (backend == rdf::StorageBackend::kOrdered) {
        canonical.push_back(expected);
      } else if (expected != canonical[static_cast<size_t>(k)]) {
        return fail(label + ": flat backend differs from ordered backend");
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Serializes one random BGP query as SPARQL text for the store front door;
// constants print as N-Triples terms (the random workload only produces
// IRI constants).
inline std::string ToSparql(const query::BgpQuery& q, const rdf::Graph& g) {
  std::string text = "SELECT";
  if (q.distinct()) text += " DISTINCT";
  for (query::VarId v : q.projection()) text += " ?" + q.var_name(v);
  text += " WHERE {";
  bool first = true;
  for (const query::TriplePattern& atom : q.atoms()) {
    if (!first) text += " .";
    first = false;
    for (const query::PatternTerm* term : {&atom.s, &atom.p, &atom.o}) {
      text += ' ';
      text += term->is_var() ? "?" + q.var_name(term->var)
                             : g.dict().term(term->id).ToNTriples();
    }
  }
  text += " }";
  return text;
}

// Store-level differential check for one seed: the same random instance is
// serialized to Turtle, loaded through the ReasoningStore front door, and
// every per-read mode override — saturation, reformulation, backward,
// Datalog + magic, and the kAuto strategy selector — must decode identical
// answer sets, across both storage backends and with the hierarchy-aware
// encoding off and on. This is the lock that makes kAuto a pure
// performance feature: whatever the selector routes, answers never change.
inline ::testing::AssertionResult RunStoreDifferentialInstance(
    uint64_t seed, const DifferentialConfig& config = {}) {
  auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure()
           << what << " [seed=" << seed << " — rerun with WDR_SEED=" << seed
           << "]";
  };

  Rng graph_rng(seed);
  RandomGraph rg = MakeRandomGraph(graph_rng, config.graph);
  reformulation::CloseSchema(rg.graph, rg.vocab);
  const std::string turtle = io::WriteTurtle(rg.graph);

  // SPARQL texts derived from the seed only, identical for every store
  // configuration below (same stream as the engine-level instance).
  std::vector<std::string> sparql;
  Rng query_rng(seed ^ 0x9e3779b97f4a7c15ull);
  for (int k = 0; k < config.queries_per_instance; ++k) {
    sparql.push_back(ToSparql(MakeRandomQuery(query_rng, rg), rg.graph));
  }

  const std::optional<store::ReasoningMode> overrides[] = {
      store::ReasoningMode::kSaturation, store::ReasoningMode::kReformulation,
      store::ReasoningMode::kBackward, store::ReasoningMode::kDatalog,
      store::ReasoningMode::kAuto};

  // Canonical decoded answers per query, from the first configuration.
  std::vector<std::set<std::vector<std::string>>> canonical;

  for (rdf::StorageBackend backend :
       {rdf::StorageBackend::kOrdered, rdf::StorageBackend::kFlat}) {
    for (bool encoding : {false, true}) {
      store::ReasoningStoreOptions options;
      options.mode = store::ReasoningMode::kSaturation;  // closure for all
      options.backend = backend;
      options.encoding = encoding;
      store::ReasoningStore store(options);
      Result<size_t> loaded = store.LoadTurtle(turtle);
      if (!loaded.ok()) {
        return fail("store LoadTurtle failed: " + loaded.status().ToString());
      }
      const std::string store_label =
          std::string(" (backend=") + rdf::StorageBackendName(backend) +
          ", encoding=" + (encoding ? "on" : "off") + ")";

      for (size_t k = 0; k < sparql.size(); ++k) {
        const std::string label =
            "store query " + std::to_string(k) + store_label;
        for (const auto& mode : overrides) {
          store::ReadOptions ro;
          ro.mode = mode;
          Result<store::PreparedQuery> prepared =
              store.Prepare(sparql[k], ro);
          if (!prepared.ok()) {
            return fail(label + " mode=" +
                        store::ReasoningModeName(*mode) +
                        ": Prepare failed: " + prepared.status().ToString());
          }
          Result<query::ResultSet> result = store.Execute(*prepared);
          if (!result.ok()) {
            return fail(label + " mode=" +
                        store::ReasoningModeName(*mode) +
                        ": Execute failed: " + result.status().ToString());
          }
          std::set<std::vector<std::string>> rows;
          for (const query::Row& row : result->rows) {
            rows.insert(store.DecodeRow(row));
          }
          if (canonical.size() <= k) {
            canonical.push_back(rows);  // first override of first config
          } else if (rows != canonical[k]) {
            return fail(label + ": mode=" +
                        store::ReasoningModeName(*mode) +
                        " differs from the canonical saturation answers");
          }
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// SPARQL texts for the join-of-unions harness: fixed shapes that stress
// the per-atom split (class and property variables shared across atoms,
// repeated variables inside one atom, cross products, user-written UNION,
// ASK, LIMIT/OFFSET, variables left out of the projection so atoms turn
// into existence probes), instantiated with constants drawn from `rng`,
// plus random BGPs projecting a random subset of their variables.
inline std::vector<std::string> JucqDifferentialQueries(Rng& rng,
                                                        const RandomGraph& rg,
                                                        int random_queries) {
  auto pick = [&rng, &rg](const std::vector<rdf::TermId>& pool) {
    return rg.graph.dict()
        .term(pool[static_cast<size_t>(rng.Uniform(0, pool.size() - 1))])
        .ToNTriples();
  };
  const std::string prefix =
      "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n";
  const std::string ca = pick(rg.classes), cb = pick(rg.classes);
  const std::string pa = pick(rg.properties), pb = pick(rg.properties);
  std::vector<std::string> texts = {
      // A class variable shared across atoms, projected and not.
      "SELECT ?x ?y ?c WHERE { ?x rdf:type ?c . ?y rdf:type ?c }",
      "SELECT ?x WHERE { ?x rdf:type ?c . ?y rdf:type ?c . ?y rdf:type " +
          cb + " }",
      // A property variable shared with a subject position.
      "SELECT ?x ?p ?y WHERE { ?x ?p ?y . ?p ?q ?z }",
      "SELECT ?p ?z WHERE { ?x ?p ?y . ?p ?q ?z }",
      "SELECT ?x ?y WHERE { ?x ?p ?y . ?y ?p ?z }",
      // Repeated variables inside one atom.
      "SELECT ?x ?p WHERE { ?x ?p ?x }",
      "SELECT ?x WHERE { ?x " + pa + " ?x . ?x rdf:type ?c }",
      // Cross products: both sides projected, and a dead unconnected atom.
      "SELECT ?x ?y WHERE { ?x rdf:type " + ca + " . ?y rdf:type " + cb +
          " }",
      "SELECT ?x WHERE { ?x rdf:type " + ca + " . ?y " + pb + " ?z }",
      // Existence probes on a chain.
      "SELECT ?x ?z WHERE { ?x " + pa + " ?y . ?y " + pb +
          " ?z . ?y rdf:type ?c }",
      "SELECT ?x WHERE { ?x " + pa + " ?y . ?y rdf:type " + ca + " }",
      // User-written UNION.
      "SELECT ?x WHERE { { ?x rdf:type " + ca + " } UNION { ?x " + pa +
          " ?y . ?y rdf:type " + cb + " } }",
      // Solution modifiers.
      "ASK { ?x " + pa + " ?y . ?y rdf:type " + ca + " }",
      "ASK { ?x rdf:type ?c . ?c rdf:type ?d }",
      "SELECT ?x ?y WHERE { ?x ?p ?y . ?y rdf:type ?c } LIMIT 3 OFFSET 1",
      "SELECT ?x WHERE { ?x rdf:type " + cb + " . ?x ?p ?y } LIMIT 2",
  };
  for (std::string& text : texts) text = prefix + text;
  for (int k = 0; k < random_queries; ++k) {
    const query::BgpQuery q = MakeRandomQuery(rng, rg);
    std::string projection;
    for (query::VarId v : q.projection()) {
      if (rng.Chance(0.6)) projection += " ?" + q.var_name(v);
    }
    if (projection.empty()) {
      projection = " ?" + q.var_name(q.projection().front());
    }
    std::string text = ToSparql(q, rg.graph);
    text.replace(0, text.find(" WHERE"), "SELECT" + projection);
    texts.push_back(prefix + text);
  }
  return texts;
}

// Join-of-unions check for one seed. Every query of
// JucqDifferentialQueries must answer alike as
//   - saturation (the query on the closure),
//   - the whole-query UCQ on the legacy join,
//   - the join of per-atom unions (Reformulator::ReformulateAtoms), and
//   - ReasoningStore in reformulation mode on the legacy join (the JUCQ
//     route), on the plan route (the UCQ) and through the kAuto selector,
//     on one of the four backend x hierarchy-encoding configurations,
//     chosen by the seed so that consecutive seeds cover all four.
// A LIMIT/OFFSET query must return the expected number of rows, all of
// them answers of the query without its modifiers.
inline ::testing::AssertionResult RunJucqDifferentialInstance(
    uint64_t seed, const DifferentialConfig& config = {}) {
  auto fail = [&](const std::string& what) {
    return ::testing::AssertionFailure()
           << what << " [seed=" << seed << " — rerun with WDR_SEED=" << seed
           << "]";
  };
  using Answers = std::set<std::vector<std::string>>;

  Rng graph_rng(seed);
  RandomGraph rg = MakeRandomGraph(graph_rng, config.graph);
  reformulation::CloseSchema(rg.graph, rg.vocab);
  const std::string turtle = io::WriteTurtle(rg.graph);
  Rng query_rng(seed ^ 0x2545f4914f6cdd1dull);
  const std::vector<std::string> texts =
      JucqDifferentialQueries(query_rng, rg, config.queries_per_instance);

  reasoning::SaturatedGraph saturated(rg.graph, rg.vocab);
  schema::Schema schema = schema::Schema::FromGraph(rg.graph, rg.vocab);
  reformulation::Reformulator reformulator(schema, rg.vocab);
  query::EvaluatorOptions legacy;
  legacy.plan = false;
  query::Evaluator closure_eval(saturated.closure(), legacy);
  query::Evaluator base_eval(rg.graph.store(), legacy);

  // Answers of `q` on the closure without its modifiers, and the checker
  // for one route's rows of `q` (with them).
  struct Expected {
    Answers all;      // no modifiers
    Answers exact;    // with them; meaningful only when !limited
    size_t rows = 0;  // rows the modifiers leave
    bool limited = false;
  };
  auto agrees = [](const Expected& e, const Answers& got, size_t rows) {
    if (!e.limited) return got == e.exact && rows == e.exact.size();
    if (rows != e.rows || got.size() != rows) return false;
    return std::includes(e.all.begin(), e.all.end(), got.begin(), got.end());
  };

  std::vector<Expected> expected;
  for (size_t k = 0; k < texts.size(); ++k) {
    const std::string label = "jucq query " + std::to_string(k) + " `" +
                              texts[k] + "`";
    Result<query::UnionQuery> q = query::ParseSparql(texts[k], rg.graph.dict());
    if (!q.ok()) {
      return fail(label + ": parse failed: " + q.status().ToString());
    }
    query::UnionQuery unlimited = *q;
    unlimited.SetLimit(query::UnionQuery::kNoLimit);
    unlimited.SetOffset(0);
    Expected e;
    e.all = Rows(rg.graph, closure_eval.Evaluate(unlimited));
    const query::ResultSet sat = closure_eval.Evaluate(*q);
    e.exact = Rows(rg.graph, sat);
    e.rows = sat.rows.size();
    e.limited = q->limit() != query::UnionQuery::kNoLimit || q->offset() > 0;
    if (e.limited) {
      const size_t rest =
          e.all.size() > q->offset() ? e.all.size() - q->offset() : 0;
      if (e.rows != std::min(rest, q->limit())) {
        return fail(label + ": saturation returned " + std::to_string(e.rows) +
                    " rows under its LIMIT/OFFSET");
      }
    }

    Result<query::UnionQuery> ucq = reformulator.Reformulate(*q);
    if (!ucq.ok()) return fail(label + ": " + ucq.status().ToString());
    const query::ResultSet via_ucq = base_eval.Evaluate(*ucq);
    if (!agrees(e, Rows(rg.graph, via_ucq), via_ucq.rows.size())) {
      return fail(label + ": the whole-query UCQ differs from saturation");
    }
    Result<std::vector<query::JoinOfUnions>> joins =
        reformulator.ReformulateAtoms(*q);
    if (!joins.ok()) return fail(label + ": " + joins.status().ToString());
    const query::ResultSet via_jucq = base_eval.Evaluate(*q, *joins);
    if (!agrees(e, Rows(rg.graph, via_jucq), via_jucq.rows.size())) {
      return fail(label + ": the join of unions differs from saturation");
    }
    expected.push_back(std::move(e));
  }

  const rdf::StorageBackend backend = seed % 2 == 0
                                          ? rdf::StorageBackend::kOrdered
                                          : rdf::StorageBackend::kFlat;
  const bool encoding = seed % 4 >= 2;
  store::ReasoningStoreOptions options;
  options.mode = store::ReasoningMode::kReformulation;
  options.backend = backend;
  options.encoding = encoding;
  store::ReasoningStore store(options);
  Result<size_t> loaded = store.LoadTurtle(turtle);
  if (!loaded.ok()) {
    return fail("store LoadTurtle failed: " + loaded.status().ToString());
  }
  const std::string store_label =
      std::string(" (backend=") + rdf::StorageBackendName(backend) +
      ", encoding=" + (encoding ? "on" : "off");
  for (size_t k = 0; k < texts.size(); ++k) {
    for (int route = 0; route < 3; ++route) {
      store::ReadOptions ro;
      ro.plan = route == 1;
      if (route == 2) ro.mode = store::ReasoningMode::kAuto;
      const std::string label =
          "jucq query " + std::to_string(k) + store_label +
          (route == 0 ? ", legacy join)"
                      : route == 1 ? ", plan)" : ", auto)");
      Result<store::PreparedQuery> prepared = store.Prepare(texts[k], ro);
      if (!prepared.ok()) {
        return fail(label + ": Prepare failed: " +
                    prepared.status().ToString());
      }
      if (route == 0 && prepared->joins.empty()) {
        return fail(label + ": the legacy join did not get a JUCQ");
      }
      Result<query::ResultSet> result = store.Execute(*prepared);
      if (!result.ok()) {
        return fail(label + ": Execute failed: " +
                    result.status().ToString());
      }
      Answers got;
      for (const query::Row& row : result->rows) {
        got.insert(store.DecodeRow(row));
      }
      if (!agrees(expected[k], got, result->rows.size())) {
        return fail(label + " differs from saturation");
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace wdr::test

#endif  // WDR_TESTS_DIFFERENTIAL_UTIL_H_
