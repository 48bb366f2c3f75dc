#ifndef WDR_DATALOG_RDF_DATALOG_H_
#define WDR_DATALOG_RDF_DATALOG_H_

#include <vector>

#include "common/status.h"
#include "datalog/database.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "query/evaluator.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/triple_store.h"
#include "schema/vocabulary.h"

namespace wdr::datalog {

// Translation of RDF + RDFS entailment to Datalog (§II-D open issue:
// "alternative methods ... based on translation to Datalog"). The graph is
// reified into a single ternary predicate
//
//   triple(s, p, o)
//
// with one fact per triple and one sym per dictionary term, plus a unary
// guard resource(x) for non-literal terms (literals cannot be subjects, so
// the rdfs3 rule is guarded). The RDFS rules of Fig. 2 plus the two
// transitivity rules become six Datalog rules; materializing the program
// computes exactly the saturation G∞ (property-tested against the native
// saturator).
struct RdfDatalogTranslation {
  DlProgram program;
  PredId triple_pred = 0;
  PredId resource_pred = 0;
  // sym_of_term[term_id] is the Sym for that TermId (index 0 unused).
  std::vector<Sym> sym_of_term;
  // term_of_sym[sym] is the TermId (dictionary id) for that Sym.
  std::vector<rdf::TermId> term_of_sym;
};

// Builds the translation of `graph`.
RdfDatalogTranslation TranslateGraph(const rdf::Graph& graph,
                                     const schema::Vocabulary& vocab);

// Materializes the translated program and converts the `triple` relation
// back into a TripleStore over the graph's dictionary ids.
Result<rdf::TripleStore> MaterializeViaDatalog(
    const rdf::Graph& graph, const schema::Vocabulary& vocab,
    Strategy strategy = Strategy::kSemiNaive, EvalStats* stats = nullptr);

// Answers a BGP / union query through the Datalog route: translates each
// branch into a conjunctive query over `triple`, evaluates it against the
// materialized database, and maps syms back to dictionary ids. Results are
// set-semantics rows in the projection order of the query.
Result<query::ResultSet> AnswerViaDatalog(const RdfDatalogTranslation& xlat,
                                          const Database& db,
                                          const query::UnionQuery& q);

// Answers a BGP / union query through Datalog + magic sets, with NO prior
// materialization: each branch is wrapped in a fresh answer predicate whose
// single defining rule is the branch body, and magic-sets evaluation
// (datalog/magic.h) derives only the closure fragment relevant to that
// branch. This is the store's kDatalog route — reasoning cost is paid per
// query, focused by the query's constants, against the always-fresh base
// facts baked into `xlat`. Preset bindings are substituted as constants
// (same convention as AnswerViaDatalog). `stats`, when non-null,
// accumulates the per-branch materialization stats.
Result<query::ResultSet> AnswerViaMagicUnion(const RdfDatalogTranslation& xlat,
                                             const query::UnionQuery& q,
                                             EvalStats* stats = nullptr);

}  // namespace wdr::datalog

#endif  // WDR_DATALOG_RDF_DATALOG_H_
