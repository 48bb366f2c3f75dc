#ifndef WDR_REFORMULATION_REFORMULATOR_H_
#define WDR_REFORMULATION_REFORMULATOR_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "query/query.h"
#include "rdf/graph.h"
#include "rdf/hier_encoding.h"
#include "schema/schema.h"
#include "schema/vocabulary.h"

namespace wdr::reformulation {

struct ReformulationOptions {
  // Safety valve: reformulation can be exponential in the number of atoms
  // (the paper: "syntactically larger reformulated queries"). Exceeding the
  // cap yields ResourceExhausted rather than unbounded memory use.
  size_t max_conjunctive_queries = 200000;
  // Prune disjuncts subsumed by other disjuncts (see subsumption.h). Costs
  // O(|UCQ|^2) homomorphism checks at rewrite time, pays back at every
  // evaluation; ablated by bench_reformulation.
  bool minimize = false;
  // Hierarchy-aware encoding (LiteMat) the current dictionary id space was
  // permuted under, or null when ids are encoding-free. When a queried
  // class (property) has a valid interval, its subclass (subproperty)
  // rewriting union collapses to a single range-constrained atom; invalid
  // nodes fall back to the classic per-node enumeration. The caller must
  // guarantee the encoding matches the query's and schema's id space
  // (same schema version).
  const rdf::HierEncoding* encoding = nullptr;
};

// A cheap prediction of a query's reformulation size, computed from the
// schema closures alone — no branch is ever materialized. The auto-mode
// strategy selector calls this on every query, so it must stay O(closure
// sizes), not O(|UCQ|).
struct FanoutEstimate {
  // Estimated |UCQ| (conjunctive queries, original included): the product
  // over atoms of each atom's rewriting-set size. An upper bound — the
  // fixpoint's canonical-form dedup can only shrink it. Saturating.
  size_t branches = 1;
  // Interval collapses the hierarchy encoding would apply (enumerations
  // replaced by one range atom); already reflected in `branches`.
  size_t range_collapses = 0;
  // True when the estimate was read off memoized rewritings: the whole
  // query's exact post-dedup size, or the exact product of its atoms'
  // rewriting-set sizes when each atom was rewritten on its own.
  bool exact = false;
};

struct ReformulationStats {
  size_t conjunctive_queries = 0;  // |UCQ| including the original query
  size_t total_atoms = 0;
  size_t rewrite_steps = 0;  // one-step rewritings applied (pre-dedup)
  size_t pruned_cqs = 0;     // disjuncts removed by minimization
  // Hierarchy-encoding interval collapses: subclass/subproperty unions
  // replaced by a single range-constrained atom (0 when the encoding is
  // off — each collapse stands for a whole enumerated branch family).
  size_t range_collapses = 0;
};

// Query reformulation for the RDFS fragment (§II-B, following the EDBT'13
// algorithm the paper's Fig. 3 is drawn from). Turns a BGP query q into a
// union of BGP queries q_ref with the defining property
//
//     q_ref(G) = q(G∞)
//
// for any graph G whose *schema triples are closed* (see CloseSchema below;
// schema closure is tiny and is maintained eagerly by systems implementing
// reformulation — the saturation/reformulation trade-off concerns the
// instance-level entailment, which dwarfs it).
//
// The rewriting is a fixpoint over a set of CQs. One step rewrites a single
// atom, possibly substituting a query variable with a schema constant
// (needed when variables occur in class or property positions — the
// "blurred" RDF fragment of the paper's §II-B):
//
//   (s rdf:type c)   ->  (s rdf:type c1)     for c1 a strict subclass of c
//   (s rdf:type c)   ->  (s p _f)            for p with domain c
//   (s rdf:type c)   ->  (_f p s)            for p with range c
//   (s p o), p ≠ type -> (s p1 o)            for p1 a strict subproperty of p
//   (s rdf:type ?c)  ->  σ{?c=c} (s rdf:type c)   for each schema class c
//   (s ?p o)         ->  σ{?p=p} (s p o)     for each schema property p,
//                                            and for p = rdf:type
//
// Fixpoint iteration composes these (e.g. subclass then domain then
// subproperty), and duplicate CQs are pruned via a canonical form.
//
// Known restriction (shared with the literature the paper cites): the
// rewriting assumes schema triples are not themselves derivable from
// instance triples (no property is declared a subproperty of an RDFS
// constraint property).
// A Reformulator instance is a snapshot of ONE schema version: it holds the
// Schema's closures (and optionally a hierarchy encoding) by reference and
// memoizes per-query rewriting results against them. Owners tracking a
// schema version counter (see store::ReasoningStore) must drop and rebuild
// the instance when the counter moves — that one invalidation point covers
// the closures, the encoding, and the memo alike. Not thread-safe: the memo
// mutates under const Reformulate.
class Reformulator {
 public:
  Reformulator(const schema::Schema& schema, const schema::Vocabulary& vocab,
               ReformulationOptions options = {})
      : schema_(&schema), vocab_(vocab), options_(options) {}

  // Reformulates one BGP query into a UCQ. The first branch is always the
  // original query.
  Result<query::UnionQuery> Reformulate(const query::BgpQuery& q,
                                        ReformulationStats* stats = nullptr) const;

  // Reformulates each branch and concatenates the results.
  Result<query::UnionQuery> Reformulate(const query::UnionQuery& q,
                                        ReformulationStats* stats = nullptr) const;

  // Reformulates each atom of each branch on its own (the memo keys on the
  // atom's shape, see query::AtomQuery) into a join of per-atom unions, one
  // per branch of `q`, in order. `stats` sums the per-atom ones
  // (conjunctive_queries is then the number of rewritings). Internal error
  // when a rewriting leaves one of its atom's variables unbound
  // (query::JoinOfUnions::AddAtom): no rewriting rule does.
  Result<std::vector<query::JoinOfUnions>> ReformulateAtoms(
      const query::UnionQuery& q, ReformulationStats* stats = nullptr) const;

  // Estimates the fan-out Reformulate(q) would produce, without expanding:
  // exact (from the memo) when this query, or each of its atoms on its own
  // (the join-of-unions route's memo entries), was already rewritten under
  // the current schema version; an O(closure) upper bound otherwise.
  FanoutEstimate EstimateFanout(const query::BgpQuery& q) const;
  // Sum over branches; exact iff every branch hit the memo.
  FanoutEstimate EstimateFanout(const query::UnionQuery& q) const;

 private:
  // Bounds the per-instance memo (each entry holds a whole UCQ, which can
  // be large for deep hierarchies). Benches and repeated dashboards loop
  // over far fewer distinct queries than this.
  static constexpr size_t kMemoCapacity = 256;

  const schema::Schema* schema_;  // not owned
  schema::Vocabulary vocab_;
  ReformulationOptions options_;
  // Canonical query key -> reformulated UCQ + its stats. Lives exactly as
  // long as this instance, i.e. one schema version.
  mutable std::unordered_map<std::string,
                             std::pair<query::UnionQuery, ReformulationStats>>
      memo_;
};

// Saturates the schema component of `graph` in place: extracts the triples
// whose property is an RDFS constraint property, closes them under the
// entailment rules (rdfs5/rdfs11 transitivity), and inserts the derived
// schema triples back. Returns the number of triples added. Reformulation's
// correctness contract q_ref(G) = q(G∞) is stated for schema-closed graphs.
size_t CloseSchema(rdf::Graph& graph, const schema::Vocabulary& vocab);

}  // namespace wdr::reformulation

#endif  // WDR_REFORMULATION_REFORMULATOR_H_
