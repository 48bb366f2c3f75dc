#ifndef WDR_BACKWARD_BACKWARD_EVALUATOR_H_
#define WDR_BACKWARD_BACKWARD_EVALUATOR_H_

#include <vector>

#include "query/evaluator.h"
#include "query/query.h"
#include "rdf/store_view.h"
#include "schema/schema.h"
#include "schema/vocabulary.h"

namespace wdr::backward {

// Statistics of one backward-chaining evaluation.
struct BackwardStats {
  size_t atom_alternatives = 0;  // total expansion alternatives generated
  size_t index_probes = 0;       // store Match calls issued during the join
};

// Run-time backward chaining: answers BGP queries over the *virtual*
// saturation G∞ of a store without materializing it and without building
// the full reformulated UCQ. This models the run-time reasoning of the
// systems the paper surveys in §II-C (AllegroGraph RDFS++, Virtuoso).
//
// Each query atom is expanded once into its set of alternatives (the same
// per-atom rewritings reformulation uses, computed to fixpoint), but the
// cross-product of alternatives is never materialized: alternatives are
// tried per atom *inside* the join, with bindings pushed between atoms.
// The answers equal those of evaluating the reformulated query on the
// store, and those of evaluating the original query on the saturated
// store — this is property-tested.
//
// As with reformulation, the contract assumes a schema-closed store.
class BackwardChainingEvaluator {
 public:
  BackwardChainingEvaluator(const rdf::StoreView& store,
                            const schema::Schema& schema,
                            const schema::Vocabulary& vocab)
      : store_(&store), schema_(&schema), vocab_(vocab) {}

  query::ResultSet Evaluate(const query::BgpQuery& q,
                            BackwardStats* stats = nullptr) const;
  query::ResultSet Evaluate(const query::UnionQuery& q,
                            BackwardStats* stats = nullptr) const;

 private:
  const rdf::StoreView* store_;      // not owned
  const schema::Schema* schema_;     // not owned
  schema::Vocabulary vocab_;
};

}  // namespace wdr::backward

#endif  // WDR_BACKWARD_BACKWARD_EVALUATOR_H_
