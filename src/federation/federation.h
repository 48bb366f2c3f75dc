#ifndef WDR_FEDERATION_FEDERATION_H_
#define WDR_FEDERATION_FEDERATION_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "query/evaluator.h"
#include "rdf/dictionary.h"
#include "rdf/store_view.h"
#include "rdf/triple_store.h"
#include "rdf/union_store.h"
#include "reformulation/reformulator.h"
#include "schema/schema.h"
#include "schema/vocabulary.h"

namespace wdr::federation {

using EndpointId = size_t;

// Per-query diagnostics.
struct FederationQueryInfo {
  // One entry per endpoint probed during evaluation.
  struct EndpointStats {
    std::string name;
    uint64_t matches = 0;  // index probes sent to this endpoint
    uint64_t rows = 0;     // triples this endpoint contributed (post-dedup)
  };

  size_t union_size = 1;        // reformulation disjuncts evaluated
  size_t endpoints_scanned = 0;
  double seconds = 0;
  std::vector<EndpointStats> endpoints;
};

// A federation of autonomous RDF endpoints — the paper's §I scenario:
// "typical Semantic Web scenarios involve integrating data from several
// RDF repositories ... authored independently, [with] their own sets of
// semantic constraints; computing prior to query answering all the
// consequences of facts from any endpoint and constraints from any
// (other) endpoint is not feasible."
//
// Accordingly the federation answers queries by REFORMULATION only: each
// query is rewritten against the current union of all endpoint schemas
// and evaluated over the set-union of endpoint stores (no endpoint's data
// is copied or saturated). Constraints from one endpoint apply to facts
// from any other, which is exactly the cross-endpoint entailment the
// quote is about: q over the federation returns q(G∞) of the merged
// graph (property-tested against merging + saturating).
//
// Terms are interned in one shared dictionary (a real deployment would
// ship mappings; dictionary mechanics are orthogonal to the algorithms).
class Federation {
 public:
  // `backend` selects the storage engine every endpoint store uses.
  explicit Federation(
      rdf::StorageBackend backend = rdf::StorageBackend::kOrdered);

  // Registers an empty endpoint and returns its id.
  EndpointId AddEndpoint(std::string name);

  size_t endpoint_count() const { return endpoints_.size(); }
  const std::string& endpoint_name(EndpointId id) const {
    return endpoints_[id].name;
  }
  const rdf::StoreView& endpoint_store(EndpointId id) const {
    return *endpoints_[id].store;
  }

  // Loads Turtle data into one endpoint. Returns new-triple count.
  Result<size_t> LoadTurtle(EndpointId id, std::string_view text);

  // Single-triple endpoint updates (terms must be interned via dict()).
  bool Insert(EndpointId id, const rdf::Triple& t);
  bool Erase(EndpointId id, const rdf::Triple& t);

  // Answers a SPARQL query over the federation (reformulation + federated
  // evaluation; set semantics across endpoints).
  Result<query::ResultSet> Query(std::string_view sparql,
                                 FederationQueryInfo* info = nullptr);

  // Programmatic variant; constants must be interned via dict().
  Result<query::ResultSet> Query(const query::UnionQuery& q,
                                 FederationQueryInfo* info = nullptr);

  rdf::Dictionary& dict() { return dict_; }
  const schema::Vocabulary& vocab() const { return vocab_; }

  // Total triples across endpoints (duplicates counted per endpoint).
  size_t size() const;

  rdf::StorageBackend backend() const { return backend_; }

  // Toggles plan-based evaluation of the reformulated union: branches
  // compile into the shared wdr::exec physical-plan IR with cost-based
  // join order and hash joins. Statistics are built once per query over
  // the federated view (endpoints are autonomous, so there is no stable
  // store to cache against). Answers are identical either way.
  void SetPlanMode(bool on) { query_options_.plan = on; }
  bool plan_mode() const { return query_options_.plan; }

  // Bumped whenever a schema triple (an RDFS constraint predicate) is
  // inserted into or erased from any endpoint; the cached closed federated
  // schema below is valid iff its recorded revision equals this counter.
  uint64_t schema_revision() const { return schema_rev_; }

 private:
  struct Endpoint {
    std::string name;
    std::unique_ptr<rdf::StoreView> store;
  };

  // Everything Query derives from the merged endpoint schemas, rebuilt
  // only when the schema revision moves: the closed schema store (held by
  // stable address — queries use it as a UnionStore member), the
  // constraint view over it, and the reformulator (whose per-query memo
  // now survives across queries). Instance-only updates leave all of it
  // untouched.
  struct SchemaCache {
    rdf::TripleStore closed_schema;
    schema::Schema schema;
    reformulation::Reformulator reformulator;  // points into `schema`

    SchemaCache(rdf::TripleStore closed, const schema::Vocabulary& vocab)
        : closed_schema(std::move(closed)),
          schema(schema::Schema::FromStore(closed_schema, vocab)),
          reformulator(schema, vocab) {}
  };

  // The cache for the current schema revision, (re)building it if stale.
  SchemaCache& CachedSchemaCache();

  // The union of all endpoints' schema triples, closed (rdfs5/rdfs11).
  rdf::TripleStore ClosedFederatedSchemaStore() const;

  rdf::Dictionary dict_;
  schema::Vocabulary vocab_;
  rdf::StorageBackend backend_;
  query::EvaluatorOptions query_options_;
  std::vector<Endpoint> endpoints_;
  uint64_t schema_rev_ = 1;
  uint64_t schema_cache_rev_ = 0;  // 0 = never built
  std::unique_ptr<SchemaCache> schema_cache_;
};

}  // namespace wdr::federation

#endif  // WDR_FEDERATION_FEDERATION_H_
