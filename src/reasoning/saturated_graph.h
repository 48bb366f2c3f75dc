#ifndef WDR_REASONING_SATURATED_GRAPH_H_
#define WDR_REASONING_SATURATED_GRAPH_H_

#include <cstdint>
#include <memory>

#include "rdf/graph.h"
#include "rdf/store_view.h"
#include "reasoning/rules.h"
#include "reasoning/saturation.h"
#include "schema/vocabulary.h"

namespace wdr::reasoning {

// Cumulative maintenance counters (one saturated graph instance).
struct MaintenanceStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t closure_added = 0;        // triples added to the closure by inserts
  uint64_t closure_removed = 0;      // net triples removed by deletes
  uint64_t overdeleted = 0;          // DRed over-deletion set sizes (total)
  uint64_t rederived = 0;            // DRed re-derivations (total)
};

// A base RDF graph together with its incrementally maintained closure G∞.
//
// This is the "saturation" side of the paper's trade-off: queries are
// evaluated against closure() and are cheap; updates pay a maintenance
// cost. Insertions propagate semi-naively from the new triple; deletions
// use DRed (over-delete then re-derive), which is sound for the recursive
// RDFS rules where derivation counting is not (cyclic subclass graphs).
// Both instance and schema triples are handled uniformly — a schema triple
// is just a triple whose consequences happen to be numerous, which is
// exactly why the paper's Fig. 3 shows lower thresholds for schema updates.
class SaturatedGraph {
 public:
  // Snapshots `base` and computes the initial closure, stored in the same
  // storage backend as `base`. `enable_owl` adds the RDFS++ extension rules
  // (rules.h) to both saturation and maintenance.
  SaturatedGraph(const rdf::Graph& base, const schema::Vocabulary& vocab,
                 bool enable_owl = false);

  // Copies snapshot the closure store (unique_ptr member, so spelled out).
  SaturatedGraph(const SaturatedGraph& other);
  SaturatedGraph& operator=(const SaturatedGraph& other);
  SaturatedGraph(SaturatedGraph&&) = default;
  SaturatedGraph& operator=(SaturatedGraph&&) = default;

  const rdf::Graph& base() const { return base_; }
  rdf::Dictionary& dict() { return base_.dict(); }
  const rdf::StoreView& closure() const { return *closure_; }
  rdf::StorageBackend backend() const { return closure_->backend(); }
  const schema::Vocabulary& vocab() const { return vocab_; }

  // Inserts `t` into the base graph and maintains the closure.
  // Returns the number of triples added to the closure (0 if `t` was
  // already entailed — it still becomes a base triple).
  size_t Insert(const rdf::Triple& t);

  // Erases `t` from the base graph and maintains the closure with DRed.
  // Returns the net number of triples removed from the closure (0 if `t`
  // was not a base triple, or if it remains entailed by the rest).
  size_t Erase(const rdf::Triple& t);

  // Recomputes the closure from scratch (the paper's "recompute" baseline).
  void Rebuild();

  const MaintenanceStats& stats() const { return stats_; }
  const SaturationStats& initial_saturation() const { return initial_stats_; }

 private:
  // The rule engine is constructed per call: it holds a pointer to the
  // dictionary, which must track this object across copies and moves.
  RuleEngine MakeEngine() const {
    return RuleEngine(vocab_, &base_.dict(), enable_owl_);
  }

  rdf::Graph base_;
  std::unique_ptr<rdf::StoreView> closure_;
  schema::Vocabulary vocab_;
  bool enable_owl_ = false;
  MaintenanceStats stats_;
  SaturationStats initial_stats_;
};

}  // namespace wdr::reasoning

#endif  // WDR_REASONING_SATURATED_GRAPH_H_
