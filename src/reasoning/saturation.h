#ifndef WDR_REASONING_SATURATION_H_
#define WDR_REASONING_SATURATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdf/graph.h"
#include "rdf/triple_store.h"
#include "reasoning/rules.h"
#include "schema/vocabulary.h"

namespace wdr::reasoning {

struct SaturationStats {
  size_t base_triples = 0;
  size_t closure_triples = 0;
  size_t derived_triples = 0;  // closure_triples - base_triples
  size_t rounds = 0;           // fixpoint rounds (worklist generations)
  RuleFirings firings;         // successful derivations per rule
};

// Semi-naive propagation, the shared engine under initial saturation,
// incremental insertion and DRed re-derivation.
//
// Precondition: every triple of `delta` is already present in `closure`
// (so joins between two same-generation triples are visible). The delta
// seeds an eager worklist: a derived triple enters the closure the moment
// it is derived and is queued to be joined against the closure in turn.
//
// Returns the number of triples added to `closure`. `firings` and
// `rounds`, when given, are accumulated (not reset).
size_t Propagate(const RuleEngine& engine, rdf::StoreView& closure,
                 std::vector<rdf::Triple> delta,
                 RuleFirings* firings = nullptr, size_t* rounds = nullptr);

// Forward-chaining saturation: computes the closure G∞ of a base store as
// the fixpoint of the immediate entailment rules (semi-naive: each inserted
// triple is joined against the current closure exactly once as a "delta").
//
// The result is deterministic (the closure is unique up to nothing — it is
// a set), regardless of iteration order; this is property-tested.
class Saturator {
 public:
  // `enable_owl` adds the RDFS++ extension rules (see rules.h).
  Saturator(const schema::Vocabulary& vocab, const rdf::Dictionary* dict,
            bool enable_owl = false)
      : engine_(vocab, dict, enable_owl) {}

  // Core: fills `closure` with base ∪ entailed triples. Returns
  // InvalidArgument if `closure` is not empty — saturating into a
  // non-empty store would silently produce wrong stats and a closure of
  // the union, which no caller wants. Both sides go through the StoreView
  // seam, so base and closure may use different storage backends.
  Status SaturateInto(const rdf::StoreView& base, rdf::StoreView& closure,
                      SaturationStats* stats = nullptr) const;

  // Convenience: returns base ∪ entailed triples in an ordered store.
  rdf::TripleStore Saturate(const rdf::StoreView& base,
                            SaturationStats* stats = nullptr) const;

  // Convenience: saturates `graph`'s store using its dictionary.
  static rdf::TripleStore SaturateGraph(const rdf::Graph& graph,
                                        const schema::Vocabulary& vocab,
                                        SaturationStats* stats = nullptr);

  const RuleEngine& engine() const { return engine_; }

 private:
  RuleEngine engine_;
};

}  // namespace wdr::reasoning

#endif  // WDR_REASONING_SATURATION_H_
