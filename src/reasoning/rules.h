#ifndef WDR_REASONING_RULES_H_
#define WDR_REASONING_RULES_H_

#include <array>
#include <cstdint>

#include "rdf/dictionary.h"
#include "rdf/store_view.h"
#include "rdf/triple.h"
#include "schema/vocabulary.h"

namespace wdr::reasoning {

// The immediate entailment rules of the RDFS fragment (Fig. 2 of the paper
// plus the two schema-level transitivity rules from the RDF standard):
//
//   rdfs2 :  p rdfs:domain c        ∧  s p o             ⊢  s rdf:type c
//   rdfs3 :  p rdfs:range c         ∧  s p o             ⊢  o rdf:type c
//   rdfs5 :  p1 rdfs:subPropertyOf p2 ∧ p2 rdfs:subPropertyOf p3
//                                                        ⊢  p1 rdfs:subPropertyOf p3
//   rdfs7 :  p1 rdfs:subPropertyOf p2 ∧ s p1 o           ⊢  s p2 o
//   rdfs9 :  c1 rdfs:subClassOf c2  ∧  s rdf:type c1     ⊢  s rdf:type c2
//   rdfs11:  c1 rdfs:subClassOf c2  ∧  c2 rdfs:subClassOf c3
//                                                        ⊢  c1 rdfs:subClassOf c3
// The optional "RDFS++" extension rules (§II-C: the OWL predicates that
// AllegroGraph's RDFS++ and Virtuoso's inferencing add to RDFS):
//
//   owl-inv  :  p1 owl:inverseOf p2 ∧ s p1 o             ⊢  o p2 s
//               (and symmetrically for p2 assertions)
//   owl-sym  :  p rdf:type owl:SymmetricProperty ∧ s p o ⊢  o p s
//   owl-trans:  p rdf:type owl:TransitiveProperty ∧ s p o ∧ o p z
//                                                        ⊢  s p z
enum class RuleId : uint8_t {
  kRdfs2 = 0,
  kRdfs3,
  kRdfs5,
  kRdfs7,
  kRdfs9,
  kRdfs11,
  kOwlInverse,
  kOwlSymmetric,
  kOwlTransitive,
};
inline constexpr int kRuleCount = 9;

// Stable names, e.g. "rdfs9".
const char* RuleName(RuleId rule);

// Per-rule firing counters, updated by the engine.
struct RuleFirings {
  std::array<uint64_t, kRuleCount> counts{};

  uint64_t& operator[](RuleId rule) {
    return counts[static_cast<size_t>(rule)];
  }
  uint64_t operator[](RuleId rule) const {
    return counts[static_cast<size_t>(rule)];
  }
  uint64_t Total() const {
    uint64_t total = 0;
    for (uint64_t c : counts) total += c;
    return total;
  }
};

// Stateless immediate-entailment engine: enumerates one-step consequences
// of a triple against a store, and checks one-step derivability (used by
// DRed re-derivation). The dictionary is consulted only to suppress
// ill-formed conclusions (a literal can never be a subject, so rdfs3 does
// not fire a type assertion for literal objects).
class RuleEngine {
 public:
  // `enable_owl` switches on the RDFS++ extension rules. Off by default:
  // the reformulation and backward-chaining engines cover the RDFS
  // fragment only, so stores that answer via rewriting must saturate with
  // the same fragment to stay equivalent.
  RuleEngine(const schema::Vocabulary& vocab, const rdf::Dictionary* dict,
             bool enable_owl = false)
      : vocab_(vocab), dict_(dict), enable_owl_(enable_owl) {}

  // Invokes `fn(const Triple&, RuleId)` for every triple derivable in one
  // rule application that uses `t` as one premise and `store` for the other
  // premise. `t` itself is expected to be in `store` already (so rule
  // instances with both premises equal to `t` are found too).
  template <typename Fn>
  void ForEachConsequence(const rdf::StoreView& store, const rdf::Triple& t,
                          Fn&& fn) const {
    ForEachDerivation(store, t,
                      [&fn](const rdf::Triple& c, RuleId rule,
                            const rdf::Triple& /*other_premise*/) {
                        fn(c, rule);
                      });
  }

  // As ForEachConsequence, but also reports the second premise of the rule
  // instance: `fn(conclusion, rule, other_premise)` where the premises of
  // the derivation are {t, other_premise}. Used by provenance (explain.h).
  template <typename Fn>
  void ForEachDerivation(const rdf::StoreView& store, const rdf::Triple& t,
                         Fn&& fn) const;

  // True if `t` is derivable by a single rule application whose premises
  // are both in `store` (and distinct from `t`, which the caller must have
  // removed from `store` or never inserted).
  bool IsOneStepDerivable(const rdf::StoreView& store,
                          const rdf::Triple& t) const;

 private:
  bool LiteralSubject(rdf::TermId id) const {
    return dict_ != nullptr && dict_->Contains(id) &&
           dict_->term(id).is_literal();
  }

  schema::Vocabulary vocab_;
  const rdf::Dictionary* dict_;  // may be null; not owned
  bool enable_owl_;
};

// ---------------------------------------------------------------------------
// Implementation details only below here.

template <typename Fn>
void RuleEngine::ForEachDerivation(const rdf::StoreView& store,
                                   const rdf::Triple& t, Fn&& fn) const {
  const schema::Vocabulary& v = vocab_;
  using rdf::Triple;

  if (t.p == v.sub_class_of) {
    // rdfs11, t as left premise: t.o ⊑ x  =>  t.s ⊑ x.
    store.Match(t.o, v.sub_class_of, 0, [&](const Triple& m) {
      fn(Triple(t.s, v.sub_class_of, m.o), RuleId::kRdfs11, m);
    });
    // rdfs11, t as right premise: x ⊑ t.s  =>  x ⊑ t.o.
    store.Match(0, v.sub_class_of, t.s, [&](const Triple& m) {
      fn(Triple(m.s, v.sub_class_of, t.o), RuleId::kRdfs11, m);
    });
    // rdfs9, t as schema premise: i type t.s  =>  i type t.o.
    store.Match(0, v.type, t.s, [&](const Triple& m) {
      fn(Triple(m.s, v.type, t.o), RuleId::kRdfs9, m);
    });
  } else if (t.p == v.sub_property_of) {
    // rdfs5 both ways.
    store.Match(t.o, v.sub_property_of, 0, [&](const Triple& m) {
      fn(Triple(t.s, v.sub_property_of, m.o), RuleId::kRdfs5, m);
    });
    store.Match(0, v.sub_property_of, t.s, [&](const Triple& m) {
      fn(Triple(m.s, v.sub_property_of, t.o), RuleId::kRdfs5, m);
    });
    // rdfs7, t as schema premise: x t.s y  =>  x t.o y.
    store.Match(0, t.s, 0, [&](const Triple& m) {
      fn(Triple(m.s, t.o, m.o), RuleId::kRdfs7, m);
    });
  } else if (t.p == v.domain) {
    // rdfs2, t as schema premise: x t.s y  =>  x type t.o.
    store.Match(0, t.s, 0, [&](const Triple& m) {
      fn(Triple(m.s, v.type, t.o), RuleId::kRdfs2, m);
    });
  } else if (t.p == v.range) {
    // rdfs3, t as schema premise: x t.s y  =>  y type t.o.
    store.Match(0, t.s, 0, [&](const Triple& m) {
      if (!LiteralSubject(m.o)) fn(Triple(m.o, v.type, t.o), RuleId::kRdfs3, m);
    });
  } else if (t.p == v.type) {
    // rdfs9, t as instance premise: t.o ⊑ c  =>  t.s type c.
    store.Match(t.o, v.sub_class_of, 0, [&](const Triple& m) {
      fn(Triple(t.s, v.type, m.o), RuleId::kRdfs9, m);
    });
  }

  if (enable_owl_) {
    if (t.p == v.owl_inverse_of) {
      // owl-inv, t as schema premise, both directions.
      store.Match(0, t.s, 0, [&](const Triple& m) {
        if (!LiteralSubject(m.o)) fn(Triple(m.o, t.o, m.s), RuleId::kOwlInverse, m);
      });
      store.Match(0, t.o, 0, [&](const Triple& m) {
        if (!LiteralSubject(m.o)) fn(Triple(m.o, t.s, m.s), RuleId::kOwlInverse, m);
      });
    } else if (t.p == v.type && t.o == v.owl_symmetric) {
      store.Match(0, t.s, 0, [&](const Triple& m) {
        if (!LiteralSubject(m.o)) fn(Triple(m.o, t.s, m.s), RuleId::kOwlSymmetric, m);
      });
    } else if (t.p == v.type && t.o == v.owl_transitive) {
      // owl-trans, t as schema premise: join all p-chains.
      store.Match(0, t.s, 0, [&](const Triple& m) {
        store.Match(m.o, t.s, 0, [&](const Triple& n) {
          fn(Triple(m.s, t.s, n.o), RuleId::kOwlTransitive, n);
        });
      });
    }
    // t as instance premise of the OWL rules.
    store.Match(t.p, v.owl_inverse_of, 0, [&](const Triple& m) {
      if (!LiteralSubject(t.o)) fn(Triple(t.o, m.o, t.s), RuleId::kOwlInverse, m);
    });
    store.Match(0, v.owl_inverse_of, t.p, [&](const Triple& m) {
      if (!LiteralSubject(t.o)) fn(Triple(t.o, m.s, t.s), RuleId::kOwlInverse, m);
    });
    if (store.Contains(Triple(t.p, v.type, v.owl_symmetric)) &&
        !LiteralSubject(t.o)) {
      // The reported other premise is the symmetry declaration, so
      // provenance records the complete premise pair.
      fn(Triple(t.o, t.p, t.s), RuleId::kOwlSymmetric,
         Triple(t.p, v.type, v.owl_symmetric));
    }
    if (store.Contains(Triple(t.p, v.type, v.owl_transitive))) {
      store.Match(t.o, t.p, 0, [&](const Triple& m) {
        fn(Triple(t.s, t.p, m.o), RuleId::kOwlTransitive, m);
      });
      store.Match(0, t.p, t.s, [&](const Triple& m) {
        fn(Triple(m.s, t.p, t.o), RuleId::kOwlTransitive, m);
      });
    }
  }

  // Every triple is also a candidate instance premise for rdfs7/2/3 keyed
  // on its own property (rdf:type and the RDFS properties included: they
  // are properties themselves and may carry constraints).
  store.Match(t.p, v.sub_property_of, 0, [&](const Triple& m) {
    fn(Triple(t.s, m.o, t.o), RuleId::kRdfs7, m);
  });
  store.Match(t.p, v.domain, 0, [&](const Triple& m) {
    fn(Triple(t.s, v.type, m.o), RuleId::kRdfs2, m);
  });
  if (!LiteralSubject(t.o)) {
    store.Match(t.p, v.range, 0, [&](const Triple& m) {
      fn(Triple(t.o, v.type, m.o), RuleId::kRdfs3, m);
    });
  }
}

}  // namespace wdr::reasoning

#endif  // WDR_REASONING_RULES_H_
