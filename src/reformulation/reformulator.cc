#include "reformulation/reformulator.h"

#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "obs/metrics.h"
#include "reasoning/saturation.h"
#include "reformulation/subsumption.h"

namespace wdr::reformulation {
namespace {

using query::BgpQuery;
using query::PatternTerm;
using query::TriplePattern;
using query::UnionQuery;
using query::VarId;
using rdf::TermId;

// Replaces variable `var` with constant `value` throughout `q`'s atoms and
// records the binding so projected occurrences still produce the value.
BgpQuery Substitute(const BgpQuery& q, VarId var, TermId value) {
  BgpQuery out = q;
  for (TriplePattern& atom : out.mutable_atoms()) {
    for (PatternTerm* pos : {&atom.s, &atom.p, &atom.o}) {
      if (pos->is_var() && pos->var == var) {
        *pos = PatternTerm::Constant(value);
      }
    }
  }
  out.Preset(var, value);
  return out;
}

// Replaces atom `index` of `q` with `replacement`.
BgpQuery ReplaceAtom(const BgpQuery& q, size_t index,
                     const TriplePattern& replacement) {
  BgpQuery out = q;
  out.mutable_atoms()[index] = replacement;
  return out;
}

// Generates the one-step rewritings of atom `index` in `q`.
class AtomRewriter {
 public:
  AtomRewriter(const schema::Schema& schema, const schema::Vocabulary& vocab,
               const rdf::HierEncoding* encoding, size_t* fresh_counter)
      : schema_(schema),
        vocab_(vocab),
        encoding_(encoding),
        fresh_counter_(fresh_counter) {}

  // Interval collapses performed across all Rewrite calls so far.
  size_t range_collapses() const { return range_collapses_; }

  template <typename EmitFn>
  void Rewrite(const BgpQuery& q, size_t index, EmitFn&& emit) const {
    const TriplePattern& atom = q.atoms()[index];

    // Range atoms are terminal: a range already denotes a whole closure,
    // and the schema rules it stands for have been applied at emission.
    if (atom.s.is_range() || atom.p.is_range() || atom.o.is_range()) return;

    if (atom.p.is_const() && atom.p.id == vocab_.type) {
      if (atom.o.is_const()) {
        RewriteTypeAtom(q, index, atom, atom.o.id, emit);
      } else {
        // Ground the class variable over the schema's classes; the
        // resulting constant-class atoms are rewritten in later rounds.
        for (TermId c : schema_.classes()) {
          BgpQuery grounded = Substitute(q, atom.o.var, c);
          emit(std::move(grounded));
        }
      }
      return;
    }

    if (atom.p.is_const()) {
      // Hierarchy-encoded collapse: when p's subproperty closure sits on
      // one contiguous id interval, the whole subproperty union becomes a
      // single range-constrained atom. Subproperty rewriting is the only
      // rule firing on a non-type atom, so the range branch is complete on
      // its own (the interval includes p itself).
      if (const rdf::HierInterval* iv = PropertyIntervalFor(atom.p.id)) {
        ++range_collapses_;
        emit(ReplaceAtom(q, index,
                         TriplePattern{atom.s, PatternTerm::Range(iv->lo, iv->hi),
                                       atom.o}));
        return;
      }
      // (s p o) -> (s p1 o) for strict subproperties p1 of p.
      for (TermId p1 : schema_.SubPropertiesOf(atom.p.id)) {
        if (p1 == atom.p.id) continue;
        emit(ReplaceAtom(q, index, TriplePattern{atom.s,
                                                 PatternTerm::Constant(p1),
                                                 atom.o}));
      }
      return;
    }

    // Property-position variable: ground over schema properties + rdf:type.
    for (TermId p : schema_.properties()) {
      if (vocab_.IsSchemaProperty(p)) continue;  // restriction, see header
      emit(Substitute(q, atom.p.var, p));
    }
    emit(Substitute(q, atom.p.var, vocab_.type));
  }

 private:
  template <typename EmitFn>
  void RewriteTypeAtom(const BgpQuery& q, size_t index,
                       const TriplePattern& atom, TermId c,
                       EmitFn&& emit) const {
    // Hierarchy-encoded collapse: when c's subclass closure sits on one
    // contiguous id interval, the rdfs9 union over strict subclasses
    // becomes a single range-constrained atom. Unlike the subproperty
    // case, subclasses can trigger further rules (rdfs2/rdfs3 on a
    // subclass of c), and the range atom is terminal — so the domain and
    // range rewritings must be emitted here for the *whole closure*, not
    // just for c (the fixpoint would otherwise have reached them through
    // the enumerated subclass branches).
    if (const rdf::HierInterval* iv = ClassIntervalFor(c)) {
      ++range_collapses_;
      emit(ReplaceAtom(q, index,
                       TriplePattern{atom.s, atom.p,
                                     PatternTerm::Range(iv->lo, iv->hi)}));
      for (TermId c1 : schema_.SubClassesOf(c)) {
        EmitDomainRange(q, index, atom, c1, emit);
      }
      return;
    }
    // rdfs9 backward: strict subclasses.
    for (TermId c1 : schema_.SubClassesOf(c)) {
      if (c1 == c) continue;
      emit(ReplaceAtom(
          q, index,
          TriplePattern{atom.s, atom.p, PatternTerm::Constant(c1)}));
    }
    EmitDomainRange(q, index, atom, c, emit);
  }

  // rdfs2/rdfs3 backward: one-step domain and range rewritings of
  // (s rdf:type c).
  template <typename EmitFn>
  void EmitDomainRange(const BgpQuery& q, size_t index,
                       const TriplePattern& atom, TermId c,
                       EmitFn&& emit) const {
    // rdfs2 backward: properties with domain c.
    for (TermId p : schema_.PropertiesWithDomain(c)) {
      BgpQuery out = q;
      VarId fresh = NewFreshVar(out);
      out.mutable_atoms()[index] =
          TriplePattern{atom.s, PatternTerm::Constant(p),
                        PatternTerm::Variable(fresh)};
      emit(std::move(out));
    }
    // rdfs3 backward: properties with range c.
    for (TermId p : schema_.PropertiesWithRange(c)) {
      BgpQuery out = q;
      VarId fresh = NewFreshVar(out);
      out.mutable_atoms()[index] =
          TriplePattern{PatternTerm::Variable(fresh),
                        PatternTerm::Constant(p), atom.s};
      emit(std::move(out));
    }
  }

  // The class (property) interval to collapse onto, or null when the
  // encoding is absent, the node is not tree-embeddable, or the closure is
  // trivial (width 1 — a range gains nothing over the point atom).
  const rdf::HierInterval* ClassIntervalFor(TermId c) const {
    if (encoding_ == nullptr) return nullptr;
    const rdf::HierInterval* iv = encoding_->ClassInterval(c);
    return (iv != nullptr && iv->valid && iv->width() >= 2) ? iv : nullptr;
  }
  const rdf::HierInterval* PropertyIntervalFor(TermId p) const {
    if (encoding_ == nullptr) return nullptr;
    const rdf::HierInterval* iv = encoding_->PropertyInterval(p);
    return (iv != nullptr && iv->valid && iv->width() >= 2) ? iv : nullptr;
  }

  VarId NewFreshVar(BgpQuery& q) const {
    return q.AddVar("_ref" + std::to_string((*fresh_counter_)++));
  }

  const schema::Schema& schema_;
  const schema::Vocabulary& vocab_;
  const rdf::HierEncoding* encoding_;  // may be null
  size_t* fresh_counter_;
  // mutable: Rewrite is logically const (pure emission), the collapse
  // count is an observation about it.
  mutable size_t range_collapses_ = 0;
};

// Saturating arithmetic for fan-out estimates: products over atoms can
// overflow size_t long before the rewriting itself would hit its CQ cap.
constexpr size_t kFanoutCap = size_t{1} << 60;

size_t SatAdd(size_t a, size_t b) {
  return (a > kFanoutCap - b) ? kFanoutCap : a + b;
}
size_t SatMul(size_t a, size_t b) {
  if (a == 0 || b == 0) return 0;
  return (a > kFanoutCap / b) ? kFanoutCap : a * b;
}

// Memo key for a BGP. CanonicalKey renames variables positionally, so two
// queries that differ only in variable *names* would collide — append the
// projection names (result-set headers travel with the memoized branches)
// and the distinct flag, which CanonicalKey does not cover.
std::string MemoKey(const BgpQuery& q) {
  std::string key = q.CanonicalKey();
  key += q.distinct() ? "|d1" : "|d0";
  for (const std::string& name : q.ProjectionNames()) {
    key += '|';
    key += name;
  }
  return key;
}

}  // namespace

Result<UnionQuery> Reformulator::Reformulate(const BgpQuery& q,
                                             ReformulationStats* stats) const {
  std::string memo_key = MemoKey(q);
  if (auto it = memo_.find(memo_key); it != memo_.end()) {
    WDR_COUNTER_INC("wdr.reformulation.memo_hits");
    if (stats != nullptr) *stats = it->second.second;
    return it->second.first;
  }

  size_t fresh_counter = 0;
  AtomRewriter rewriter(*schema_, vocab_, options_.encoding, &fresh_counter);

  UnionQuery result;
  std::unordered_set<std::string> seen;
  std::deque<size_t> frontier;  // indexes into result.branches()

  auto add = [&](BgpQuery candidate) -> Status {
    std::string key = candidate.CanonicalKey();
    if (!seen.insert(std::move(key)).second) return Status::Ok();
    if (result.size() >= options_.max_conjunctive_queries) {
      return ResourceExhaustedError(
          "reformulation exceeded " +
          std::to_string(options_.max_conjunctive_queries) +
          " conjunctive queries");
    }
    frontier.push_back(result.size());
    result.AddBranch(std::move(candidate));
    return Status::Ok();
  };

  WDR_RETURN_IF_ERROR(add(q));

  size_t rewrite_steps = 0;
  while (!frontier.empty()) {
    size_t current = frontier.front();
    frontier.pop_front();
    // Branch storage is only appended to, so indexing stays valid; copy the
    // CQ because `add` may reallocate the branch vector.
    BgpQuery cq = result.branches()[current];
    Status status = Status::Ok();
    for (size_t i = 0; i < cq.atoms().size() && status.ok(); ++i) {
      rewriter.Rewrite(cq, i, [&](BgpQuery candidate) {
        ++rewrite_steps;
        if (status.ok()) status = add(std::move(candidate));
      });
    }
    WDR_RETURN_IF_ERROR(status);
  }

  size_t pruned = 0;
  if (options_.minimize) result = MinimizeUnion(result, &pruned);

  WDR_COUNTER_INC("wdr.reformulation.runs");
  WDR_COUNTER_ADD("wdr.reformulation.cqs", result.size());
  WDR_COUNTER_ADD("wdr.reformulation.rewrite_steps", rewrite_steps);
  WDR_COUNTER_ADD("wdr.reformulation.pruned_cqs", pruned);
  WDR_COUNTER_ADD("wdr.reformulation.range_collapses",
                  rewriter.range_collapses());

  ReformulationStats run_stats;
  run_stats.conjunctive_queries = result.size();
  run_stats.total_atoms = result.TotalAtoms();
  run_stats.rewrite_steps = rewrite_steps;
  run_stats.pruned_cqs = pruned;
  run_stats.range_collapses = rewriter.range_collapses();
  if (stats != nullptr) *stats = run_stats;
  if (memo_.size() < kMemoCapacity) {
    memo_.emplace(std::move(memo_key), std::make_pair(result, run_stats));
  }
  return result;
}

FanoutEstimate Reformulator::EstimateFanout(const BgpQuery& q) const {
  if (auto it = memo_.find(MemoKey(q)); it != memo_.end()) {
    FanoutEstimate exact;
    exact.branches = it->second.second.conjunctive_queries;
    exact.range_collapses = it->second.second.range_collapses;
    exact.exact = true;
    return exact;
  }

  const rdf::HierEncoding* encoding = options_.encoding;
  auto class_collapses = [&](TermId c) {
    if (encoding == nullptr) return false;
    const rdf::HierInterval* iv = encoding->ClassInterval(c);
    return iv != nullptr && iv->valid && iv->width() >= 2;
  };
  auto property_collapses = [&](TermId p) {
    if (encoding == nullptr) return false;
    const rdf::HierInterval* iv = encoding->PropertyInterval(p);
    return iv != nullptr && iv->valid && iv->width() >= 2;
  };

  FanoutEstimate est;

  // Rewriting-set size of one non-type atom with constant property p:
  // its subproperty closure enumerated, or one range atom when the
  // encoding collapses it.
  auto property_atom = [&](TermId p) -> size_t {
    if (property_collapses(p)) {
      est.range_collapses = SatAdd(est.range_collapses, 1);
      return 1;
    }
    return schema_->SubPropertiesOf(p).empty()
               ? 1
               : schema_->SubPropertiesOf(p).size();
  };

  // Rewriting-set size of (s rdf:type c): the subclass closure (collapsed
  // to a range atom under the encoding), plus the rdfs2/rdfs3 riders —
  // domain/range properties of every subclass, each dragging in its own
  // subproperty closure. The riders are emitted for the whole closure
  // even when the class enumeration collapses (range atoms are terminal),
  // mirroring AtomRewriter::RewriteTypeAtom exactly.
  auto type_atom = [&](TermId c) -> size_t {
    size_t n;
    if (class_collapses(c)) {
      est.range_collapses = SatAdd(est.range_collapses, 1);
      n = 1;
    } else {
      n = schema_->SubClassesOf(c).empty() ? 1
                                           : schema_->SubClassesOf(c).size();
    }
    for (TermId c1 : schema_->SubClassesOf(c)) {
      for (TermId p : schema_->PropertiesWithDomain(c1)) {
        n = SatAdd(n, property_atom(p));
      }
      for (TermId p : schema_->PropertiesWithRange(c1)) {
        n = SatAdd(n, property_atom(p));
      }
    }
    return n;
  };

  bool memoized = true;
  for (size_t i = 0; i < q.atoms().size(); ++i) {
    // The join-of-unions route memoizes each atom's rewriting on its own.
    if (auto it = memo_.find(MemoKey(query::AtomQuery(q, i)));
        it != memo_.end()) {
      est.branches =
          SatMul(est.branches, it->second.second.conjunctive_queries);
      est.range_collapses =
          SatAdd(est.range_collapses, it->second.second.range_collapses);
      continue;
    }
    memoized = false;
    const TriplePattern& atom = q.atoms()[i];
    if (atom.s.is_range() || atom.p.is_range() || atom.o.is_range()) continue;
    size_t n = 1;
    if (atom.p.is_const() && atom.p.id == vocab_.type) {
      if (atom.o.is_const()) {
        n = type_atom(atom.o.id);
      } else {
        // Class variable: grounded over every schema class, each grounding
        // rewritten as a constant-class type atom; the variable form
        // itself stays a branch.
        n = 1;
        for (TermId c : schema_->classes()) n = SatAdd(n, type_atom(c));
      }
    } else if (atom.p.is_const()) {
      n = property_atom(atom.p.id);
    } else {
      // Property variable: grounded over every non-constraint schema
      // property plus rdf:type, each continuing with its own rewriting.
      n = 1;
      for (TermId p : schema_->properties()) {
        if (vocab_.IsSchemaProperty(p)) continue;
        n = SatAdd(n, property_atom(p));
      }
      n = SatAdd(n, atom.o.is_const() ? type_atom(atom.o.id) : size_t{1});
    }
    est.branches = SatMul(est.branches, n);
  }
  est.exact = memoized && !q.atoms().empty();
  return est;
}

FanoutEstimate Reformulator::EstimateFanout(const UnionQuery& q) const {
  FanoutEstimate total;
  total.branches = 0;
  total.exact = true;
  for (const BgpQuery& branch : q.branches()) {
    FanoutEstimate e = EstimateFanout(branch);
    total.branches = SatAdd(total.branches, e.branches);
    total.range_collapses = SatAdd(total.range_collapses, e.range_collapses);
    total.exact = total.exact && e.exact;
  }
  if (total.branches == 0) total.branches = 1;
  return total;
}

Result<UnionQuery> Reformulator::Reformulate(const UnionQuery& q,
                                             ReformulationStats* stats) const {
  UnionQuery result;
  // Solution modifiers are query-level and survive rewriting untouched.
  result.SetAsk(q.ask());
  result.SetLimit(q.limit());
  result.SetOffset(q.offset());
  ReformulationStats total;
  for (const BgpQuery& branch : q.branches()) {
    ReformulationStats branch_stats;
    WDR_ASSIGN_OR_RETURN(UnionQuery branch_ref,
                         Reformulate(branch, &branch_stats));
    for (const BgpQuery& cq : branch_ref.branches()) {
      result.AddBranch(cq);
    }
    total.conjunctive_queries += branch_stats.conjunctive_queries;
    total.total_atoms += branch_stats.total_atoms;
    total.rewrite_steps += branch_stats.rewrite_steps;
    total.pruned_cqs += branch_stats.pruned_cqs;
    total.range_collapses += branch_stats.range_collapses;
  }
  if (stats != nullptr) *stats = total;
  return result;
}

Result<std::vector<query::JoinOfUnions>> Reformulator::ReformulateAtoms(
    const UnionQuery& q, ReformulationStats* stats) const {
  std::vector<query::JoinOfUnions> joins;
  ReformulationStats total;
  for (const BgpQuery& branch : q.branches()) {
    query::JoinOfUnions join(branch);
    for (size_t i = 0; i < branch.atoms().size(); ++i) {
      ReformulationStats atom;
      WDR_ASSIGN_OR_RETURN(UnionQuery rewriting,
                           Reformulate(query::AtomQuery(branch, i), &atom));
      if (!join.AddAtom(branch.atoms()[i], rewriting)) {
        return InternalError("a rewriting of atom " + std::to_string(i) +
                             " leaves one of its variables unbound");
      }
      total.conjunctive_queries += atom.conjunctive_queries;
      total.total_atoms += atom.total_atoms;
      total.rewrite_steps += atom.rewrite_steps;
      total.pruned_cqs += atom.pruned_cqs;
      total.range_collapses += atom.range_collapses;
    }
    joins.push_back(std::move(join));
  }
  if (stats != nullptr) *stats = total;
  return joins;
}

size_t CloseSchema(rdf::Graph& graph, const schema::Vocabulary& vocab) {
  rdf::TripleStore schema_triples;
  graph.store().Match(0, 0, 0, [&](const rdf::Triple& t) {
    if (vocab.IsSchemaProperty(t.p)) schema_triples.Insert(t);
  });
  reasoning::Saturator saturator(vocab, &graph.dict());
  rdf::TripleStore closed = saturator.Saturate(schema_triples);
  size_t added = 0;
  closed.Match(0, 0, 0, [&](const rdf::Triple& t) {
    if (graph.store().Insert(t)) ++added;
  });
  return added;
}

}  // namespace wdr::reformulation
