#include "backward/backward_evaluator.h"

#include <deque>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/dedup_table.h"
#include "obs/metrics.h"

namespace wdr::backward {
namespace {

using query::BgpQuery;
using query::PatternTerm;
using query::ResultSet;
using query::Row;
using query::TriplePattern;
using query::UnionQuery;
using query::VarId;
using rdf::kNullTermId;
using rdf::StoreView;
using rdf::TermId;
using rdf::Triple;

// Sentinel variable id for "match anything, bind nothing" positions —
// the fresh variables that domain/range rewritings introduce occur exactly
// once, so they never constrain the join.
constexpr VarId kIgnoreVar = static_cast<VarId>(-1);

bool IsIgnore(const PatternTerm& t) {
  return t.is_var() && t.var == kIgnoreVar;
}

// One way an atom can be satisfied against the explicit store: a rewritten
// pattern plus variable bindings the rewriting fixed (class / property
// variables grounded to schema constants).
struct Alternative {
  TriplePattern pattern;
  std::vector<std::pair<VarId, TermId>> bindings;

  std::string Key() const {
    auto term_key = [](const PatternTerm& t) {
      std::string out(1, t.is_var() ? 'v' : 'c');
      out += std::to_string(t.is_var() ? t.var : t.id);
      return out;
    };
    std::string key = term_key(pattern.s) + " " + term_key(pattern.p) + " " +
                      term_key(pattern.o);
    for (const auto& [var, value] : bindings) {
      key += '|';
      key += std::to_string(var);
      key += '=';
      key += std::to_string(value);
    }
    return key;
  }
};

// Computes the fixpoint expansion of one atom.
class AtomExpander {
 public:
  AtomExpander(const schema::Schema& schema, const schema::Vocabulary& vocab)
      : schema_(schema), vocab_(vocab) {}

  std::vector<Alternative> Expand(const TriplePattern& atom) const {
    std::vector<Alternative> result;
    std::unordered_set<std::string> seen;
    std::deque<size_t> frontier;
    uint64_t memo_hits = 0;
    auto add = [&](Alternative alt) {
      if (!seen.insert(alt.Key()).second) {
        ++memo_hits;  // rewriting reconverged on a known alternative
        return;
      }
      frontier.push_back(result.size());
      result.push_back(std::move(alt));
    };
    add(Alternative{atom, {}});
    while (!frontier.empty()) {
      // Copy: `add` may reallocate `result`.
      Alternative current = result[frontier.front()];
      frontier.pop_front();
      RewriteOneStep(current, add);
    }
    WDR_COUNTER_ADD("wdr.backward.goal_expansions", result.size());
    WDR_COUNTER_ADD("wdr.backward.memo_hits", memo_hits);
    return result;
  }

 private:
  template <typename AddFn>
  void RewriteOneStep(const Alternative& alt, AddFn&& add) const {
    const TriplePattern& atom = alt.pattern;

    if (atom.p.is_const() && atom.p.id == vocab_.type) {
      if (atom.o.is_const()) {
        RewriteTypeAtom(alt, atom.o.id, add);
      } else if (!IsIgnore(atom.o)) {
        for (TermId c : schema_.classes()) {
          Alternative next = alt;
          next.pattern.o = PatternTerm::Constant(c);
          next.bindings.emplace_back(atom.o.var, c);
          add(std::move(next));
        }
      }
      return;
    }

    if (atom.p.is_const()) {
      for (TermId p1 : schema_.SubPropertiesOf(atom.p.id)) {
        if (p1 == atom.p.id) continue;
        Alternative next = alt;
        next.pattern.p = PatternTerm::Constant(p1);
        add(std::move(next));
      }
      return;
    }

    if (IsIgnore(atom.p)) return;
    for (TermId p : schema_.properties()) {
      if (vocab_.IsSchemaProperty(p)) continue;
      Alternative next = alt;
      next.pattern.p = PatternTerm::Constant(p);
      next.bindings.emplace_back(atom.p.var, p);
      add(std::move(next));
    }
    Alternative typed = alt;
    typed.pattern.p = PatternTerm::Constant(vocab_.type);
    typed.bindings.emplace_back(atom.p.var, vocab_.type);
    add(std::move(typed));
  }

  template <typename AddFn>
  void RewriteTypeAtom(const Alternative& alt, TermId c, AddFn&& add) const {
    const TriplePattern& atom = alt.pattern;
    for (TermId c1 : schema_.SubClassesOf(c)) {
      if (c1 == c) continue;
      Alternative next = alt;
      next.pattern.o = PatternTerm::Constant(c1);
      add(std::move(next));
    }
    for (TermId p : schema_.PropertiesWithDomain(c)) {
      Alternative next = alt;
      next.pattern =
          TriplePattern{atom.s, PatternTerm::Constant(p),
                        PatternTerm::Variable(kIgnoreVar)};
      add(std::move(next));
    }
    for (TermId p : schema_.PropertiesWithRange(c)) {
      Alternative next = alt;
      next.pattern =
          TriplePattern{PatternTerm::Variable(kIgnoreVar),
                        PatternTerm::Constant(p), atom.s};
      add(std::move(next));
    }
  }

  const schema::Schema& schema_;
  const schema::Vocabulary& vocab_;
};

// Backtracking join over atoms, trying every alternative of each atom.
class BackwardJoin {
 public:
  BackwardJoin(const StoreView& store, const BgpQuery& q,
               std::vector<std::vector<Alternative>> expansions,
               BackwardStats* stats)
      : store_(store),
        expansions_(std::move(expansions)),
        stats_(stats),
        bindings_(q.var_count(), kNullTermId) {
    for (const auto& [var, value] : q.preset()) bindings_[var] = value;
  }

  template <typename EmitFn>
  void Run(EmitFn&& emit) {
    Recurse(0, emit);
  }

 private:
  template <typename EmitFn>
  void Recurse(size_t atom_index, EmitFn&& emit) {
    if (atom_index == expansions_.size()) {
      emit(bindings_);
      return;
    }
    for (const Alternative& alt : expansions_[atom_index]) {
      std::vector<std::pair<VarId, TermId>> bound_here;
      bool ok = true;
      for (const auto& [var, value] : alt.bindings) {
        if (!BindVar(var, value, bound_here)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        TermId s = Resolve(alt.pattern.s);
        TermId p = Resolve(alt.pattern.p);
        TermId o = Resolve(alt.pattern.o);
        if (stats_ != nullptr) ++stats_->index_probes;
        WDR_COUNTER_INC("wdr.backward.index_probes");
        store_.Match(s, p, o, [&](const Triple& t) {
          std::vector<std::pair<VarId, TermId>> match_bound;
          bool match_ok = TryBind(alt.pattern.s, t.s, match_bound) &&
                          TryBind(alt.pattern.p, t.p, match_bound) &&
                          TryBind(alt.pattern.o, t.o, match_bound);
          if (match_ok) Recurse(atom_index + 1, emit);
          Unbind(match_bound);
        });
      }
      Unbind(bound_here);
    }
  }

  TermId Resolve(const PatternTerm& t) const {
    if (t.is_const()) return t.id;
    if (t.var == kIgnoreVar) return kNullTermId;
    return bindings_[t.var];
  }

  bool BindVar(VarId var, TermId value,
               std::vector<std::pair<VarId, TermId>>& bound_here) {
    TermId& slot = bindings_[var];
    if (slot == kNullTermId) {
      slot = value;
      bound_here.emplace_back(var, value);
      return true;
    }
    return slot == value;
  }

  bool TryBind(const PatternTerm& term, TermId value,
               std::vector<std::pair<VarId, TermId>>& bound_here) {
    if (term.is_const()) return term.id == value;
    if (term.var == kIgnoreVar) return true;
    return BindVar(term.var, value, bound_here);
  }

  void Unbind(const std::vector<std::pair<VarId, TermId>>& bound) {
    for (auto it = bound.rbegin(); it != bound.rend(); ++it) {
      bindings_[it->first] = kNullTermId;
    }
  }

  const StoreView& store_;
  std::vector<std::vector<Alternative>> expansions_;
  BackwardStats* stats_;
  std::vector<TermId> bindings_;
};

}  // namespace

ResultSet BackwardChainingEvaluator::Evaluate(const BgpQuery& q,
                                              BackwardStats* stats) const {
  WDR_COUNTER_INC("wdr.backward.evals");
  AtomExpander expander(*schema_, vocab_);
  std::vector<std::vector<Alternative>> expansions;
  expansions.reserve(q.atoms().size());
  for (const TriplePattern& atom : q.atoms()) {
    expansions.push_back(expander.Expand(atom));
    if (stats != nullptr) stats->atom_alternatives += expansions.back().size();
  }

  ResultSet result;
  result.var_names = q.ProjectionNames();
  exec::DedupTable seen(q.projection().size());
  BackwardJoin join(*store_, q, std::move(expansions), stats);
  Row row;
  join.Run([&](const std::vector<TermId>& bindings) {
    row.clear();
    for (VarId v : q.projection()) row.push_back(bindings[v]);
    if (seen.Insert(row.data())) result.rows.push_back(row);
  });
  return result;
}

ResultSet BackwardChainingEvaluator::Evaluate(const UnionQuery& q,
                                              BackwardStats* stats) const {
  ResultSet result;
  exec::DedupTable seen(q.width());
  for (const BgpQuery& branch : q.branches()) {
    ResultSet branch_result = Evaluate(branch, stats);
    if (result.var_names.empty()) result.var_names = branch_result.var_names;
    for (Row& row : branch_result.rows) {
      if (seen.Insert(row.data())) result.rows.push_back(std::move(row));
    }
  }
  query::ApplySolutionModifiers(q, result);
  return result;
}

}  // namespace wdr::backward
