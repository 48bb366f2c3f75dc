#include "datalog/evaluator.h"

#include <algorithm>
#include <optional>

#include "exec/dedup_table.h"
#include "obs/metrics.h"

namespace wdr::datalog {
namespace {

constexpr Sym kUnbound = static_cast<Sym>(-1);

size_t VarCount(const std::vector<DlAtom>& atoms) {
  size_t count = 0;
  for (const DlAtom& atom : atoms) {
    for (const DlTerm& t : atom.args) {
      if (t.is_var) count = std::max(count, static_cast<size_t>(t.id) + 1);
    }
  }
  return count;
}

// Recursive join over `body`. If `delta_pos` is set, that atom ranges over
// `delta_relation` instead of the database relation.
class BodyJoin {
 public:
  BodyJoin(const Database& db, const std::vector<DlAtom>& body,
           std::optional<size_t> delta_pos, const Relation* delta_relation)
      : db_(db),
        body_(body),
        delta_pos_(delta_pos),
        delta_relation_(delta_relation),
        bindings_(VarCount(body), kUnbound) {}

  template <typename EmitFn>
  void Run(EmitFn&& emit) {
    Recurse(0, emit);
  }

 private:
  template <typename EmitFn>
  void Recurse(size_t atom_index, EmitFn&& emit) {
    if (atom_index == body_.size()) {
      emit(bindings_);
      return;
    }
    const DlAtom& atom = body_[atom_index];
    const Relation& rel = (delta_pos_ && *delta_pos_ == atom_index)
                              ? *delta_relation_
                              : db_.relation(atom.pred);

    // Pick the most selective bound column, if any.
    size_t best_col = SIZE_MAX;
    size_t best_size = SIZE_MAX;
    for (size_t col = 0; col < atom.args.size(); ++col) {
      Sym value = ResolveArg(atom.args[col]);
      if (value == kUnbound) continue;
      size_t bucket = rel.Probe(col, value).size();
      if (bucket < best_size) {
        best_size = bucket;
        best_col = col;
      }
    }

    auto try_tuple = [&](const Tuple& tuple) {
      std::vector<DlVarId> bound_here;
      bool ok = true;
      for (size_t col = 0; col < atom.args.size(); ++col) {
        if (!TryBind(atom.args[col], tuple[col], bound_here)) {
          ok = false;
          break;
        }
      }
      if (ok) Recurse(atom_index + 1, emit);
      for (auto it = bound_here.rbegin(); it != bound_here.rend(); ++it) {
        bindings_[*it] = kUnbound;
      }
    };

    if (best_col != SIZE_MAX) {
      Sym value = ResolveArg(atom.args[best_col]);
      for (uint32_t pos : rel.Probe(best_col, value)) {
        try_tuple(rel.tuples()[pos]);
      }
    } else {
      for (const Tuple& tuple : rel.tuples()) try_tuple(tuple);
    }
  }

  Sym ResolveArg(const DlTerm& t) const {
    return t.is_var ? bindings_[t.id] : t.id;
  }

  bool TryBind(const DlTerm& term, Sym value,
               std::vector<DlVarId>& bound_here) {
    if (!term.is_var) return term.id == value;
    Sym& slot = bindings_[term.id];
    if (slot == kUnbound) {
      slot = value;
      bound_here.push_back(term.id);
      return true;
    }
    return slot == value;
  }

  const Database& db_;
  const std::vector<DlAtom>& body_;
  std::optional<size_t> delta_pos_;
  const Relation* delta_relation_;
  std::vector<Sym> bindings_;
};

Tuple InstantiateHead(const DlAtom& head, const std::vector<Sym>& bindings) {
  Tuple tuple;
  tuple.reserve(head.args.size());
  for (const DlTerm& t : head.args) {
    tuple.push_back(t.is_var ? bindings[t.id] : t.id);
  }
  return tuple;
}

// Registry flush, once per materialization run.
void FlushEvalCounters(const EvalStats& s) {
  WDR_COUNTER_INC("wdr.datalog.runs");
  WDR_COUNTER_ADD("wdr.datalog.iterations", s.iterations);
  WDR_COUNTER_ADD("wdr.datalog.derived_tuples", s.derived_tuples);
  WDR_COUNTER_ADD("wdr.datalog.rule_evaluations", s.rule_evaluations);
}

}  // namespace

Result<Database> Materialize(const DlProgram& program, Strategy strategy,
                             EvalStats* stats) {
  WDR_RETURN_IF_ERROR(program.Validate());
  Database db(program);
  for (const DlAtom& fact : program.facts()) {
    Tuple tuple;
    tuple.reserve(fact.args.size());
    for (const DlTerm& t : fact.args) tuple.push_back(t.id);
    db.Insert(fact.pred, tuple);
  }

  EvalStats local;
  if (strategy == Strategy::kNaive) {
    bool changed = true;
    while (changed) {
      changed = false;
      ++local.iterations;
      for (const DlRule& rule : program.rules()) {
        ++local.rule_evaluations;
        std::vector<Tuple> derived;
        BodyJoin join(db, rule.body, std::nullopt, nullptr);
        join.Run([&](const std::vector<Sym>& bindings) {
          derived.push_back(InstantiateHead(rule.head, bindings));
        });
        for (const Tuple& tuple : derived) {
          if (db.Insert(rule.head.pred, tuple)) {
            changed = true;
            ++local.derived_tuples;
          }
        }
      }
    }
  } else {
    // Semi-naive: round 0 treats the initial facts as the delta; after
    // that, each rule is evaluated once per body position whose predicate
    // gained tuples, with that atom restricted to the previous delta.
    std::vector<Relation> delta;
    delta.reserve(program.pred_count());
    for (PredId p = 0; p < program.pred_count(); ++p) {
      delta.emplace_back(program.pred_arity(p));
    }
    for (const DlAtom& fact : program.facts()) {
      Tuple tuple;
      tuple.reserve(fact.args.size());
      for (const DlTerm& t : fact.args) tuple.push_back(t.id);
      delta[fact.pred].Insert(tuple);
    }

    while (true) {
      ++local.iterations;
      std::vector<Relation> next_delta;
      next_delta.reserve(program.pred_count());
      for (PredId p = 0; p < program.pred_count(); ++p) {
        next_delta.emplace_back(program.pred_arity(p));
      }
      bool changed = false;
      for (const DlRule& rule : program.rules()) {
        for (size_t pos = 0; pos < rule.body.size(); ++pos) {
          const Relation& d = delta[rule.body[pos].pred];
          if (d.size() == 0) continue;
          ++local.rule_evaluations;
          std::vector<Tuple> derived;
          BodyJoin join(db, rule.body, pos, &d);
          join.Run([&](const std::vector<Sym>& bindings) {
            derived.push_back(InstantiateHead(rule.head, bindings));
          });
          for (const Tuple& tuple : derived) {
            if (db.Insert(rule.head.pred, tuple)) {
              next_delta[rule.head.pred].Insert(tuple);
              changed = true;
              ++local.derived_tuples;
            }
          }
        }
      }
      if (!changed) break;
      delta = std::move(next_delta);
    }
  }

  FlushEvalCounters(local);
  if (stats != nullptr) *stats = local;
  return db;
}

Result<std::vector<Tuple>> EvaluateQuery(const DlProgram& program,
                                         const Database& db,
                                         const std::vector<DlAtom>& body,
                                         const std::vector<DlVarId>& projection) {
  (void)program;
  size_t var_count = VarCount(body);
  for (DlVarId v : projection) {
    if (v >= var_count) {
      return InvalidArgumentError(
          "projected variable does not occur in the query body");
    }
  }
  // Distinct rows through the shared dedup table, then one sort: callers
  // see the answers in lexicographic order.
  exec::DedupTable seen(projection.size());
  Tuple row(projection.size());
  BodyJoin join(db, body, std::nullopt, nullptr);
  join.Run([&](const std::vector<Sym>& bindings) {
    for (size_t i = 0; i < projection.size(); ++i) {
      row[i] = bindings[projection[i]];
    }
    seen.Insert(row.data());
  });
  std::vector<Tuple> rows;
  rows.reserve(seen.size());
  for (size_t i = 0; i < seen.size(); ++i) {
    rows.emplace_back(seen.row(i), seen.row(i) + projection.size());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace wdr::datalog
