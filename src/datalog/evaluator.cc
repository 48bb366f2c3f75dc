#include "datalog/evaluator.h"

#include <algorithm>
#include <optional>
#include <set>

#include "exec/executor.h"
#include "exec/planner.h"
#include "exec/source.h"
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

  const std::vector<Sym>& bindings() const { return bindings_; }

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

Tuple InstantiateHead(const DlAtom& head, const Sym* bindings) {
  Tuple tuple;
  tuple.reserve(head.args.size());
  for (const DlTerm& t : head.args) {
    tuple.push_back(t.is_var ? bindings[t.id] : t.id);
  }
  return tuple;
}

// ---------------------------------------------------------------------------
// Physical-plan route: rule bodies compiled into the shared wdr::exec IR.

// TupleSource over one relation: a scan streams the smallest matching
// per-column index bucket (verifying the remaining bound columns) or the
// full tuple list when nothing is bound.
class RelationSource final : public exec::TupleSource {
 public:
  explicit RelationSource(const Relation& rel) : rel_(&rel) {}

  size_t arity() const override { return rel_->arity(); }

  double EstimateBound(const exec::Value* values,
                       const uint8_t* bound) const override {
    size_t best = rel_->size();
    for (size_t col = 0; col < rel_->arity(); ++col) {
      if (!bound[col]) continue;
      best = std::min(best, rel_->Probe(col, values[col]).size());
    }
    return static_cast<double>(best);
  }

  bool Scan(const exec::Value* values, const uint8_t* bound,
            exec::FunctionRef<bool(const exec::Value*)> fn) const override {
    size_t best_col = SIZE_MAX;
    size_t best_bucket = SIZE_MAX;
    for (size_t col = 0; col < rel_->arity(); ++col) {
      if (!bound[col]) continue;
      size_t bucket = rel_->Probe(col, values[col]).size();
      if (bucket < best_bucket) {
        best_bucket = bucket;
        best_col = col;
      }
    }
    auto matches = [&](const Tuple& tuple) {
      for (size_t col = 0; col < rel_->arity(); ++col) {
        if (bound[col] && tuple[col] != values[col]) return false;
      }
      return true;
    };
    if (best_col != SIZE_MAX) {
      for (uint32_t pos : rel_->Probe(best_col, values[best_col])) {
        const Tuple& tuple = rel_->tuples()[pos];
        if (!matches(tuple)) continue;
        if (!fn(tuple.data())) return false;
      }
      return true;
    }
    for (const Tuple& tuple : rel_->tuples()) {
      if (!fn(tuple.data())) return false;
    }
    return true;
  }

 private:
  const Relation* rel_;  // not owned
};

// Cardinality oracle over the live relations of a body: constants scale by
// exact index-bucket selectivity, run-time-bound columns by one over the
// column's distinct-value count. Never stale — Relation maintains both on
// every insert — so the planner always runs cost-based here.
class RelationEstimator final : public exec::CardinalityEstimator {
 public:
  explicit RelationEstimator(std::vector<const Relation*> rels)
      : rels_(std::move(rels)) {}

  double Estimate(size_t source, const exec::Value* values,
                  const exec::Value* /*values_hi*/, const uint8_t* modes,
                  size_t arity) const override {
    // Datalog specs never carry kRange positions; a range mode would fall
    // through as unconstrained here, which is the conservative default.
    const Relation& rel = *rels_[source];
    double est = static_cast<double>(rel.size());
    if (est <= 0) return 0;
    for (size_t i = 0; i < arity; ++i) {
      if (modes[i] == kConst) {
        est *= static_cast<double>(rel.Probe(i, values[i]).size()) /
               static_cast<double>(rel.size());
      } else if (modes[i] == kRuntime) {
        est /= static_cast<double>(std::max<size_t>(1, rel.DistinctValues(i)));
      }
    }
    return est;
  }

 private:
  std::vector<const Relation*> rels_;
};

// Compiles `body` (with an optional semi-naive delta position) into a
// physical plan and streams `projection` columns to `emit`. Returns false
// when the planner declines (the caller falls back to BodyJoin).
template <typename EmitFn>
bool PlanBody(const Database& db, const std::vector<DlAtom>& body,
              std::optional<size_t> delta_pos, const Relation* delta_relation,
              const BodyPlanOptions& popts,
              const std::vector<DlVarId>& projection, EmitFn&& emit) {
  std::vector<const Relation*> rels;
  std::vector<RelationSource> sources;
  rels.reserve(body.size());
  sources.reserve(body.size());
  exec::ConjunctiveSpec spec;
  for (size_t i = 0; i < body.size(); ++i) {
    const DlAtom& atom = body[i];
    const Relation& rel = (delta_pos && *delta_pos == i)
                              ? *delta_relation
                              : db.relation(atom.pred);
    rels.push_back(&rel);
    sources.emplace_back(rel);
    exec::PlanConjunct conjunct;
    conjunct.source = i;
    exec::AtomAlt alt;
    alt.terms.reserve(atom.args.size());
    for (const DlTerm& t : atom.args) {
      alt.terms.push_back(t.is_var ? exec::AtomTerm::Var(t.id)
                                   : exec::AtomTerm::Const(t.id));
    }
    conjunct.alts.push_back(std::move(alt));
    spec.conjuncts.push_back(std::move(conjunct));
  }
  spec.projection.assign(projection.begin(), projection.end());

  RelationEstimator estimator(std::move(rels));
  exec::PlannerOptions planner_options;
  planner_options.estimator = &estimator;
  planner_options.hash_joins = popts.hash_joins;
  exec::CompiledPlan plan = exec::PlanConjunctive(spec, planner_options);
  if (plan.root == nullptr) return false;

  std::vector<const exec::TupleSource*> source_ptrs;
  source_ptrs.reserve(sources.size());
  for (const RelationSource& s : sources) source_ptrs.push_back(&s);
  exec::ExecOptions exec_options;
  exec_options.batch_rows = popts.batch_rows;
  exec::Run(*plan.root, source_ptrs, exec_options,
            [&](const exec::Value* row, size_t) {
              emit(row);
              return true;
            });
  return true;
}

// One rule-body join, through whichever route `options` selects. `emit`
// receives the full variable-binding row (one Sym per DlVarId).
template <typename EmitFn>
void RunBody(const Database& db, const std::vector<DlAtom>& body,
             std::optional<size_t> delta_pos, const Relation* delta_relation,
             const MaterializeOptions& options, EmitFn&& emit) {
  if (options.plan) {
    std::vector<DlVarId> all_vars(VarCount(body));
    for (DlVarId v = 0; v < all_vars.size(); ++v) all_vars[v] = v;
    if (PlanBody(db, body, delta_pos, delta_relation, options.plan_options,
                 all_vars, emit)) {
      return;
    }
  }
  BodyJoin join(db, body, delta_pos, delta_relation);
  join.Run([&](const std::vector<Sym>& bindings) { emit(bindings.data()); });
}

// Registry flush, once per materialization run.
void FlushEvalCounters(const EvalStats& s) {
  WDR_COUNTER_INC("wdr.datalog.runs");
  WDR_COUNTER_ADD("wdr.datalog.iterations", s.iterations);
  WDR_COUNTER_ADD("wdr.datalog.derived_tuples", s.derived_tuples);
  WDR_COUNTER_ADD("wdr.datalog.rule_evaluations", s.rule_evaluations);
}

}  // namespace

// Naive or semi-naive materialization, rule bodies routed through RunBody
// so the plan and legacy join routes share the fixpoint driver.
Result<Database> MaterializeWithOptions(const DlProgram& program,
                                        const MaterializeOptions& options,
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
  if (options.strategy == Strategy::kNaive) {
    bool changed = true;
    while (changed) {
      changed = false;
      ++local.iterations;
      for (const DlRule& rule : program.rules()) {
        ++local.rule_evaluations;
        std::vector<Tuple> derived;
        RunBody(db, rule.body, std::nullopt, nullptr, options,
                [&](const Sym* bindings) {
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
          RunBody(db, rule.body, pos, &d, options,
                  [&](const Sym* bindings) {
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

Result<Database> Materialize(const DlProgram& program, Strategy strategy,
                             EvalStats* stats) {
  MaterializeOptions options;
  options.strategy = strategy;
  return MaterializeWithOptions(program, options, stats);
}

Result<std::vector<Tuple>> EvaluateQuery(const DlProgram& program,
                                         const Database& db,
                                         const std::vector<DlAtom>& body,
                                         const std::vector<DlVarId>& projection,
                                         const BodyPlanOptions* plan) {
  (void)program;
  size_t var_count = VarCount(body);
  for (DlVarId v : projection) {
    if (v >= var_count) {
      return InvalidArgumentError(
          "projected variable does not occur in the query body");
    }
  }
  std::set<Tuple> rows;
  auto collect = [&](const Sym* bindings) {
    Tuple row;
    row.reserve(projection.size());
    for (DlVarId v : projection) row.push_back(bindings[v]);
    rows.insert(std::move(row));
  };
  // A null `plan` means caller default: legacy join, unless WDR_PLAN=1
  // flips the process-wide default.
  const BodyPlanOptions env_default;
  if (plan == nullptr && exec::PlanModeDefault()) plan = &env_default;
  bool planned = false;
  if (plan != nullptr) {
    // The plan projects directly: emitted rows are already in projection
    // order, so they go straight into the dedup set.
    planned = PlanBody(db, body, std::nullopt, nullptr, *plan, projection,
                       [&](const Sym* row) {
                         rows.insert(Tuple(row, row + projection.size()));
                       });
  }
  if (!planned) {
    BodyJoin join(db, body, std::nullopt, nullptr);
    join.Run([&](const std::vector<Sym>& bindings) { collect(bindings.data()); });
  }
  return std::vector<Tuple>(rows.begin(), rows.end());
}

}  // namespace wdr::datalog
