#include "exec/planner.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace wdr::exec {
namespace {

using VarCols = std::unordered_map<uint32_t, ColId>;
using PresetMap = std::unordered_map<uint32_t, Value>;

// All variable keys a conjunct can bind, across alternatives (pattern
// positions and unification-grounded variables alike).
std::unordered_set<uint32_t> ConjunctVars(const PlanConjunct& conjunct) {
  std::unordered_set<uint32_t> vars;
  for (const AtomAlt& alt : conjunct.alts) {
    for (const AtomTerm& term : alt.terms) {
      if (term.kind == AtomTerm::Kind::kVar) vars.insert(term.var);
    }
    for (const auto& [var, value] : alt.var_eq) {
      (void)value;
      vars.insert(var);
    }
  }
  return vars;
}

// Estimated matches of one alternative given the currently bound
// variables. Presets count as known constants, pipeline-bound variables as
// run-time-bound, everything else as wild.
double AltEstimate(const AtomAlt& alt, size_t source,
                   const CardinalityEstimator& estimator,
                   const PresetMap& presets, const VarCols& bound) {
  const size_t arity = alt.terms.size();
  std::vector<Value> values(arity, 0);
  std::vector<Value> values_hi(arity, 0);
  std::vector<uint8_t> modes(arity, CardinalityEstimator::kWild);
  for (size_t i = 0; i < arity; ++i) {
    const AtomTerm& term = alt.terms[i];
    switch (term.kind) {
      case AtomTerm::Kind::kConst:
        values[i] = term.value;
        modes[i] = CardinalityEstimator::kConst;
        break;
      case AtomTerm::Kind::kVar: {
        auto preset = presets.find(term.var);
        if (preset != presets.end()) {
          values[i] = preset->second;
          modes[i] = CardinalityEstimator::kConst;
        } else if (bound.count(term.var) != 0) {
          modes[i] = CardinalityEstimator::kRuntime;
        }
        break;
      }
      case AtomTerm::Kind::kRange:
        values[i] = term.value;
        values_hi[i] = term.value2;
        modes[i] = CardinalityEstimator::kRange;
        break;
      case AtomTerm::Kind::kAny:
        break;
    }
  }
  return estimator.Estimate(source, values.data(), values_hi.data(),
                            modes.data(), arity);
}

double ConjunctEstimate(const PlanConjunct& conjunct,
                        const CardinalityEstimator& estimator,
                        const PresetMap& presets, const VarCols& bound) {
  double total = 0;
  for (const AtomAlt& alt : conjunct.alts) {
    total += AltEstimate(alt, conjunct.source, estimator, presets, bound);
  }
  return total;
}

// Fewest positions an alternative of this conjunct leaves unbound — the
// bound-first ranking signal of the degraded path.
size_t MinUnboundPositions(const PlanConjunct& conjunct,
                           const PresetMap& presets, const VarCols& bound) {
  size_t best = std::numeric_limits<size_t>::max();
  for (const AtomAlt& alt : conjunct.alts) {
    size_t unbound = 0;
    for (const AtomTerm& term : alt.terms) {
      // kAny carries no constraint; kConst and kRange positions are
      // constrained by the pattern itself and never count as unbound.
      if (term.kind == AtomTerm::Kind::kVar && presets.count(term.var) == 0 &&
          bound.count(term.var) == 0) {
        ++unbound;
      }
    }
    best = std::min(best, unbound);
  }
  return best;
}

// Lowers one conjunct into the alts of a scan or bound-loop node.
// `base_col` is the first output column this node may assign (0 for a leaf
// scan or a hash-join build side, the input width for a bound loop);
// `var_col` maps upstream-bound variables (inputs for a bound loop; empty
// for leaves). Newly bound variables are appended to `produced` in
// deterministic first-appearance order. `extra_presets` materializes
// preset variables as constant columns (only used on the plan's first
// node, for projected presets).
struct LoweredConjunct {
  std::vector<ScanAlt> alts;
  std::vector<std::pair<uint32_t, ColId>> produced;  // var → new column
};

LoweredConjunct LowerConjunct(
    const PlanConjunct& conjunct, ColId base_col, const VarCols& var_col,
    const PresetMap& presets, bool allow_inputs,
    const std::vector<std::pair<uint32_t, Value>>& extra_presets) {
  LoweredConjunct out;
  VarCols new_cols;
  ColId next = base_col;
  auto col_of_new = [&](uint32_t var) {
    auto it = new_cols.find(var);
    if (it != new_cols.end()) return it->second;
    const ColId col = next++;
    new_cols.emplace(var, col);
    out.produced.emplace_back(var, col);
    return col;
  };
  // Pass 1: fix the produced-column layout (shared by every alternative).
  for (const AtomAlt& alt : conjunct.alts) {
    for (const AtomTerm& term : alt.terms) {
      if (term.kind != AtomTerm::Kind::kVar) continue;
      if (presets.count(term.var) != 0 || var_col.count(term.var) != 0) {
        continue;
      }
      col_of_new(term.var);
    }
    for (const auto& [var, value] : alt.var_eq) {
      (void)value;
      if (presets.count(var) != 0 || var_col.count(var) != 0) continue;
      col_of_new(var);
    }
  }
  for (const auto& [var, value] : extra_presets) {
    (void)value;
    col_of_new(var);
  }
  // Pass 2: lower each alternative against that layout.
  for (const AtomAlt& alt : conjunct.alts) {
    ScanAlt lowered;
    lowered.slots.reserve(alt.terms.size());
    bool impossible = false;
    std::unordered_set<uint32_t> covered;
    // Variables this alternative grounds via unification: any pattern
    // position they occupy must scan as that constant (binding the
    // variable first, then matching — the legacy semantics), not as an
    // unconstrained output that a preset would silently overwrite.
    PresetMap eq;
    for (const auto& [var, value] : alt.var_eq) {
      if (presets.count(var) != 0 || var_col.count(var) != 0) continue;
      auto [it, inserted] = eq.emplace(var, value);
      if (!inserted && it->second != value) impossible = true;
    }
    for (const AtomTerm& term : alt.terms) {
      switch (term.kind) {
        case AtomTerm::Kind::kConst:
          lowered.slots.push_back(Slot::Const(term.value));
          break;
        case AtomTerm::Kind::kVar: {
          auto preset = presets.find(term.var);
          if (preset != presets.end()) {
            lowered.slots.push_back(Slot::Const(preset->second));
          } else if (auto it = var_col.find(term.var); it != var_col.end()) {
            lowered.slots.push_back(Slot::Input(it->second));
          } else if (auto eqit = eq.find(term.var); eqit != eq.end()) {
            lowered.slots.push_back(Slot::Const(eqit->second));
          } else {
            lowered.slots.push_back(Slot::Output(new_cols.at(term.var)));
            covered.insert(term.var);
          }
          break;
        }
        case AtomTerm::Kind::kRange:
          lowered.slots.push_back(Slot::Range(term.value, term.value2));
          break;
        case AtomTerm::Kind::kAny:
          lowered.slots.push_back(Slot::Any());
          break;
      }
    }
    for (const auto& [var, value] : alt.var_eq) {
      auto preset = presets.find(var);
      if (preset != presets.end()) {
        // Both sides constant: decidable now.
        if (preset->second != value) impossible = true;
        continue;
      }
      if (auto it = var_col.find(var); it != var_col.end()) {
        if (!allow_inputs) {
          impossible = true;  // leaf cannot check an upstream column
          continue;
        }
        lowered.checks.emplace_back(it->second, value);
        continue;
      }
      if (covered.insert(var).second) {
        lowered.presets.emplace_back(new_cols.at(var), value);
      }
    }
    if (impossible) continue;
    // A produced column this alternative neither scans nor grounds stays
    // null, matching the legacy unbound-variable behaviour.
    for (const auto& [var, col] : out.produced) {
      if (covered.count(var) != 0) continue;
      bool in_extra = false;
      for (const auto& [pvar, pvalue] : extra_presets) {
        (void)pvalue;
        if (pvar == var) in_extra = true;
      }
      if (in_extra) continue;
      lowered.presets.emplace_back(col, 0);
    }
    for (const auto& [var, value] : extra_presets) {
      lowered.presets.emplace_back(new_cols.at(var), value);
    }
    out.alts.push_back(std::move(lowered));
  }
  return out;
}

}  // namespace

double StatisticsEstimator::Estimate(size_t /*source*/, const Value* values,
                                     const Value* values_hi,
                                     const uint8_t* modes,
                                     size_t /*arity*/) const {
  auto mode = [](uint8_t m) {
    switch (m) {
      case CardinalityEstimator::kConst:
        return BoundMode::kConst;
      case CardinalityEstimator::kRuntime:
        return BoundMode::kRuntime;
      case CardinalityEstimator::kRange:
        return BoundMode::kRange;
      default:
        return BoundMode::kWild;
    }
  };
  auto hi = [&](size_t i) {
    return modes[i] == CardinalityEstimator::kRange ? values_hi[i] : values[i];
  };
  return stats_->EstimateRange(mode(modes[0]), mode(modes[1]), values[1],
                               hi(1), mode(modes[2]), values[2], hi(2));
}

CompiledPlan PlanConjunctive(const ConjunctiveSpec& spec,
                             const PlannerOptions& options) {
  CompiledPlan compiled;
  if (spec.conjuncts.empty() || options.estimator == nullptr) return compiled;
  const CardinalityEstimator& estimator = *options.estimator;

  PresetMap presets;
  for (const auto& [var, value] : spec.presets) presets.emplace(var, value);
  // Projected preset variables must be materialized as columns; the
  // plan's first node emits them as per-row constants.
  std::vector<std::pair<uint32_t, Value>> projected_presets;
  for (uint32_t var : spec.projection) {
    auto it = presets.find(var);
    if (it == presets.end()) continue;
    bool already = false;
    for (const auto& [pvar, pvalue] : projected_presets) {
      (void)pvalue;
      if (pvar == var) already = true;
    }
    if (!already) projected_presets.emplace_back(var, it->second);
  }

  const size_t n = spec.conjuncts.size();
  std::vector<bool> placed(n, false);
  VarCols var_col;
  std::unique_ptr<PlanNode> root;
  double current_est = -1;

  // Solo (nothing bound) estimates drive both the first pick and the
  // hash-join build-side cost.
  std::vector<double> solo(n, 0);
  for (size_t i = 0; i < n; ++i) {
    solo[i] = ConjunctEstimate(spec.conjuncts[i], estimator, presets, {});
  }

  for (size_t step = 0; step < n; ++step) {
    // --- Pick the next conjunct. ---------------------------------------
    size_t pick = n;
    double pick_probe = -1;
    bool pick_connected = false;
    if (root == nullptr) {
      for (size_t i = 0; i < n; ++i) {
        if (pick == n || solo[i] < solo[pick]) pick = i;
      }
    } else if (options.cost_based) {
      double best_out = 0;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        const auto vars = ConjunctVars(spec.conjuncts[i]);
        bool connected = false;
        for (uint32_t v : vars) {
          if (var_col.count(v) != 0) connected = true;
        }
        const double probe = connected
                                 ? ConjunctEstimate(spec.conjuncts[i],
                                                    estimator, presets, var_col)
                                 : solo[i];
        const double out_est = current_est * probe;
        // Prefer any connected conjunct over a cartesian product.
        const bool better =
            pick == n || (connected && !pick_connected) ||
            (connected == pick_connected && out_est < best_out);
        if (better) {
          pick = i;
          best_out = out_est;
          pick_probe = probe;
          pick_connected = connected;
        }
      }
    } else {
      // Degraded path: greedy bound-first — prefer connected conjuncts
      // with the fewest unbound positions, then the smallest solo
      // estimate, then written order.
      size_t best_unbound = 0;
      double best_solo = 0;
      for (size_t i = 0; i < n; ++i) {
        if (placed[i]) continue;
        const auto vars = ConjunctVars(spec.conjuncts[i]);
        bool connected = false;
        for (uint32_t v : vars) {
          if (var_col.count(v) != 0) connected = true;
        }
        const size_t unbound =
            MinUnboundPositions(spec.conjuncts[i], presets, var_col);
        const bool better =
            pick == n || (connected && !pick_connected) ||
            (connected == pick_connected &&
             (unbound < best_unbound ||
              (unbound == best_unbound && solo[i] < best_solo)));
        if (better) {
          pick = i;
          best_unbound = unbound;
          best_solo = solo[i];
          pick_connected = connected;
        }
      }
    }
    const PlanConjunct& conjunct = spec.conjuncts[pick];
    placed[pick] = true;

    // --- Build the operator. -------------------------------------------
    if (root == nullptr) {
      LoweredConjunct lowered =
          LowerConjunct(conjunct, 0, {}, presets, /*allow_inputs=*/false,
                        projected_presets);
      auto node = std::make_unique<PlanNode>(OpKind::kIndexScan);
      node->source = conjunct.source;
      node->alts = std::move(lowered.alts);
      node->width = static_cast<uint32_t>(lowered.produced.size());
      node->est_rows = solo[pick];
      node->label = conjunct.label;
      for (const auto& [var, col] : lowered.produced) var_col[var] = col;
      root = std::move(node);
      current_est = solo[pick];
      continue;
    }

    const uint32_t in_width = root->width;
    // Hash join when the one-off build of the right side is cheaper than
    // an index seek per outer row. Requires at least one equality key and
    // a single alternative-compatible build scan (always expressible).
    bool use_hash = false;
    if (options.cost_based && options.hash_joins && pick_connected) {
      const double bnl_cost =
          current_est * (options.index_seek_cost + pick_probe);
      const double hash_cost = options.hash_build_cost * solo[pick] +
                               current_est * (1.0 + pick_probe);
      use_hash = hash_cost < bnl_cost;
    }

    if (use_hash) {
      // Build side: an independent leaf scan of the conjunct; shared
      // variables become build columns paired with their probe columns.
      LoweredConjunct lowered =
          LowerConjunct(conjunct, 0, {}, presets, /*allow_inputs=*/false, {});
      auto build = std::make_unique<PlanNode>(OpKind::kIndexScan);
      build->source = conjunct.source;
      build->alts = std::move(lowered.alts);
      build->width = static_cast<uint32_t>(lowered.produced.size());
      build->est_rows = solo[pick];
      build->label = conjunct.label;

      auto join = std::make_unique<PlanNode>(OpKind::kHashJoin);
      for (const auto& [var, col] : lowered.produced) {
        auto it = var_col.find(var);
        if (it != var_col.end()) {
          join->keys.emplace_back(it->second, col);
        } else {
          join->payload.push_back(col);
        }
      }
      if (join->keys.empty()) {
        // No shared column surfaced (can happen when sharing is only via
        // var_eq constants): fall back to a bound loop below.
        use_hash = false;
      } else {
        ColId out_col = in_width;
        for (const auto& [var, col] : lowered.produced) {
          if (var_col.count(var) != 0) continue;
          var_col[var] = out_col++;
        }
        join->width = in_width + static_cast<uint32_t>(join->payload.size());
        join->est_rows = current_est * pick_probe;
        join->label = "hash_join[" + conjunct.label + "]";
        join->children.push_back(std::move(root));
        join->children.push_back(std::move(build));
        root = std::move(join);
        compiled.used_hash_join = true;
      }
    }
    if (!use_hash) {
      LoweredConjunct lowered = LowerConjunct(
          conjunct, in_width, var_col, presets, /*allow_inputs=*/true, {});
      auto node = std::make_unique<PlanNode>(OpKind::kBoundNestedLoopJoin);
      node->source = conjunct.source;
      node->alts = std::move(lowered.alts);
      node->width = in_width + static_cast<uint32_t>(lowered.produced.size());
      node->est_rows =
          options.cost_based && pick_probe >= 0 ? current_est * pick_probe : -1;
      node->label = "bound_loop[" + conjunct.label + "]";
      for (const auto& [var, col] : lowered.produced) var_col[var] = col;
      node->children.push_back(std::move(root));
      root = std::move(node);
    }
    if (options.cost_based) {
      current_est *= pick_probe >= 0 ? pick_probe : solo[pick];
    }
  }

  if (!options.cost_based) current_est = -1;

  // --- Projection / dedup / limit tail. --------------------------------
  auto project = std::make_unique<PlanNode>(OpKind::kProject);
  project->width = static_cast<uint32_t>(spec.projection.size());
  for (uint32_t var : spec.projection) {
    auto it = var_col.find(var);
    project->cols.push_back(it == var_col.end() ? kNoColumn : it->second);
  }
  project->est_rows = current_est;
  project->label = "project";
  project->children.push_back(std::move(root));
  root = std::move(project);

  if (spec.distinct) {
    auto dedup = std::make_unique<PlanNode>(OpKind::kHashDedup);
    dedup->width = root->width;
    dedup->est_rows = current_est;
    dedup->label = "dedup";
    dedup->children.push_back(std::move(root));
    root = std::move(dedup);
  }
  if (spec.limit != SIZE_MAX || spec.offset != 0) {
    auto limit = std::make_unique<PlanNode>(OpKind::kLimit);
    limit->width = root->width;
    limit->limit = spec.limit;
    limit->offset = spec.offset;
    limit->est_rows = current_est < 0
                          ? -1
                          : std::min(current_est,
                                     static_cast<double>(
                                         spec.limit == SIZE_MAX
                                             ? std::numeric_limits<
                                                   double>::max()
                                             : static_cast<double>(spec.limit)));
    limit->label = "limit";
    limit->children.push_back(std::move(root));
    root = std::move(limit);
  }

  compiled.root = std::move(root);
  compiled.est_rows = current_est;
  return compiled;
}

}  // namespace wdr::exec
